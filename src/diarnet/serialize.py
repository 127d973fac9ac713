"""Named-bundle files for checkpoints.

A bundle is a JSON manifest line mapping names to shapes, followed by the
arrays in manifest order, each laid out as

    uint32 rank | uint32 dims[rank] | float32 data[prod(dims)]

all little-endian. Each array's rank and dims are checked against its
manifest entry, and its payload against the bytes left in the file, before
the payload is read.
"""

from __future__ import annotations

import io
import json
import math
import struct

import numpy as np

_MAX_RANK = 8


class SerializationError(ValueError):
    pass


def write_array(f, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim > _MAX_RANK:
        raise SerializationError(f"rank {arr.ndim} exceeds limit {_MAX_RANK}")
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_array(f, expect: tuple | None = None) -> np.ndarray:
    """Read one array; its rank and dims must equal `expect` when given, and
    its payload must fit in the bytes left in `f`. Both are checked before
    the payload is read."""
    head = f.read(4)
    if len(head) != 4:
        raise SerializationError("truncated tensor header")
    rank, = struct.unpack("<I", head)
    if rank > _MAX_RANK:
        raise SerializationError(f"implausible rank {rank}")
    dims_raw = f.read(4 * rank)
    if len(dims_raw) != 4 * rank:
        raise SerializationError("truncated shape")
    shape = struct.unpack(f"<{rank}I", dims_raw)
    if expect is not None and shape != tuple(expect):
        raise SerializationError(f"payload shape {shape} != manifest {list(expect)}")
    nbytes = 4 * math.prod(shape)
    here = f.tell()
    left = f.seek(0, io.SEEK_END) - here
    f.seek(here)
    if nbytes > left:
        raise SerializationError(f"truncated tensor payload: {nbytes} bytes for shape "
                                 f"{shape}, {left} left")
    return np.frombuffer(f.read(nbytes), dtype="<f4").reshape(shape).astype(np.float32)


# ---------------------------------------------------------------------------
# named bundles (checkpoints)
# ---------------------------------------------------------------------------

def save_bundle(path, named: dict, extra: dict | None = None) -> None:
    """Write named arrays plus an optional JSON-serializable extra payload."""
    manifest = {
        "format": "tensor-bundle-v1",
        "tensors": [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in named.items()],
        "extra": extra or {},
    }
    with open(path, "wb") as f:
        f.write(json.dumps(manifest).encode("utf-8") + b"\n")
        for v in named.values():
            write_array(f, v)


def _read_header(f, path) -> tuple[list, dict]:
    """Parse the JSON manifest line: ([(name, shape tuple), ...], extra)."""
    try:
        manifest = json.loads(f.readline().decode("utf-8"))
    except ValueError as e:  # undecodable bytes, bad JSON, or an int past the digit limit
        raise SerializationError(f"bad bundle header in {path}: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != "tensor-bundle-v1":
        raise SerializationError(f"{path} is not a tensor bundle")
    try:
        entries = [(t["name"], tuple(t["shape"])) for t in manifest["tensors"]]
    except (KeyError, TypeError) as e:
        raise SerializationError(f"{path}: malformed tensor list in header: {e!r}") from e
    if not all(isinstance(name, str) for name, _ in entries):
        raise SerializationError(f"{path}: a tensor name in the header is not a string")
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise SerializationError(f"{path}: header extra is not an object")
    return entries, extra


def load_bundle(path) -> tuple[dict, dict]:
    """Return ({name: float32 array}, extra)."""
    with open(path, "rb") as f:
        entries, extra = _read_header(f, path)
        named = {}
        for name, shape in entries:
            try:
                named[name] = read_array(f, shape)
            except SerializationError as e:
                raise SerializationError(f"{path}: {e} for {name}") from e
    return named, extra
