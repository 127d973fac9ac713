"""Binary tensor serialization and named-bundle files.

Single-array layout (used for feature dumps and fixtures):

    uint32 rank | uint32 dims[rank] | float32 data[prod(dims)]

all little-endian. A bundle file (used for checkpoints) prefixes a JSON
manifest line mapping names to shapes, followed by the arrays in manifest
order in the same layout.
"""

from __future__ import annotations

import json
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


def read_array(f) -> np.ndarray:
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
    count = int(np.prod(shape)) if rank else 1
    payload = f.read(4 * count)
    if len(payload) != 4 * count:
        raise SerializationError("truncated tensor payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)


def save_array(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_array(f, arr)


def load_array(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_array(f)


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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SerializationError(f"bad bundle header in {path}: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != "tensor-bundle-v1":
        raise SerializationError(f"{path} is not a tensor bundle")
    try:
        entries = [(t["name"], tuple(t["shape"])) for t in manifest["tensors"]]
    except (KeyError, TypeError) as e:
        raise SerializationError(f"{path}: malformed tensor list in header: {e!r}") from e
    return entries, manifest.get("extra", {})


def read_manifest(path) -> tuple[dict, dict]:
    """Return ({name: shape tuple}, extra) without loading array payloads."""
    with open(path, "rb") as f:
        entries, extra = _read_header(f, path)
    return dict(entries), extra


def load_bundle(path) -> tuple[dict, dict]:
    """Return ({name: float32 array}, extra)."""
    with open(path, "rb") as f:
        entries, extra = _read_header(f, path)
        named = {}
        for name, shape in entries:
            arr = read_array(f)
            if arr.shape != shape:
                raise SerializationError(
                    f"{path}: payload shape {arr.shape} != manifest {list(shape)} for {name}")
            named[name] = arr
    return named, extra
