"""The checkpoint file layout: a JSON header line naming each tensor's shape,
then each tensor as ``uint32 rank | uint32 dims[rank] | float32 data``."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from diarnet.model import ModelConfig, init_model_params, param_specs
from diarnet.training import SerializationError, load_checkpoint, save_checkpoint


def _cfg() -> ModelConfig:
    return ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2,
                       n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)


def _saved(tmp_path, meta=None):
    """Parameters of a small model, and the path they were saved to."""
    params = init_model_params(_cfg(), np.random.default_rng(7))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, params, _cfg(), meta=meta)
    return params, p


def test_array_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = init_model_params(_cfg(), rng)
    for t in params.values():     # values no initialiser draws, every rank included
        t.data = rng.standard_normal(t.data.shape).astype(np.float32)
    assert {t.data.ndim for t in params.values()} >= {0, 1, 2, 4}
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, params, _cfg())
    back, _ = load_checkpoint(p)
    assert list(back) == list(params)
    for k, t in params.items():
        assert back[k].data.dtype == np.float32
        assert np.array_equal(back[k].data, t.data)


def test_array_layout_is_rank_shape_floats(tmp_path):
    params, p = _saved(tmp_path)
    rest = p.read_bytes().split(b"\n", 1)[1]
    w = params["frontend.conv1.w"].data
    assert w.shape == (2, 1, 3, 3)
    assert rest[:20] == struct.pack("<5I", 4, 2, 1, 3, 3)
    assert np.array_equal(np.frombuffer(rest[20:20 + w.nbytes], "<f4"), w.reshape(-1))
    last = params["head.b_global"].data       # rank 0: no dims, one float
    assert last.shape == ()
    assert rest[-8:] == struct.pack("<I", 0) + last.astype("<f4").tobytes()


def test_bundle_round_trip_and_manifest(tmp_path):
    _, p = _saved(tmp_path, meta={"note": "unit", "step": 3})
    manifest = json.loads(p.read_bytes().split(b"\n", 1)[0])
    assert manifest == {
        "format": "tensor-bundle-v1",
        "tensors": [{"name": k, "shape": list(shape)} for k, shape, _ in param_specs(_cfg())],
        "extra": {"model": _cfg().to_dict(), "note": "unit", "step": 3}}
    _, cfg = load_checkpoint(p)
    assert cfg == _cfg()


def test_bundle_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"\x00\x01\x02\x03 not json\n")
    with pytest.raises(SerializationError, match="bad checkpoint header"):
        load_checkpoint(p)


@pytest.mark.parametrize("header", [b"{not json\n"])
def test_corrupt_bundle_header_raises_serialization_error(tmp_path, header):
    _, p = _saved(tmp_path)
    rest = p.read_bytes().split(b"\n", 1)[1]
    p.write_bytes(header + rest)
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert str(e.value).startswith(f"{p}: bad checkpoint header"), str(e.value)


@pytest.mark.parametrize("cut", [0, 8])
def test_bundle_payload_must_match_manifest(tmp_path, cut):
    _, p = _saved(tmp_path)
    raw = p.read_bytes()
    if cut:         # the last record, rank 0 and one float, cut off whole
        p.write_bytes(raw[:-cut])
        name = "head.b_global"
    else:           # the first record's dims disagree with its header entry
        head, rest = raw.split(b"\n", 1)
        p.write_bytes(head + b"\n" + struct.pack("<5I", 4, 3, 1, 3, 2) + rest[20:])
        name = "frontend.conv1.w"
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert str(e.value).startswith(f"{p}: record of {name} does not start with its rank"), \
        str(e.value)


def test_payload_dims_are_checked_against_manifest_before_reading(tmp_path):
    _, p = _saved(tmp_path)
    head = p.read_bytes().split(b"\n", 1)[0]
    p.write_bytes(head + b"\n" + struct.pack("<5I", 4, 2 ** 30, 1, 3, 3) + b"\x00" * 12)
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError,
                           match=r"record of frontend\.conv1\.w does not start") as e:
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value).startswith(str(p))
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("keep", [2, 12], ids=["header", "shape"])
def test_short_array_record_is_a_serialization_error(tmp_path, keep):
    """The first record ends `keep` bytes in: inside its rank, or inside its dims."""
    _, p = _saved(tmp_path)
    head, rest = p.read_bytes().split(b"\n", 1)
    p.write_bytes(head + b"\n" + rest[:keep])
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert e.type is SerializationError
    assert str(e.value).startswith(f"{p}: record of frontend.conv1.w does not start"), \
        str(e.value)


@pytest.mark.parametrize("tail", ["junk", "second-checkpoint"])
def test_bytes_after_the_last_tensor_are_a_serialization_error(tmp_path, tail):
    _, p = _saved(tmp_path)
    raw = p.read_bytes()
    extra = b"26 bytes of junk after it!" if tail == "junk" else raw
    p.write_bytes(raw + extra)
    with pytest.raises(SerializationError) as e:
        load_checkpoint(p)
    assert str(e.value) == f"{p}: {len(extra)} bytes after the last tensor"
