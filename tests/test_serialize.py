import numpy as np
import pytest

from diarnet.serialize import (
    SerializationError,
    load_array,
    load_bundle,
    read_manifest,
    save_array,
    save_bundle,
)


def test_array_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 5, 2)).astype(np.float32)
    p = tmp_path / "a.tnsr"
    save_array(p, arr)
    back = load_array(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_array_layout_is_rank_shape_floats(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    p = tmp_path / "a.tnsr"
    save_array(p, arr)
    raw = p.read_bytes()
    assert raw[:4] == (2).to_bytes(4, "little")
    assert raw[4:8] == (2).to_bytes(4, "little")
    assert raw[8:12] == (3).to_bytes(4, "little")
    assert np.array_equal(np.frombuffer(raw[12:], dtype="<f4"), arr.reshape(-1))


def test_truncated_file_rejected(tmp_path):
    arr = np.ones((4, 4), dtype=np.float32)
    p = tmp_path / "a.tnsr"
    save_array(p, arr)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(SerializationError):
        load_array(p)


def test_bundle_round_trip_and_manifest(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "enc.w": rng.standard_normal((4, 3)).astype(np.float32),
        "enc.b": np.zeros(4, dtype=np.float32),
    }
    p = tmp_path / "ckpt.bin"
    save_bundle(p, named, extra={"note": "unit", "dims": [4, 3]})
    shapes, extra = read_manifest(p)
    assert shapes == {"enc.w": (4, 3), "enc.b": (4,)}
    assert extra["note"] == "unit"
    back, extra2 = load_bundle(p)
    assert extra2 == extra
    for k in named:
        assert np.array_equal(back[k], named[k])


def test_bundle_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"\x00\x01\x02\x03 not json\n")
    with pytest.raises(SerializationError):
        read_manifest(p)


@pytest.mark.parametrize("header", [
    b"{not json\n",                                   # JSONDecodeError
    b"\xff\xfe\x00garbage\n",                        # UnicodeDecodeError
    b'{"format": "tensor-bundle-v1", "extra": {}}\n',  # no tensor list
    b'{"format": "tensor-bundle-v1", "tensors": [{"shape": [2]}]}\n',
    b"[1, 2, 3]\n",
])
def test_corrupt_bundle_header_raises_serialization_error(tmp_path, header):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(header + b"\x00" * 16)
    for reader in (load_bundle, read_manifest):
        with pytest.raises(SerializationError):
            reader(p)
