import io
import json
import struct

import numpy as np
import pytest

from diarnet.serialize import (
    SerializationError,
    load_bundle,
    read_array,
    save_bundle,
    write_array,
)


def _round_trip(arr: np.ndarray) -> np.ndarray:
    buf = io.BytesIO()
    write_array(buf, arr)
    buf.seek(0)
    return read_array(buf)


def test_array_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 5, 2)).astype(np.float32)
    back = _round_trip(arr)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_array_layout_is_rank_shape_floats():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    buf = io.BytesIO()
    write_array(buf, arr)
    raw = buf.getvalue()
    assert raw[:4] == (2).to_bytes(4, "little")
    assert raw[4:8] == (2).to_bytes(4, "little")
    assert raw[8:12] == (3).to_bytes(4, "little")
    assert np.array_equal(np.frombuffer(raw[12:], dtype="<f4"), arr.reshape(-1))


def test_truncated_file_rejected():
    buf = io.BytesIO()
    write_array(buf, np.ones((4, 4), dtype=np.float32))
    with pytest.raises(SerializationError):
        read_array(io.BytesIO(buf.getvalue()[:-8]))


def test_bundle_round_trip_and_manifest(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "enc.w": rng.standard_normal((4, 3)).astype(np.float32),
        "enc.b": np.zeros(4, dtype=np.float32),
    }
    p = tmp_path / "ckpt.bin"
    save_bundle(p, named, extra={"note": "unit", "dims": [4, 3]})
    manifest = json.loads(p.read_bytes().split(b"\n", 1)[0])
    assert manifest["tensors"] == [{"name": "enc.w", "shape": [4, 3]},
                                   {"name": "enc.b", "shape": [4]}]
    back, extra = load_bundle(p)
    assert extra == {"note": "unit", "dims": [4, 3]}
    assert list(back) == list(named)
    for k in named:
        assert np.array_equal(back[k], named[k])


def test_bundle_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"\x00\x01\x02\x03 not json\n")
    with pytest.raises(SerializationError):
        load_bundle(p)


@pytest.mark.parametrize("header", [
    b"{not json\n",                                   # JSONDecodeError
    b"\xff\xfe\x00garbage\n",                        # UnicodeDecodeError
    b'{"format": "tensor-bundle-v1", "extra": {}}\n',  # no tensor list
    b'{"format": "tensor-bundle-v1", "tensors": [{"shape": [2]}]}\n',
    b"[1, 2, 3]\n",
    b'{"format": "tensor-bundle-v1", "tensors": [], "extra": [1]}\n',
    b'{"format": "tensor-bundle-v1", "tensors": [{"name": ["a"], "shape": []}]}\n',
    pytest.param(b'{"format": "tensor-bundle-v1", "tensors": [], "extra": ' + b"9" * 5000
                 + b"}\n", id="int past the digit limit"),
])
def test_corrupt_bundle_header_raises_serialization_error(tmp_path, header):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(header + b"\x00" * 16)
    with pytest.raises(SerializationError):
        load_bundle(p)


@pytest.mark.parametrize("cut", [0, 8])
def test_bundle_payload_must_match_manifest(tmp_path, cut):
    p = tmp_path / "m.ckpt"
    save_bundle(p, {"head.w": np.zeros(3, dtype=np.float32)})
    raw = p.read_bytes()
    if cut:
        p.write_bytes(raw[:-cut])                          # truncated payload
    else:
        p.write_bytes(raw.replace(b'"shape": [3]', b'"shape": [2]'))
    with pytest.raises(SerializationError) as e:
        load_bundle(p)
    assert str(p) in str(e.value) and "head.w" in str(e.value)


class _NoOverread(io.BytesIO):
    """A stream that fails the test on a read past its end: a real file
    would first allocate the bytes asked for."""

    def read(self, n=-1):
        assert n <= len(self.getbuffer()) - self.tell(), f"read of {n} bytes past the end"
        return super().read(n)


def test_payload_larger_than_file_is_refused_before_reading():
    raw = struct.pack("<II", 1, 2 ** 30) + b"\x00" * 16
    with pytest.raises(SerializationError, match="truncated tensor payload"):
        read_array(_NoOverread(raw))


def test_payload_dims_are_checked_against_manifest_before_reading():
    raw = struct.pack("<II", 1, 2 ** 30) + b"\x00" * 12
    with pytest.raises(SerializationError, match=r"\(1073741824,\) != manifest \[3\]"):
        read_array(_NoOverread(raw), (3,))


@pytest.mark.parametrize("raw,prefix", [
    (b"\x01\x00", "truncated tensor header"),
    (struct.pack("<II", 2, 3), "truncated shape"),
], ids=["header", "shape"])
def test_short_array_record_is_a_serialization_error(raw, prefix):
    with pytest.raises(SerializationError) as e:
        read_array(io.BytesIO(raw))
    assert e.type is SerializationError and str(e.value).startswith(prefix), str(e.value)


def test_write_array_refuses_a_rank_above_the_limit_before_writing():
    buf = io.BytesIO()
    with pytest.raises(SerializationError, match=r"^rank 9 exceeds limit 8$"):
        write_array(buf, np.zeros((1,) * 9, dtype=np.float32))
    assert buf.getvalue() == b""


def test_dims_whose_product_overflows_int64_are_a_serialization_error(tmp_path):
    dims = [2 ** 32 - 1] * 2
    header = {"format": "tensor-bundle-v1", "tensors": [{"name": "w", "shape": dims}]}
    p = tmp_path / "huge.ckpt"
    p.write_bytes(json.dumps(header).encode() + b"\n" + struct.pack("<3I", 2, *dims)
                  + b"\x00" * 64)
    with pytest.raises(SerializationError, match="truncated tensor payload") as e:
        load_bundle(p)
    assert str(p) in str(e.value) and "for w" in str(e.value)
