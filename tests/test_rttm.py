"""The bulk RTTM reader and the columnar writer against the line-by-line
reader and the tuple-sorting writer they replaced (tests/rttm_reference.py)."""

import re

import numpy as np
import pytest

import rttm_reference
from diarnet import rttm
from diarnet.rttm import RttmParseError, RttmWriteError, read_rttm, write_rttm
from diarnet.scoring import DiarizationHypothesis

# several file ids, interleaved; 8, 9 and 10 fields; tabs; comments after
# blanks; a `;` inside a speaker name; blank lines; a 44-character speaker
VALID = (
    ";; header comment\n"
    "SPEAKER f1 1 0.000 1.500 <NA> <NA> spk0 <NA> <NA>\n"
    "   ; indented comment\n"
    "\n"
    "SPEAKER f2 1 0.250 0.750 <NA> <NA> a;b <NA>\n"
    "SPEAKER\tf1\t1\t1.234\t3.333\t<NA>\t<NA>\tspk1\n"
    " \t \n"
    "\t;tabbed comment\n"
    "SPEAKER f3 1 12.5 1e-3 <NA> <NA> " + "x" * 44 + " <NA> <NA>\n"
    "SPEAKER f1 1 0.000 1.500 <NA> <NA> spk0 <NA> <NA>\n"
    "  SPEAKER f2 1 3 4 <NA> <NA> c <NA> <NA>  \n"
)


def _reference(path):
    """The reference reader's result, or the line number it names (0: an
    undecodable file, which it does not place)."""
    try:
        return rttm_reference.read_rttm(path)
    except UnicodeDecodeError:
        return 0
    except RttmParseError as e:
        return int(re.search(r":(\d+):", str(e)).group(1))


def _bulk(path):
    """The same for the bulk reader, as triples."""
    try:
        return {fid: hyp.segments for fid, hyp in read_rttm(path).items()}
    except RttmParseError as e:
        return int(re.search(r":(\d+):", str(e)).group(1))


def _float_only(text: str) -> bool:
    """Whether a record has a time field that only Python's float() reads
    (an underscore or a non-ASCII character); the bulk reader rejects it."""
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 8 and parts[0] == "SPEAKER" and any(
                "_" in f or not f.isascii() for f in parts[3:5]):
            return True
    return False


def test_valid_file_matches_reference(tmp_path):
    p = tmp_path / "v.rttm"
    p.write_text(VALID)
    got = read_rttm(p)
    assert list(got) == ["f1", "f2", "f3"]
    assert got["f1"].segments == [(0.0, 1.5, "spk0"), (1.234, 1.234 + 3.333, "spk1"),
                                  (0.0, 1.5, "spk0")]
    assert got["f2"].segments == [(0.25, 1.0, "a;b"), (3.0, 7.0, "c")]
    assert got["f3"].names == ("x" * 44,)
    assert _bulk(p) == _reference(p)


@pytest.mark.parametrize("text,line", [
    ("SPEAKER f 1 0 1 a b c\nSPEAKER f 1 0 1 a b\n", 2),                 # 7 fields
    ("SPEAKER f 1 0 1 a b c\nspeaker f 1 0 1 a b c\n", 2),              # tag
    ("SPEAKER f 1 0 1 a b c\n;ok\nSPEAKER f 1 0 x a b c\n", 3),          # not a number
    ("SPEAKER f 1 0 1 a b c\nSPEAKER f 1 nan 1 a b c\n", 2),
    ("SPEAKER f 1 0 -1 a b c\n", 1),
    ("SPEAKER f 1 0 1 a b c\n\x00\n", 2),                                # NUL is not blank
])
def test_bad_line_is_named_like_reference(tmp_path, text, line):
    p = tmp_path / "bad.rttm"
    p.write_text(text)
    assert _reference(p) == line
    with pytest.raises(RttmParseError, match=f"{re.escape(str(p))}:{line}:"):
        read_rttm(p)


@pytest.mark.parametrize("field", ["1_0", "\uff11\uff12"])  # full-width 12
def test_times_only_float_reads_are_errors(tmp_path, field):
    p = tmp_path / "t.rttm"
    p.write_text(f"SPEAKER f 1 0 1 a b c\nSPEAKER f 1 {field} 1 a b c\n")
    assert rttm_reference.read_rttm(p)["f"][1][0] in (10.0, 12.0)
    with pytest.raises(RttmParseError, match=r":2: bad time field"):
        read_rttm(p)


@pytest.mark.parametrize("raw,line", [
    (b"SPEAKER f 1 0 1 a b c\n;\xff\n", 2),
    (b"SPEAKER f 1 0 1 a b \xe9\n", 1),
    (b"\r\n\rSPEAKER f 1 0 1 a b \xc3\n", 3),
])
def test_non_utf8_is_a_parse_error_naming_the_line(tmp_path, raw, line):
    p = tmp_path / "latin1.rttm"
    p.write_bytes(raw)
    with pytest.raises(RttmParseError, match=f"{re.escape(str(p))}:{line}: not UTF-8"):
        read_rttm(p)


def test_comment_and_blank_only_files_are_empty(tmp_path):
    p = tmp_path / "c.rttm"
    for text in ("", "\n \n", ";x\n  ;y SPEAKER\n\t\n"):
        p.write_text(text)
        assert read_rttm(p) == {} == rttm_reference.read_rttm(p)


_INSERTS = [bytes([b]) for b in b" \t\n\r;_.-+e0123456789SPEAKERfaxN<>"] + [
    b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"\xff", b"\xc3", "\u00a0".encode(),
    "\u3000".encode(), "\u2003".encode(), "\x85".encode(), "\uff11".encode(), b"inf",
    b"nan", b"1e400", b" SPEAKER"]


def _mutant(rng, base: bytes) -> bytes:
    out = bytearray(base)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(out) + 1))
        op = rng.integers(0, 4)
        if op == 0 and pos < len(out):
            del out[pos]
        elif op == 1:
            out[pos:pos] = _INSERTS[int(rng.integers(0, len(_INSERTS)))]
        elif op == 2 and pos < len(out):
            out[pos] = int(rng.integers(0, 256))
        else:
            lines = bytes(out).split(b"\n")
            k = int(rng.integers(0, len(lines)))
            lines.insert(k, lines[int(rng.integers(0, len(lines)))])
            out = bytearray(b"\n".join(lines))
    return bytes(out)


def test_mutated_files_read_like_reference(tmp_path):
    rng = np.random.default_rng(2024)
    p = tmp_path / "m.rttm"
    base = VALID.encode()
    outcomes = {"same": 0, "error": 0, "float_only": 0}
    for _ in range(400):
        raw = _mutant(rng, base)
        p.write_bytes(raw)
        want, got = _reference(p), _bulk(p)
        if isinstance(got, int) and want != 0 and _float_only(raw.decode()):
            # the first float()-only time is an error, wherever the reference stops
            outcomes["float_only"] += 1
            continue
        # the reference cannot place an undecodable byte; the bulk reader can
        assert got == want or (want == 0 and isinstance(got, int)), raw
        outcomes["error" if isinstance(got, int) else "same"] += 1
    assert min(outcomes["same"], outcomes["error"]) >= 50, outcomes


# one file id, no comments, every line starting "SPEAKER rec ": the form the
# reader takes a shortcut for, reading neither the tags nor the ids
ONE_FILE = (
    "SPEAKER rec 1 0.000 1.500 <NA> <NA> spk0 <NA> <NA>\n"
    "SPEAKER rec 1 0.250 0.750 <NA> <NA> a-b <NA>\n"
    "SPEAKER rec 1\t1.234\t3.333\t<NA>\t<NA>\tspk1\n"
    "SPEAKER rec 1 12.5 1e-3 <NA> <NA> spk0 <NA> <NA>\r\n"
    "SPEAKER rec 1 3 4 <NA> <NA> c <NA> <NA>  \n"
)


def test_one_file_mutants_read_like_reference(tmp_path, monkeypatch):
    parse, shortcuts = rttm._parse, []
    monkeypatch.setattr(rttm, "_parse", lambda lines, skip=0: (
        shortcuts.append(skip > 0), parse(lines, skip))[1])
    rng = np.random.default_rng(2026)
    p = tmp_path / "one.rttm"
    outcomes = {"same": 0, "error": 0, "float_only": 0}
    for _ in range(400):
        raw = _mutant(rng, ONE_FILE.encode())
        p.write_bytes(raw)
        want, got = _reference(p), _bulk(p)
        if isinstance(got, int) and want != 0 and _float_only(raw.decode()):
            outcomes["float_only"] += 1
            continue
        assert got == want or (want == 0 and isinstance(got, int)), raw
        outcomes["error" if isinstance(got, int) else "same"] += 1
    assert min(outcomes["same"], outcomes["error"]) >= 50, outcomes
    # the shortcut read most files, and the full parse the rest
    assert 100 <= sum(shortcuts) <= len(shortcuts) - 50, (sum(shortcuts), len(shortcuts))


@pytest.mark.parametrize("segments", [
    [],
    [(1.0, 2.0, "b"), (1.0, 2.0, "a"), (1.0, 1.5, "c"), (0.5, 3.0, "a"), (1.0, 1.5, "a")],
    [(0.0, 0.1, "spk10"), (0.0, 0.1, "spk2"), (0.0, 0.1, "Spk1"), (-0.0, 0.1, "spk2")],
])
def test_write_rttm_matches_tuple_sort(tmp_path, segments):
    got, want = tmp_path / "got.rttm", tmp_path / "want.rttm"
    write_rttm(got, DiarizationHypothesis(segments, file_id="f"))
    rttm_reference.write_rttm(want, {"f": segments})
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("file_id,speaker,bad", [
    ("my rec", "1", "my rec"), ("f", "spk a", "spk a"), ("f", "a\tb", "a\tb"),
    ("", "1", ""), ("f", "", ""), (" f", "1", " f"),
])
def test_write_rttm_refuses_a_field_that_would_split(tmp_path, file_id, speaker, bad):
    # read back, "my rec" was file "my" with times shifted one field along
    p = tmp_path / "h.rttm"
    hyp = DiarizationHypothesis([(0.5, 1.5, "0"), (2.0, 3.0, speaker)], file_id=file_id)
    ok = DiarizationHypothesis([(0.0, 1.0, "0")], file_id="ok")
    with pytest.raises(RttmWriteError, match=re.escape(repr(bad))):
        write_rttm(p, {"ok": ok, file_id: hyp})
    assert not p.exists()


def test_write_rttm_random_ties_match_tuple_sort(tmp_path):
    rng = np.random.default_rng(5)
    got, want = tmp_path / "got.rttm", tmp_path / "want.rttm"
    for _ in range(20):
        n = int(rng.integers(1, 40))
        starts = rng.integers(0, 5, size=n) / 4
        segs = [(float(s), float(s + rng.integers(1, 4) / 4), str(rng.choice(["a", "b", "c"])))
                for s in starts]
        by_file = {"x": segs, "y%s{}": segs[::-1]}
        write_rttm(got, {k: DiarizationHypothesis(v, file_id=k) for k, v in by_file.items()})
        rttm_reference.write_rttm(want, by_file)
        assert got.read_bytes() == want.read_bytes()
