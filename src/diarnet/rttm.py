"""RTTM segment-file interchange.

Line format (3-decimal second precision):

    SPEAKER <file-id> 1 <tbeg> <tdur> <NA> <NA> <speaker> <NA> <NA>

Fields are separated by any run of whitespace and a record may carry more
than 8 of them; only the tag, file id, onset, duration and speaker are
read. A line that is blank or whose first non-blank character is `;` is a
comment (a `;` later in a line is text). The file must be UTF-8. Anything
else (undecodable bytes, a record that is not a `SPEAKER` line of at least
8 fields, a time that is not a finite number, a duration that does not
move the onset) is an `RttmParseError` naming `path:line`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NoReturn

import numpy as np

from .scoring import DiarizationHypothesis


class RttmParseError(ValueError):
    pass


# the tag, file id, onset, duration and speaker of each record
_FIELDS = np.dtype([("tag", object), ("file", object), ("tbeg", np.float64),
                    ("tdur", np.float64), ("speaker", object)])


def _parse(lines: list[str]) -> np.ndarray:
    """All records of `lines` (no comments) in one call; blank lines are skipped."""
    return np.loadtxt(lines, dtype=_FIELDS, usecols=(0, 1, 3, 4, 7), comments=None, ndmin=1)


def write_rttm(path, hyps) -> None:
    """Write one hypothesis or a {file_id: hypothesis} mapping; each file's
    lines are sorted by start, then end, then speaker name."""
    if isinstance(hyps, DiarizationHypothesis):
        hyps = {hyps.file_id: hyps}
    text = []
    for file_id, hyp in hyps.items():
        # codes index the sorted names, so sorting codes sorts names
        order = np.lexsort((hyp.codes, hyp.ends, hyp.starts))
        # one %-format call per file, over start, duration, speaker triples
        values = [None] * (3 * len(order))
        values[0::3] = hyp.starts[order].tolist()
        values[1::3] = (hyp.ends - hyp.starts)[order].tolist()
        values[2::3] = [hyp.names[code] for code in hyp.codes[order].tolist()]
        line = f"SPEAKER {file_id} 1 ".replace("%", "%%") + "%.3f %.3f <NA> <NA> %s <NA> <NA>\n"
        text.append(line * len(order) % tuple(values))
    Path(path).write_text("".join(text))


def _raise_first_bad_line(path, lines: list[str]) -> NoReturn:
    """Check `lines` one by one and raise the error of the first bad record."""
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith(";"):
            continue
        if len(parts) < 8 or parts[0] != "SPEAKER":
            raise RttmParseError(f"{path}:{lineno}: expected a SPEAKER record")
        times = f"(tbeg {parts[3]}, tdur {parts[4]})"
        try:
            record = _parse([raw])[0]
        except ValueError as e:
            raise RttmParseError(f"{path}:{lineno}: bad time field {times}") from e
        tbeg, tdur = float(record["tbeg"]), float(record["tdur"])
        if not (math.isfinite(tbeg) and math.isfinite(tdur)):
            raise RttmParseError(f"{path}:{lineno}: non-finite time field {times}")
        if not tbeg + tdur > tbeg:       # tdur <= 0, or too small to move tbeg
            raise RttmParseError(f"{path}:{lineno}: segment end does not exceed its onset "
                                 f"{times}")
    raise RttmParseError(f"{path}: unreadable records")


def read_rttm(path) -> dict[str, DiarizationHypothesis]:
    """Parse into one hypothesis per file id, in order of first appearance;
    a malformed line raises RttmParseError naming its number."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = len((raw[:e.start].decode("utf-8") + "x").splitlines())
        raise RttmParseError(f"{path}:{lineno}: not UTF-8 text: {e.reason}") from None
    all_lines = text.splitlines()
    # loadtxt skips blank lines itself; comment lines need a scan, unless
    # no line can be one
    lines = ([ln for ln in all_lines if not ln.lstrip().startswith(";")]
             if ";" in text else all_lines)
    if not "".join(lines).strip():      # loadtxt warns on input without records
        return {}
    try:
        records = _parse(lines)
    except ValueError:                   # too few fields, or a time that is not a number
        _raise_first_bad_line(path, all_lines)
    tbeg, tdur = records["tbeg"], records["tdur"]
    tend = tbeg + tdur
    # a non-finite time fails, as does an end that does not exceed its onset
    # (tdur <= 0, or too small to move tbeg)
    if not np.all((records["tag"] == "SPEAKER") & np.isfinite(tbeg) & np.isfinite(tdur)
                  & (tend > tbeg)):
        _raise_first_bad_line(path, all_lines)
    # one hypothesis per file id, rows kept in file order
    files = records["file"].tolist()
    index = {file_id: i for i, file_id in enumerate(dict.fromkeys(files))}
    code = np.fromiter(map(index.__getitem__, files), np.intp, len(files))
    groups = np.split(np.argsort(code, kind="stable"), np.cumsum(np.bincount(code))[:-1])
    return {file_id: DiarizationHypothesis.from_columns(
                tbeg[rows], tend[rows], records["speaker"][rows].tolist(), file_id)
            for file_id, rows in zip(index, groups)}
