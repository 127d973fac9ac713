"""RTTM segment-file interchange.

Line format (3-decimal second precision):

    SPEAKER <file-id> 1 <tbeg> <tdur> <NA> <NA> <speaker> <NA> <NA>

Fields are separated by any run of whitespace and a record may carry more
than 8 of them; only the tag, file id, onset, duration and speaker are
read. A line that is blank or whose first non-blank character is `;` is a
comment (a `;` later in a line is text). The file must be UTF-8. Anything
else (undecodable bytes, a record that is not a `SPEAKER` line of at least
8 fields, a time or an end that is not a finite number, a duration that
does not move the onset) is an `RttmParseError` naming `path:line`. In a
file of one id whose lines all start `SPEAKER <id> `, as `write_rttm` writes
them, the tags and ids are not parsed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NoReturn

import numpy as np

from .scoring import DiarizationHypothesis, ScoringError


class RttmParseError(ValueError):
    pass


class RttmWriteError(ValueError):
    """A file id or speaker name that would not read back as one RTTM field."""


# the tag, file id, onset, duration and speaker of each record
_FIELDS = [("tag", object), ("file", object), ("tbeg", float), ("tdur", float),
           ("speaker", object)]


def _parse(lines: list[str], skip: int = 0) -> np.ndarray:
    """All records of `lines` (no comments) in one call, less their first
    `skip` fields; blank lines are skipped."""
    return np.loadtxt(lines, dtype=_FIELDS[skip:], usecols=(0, 1, 3, 4, 7)[skip:],
                      comments=None, ndmin=1)


def check_field(path, what: str, value) -> None:
    """Raise RttmWriteError unless `str(value)` reads back as one RTTM field
    of a file written to `path`: it is not empty and holds no whitespace."""
    value = str(value)
    if value.split() != [value]:
        raise RttmWriteError(f"{path}: {what} {value!r} is empty or holds whitespace")


def write_rttm(path, hyps) -> None:
    """Write one hypothesis or a {file_id: hypothesis} mapping; each file's
    lines are sorted by start, then end, then speaker name. A file id or
    speaker name that is empty or holds whitespace raises RttmWriteError and
    writes nothing."""
    if isinstance(hyps, DiarizationHypothesis):
        hyps = {hyps.file_id: hyps}
    text = []
    for file_id, hyp in hyps.items():
        for what, value in (("file id", file_id), *(("speaker", n) for n in hyp.names)):
            check_field(path, what, value)
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
        if not math.isfinite(tbeg + tdur):   # a time, or the end they add up to
            raise RttmParseError(f"{path}:{lineno}: non-finite time field or end {times}")
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
    if not any(map(str.strip, lines)):   # loadtxt warns on input without records
        return {}
    # the usual file: one id, every line starting "SPEAKER <id> ", so no tag or id to parse
    head = lines[0].split(None, 2)
    prefix = f"SPEAKER {head[1]} " if len(head) == 3 and head[0] == "SPEAKER" else None
    one_file = prefix and lines is all_lines and (
        text.startswith(prefix) + text.count("\n" + prefix) == len(lines))
    try:
        records = _parse(lines, skip=2 if one_file else 0)
    except ValueError:                   # too few fields, or a time that is not a number
        _raise_first_bad_line(path, all_lines)
    tbeg, speakers = records["tbeg"], records["speaker"]
    with np.errstate(over="ignore"):     # an end past the largest float is inf: an error
        tend = tbeg + records["tdur"]
    if one_file:
        groups = {head[1]: slice(None)}
    elif not (records["tag"] == "SPEAKER").all():
        _raise_first_bad_line(path, all_lines)
    else:                                # one hypothesis per file id, rows kept in file order
        files = records["file"].tolist()
        index = {file_id: i for i, file_id in enumerate(dict.fromkeys(files))}
        code = np.fromiter(map(index.__getitem__, files), np.intp, len(files))
        order = np.argsort(code, kind="stable")
        groups = dict(zip(index, np.split(order, np.cumsum(np.bincount(code))[:-1])))
    try:                                 # a non-finite time, or an end not past its onset, fails
        return {file_id: DiarizationHypothesis.from_columns(
                    tbeg[rows], tend[rows], speakers[rows].tolist(), file_id)
                for file_id, rows in groups.items()}
    except ScoringError:
        _raise_first_bad_line(path, all_lines)
