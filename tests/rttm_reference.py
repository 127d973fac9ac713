"""The line-by-line RTTM reader and the tuple-sorting writer that the bulk
reader and the columnar writer in `diarnet.rttm` replaced, kept as
references for tests.

`read_rttm` returns {file_id: [(start_s, end_s, speaker), ...]} in file
order. Undecodable bytes raise UnicodeDecodeError here, and time fields go
through Python's float(), so `1_0` and full-width digits are read as
numbers.
"""

import math
from pathlib import Path

from diarnet.rttm import RttmParseError


def read_rttm(path) -> dict[str, list[tuple[float, float, str]]]:
    grouped: dict[str, list[tuple[float, float, str]]] = {}
    for lineno, raw in enumerate(Path(path).read_bytes().decode("utf-8").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) < 8 or parts[0] != "SPEAKER":
            raise RttmParseError(f"{path}:{lineno}: expected a SPEAKER record")
        try:
            tbeg = float(parts[3])
            tdur = float(parts[4])
        except ValueError as e:
            raise RttmParseError(f"{path}:{lineno}: bad time field: {e}") from e
        if not (math.isfinite(tbeg) and math.isfinite(tdur)):
            raise RttmParseError(f"{path}:{lineno}: non-finite time field "
                                 f"(tbeg {parts[3]}, tdur {parts[4]})")
        if not tbeg + tdur > tbeg:       # tdur <= 0, or too small to move tbeg
            raise RttmParseError(f"{path}:{lineno}: segment end does not exceed its onset "
                                 f"(tbeg {parts[3]}, tdur {parts[4]})")
        grouped.setdefault(parts[1], []).append((tbeg, tbeg + tdur, parts[7]))
    return grouped


def write_rttm(path, hyps: dict) -> None:
    """Write {file_id: [(start_s, end_s, speaker), ...]}, each file's
    triples in sorted order."""
    lines = []
    for file_id, segments in hyps.items():
        for start, end, spk in sorted(segments):
            lines.append(f"SPEAKER {file_id} 1 {start:.3f} {end - start:.3f} "
                         f"<NA> <NA> {spk} <NA> <NA>")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
