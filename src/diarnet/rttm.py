"""RTTM segment-file interchange.

Line format (3-decimal second precision):

    SPEAKER <file-id> 1 <tbeg> <tdur> <NA> <NA> <speaker> <NA> <NA>
"""

from __future__ import annotations

import math
from pathlib import Path

from .scoring import DiarizationHypothesis


class RttmParseError(ValueError):
    pass


def write_rttm(path, hyps) -> None:
    """Write one hypothesis or a {file_id: hypothesis} mapping."""
    if isinstance(hyps, DiarizationHypothesis):
        hyps = {hyps.file_id: hyps}
    lines = []
    for file_id, hyp in hyps.items():
        for start, end, spk in sorted(hyp.segments):
            lines.append(f"SPEAKER {file_id} 1 {start:.3f} {end - start:.3f} "
                         f"<NA> <NA> {spk} <NA> <NA>")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_rttm(path) -> dict[str, DiarizationHypothesis]:
    """Parse into one hypothesis per file-id; malformed lines name their number."""
    grouped: dict[str, list[tuple[float, float, str]]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    return {fid: DiarizationHypothesis(segments=segs, file_id=fid)
            for fid, segs in grouped.items()}
