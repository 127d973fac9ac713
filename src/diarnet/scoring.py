"""Posterior post-processing and collar-aware DER/SAD scoring.

The scorer works on exact timeline algebra rather than a frame grid. The
boundaries of both files and of the collar zones, rounded to 1 ns, are
sorted into cuts that split time into cells; since every boundary is itself
a cut, each segment and each zone covers a contiguous range of cells.
`cover` turns such ranges into a coverage matrix by counting open
intervals: +1 where a range starts, -1 where it ends, and a running sum, so
overlapping, touching and nested ranges need no merging. That gives the
(speakers, cells) activity of each file and the collar mask in O(N log N +
S·C) for N segments, C cells and S speakers. A global speaker mapping is
chosen by optimal assignment on overlap durations inside the scored
regions, and missed/false-alarm/confusion time is a dot product of per-cell
speaker counts with the scored cell durations. Overlapping speech is always
scored; a collar around every reference boundary is excluded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .frontend import FRAME_S

_TIME_DECIMALS = 9


class ScoringError(ValueError):
    pass


@dataclass
class DiarizationHypothesis:
    """Speaker-labeled segments: (start_s, end_s, speaker)."""
    segments: list[tuple[float, float, str]] = field(default_factory=list)
    file_id: str = "rec"

    def __post_init__(self):
        for start, end, spk in self.segments:
            if not end > start:
                raise ScoringError(f"segment for {spk!r} has no duration: [{start}, {end})")

    def speakers(self) -> list[str]:
        return sorted({s for _, _, s in self.segments})


def cover(lo, hi, rows, n_rows: int, n: int) -> np.ndarray:
    """(n_rows, n) bool: position j of row r is covered when some range k
    with rows[k] == r has lo[k] <= j < hi[k]. Counts the ranges open at each
    position (+1 at lo, -1 at hi, running sum), so ranges may overlap, touch
    or nest and come in any order; a range with hi <= lo covers nothing."""
    lo = np.asarray(lo, dtype=np.intp)
    base = np.asarray(rows, dtype=np.intp) * (n + 1)
    size = n_rows * (n + 1)
    opened = (np.bincount(base + lo, minlength=size)
              - np.bincount(base + np.maximum(hi, lo), minlength=size))
    return np.cumsum(opened.reshape(n_rows, n + 1)[:, :n], axis=1) > 0


# ---------------------------------------------------------------------------
# posteriors -> segments
# ---------------------------------------------------------------------------

def _median_binary(mask: np.ndarray, width: int) -> np.ndarray:
    """Binary median filter: majority vote in a zero-padded window."""
    if width <= 1:
        return mask
    pad = width // 2
    padded = np.pad(mask.astype(np.int32), pad)
    csum = np.concatenate([[0], np.cumsum(padded)])
    counts = csum[width:] - csum[:-width]
    return counts > width // 2


def mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous [start, end) index runs of a boolean vector."""
    padded = np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    return [(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]


def posterior_to_segments(probs: np.ndarray, threshold: float = 0.5,
                          median_w: int = 11, file_id: str = "rec",
                          speaker_names: list | None = None) -> DiarizationHypothesis:
    """Threshold per slot, median-filter, merge runs on the frame grid.

    `threshold` and the posteriors lie in [0, 1]; `median_w` is an odd int >= 1 (1: no filter).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ScoringError(f"threshold must lie in [0, 1], got {threshold}")
    if not (isinstance(median_w, numbers.Integral) and median_w >= 1 and median_w % 2 == 1):
        raise ScoringError(f"median width must be a positive odd integer, got {median_w}")
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError(f"expected (T, S) posteriors, got {probs.shape}")
    if not np.all((probs >= 0) & (probs <= 1)):
        raise ScoringError("posteriors must lie in [0, 1] and not be NaN")
    s = probs.shape[1]
    names = speaker_names or [str(i) for i in range(s)]
    segments = []
    for slot in range(s):
        mask = _median_binary(probs[:, slot] >= threshold, median_w)
        segments += [(round(a * FRAME_S, 3), round(b * FRAME_S, 3), names[slot])
                     for a, b in mask_runs(mask)]
    return DiarizationHypothesis(segments=segments, file_id=file_id)


# ---------------------------------------------------------------------------
# DER scoring
# ---------------------------------------------------------------------------

@dataclass
class DerReport:
    der: float
    ms: float
    fa: float
    cf: float
    sad_ms: float
    sad_fa: float
    total_scored_s: float
    # absolute seconds, for aggregation across files
    ref_speaker_s: float = 0.0
    ref_speech_s: float = 0.0
    miss_s: float = 0.0
    fa_s: float = 0.0
    conf_s: float = 0.0
    sad_miss_s: float = 0.0
    sad_fa_s: float = 0.0

    @classmethod
    def from_seconds(cls, total_scored_s, ref_speaker_s, ref_speech_s, miss_s, fa_s, conf_s,
                     sad_miss_s, sad_fa_s) -> "DerReport":
        """The rates, in percent of reference speaker time (SAD rates: of
        reference speech time), next to the second totals they come from."""
        if ref_speaker_s <= 0:
            raise ScoringError("no scored reference speech (empty, or the collar removed it)")
        pct = 100.0 / ref_speaker_s
        sad_pct = 100.0 / ref_speech_s if ref_speech_s > 0 else 0.0
        return cls((miss_s + fa_s + conf_s) * pct, miss_s * pct, fa_s * pct, conf_s * pct,
                   sad_miss_s * sad_pct, sad_fa_s * sad_pct, total_scored_s, ref_speaker_s,
                   ref_speech_s, miss_s, fa_s, conf_s, sad_miss_s, sad_fa_s)

    def __str__(self):
        return (f"DER {self.der:.2f} MS {self.ms:.2f} FA {self.fa:.2f} "
                f"CF {self.cf:.2f} SAD_MS {self.sad_ms:.2f} SAD_FA {self.sad_fa:.2f}")


# the absolute-second fields, which add across files: all but the six rates
_SECONDS = tuple(f.name for f in fields(DerReport))[6:]


def _columns(timeline: DiarizationHypothesis):
    """Starts, ends, speaker rows (into the sorted speaker names) and the
    number of speakers of a timeline's segments."""
    names = {spk: i for i, spk in enumerate(timeline.speakers())}
    starts = np.array([s for s, _, _ in timeline.segments], dtype=float)
    ends = np.array([e for _, e, _ in timeline.segments], dtype=float)
    rows = np.array([names[spk] for _, _, spk in timeline.segments], dtype=np.intp)
    return starts, ends, rows, len(names)


def _optimal_speaker_map(ref_act: np.ndarray, hyp_act: np.ndarray,
                         weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global 1-1 speaker map (ref rows, hyp rows) maximizing matched time
    in scored regions; pairs that never co-occur are left unmapped."""
    overlap = (ref_act * weight) @ hyp_act.astype(float).T
    rows, cols = linear_sum_assignment(-overlap)
    keep = overlap[rows, cols] > 0
    return rows[keep], cols[keep]


def der_score(ref: DiarizationHypothesis, hyp: DiarizationHypothesis,
              collar_s: float = 0.25) -> DerReport:
    """Diarization error rate with MS/FA/CF decomposition plus SAD rates.

    Percentages are relative to total reference speaker time in the scored
    regions (SAD rates: total reference speech time). Raises ScoringError
    when the scored reference is empty or the collar is negative or not
    finite.
    """
    if not 0.0 <= collar_s < math.inf:
        raise ScoringError(f"collar must be finite and >= 0 s, got {collar_s}")
    if not ref.segments:
        raise ScoringError("reference timeline is empty")
    r_start, r_end, r_rows, n_ref = _columns(ref)
    h_start, h_end, h_rows, n_hyp = _columns(hyp)
    edges = np.concatenate([r_start, r_end]) if collar_s > 0 else np.zeros(0)
    bounds = np.round(np.concatenate([r_start, r_end, h_start, h_end,
                                      edges - collar_s, edges + collar_s]), _TIME_DECIMALS)
    # every boundary is a cut, so its cut's index is the cell it opens or closes
    cuts, at = np.unique(bounds, return_inverse=True)
    n = len(cuts) - 1
    sizes = np.cumsum([len(r_start)] * 2 + [len(h_start)] * 2 + [len(edges)])
    r_lo, r_hi, h_lo, h_hi, z_lo, z_hi = np.split(at, sizes)
    ref_act = cover(r_lo, r_hi, r_rows, n_ref, n)
    hyp_act = cover(h_lo, h_hi, h_rows, n_hyp, n)
    in_collar = cover(z_lo, z_hi, np.zeros(len(edges)), 1, n)[0]
    weight = np.diff(cuts) * ~in_collar                 # cell duration, 0 in a collar
    rows, cols = _optimal_speaker_map(ref_act, hyp_act, weight)

    nr, nh = ref_act.sum(axis=0), hyp_act.sum(axis=0)
    n_correct = (ref_act[rows] & hyp_act[cols]).sum(axis=0)
    return DerReport.from_seconds(
        total_scored_s=float(weight.sum()), ref_speaker_s=float(weight @ nr),
        ref_speech_s=float(weight @ (nr > 0)),
        miss_s=float(weight @ np.maximum(nr - nh, 0)),
        fa_s=float(weight @ np.maximum(nh - nr, 0)),
        conf_s=float(weight @ (np.minimum(nr, nh) - n_correct)),
        sad_miss_s=float(weight @ ((nr > 0) & (nh == 0))),
        sad_fa_s=float(weight @ ((nh > 0) & (nr == 0))))


def aggregate_reports(reports: list[DerReport]) -> DerReport:
    """Duration-weighted combination of per-file reports."""
    if not reports:
        raise ScoringError("nothing to aggregate")
    return DerReport.from_seconds(**{k: sum(getattr(r, k) for r in reports) for k in _SECONDS})
