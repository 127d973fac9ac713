"""Posterior post-processing and collar-aware DER/SAD scoring.

The scorer works on exact timeline algebra rather than a frame grid. The
boundaries of both files and of the collar zones, rounded to 1 ns, are
sorted into cuts that split time into cells. Each speaker's merged intervals
(and the merged collar zones) are sorted and disjoint, so whether a cell's
midpoint lies inside them is one binary search over the interval starts:
the activity of all speakers is a (speakers, cells) matrix built in
O((N + C·S) log N) for N segments, C cells and S speakers. A global speaker
mapping is chosen by optimal assignment on overlap durations inside the
scored regions, and missed/false-alarm/confusion time is a dot product of
per-cell speaker counts with the scored cell durations. Overlapping speech
is always scored; a collar around every reference boundary is excluded.
"""

from __future__ import annotations

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
                raise ValueError(f"segment for {spk!r} has no duration: [{start}, {end})")

    def speakers(self) -> list[str]:
        return sorted({s for _, _, s in self.segments})

    def by_speaker(self) -> dict[str, list[tuple[float, float]]]:
        """Per-speaker merged, non-overlapping interval lists."""
        out: dict[str, list[tuple[float, float]]] = {}
        for start, end, spk in self.segments:
            out.setdefault(spk, []).append((start, end))
        return {spk: merge_intervals(iv) for spk, iv in out.items()}


def merge_intervals(intervals) -> list[tuple[float, float]]:
    ivs = sorted((float(s), float(e)) for s, e in intervals)
    out: list[tuple[float, float]] = []
    for s, e in ivs:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


# ---------------------------------------------------------------------------
# posteriors -> segments
# ---------------------------------------------------------------------------

def _median_binary(mask: np.ndarray, width: int) -> np.ndarray:
    """Binary median filter: majority vote in a zero-padded window."""
    if width <= 1:
        return mask
    if width % 2 == 0:
        raise ValueError(f"median width must be odd, got {width}")
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
    """Threshold per slot, median-filter, merge runs on the frame grid."""
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError(f"expected (T, S) posteriors, got {probs.shape}")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("posteriors must lie in [0, 1]")
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


def _collar_zones(ref: DiarizationHypothesis, collar_s: float) -> list[tuple[float, float]]:
    if collar_s <= 0:
        return []
    zones = []
    for start, end, _ in ref.segments:
        zones.append((start - collar_s, start + collar_s))
        zones.append((end - collar_s, end + collar_s))
    return merge_intervals(zones)


def _activity(intervals: list[tuple[float, float]], mid: np.ndarray) -> np.ndarray:
    """Cells whose midpoint lies in one of the sorted, disjoint intervals."""
    if not intervals:
        return np.zeros(mid.shape, dtype=bool)
    starts, ends = np.array(intervals).T
    i = np.searchsorted(starts, mid, side="right") - 1
    return (i >= 0) & (mid < ends[i])


def _speaker_activity(timeline: DiarizationHypothesis, mid: np.ndarray) -> np.ndarray:
    """(speakers, cells) 0/1 matrix, one row per speaker."""
    rows = [_activity(ivs, mid) for ivs in timeline.by_speaker().values()]
    return np.array(rows, dtype=float).reshape(len(rows), len(mid))


def _optimal_speaker_map(ref_act: np.ndarray, hyp_act: np.ndarray,
                         weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global 1-1 speaker map (ref rows, hyp rows) maximizing matched time
    in scored regions; pairs that never co-occur are left unmapped."""
    overlap = (ref_act * weight) @ hyp_act.T
    rows, cols = linear_sum_assignment(-overlap)
    keep = overlap[rows, cols] > 0
    return rows[keep], cols[keep]


def der_score(ref: DiarizationHypothesis, hyp: DiarizationHypothesis,
              collar_s: float = 0.25) -> DerReport:
    """Diarization error rate with MS/FA/CF decomposition plus SAD rates.

    Percentages are relative to total reference speaker time in the scored
    regions (SAD rates: total reference speech time). Raises ScoringError
    when the scored reference is empty.
    """
    if not ref.segments:
        raise ScoringError("reference timeline is empty")
    zones = _collar_zones(ref, collar_s)
    bounds = [b for segs in (ref.segments, hyp.segments) for s, e, _ in segs for b in (s, e)]
    bounds += [b for zone in zones for b in zone]
    cuts = np.unique(np.round(np.array(bounds, dtype=float), _TIME_DECIMALS))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    weight = np.diff(cuts) * ~_activity(zones, mid)   # cell duration, 0 in a collar
    ref_act = _speaker_activity(ref, mid)
    hyp_act = _speaker_activity(hyp, mid)
    rows, cols = _optimal_speaker_map(ref_act, hyp_act, weight)

    nr, nh = ref_act.sum(axis=0), hyp_act.sum(axis=0)
    n_correct = (ref_act[rows] * hyp_act[cols]).sum(axis=0)
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
