"""Posterior post-processing and collar-aware DER/SAD scoring.

The scorer works on exact timeline algebra rather than a frame grid: segment
boundaries from both files split time into elementary intervals, a global
speaker mapping is chosen by optimal assignment on overlap durations inside
the scored regions, and missed/false-alarm/confusion time accumulates per
interval. Overlapping speech is always scored; a collar around every
reference boundary is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def total_speech(self) -> float:
        merged = merge_intervals([(s, e) for s, e, _ in self.segments])
        return sum(e - s for s, e in merged)


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
                          median_w: int = 11, frame_s: float = FRAME_S,
                          file_id: str = "rec",
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
        segments += [(round(a * frame_s, 3), round(b * frame_s, 3), names[slot])
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

    def __str__(self):
        return (f"DER {self.der:.2f} MS {self.ms:.2f} FA {self.fa:.2f} "
                f"CF {self.cf:.2f} SAD_MS {self.sad_ms:.2f} SAD_FA {self.sad_fa:.2f}")


def _collar_zones(ref: DiarizationHypothesis, collar_s: float) -> list[tuple[float, float]]:
    if collar_s <= 0:
        return []
    zones = []
    for start, end, _ in ref.segments:
        zones.append((start - collar_s, start + collar_s))
        zones.append((end - collar_s, end + collar_s))
    return merge_intervals(zones)


def _elementary_intervals(ref: DiarizationHypothesis, hyp: DiarizationHypothesis,
                          zones) -> list[tuple[float, float, frozenset, frozenset, bool]]:
    """(t0, t1, ref speakers, hyp speakers, scored?) between all boundaries."""
    bounds = set()
    for seg in list(ref.segments) + list(hyp.segments):
        bounds.add(round(seg[0], _TIME_DECIMALS))
        bounds.add(round(seg[1], _TIME_DECIMALS))
    for z0, z1 in zones:
        bounds.add(round(z0, _TIME_DECIMALS))
        bounds.add(round(z1, _TIME_DECIMALS))
    cuts = sorted(bounds)
    ref_by = ref.by_speaker()
    hyp_by = hyp.by_speaker()
    out = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t1 - t0 <= 0:
            continue
        mid = 0.5 * (t0 + t1)
        r = frozenset(s for s, ivs in ref_by.items() if _covers(ivs, mid))
        h = frozenset(s for s, ivs in hyp_by.items() if _covers(ivs, mid))
        scored = not _covers(zones, mid)
        out.append((t0, t1, r, h, scored))
    return out


def _covers(intervals, t: float) -> bool:
    for s, e in intervals:
        if s <= t < e:
            return True
    return False


def _optimal_speaker_map(cells) -> set[tuple[str, str]]:
    """Global 1-1 speaker map maximizing matched time in scored regions."""
    ref_names = sorted({s for _, _, r, _, sc in cells if sc for s in r})
    hyp_names = sorted({s for _, _, _, h, sc in cells if sc for s in h})
    if not ref_names or not hyp_names:
        return set()
    overlap = np.zeros((len(ref_names), len(hyp_names)))
    r_idx = {s: i for i, s in enumerate(ref_names)}
    h_idx = {s: i for i, s in enumerate(hyp_names)}
    for t0, t1, r, h, scored in cells:
        if not scored:
            continue
        for rs in r:
            for hs in h:
                overlap[r_idx[rs], h_idx[hs]] += t1 - t0
    rows, cols = linear_sum_assignment(-overlap)
    return {(ref_names[i], hyp_names[j]) for i, j in zip(rows, cols) if overlap[i, j] > 0}


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
    cells = _elementary_intervals(ref, hyp, zones)
    mapping = _optimal_speaker_map(cells)

    ref_speaker = ref_speech = miss = fa = conf = sad_miss = sad_fa = scored_span = 0.0
    for t0, t1, r, h, scored in cells:
        if not scored:
            continue
        dur = t1 - t0
        scored_span += dur
        nr, nh = len(r), len(h)
        ref_speaker += dur * nr
        if nr:
            ref_speech += dur
        n_correct = sum(1 for pair in mapping if pair[0] in r and pair[1] in h)
        miss += dur * max(0, nr - nh)
        fa += dur * max(0, nh - nr)
        conf += dur * (min(nr, nh) - n_correct)
        if nr and not nh:
            sad_miss += dur
        if nh and not nr:
            sad_fa += dur
    if ref_speaker <= 0:
        raise ScoringError("no scored reference speech (collar removed everything?)")

    pct = 100.0 / ref_speaker
    sad_pct = 100.0 / ref_speech if ref_speech > 0 else 0.0
    return DerReport(
        der=(miss + fa + conf) * pct, ms=miss * pct, fa=fa * pct, cf=conf * pct,
        sad_ms=sad_miss * sad_pct, sad_fa=sad_fa * sad_pct,
        total_scored_s=scored_span,
        ref_speaker_s=ref_speaker, ref_speech_s=ref_speech,
        miss_s=miss, fa_s=fa, conf_s=conf, sad_miss_s=sad_miss, sad_fa_s=sad_fa)


def aggregate_reports(reports: list[DerReport]) -> DerReport:
    """Duration-weighted combination of per-file reports."""
    if not reports:
        raise ScoringError("nothing to aggregate")
    ref_speaker = sum(r.ref_speaker_s for r in reports)
    ref_speech = sum(r.ref_speech_s for r in reports)
    if ref_speaker <= 0:
        raise ScoringError("aggregate reference is empty")
    miss = sum(r.miss_s for r in reports)
    fa = sum(r.fa_s for r in reports)
    conf = sum(r.conf_s for r in reports)
    sad_miss = sum(r.sad_miss_s for r in reports)
    sad_fa = sum(r.sad_fa_s for r in reports)
    pct = 100.0 / ref_speaker
    sad_pct = 100.0 / ref_speech if ref_speech > 0 else 0.0
    return DerReport(
        der=(miss + fa + conf) * pct, ms=miss * pct, fa=fa * pct, cf=conf * pct,
        sad_ms=sad_miss * sad_pct, sad_fa=sad_fa * sad_pct,
        total_scored_s=sum(r.total_scored_s for r in reports),
        ref_speaker_s=ref_speaker, ref_speech_s=ref_speech,
        miss_s=miss, fa_s=fa, conf_s=conf, sad_miss_s=sad_miss, sad_fa_s=sad_fa)
