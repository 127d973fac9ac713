"""Posterior post-processing and collar-aware DER/SAD scoring.

The scorer works on exact timeline algebra rather than a frame grid. The
boundaries of both files and of the collar zones, rounded to 1 ns, are
sorted once into the cuts that split time into cells; a boundary's rank
among them is the cell it opens or closes. `cover` turns the cell ranges of
segments and zones into one bool (rows, cells) matrix, the speakers of both
files plus the collar, by merging sorted starts and sorted ends into
disjoint runs that toggle a running XOR. A global speaker mapping is chosen
by optimal assignment on overlap durations inside the scored regions, and
missed/false-alarm/confusion time is a dot product of per-cell speaker
counts with the scored cell durations. Overlapping speech is always scored;
a collar around every reference boundary is excluded. Cost: O(N log N) for
N segments plus O(S·C) for S speakers and C cells; the two float (S, C)
matrices of the speaker map are the largest temporaries.

A timeline (`DiarizationHypothesis`) is stored as columns: float64 `starts`
and `ends` in seconds, an intp speaker code per segment and the tuple of
sorted speaker `names` the codes index. The scorer, the RTTM reader and
writer and the label rasterizer work on those arrays; `.segments` builds
the (start_s, end_s, speaker) triples only for callers that ask for them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .frontend import FRAME_S

_TIME_DECIMALS = 9


class ScoringError(ValueError):
    pass


class DiarizationHypothesis:
    """Speaker-labeled segments of one file, as read-only columns: float64
    `starts` and `ends` (seconds), intp `codes` into `names`, the sorted
    speaker names. Built from (start_s, end_s, speaker) triples, or from the
    columns with `from_columns`; times must be finite and every segment must
    end after it starts."""

    def __init__(self, segments=(), file_id: str = "rec"):
        segments = list(segments)
        starts, ends, speakers = zip(*segments) if segments else ((), (), ())
        self._fill(starts, ends, list(speakers), file_id)

    @classmethod
    def from_columns(cls, starts, ends, speakers: list, file_id: str = "rec"):
        """A timeline from 1-D start and end arrays and a speaker name per segment."""
        if len({np.shape(starts), np.shape(ends), (len(speakers),)}) != 1:
            raise ScoringError(f"starts {np.shape(starts)}, ends {np.shape(ends)} and "
                               f"{len(speakers)} speakers are not 1-D columns of one length")
        self = cls.__new__(cls)
        self._fill(starts, ends, speakers, file_id)
        return self

    def _fill(self, starts, ends, speakers: list, file_id: str) -> None:
        self.file_id = file_id
        self.names = tuple(sorted(set(speakers)))
        index = {name: i for i, name in enumerate(self.names)}
        self.codes = np.fromiter(map(index.__getitem__, speakers), np.intp, len(speakers))
        self.starts = np.array(starts, dtype=np.float64)
        self.ends = np.array(ends, dtype=np.float64)
        for col in (self.starts, self.ends, self.codes):
            col.flags.writeable = False
        for ok, fault in ((np.isfinite(self.starts) & np.isfinite(self.ends), "a non-finite time"),
                          (self.ends > self.starts, "no duration")):
            if not ok.all():
                i = int(ok.argmin())
                raise ScoringError(f"segment for {speakers[i]!r} has {fault}: "
                                   f"[{self.starts[i]}, {self.ends[i]})")

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"DiarizationHypothesis({len(self)} segments, file_id={self.file_id!r})"

    @property
    def segments(self) -> list[tuple[float, float, str]]:
        """The (start_s, end_s, speaker) triples, in input order."""
        names = self.names
        return [(s, e, names[c]) for s, e, c in
                zip(self.starts.tolist(), self.ends.tolist(), self.codes.tolist())]

    def speakers(self) -> list[str]:
        return list(self.names)


def cover(lo, hi, rows, n_rows: int, n: int) -> np.ndarray:
    """(n_rows, n) bool: position j of row r is covered when some range k
    with rows[k] == r has lo[k] <= j < hi[k] (0 <= lo, hi <= n); ranges may
    overlap, touch or nest, and hi <= lo covers nothing. Paired in sorted
    order, starts and ends cover the same flat positions (those with more
    starts than ends at or before them) and merge where a start passes an end."""
    base = np.asarray(rows, dtype=np.intp) * n
    lo, hi = base + np.asarray(lo, dtype=np.intp), base + np.asarray(hi, dtype=np.intp)
    lo, hi = np.sort(lo[hi > lo]), np.sort(hi[hi > lo])
    gap = np.ones(len(lo) + 1, dtype=bool)         # gap[i]: span i - 1 ends a run, i starts one
    np.greater(lo[1:], hi[:-1], out=gap[1:-1])
    covered = np.zeros(n_rows * n + 1, dtype=bool)
    covered[lo[gap[:-1]]] = covered[hi[gap[1:]]] = True      # toggle a running XOR
    np.logical_xor.accumulate(covered, out=covered)
    return covered[:-1].reshape(n_rows, n)


# ---------------------------------------------------------------------------
# posteriors -> segments
# ---------------------------------------------------------------------------

def _median_binary(mask: np.ndarray, width: int) -> np.ndarray:
    """Binary median filter: majority vote in a zero-padded window."""
    pad = width // 2
    padded = np.pad(mask.astype(np.int32), pad)
    csum = np.concatenate([[0], np.cumsum(padded)])
    counts = csum[width:] - csum[:-width]
    return counts > width // 2


def run_edges(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the contiguous [start, end) runs of a
    boolean vector."""
    padded = np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))
    return edges[::2], edges[1::2]


def check_segment_options(threshold: float, median_w: int) -> None:
    """Raise ScoringError unless `threshold` lies in [0, 1] and `median_w` is
    a positive odd integer, as `posterior_to_segments` requires."""
    if not 0.0 <= threshold <= 1.0:
        raise ScoringError(f"threshold must lie in [0, 1], got {threshold}")
    if not (isinstance(median_w, numbers.Integral) and median_w >= 1 and median_w % 2 == 1):
        raise ScoringError(f"median width must be a positive odd integer, got {median_w}")


def posterior_to_segments(probs: np.ndarray, threshold: float = 0.5,
                          median_w: int = 11, file_id: str = "rec",
                          speaker_names: list | None = None) -> DiarizationHypothesis:
    """Threshold per slot, median-filter, merge runs on the frame grid.

    `threshold` and the posteriors lie in [0, 1]; `median_w` is an odd int >= 1 (1: no filter).
    `speaker_names`, if given, names each of the S slots, each by its own name.
    """
    check_segment_options(threshold, median_w)
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ScoringError(f"expected (T, S) posteriors, got {probs.shape}")
    if not np.all((probs >= 0) & (probs <= 1)):
        raise ScoringError("posteriors must lie in [0, 1] and not be NaN")
    s = probs.shape[1]
    names = [str(i) for i in range(s)] if speaker_names is None else list(speaker_names)
    if len(names) != s or len(set(names)) != s:
        raise ScoringError(f"speaker_names must give each of the {s} slots its own name, "
                           f"got {names!r}")
    starts, ends, speakers = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], []
    for slot in range(s):
        lo, hi = run_edges(_median_binary(probs[:, slot] >= threshold, median_w))
        starts.append(lo)
        ends.append(hi)
        speakers += [names[slot]] * len(lo)
    # frame edges in seconds, rounded to 1 ms exactly as Python's round() would
    return DiarizationHypothesis.from_columns(np.round(np.concatenate(starts) * FRAME_S, 3),
                                              np.round(np.concatenate(ends) * FRAME_S, 3),
                                              speakers, file_id)


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


def min_cost_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment on a rectangular (n, m) cost matrix: rows[k] is
    matched to cols[k] for min(n, m) pairs, with rows ascending.

    The shortest augmenting path method (D. F. Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016) in the loop
    order of `scipy.optimize.linear_sum_assignment`, so ties break alike and
    the outputs are equal. A NaN or -inf entry raises ValueError, as does a
    matrix with no finite assignment. Costs are solved as float64 with a
    Python loop, which suits the few-speaker matrices of this library.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim}-D array")
    transpose = cost.shape[1] < cost.shape[0]     # the solver wants no more rows than columns
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc                  # dual variables
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # Dijkstra from row `cur` over reduced costs until an unassigned column;
        # visiting columns from the last makes a constant matrix give the identity
        dist, remaining = [math.inf] * nc, list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val = cur, 0.0
        while True:
            rows_seen.append(i)
            index, lowest, ci, ui = -1, math.inf, c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                else:
                    r = dist[j]
                # among equal distances, prefer a column that ends the path
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest, index = r, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - dist[col4row[i]]
        for k in cols_seen:
            v[k] -= min_val - dist[k]
        while True:                                # augment back along the path to `cur`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    cols = np.array(col4row, dtype=np.intp)
    if not transpose:
        return np.arange(nr), cols
    order = np.argsort(cols)
    return cols[order], order


def _optimal_speaker_map(ref_act: np.ndarray, hyp_act: np.ndarray,
                         weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global 1-1 speaker map (ref rows, hyp rows) maximizing matched time
    in scored regions; pairs that never co-occur are left unmapped."""
    overlap = (ref_act * weight) @ hyp_act.astype(float).T
    rows, cols = min_cost_assignment(-overlap)
    keep = overlap[rows, cols] > 0
    return rows[keep], cols[keep]


def der_score(ref: DiarizationHypothesis, hyp: DiarizationHypothesis,
              collar_s: float = 0.25) -> DerReport:
    """Diarization error rate with MS/FA/CF decomposition plus SAD rates.

    Percentages are relative to total reference speaker time in the scored
    regions (SAD rates: total reference speech time). Raises ScoringError
    when the scored reference is empty, the collar is negative or not
    finite, or a time is too large to round to 1 ns (|t| above about 1.8e299 s).
    """
    if not 0.0 <= collar_s < math.inf:
        raise ScoringError(f"collar must be finite and >= 0 s, got {collar_s}")
    if not len(ref):
        raise ScoringError("reference timeline is empty")
    # the row that owns each range: one per ref speaker, one per hyp speaker, the collar
    edges = np.concatenate([ref.starts, ref.ends]) if collar_s > 0 else np.zeros(0)
    n_ref, n_hyp = len(ref.names), len(hyp.names)
    owner = np.concatenate([ref.codes, hyp.codes + n_ref, np.full(len(edges), n_ref + n_hyp)])
    bounds = np.concatenate([ref.starts, hyp.starts, edges - collar_s,
                             ref.ends, hyp.ends, edges + collar_s])
    with np.errstate(over="ignore"):
        np.round(bounds, _TIME_DECIMALS, out=bounds)
    if not np.isfinite(bounds).all():
        raise ScoringError("a segment or collar time is too large to round to 1 ns "
                           "(|t| above about 1.8e299 s)")
    # one sort: the distinct bounds are the cuts, and since every bound is a
    # cut, its rank among them is the cell it opens or closes
    order = np.argsort(bounds)
    bounds = bounds[order]
    new = np.concatenate(([True], bounds[1:] != bounds[:-1]))
    at = np.empty_like(order)
    at[order] = np.cumsum(new) - 1
    weight = np.diff(bounds[new])                       # cell duration, 0 in a collar
    act = cover(at[:len(owner)], at[len(owner):], owner, n_ref + n_hyp + 1, len(weight))
    weight[act[-1]] = 0.0
    del edges, owner, bounds, order, new, at            # before the map's float matrices
    ref_act, hyp_act = act[:n_ref], act[n_ref:-1]
    rows, cols = _optimal_speaker_map(ref_act, hyp_act, weight)
    # float speaker counts: the same values as integer ones, with no casts in the dot products
    nr, nh = ref_act.sum(axis=0, dtype=float), hyp_act.sum(axis=0, dtype=float)
    n_correct = (ref_act[rows] & hyp_act[cols]).sum(axis=0, dtype=float)
    speech, hyp_speech = nr > 0, nh > 0
    return DerReport.from_seconds(
        total_scored_s=float(weight.sum()), ref_speaker_s=float(weight @ nr),
        ref_speech_s=float(weight @ speech),
        miss_s=float(weight @ np.maximum(nr - nh, 0)),
        fa_s=float(weight @ np.maximum(nh - nr, 0)),
        conf_s=float(weight @ (np.minimum(nr, nh) - n_correct)),
        sad_miss_s=float(weight @ (speech > hyp_speech)),
        sad_fa_s=float(weight @ (hyp_speech > speech)))


def aggregate_reports(reports: list[DerReport]) -> DerReport:
    """Duration-weighted combination of per-file reports."""
    if not reports:
        raise ScoringError("nothing to aggregate")
    return DerReport.from_seconds(**{k: sum(getattr(r, k) for r in reports) for k in _SECONDS})
