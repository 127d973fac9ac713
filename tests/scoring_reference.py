"""The counting coverage builder and the `np.unique` DER scorer that
`diarnet.scoring` replaced, kept as references for tests.

`cover` counts the ranges open at each position with two int64 `bincount`s
of (rows × (n + 1)) bins and a running sum. `der_score` finds the cuts and
each boundary's cell with `np.unique(..., return_inverse=True)`. Both give
the same results, bit for bit, as the functions that replaced them.
"""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from diarnet.scoring import _TIME_DECIMALS, DerReport, ScoringError


def cover(lo, hi, rows, n_rows: int, n: int) -> np.ndarray:
    """(n_rows, n) bool: position j of row r is covered when some range k
    with rows[k] == r has lo[k] <= j < hi[k]; +1 at lo, -1 at hi, running sum."""
    lo = np.asarray(lo, dtype=np.intp)
    base = np.asarray(rows, dtype=np.intp) * (n + 1)
    size = n_rows * (n + 1)
    opened = (np.bincount(base + lo, minlength=size)
              - np.bincount(base + np.maximum(hi, lo), minlength=size))
    return np.cumsum(opened.reshape(n_rows, n + 1)[:, :n], axis=1) > 0


def der_score(ref, hyp, collar_s: float = 0.25) -> DerReport:
    if not 0.0 <= collar_s < math.inf:
        raise ScoringError(f"collar must be finite and >= 0 s, got {collar_s}")
    if not len(ref):
        raise ScoringError("reference timeline is empty")
    edges = np.concatenate([ref.starts, ref.ends]) if collar_s > 0 else np.zeros(0)
    with np.errstate(over="ignore"):
        bounds = np.round(np.concatenate([ref.starts, ref.ends, hyp.starts, hyp.ends,
                                          edges - collar_s, edges + collar_s]), _TIME_DECIMALS)
    if not np.isfinite(bounds).all():
        raise ScoringError("a segment or collar time is too large to round to 1 ns "
                           "(|t| above about 1.8e299 s)")
    cuts, at = np.unique(bounds, return_inverse=True)
    n = len(cuts) - 1
    sizes = np.cumsum([len(ref)] * 2 + [len(hyp)] * 2 + [len(edges)])
    r_lo, r_hi, h_lo, h_hi, z_lo, z_hi = np.split(at, sizes)
    ref_act = cover(r_lo, r_hi, ref.codes, len(ref.names), n)
    hyp_act = cover(h_lo, h_hi, hyp.codes, len(hyp.names), n)
    in_collar = cover(z_lo, z_hi, np.zeros(len(edges)), 1, n)[0]
    weight = np.diff(cuts) * ~in_collar
    overlap = (ref_act * weight) @ hyp_act.astype(float).T
    rows, cols = linear_sum_assignment(-overlap)
    keep = overlap[rows, cols] > 0
    rows, cols = rows[keep], cols[keep]

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
