"""Training objective: permutation-aligned detection BCE with unassigned-slot
suppression, two deep-clustering (DPCL) angle losses, and an orthogonality
penalty on active attractors.

Label conventions: detection BCE consumes {0, 1} targets, the clustering
losses consume {+1, -1} activity patterns. ``LabelMatrix`` carries both views
of the same matrix so the two conventions cannot drift apart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .autodiff import NORM_EPS, Tensor, tensor
from .model import ForwardResult

DPCL_MODES = ("activity", "attractor", "none")


class CapacityError(ValueError):
    """More true speakers than attractor slots."""


@dataclass
class LabelMatrix:
    """Per-frame speaker activity over S slots, entries in {+1, -1}."""
    y_pm: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.y_pm)
        if arr.ndim != 2:
            raise ValueError(f"labels must be (T, S), got {arr.shape}")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("label entries must be +1 or -1")
        self.y_pm = arr.astype(np.int8)

    @classmethod
    def from_activity(cls, active: np.ndarray) -> "LabelMatrix":
        """Build from a boolean (T, K) activity mask."""
        active = np.asarray(active, dtype=bool)
        return cls(np.where(active, 1, -1))

    @property
    def y_01(self) -> np.ndarray:
        return ((self.y_pm + 1) // 2).astype(np.float32)

    @property
    def n_frames(self) -> int:
        return self.y_pm.shape[0]

    @property
    def n_slots(self) -> int:
        return self.y_pm.shape[1]

    @property
    def active_columns(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.flatnonzero((self.y_pm == 1).any(axis=0)))

    @property
    def n_speakers(self) -> int:
        return len(self.active_columns)

    def pad_to(self, n_slots: int) -> "LabelMatrix":
        """Widen with always-inactive columns up to the model slot count."""
        t, s = self.y_pm.shape
        if n_slots < s:
            raise CapacityError(f"cannot shrink labels from {s} to {n_slots} columns")
        if n_slots == s:
            return self
        out = np.full((t, n_slots), -1, dtype=np.int8)
        out[:, :s] = self.y_pm
        return LabelMatrix(out)


@dataclass
class Alignment:
    """Injective map from true-speaker columns to attractor slots."""
    active_cols: tuple[int, ...]
    slots: tuple[int, ...]
    cost: float

    @property
    def active_slots(self) -> frozenset:
        return frozenset(self.slots)

    def slot_targets(self, labels: LabelMatrix) -> np.ndarray:
        """Labels rearranged into slot order; unassigned slots read -1."""
        out = np.full((labels.n_frames, labels.n_slots), -1.0, dtype=np.float32)
        for col, slot in zip(self.active_cols, self.slots):
            out[:, slot] = labels.y_pm[:, col]
        return out


# ---------------------------------------------------------------------------
# permutation-invariant alignment
# ---------------------------------------------------------------------------

def bce_cost_matrix(logits: np.ndarray, labels: LabelMatrix) -> np.ndarray:
    """cost[k, s]: mean frame BCE of slot s's logits against speaker k."""
    z = np.asarray(logits, dtype=np.float64)
    t = z.shape[0]
    base = (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))).mean(axis=0)  # (S,)
    y = labels.y_01[:, list(labels.active_columns)].astype(np.float64)       # (T, K)
    cross = y.T @ z / t                                                      # (K, S)
    return base[None, :] - cross


def pit_align(logits, labels: LabelMatrix) -> Alignment:
    """Minimum-cost injective assignment of true speakers to slots.

    A crop with no active speaker gets the empty alignment.
    """
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    cols = labels.active_columns
    if len(cols) > z.shape[1]:
        raise CapacityError(f"{len(cols)} speakers exceed {z.shape[1]} slots")
    cost = bce_cost_matrix(z, labels)
    rows, slot_idx = linear_sum_assignment(cost)
    order = np.argsort(rows)
    slots = tuple(int(s) for s in slot_idx[order])
    total = float(cost[rows, slot_idx].sum())
    return Alignment(active_cols=cols, slots=slots, cost=total)


def pit_align_bruteforce(logits, labels: LabelMatrix) -> Alignment:
    """Exhaustive S!/(S-K)! search; the oracle the fast path is tested against."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    cols = labels.active_columns
    if len(cols) > z.shape[1]:
        raise CapacityError(f"{len(cols)} speakers exceed {z.shape[1]} slots")
    cost = bce_cost_matrix(z, labels)
    k = len(cols)
    best_slots, best_cost = None, np.inf
    for perm in itertools.permutations(range(z.shape[1]), k):
        c = float(cost[np.arange(k), list(perm)].sum())
        if c < best_cost:
            best_cost, best_slots = c, perm
    return Alignment(active_cols=cols, slots=tuple(best_slots), cost=best_cost)


# ---------------------------------------------------------------------------
# detection BCE with unassigned-slot suppression
# ---------------------------------------------------------------------------

def bce_with_suppression(logits: Tensor, labels: LabelMatrix, align: Alignment,
                         dirs: Tensor, biases: Tensor,
                         global_bias: Tensor) -> tuple[Tensor, Tensor]:
    """Detection BCE plus the penalty driving unassigned directions to zero.

    Assigned slots score their full logits against the aligned targets.
    Unassigned slots predict from ``b_s + b_global`` alone with an all-zero
    target, so no BCE gradient can reach their direction vectors; those
    directions are instead pulled to the zero vector by the suppression MSE.
    The BCE is the mean over all T x S entries.
    """
    t, s = logits.shape
    if align.slots:
        z_act = logits[:, np.asarray(align.slots, dtype=np.intp)]
        total = ad.sum_(ad.bce_logits(z_act, labels.y_01[:, list(align.active_cols)]))
    else:
        total = tensor(np.zeros((), dtype=logits.dtype))

    rest = sorted(set(range(s)) - set(align.slots))
    if rest:
        idx = np.asarray(rest, dtype=np.intp)
        z_rest = ad.index_rows(biases, idx) + global_bias
        per_frame = ad.bce_logits(z_rest, np.zeros(len(rest), dtype=np.float32))
        total = total + float(t) * ad.sum_(per_frame)
        suppress = ad.mse(ad.index_rows(dirs, idx),
                          np.zeros((len(rest), dirs.shape[1]), dtype=np.float32))
    else:
        suppress = tensor(np.zeros((), dtype=np.float32))
    return total * (1.0 / (t * s)), suppress


# ---------------------------------------------------------------------------
# deep-clustering targets and loss
# ---------------------------------------------------------------------------

def activity_dpcl_targets(labels: LabelMatrix) -> np.ndarray:
    """Unit target vectors built from the +-1 activity patterns.

    Rows always have L2 norm sqrt(S), so after normalization frames with the
    same speaker set collide at Gram +1 and frames with complementary
    patterns sit at Gram -1, not merely orthogonal. Computed in float64 so
    those extremes hold to machine precision.
    """
    y = labels.y_pm.astype(np.float64)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    return y / np.maximum(norms, NORM_EPS)


def attractor_dpcl_targets(labels: LabelMatrix, dirs: Tensor,
                           align: Alignment) -> Tensor:
    """Unit targets from signed sums of attractor directions.

    Labels are rearranged into slot order first, and gradients flow through
    the directions, so embedding geometry and attractor geometry are pulled
    toward each other.
    """
    y_slot = tensor(align.slot_targets(labels))
    return ad.l2_normalize(ad.matmul(y_slot, dirs))


def dpcl_loss(targets, frames: Tensor) -> Tensor:
    """Mean squared Gram mismatch between targets and normalized embeddings.

    Exact over all T^2 ordered pairs (self-pairs included) through the
    low-rank identity ||X X' - L L'||_F^2 = ||X' X||^2 - 2 ||X' L||^2 + ||L' L||^2
    (Hershey et al., Deep clustering, arXiv:1508.04783), so it costs
    O(T E^2) and builds no T x T matrix. The three terms nearly cancel, so
    they are formed in float64; the loss comes back in the frame dtype.
    """
    if isinstance(targets, Tensor):
        l = ad.cast(targets, np.float64)
    else:
        l = tensor(np.asarray(targets, dtype=np.float64))
    xh = ad.cast(ad.l2_normalize(frames), np.float64)

    def gram_sq(a: Tensor, b: Tensor) -> Tensor:
        return ad.sum_(ad.matmul(a.transpose(1, 0), b) ** 2.0)

    t = frames.shape[0]
    loss = (gram_sq(xh, xh) - 2.0 * gram_sq(xh, l) + gram_sq(l, l)) * (1.0 / (t * t))
    return ad.cast(loss, frames.dtype)


def ortho_loss(dirs: Tensor, align: Alignment) -> Tensor:
    """Mean squared off-diagonal Gram entry of the normalized active directions."""
    act = sorted(set(align.slots))
    k = len(act)
    if k < 2:
        return tensor(np.zeros((), dtype=np.float32))
    ahat = ad.l2_normalize(ad.index_rows(dirs, np.asarray(act, dtype=np.intp)))
    gram = ad.matmul(ahat, ahat.transpose(1, 0))
    mask = 1.0 - np.eye(k, dtype=np.float32)
    off = gram * tensor(mask)
    return ad.sum_(off ** 2.0) * (1.0 / (k * (k - 1)))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

@dataclass
class LossWeights:
    bce: float = 1.0
    dpcl: float = 0.5
    ortho: float = 0.1
    suppress: float = 0.1

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.bce, self.dpcl, self.ortho, self.suppress)


@dataclass
class LossBundle:
    bce: float
    dpcl: float
    ortho: float
    suppress: float
    total: float
    weights: tuple[float, float, float, float]
    total_tensor: Tensor = field(repr=False)
    alignment: Alignment = field(repr=False)


def total_loss(result: ForwardResult, labels: LabelMatrix,
               weights: LossWeights | None = None, mode: str = "attractor") -> LossBundle:
    """Align once, evaluate every component, return the weighted sum."""
    if mode not in DPCL_MODES:
        raise ValueError(f"mode must be one of {DPCL_MODES}, got {mode!r}")
    w = weights or LossWeights()
    if labels.n_slots != result.logits.shape[1]:
        raise ValueError(f"labels have {labels.n_slots} slots, logits "
                         f"{result.logits.shape[1]}; pad_to() the model width first")

    align = pit_align(result.logits.data, labels)
    bce, suppress = bce_with_suppression(result.logits, labels, align,
                                         result.attractor_dirs,
                                         result.attractor_biases,
                                         result.global_bias)
    if mode == "none" or not align.slots:  # a silent crop has no clusters
        dpcl = tensor(np.zeros((), dtype=np.float32))
    elif mode == "activity":
        dpcl = dpcl_loss(activity_dpcl_targets(labels), result.frames)
    else:
        targets = attractor_dpcl_targets(labels, result.attractor_dirs, align)
        dpcl = dpcl_loss(targets, result.frames)
    ortho = ortho_loss(result.attractor_dirs, align)

    total = w.bce * bce + w.dpcl * dpcl + w.ortho * ortho + w.suppress * suppress
    return LossBundle(bce=float(bce.data), dpcl=float(dpcl.data),
                      ortho=float(ortho.data), suppress=float(suppress.data),
                      total=float(total.data), weights=w.as_tuple(),
                      total_tensor=total, alignment=align)
