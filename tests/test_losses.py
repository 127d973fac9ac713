

import numpy as np
import pytest

import diarnet.autodiff as ad
from diarnet.autodiff import tensor
from diarnet.gradcheck import grad_check
from diarnet.losses import (
    Alignment,
    CapacityError,
    LabelMatrix,
    LossWeights,
    activity_dpcl_targets,
    attractor_dpcl_targets,
    bce_with_suppression,
    dpcl_loss,
    ortho_loss,
    pit_align,
    pit_align_bruteforce,
    total_loss,
)
from diarnet.model import ForwardResult


def make_result(frames, dirs, biases, b_global):
    """Assemble a ForwardResult from leaf tensors (logits recomputed inside)."""
    logits = ad.matmul(frames, dirs.transpose(1, 0)) + biases.reshape(1, -1) + b_global
    return ForwardResult(logits=logits, frames=frames, attractor_dirs=dirs,
                         attractor_biases=biases, global_bias=b_global)


def random_result(rng, t, s, e, dtype=np.float32):
    frames = tensor(rng.standard_normal((t, e)).astype(dtype), requires_grad=True)
    dirs = tensor(rng.standard_normal((s, e)).astype(dtype), requires_grad=True)
    biases = tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
    b_global = tensor(np.asarray(rng.standard_normal(), dtype=dtype), requires_grad=True)
    return make_result(frames, dirs, biases, b_global)


def random_labels(rng, t, n_slots, k):
    """Labels with exactly k speaking columns scattered over n_slots."""
    act = np.zeros((t, n_slots), dtype=bool)
    cols = rng.choice(n_slots, size=k, replace=False)
    for c in cols:
        while True:
            mask = rng.random(t) < 0.5
            if mask.any():
                break
        act[:, c] = mask
    return LabelMatrix.from_activity(act)


# ---------------------------------------------------------------------------
# label matrix
# ---------------------------------------------------------------------------

def test_label_views_consistent():
    lm = LabelMatrix.from_activity(np.array([[True, False], [True, True]]))
    assert np.array_equal(lm.y_pm, [[1, -1], [1, 1]])
    assert np.array_equal(lm.y_01, [[1, 0], [1, 1]])
    assert lm.active_columns == (0, 1)


def test_label_pad_to_adds_silent_columns():
    lm = LabelMatrix.from_activity(np.array([[True], [False]]))
    wide = lm.pad_to(4)
    assert wide.n_slots == 4
    assert wide.active_columns == (0,)
    assert np.all(wide.y_pm[:, 1:] == -1)
    with pytest.raises(CapacityError):
        wide.pad_to(2)


def test_label_rejects_bad_entries():
    with pytest.raises(ValueError):
        LabelMatrix(np.array([[1, 0], [1, -1]]))


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_pit_align_finds_constructed_optimum():
    t = 30
    rng = np.random.default_rng(0)
    act = np.zeros((t, 8), dtype=bool)
    act[:15, 1] = True
    act[10:, 2] = True
    labels = LabelMatrix.from_activity(act[:, [1, 2]])  # two true speakers
    logits = np.full((t, 8), -8.0, dtype=np.float32)
    logits[:15, 1] = 8.0
    logits[10:, 2] = 8.0
    align = pit_align(logits, labels.pad_to(8))
    assert align.slots == (1, 2)


def test_pit_align_swap_symmetry():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((25, 6)).astype(np.float32)
    labels = random_labels(rng, 25, 6, 3)
    a = pit_align(logits, labels)
    swapped = LabelMatrix(labels.y_pm[:, ::-1].copy())
    b = pit_align(logits, swapped)
    mapping_a = dict(zip(a.active_cols, a.slots))
    mapping_b = {5 - c: s for c, s in zip(b.active_cols, b.slots)}
    assert mapping_a == mapping_b
    assert abs(a.cost - b.cost) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_pit_align_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((12, 8)).astype(np.float32)
    labels = random_labels(rng, 12, 8, 3)
    fast = pit_align(logits, labels)
    slow = pit_align_bruteforce(logits, labels)
    assert fast.cost == slow.cost
    assert fast.slots == slow.slots


def test_pit_align_capacity_error():
    rng = np.random.default_rng(2)
    labels = random_labels(rng, 10, 5, 5)
    with pytest.raises(CapacityError):
        pit_align(rng.standard_normal((10, 3)), labels)


def test_pit_align_silent_crop_is_empty():
    labels = LabelMatrix(-np.ones((10, 4), dtype=np.int8))
    logits = np.random.default_rng(2).standard_normal((10, 4))
    for align_fn in (pit_align, pit_align_bruteforce):
        align = align_fn(logits, labels)
        assert align.active_cols == () and align.slots == () and align.cost == 0.0


# ---------------------------------------------------------------------------
# detection BCE + suppression
# ---------------------------------------------------------------------------

def test_suppress_zero_when_all_slots_active():
    rng = np.random.default_rng(3)
    res = random_result(rng, 12, 3, 8)
    labels = random_labels(rng, 12, 3, 3)
    align = pit_align(res.logits.data, labels)
    _, suppress = bce_with_suppression(res.logits, labels, align,
                                       res.attractor_dirs, res.attractor_biases,
                                       res.global_bias)
    assert float(suppress.data) == 0.0


def test_unassigned_slot_bias_only_bce_is_ln2():
    t, s, e = 10, 3, 4
    frames = tensor(np.random.default_rng(0).standard_normal((t, e)).astype(np.float32))
    dirs = tensor(np.zeros((s, e), dtype=np.float32))
    biases = tensor(np.zeros(s, dtype=np.float32))
    b_global = tensor(np.zeros((), dtype=np.float32))
    res = make_result(frames, dirs, biases, b_global)
    act = np.zeros((t, s), dtype=bool)
    act[:, 0] = True
    labels = LabelMatrix.from_activity(act[:, :1]).pad_to(s)
    align = pit_align(res.logits.data, labels)
    bce, suppress = bce_with_suppression(res.logits, labels, align, dirs, biases, b_global)
    # every slot's logit is 0: actives score ln2 against their targets and the
    # two unassigned slots score exactly ln2 per frame against zeros
    assert abs(float(bce.data) - np.log(2.0)) < 1e-6
    assert float(suppress.data) == 0.0


def test_suppress_tracks_direction_norm():
    rng = np.random.default_rng(4)
    t, s, e = 8, 3, 6
    labels = random_labels(rng, t, 1, 1).pad_to(s)
    vals = []
    for scale in (1.0, 0.1, 0.0):
        base = rng.standard_normal((s, e)).astype(np.float32)
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        dirs = tensor((base * scale).astype(np.float32))
        biases = tensor(np.zeros(s, dtype=np.float32))
        bg = tensor(np.zeros((), dtype=np.float32))
        res = make_result(tensor(rng.standard_normal((t, e)).astype(np.float32)),
                          dirs, biases, bg)
        align = pit_align(res.logits.data, labels)
        _, suppress = bce_with_suppression(res.logits, labels, align, dirs, biases, bg)
        vals.append(float(suppress.data))
    assert vals[0] > vals[1] > vals[2] == 0.0


def test_bce_gradient_never_reaches_unassigned_directions():
    rng = np.random.default_rng(5)
    res = random_result(rng, 14, 5, 8)
    labels = random_labels(rng, 14, 5, 2)
    bundle = total_loss(res, labels, weights=LossWeights(1.0, 0.0, 0.0, 0.0),
                        mode="none")
    bundle.total_tensor.backward()
    grad = res.attractor_dirs.grad
    unassigned = sorted(set(range(5)) - set(bundle.alignment.slots))
    assert unassigned
    for slot in unassigned:
        assert np.all(grad[slot] == 0.0)
    for slot in bundle.alignment.slots:
        assert np.any(grad[slot] != 0.0)


# ---------------------------------------------------------------------------
# clustering targets
# ---------------------------------------------------------------------------

def test_activity_targets_two_slot_closed_form():
    lm = LabelMatrix(np.array([[1, -1]]))
    l = activity_dpcl_targets(lm)
    assert np.allclose(l, [[1 / np.sqrt(2), -1 / np.sqrt(2)]])


def test_activity_targets_gram_extremes():
    lm = LabelMatrix(np.array([
        [1, -1],   # speaker 0 alone
        [1, -1],   # same set -> gram +1
        [-1, 1],   # complementary -> gram -1
    ]))
    l = activity_dpcl_targets(lm)
    gram = l @ l.T
    assert gram[0, 1] == pytest.approx(1.0, abs=1e-7)
    assert gram[0, 2] == pytest.approx(-1.0, abs=1e-7)
    assert np.all(gram >= -1.0 - 1e-6) and np.all(gram <= 1.0 + 1e-6)


def test_attractor_targets_basis_closed_form():
    s, e = 3, 5
    dirs = tensor(np.eye(s, e, dtype=np.float32))
    labels = LabelMatrix(np.array([[1, -1, -1]]))
    align = Alignment(active_cols=(0,), slots=(0,), cost=0.0)
    l = attractor_dpcl_targets(labels, dirs, align)
    expected = np.array([[1, -1, -1, 0, 0]], dtype=np.float32) / np.sqrt(3)
    assert np.allclose(l.data, expected, atol=1e-6)


def test_attractor_targets_identical_rows_and_cancellation():
    s, e = 2, 4
    rng = np.random.default_rng(6)
    base = rng.standard_normal(e).astype(np.float32)
    dirs = tensor(np.stack([base, base]))  # slots cancel under (+1, -1)
    labels = LabelMatrix(np.array([[1, -1], [1, -1], [1, -1]]))
    align = Alignment(active_cols=(0,), slots=(0,), cost=0.0)
    l = attractor_dpcl_targets(labels, dirs, align)
    assert np.allclose(l.data[0], l.data[1])
    assert np.allclose(l.data, 0.0, atol=1e-6)  # eps branch
    frames = tensor(rng.standard_normal((3, e)).astype(np.float32), requires_grad=True)
    loss = dpcl_loss(l, frames)
    assert np.isfinite(float(loss.data))


# ---------------------------------------------------------------------------
# dpcl loss
# ---------------------------------------------------------------------------

def _naive_dpcl(l: np.ndarray, x: np.ndarray) -> float:
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-8)
    t = x.shape[0]
    acc = 0.0
    for i in range(t):
        for j in range(t):
            acc += (float(l[i] @ l[j]) - float(xn[i] @ xn[j])) ** 2
    return acc / (t * t)


def test_dpcl_zero_when_grams_match():
    lm = LabelMatrix(np.array([[1, -1], [-1, 1], [1, 1]]))
    l = activity_dpcl_targets(lm)
    frames = tensor(np.pad(l, ((0, 0), (0, 3))).astype(np.float32))  # unit rows
    assert float(dpcl_loss(l, frames).data) == pytest.approx(0.0, abs=1e-12)


def test_dpcl_positive_when_grams_differ():
    lm = LabelMatrix(np.array([[1, -1], [-1, 1]]))
    l = activity_dpcl_targets(lm)
    frames = tensor(np.array([[1, 0], [1, 0]], dtype=np.float32))  # gram +1 everywhere
    assert float(dpcl_loss(l, frames).data) > 0.1


def test_dpcl_single_frame_is_zero():
    lm = LabelMatrix(np.array([[1, -1]]))
    l = activity_dpcl_targets(lm)
    frames = tensor(np.array([[3.0, 4.0]], dtype=np.float32))
    assert float(dpcl_loss(l, frames).data) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_dpcl_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    t, e = 3 + seed * 4, 6
    act = rng.random((t, 2)) < 0.6
    lm = LabelMatrix.from_activity(act)
    l = activity_dpcl_targets(lm).astype(np.float64)
    x = rng.standard_normal((t, e))
    got = float(dpcl_loss(l, tensor(x, dtype=np.float64)).data)
    assert abs(got - _naive_dpcl(l, x)) < 1e-10


def _gram_dpcl(l: np.ndarray, x: np.ndarray) -> float:
    """Vectorized float64 oracle: mean squared entry of the full Gram difference."""
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-8)
    return float(((l @ l.T - xn @ xn.T) ** 2).mean())


def _long_dpcl_case(t=2100, e=8):
    rng = np.random.default_rng(21)
    lm = LabelMatrix.from_activity(rng.random((t, 3)) < 0.4)
    return activity_dpcl_targets(lm), rng.standard_normal((t, e))


def test_dpcl_exact_above_two_thousand_frames():
    l, x = _long_dpcl_case()
    got = float(dpcl_loss(l, tensor(x, dtype=np.float64)).data)
    assert got == pytest.approx(_gram_dpcl(l, x), rel=1e-10, abs=1e-12)


def test_dpcl_builds_no_frame_by_frame_intermediate():
    l, x = _long_dpcl_case()
    frames = tensor(x.astype(np.float32), requires_grad=True)
    with ad.audit() as rec:
        loss = dpcl_loss(l, frames)
        loss.backward()
    t = x.shape[0]
    assert loss.dtype == np.float32 and frames.grad.dtype == np.float32
    assert not [sh for sh in rec["shapes"] if list(sh).count(t) >= 2]
    assert max(int(np.prod(sh)) for sh in rec["shapes"]) <= frames.size


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def test_ortho_orthogonal_is_zero():
    dirs = tensor(np.eye(2, 6, dtype=np.float32) * 3.0)
    align = Alignment(active_cols=(0, 1), slots=(0, 1), cost=0.0)
    assert float(ortho_loss(dirs, align).data) == pytest.approx(0.0, abs=1e-12)


def test_ortho_identical_attractors_is_one():
    v = np.array([1.0, 2.0, -1.0], dtype=np.float32)
    dirs = tensor(np.stack([v, v]))
    align = Alignment(active_cols=(0, 1), slots=(0, 1), cost=0.0)
    assert float(ortho_loss(dirs, align).data) == pytest.approx(1.0, abs=1e-6)


def test_ortho_single_active_is_zero():
    dirs = tensor(np.ones((3, 4), dtype=np.float32))
    align = Alignment(active_cols=(0,), slots=(2,), cost=0.0)
    assert float(ortho_loss(dirs, align).data) == 0.0


def test_ortho_invariant_to_positive_rescale():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 5)).astype(np.float32)
    align = Alignment(active_cols=(0, 1, 2), slots=(0, 1, 2), cost=0.0)
    base = float(ortho_loss(tensor(a), align).data)
    a2 = a.copy()
    a2[1] *= 7.5
    scaled = float(ortho_loss(tensor(a2), align).data)
    assert scaled == pytest.approx(base, rel=1e-5)


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def test_total_reduces_to_bce_when_only_bce_weighted():
    rng = np.random.default_rng(9)
    res = random_result(rng, 10, 4, 8)
    labels = random_labels(rng, 10, 4, 2)
    bundle = total_loss(res, labels, weights=LossWeights(1.0, 0.0, 0.0, 0.0),
                        mode="attractor")
    assert bundle.total == pytest.approx(bundle.bce, rel=1e-6)


def test_mode_none_disables_dpcl():
    rng = np.random.default_rng(10)
    res = random_result(rng, 10, 4, 8)
    labels = random_labels(rng, 10, 4, 2)
    bundle = total_loss(res, labels, mode="none")
    assert bundle.dpcl == 0.0


@pytest.mark.parametrize("mode", ["activity", "attractor"])
def test_silent_crop_trains_on_bce_and_suppression_only(mode):
    rng = np.random.default_rng(15)
    t, s = 10, 4
    res = random_result(rng, t, s, 8)
    labels = LabelMatrix(-np.ones((t, s), dtype=np.int8))
    bundle = total_loss(res, labels, mode=mode)
    assert bundle.alignment.slots == ()
    assert bundle.dpcl == 0.0 and bundle.ortho == 0.0
    # every slot is unassigned: bias-only BCE against zero, all directions suppressed
    z = (res.attractor_biases.data + res.global_bias.data).astype(np.float64)
    want_bce = float(np.mean(np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))))
    assert bundle.bce == pytest.approx(want_bce, rel=1e-5)
    assert bundle.suppress == pytest.approx(float(np.mean(res.attractor_dirs.data ** 2)), rel=1e-5)
    bundle.total_tensor.backward()
    assert np.all(np.isfinite(res.attractor_dirs.grad))


def test_total_is_weighted_sum():
    rng = np.random.default_rng(11)
    res = random_result(rng, 12, 4, 8)
    labels = random_labels(rng, 12, 4, 3)
    w = LossWeights(0.7, 0.3, 0.2, 0.05)
    bundle = total_loss(res, labels, weights=w, mode="activity")
    expected = 0.7 * bundle.bce + 0.3 * bundle.dpcl + 0.2 * bundle.ortho \
        + 0.05 * bundle.suppress
    assert bundle.total == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("mode", ["activity", "attractor", "none"])
def test_pit_invariance_under_column_permutation(mode):
    rng = np.random.default_rng(12)
    for trial in range(10):
        res = random_result(rng, 15, 6, 8)
        labels = random_labels(rng, 15, 6, int(rng.integers(1, 5)))
        base = total_loss(res, labels, mode=mode).total
        perm = rng.permutation(6)
        permuted = LabelMatrix(labels.y_pm[:, perm])
        other = total_loss(res, permuted, mode=mode).total
        assert other == pytest.approx(base, rel=1e-6)


@pytest.mark.parametrize("mode", ["activity", "attractor"])
def test_total_loss_gradient_check_tiny_model(mode):
    rng = np.random.default_rng(13)
    t, s, e = 6, 3, 8
    labels = random_labels(rng, t, s, 2)

    def fn(frames, dirs, biases, bg):
        res = make_result(frames, dirs, biases, bg)
        return total_loss(res, labels, mode=mode).total_tensor

    leaves = [tensor(rng.standard_normal((t, e)), dtype=np.float64, requires_grad=True),
              tensor(rng.standard_normal((s, e)), dtype=np.float64, requires_grad=True),
              tensor(rng.standard_normal(s), dtype=np.float64, requires_grad=True),
              tensor(np.asarray(rng.standard_normal()), dtype=np.float64, requires_grad=True)]
    rep = grad_check(fn, leaves, tol=1e-4, name=f"total_loss[{mode}]")
    assert rep.passed, str(rep)


def test_total_loss_rejects_unpadded_labels():
    rng = np.random.default_rng(14)
    res = random_result(rng, 10, 4, 8)
    labels = random_labels(rng, 10, 2, 2)
    with pytest.raises(ValueError):
        total_loss(res, labels)
