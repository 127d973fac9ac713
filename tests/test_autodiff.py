import numpy as np
import pytest

import diarnet.autodiff as dt
from diarnet.gradcheck import grad_check
from diarnet.autodiff import (
    NumericError,
    ShapeError,
    bce_logits,
    concat,
    conv2d,
    depthwise_conv1d,
    index_rows,
    l2_normalize,
    layer_norm,
    matmul,
    mean,
    mse,
    relu,
    rms_norm,
    sigmoid,
    softmax,
    stack,
    tensor,
)


def rand(rng, *shape):
    return tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_identity():
    out = matmul(tensor([[1.0, 0.0], [0.0, 1.0]]), tensor([[3.0], [4.0]]))
    assert np.allclose(out.data, [[3.0], [4.0]])


def test_matmul_scalar_case():
    out = matmul(tensor([[2.0]]), tensor([[3.0]]))
    assert np.allclose(out.data, [[6.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_sigmoid_closed_form():
    out = sigmoid(tensor([0.2], dtype=np.float64))
    assert abs(out.data[0] - 0.549834) < 1e-6


def test_softmax_single_element():
    out = softmax(tensor([[3.7]]))
    assert np.allclose(out.data, [[1.0]])


def test_rms_norm_constant_vector():
    c = -2.5
    x = tensor(np.full((1, 6), c))
    gain = tensor(np.ones(6))
    out = rms_norm(x, gain)
    assert np.allclose(out.data, c / abs(c), atol=1e-6)


def test_rms_norm_zero_input_stays_zero():
    out = rms_norm(tensor(np.zeros((2, 4))), tensor(np.ones(4)))
    assert np.all(out.data == 0.0)


def test_relu_and_bce_values():
    out = relu(tensor([-1.0, 0.0, 2.0]))
    assert np.allclose(out.data, [0.0, 0.0, 2.0])
    # logit 0 vs target 0 -> ln 2
    b = bce_logits(tensor([0.0], dtype=np.float64), np.array([0.0]))
    assert abs(b.data[0] - np.log(2.0)) < 1e-12


def test_nonfinite_input_rejected():
    with pytest.raises(NumericError):
        relu(tensor([np.nan, 1.0]))
    with pytest.raises(NumericError):
        dt.add(tensor([np.inf]), tensor([1.0]))


def test_zero_size_dimension_rejected():
    with pytest.raises(ShapeError):
        dt.add(tensor(np.zeros((0, 3))), tensor(np.zeros((0, 3))))


def test_forward_determinism():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 8)).astype(np.float32)
    w = rng.standard_normal((8, 3)).astype(np.float32)
    a = matmul(tensor(x), tensor(w)).data
    b = matmul(tensor(x.copy()), tensor(w.copy())).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_l2_normalize_unit_or_zero(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 5))
    x[2] = 0.0  # force the eps branch on one row
    out = l2_normalize(tensor(x, dtype=np.float64))
    norms = np.linalg.norm(out.data, axis=-1)
    assert abs(norms[2]) == 0.0
    keep = np.ones(6, dtype=bool)
    keep[2] = False
    assert np.all(np.abs(norms[keep] - 1.0) < 1e-6)


# ---------------------------------------------------------------------------
# gradients: every differentiable primitive on >= 3 random shapes
# ---------------------------------------------------------------------------

SHAPES_2D = [(2, 3), (4, 5), (1, 7)]


@pytest.mark.parametrize("shape", SHAPES_2D)
def test_grad_elementwise_ops(shape):
    rng = np.random.default_rng(hash(shape) % 2 ** 31)
    a, b = rand(rng, *shape), rand(rng, *shape)
    for name, fn in [
        ("add", lambda u, v: mean(dt.add(u, v) * dt.add(u, u))),
        ("sub", lambda u, v: mean(dt.sub(u, v) ** 2.0)),
        ("mul", lambda u, v: mean(dt.mul(u, v))),
        ("div", lambda u, v: mean(dt.div(u, sigmoid(v) + 0.5))),
        ("neg", lambda u, v: mean(-u * v)),
    ]:
        rep = grad_check(fn, [a, b], tol=1e-5, name=name)
        assert rep.passed, str(rep)


@pytest.mark.parametrize("dims", [(4, 5, 3), (2, 2, 2), (6, 3, 4)])
def test_grad_matmul(dims):
    n, k, m = dims
    rng = np.random.default_rng(n * 100 + m)
    a, b = rand(rng, n, k), rand(rng, k, m)
    rep = grad_check(lambda u, v: mean(matmul(u, v)), [a, b], tol=1e-6, name="matmul")
    assert rep.passed, str(rep)


def test_grad_matmul_batched():
    rng = np.random.default_rng(11)
    a, b = rand(rng, 3, 4, 5), rand(rng, 3, 5, 2)
    rep = grad_check(lambda u, v: mean(matmul(u, v)), [a, b], name="matmul3d")
    assert rep.passed, str(rep)


@pytest.mark.parametrize("shape", SHAPES_2D)
def test_grad_nonlinearities(shape):
    rng = np.random.default_rng(sum(shape))
    x = rand(rng, *shape)
    for name, fn in [
        ("relu", lambda u: mean(relu(u + 0.05))),
        ("sigmoid", lambda u: mean(sigmoid(u))),
        ("softmax", lambda u: mean(softmax(u, axis=-1) ** 2.0)),
        ("exp", lambda u: mean(dt.exp(u))),
        ("log", lambda u: mean(dt.log(sigmoid(u) + 0.5))),
        ("power", lambda u: mean(u ** 2.0)),
    ]:
        rep = grad_check(fn, [x], tol=1e-5, name=name)
        assert rep.passed, str(rep)


@pytest.mark.parametrize("shape", SHAPES_2D)
def test_grad_reductions_and_mse(shape):
    rng = np.random.default_rng(31 + shape[0])
    a, b = rand(rng, *shape), rand(rng, *shape)
    for name, fn in [
        ("mean_all", lambda u, v: mean(u * v)),
        ("mean_axis", lambda u, v: mean(mean(u, axis=0) * mean(v, axis=0))),
        ("sum_axis", lambda u, v: mean(dt.sum_(u * v, axis=1) ** 2.0)),
        ("mse", lambda u, v: mse(u, v)),
    ]:
        rep = grad_check(fn, [a, b], tol=1e-5, name=name)
        assert rep.passed, str(rep)


@pytest.mark.parametrize("shape", [(3, 4), (2, 8), (5, 6)])
def test_grad_norm_layers(shape):
    rng = np.random.default_rng(17 + shape[1])
    x = rand(rng, *shape)
    gain = rand(rng, shape[1])
    bias = rand(rng, shape[1])
    for name, fn in [
        ("rms_norm", lambda u, g: mean(rms_norm(u, g) ** 2.0)),
        ("l2_normalize", lambda u, g: mean(l2_normalize(u) * g)),
    ]:
        rep = grad_check(fn, [x, gain], tol=1e-5, name=name)
        assert rep.passed, str(rep)
    rep = grad_check(lambda u, g, b: mean(layer_norm(u, g, b) ** 2.0),
                     [x, gain, bias], tol=1e-5, name="layer_norm")
    assert rep.passed, str(rep)


@pytest.mark.parametrize("shape", SHAPES_2D)
def test_grad_bce_logits(shape):
    rng = np.random.default_rng(5 + shape[0])
    z = rand(rng, *shape)
    y = (rng.random(shape) < 0.5).astype(np.float64)
    rep = grad_check(lambda u: mean(bce_logits(u, y)), [z], tol=1e-5, name="bce_logits")
    assert rep.passed, str(rep)


@pytest.mark.parametrize("case", [
    # (input hw, kernel hw, stride, pads)
    ((5, 6), (3, 3), (2, 2), ((1, 1), (1, 1))),
    ((4, 4), (3, 3), (1, 1), ((1, 1), (1, 1))),
    ((3, 4), (1, 2), (1, 1), ((0, 0), (0, 0))),
])
def test_grad_conv2d(case):
    (h, w), (kh, kw), stride, pads = case
    rng = np.random.default_rng(h * 10 + kw)
    x = rand(rng, 2, 3, h, w)
    k = rand(rng, 4, 3, kh, kw)
    b = rand(rng, 4)
    rep = grad_check(lambda u, v, c: mean(conv2d(u, v, c, stride=stride, pads=pads) ** 2.0),
                     [x, k, b], tol=1e-5, name="conv2d")
    assert rep.passed, str(rep)


@pytest.mark.parametrize("tc", [(6, 3), (5, 4), (9, 2)])
def test_grad_depthwise_conv1d(tc):
    t, c = tc
    rng = np.random.default_rng(t + c)
    x = rand(rng, t, c)
    w = rand(rng, 3, c)
    rep = grad_check(lambda u, v: mean(depthwise_conv1d(u, v) ** 2.0),
                     [x, w], tol=1e-5, name="depthwise_conv1d")
    assert rep.passed, str(rep)


@pytest.mark.parametrize("dims", [(3, 4), (2, 6), (5, 3)])
def test_grad_shape_ops(dims):
    rng = np.random.default_rng(23 + dims[0])
    a = rand(rng, *dims)
    b = rand(rng, 2, dims[1])
    checks = [
        ("reshape", lambda u, v: mean(u.reshape(-1, 1) ** 2.0) + mean(v), [a, b]),
        ("transpose", lambda u, v: mean(u.transpose(1, 0) ** 2.0) + mean(v), [a, b]),
        ("take", lambda u, v: mean(u[1:, :2] ** 2.0), [a, b]),
        ("index_rows", lambda u, v: mean(index_rows(u, [0, dims[0] - 1, 0]) ** 2.0) + mean(v), [a, b]),
        ("cast", lambda u, v: mean(dt.cast(dt.cast(u, np.longdouble) * 2.0, np.float64) * u)
         + mean(v), [a, b]),
        ("concat", lambda u, v: mean(concat([u, v], axis=0) ** 2.0), [a, b]),
        ("stack", lambda u, v: mean(stack([u, u], axis=0) * 3.0), [a, b]),
    ]
    for name, fn, args in checks:
        rep = grad_check(fn, args, tol=1e-5, name=name)
        assert rep.passed, str(rep)


def test_index_rows_repeated_index_accumulates():
    x = tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
    out = dt.sum_(index_rows(x, [1, 1, 1]))
    out.backward()
    assert np.allclose(x.grad, [[0, 0], [3, 3], [0, 0]])


def test_backward_requires_scalar():
    x = tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_grad_suppresses_graph():
    x = tensor(np.ones(3), requires_grad=True)
    with dt.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._backward is None


def test_gradient_shape_matches_data():
    rng = np.random.default_rng(3)
    x = rand(rng, 4, 6)
    out = mean(sigmoid(x) ** 2.0)
    out.backward()
    assert x.grad.shape == x.data.shape
