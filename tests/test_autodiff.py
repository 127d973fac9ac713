import weakref

import numpy as np
import pytest

import diarnet.autodiff as dt
from conftest import graph_arrays, traced_peak
from diarnet.gradcheck import grad_check
from diarnet.autodiff import (
    NumericError,
    ShapeError,
    bce_logits,
    conv2d,
    depthwise_conv1d,
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
    take,
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


# every op result is scanned where it is made, so a float32 overflow is
# caught at the op that made the Inf
NON_FINITE_RESULTS = {
    "power": lambda: dt.power(tensor([1e20, 1.0], dtype=np.float32), 2.0),
    "mul": lambda: dt.mul(tensor([1e20, 1.0], dtype=np.float32),
                          tensor([1e20, 1.0], dtype=np.float32)),
    "sum_": lambda: dt.sum_(tensor([3e38, 3e38], dtype=np.float32)),
    "cast": lambda: dt.cast(tensor([1e300, 1.0], dtype=np.float64), np.float32),
}


@pytest.mark.parametrize("op", list(NON_FINITE_RESULTS))
def test_non_finite_result_names_the_op(op):
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=f"^{op}: non-finite"):
            NON_FINITE_RESULTS[op]()


def test_zero_size_result_names_the_op():
    with pytest.raises(ShapeError, match="^take: zero-size"):
        tensor(np.ones((2, 3)))[:, 3:]


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


def test_grad_conv2d_asymmetric_pads_stride_2():
    # CNN layers 2-4: same padding on an even size puts the one pad row/column
    # after the map
    rng = np.random.default_rng(17)
    x = rand(rng, 2, 3, 4, 6)
    k = rand(rng, 4, 3, 3, 3)
    b = rand(rng, 4)
    rep = grad_check(lambda u, v, c: mean(conv2d(u, v, c, stride=(2, 2),
                                                 pads=((0, 1), (0, 1))) ** 2.0),
                     [x, k, b], tol=1e-5, name="conv2d")
    assert rep.passed, str(rep)


def _conv2d_reference(x, w, b, g, stride, pads):
    """The strided conv2d that the gather-index version replaced: a padded
    copy, a sliding-window im2col and a tap-by-tap scatter of the column
    gradient. Returns the output and the x, w and b gradients for seed g."""
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    (sh, sw), ((pt, pb), (pl, pr)) = stride, pads
    ho = (h + pt + pb - kh) // sh + 1
    wo = (wdt + pl + pr - kw) // sw + 1
    xp = np.zeros((n, cin, h + pt + pb, wdt + pl + pr), dtype=x.dtype)
    xp[:, :, pt:pt + h, pl:pl + wdt] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, -1)
    wmat = w.reshape(cout, -1)
    out = (cols @ wmat.T).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out + b.reshape(1, cout, 1, 1))
    gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
    gw = (gmat.T @ cols).reshape(w.shape)
    gb = g.sum(axis=(0, 2, 3))
    gwin = (gmat @ wmat).reshape(n, ho, wo, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += gwin[:, :, :, :, i, j]
    return out, gxp[:, :, pt:pt + h, pl:pl + wdt], gw, gb


def _cnn_layer_cases(embed_dim):
    """(cin, cout, (h, w), (kh, kw), stride, pads) of the five cnn_encode layers."""
    from diarnet.frontend import N_MELS, WINDOW_FRAMES, cnn_channel_plan

    chans = (1,) + cnn_channel_plan(embed_dim)
    hw = [(WINDOW_FRAMES, N_MELS), (8, 12), (4, 6), (2, 3), (1, 2)]
    pads = [((1, 1), (1, 1)), ((0, 1), (0, 1)), ((0, 1), (0, 1)), ((0, 1), (1, 1))]
    cases = [(chans[i], chans[i + 1], hw[i], (3, 3), (2, 2), pads[i]) for i in range(4)]
    return cases + [(chans[4], chans[5], hw[4], (1, 2), (1, 1), ((0, 0), (0, 0)))]


CONV_CASES = (_cnn_layer_cases(64) + _cnn_layer_cases(256)
              + [(3, 4, (5, 6), (3, 3), (2, 2), ((1, 1), (1, 1))),
                 (3, 4, (4, 4), (3, 3), (1, 1), ((1, 1), (1, 1))),
                 (3, 4, (3, 4), (1, 2), (1, 1), ((0, 0), (0, 0)))])


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_matches_strided_reference(case):
    cin, cout, (h, w), (kh, kw), stride, pads = case
    rng = np.random.default_rng(cin * 1000 + h * 10 + kw)
    xd = rng.standard_normal((6, cin, h, w)).astype(np.float32)
    wd = rng.standard_normal((cout, cin, kh, kw)).astype(np.float32)
    bd = rng.standard_normal(cout).astype(np.float32)
    x, k, b = (tensor(a, requires_grad=True) for a in (xd, wd, bd))
    out = conv2d(x, k, b, stride=stride, pads=pads)
    g = rng.standard_normal(out.shape).astype(np.float32)
    g[g < -0.5] = 0.0               # zeros, as a relu's backward makes them
    out.backward(g)
    ref = _conv2d_reference(xd, wd, bd, g, stride, pads)
    for got, want in zip((out.data, x.grad, k.grad, b.grad), ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    # an input without a gradient gets none; the kernel and bias gradients
    # do not depend on it
    x2, k2, b2 = tensor(xd), tensor(wd, requires_grad=True), tensor(bd, requires_grad=True)
    conv2d(x2, k2, b2, stride=stride, pads=pads).backward(g)
    assert x2.grad is None
    assert np.array_equal(k2.grad, k.grad) and np.array_equal(b2.grad, b.grad)


@pytest.mark.parametrize("stride,pads,what", [
    ((0, 1), ((0, 0), (0, 0)), "stride"),
    ((1, -2), ((0, 0), (0, 0)), "stride"),
    ((1, 1), ((-1, 0), (0, 0)), "pads"),
    ((1, 1), ((0, 0), (0, -1)), "pads"),
])
def test_conv2d_bad_stride_or_pad_is_a_shape_error(stride, pads, what):
    x = tensor(np.ones((1, 1, 4, 4)))
    k = tensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(ShapeError, match=f"^conv2d: {what} must be >= "):
        conv2d(x, k, stride=stride, pads=pads)


def _backward_with_seed_of_shape(shape):
    (tensor(np.ones((2, 2)), requires_grad=True) * 2.0).backward(np.ones(shape))


@pytest.mark.parametrize("call,prefix", [
    (lambda: matmul(tensor(np.ones(3)), tensor(np.ones((3, 2)))),
     "matmul: operands must be >=2-d"),
    (lambda: dt.linear(tensor(np.ones((2, 3))), tensor(np.ones((4, 5))), tensor(np.ones(5))),
     "linear: cannot apply (4, 5) weights"),
    (lambda: dt.attention(*(tensor(np.ones((3, 6))) for _ in range(3)), heads=4),
     "attention: q (3, 6)"),
    (lambda: dt.attention(tensor(np.ones((3, 6))), *(tensor(np.ones((2, 5, 6))) for _ in "kv"),
                          heads=2),
     "attention: q (3, 6), k (2, 5, 6)"),
    (lambda: conv2d(tensor(np.ones((1, 4, 4))), tensor(np.ones((1, 1, 2, 2)))),
     "conv2d: need 4-d operands"),
    (lambda: conv2d(tensor(np.ones((1, 2, 4, 4))), tensor(np.ones((1, 1, 2, 2)))),
     "conv2d: channel mismatch"),
    (lambda: conv2d(tensor(np.ones((1, 1, 2, 2))), tensor(np.ones((1, 1, 3, 3)))),
     "conv2d: kernel (1, 1, 3, 3) does not fit"),
    (lambda: depthwise_conv1d(tensor(np.ones(4)), tensor(np.ones((3, 4)))),
     "depthwise_conv1d: need (T, C) input"),
    (lambda: depthwise_conv1d(tensor(np.ones((5, 4))), tensor(np.ones((3, 2)))),
     "depthwise_conv1d: channel mismatch"),
    (lambda: depthwise_conv1d(tensor(np.ones((5, 4))), tensor(np.ones((2, 4)))),
     "depthwise_conv1d: kernel width must be odd"),
    (lambda: _backward_with_seed_of_shape(3), "seed shape (3,) != output shape (2, 2)"),
], ids=["matmul-rank", "linear", "attention", "attention-rank", "conv2d-rank", "conv2d-channels",
        "conv2d-fit", "dwconv-rank", "dwconv-channels", "dwconv-even", "backward-seed"])
def test_shape_errors_name_the_op(call, prefix):
    with pytest.raises(ShapeError) as e:
        call()
    assert e.type is ShapeError and str(e.value).startswith(prefix), str(e.value)


@pytest.mark.parametrize("tc", [(6, 3), (5, 4), (9, 2)])
def test_grad_depthwise_conv1d(tc):
    t, c = tc
    rng = np.random.default_rng(t + c)
    x = rand(rng, t, c)
    w = rand(rng, 3, c)
    rep = grad_check(lambda u, v: mean(depthwise_conv1d(u, v) ** 2.0),
                     [x, w], tol=1e-5, name="depthwise_conv1d")
    assert rep.passed, str(rep)


def _depthwise_reference(x, w):
    """The depthwise forward that the tap loop replaced: one (T, C, k)
    product of sliding windows and kernel, summed over taps."""
    k, c = w.shape
    t, pad = x.shape[0], k // 2
    xp = np.zeros((t + 2 * pad, c), dtype=x.dtype)
    xp[pad:pad + t] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)
    return (win * w.T).sum(axis=-1)


@pytest.mark.parametrize("k", [1, 3, 9])
def test_depthwise_conv1d_matches_window_product_bitwise(k):
    rng = np.random.default_rng(61 + k)
    xd = rng.standard_normal((150, 64)).astype(np.float32)
    wd = rng.standard_normal((k, 64)).astype(np.float32)
    got = depthwise_conv1d(tensor(xd), tensor(wd)).data
    want = _depthwise_reference(xd, wd)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# the fused primitives, on criterion 1's shapes and at its tolerance
FUSED_SHAPES = [(2, 5), (4, 3), (3, 7)]
FUSED_TOL = 1e-4


@pytest.mark.parametrize("shape", FUSED_SHAPES)
@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
def test_grad_linear(shape, lead):
    n, d = shape
    rng = np.random.default_rng(41 + n * d)
    x, w, b = rand(rng, *lead, n, d), rand(rng, d, 4), rand(rng, 4)
    rep = grad_check(lambda u, v, c: mean(dt.linear(u, v, c) ** 2.0), [x, w, b],
                     tol=FUSED_TOL, name="linear")
    assert rep.passed, str(rep)


@pytest.mark.parametrize("shape", FUSED_SHAPES)
@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
def test_grad_layer_norm_into_linears(shape, lead):
    # one projection, as a feed-forward's w1; three sharing one norm, as latent
    # attention's k1, v1 and q2
    n, d = shape
    rng = np.random.default_rng(47 + n * d)
    x, gain, bias = rand(rng, *lead, n, d), rand(rng, d), rand(rng, d)
    projections = [t for _ in range(3) for t in (rand(rng, d, 3), rand(rng, 3))]

    def one(u, g, c, w, b):
        return mean(dt.linear(layer_norm(u, g, c), w, b) ** 2.0)

    def three(u, g, c, w1, b1, w2, b2, w3, b3):
        y = layer_norm(u, g, c)
        return mean(dt.linear(y, w1, b1) * dt.linear(y, w2, b2) + dt.linear(y, w3, b3) ** 2.0)

    for fn, inputs in ((one, projections[:2]), (three, projections)):
        rep = grad_check(fn, [x, gain, bias, *inputs], tol=FUSED_TOL, name=fn.__name__)
        assert rep.passed, str(rep)


@pytest.mark.parametrize("shape", FUSED_SHAPES)
@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
def test_grad_glu(shape, lead):
    n, d = shape
    x = rand(np.random.default_rng(53 + n * d), *lead, n, 2 * d)
    rep = grad_check(lambda u: mean(dt.glu(u) ** 2.0), [x], tol=FUSED_TOL, name="glu")
    assert rep.passed, str(rep)


def test_glu_needs_an_even_last_axis():
    with pytest.raises(ShapeError, match="glu"):
        dt.glu(tensor(np.ones((2, 5))))


def _f32_leaves(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float32) for s in shapes]


def _assert_bit_equal(fused, unfused):
    for a, b in zip(fused, unfused):
        assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
def test_layer_norm_into_linears_matches_the_unfused_composition_bitwise(lead):
    # a reshape between the norm and the linears carries no rebuild thunk, so
    # there each linear keeps its input: the unfused composition
    def run(fused):
        x, g, c, w1, b1, w2, b2 = _f32_leaves(97, (*lead, 6, 8), (8,), (8,), (8, 5), (5,),
                                              (8, 5), (5,))
        y = layer_norm(x, g, c)
        if not fused:
            y = y.reshape(*y.shape)
        out = dt.linear(y, w1, b1) * dt.linear(y, w2, b2)
        mean(out ** 2.0).backward()
        return [out.data] + [t.grad for t in (x, g, c, w1, b1, w2, b2)]

    _assert_bit_equal(run(True), run(False))


@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
def test_glu_matches_the_unfused_composition_bitwise(lead):
    def run(fused):
        (h,) = _f32_leaves(101, (*lead, 6, 10))
        out = dt.glu(h) if fused else h[..., :5] * sigmoid(h[..., 5:])
        mean(out ** 2.0).backward()
        return [out.data, h.grad]

    _assert_bit_equal(run(True), run(False))


def test_linear_keeps_a_layer_norm_output_as_its_rebuild():
    rng = np.random.default_rng(103)
    x, gain, bias, w, b = rand(rng, 4, 6), rand(rng, 6), rand(rng, 6), rand(rng, 6, 3), rand(rng, 3)
    y = layer_norm(x, gain, bias)
    value = weakref.ref(y.data)
    out = dt.linear(y, w, b)
    del y    # the model drops the norm's output once its projections are built
    assert value() is None
    mean(out ** 2.0).backward()
    assert w.grad is not None and x.grad is not None


@pytest.mark.parametrize("shape", FUSED_SHAPES)
def test_grad_attention(shape):
    n, d = shape
    rng = np.random.default_rng(43 + n * d)
    q, k, v = rand(rng, n, d), rand(rng, n + 1, d), rand(rng, n + 1, d)
    for heads in (1, d):
        rep = grad_check(lambda a, b, c: mean(dt.attention(a, b, c, heads) ** 2.0),
                         [q, k, v], tol=FUSED_TOL, name=f"attention/{heads}")
        assert rep.passed, str(rep)


def test_attention_matches_per_head_softmax():
    rng = np.random.default_rng(47)
    q, k, v = (rng.standard_normal((2, n, 6)) for n in (3, 5, 5))
    for b in range(2):
        got = dt.attention(tensor(q[0]), tensor(k[b], dtype=np.float64),
                           tensor(v[b], dtype=np.float64), heads=2).data
        for h in (slice(0, 3), slice(3, 6)):
            s = q[0][:, h] @ k[b][:, h].T / np.sqrt(3.0)
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            assert np.allclose(got[:, h], p @ v[b][:, h], atol=1e-12)


@pytest.mark.parametrize("dims", [(3, 4), (2, 6), (5, 3)])
def test_grad_shape_ops(dims):
    rng = np.random.default_rng(23 + dims[0])
    a = rand(rng, *dims)
    b = rand(rng, 2, dims[1])
    checks = [
        ("reshape", lambda u, v: mean(u.reshape(-1, 1) ** 2.0) + mean(v), [a, b]),
        ("transpose", lambda u, v: mean(u.transpose(1, 0) ** 2.0) + mean(v), [a, b]),
        ("take", lambda u, v: mean(u[1:, :2] ** 2.0), [a, b]),
        ("take_int", lambda u, v: mean(u[1] ** 2.0) + mean(v[..., 0, 1:] * 3.0), [a, b]),
        ("take_rows", lambda u, v: mean(take(u, np.array([0, dims[0] - 1, 0])) ** 2.0) + mean(v),
         [a, b]),
        ("cast", lambda u, v: mean(dt.cast(dt.cast(u, np.longdouble) * 2.0, np.float64) * u)
         + mean(v), [a, b]),
        ("stack", lambda u, v: mean(stack([u, u], axis=0) * 3.0), [a, b]),
    ]
    for name, fn, args in checks:
        rep = grad_check(fn, args, tol=1e-5, name=name)
        assert rep.passed, str(rep)


def test_take_repeated_index_accumulates():
    x = tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
    out = dt.sum_(take(x, np.array([1, 1, 1])))
    out.backward()
    assert np.allclose(x.grad, [[0, 0], [3, 3], [0, 0]])


def test_conv2d_node_keeps_no_im2col_columns():
    rng = np.random.default_rng(67)
    x = tensor(rng.standard_normal((4, 3, 6, 5)), requires_grad=True)
    k = tensor(rng.standard_normal((8, 3, 3, 3)), requires_grad=True)
    out = conv2d(x, k, stride=(2, 2), pads=((1, 1), (1, 1)))
    cols_shape = (4 * out.shape[2] * out.shape[3], 3 * 3 * 3)
    assert all(a.shape != cols_shape for a in graph_arrays(out)[1].values())


def test_relu_node_keeps_no_mask():
    x = tensor(np.random.default_rng(71).standard_normal((5, 7)), requires_grad=True)
    out = relu(x)
    assert all(a.dtype != bool for a in graph_arrays(out)[1].values())


def test_rms_norm_node_keeps_no_quotient():
    rng = np.random.default_rng(83)
    x = tensor(rng.standard_normal((5, 7)), requires_grad=True)
    out = rms_norm(x, tensor(rng.standard_normal(7), requires_grad=True))
    # x itself and the (5, 1) denominator, not x / denominator
    full = [a for a in graph_arrays(out)[1].values() if a.shape == x.shape]
    assert len(full) == 1 and full[0] is x.data


# (op, input shapes, whether its backward reads each input's value); every
# input needs a gradient
KEEPS = [
    ("add", lambda a, b: a + b, [(3, 4), (4,)], (False, False)),
    ("sub", lambda a, b: a - b, [(3, 4), (3, 4)], (False, False)),
    ("mul", lambda a, b: a * b, [(3, 4), (3, 4)], (True, True)),
    ("mul_constant", lambda a: a * 0.5, [(3, 4)], (False,)),
    ("power", lambda a: a ** 2.0, [(3, 4)], (True,)),
    ("matmul", matmul, [(3, 4), (4, 2)], (True, True)),
    ("matmul_constant", lambda a: matmul(a, tensor(np.ones((4, 2)))), [(3, 4)], (False,)),
    ("linear", dt.linear, [(2, 3, 4), (4, 5), (5,)], (True, True, False)),
    ("attention", lambda q, k, v: dt.attention(q, k, v, 2), [(3, 4), (5, 4), (5, 4)],
     (True, True, True)),
    ("relu", relu, [(3, 4)], (False,)),
    ("sigmoid", sigmoid, [(3, 4)], (False,)),
    ("glu", dt.glu, [(3, 4)], (True,)),
    ("softmax", softmax, [(3, 4)], (False,)),
    ("sum", lambda a: a.sum(axis=0), [(3, 4)], (False,)),
    ("mean", mean, [(3, 4)], (False,)),
    ("mse", mse, [(3, 4), (3, 4)], (False, False)),
    ("rms_norm", rms_norm, [(3, 4), (4,)], (True, True)),
    ("l2_normalize", l2_normalize, [(3, 4)], (True,)),
    ("layer_norm", layer_norm, [(3, 4), (4,), (4,)], (False, True, False)),
    ("bce_logits", lambda z: bce_logits(z, np.ones((3, 4))), [(3, 4)], (True,)),
    ("conv2d", lambda x, w, b: conv2d(x, w, b, pads=((1, 1), (1, 1))),
     [(2, 3, 5, 4), (4, 3, 3, 3), (4,)], (True, True, False)),
    ("depthwise_conv1d", depthwise_conv1d, [(6, 4), (3, 4)], (False, True)),
    ("reshape", lambda a: a.reshape(4, 3), [(3, 4)], (False,)),
    ("transpose", lambda a: a.transpose(1, 0), [(3, 4)], (False,)),
    ("cast", lambda a: dt.cast(a, np.float32), [(3, 4)], (False,)),
    ("take", lambda a: a[1:, :2], [(3, 4)], (False,)),
    ("take_rows", lambda a: take(a, np.array([0, 2, 0])), [(3, 4)], (False,)),
    ("stack", lambda a, b: stack([a, b]), [(3, 4), (3, 4)], (False, False)),
]


@pytest.mark.parametrize("op, shapes, reads", [k[1:] for k in KEEPS], ids=[k[0] for k in KEEPS])
def test_node_keeps_an_input_value_only_if_its_backward_reads_it(op, shapes, reads):
    rng = np.random.default_rng(79)
    inputs = [rand(rng, *shape) for shape in shapes]
    values = [weakref.ref(t.data) for t in inputs]
    node = op(*inputs).node
    del inputs      # the caller drops its tensors and keeps the graph
    assert node.backward is not None
    assert [v() is not None for v in values] == list(reads)


def test_take_views_a_basic_index_and_copies_an_integer_array_once():
    a = tensor(np.random.default_rng(73).standard_normal((512, 512)), requires_grad=True,
               dtype=np.float32)
    assert np.shares_memory(take(a, (slice(1, None), 3)).data, a.data)
    assert np.shares_memory(a[2:].data, a.data)
    rows = np.arange(511, -1, -1)
    out, peak = traced_peak(take, a, rows)
    assert out.data.flags.owndata and not np.shares_memory(out.data, a.data)
    # the copy, plus the quarter-size finite scan; a second copy would double it
    assert peak < 1.5 * out.data.nbytes


def test_backward_frees_the_graph():
    rng = np.random.default_rng(59)
    x, w = rand(rng, 3, 4), rand(rng, 3, 4)
    prod = x * w
    sq = prod ** 2.0
    out = mean(sq)
    out.backward()
    for t in (prod, sq, out):
        assert t.grad is None and t.node.backward is None and t.node.parents is None
    assert np.allclose(x.grad, 2.0 * x.data * w.data ** 2 / 12, atol=1e-15)
    assert np.allclose(w.grad, 2.0 * w.data * x.data ** 2 / 12, atol=1e-15)


def test_a_second_backward_through_a_freed_graph_leaves_grad_unchanged():
    x = tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    out = mean(x * x)
    out.backward()
    first = x.grad.copy()
    out.backward()
    assert np.array_equal(x.grad, first)
    assert out.grad is None
    x.backward(np.ones(3))      # a leaf root still takes its seed
    assert np.array_equal(x.grad, first + 1.0)


def test_a_tensor_without_a_gradient_takes_none_and_backpropagates_nothing():
    x = tensor(np.arange(3))
    assert x.data.dtype == np.float32     # integer data becomes the default float
    x.grad = None
    with pytest.raises(ValueError, match="does not require one"):
        x.grad = np.ones(3)
    out = mean(x * 2.0)
    out.backward()
    assert out.node is None and x.grad is None


def test_backward_requires_scalar():
    x = tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_grad_suppresses_graph():
    x = tensor(np.ones(3), requires_grad=True)
    with dt.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y.node is None


def test_gradient_shape_matches_data():
    rng = np.random.default_rng(3)
    x = rand(rng, 4, 6)
    out = mean(sigmoid(x) ** 2.0)
    out.backward()
    assert x.grad.shape == x.data.shape
