"""Reverse-mode autodiff over numpy arrays, sized for desk-scale models.

A `Tensor` is a value, `data`, plus a `Node` when it needs a gradient. Every
operation on a tensor that needs one builds a node in a dynamic graph: the
parents' nodes, a backward closure and the output shape, never a `Tensor`.
`Tensor.backward()` walks the nodes in reverse topological order; each
closure returns its inputs' gradients, which the walk reduces over broadcast
axes and adds into the parents' `.grad`. Leaves created with
``requires_grad=True`` keep theirs. The walk frees the graph behind it: once
a node's closure has run, its closure, gradient and parent links are
dropped, so a graph can be backpropagated once.

Each closure captures only the arrays it reads, so the graph holds no value
for its shape alone: an input or output that no backward reads is freed as
soon as the calling code drops its tensor. An array that is cheap to rebuild
from what a closure keeps (a relu mask, conv2d's im2col columns, rms_norm's
quotient, glu's sigmoid) is rebuilt in backward, not stored. So is a layer
norm's output ``xn * g + b`` where a `linear` reads it: the norm's tensor
carries a `rebuild` thunk over ``xn``, which the norm's node keeps, and the
gain and bias values, and the linear keeps the thunk instead of the value
(selective recomputation, Korthikanti et al., arXiv:2205.05198).

Conventions:
  * training math runs in float32, gradient checks in float64 (dtype follows
    the inputs, so building float64 leaves is enough);
  * broadcasting is supported for leading batch axes and singleton axes;
    anything fancier needs an explicit reshape. `linear` takes any number of
    leading batch axes, `attention` and `depthwise_conv1d` none;
  * guarded normalizations (`rms_norm`, `l2_normalize`) use a
    ``max(norm, NORM_EPS)`` denominator; `layer_norm` adds ``LN_EPS`` to the
    variance;
  * every tensor is scanned once, when it is made (a leaf in
    `Tensor.__init__`, an op result in `_make`): NaN/Inf raises
    `NumericError` and a zero-size dimension `ShapeError`, both naming the
    op that made the value.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-8
LN_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible or contain a zero-size dimension."""


class NumericError(ValueError):
    """NaN or Inf encountered where finite values are required."""


# ---------------------------------------------------------------------------
# graph bookkeeping
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# Audit hooks: when active, heavy ops report multiply-accumulate counts and
# every tensor allocation reports its shape. Used by complexity tests.
_AUDIT: dict | None = None


@contextmanager
def audit():
    """Collect {"macs": int, "shapes": [tuple, ...]} for ops run inside."""
    global _AUDIT
    prev = _AUDIT
    _AUDIT = {"macs": 0, "shapes": []}
    try:
        yield _AUDIT
    finally:
        _AUDIT = prev


def _audit_macs(n: int) -> None:
    if _AUDIT is not None:
        _AUDIT["macs"] += int(n)


def _audit_shape(shape) -> None:
    if _AUDIT is not None:
        _AUDIT["shapes"].append(tuple(shape))


class Node:
    """A tensor's place in the graph: its gradient, its parents' nodes (None
    for a parent that needs no gradient), the backward closure, which returns
    a gradient or None per parent, and the shape. A leaf has neither parents
    nor closure; a node that `backward()` has freed has parents None."""

    __slots__ = ("grad", "parents", "backward", "shape")

    def __init__(self, shape: tuple, parents: tuple = (), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward
        self.shape = shape


class Tensor:
    """An ndarray plus, when it needs a gradient, a graph `Node`. `rebuild`
    is None, or a thunk that recomputes `data` bit for bit from arrays the
    graph keeps anyway; a consumer that reads the value in backward may keep
    the thunk instead."""

    __slots__ = ("data", "node", "rebuild")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        _scan("tensor", arr)
        self.data = arr
        self.node = Node(arr.shape) if requires_grad else None
        self.rebuild = None
        _audit_shape(arr.shape)

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise ValueError("cannot set the gradient of a tensor that does not require one")

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- autodiff -------------------------------------------------------------

    def backward(self, seed=None) -> None:
        """Backpropagate from this tensor; scalar outputs seed with 1.

        The graph is freed on the way (see the module docstring), so a second
        call through the same graph finds nothing to propagate.
        """
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() on a non-scalar needs an explicit seed")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ShapeError(f"seed shape {seed.shape} != output shape {self.data.shape}")
        root = self.node
        # None: nothing it depends on needs a gradient; parents None: a freed node
        if root is None or root.parents is None:
            return

        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                # leaves and untracked values have nothing to propagate
                if p is not None and p.backward is not None and id(p) not in seen:
                    stack.append((p, False))

        root.grad = seed if root.grad is None else root.grad + seed
        # popping drops the list's reference; with the closure and the parent
        # links gone too, nothing but the caller holds a finished node
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                for p, g in zip(node.parents, node.backward(node.grad)):
                    if p is None or g is None:
                        continue
                    if g.shape != p.shape:
                        g = _unbroadcast(g, p.shape)
                    p.grad = g if p.grad is None else p.grad + g
            node.grad = None
            node.backward = None
            node.parents = None

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other, self))

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    __rmul__ = __mul__

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes or None)

    def sum(self, axis=None):
        return sum_(self, axis=axis)


tensor = Tensor     # a leaf tensor, float32 unless the data says otherwise


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _scan(op: str, arr: np.ndarray) -> None:
    """Reject a new value with a zero-size dimension or a NaN/Inf."""
    if 0 in arr.shape:
        raise ShapeError(f"{op}: zero-size dimension in array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{op}: non-finite value in array of shape {arr.shape}")


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Wire an op result into the graph (or prune when grads are off); the op
    is named by its backward closure, ``<op>.<locals>.bwd``."""
    _scan(backward.__qualname__.partition(".")[0], data)
    out = Tensor.__new__(Tensor)
    out.data = data
    nodes = tuple(p.node for p in parents)
    track = _GRAD_ENABLED and any(n is not None for n in nodes)
    out.node = Node(data.shape, nodes, backward) if track else None
    out.rebuild = None
    _audit_shape(data.shape)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return g, g

    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return g, -g

    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    # each operand's gradient reads the other's value; keep it only if it flows
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def bwd(g):
        return None if bv is None else g * bv, None if av is None else g * av

    return _make(a.data * b.data, (a, b), bwd)


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    av = a.data

    def bwd(g):
        return (g * p * av ** (p - 1.0),)

    return _make(av ** p, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batch axes follow numpy matmul rules."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    out = a.data @ b.data
    _audit_macs(out.size * a.shape[-1])
    # as in `mul`, each gradient reads the other operand
    at = np.swapaxes(a.data, -1, -2) if b.requires_grad else None
    bt = np.swapaxes(b.data, -1, -2) if a.requires_grad else None

    def bwd(g):
        return None if bt is None else g @ bt, None if at is None else at @ g

    return _make(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x (..., n_in), w (n_in, n_out) and b (n_out,), as one
    node; the leading axes fold into the rows of one 2-d product. When x
    carries a `rebuild` thunk (a layer norm's output), the node keeps that
    and recomputes x in backward instead of keeping x."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: cannot apply {w.shape} weights and {b.shape} bias "
                         f"to {x.shape}")
    n_in, n_out = w.shape
    wv, x_shape, rebuild = w.data, x.shape, x.rebuild
    out = x.data.reshape(-1, n_in) @ wv + b.data
    _audit_macs(out.size * n_in)
    xv = x.data if rebuild is None else None

    def bwd(g):
        g2 = g.reshape(-1, n_out)
        x2 = (xv if rebuild is None else rebuild()).reshape(-1, n_in)
        return (g2 @ wv.T).reshape(x_shape), x2.T @ g2, g2.sum(axis=0)

    return _make(out.reshape(*x.shape[:-1], n_out), (x, w, b), bwd)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., N, H*dh) -> (..., H, N, dh), a view."""
    return np.swapaxes(a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads), -2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., H, N, dh) -> (..., N, H*dh)."""
    a = np.swapaxes(a, -2, -3)
    return a.reshape(*a.shape[:-2], -1)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention on projected inputs, one node.

    q is (Nq, D), k and v are (Nk, D); each of the `heads` slices of width
    dh = D / heads computes softmax(q k^T / sqrt(dh)) v (Vaswani et al.,
    arXiv:1706.03762). The backward is written by hand from the stored
    weights, the only (H, Nq, Nk) array.
    """
    d = q.shape[-1]
    if q.ndim != 2 or k.ndim != 2 or k.shape[-1] != d or v.shape != k.shape or d % heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"with {heads} heads")
    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    p = _softmax_np(qh @ np.swapaxes(kh, -1, -2) * scale, -1)
    _audit_shape(p.shape)
    _audit_macs(2 * p.size * (d // heads))

    def bwd(g):
        gh = _split_heads(g, heads)
        gp = gh @ np.swapaxes(vh, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        return (_merge_heads(gs @ kh), _merge_heads(np.swapaxes(gs, -1, -2) @ qh),
                _merge_heads(np.swapaxes(p, -1, -2) @ gh))

    return _make(_merge_heads(p @ vh), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)    # branch-free, unlike np.where on a random mask

    def bwd(g):
        return (g * (out > 0),)    # out > 0 exactly where a > 0

    return _make(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_np(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), bwd)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit over the last axis: the first half times the sigmoid
    of the second. One node keeps the input and recomputes the sigmoid in
    backward, which writes both halves of one gradient."""
    if a.shape[-1] % 2:
        raise ShapeError(f"glu: last axis must be even, got {a.shape}")
    e = a.shape[-1] // 2
    av = a.data
    out = av[..., :e] * _sigmoid_np(av[..., e:])

    def bwd(g):
        s = _sigmoid_np(av[..., e:])
        ga = np.empty_like(av)
        ga[..., :e] = g * s
        ga[..., e:] = g * av[..., :e] * s * (1.0 - s)
        return (ga,)

    return _make(out, (a,), bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # Stable in both tails: e^min(x, 0) / (1 + e^-|x|). Branch-free, which
    # beats np.where on a mixed-sign input.
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def _softmax_np(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = _softmax_np(a.data, axis)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)
    shape = a.shape

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), bwd)


def mean(a: Tensor, axis=None) -> Tensor:
    out = a.data.mean(axis=axis)
    count = a.data.size / max(np.asarray(out).size, 1)
    shape = a.shape

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), bwd)


def mse(a: Tensor, b) -> Tensor:
    """Mean squared error against a tensor or constant array."""
    b = _coerce(b, a)
    d = a.data - b.data
    out = np.asarray((d * d).mean(), dtype=a.data.dtype)
    n = d.size

    def bwd(g):
        gd = g * 2.0 * d / n
        return gd, -gd

    return _make(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------

def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """y = gain * x / max(rms(x), NORM_EPS), rms over the last axis; backward
    divides x by the denominator again rather than keep the quotient."""
    n = x.shape[-1]
    xv, gv = x.data, gain.data
    r = np.sqrt((xv * xv).sum(axis=-1, keepdims=True) / n)
    denom = np.maximum(r, NORM_EPS)    # > NORM_EPS exactly where r is
    out = xv / denom * gv

    def bwd(g):
        gx_n = g * gv
        s = (gx_n * xv).sum(axis=-1, keepdims=True)
        corr = np.where(denom > NORM_EPS, xv * s / (n * denom ** 3), 0.0)
        return gx_n / denom - corr, g * (xv / denom)

    return _make(out, (x, gain), bwd)


def l2_normalize(x: Tensor) -> Tensor:
    """Rows scaled to unit L2 norm along the last axis; zero rows stay zero."""
    xv = x.data
    nu = np.sqrt((xv * xv).sum(axis=-1, keepdims=True))
    denom = np.maximum(nu, NORM_EPS)    # > NORM_EPS exactly where nu is
    out = xv / denom

    def bwd(g):
        s = (g * xv).sum(axis=-1, keepdims=True)
        corr = np.where(denom > NORM_EPS, xv * s / denom ** 3, 0.0)
        return (g / denom - corr,)

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standard layer norm over the last axis with learned gain and bias; a
    result with a node gets a `rebuild` that redoes ``xn * gain + bias``."""
    # sum / n is what `mean` computes, without its per-call overhead
    n = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xn = xc * inv
    gv, bv = gain.data, bias.data
    out = xn * gv + bv

    def bwd(g):
        gxn = g * gv
        m1 = gxn.sum(axis=-1, keepdims=True) / n
        m2 = (gxn * xn).sum(axis=-1, keepdims=True) / n
        return (gxn - m1 - xn * m2) * inv, g * xn, g

    res = _make(out, (x, gain, bias), bwd)
    if res.node is not None:
        res.rebuild = lambda: xn * gv + bv
    return res


# ---------------------------------------------------------------------------
# classification helpers
# ---------------------------------------------------------------------------

def bce_logits(z: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy on logits; targets are a constant array."""
    y = targets.astype(z.data.dtype, copy=False)
    zd = z.data
    out = np.maximum(zd, 0.0) - zd * y + np.log1p(np.exp(-np.abs(zd)))

    def bwd(g):
        return (g * (_sigmoid_np(zd) - y),)

    return _make(out, (z,), bwd)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _conv_index(cin: int, h: int, w: int, kh: int, kw: int, stride, pads):
    """Gather indices that lower one convolution geometry to a matmul.

    ``idx`` is (ho*wo, cin*kh*kw): for each output position and kernel entry
    (c, i, j), the flat position of the input element it reads in a
    (cin*h*w + 1,) row whose last slot is a zero standing for padding. ``inv``
    is (R, cin*h*w): for each input element, the flat entries of the
    (ho*wo*cin*kh*kw + 1,) column row that read it, in kernel-tap order
    (i, j), padded with the row's last slot. Summing ``inv``'s rows in order
    repeats the order of a tap-by-tap scatter of the column gradient.
    """
    (sh, sw), ((pt, pb), (pl, pr)) = stride, pads
    ho = (h + pt + pb - kh) // sh + 1
    wo = (w + pl + pr - kw) // sw + 1
    # input row and column read by each (output position, tap), broadcast to
    # (ho, wo, cin, kh, kw)
    r = (np.arange(ho)[:, None] * sh + np.arange(kh) - pt)[:, None, None, :, None]
    c = (np.arange(wo)[:, None] * sw + np.arange(kw) - pl)[None, :, None, None, :]
    ch = np.arange(cin)[:, None, None]
    inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
    n_in = cin * h * w
    idx = np.where(inside, (ch * h + r) * w + c, n_in).reshape(ho * wo, cin * kh * kw)

    src = idx.ravel()
    entry = np.flatnonzero(src < n_in)
    order = np.lexsort((entry % (kh * kw), src[entry]))   # by input element, then tap
    entry, elem = entry[order], src[entry[order]]
    rank = np.arange(elem.size) - np.searchsorted(elem, elem)   # position among its readers
    inv = np.full((rank.max(initial=0) + 1, n_in), src.size)
    inv[rank, elem] = entry
    idx.flags.writeable = False
    inv.flags.writeable = False
    return idx, inv


def _zero_slot(a: np.ndarray) -> np.ndarray:
    """(n, m) -> (n, m + 1) with a zero last column."""
    out = np.empty((a.shape[0], a.shape[1] + 1), dtype=a.dtype)
    out[:, :-1] = a
    out[:, -1] = 0
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), pads=((0, 0), (0, 0))) -> Tensor:
    """2-d convolution, NCHW input, OIHW kernel, explicit per-edge padding.

    Lowered to one gather (im2col through a cached index, `_conv_index`) and
    one matmul; the input gradient is the transposed matmul summed back
    through the index's inverse. The node keeps the input, not the columns:
    backward gathers them again for the kernel gradient.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch, input {x.shape} kernel {w.shape}")
    stride, pads = tuple(stride), tuple(map(tuple, pads))   # hashable cache keys
    if min(stride) < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if min(min(edge) for edge in pads) < 0:
        raise ShapeError(f"conv2d: pads must be >= 0, got {pads}")
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    (sh, sw), ((pt, pb), (pl, pr)) = stride, pads
    ho = (h + pt + pb - kh) // sh + 1
    wo = (wdt + pl + pr - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {w.shape} does not fit input {x.shape} with pads {pads}")

    idx, inv = _conv_index(cin, h, wdt, kh, kw, stride, pads)
    xv, x_shape, need_gx, has_b = x.data, x.shape, x.requires_grad, b is not None

    def im2col():
        # np.take keeps the columns C-ordered; a fancy index would hand BLAS
        # F-ordered ones and change the products' last bits
        xe = _zero_slot(xv.reshape(n, cin * h * wdt))
        return np.take(xe, idx.ravel(), axis=1).reshape(n * ho * wo, cin * kh * kw)

    wmat = w.data.reshape(cout, -1)
    out = (im2col() @ wmat.T).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    if b is not None:
        out = out + b.data.reshape(1, cout, 1, 1)
    out = np.ascontiguousarray(out)
    _audit_macs(n * ho * wo * cout * cin * kh * kw)

    def bwd(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
        gw = (gmat.T @ im2col()).reshape(cout, cin, kh, kw)
        gb = g.sum(axis=(0, 2, 3)) if has_b else None
        if not need_gx:
            return None, gw, gb
        gce = _zero_slot((gmat @ wmat).reshape(n, -1))
        gx = np.take(gce, inv[0], axis=1)
        for slot in inv[1:]:
            gx += np.take(gce, slot, axis=1)
        return gx.reshape(x_shape), gw, gb

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, bwd)


def depthwise_conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel 1-d convolution along the time axis, same padding.

    x is (T, C), w is (k, C) with odd k; output is (T, C).
    """
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"depthwise_conv1d: need (T, C) input and a 2-d kernel, "
                         f"got {x.shape} and {w.shape}")
    k, c = w.shape
    t, xc = x.shape
    if c != xc:
        raise ShapeError(f"depthwise_conv1d: channel mismatch, input {x.shape} kernel {w.shape}")
    if k % 2 != 1:
        raise ShapeError(f"depthwise_conv1d: kernel width must be odd, got {k}")
    pad = k // 2
    xp = np.zeros((t + 2 * pad, c), dtype=x.data.dtype)
    xp[pad:pad + t] = x.data
    wv = w.data
    # one shifted multiply-add per tap, summed in tap order
    out = xp[:t] * wv[0]
    for i in range(1, k):
        out += xp[i:i + t] * wv[i]
    _audit_macs(x.size * k)

    def bwd(g):
        win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (T, C, k)
        gw = np.einsum("tck,tc->kc", win, g)
        gxp = np.zeros_like(xp)
        for i in range(k):
            gxp[i:i + t] += g * wv[i]
        return gxp[pad:pad + t], gw

    return _make(out, (x, w), bwd)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    a_shape = a.shape

    def bwd(g):
        return (g.reshape(a_shape),)

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make(out, (a,), bwd)


def cast(a: Tensor, dtype) -> Tensor:
    """Convert to another float dtype; the gradient returns in the input's."""
    src = a.data.dtype

    def bwd(g):
        return (g.astype(src, copy=False),)

    return _make(a.data.astype(dtype, copy=False), (a,), bwd)


def take(a: Tensor, idx) -> Tensor:
    """Indexing/slicing; the gradient scatter-adds back into place, so an
    integer array may repeat an element. As in numpy, a basic index gives a
    view of the input and an integer array a copy."""
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        ga = np.zeros(shape, dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(a.data[idx], (a,), bwd)


def stack(tensors: list, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)  # snapshot: the caller may mutate its list
    out = np.stack([t.data for t in tensors], axis=axis)
    n = len(tensors)

    def bwd(g):
        return tuple(np.take(g, i, axis=axis) for i in range(n))

    return _make(out, tensors, bwd)
