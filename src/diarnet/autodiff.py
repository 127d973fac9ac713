"""Reverse-mode autodiff over numpy arrays, sized for desk-scale models.

Every operation builds a node in a dynamic graph; `Tensor.backward()` walks
the graph in reverse topological order and accumulates gradients into the
`.grad` field of any tensor created with ``requires_grad=True``.

Conventions:
  * training math runs in float32, gradient checks in float64 (dtype follows
    the inputs, so building float64 leaves is enough);
  * broadcasting is supported for leading batch axes and singleton axes;
    anything fancier needs an explicit reshape;
  * guarded normalizations (`rms_norm`, `l2_normalize`) use a
    ``max(norm, NORM_EPS)`` denominator.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-8

# Set False to skip NaN/Inf input validation in the hot path.
CHECK_FINITE = True


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


class Tensor:
    """An ndarray plus an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff -------------------------------------------------------------

    def backward(self, seed=None) -> None:
        """Backpropagate from this tensor; scalar outputs seed with 1."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() on a non-scalar needs an explicit seed")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ShapeError(f"seed shape {seed.shape} != output shape {self.data.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = seed if self.grad is None else self.grad + seed
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other, self))

    def __rtruediv__(self, other):
        return div(_coerce(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a leaf tensor (float32 unless the data says otherwise)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Wire an op result into the graph (or prune when grads are off)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._parents = parents if track else ()
    out._backward = backward if track else None
    _audit_shape(data.shape)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check(op: str, *tensors: Tensor) -> None:
    for t in tensors:
        if 0 in t.data.shape:
            raise ShapeError(f"{op}: zero-size dimension in operand of shape {t.data.shape}")
        if CHECK_FINITE and not np.all(np.isfinite(t.data)):
            raise NumericError(f"{op}: non-finite value in input")


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check("add", a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check("sub", a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check("mul", a, b)

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check("div", a, b)

    def bwd(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _make(a.data / b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, -g)

    return _make(-a.data, (a,), bwd)


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out = a.data ** p

    def bwd(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return _make(out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bwd(g):
        _accum(a, g * out)

    return _make(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    if CHECK_FINITE and np.any(a.data <= 0):
        raise NumericError("log: non-positive input")
    out = np.log(a.data)

    def bwd(g):
        _accum(a, g / a.data)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batch axes follow numpy matmul rules."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-d, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    _check("matmul", a, b)
    out = a.data @ b.data
    _audit_macs(out.size * a.shape[-1])

    def bwd(g):
        _accum(a, g @ np.swapaxes(b.data, -1, -2))
        _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    _check("relu", a)
    mask = a.data > 0
    out = np.where(mask, a.data, 0.0).astype(a.data.dtype, copy=False)

    def bwd(g):
        _accum(a, g * mask)

    return _make(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    _check("sigmoid", a)
    out = _sigmoid_np(a.data)

    def bwd(g):
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # Stable in both tails.
    pos = x >= 0
    z = np.where(pos, -x, x)
    ez = np.exp(z)
    return np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    _check("softmax", a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - dot))

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _check("mean", a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(np.asarray(out).size, 1)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape) / count)

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), bwd)


def mse(a: Tensor, b) -> Tensor:
    """Mean squared error against a tensor or constant array."""
    b = _coerce(b, a)
    _check("mse", a, b)
    d = a.data - b.data
    out = np.asarray((d * d).mean(), dtype=a.data.dtype)
    n = d.size

    def bwd(g):
        gd = g * 2.0 * d / n
        _accum(a, gd)
        _accum(b, -gd)

    return _make(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------

def rms_norm(x: Tensor, gain: Tensor, eps: float = NORM_EPS) -> Tensor:
    """y = gain * x / max(rms(x), eps), rms over the last axis."""
    _check("rms_norm", x, gain)
    n = x.shape[-1]
    r = np.sqrt((x.data * x.data).mean(axis=-1, keepdims=True))
    denom = np.maximum(r, eps)
    xn = x.data / denom
    out = xn * gain.data

    def bwd(g):
        _accum(gain, g * xn)
        gx_n = g * gain.data
        s = (gx_n * x.data).sum(axis=-1, keepdims=True)
        corr = np.where(r > eps, x.data * s / (n * denom ** 3), 0.0)
        _accum(x, gx_n / denom - corr)

    return _make(out, (x, gain), bwd)


def l2_normalize(x: Tensor, eps: float = NORM_EPS) -> Tensor:
    """Rows scaled to unit L2 norm along the last axis; zero rows stay zero."""
    _check("l2_normalize", x)
    nu = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    denom = np.maximum(nu, eps)
    out = x.data / denom

    def bwd(g):
        s = (g * x.data).sum(axis=-1, keepdims=True)
        corr = np.where(nu > eps, x.data * s / denom ** 3, 0.0)
        _accum(x, g / denom - corr)

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standard layer norm over the last axis with learned gain and bias."""
    _check("layer_norm", x, gain, bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv
    out = xn * gain.data + bias.data

    def bwd(g):
        _accum(bias, g)
        _accum(gain, g * xn)
        gxn = g * gain.data
        m1 = gxn.mean(axis=-1, keepdims=True)
        m2 = (gxn * xn).mean(axis=-1, keepdims=True)
        _accum(x, (gxn - m1 - xn * m2) * inv)

    return _make(out, (x, gain, bias), bwd)


# ---------------------------------------------------------------------------
# classification helpers
# ---------------------------------------------------------------------------

def bce_logits(z: Tensor, targets) -> Tensor:
    """Elementwise binary cross-entropy on logits; targets are constants."""
    _check("bce_logits", z)
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    y = y.astype(z.data.dtype, copy=False)
    zd = z.data
    out = np.maximum(zd, 0.0) - zd * y + np.log1p(np.exp(-np.abs(zd)))

    def bwd(g):
        _accum(z, g * (_sigmoid_np(zd) - y))

    return _make(out, (z,), bwd)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), pads=((0, 0), (0, 0))) -> Tensor:
    """2-d convolution, NCHW input, OIHW kernel, explicit per-edge padding."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch, input {x.shape} kernel {w.shape}")
    _check("conv2d", x, w)
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    (pt, pb), (pl, pr) = pads
    ho = (h + pt + pb - kh) // sh + 1
    wo = (wdt + pl + pr - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {w.shape} does not fit input {x.shape} with pads {pads}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw]                       # (n, cin, ho, wo, kh, kw)
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, cin * kh * kw)
    wmat = w.data.reshape(cout, -1)
    out = (cols @ wmat.T).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    if b is not None:
        out = out + b.data.reshape(1, cout, 1, 1)
    out = np.ascontiguousarray(out)
    _audit_macs(n * ho * wo * cout * cin * kh * kw)

    def bwd(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
        _accum(w, (gmat.T @ cols).reshape(w.shape))
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3)))
        gwin = (gmat @ wmat).reshape(n, ho, wo, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += gwin[:, :, :, :, i, j]
        _accum(x, gxp[:, :, pt:pt + h, pl:pl + wdt])

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, bwd)


def depthwise_conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel 1-d convolution along the first axis, same padding.

    x is (T, C), w is (k, C) with odd k; output is (T, C).
    """
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"depthwise_conv1d: need 2-d operands, got {x.shape} and {w.shape}")
    k, c = w.shape
    if c != x.shape[1]:
        raise ShapeError(f"depthwise_conv1d: channel mismatch, input {x.shape} kernel {w.shape}")
    if k % 2 != 1:
        raise ShapeError(f"depthwise_conv1d: kernel width must be odd, got {k}")
    _check("depthwise_conv1d", x, w)
    t = x.shape[0]
    pad = k // 2
    xp = np.pad(x.data, ((pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (T, C, k)
    out = (win * w.data.T[None, :, :]).sum(axis=-1)
    _audit_macs(t * c * k)

    def bwd(g):
        _accum(w, np.einsum("tck,tc->kc", win, g))
        gxp = np.zeros_like(xp)
        for i in range(k):
            gxp[i:i + t] += g * w.data[i]
        _accum(x, gxp[pad:pad + t])

    return _make(np.ascontiguousarray(out), (x, w), bwd)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def bwd(g):
        _accum(a, np.transpose(g, inv))

    return _make(out, (a,), bwd)


def cast(a: Tensor, dtype) -> Tensor:
    """Convert to another float dtype; the gradient returns in the input's."""
    src = a.data.dtype

    def bwd(g):
        _accum(a, g.astype(src, copy=False))

    return _make(a.data.astype(dtype, copy=False), (a,), bwd)


def take(a: Tensor, idx) -> Tensor:
    """Indexing/slicing; gradients scatter-add back into place."""
    out = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accum(a, ga)

    return _make(np.array(out, copy=True), (a,), bwd)


def index_rows(a: Tensor, idx) -> Tensor:
    """Gather rows by integer index along axis 0."""
    idx = np.asarray(idx, dtype=np.intp)
    return take(a, idx)


def concat(tensors: list, axis: int = 0) -> Tensor:
    tensors = list(tensors)  # snapshot: the caller may mutate its list
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(out, tuple(tensors), bwd)


def stack(tensors: list, axis: int = 0) -> Tensor:
    tensors = list(tensors)  # snapshot: the caller may mutate its list
    out = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        for i, t in enumerate(tensors):
            _accum(t, np.take(g, i, axis=axis))

    return _make(out, tuple(tensors), bwd)
