"""Attractor-based conformer decoder for per-frame speaker activity.

One recording flows as:

    x0 (T, E)  front-end embeddings
    repeat for each of D blocks:
        x <- x + depth_pool(stack)        (skipped before block 1)
        A <- attractor_decode(A, x)       (slots refined against frames)
        x <- conformer_block(x, A)        (frames cross-attend to slots)
        stack.append(x)
    split final A into directions a_s and biases b_s
    logits[t, s] = x[t] . a_s + b_s + b_global

Self-attention over time goes through a small set of learned latents, so no
T x T score matrix is ever formed and cost stays linear in T.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frontend import (CNN_LAYERS, ConfigError, check_number_fields, cnn_channel_plan,
                       encode_clip, from_json)


@dataclass
class ModelConfig:
    depth: int = 5
    embed_dim: int = 256
    latte_dim: int = 128
    n_latents: int = 16
    n_attractors: int = 8
    ff_expansion: int = 4
    conv_kernel: int = 9
    heads: int = 4

    def __post_init__(self):
        check_number_fields(self, "model.", dict.fromkeys(self.to_dict(), 1))
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.latte_dim % self.heads != 0:
            raise ConfigError(f"latte_dim {self.latte_dim} not divisible by heads {self.heads}")
        if self.conv_kernel % 2 != 1:
            raise ConfigError(f"conv_kernel must be odd, got {self.conv_kernel}")
        cnn_channel_plan(self.embed_dim)    # embed_dim must be divisible by 16

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return from_json(cls, d, "model")


@dataclass
class ForwardResult:
    """Everything the losses need from one forward pass."""
    logits: Tensor            # (T, S)
    frames: Tensor            # (T, E) final embeddings, used by clustering losses
    attractor_dirs: Tensor    # (S, E) post-split directions a_s
    attractor_biases: Tensor  # (S,)  per-slot biases b_s
    global_bias: Tensor       # scalar b_global


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_specs(cfg: ModelConfig):
    """Yield (name, shape, init) for every learnable tensor, front end first,
    in the order `init_model_params` stores and draws them. `init` is "zeros",
    "ones", "glorot" (uniform, Glorot and Bengio's limit from the shape), or a
    float d: a standard-normal draw divided by d.

    Rows come lazily, so a checkpoint whose header names a deep model is
    refused at its first missing tensor without listing the rest.
    """
    e, l, k = cfg.embed_dim, cfg.latte_dim, cfg.conv_kernel
    hidden = e * cfg.ff_expansion

    def linear(name, n_in, n_out):
        return [(name + ".w", (n_in, n_out), "glorot"), (name + ".b", (n_out,), "zeros")]

    def norm(name):
        return [(name + ".g", (e,), "ones"), (name + ".b", (e,), "zeros")]

    def ff(name):
        return (norm(name + ".ln") + linear(name + ".w1", e, hidden)
                + linear(name + ".w2", hidden, e))

    def attention(name):
        return norm(name + ".ln") + [row for p in "qkvo" for row in linear(f"{name}.{p}", e, e)]

    def conv(name):
        return (norm(name + ".ln") + linear(name + ".pw1", e, 2 * e)
                + [(name + ".dw", (k, e), math.sqrt(k)), (name + ".norm_g", (e,), "ones")]
                + linear(name + ".pw2", e, e))

    cin = 1
    for i, (cout, (kernel, _, _)) in enumerate(zip(cnn_channel_plan(e), CNN_LAYERS), start=1):
        yield f"frontend.conv{i}.w", (cout, cin) + kernel, "glorot"
        yield f"frontend.conv{i}.b", (cout,), "zeros"
        cin = cout
    yield "frontend.norm_gain", (e,), "ones"
    for d in range(1, cfg.depth + 1):
        blk, dec = f"block{d}", f"adec{d}"
        yield from ff(f"{blk}.ff1") + norm(f"{blk}.latte.ln")
        yield f"{blk}.latte.latents", (cfg.n_latents, l), math.sqrt(l)
        for p, n_in, n_out in (("k1", e, l), ("v1", e, l), ("q2", e, l), ("k2", l, l),
                               ("v2", l, l), ("o", l, e)):
            yield from linear(f"{blk}.latte.{p}", n_in, n_out)
        yield from (conv(f"{blk}.conv1") + attention(f"{blk}.xattn") + conv(f"{blk}.conv2")
                    + ff(f"{blk}.ff2") + norm(f"{blk}.out_ln"))
        yield from (attention(f"{dec}.self") + ff(f"{dec}.ff1") + attention(f"{dec}.cross")
                    + ff(f"{dec}.ff2"))
        if d >= 2:
            sap_hidden = max(e // 4, 8)
            yield from linear(f"sap{d}.w1", e, sap_hidden) + linear(f"sap{d}.w2", sap_hidden, 1)
    yield "attractors.init", (cfg.n_attractors, e), math.sqrt(e)
    yield from norm("head.ln") + linear("head.split", e, e + 1)
    yield "head.b_global", (), "zeros"


def init_model_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    """All learnable tensors of `param_specs`, flat-named; includes the front end."""
    params = {}
    for name, shape, init in param_specs(cfg):
        if init == "zeros":
            data = np.zeros(shape, dtype=np.float32)
        elif init == "ones":
            data = np.ones(shape, dtype=np.float32)
        elif init == "glorot":
            limit = math.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            data = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        else:
            data = (rng.standard_normal(shape) / init).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _apply_linear(x: Tensor, params: dict, name: str) -> Tensor:
    return ad.linear(x, params[name + ".w"], params[name + ".b"])


def _apply_ln(x: Tensor, params: dict, name: str) -> Tensor:
    return ad.layer_norm(x, params[name + ".g"], params[name + ".b"])


def multihead_attention(q_in: Tensor, kv_in: Tensor, params: dict, name: str,
                        heads: int) -> Tensor:
    q = _apply_linear(q_in, params, name + ".q")
    k = _apply_linear(kv_in, params, name + ".k")
    v = _apply_linear(kv_in, params, name + ".v")
    return _apply_linear(ad.attention(q, k, v, heads), params, name + ".o")


def latte_attention(x: Tensor, params: dict, name: str, cfg: ModelConfig) -> Tensor:
    """Two-stage latent attention over time, linear in sequence length.

    Stage 1: the learned latents query the sequence (softmax over T per
    latent). Stage 2: every position queries the updated latents (softmax
    over latents per position). The residual is added by the caller.
    """
    heads = cfg.heads
    k1 = _apply_linear(x, params, name + ".k1")
    v1 = _apply_linear(x, params, name + ".v1")
    z = ad.attention(params[name + ".latents"], k1, v1, heads)  # (n_latents, L)
    q2 = _apply_linear(x, params, name + ".q2")
    k2 = _apply_linear(z, params, name + ".k2")
    v2 = _apply_linear(z, params, name + ".v2")
    out = ad.attention(q2, k2, v2, heads)                       # (T, L)
    return _apply_linear(out, params, name + ".o")


def _mlp(x: Tensor, params: dict, name: str) -> Tensor:
    """`name`.w1, relu, `name`.w2: a feed-forward sublayer or a depth scorer."""
    return _apply_linear(ad.relu(_apply_linear(x, params, name + ".w1")), params, name + ".w2")


def _conv_block(x: Tensor, params: dict, name: str) -> Tensor:
    """Pointwise GLU -> depthwise conv along time -> RMS norm -> pointwise."""
    h = ad.glu(_apply_linear(_apply_ln(x, params, name + ".ln"), params, name + ".pw1"))
    h = ad.depthwise_conv1d(h, params[name + ".dw"])
    h = ad.relu(ad.rms_norm(h, params[name + ".norm_g"]))
    return _apply_linear(h, params, name + ".pw2")


def conformer_block(x: Tensor, attractors: Tensor, params: dict, name: str,
                    cfg: ModelConfig) -> Tensor:
    """FF/2, latent self-attention, conv, cross-attention to attractors,
    conv, FF/2, then a closing layer norm; residuals on every sublayer."""
    x = x + 0.5 * _mlp(_apply_ln(x, params, f"{name}.ff1.ln"), params, f"{name}.ff1")
    x = x + latte_attention(_apply_ln(x, params, f"{name}.latte.ln"),
                            params, f"{name}.latte", cfg)
    x = x + _conv_block(x, params, f"{name}.conv1")
    x = x + multihead_attention(_apply_ln(x, params, f"{name}.xattn.ln"),
                                attractors, params, f"{name}.xattn", cfg.heads)
    x = x + _conv_block(x, params, f"{name}.conv2")
    x = x + 0.5 * _mlp(_apply_ln(x, params, f"{name}.ff2.ln"), params, f"{name}.ff2")
    return _apply_ln(x, params, f"{name}.out_ln")


def attractor_decode(attractors: Tensor, x: Tensor, params: dict, name: str,
                     cfg: ModelConfig) -> Tensor:
    """One decoder layer: slots self-attend, then cross-attend to the frames,
    each attention followed by a feed-forward; pre-norm residuals throughout."""
    a = attractors
    a_n = _apply_ln(a, params, f"{name}.self.ln")
    a = a + multihead_attention(a_n, a_n, params, f"{name}.self", cfg.heads)
    a = a + _mlp(_apply_ln(a, params, f"{name}.ff1.ln"), params, f"{name}.ff1")
    a = a + multihead_attention(_apply_ln(a, params, f"{name}.cross.ln"), x,
                                params, f"{name}.cross", cfg.heads)
    a = a + _mlp(_apply_ln(a, params, f"{name}.ff2.ln"), params, f"{name}.ff2")
    return a


def sap_pool(stack: list[Tensor], params: dict, name: str) -> Tensor:
    """Score each depth entry per time step, softmax over depth, weighted sum."""
    h = ad.stack(stack, axis=0)                       # (d, T, E)
    weights = ad.softmax(_mlp(h, params, name), axis=0)   # (d, T, 1), over depth
    return (weights * h).sum(axis=0)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def split_attractors(attractors: Tensor, params: dict) -> tuple[Tensor, Tensor]:
    """Normalize, project each slot E -> E+1, split into direction and bias.

    The attractor residual stream is unnormalized; the closing layer norm
    keeps logit scale independent of decoder depth.
    """
    a_n = _apply_ln(attractors, params, "head.ln")
    proj = _apply_linear(a_n, params, "head.split")   # (S, E+1)
    e = attractors.shape[-1]
    return proj[..., :e], proj[..., e]


def forward(x0: Tensor, params: dict, cfg: ModelConfig) -> ForwardResult:
    """Run the decoder stack on the front-end embeddings of one recording, (T, E)."""
    if x0.ndim != 2 or x0.shape[-1] != cfg.embed_dim:
        raise ConfigError(f"expected (T, {cfg.embed_dim}) embeddings, got {x0.shape}")
    if "attractors.init" not in params:
        raise ConfigError("parameter store is missing attractors.init")
    if params["attractors.init"].shape != (cfg.n_attractors, cfg.embed_dim):
        raise ConfigError(
            f"attractors.init has shape {params['attractors.init'].shape}, "
            f"config wants {(cfg.n_attractors, cfg.embed_dim)}")

    x = x0
    stack = [x0]
    attractors = params["attractors.init"]
    for d in range(1, cfg.depth + 1):
        if d >= 2:
            # pooled depth summary re-injected as a global residual; before
            # block 1 the stack is just x0 and the residual would double it
            x = x + sap_pool(stack, params, f"sap{d}")
        attractors = attractor_decode(attractors, x, params, f"adec{d}", cfg)
        x = conformer_block(x, attractors, params, f"block{d}", cfg)
        stack.append(x)

    dirs, biases = split_attractors(attractors, params)
    logits = ad.matmul(x, dirs.transpose(1, 0)) + biases + params["head.b_global"]
    return ForwardResult(logits=logits, frames=x, attractor_dirs=dirs,
                         attractor_biases=biases, global_bias=params["head.b_global"])


def predict_probs(clip, params: dict, cfg: ModelConfig) -> np.ndarray:
    """Inference: audio clip -> per-frame speaker probabilities (T, S)."""
    with ad.no_grad():
        x0 = encode_clip(clip, params, cfg.embed_dim)
        res = forward(x0, params, cfg)
        return ad.sigmoid(res.logits).data


def param_count(params: dict) -> int:
    return sum(int(np.prod(t.shape)) for t in params.values())


def zero_grads(params: dict) -> None:
    for t in params.values():
        t.grad = None
