import hashlib

import numpy as np
import pytest

import diarnet.autodiff as ad
from diarnet.autodiff import tensor
from diarnet.frontend import ConfigError, cnn_encode
from diarnet.model import (
    ModelConfig,
    attractor_decode,
    conformer_block,
    forward,
    init_model_params,
    latte_attention,
    param_specs,
    sap_pool,
    split_attractors,
    zero_grads,
)


def tiny_cfg(**overrides) -> ModelConfig:
    base = dict(depth=2, embed_dim=32, latte_dim=16, n_latents=4,
                n_attractors=4, ff_expansion=2, conv_kernel=3, heads=2)
    base.update(overrides)
    return ModelConfig(**base)


def make(cfg, seed=0):
    return init_model_params(cfg, np.random.default_rng(seed))


def rand_x(cfg, t, seed=1):
    rng = np.random.default_rng(seed)
    return tensor(rng.standard_normal((t, cfg.embed_dim)).astype(np.float32))


# ---------------------------------------------------------------------------
# latent attention
# ---------------------------------------------------------------------------

def test_latte_single_latent_broadcasts():
    cfg = tiny_cfg(n_latents=1)
    params = make(cfg)
    out = latte_attention(rand_x(cfg, 9), params, "block1.latte", cfg)
    assert out.shape == (9, cfg.embed_dim)
    assert np.allclose(out.data, out.data[0], atol=1e-6)


def test_latte_single_frame():
    cfg = tiny_cfg()
    params = make(cfg)
    out = latte_attention(rand_x(cfg, 1), params, "block1.latte", cfg)
    assert out.shape == (1, cfg.embed_dim)
    assert np.all(np.isfinite(out.data))


def test_latte_op_count_scales_linearly():
    cfg = tiny_cfg()
    params = make(cfg)
    counts = {}
    for t in (256, 512):
        with ad.audit() as rec:
            latte_attention(rand_x(cfg, t), params, "block1.latte", cfg)
        counts[t] = rec["macs"]
    ratio = counts[512] / counts[256]
    assert abs(ratio - 2.0) < 0.02, f"latent attention MACs scaled by {ratio}"


def test_latte_never_builds_txt():
    cfg = tiny_cfg()
    params = make(cfg)
    t = 101  # prime, collides with no other dimension
    with ad.audit() as rec:
        latte_attention(rand_x(cfg, t), params, "block1.latte", cfg)
    for shape in rec["shapes"]:
        assert sum(1 for d in shape if d == t) < 2, f"T x T intermediate {shape}"


# ---------------------------------------------------------------------------
# conformer block
# ---------------------------------------------------------------------------

def test_block_preserves_shape():
    cfg = tiny_cfg()
    params = make(cfg)
    a = tensor(np.zeros((cfg.n_attractors, cfg.embed_dim), dtype=np.float32))
    out = conformer_block(rand_x(cfg, 50), a, params, "block1", cfg)
    assert out.shape == (50, cfg.embed_dim)


def test_block_cross_attention_zero_values_is_passthrough():
    cfg = tiny_cfg()
    params = make(cfg)
    params["block1.xattn.v.w"] = tensor(np.zeros_like(params["block1.xattn.v.w"].data))
    params["block1.xattn.v.b"] = tensor(np.zeros_like(params["block1.xattn.v.b"].data))
    x = rand_x(cfg, 12)
    rng = np.random.default_rng(9)
    a1 = tensor(rng.standard_normal((cfg.n_attractors, cfg.embed_dim)).astype(np.float32))
    a2 = tensor(rng.standard_normal((cfg.n_attractors, cfg.embed_dim)).astype(np.float32))
    out1 = conformer_block(x, a1, params, "block1", cfg)
    out2 = conformer_block(x, a2, params, "block1", cfg)
    assert np.array_equal(out1.data, out2.data)


def test_block_and_decoder_at_reference_dims():
    # reference geometry: 256-wide frames, 128-wide latents, 8 x 256 slots
    cfg = ModelConfig(depth=1)
    params = make(cfg, seed=5)
    rng = np.random.default_rng(6)
    x = tensor(rng.standard_normal((50, 256)).astype(np.float32))
    a = tensor(rng.standard_normal((8, 256)).astype(np.float32))
    out = conformer_block(x, a, params, "block1", cfg)
    assert out.shape == (50, 256)
    a2 = attractor_decode(a, x, params, "adec1", cfg)
    assert a2.shape == (8, 256)


def test_block_attractor_permutation_invariance():
    cfg = tiny_cfg()
    params = make(cfg)
    x = rand_x(cfg, 20)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((cfg.n_attractors, cfg.embed_dim)).astype(np.float32)
    perm = rng.permutation(cfg.n_attractors)
    out = conformer_block(x, tensor(a), params, "block1", cfg)
    out_p = conformer_block(x, tensor(a[perm]), params, "block1", cfg)
    assert np.allclose(out.data, out_p.data, atol=1e-5)


# ---------------------------------------------------------------------------
# depth pooling
# ---------------------------------------------------------------------------

def test_sap_singleton_is_identity():
    cfg = tiny_cfg()
    params = make(cfg)
    x = rand_x(cfg, 7)
    out = sap_pool([x], params, "sap2")
    assert np.array_equal(out.data, x.data)


def test_sap_identical_entries_collapse():
    cfg = tiny_cfg()
    params = make(cfg)
    x = rand_x(cfg, 7)
    out = sap_pool([x, x, x], params, "sap2")
    assert np.allclose(out.data, x.data, atol=1e-6)


def test_sap_saturated_scores_select_entry():
    cfg = tiny_cfg()
    params = make(cfg)
    e = cfg.embed_dim
    hidden = max(e // 4, 8)
    # rig the score MLP: large positive response to entry 0's signature
    a = tensor(np.full((5, e), 1.0, dtype=np.float32))
    b = tensor(np.full((5, e), -1.0, dtype=np.float32))
    w1 = np.zeros((e, hidden), dtype=np.float32)
    w1[:, 0] = 1.0
    params["sap2.w1.w"] = tensor(w1)
    params["sap2.w1.b"] = tensor(np.zeros(hidden, dtype=np.float32))
    w2 = np.zeros((hidden, 1), dtype=np.float32)
    w2[0, 0] = 1000.0 / e
    params["sap2.w2.w"] = tensor(w2)
    params["sap2.w2.b"] = tensor(np.zeros(1, dtype=np.float32))
    out = sap_pool([a, b], params, "sap2")
    # entry 0 scores +1000 past entry 1 (relu kills the negative row)
    assert np.max(np.abs(out.data - a.data)) < 1e-6


# ---------------------------------------------------------------------------
# attractor decoder
# ---------------------------------------------------------------------------

def test_attractor_decode_shapes():
    cfg = tiny_cfg()
    params = make(cfg)
    a = tensor(np.random.default_rng(0).standard_normal(
        (cfg.n_attractors, cfg.embed_dim)).astype(np.float32))
    out = attractor_decode(a, rand_x(cfg, 15), params, "adec1", cfg)
    assert out.shape == (cfg.n_attractors, cfg.embed_dim)


def test_attractor_decode_zero_values_ignores_frames():
    cfg = tiny_cfg()
    params = make(cfg)
    params["adec1.cross.v.w"] = tensor(np.zeros_like(params["adec1.cross.v.w"].data))
    params["adec1.cross.v.b"] = tensor(np.zeros_like(params["adec1.cross.v.b"].data))
    a = tensor(np.random.default_rng(1).standard_normal(
        (cfg.n_attractors, cfg.embed_dim)).astype(np.float32))
    out1 = attractor_decode(a, rand_x(cfg, 10, seed=5), params, "adec1", cfg)
    out2 = attractor_decode(a, rand_x(cfg, 10, seed=6), params, "adec1", cfg)
    assert np.array_equal(out1.data, out2.data)


def test_attractor_decode_is_deterministic():
    cfg = tiny_cfg()
    params = make(cfg)
    a = tensor(np.random.default_rng(2).standard_normal(
        (cfg.n_attractors, cfg.embed_dim)).astype(np.float32))
    x = rand_x(cfg, 10)
    out1 = attractor_decode(a, x, params, "adec1", cfg)
    out2 = attractor_decode(a, x, params, "adec1", cfg)
    assert np.array_equal(out1.data, out2.data)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def test_forward_shapes_and_determinism():
    cfg = tiny_cfg()
    params = make(cfg)
    x = rand_x(cfg, 40)
    r1 = forward(x, params, cfg)
    r2 = forward(x, params, cfg)
    assert r1.logits.shape == (40, cfg.n_attractors)
    assert r1.frames.shape == (40, cfg.embed_dim)
    assert r1.attractor_dirs.shape == (cfg.n_attractors, cfg.embed_dim)
    assert r1.attractor_biases.shape == (cfg.n_attractors,)
    assert np.array_equal(r1.logits.data, r2.logits.data)


def test_forward_depth_one():
    cfg = tiny_cfg(depth=1)
    params = make(cfg)
    r = forward(rand_x(cfg, 8), params, cfg)
    assert r.logits.shape == (8, cfg.n_attractors)


def test_logit_head_closed_form():
    cfg = tiny_cfg()
    params = make(cfg)
    e = cfg.embed_dim
    # rig the split projection: directions 0, biases 0.3, global bias -0.1
    params["head.split.w"] = tensor(np.zeros((e, e + 1), dtype=np.float32))
    b = np.zeros(e + 1, dtype=np.float32)
    b[e] = 0.3
    params["head.split.b"] = tensor(b)
    params["head.b_global"] = tensor(np.array(-0.1, dtype=np.float32))
    a = tensor(np.random.default_rng(0).standard_normal(
        (cfg.n_attractors, e)).astype(np.float32))
    dirs, biases = split_attractors(a, params)
    x = rand_x(cfg, 6)
    logits = ad.matmul(x, dirs.transpose(1, 0)) + biases.reshape(1, -1) + params["head.b_global"]
    assert np.allclose(logits.data, 0.2, atol=1e-6)
    probs = ad.sigmoid(logits)
    assert np.allclose(probs.data, 0.549834, atol=1e-5)


def test_forward_no_txt_intermediate():
    cfg = tiny_cfg()
    params = make(cfg)
    t = 103
    with ad.audit() as rec:
        forward(rand_x(cfg, t), params, cfg)
    offenders = [s for s in rec["shapes"] if sum(1 for d in s if d == t) >= 2]
    assert not offenders, f"T x T intermediates: {offenders[:5]}"


def test_gradient_reaches_every_parameter():
    cfg = tiny_cfg()
    params = make(cfg)
    rng = np.random.default_rng(0)
    windows = rng.standard_normal((24, 15, 23)).astype(np.float32)
    x0 = cnn_encode(windows, params, cfg.embed_dim)
    res = forward(x0, params, cfg)
    loss = ad.mean(res.logits ** 2.0) + ad.mean(res.frames ** 2.0) \
        + ad.mean(res.attractor_dirs ** 2.0)
    zero_grads(params)
    loss.backward()
    dead = [k for k, t in params.items()
            if t.grad is None or float(np.abs(t.grad).max()) == 0.0]
    assert not dead, f"no gradient reached: {dead}"


def test_forward_rejects_wrong_width():
    cfg = tiny_cfg()
    params = make(cfg)
    with pytest.raises(ConfigError):
        forward(tensor(np.zeros((5, cfg.embed_dim + 1), dtype=np.float32)), params, cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=30)
    with pytest.raises(ConfigError):
        ModelConfig(latte_dim=126, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(conv_kernel=8)
    # sizes are positive ints: no float truncated, no bool read as 1, no
    # zero head count dividing by zero
    for bad in ({"depth": 2.7}, {"depth": True}, {"depth": "2"}, {"heads": 0}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ModelConfig.from_dict(dict(tiny_cfg().to_dict(), **bad))
    with pytest.raises(ConfigError, match="model"):
        ModelConfig.from_dict([1])


def _forward_with(cfg, name, value):
    params = make(cfg)
    if value is None:
        del params[name]
    else:
        params[name] = value
    forward(tensor(np.zeros((5, cfg.embed_dim), dtype=np.float32)), params, cfg)


@pytest.mark.parametrize("call,prefix", [
    (lambda: ModelConfig(embed_dim=40), "embed_dim must be divisible by 16, got 40"),
    (lambda: _forward_with(tiny_cfg(), "attractors.init", None),
     "parameter store is missing attractors.init"),
    (lambda: _forward_with(tiny_cfg(), "attractors.init", tensor(np.zeros((3, 32)))),
     "attractors.init has shape (3, 32), config wants (4, 32)"),
], ids=["embed-dim-16", "no-attractors", "attractors-shape"])
def test_config_errors_name_the_rule(call, prefix):
    with pytest.raises(ConfigError) as e:
        call()
    assert e.type is ConfigError and str(e.value).startswith(prefix), str(e.value)


def test_config_round_trip():
    cfg = tiny_cfg(depth=3)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_init_follows_param_specs_and_is_pinned():
    cfg = tiny_cfg()
    params = make(cfg)
    specs = list(param_specs(cfg))
    assert [(k, p.shape) for k, p in params.items()] == [(k, s) for k, s, _ in specs]
    for name, shape, init in specs:
        data = params[name].data
        assert data.dtype == np.float32 and params[name].requires_grad
        if init in ("zeros", "ones"):
            assert np.all(data == float(init == "ones")), name
        elif init == "glorot":
            # a linear (n_in, n_out) and a conv (cout, cin, kh, kw) weight
            # share the limit sqrt(6 / ((shape[0] + shape[1]) * kh * kw))
            limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * np.prod(shape[2:])))
            assert np.abs(data).max() <= limit, name
    # sha256 over (name, shape, bytes) in store order: a change to any name,
    # shape, init rule or draw order shows here
    h = hashlib.sha256()
    for k, p in params.items():
        h.update(k.encode())
        h.update(repr(p.shape).encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == "a34861b8d1f7212bdf2841c0db227d3e6578567604df6f9f88a929941a8581b8"
