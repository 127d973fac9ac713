

import warnings

import numpy as np
import pytest

from diarnet.autodiff import Tensor
from diarnet.losses import LabelMatrix, LossWeights
from diarnet.model import ModelConfig
from diarnet.synth import LabeledRecording, MixtureSpec, synth_mixture
from diarnet.training import (
    AdamW,
    ScheduleError,
    TrainConfig,
    clip_grad_norm,
    load_checkpoint,
    one_cycle_lr,
    save_checkpoint,
    train,
)


def desk_model() -> ModelConfig:
    return ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2,
                       n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)


def desk_config(**kw) -> TrainConfig:
    base = dict(batch_size=2, epochs=2, max_lr=1e-3, crop_s=3.0, seed=0,
                model=desk_model(), val_every=1)
    base.update(kw)
    return TrainConfig(**base)


def desk_specs(n=3, seed0=50):
    return [MixtureSpec(n_speakers=2, duration_s=8.0, overlap_ratio=0.2,
                        noise_snr_db=15.0, seed=seed0 + i) for i in range(n)]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_one_cycle_endpoints():
    total, max_lr = 1000, 2e-3
    assert one_cycle_lr(0, total, max_lr) == pytest.approx(max_lr / 25)
    assert one_cycle_lr(300, total, max_lr) == pytest.approx(max_lr)
    assert one_cycle_lr(total - 1, total, max_lr) <= max_lr / 1e3


def test_one_cycle_monotone_phases():
    total, max_lr = 200, 1e-3
    values = [one_cycle_lr(s, total, max_lr) for s in range(total)]
    warm = int(round(0.3 * total))
    assert all(b >= a - 1e-12 for a, b in zip(values[:warm], values[1:warm + 1]))
    assert all(b <= a + 1e-12 for a, b in zip(values[warm:], values[warm + 1:]))


def test_one_cycle_rejects_out_of_range():
    with pytest.raises(ScheduleError):
        one_cycle_lr(10, 10, 1e-3)
    with pytest.raises(ScheduleError):
        one_cycle_lr(-1, 10, 1e-3)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _param(v):
    return {"p": Tensor(np.asarray(v, dtype=np.float32), requires_grad=True)}


def test_adamw_first_step_unit_gradient():
    params = _param([1.0, 2.0, 3.0])
    opt = AdamW(params, weight_decay=0.0)
    params["p"].grad = np.ones(3, dtype=np.float32)
    opt.step(lr=0.01)
    assert np.allclose(params["p"].data, [0.99, 1.99, 2.99], atol=1e-6)


def test_adamw_zero_gradient_no_decay_is_fixed_point():
    params = _param([1.5, -2.0])
    opt = AdamW(params, weight_decay=0.0)
    params["p"].grad = np.zeros(2, dtype=np.float32)
    opt.step(lr=0.5)
    assert np.array_equal(params["p"].data, np.asarray([1.5, -2.0], dtype=np.float32))


def test_adamw_decoupled_decay_shrinks():
    params = _param([2.0])
    opt = AdamW(params, weight_decay=0.1)
    params["p"].grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.1)
    assert params["p"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.1), rel=1e-6)


def test_adamw_skips_nan_gradients():
    params = _param([1.0])
    opt = AdamW(params)
    params["p"].grad = np.asarray([np.nan], dtype=np.float32)
    with pytest.warns(RuntimeWarning, match="non-finite gradient"):
        assert not opt.step(lr=0.1)
    assert opt.skipped == 1
    assert params["p"].data[0] == 1.0


def test_clip_grad_norm():
    params = _param([0.0, 0.0])
    params["p"].grad = np.asarray([3.0, 4.0], dtype=np.float32)
    norm = clip_grad_norm(params, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(params["p"].grad) == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    from diarnet.model import init_model_params
    cfg = desk_model()
    params = init_model_params(cfg, np.random.default_rng(7))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, params, cfg, meta={"step": 5})
    back, cfg2 = load_checkpoint(p)
    assert cfg2 == cfg
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k].data, params[k].data)


def test_checkpoint_rejects_mismatched_config(tmp_path):
    from diarnet.model import init_model_params
    cfg = desk_model()
    params = init_model_params(cfg, np.random.default_rng(7))
    p = tmp_path / "m.ckpt"
    other = ModelConfig(depth=2, embed_dim=32, latte_dim=16, n_latents=2,
                        n_attractors=2, ff_expansion=2, conv_kernel=3, heads=2)
    save_checkpoint(p, params, other)
    with pytest.raises(ValueError):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_zero_epochs_writes_initial_checkpoint(tmp_path):
    cfg = desk_config(epochs=0)
    result = train(cfg, desk_specs(2), out_dir=tmp_path)
    assert not result.diverged
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "metrics.csv").exists()
    params, cfg2 = load_checkpoint(tmp_path / "last.ckpt")
    assert cfg2 == cfg.model


def test_zero_weighted_losses_leave_params_unchanged():
    # With every loss weight at zero the gradients vanish; decoupled decay is
    # disabled so the optimizer really is a no-op.
    cfg = desk_config(epochs=1, weights=LossWeights(0.0, 0.0, 0.0, 0.0),
                      weight_decay=0.0)
    from diarnet.model import init_model_params
    reference = init_model_params(cfg.model, np.random.default_rng([cfg.seed, 0]))
    result = train(cfg, desk_specs(2))
    for k, p in result.params.items():
        assert np.array_equal(p.data, reference[k].data), k


def test_fixed_seed_reproduces_history():
    cfg = desk_config()
    a = train(cfg, desk_specs(3), val_specs=desk_specs(1, seed0=90))
    b = train(cfg, desk_specs(3), val_specs=desk_specs(1, seed0=90))
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra == rb


def test_training_reduces_loss_on_tiny_task():
    cfg = desk_config(epochs=12, max_lr=2e-3, seed=1)
    result = train(cfg, desk_specs(4))
    train_rows = [r for r in result.history if r["split"] == "train"]
    first = np.mean([r["total"] for r in train_rows[:4]])
    last = np.mean([r["total"] for r in train_rows[-4:]])
    assert last < first


def test_divergence_aborts_with_last_finite_params(tmp_path):
    # an absurd learning rate explodes the parameters within a step or two
    cfg = desk_config(epochs=4, max_lr=1e12, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="diverged"):
            result = train(cfg, desk_specs(2), out_dir=tmp_path)
    assert result.diverged
    for p in result.params.values():
        assert np.all(np.isfinite(p.data))
    assert (tmp_path / "last.ckpt").exists()
    params, _ = load_checkpoint(tmp_path / "last.ckpt")
    for p in params.values():
        assert np.all(np.isfinite(p.data))


def test_silent_recording_trains_instead_of_diverging(tmp_path):
    rec = synth_mixture(desk_specs(1)[0])
    silent = LabeledRecording(clip=rec.clip, labels=LabelMatrix(-np.ones_like(rec.labels.y_pm)),
                              rec_id="silent")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = train(desk_config(epochs=1, batch_size=1), [silent], out_dir=tmp_path)
    assert not result.diverged
    rows = [r for r in result.history if r["split"] == "train"]
    assert len(rows) == 1
    assert rows[0]["dpcl"] == 0.0 and rows[0]["ortho"] == 0.0
    assert np.isfinite(rows[0]["bce"]) and rows[0]["bce"] > 0
