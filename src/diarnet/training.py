"""Optimizer, schedule, and the training loop over synthetic mixtures.

Determinism contract: (seed, config, dataset) fully determine the metrics
log. All randomness flows from named child seeds of ``TrainConfig.seed``;
the optimizer step is strictly serial.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frontend import FRAME_S, FeatureConfig, MelFrames, cnn_encode, log_mel, window_stack
from .losses import LabelMatrix, LossBundle, LossWeights, total_loss
from .model import ModelConfig, forward, init_model_params, zero_grads
from .serialize import load_bundle, save_bundle
from .synth import LabeledRecording, synth_mixture


class ScheduleError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Full-scale defaults are batch 64 / 2000 epochs / 50 s crops; the desk
    presets used by the test suite shrink all three."""
    batch_size: int = 64
    epochs: int = 200
    max_lr: float = 1e-3
    crop_s: float = 50.0
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    dpcl_mode: str = "attractor"
    model: ModelConfig = field(default_factory=ModelConfig)
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    grad_clip: float = 5.0
    val_every: int = 10
    warmup_frac: float = 0.3
    div_factor: float = 25.0
    final_div: float = 1e4

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "batch_size", "epochs", "max_lr", "crop_s", "seed", "dpcl_mode",
            "weight_decay", "betas", "eps", "grad_clip", "val_every",
            "warmup_frac", "div_factor", "final_div")}
        d["betas"] = list(self.betas)
        d["weights"] = list(self.weights.as_tuple())
        d["model"] = self.model.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "weights" in d:
            d["weights"] = LossWeights(*d["weights"])
        if "model" in d:
            d["model"] = ModelConfig.from_dict(d["model"])
        if "betas" in d:
            d["betas"] = tuple(d["betas"])
        return cls(**d)


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------

def one_cycle_lr(step: int, total_steps: int, max_lr: float,
                 warmup_frac: float = 0.3, div_factor: float = 25.0,
                 final_div: float = 1e4) -> float:
    """Cosine ramp from max_lr/div_factor to max_lr over the first
    warmup_frac of steps, then cosine anneal to max_lr/final_div."""
    if not 0 <= step < total_steps:
        raise ScheduleError(f"step {step} outside schedule of {total_steps}")
    warm = int(round(warmup_frac * total_steps))
    start = max_lr / div_factor
    floor = max_lr / final_div
    if step <= warm:
        tau = step / max(warm, 1)
        return start + (max_lr - start) * 0.5 * (1.0 - math.cos(math.pi * tau))
    tau = (step - warm) / max(total_steps - 1 - warm, 1)
    return floor + (max_lr - floor) * 0.5 * (1.0 + math.cos(math.pi * tau))


class AdamW:
    """Decoupled weight decay Adam over a named parameter store."""

    def __init__(self, params: dict, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.skipped = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> bool:
        """Apply one update; returns False (and counts) on non-finite grads."""
        grads = {}
        for k, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                self.skipped += 1
                warnings.warn(f"non-finite gradient in {k}; step {self.t + 1} skipped "
                              f"({self.skipped} total)", RuntimeWarning, stacklevel=2)
                return False
            grads[k] = g
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            update = (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)
            p.data = p.data - lr * (update + self.weight_decay * p.data)
        return True


def clip_grad_norm(params: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: dict, model_cfg: ModelConfig,
                    meta: dict | None = None) -> None:
    extra = {"model": model_cfg.to_dict()}
    if meta:
        extra.update(meta)
    save_bundle(path, {k: p.data for k, p in params.items()}, extra=extra)


def load_checkpoint(path) -> tuple[dict, ModelConfig]:
    named, extra = load_bundle(path)
    if "model" not in extra:
        raise ValueError(f"{path}: checkpoint carries no model config")
    cfg = ModelConfig.from_dict(extra["model"])
    reference = init_model_params(cfg, np.random.default_rng(0))
    if set(reference) != set(named):
        missing = sorted(set(reference) ^ set(named))
        raise ValueError(f"{path}: parameter names do not match config: {missing[:4]}")
    params = {}
    for k, ref in reference.items():
        if named[k].shape != ref.shape:
            raise ValueError(f"{path}: {k} has shape {named[k].shape}, expected {ref.shape}")
        params[k] = Tensor(named[k], requires_grad=True)
    return params, cfg


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict
    best_params: dict            # plain arrays, lowest validation loss
    history: list
    diverged: bool
    best_val: float
    wall_s: float


def _prepare(rec: LabeledRecording, n_slots: int,
             feat: FeatureConfig) -> tuple[np.ndarray, LabelMatrix]:
    mel = log_mel(rec.clip, feat)
    labels = rec.labels.pad_to(n_slots)
    return mel.frames, labels


def _crop_windows(mel: np.ndarray, labels: LabelMatrix, f0: int, nf: int,
                  feat: FeatureConfig) -> tuple[np.ndarray, LabelMatrix]:
    rows = mel[feat.window_hop * f0: feat.window_hop * (f0 + nf - 1) + feat.window_frames]
    wt = window_stack(MelFrames(frames=rows), feat)
    return wt.windows, LabelMatrix(labels.y_pm[f0:f0 + nf].copy())


def _sample_loss(windows: np.ndarray, labels: LabelMatrix, params: dict,
                 cfg: TrainConfig) -> LossBundle:
    x0 = cnn_encode(windows, params, cfg.model.embed_dim)
    res = forward(x0, params, cfg.model)
    return total_loss(res, labels, weights=cfg.weights, mode=cfg.dpcl_mode)


def _as_recording(item) -> LabeledRecording:
    return item if isinstance(item, LabeledRecording) else synth_mixture(item)


def train(cfg: TrainConfig, train_specs: list, val_specs: list | None = None,
          out_dir=None) -> TrainResult:
    """Run the epoch loop and keep the best checkpoint.

    Datasets are lists of MixtureSpec (synthesized here) or LabeledRecording
    (used as-is). Writes metrics.csv plus last.ckpt / best.ckpt under out_dir
    when given. Aborts (diverged=True) if the loss goes non-finite, keeping
    the last finite parameters.
    """
    t_start = time.perf_counter()
    feat = FeatureConfig()
    init_rng = np.random.default_rng([cfg.seed, 0])
    crop_rng = np.random.default_rng([cfg.seed, 1])
    order_rng = np.random.default_rng([cfg.seed, 2])

    train_recs = [_as_recording(s) for s in train_specs]
    val_recs = [_as_recording(s) for s in val_specs or []]
    s_slots = cfg.model.n_attractors
    train_data = [_prepare(r, s_slots, feat) for r in train_recs]
    val_data = [_prepare(r, s_slots, feat) for r in val_recs]

    params = init_model_params(cfg.model, init_rng)
    opt = AdamW(params, betas=cfg.betas, eps=cfg.eps, weight_decay=cfg.weight_decay)

    n = len(train_data)
    if n == 0:
        raise ValueError("no training recordings")
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    nf_crop = int(round(cfg.crop_s / FRAME_S))

    history: list[dict] = []
    best_val = math.inf
    best_params = {k: p.data.copy() for k, p in params.items()}
    last_good = {k: p.data.copy() for k, p in params.items()}
    diverged = False
    step = 0

    def log_row(split: str, epoch: int, comps: dict, lr: float) -> None:
        row = {"step": step, "epoch": epoch, "split": split, **comps, "lr": lr}
        history.append(row)

    def run_validation(epoch: int, lr: float) -> float:
        nonlocal best_val, best_params
        if not val_data:
            return math.nan
        agg = {k: 0.0 for k in ("bce", "dpcl", "ortho", "suppress", "total")}
        with ad.no_grad():
            for mel, labels in val_data:
                nf = min(nf_crop, labels.n_frames)
                windows, lab = _crop_windows(mel, labels, 0, nf, feat)
                bundle = _sample_loss(windows, lab, params, cfg)
                for k in agg:
                    agg[k] += getattr(bundle, k) / len(val_data)
        log_row("val", epoch, agg, lr)
        if agg["total"] < best_val:
            best_val = agg["total"]
            best_params = {k: p.data.copy() for k, p in params.items()}
        return agg["total"]

    lr = one_cycle_lr(0, total_steps, cfg.max_lr, cfg.warmup_frac,
                      cfg.div_factor, cfg.final_div)
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(n)
        for b0 in range(0, n, cfg.batch_size):
            batch = order[b0:b0 + cfg.batch_size]
            zero_grads(params)
            agg = {k: 0.0 for k in ("bce", "dpcl", "ortho", "suppress", "total")}
            bad = False
            for idx in batch:
                mel, labels = train_data[idx]
                nf = min(nf_crop, labels.n_frames)
                f0 = int(crop_rng.integers(0, labels.n_frames - nf + 1))
                windows, lab = _crop_windows(mel, labels, f0, nf, feat)
                try:
                    # exploding parameters surface either as a non-finite loss
                    # or as a NumericError raised inside the forward pass
                    bundle = _sample_loss(windows, lab, params, cfg)
                except ValueError:
                    bad = True
                    break
                if not math.isfinite(bundle.total):
                    bad = True
                    break
                (bundle.total_tensor * (1.0 / len(batch))).backward()
                for k in agg:
                    agg[k] += getattr(bundle, k) / len(batch)
            if bad:
                diverged = True
                break
            clip_grad_norm(params, cfg.grad_clip)
            lr = one_cycle_lr(step, total_steps, cfg.max_lr, cfg.warmup_frac,
                              cfg.div_factor, cfg.final_div)
            opt.step(lr)
            log_row("train", epoch, agg, lr)
            step += 1
            last_good = {k: p.data.copy() for k, p in params.items()}
        if diverged:
            break
        if val_data and ((epoch + 1) % cfg.val_every == 0 or epoch == cfg.epochs - 1):
            run_validation(epoch, lr)

    if diverged:
        warnings.warn(f"training diverged at step {step}; restoring the last "
                      "finite parameters", RuntimeWarning, stacklevel=2)
        for k, p in params.items():
            p.data = last_good[k].copy()

    if cfg.epochs == 0 and val_data:
        run_validation(0, lr)
    if not val_data:
        best_params = {k: p.data.copy() for k, p in params.items()}
        best_val = math.nan

    wall = time.perf_counter() - t_start
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics(out / "metrics.csv", history)
        save_checkpoint(out / "last.ckpt", params, cfg.model,
                        meta={"step": step, "diverged": diverged})
        best_tensors = {k: Tensor(v, requires_grad=True) for k, v in best_params.items()}
        save_checkpoint(out / "best.ckpt", best_tensors, cfg.model,
                        meta={"step": step, "val_total": best_val})

    return TrainResult(params=params, best_params=best_params, history=history,
                       diverged=diverged, best_val=best_val, wall_s=wall)


METRIC_FIELDS = ("step", "epoch", "split", "bce", "dpcl", "ortho", "suppress",
                 "total", "lr")


def write_metrics(path, history: list) -> None:
    """Plain-text CSV: one row per step with per-component losses and lr."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRIC_FIELDS)
        for row in history:
            writer.writerow([_fmt(row[k]) for k in METRIC_FIELDS])


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)
