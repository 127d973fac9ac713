"""Optimizer, schedule, and the training loop over synthetic mixtures.

Determinism contract: (seed, config, dataset) fully determine the metrics
log. All randomness flows from named child seeds of ``TrainConfig.seed``;
the optimizer step is strictly serial.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import tempfile
import time
import warnings
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frontend import (FRAME_S, N_MELS, WINDOW_FRAMES, WINDOW_HOP, ConfigError,
                       InsufficientAudioError, check_number_fields, checked_frame_count,
                       cnn_encode, from_json, log_mel, window_stack)
from .losses import DPCL_MODES, CapacityError, LabelMatrix, LossWeights, total_loss
from .model import ModelConfig, forward, init_model_params, param_specs, zero_grads
from .synth import LabeledRecording, synth_mixture


# The fixed optimizer recipe: AdamW moments, epsilon and weight decay, the global
# gradient norm clip, and the one-cycle shape (warmup share, start and final divisors).
BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
GRAD_CLIP = 5.0
WARMUP_FRAC = 0.3
DIV_FACTOR = 25.0
FINAL_DIV = 1e4


class ScheduleError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Full-scale defaults are batch 64 / 200 epochs / 50 s crops; the desk
    presets used by the test suite shrink all three."""
    batch_size: int = 64
    epochs: int = 200
    max_lr: float = 1e-3
    crop_s: float = 50.0
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    dpcl_mode: str = "attractor"
    model: ModelConfig = field(default_factory=ModelConfig)
    val_every: int = 10

    def __post_init__(self):
        for name, kind in (("weights", LossWeights), ("model", ModelConfig)):
            v = getattr(self, name)
            if not isinstance(v, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {v!r}")
        check_number_fields(self, minimum=dict(batch_size=1, val_every=1, epochs=0, seed=0))
        check_number_fields(self.weights, "weights.", dict.fromkeys(asdict(self.weights), 0))
        if self.dpcl_mode not in DPCL_MODES:
            raise ConfigError(f"dpcl_mode must be one of {DPCL_MODES}, got {self.dpcl_mode!r}")
        if self.max_lr <= 0:
            raise ConfigError(f"max_lr must be positive, got {self.max_lr}")
        if not 0.5 < self.crop_s / FRAME_S < math.inf:     # rounds to 1 or more frames
            raise ConfigError(f"crop_s must cover at least one {FRAME_S} s frame and "
                              f"finitely many, got {self.crop_s}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if isinstance(d, dict):
            d = dict(d)
            if "weights" in d:
                if not (isinstance(d["weights"], list) and len(d["weights"]) == 4):
                    raise ConfigError("weights must be a list of 4 numbers (bce, dpcl, ortho, "
                                      f"suppress), got {d['weights']!r}")
                d["weights"] = LossWeights(*d["weights"])
            if "model" in d:
                d["model"] = ModelConfig.from_dict(d["model"])
        return from_json(cls, d, "train config")


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------

def one_cycle_lr(step: int, total_steps: int, max_lr: float) -> float:
    """Cosine ramp from max_lr/DIV_FACTOR to max_lr over the first
    WARMUP_FRAC of steps, then cosine anneal to max_lr/FINAL_DIV."""
    if not 0 <= step < total_steps:
        raise ScheduleError(f"step {step} outside schedule of {total_steps}")
    warm = int(round(WARMUP_FRAC * total_steps))
    start = max_lr / DIV_FACTOR
    floor = max_lr / FINAL_DIV
    if step <= warm:
        tau = step / max(warm, 1)
        return start + (max_lr - start) * 0.5 * (1.0 - math.cos(math.pi * tau))
    tau = (step - warm) / max(total_steps - 1 - warm, 1)
    return floor + (max_lr - floor) * 0.5 * (1.0 + math.cos(math.pi * tau))


class AdamW:
    """Decoupled weight decay Adam over a named parameter store; each step clips first."""

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.skipped = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> bool:
        """Clip to GRAD_CLIP, then update; returns False (and counts) on a non-finite norm."""
        if not math.isfinite(clip_grad_norm(self.params)):
            k = next(k for k, p in self.params.items()
                     if p.grad is not None and not np.isfinite(p.grad).all())
            self.skipped += 1
            warnings.warn(f"non-finite gradient in {k}; step {self.t + 1} skipped "
                          f"({self.skipped} total)", RuntimeWarning, stacklevel=2)
            return False
        self.t += 1
        b1, b2 = BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            update = (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + ADAM_EPS)
            p.data = p.data - lr * (update + WEIGHT_DECAY * p.data)
        return True


def clip_grad_norm(params: dict) -> float:
    """Scale all gradients to a global L2 norm of at most GRAD_CLIP; the norm, summed
    in float64, is returned and is finite exactly when every gradient is. A
    non-finite norm leaves the gradients as they are: its step is skipped."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if GRAD_CLIP < norm < math.inf:
        scale = GRAD_CLIP / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class SerializationError(ValueError):
    pass


def save_checkpoint(path, params: dict, model_cfg: ModelConfig,
                    meta: dict | None = None) -> None:
    """Write a JSON header line naming each tensor's shape and carrying the
    model config and `meta`, then each tensor in `params` order as
    ``uint32 rank | uint32 dims[rank] | float32 data``, all little-endian."""
    header = {"format": "tensor-bundle-v1",
              "tensors": [{"name": k, "shape": list(p.data.shape)} for k, p in params.items()],
              "extra": {"model": model_cfg.to_dict(), **(meta or {})}}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for p in params.values():
            f.write(struct.pack(f"<{p.data.ndim + 1}I", p.data.ndim, *p.data.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict, ModelConfig]:
    """Parameters and model config of a checkpoint. Its tensors must be
    exactly those `param_specs` lists for its config, in that order. Each
    one's header entry, record rank and dims, and payload size are checked
    against the table before its payload is read, so a header naming a
    larger model is refused with nothing of its size allocated. Bytes after
    the last tensor are refused too."""
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, too deep, too many digits
            raise SerializationError(f"{path}: bad checkpoint header: {e}") from e
        if not isinstance(header, dict) or header.get("format") != "tensor-bundle-v1":
            raise SerializationError(f"{path} is not a checkpoint")
        entries, extra = header.get("tensors"), header.get("extra")
        if not isinstance(entries, list):
            raise SerializationError(f"{path}: header has no tensor list")
        if not (isinstance(extra, dict) and isinstance(extra.get("model"), dict)):
            raise SerializationError(f"{path}: checkpoint carries no model config")
        try:
            cfg = ModelConfig.from_dict(extra["model"])
        except (TypeError, ValueError) as e:
            raise SerializationError(f"{path}: bad model config: {e}") from e
        size = os.fstat(f.fileno()).st_size
        params = {}
        for i, (k, shape, _) in enumerate(param_specs(cfg)):
            found = entries[i] if i < len(entries) else "nothing"
            if found != {"name": k, "shape": list(shape)}:
                raise SerializationError(f"{path}: header entry {i} should be {k} of shape "
                                         f"{list(shape)}, found {found!r:.80}")
            dims = f.read(4 * len(shape) + 4)
            if len(dims) != 4 * len(shape) + 4 or struct.unpack(
                    f"<{len(shape) + 1}I", dims) != (len(shape), *shape):
                raise SerializationError(f"{path}: record of {k} does not start with its "
                                         f"rank and dims {shape}")
            nbytes = 4 * math.prod(shape)
            if nbytes > size - f.tell():
                raise SerializationError(f"{path}: truncated payload of {k}: {nbytes} bytes "
                                         f"for shape {shape}, {size - f.tell()} left")
            data = np.frombuffer(f.read(nbytes), dtype="<f4").reshape(shape).astype(np.float32)
            try:
                params[k] = Tensor(data, requires_grad=True)
            except ad.NumericError as e:
                raise SerializationError(f"{path}: non-finite value in tensor {k}") from e
        if len(entries) > len(params):
            raise SerializationError(f"{path}: {len(entries) - len(params)} tensors its "
                                     f"config does not name, first {entries[len(params)]!r:.80}")
        if f.tell() != size:
            raise SerializationError(f"{path}: {size - f.tell()} bytes after the last tensor")
    return params, cfg


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    """What `train` returns: the final parameters, the logged rows, and the
    lowest validation total (nan without validation data, inf when the run
    diverged before its first validation)."""
    params: dict
    history: list
    diverged: bool
    best_val: float
    wall_s: float


def _prepare(item, n_slots: int, nf_crop: int) -> tuple[np.ndarray, LabelMatrix, int]:
    """Mel rows, slot-padded labels and crop length in frames of a MixtureSpec
    (synthesized here) or a LabeledRecording (used as-is), whose labels span 1
    to as many frames as its audio gives. Data errors name the recording."""
    rec = item if isinstance(item, LabeledRecording) else synth_mixture(item)
    n_audio = checked_frame_count(len(rec.clip.samples), f"recording {rec.rec_id}")
    if rec.labels.n_slots > n_slots:
        raise CapacityError(f"recording {rec.rec_id}: {rec.labels.n_slots} speakers "
                            f"exceed {n_slots} attractor slots")
    if not 1 <= rec.labels.n_frames <= n_audio:
        raise InsufficientAudioError(f"recording {rec.rec_id}: {rec.labels.n_frames} label "
                                     f"frames, outside the 1 to {n_audio} its audio gives")
    return log_mel(rec.clip), rec.labels.pad_to(n_slots), min(nf_crop, rec.labels.n_frames)


def _crop_windows(mel: np.ndarray, labels: LabelMatrix, f0: int,
                  nf: int) -> tuple[np.ndarray, LabelMatrix]:
    """Windows and labels of output frames [f0, f0 + nf) of a recording, from
    the mel rows those frames read; equal to ``window_stack(mel)[f0:f0 + nf]``."""
    rows = mel[WINDOW_HOP * f0: WINDOW_HOP * (f0 + nf - 1) + WINDOW_FRAMES]
    return window_stack(rows), LabelMatrix(labels.y_pm[f0:f0 + nf])


def _mean_losses(crops: list, params: dict, cfg: TrainConfig) -> dict:
    """Mean of each loss component over crops given as (mel, labels, f0, nf).

    Each crop's windows are built just before its forward. With gradients
    on, each crop backpropagates its share of the mean, which frees its
    graph before the next crop's is built. A value that goes non-finite
    raises NumericError where the first NaN/Inf is made.
    """
    means = dict.fromkeys(LOSS_FIELDS, 0.0)
    for crop in crops:
        windows, labels = _crop_windows(*crop)
        x0 = cnn_encode(windows, params, cfg.model.embed_dim)
        res = forward(x0, params, cfg.model)
        bundle = total_loss(res, labels, weights=cfg.weights, mode=cfg.dpcl_mode)
        if bundle.total_tensor.requires_grad:
            bundle.total_tensor.backward(1.0 / len(crops))
        for k in means:
            means[k] += getattr(bundle, k) / len(crops)
    return means


def train(cfg: TrainConfig, train_specs: Iterable, val_specs: Iterable | None = None,
          out_dir=None) -> TrainResult:
    """Run the epoch loop, writing metrics.csv and last.ckpt under out_dir
    when given, and best.ckpt whenever a validation total improves.

    Datasets are iterables of MixtureSpec (synthesized here) or
    LabeledRecording (used as-is), each read once: its mel rows go to a
    read-only mapping of an unlinked file in out_dir (the default temp dir
    without one) and only its labels stay on the heap, so a generator lets
    each recording's audio go as soon as its features are made. Validation
    scores output frames [0, nf) of each recording. Aborts (diverged=True)
    as soon as a training or a validation loss goes non-finite, keeping the
    parameters of the last step.
    """
    t_start = time.perf_counter()
    crop_rng = np.random.default_rng([cfg.seed, 1])
    order_rng = np.random.default_rng([cfg.seed, 2])

    nf_crop = int(round(cfg.crop_s / FRAME_S))
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    # mel rows go to an unlinked file as each recording is read, so the heap
    # holds only labels. out_dir rather than a tmpfs temp dir keeps the pages
    # file-backed, which the OS can drop; the mapping keeps its own descriptor
    with tempfile.TemporaryFile(dir=out) as f:
        def stash(item):
            mel, labels, nf = _prepare(item, cfg.model.n_attractors, nf_crop)
            start = f.tell() // mel.strides[0]
            f.write(mel)
            return slice(start, start + len(mel)), labels, nf

        train_data = [stash(s) for s in train_specs]
        n = len(train_data)
        if n == 0:
            raise ValueError("no training recordings")
        val_data = [stash(s) for s in val_specs or []]
        store = np.memmap(f, np.float32, "r").reshape(-1, N_MELS)
    train_data = [(store[rows], labels, nf) for rows, labels, nf in train_data]
    val_data = [(store[rows], labels, nf) for rows, labels, nf in val_data]

    params = init_model_params(cfg.model, np.random.default_rng([cfg.seed, 0]))
    opt = AdamW(params)
    total_steps = max(cfg.epochs * math.ceil(n / cfg.batch_size), 1)
    if out is not None:
        # a best.ckpt left by an earlier run must not pass for this one's
        (out / "best.ckpt").unlink(missing_ok=True)

    history: list[dict] = []
    best_val = math.inf if val_data else math.nan
    diverged = False
    step = 0
    lr = one_cycle_lr(0, total_steps, cfg.max_lr)
    try:
        # epochs=0 takes no step but still validates the initial parameters
        for epoch in range(max(cfg.epochs, 1)):
            order = order_rng.permutation(n) if cfg.epochs else []
            for b0 in range(0, len(order), cfg.batch_size):
                zero_grads(params)
                crops = []
                for mel, labels, nf in (train_data[i] for i in order[b0:b0 + cfg.batch_size]):
                    f0 = int(crop_rng.integers(0, labels.n_frames - nf + 1))
                    crops.append((mel, labels, f0, nf))
                means = _mean_losses(crops, params, cfg)
                lr = one_cycle_lr(step, total_steps, cfg.max_lr)
                opt.step(lr)
                history.append({"step": step, "epoch": epoch, "split": "train", **means,
                                "lr": lr})
                step += 1
            if val_data and ((epoch + 1) % cfg.val_every == 0 or epoch >= cfg.epochs - 1):
                with ad.no_grad():
                    means = _mean_losses([(mel, labels, 0, nf) for mel, labels, nf in val_data],
                                         params, cfg)
                history.append({"step": step, "epoch": epoch, "split": "val", **means,
                                "lr": lr})
                if means["total"] < best_val:
                    best_val = means["total"]
                    if out is not None:
                        save_checkpoint(out / "best.ckpt", params, cfg.model,
                                        meta={"step": step, "val_total": best_val})
    except ad.NumericError:
        # parameters change only in opt.step, which runs after every crop of
        # a batch gave a finite loss, so they are those of the last full step
        diverged = True
        warnings.warn(f"training diverged at step {step}; keeping the last "
                      "finite parameters", RuntimeWarning, stacklevel=2)

    wall = time.perf_counter() - t_start
    if out is not None:
        write_metrics(out / "metrics.csv", history)
        save_checkpoint(out / "last.ckpt", params, cfg.model,
                        meta={"step": step, "diverged": diverged})

    return TrainResult(params=params, history=history, diverged=diverged,
                       best_val=best_val, wall_s=wall)


LOSS_FIELDS = ("bce", "dpcl", "ortho", "suppress", "total")   # LossBundle attributes
METRIC_FIELDS = ("step", "epoch", "split", *LOSS_FIELDS, "lr")


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
