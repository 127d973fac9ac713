"""The benchmark's workloads: inputs made from a seed, one CLI call per
operation, and the checks that decide whether an operation's output is right.

Every workload drives `diarnet.cli.main` in this process, exactly as
`diarnet train|infer|score` would run from a shell.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diarnet import cli
from diarnet.autodiff import Tensor
from diarnet.frontend import frame_count, load_wav
from diarnet.model import ModelConfig, init_model_params, predict_probs
from diarnet.rttm import read_rttm, write_rttm
from diarnet.scoring import DiarizationHypothesis, posterior_to_segments
from diarnet.training import load_checkpoint, save_checkpoint

from der_oracle import frame_der

# Largest |float32 - float64| posterior gap accepted for the same checkpoint and
# audio. About 1e-5 is seen at 600 s; a wrong kernel is off by far more.
POSTERIOR_TOL = 1e-4
# Criterion 7's tolerance between the timeline scorer and the frame oracle.
DER_TOL_PP = 0.05


class SetupError(RuntimeError):
    pass


@dataclass
class OpResult:
    code: int
    wall_s: float
    stdout: str
    stderr: str
    warnings: list
    out: Path
    problems: list = field(default_factory=list)


def call_cli(argv: list[str], out: Path) -> OpResult:
    """One operation: `diarnet <argv>` in-process, timed, output captured."""
    out.mkdir(parents=True, exist_ok=True)
    so, se = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(so), redirect_stderr(se):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    res = OpResult(code, wall, so.getvalue(), se.getvalue(),
                   [str(w.message) for w in caught], out)
    if code != 0:
        res.problems.append(f"exit {code}: {res.stderr.strip()[-200:]}")
    return res


def _synth_data(root: Path, mixtures: list[dict]) -> Path:
    spec = root / "spec.json"
    spec.write_text(json.dumps({"mixtures": mixtures}))
    data = root / "data"
    with redirect_stdout(io.StringIO()):
        code = cli.main(["synth-data", "--spec", str(spec), "--out", str(data)])
    if code != 0:
        raise SetupError(f"synth-data exited {code}")
    return data


def _mixture(n_speakers: int, duration_s: float, seed: int) -> dict:
    return {"n_speakers": n_speakers, "duration_s": duration_s,
            "overlap_ratio": 0.2, "noise_snr_db": 15.0, "seed": seed}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    """`diarnet train` on a synthesized set; work is counted in training crops."""

    def __init__(self, n_speakers, duration_s, n_train, n_val, epochs, config):
        self.n_speakers, self.duration_s = n_speakers, duration_s
        self.n_train, self.n_val, self.epochs = n_train, n_val, epochs
        self.config = config
        self.steps_per_epoch = math.ceil(n_train / config["batch_size"])
        self.work_per_op = float(epochs * n_train)     # one crop per recording per epoch
        self.metrics_csv = None
        self.loss_end = math.nan

    def setup(self, root: Path, seed: int) -> None:
        mixtures = [_mixture(self.n_speakers, self.duration_s, seed * 1000 + i)
                    for i in range(self.n_train)]
        mixtures += [_mixture(self.n_speakers, self.duration_s, seed * 1000 + 500 + i)
                     for i in range(self.n_val)]
        self.data = _synth_data(root, mixtures)
        self.config_path = root / "train.json"
        self.config_path.write_text(json.dumps(
            dict(self.config, seed=seed, epochs=self.epochs, val_count=self.n_val)))

    def argv(self, out: Path) -> list[str]:
        return ["train", "--config", str(self.config_path), "--data", str(self.data),
                "--out", str(out)]

    def check(self, res: OpResult) -> None:
        p = res.problems
        if res.code != 0:
            return
        if not res.stdout.startswith("train done"):
            p.append(f"training did not finish: {res.stdout.strip()[:200]}")
        skipped = [w for w in res.warnings if "non-finite gradient" in w]
        if skipped:
            p.append(f"{len(skipped)} optimizer steps skipped")
        if any("diverged" in w for w in res.warnings):
            p.append("training diverged")
        raw = (res.out / "metrics.csv").read_bytes()
        rows = [r for r in csv.DictReader(io.StringIO(raw.decode())) if r["split"] == "train"]
        if len(rows) != self.epochs * self.steps_per_epoch:
            p.append(f"{len(rows)} train rows logged, expected "
                     f"{self.epochs * self.steps_per_epoch}")
        for r in rows:
            if not all(math.isfinite(float(r[k]))
                       for k in ("bce", "dpcl", "ortho", "suppress", "total")):
                p.append(f"non-finite loss at step {r['step']}")
                break
        if self.metrics_csv is None:
            self.metrics_csv = raw
            last = rows[-self.steps_per_epoch:]
            self.loss_end = sum(float(r["total"]) for r in last) / max(len(last), 1)
        elif raw != self.metrics_csv:
            p.append("metrics.csv differs from the first run of this invocation")

    def check_once(self, results: list, scratch: Path) -> list:
        return []

    def summary(self, per_s: float) -> list:
        return [("train.samples_per_s", per_s, "crops/s"),
                ("train.loss_end", self.loss_end, "loss")]


DESK_MODEL = {"depth": 2, "embed_dim": 64, "latte_dim": 32, "n_latents": 8,
              "n_attractors": 4, "ff_expansion": 4, "conv_kernel": 9, "heads": 4}

# Criterion 6's configuration: desk model, batch 5, 15 s crops, attractor DPCL.
DESK_CONFIG = {"batch_size": 5, "max_lr": 2e-3, "crop_s": 15.0, "model": DESK_MODEL,
               "val_every": 25, "weights": [1.0, 0.5, 0.1, 0.1],
               "dpcl_mode": "attractor"}

# Reference ModelConfig() geometry, 50 s crops, batch 2, no validation.
REF_CONFIG = {"batch_size": 2, "crop_s": 50.0, "model": ModelConfig().to_dict()}


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

class Infer:
    """`diarnet infer` with a reference-geometry checkpoint on one long WAV;
    work is counted in audio seconds."""

    duration_s = 600.0
    n_speakers = 3

    def __init__(self):
        self.work_per_op = self.duration_s
        self.rttm_text = None

    def setup(self, root: Path, seed: int) -> None:
        data = _synth_data(root, [_mixture(self.n_speakers, self.duration_s, seed)])
        self.wav = next(data.glob("*.wav"))
        cfg = ModelConfig()
        params = init_model_params(cfg, np.random.default_rng([seed, 1]))
        self.ckpt = root / "model.ckpt"
        save_checkpoint(self.ckpt, params, cfg)

    def argv(self, out: Path) -> list[str]:
        return ["infer", "--ckpt", str(self.ckpt), "--wav", str(self.wav),
                "--rttm", str(out / "hyp.rttm")]

    def check(self, res: OpResult) -> None:
        if res.code != 0:
            return
        text = (res.out / "hyp.rttm").read_text()
        if self.rttm_text is None:
            self.rttm_text = text
        elif text != self.rttm_text:
            res.problems.append("RTTM differs from the first run of this invocation")

    def check_once(self, results: list, scratch: Path) -> list:
        """Posteriors against a float64 run of the same checkpoint and audio,
        and the CLI's RTTM against the segmentation of those posteriors."""
        if self.rttm_text is None:
            return []
        problems = []
        params, cfg = load_checkpoint(self.ckpt)
        clip = load_wav(self.wav)
        probs = predict_probs(clip, params, cfg)
        t = frame_count(len(clip.samples))
        if probs.shape != (t, cfg.n_attractors):
            problems.append(f"posteriors {probs.shape}, expected {(t, cfg.n_attractors)}")
        if not np.all(np.isfinite(probs)) or probs.min() < 0 or probs.max() > 1:
            problems.append("posteriors are not finite probabilities")
        p64 = {k: Tensor(v.data.astype(np.float64)) for k, v in params.items()}
        gap = float(np.abs(predict_probs(clip, p64, cfg) - probs).max())
        if not gap <= POSTERIOR_TOL:
            problems.append(f"float32 vs float64 posterior gap {gap:.3g} > {POSTERIOR_TOL}")
        scratch.mkdir(parents=True, exist_ok=True)
        expect = scratch / "expect.rttm"
        write_rttm(expect, posterior_to_segments(probs, file_id=self.wav.stem))
        if expect.read_text() != self.rttm_text:
            problems.append("CLI RTTM does not match the segmented posteriors")
        return problems

    def summary(self, per_s: float) -> list:
        return [("infer.rtf", 1.0 / per_s, "s/s")]


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def dense_timeline(rng, n_speakers: int, per_speaker: int) -> list:
    """Grid-aligned (10 ms) reference, speakers overlapping freely."""
    segs = []
    for spk in range(n_speakers):
        cursor = int(rng.integers(0, 300))
        for _ in range(per_speaker):
            dur = int(rng.integers(80, 600))
            segs.append((cursor / 100, (cursor + dur) / 100, f"spk{spk}"))
            cursor += dur + int(rng.integers(20, 500))
    return segs


def corrupt(rng, segs: list) -> list:
    """Hypothesis from a reference: shifted boundaries, dropped, added and
    relabelled segments, all on the 10 ms grid."""
    speakers = sorted({s for _, _, s in segs})
    out = []
    for start, end, spk in segs:
        if rng.random() < 0.1:
            continue
        s = max(0, round(start * 100) + int(rng.integers(-30, 31)))
        e = round(end * 100) + int(rng.integers(-30, 31))
        if e - s < 20:
            continue
        if rng.random() < 0.1:
            spk = speakers[int(rng.integers(0, len(speakers)))]
        out.append((s / 100, e / 100, spk))
        if rng.random() < 0.1:
            fa = e + int(rng.integers(10, 200))
            out.append((fa / 100, (fa + int(rng.integers(50, 300))) / 100,
                        speakers[int(rng.integers(0, len(speakers)))]))
    return out


def _der(res: OpResult) -> float | None:
    """DER in percent from `diarnet score` output ("DER 12.34 MS ...")."""
    m = re.search(r"\bDER (\S+)", res.stdout)
    return float(m.group(1)) if m else None


class Score:
    """`diarnet score` on one dense RTTM pair; work is counted in segments
    (reference plus hypothesis)."""

    n_speakers = 4
    per_speaker = 500

    def setup(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        ref = dense_timeline(rng, self.n_speakers, self.per_speaker)
        hyp = corrupt(rng, ref)
        self.ref_path, self.hyp_path = root / "ref.rttm", root / "hyp.rttm"
        write_rttm(self.ref_path, DiarizationHypothesis(ref, file_id="dense"))
        write_rttm(self.hyp_path, DiarizationHypothesis(hyp, file_id="dense"))
        self.work_per_op = float(len(ref) + len(hyp))

    def argv(self, out: Path) -> list[str]:
        return ["score", "--ref", str(self.ref_path), "--hyp", str(self.hyp_path)]

    def check(self, res: OpResult) -> None:
        if res.code == 0 and _der(res) is None:
            res.problems.append(f"no DER in output: {res.stdout.strip()[:200]}")

    def check_once(self, results: list, scratch: Path) -> list:
        """Every run's DER against the frame oracle; the reference scored
        against itself must give 0 (one more CLI call, untimed)."""
        ref = read_rttm(self.ref_path)["dense"]
        hyp = read_rttm(self.hyp_path)["dense"]
        self.oracle = frame_der(ref, hyp, collar_s=0.25)["der"]
        for res in results:
            der = _der(res)
            if der is not None and abs(der - self.oracle) > DER_TOL_PP:
                res.problems.append(f"DER {der} vs oracle {self.oracle:.4f}")
        own = call_cli(["score", "--ref", str(self.ref_path), "--hyp", str(self.ref_path)],
                       scratch)
        self.check(own)
        if _der(own) not in (None, 0.0):
            own.problems.append(f"self-score DER {_der(own)}, expected 0")
        results.append(own)
        return []

    def summary(self, per_s: float) -> list:
        return [("score.segments_per_s", per_s, "segments/s")]


WORKLOADS = {
    "train_desk": lambda: Train(2, 60.0, 20, 4, 3, DESK_CONFIG),
    "train_ref": lambda: Train(3, 120.0, 2, 0, 2, REF_CONFIG),
    "infer_long": Infer,
    "score_dense": Score,
}
