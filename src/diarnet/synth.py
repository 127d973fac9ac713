"""Synthetic multi-speaker mixtures with exact frame-level labels.

Each speaker is a harmonic source with its own fundamental band and spectral
tilt, amplitude-modulated at a syllabic rate. Utterances are placed on the
100 ms label grid, so ground truth is exact by construction; a feedback rule
steers the overlapped fraction of speech toward the requested ratio.
Gaussian noise at a chosen SNR stands in for recorded background audio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import FRAME_S, SAMPLE_RATE, AudioClip, FeatureConfig, frame_count
from .losses import LabelMatrix
from .scoring import mask_runs

SAMPLES_PER_FRAME = 800            # 100 ms at 8 kHz

# fundamental-frequency bands per speaker index; far apart on the mel axis
_F0_BANDS = ((100.0, 135.0), (215.0, 265.0), (150.0, 185.0), (320.0, 380.0))
_MAX_SPEAKERS = 4
_PLACEMENT_RETRIES = 5


class GenerationError(RuntimeError):
    """Mixture constraints cannot be satisfied."""


@dataclass
class MixtureSpec:
    n_speakers: int = 2
    duration_s: float = 60.0
    overlap_ratio: float = 0.2
    noise_snr_db: float = 15.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_speakers <= _MAX_SPEAKERS:
            raise ValueError(f"n_speakers must be in 1..{_MAX_SPEAKERS}")
        if not 0.0 <= self.overlap_ratio <= 1.0:
            raise ValueError("overlap_ratio must be in [0, 1]")
        if self.duration_s <= 2.0:
            raise ValueError("duration_s too short to place utterances")


@dataclass
class LabeledRecording:
    clip: AudioClip
    labels: LabelMatrix        # (T, n_speakers) on the 100 ms grid
    rec_id: str

    @property
    def n_frames(self) -> int:
        return self.labels.n_frames


def samples_for_frames(n_frames: int, cfg: FeatureConfig | None = None) -> int:
    """Audio samples the front-end consumes to emit exactly n_frames."""
    cfg = cfg or FeatureConfig()
    n_mel = cfg.window_hop * (n_frames - 1) + cfg.window_frames
    return cfg.hop_samples * (n_mel - 1) + cfg.win_samples


def overlap_fraction(activity: np.ndarray) -> float:
    """Overlapped speech frames / speech frames (0 when silent)."""
    speech = activity.any(axis=1).sum()
    if speech == 0:
        return 0.0
    return float((activity.sum(axis=1) >= 2).sum() / speech)


# ---------------------------------------------------------------------------
# utterance placement
# ---------------------------------------------------------------------------

def _place_utterances(rng: np.random.Generator, n_frames: int, n_speakers: int,
                      target_overlap: float) -> np.ndarray:
    activity = np.zeros((n_frames, n_speakers), dtype=bool)
    spk = int(rng.integers(0, n_speakers))
    prev_end = 0
    first = True
    while prev_end < n_frames - 2:
        length = int(rng.integers(12, 36))       # 1.2 .. 3.5 s
        if first:
            start = int(rng.integers(0, 6))
            first = False
        else:
            speech = activity.any(axis=1).sum()
            overl = (activity.sum(axis=1) >= 2).sum()
            if n_speakers >= 2 and speech > 0 and overl < target_overlap * speech:
                start = max(0, prev_end - int(rng.integers(3, 14)))
            else:
                start = prev_end + int(rng.integers(2, 9))
        end = min(start + length, n_frames)
        if end - start >= 4:
            activity[start:end, spk] = True
        prev_end = max(prev_end, end)
        if n_speakers > 1:
            spk = (spk + 1 + int(rng.integers(0, n_speakers - 1))) % n_speakers
    return activity


# ---------------------------------------------------------------------------
# waveform synthesis
# ---------------------------------------------------------------------------

def _render_speaker(rng: np.random.Generator, sig: np.ndarray, mask: np.ndarray,
                    spk: int) -> None:
    lo, hi = _F0_BANDS[spk]
    f0 = float(rng.uniform(lo, hi))
    tilt = 1.0 + 0.25 * spk
    n_harm = max(1, int(3600.0 // f0))
    amps = np.arange(1, n_harm + 1, dtype=np.float64) ** (-tilt)
    amps /= np.linalg.norm(amps)
    for f_start, f_end in mask_runs(mask):
        s0, s1 = f_start * SAMPLES_PER_FRAME, f_end * SAMPLES_PER_FRAME
        s1 = min(s1, len(sig))
        n = s1 - s0
        if n <= 0:
            continue
        t = np.arange(s0, s1) / SAMPLE_RATE
        wave = np.zeros(n)
        for k in range(1, n_harm + 1):
            wave += amps[k - 1] * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        f_mod = rng.uniform(2.5, 4.5)
        wave *= 0.55 + 0.45 * np.sin(2 * np.pi * f_mod * t + rng.uniform(0, 2 * np.pi))
        ramp = min(200, n // 4)          # 25 ms fade at the run edges
        if ramp > 0:
            env = np.ones(n)
            env[:ramp] = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
            env[-ramp:] = env[:ramp][::-1]
            wave *= env
        sig[s0:s1] += 0.35 * wave


def synth_mixture(spec: MixtureSpec) -> LabeledRecording:
    """Generate one labeled mixture; deterministic in the mixture seed."""
    if spec.n_speakers == 1 and spec.overlap_ratio > 0.0:
        raise GenerationError("cannot overlap a single speaker")
    n_samples = int(round(spec.duration_s * SAMPLE_RATE))
    n_frames = frame_count(n_samples)
    if n_frames < 20:
        raise GenerationError(f"duration {spec.duration_s}s yields only {n_frames} frames")

    activity = None
    for attempt in range(_PLACEMENT_RETRIES):
        rng = np.random.default_rng([spec.seed, attempt])
        cand = _place_utterances(rng, n_frames, spec.n_speakers, spec.overlap_ratio)
        if cand.any(axis=0).sum() < spec.n_speakers:
            continue
        if spec.n_speakers == 1 or abs(overlap_fraction(cand) - spec.overlap_ratio) <= 0.1:
            activity = cand
            break
    if activity is None:
        raise GenerationError(
            f"could not hit overlap {spec.overlap_ratio} with {spec.n_speakers} "
            f"speakers in {spec.duration_s}s after {_PLACEMENT_RETRIES} attempts")

    sig = np.zeros(n_samples, dtype=np.float64)
    for spk in range(spec.n_speakers):
        _render_speaker(rng, sig, activity[:, spk], spk)

    speech_samples = np.zeros(n_samples, dtype=bool)
    upsampled = np.repeat(activity.any(axis=1), SAMPLES_PER_FRAME)
    speech_samples[:min(len(upsampled), n_samples)] = upsampled[:n_samples]
    p_sig = float((sig[speech_samples] ** 2).mean()) if speech_samples.any() else 1e-6
    sigma = np.sqrt(p_sig * 10.0 ** (-spec.noise_snr_db / 10.0))
    sig += rng.normal(0.0, sigma, size=n_samples)

    peak = float(np.abs(sig).max())
    if peak > 0.95:
        sig *= 0.95 / peak

    return LabeledRecording(clip=AudioClip(sig.astype(np.float32)),
                            labels=LabelMatrix.from_activity(activity),
                            rec_id=f"mix{spec.seed:06d}")


# ---------------------------------------------------------------------------
# cropping
# ---------------------------------------------------------------------------

def crop_sample(rec: LabeledRecording, crop_s: float,
                rng: np.random.Generator) -> LabeledRecording:
    """Contiguous crop on the label grid; labels and audio stay aligned.

    A crop of N label frames keeps exactly the samples the front-end needs
    to reproduce those N frames. Recordings shorter than the crop are
    returned whole.
    """
    nf = int(round(crop_s / FRAME_S))
    t_rec = rec.labels.n_frames
    if nf >= t_rec:
        return rec
    f0 = int(rng.integers(0, t_rec - nf + 1))
    s0 = f0 * SAMPLES_PER_FRAME
    samples = rec.clip.samples[s0:s0 + samples_for_frames(nf)]
    labels = LabelMatrix(rec.labels.y_pm[f0:f0 + nf].copy())
    return LabeledRecording(clip=AudioClip(samples), labels=labels,
                            rec_id=f"{rec.rec_id}+{f0}")


def labels_from_segments(segments, n_frames: int,
                         frame_s: float = FRAME_S) -> tuple[LabelMatrix, list[str]]:
    """Rasterize (start_s, end_s, speaker) triples onto the label grid.

    A frame is active when a segment covers its midpoint, which is exact for
    segments aligned to the grid. Returns the matrix plus the sorted speaker
    names backing its columns.
    """
    speakers = sorted({seg[2] for seg in segments})
    index = {name: i for i, name in enumerate(speakers)}
    act = np.zeros((n_frames, max(len(speakers), 1)), dtype=bool)
    mids = (np.arange(n_frames) + 0.5) * frame_s
    for start, end, name in segments:
        act[(mids >= start) & (mids < end), index[name]] = True
    return LabelMatrix.from_activity(act), speakers
