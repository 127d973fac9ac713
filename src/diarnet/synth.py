"""Synthetic multi-speaker mixtures with exact frame-level labels.

Each speaker is a harmonic source with its own fundamental band and spectral
tilt, amplitude-modulated at a syllabic rate. Utterances are placed on the
100 ms label grid, so ground truth is exact by construction; a feedback rule
steers the overlapped fraction of speech toward the requested ratio.
Gaussian noise at a chosen SNR stands in for recorded background audio.

A speaker's harmonic sum is rendered as the imaginary part of a polynomial
in the phasor e^{i 2π f0 t}, evaluated by Horner's rule: one complex
multiply-add per harmonic instead of one sine. It equals the sum of sines
to float64 rounding, so a float32 sample of the clip moves by at most one
unit in the last place (6e-8); the PCM16 samples `write_wav` stores were
identical in every mixture compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import (FRAME_S, SAMPLE_RATE, SAMPLES_PER_FRAME, AudioClip, ConfigError,
                       check_number_fields, frame_count)
from .losses import LabelMatrix
from .scoring import cover, run_edges

# fundamental-frequency bands per speaker index; far apart on the mel axis
_F0_BANDS = ((100.0, 135.0), (215.0, 265.0), (150.0, 185.0), (320.0, 380.0))
_MAX_SPEAKERS = 4
_PLACEMENT_RETRIES = 5
_MIN_FRAMES = 20                 # output frames a mixture needs: 2.065 s or more


class GenerationError(RuntimeError):
    """Utterance placement missed its overlap target in all `_PLACEMENT_RETRIES` tries."""


@dataclass
class MixtureSpec:
    n_speakers: int = 2
    duration_s: float = 60.0
    overlap_ratio: float = 0.2
    noise_snr_db: float = 15.0
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self, minimum=dict(n_speakers=1, overlap_ratio=0, seed=0))
        if self.n_speakers > _MAX_SPEAKERS:
            raise ConfigError(f"n_speakers must be in 1..{_MAX_SPEAKERS}, got {self.n_speakers}")
        if self.overlap_ratio > 1:
            raise ConfigError(f"overlap_ratio must be in [0, 1], got {self.overlap_ratio}")
        if self.n_speakers == 1 and self.overlap_ratio > 0:
            raise ConfigError(f"overlap_ratio must be 0 for one speaker, got {self.overlap_ratio}")
        n_samples = self.duration_s * SAMPLE_RATE
        if not np.isfinite(n_samples):
            raise ConfigError(f"duration_s must hold finitely many samples, got {self.duration_s}")
        n_frames = frame_count(round(n_samples))
        if n_frames < _MIN_FRAMES:
            raise ConfigError(f"duration_s {self.duration_s} yields only {n_frames} frames, "
                              f"and synthesis needs {_MIN_FRAMES}")


@dataclass
class LabeledRecording:
    clip: AudioClip
    labels: LabelMatrix        # (T, n_speakers) on the 100 ms grid
    rec_id: str


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
    # running per-frame speaker counts and the speech / overlap frame totals,
    # so each utterance costs its own length instead of a rescan
    talkers = np.zeros(n_frames, dtype=np.int8)
    speech = overl = 0
    spk = int(rng.integers(0, n_speakers))
    prev_end = 0
    first = True
    while prev_end < n_frames - 2:
        length = int(rng.integers(12, 36))       # 1.2 .. 3.5 s
        if first:
            start = int(rng.integers(0, 6))
            first = False
        elif n_speakers >= 2 and speech > 0 and overl < target_overlap * speech:
            start = max(0, prev_end - int(rng.integers(3, 14)))
        else:
            start = prev_end + int(rng.integers(2, 9))
        end = min(start + length, n_frames)
        if end - start >= 4:
            new = ~activity[start:end, spk]      # frames this speaker holds count once
            before = talkers[start:end][new]
            speech += int((before == 0).sum())
            overl += int((before == 1).sum())
            talkers[start:end] += new
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
    _, starts, ends = run_edges(mask[None])
    # frame_count leaves 800·T <= len(sig) - 520, so no run reaches past the signal
    for f_start, f_end in zip(starts.tolist(), ends.tolist()):
        s0, s1 = f_start * SAMPLES_PER_FRAME, f_end * SAMPLES_PER_FRAME
        n = s1 - s0
        t = np.arange(s0, s1) / SAMPLE_RATE
        # sum_k a_k sin(k w t + p_k) = Im sum_k c_k z^k, c_k = a_k e^{i p_k}, z = e^{i w t}
        coef = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n_harm))
        z = np.exp(1j * (2 * np.pi * f0) * t)
        acc = np.full(n, coef[-1])
        for c in coef[-2::-1]:
            acc *= z
            acc += c
        acc *= z
        wave = acc.imag
        f_mod = rng.uniform(2.5, 4.5)
        wave *= 0.55 + 0.45 * np.sin(2 * np.pi * f_mod * t + rng.uniform(0, 2 * np.pi))
        ramp = 200                       # 25 ms fade at the run edges; a run is >= 800 samples
        env = np.ones(n)
        env[:ramp] = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[-ramp:] = env[:ramp][::-1]
        wave *= env
        sig[s0:s1] += 0.35 * wave


def synth_mixture(spec: MixtureSpec) -> LabeledRecording:
    """Generate one labeled mixture; deterministic in the mixture seed."""
    n_samples = round(spec.duration_s * SAMPLE_RATE)
    n_frames = frame_count(n_samples)
    activity = None
    for attempt in range(_PLACEMENT_RETRIES):
        rng = np.random.default_rng([spec.seed, attempt])
        cand = _place_utterances(rng, n_frames, spec.n_speakers, spec.overlap_ratio)
        if cand.any(axis=0).all() and abs(overlap_fraction(cand) - spec.overlap_ratio) <= 0.1:
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
    speech_samples[:len(upsampled)] = upsampled
    p_sig = float((sig[speech_samples] ** 2).mean())   # every speaker has a frame
    sigma = np.sqrt(p_sig * 10.0 ** (-spec.noise_snr_db / 10.0))
    sig += rng.normal(0.0, sigma, size=n_samples)

    peak = float(np.abs(sig).max())
    if peak > 0.95:
        sig *= 0.95 / peak

    return LabeledRecording(clip=AudioClip(sig.astype(np.float32)),
                            labels=LabelMatrix.from_activity(activity),
                            rec_id=f"mix{spec.seed:06d}")


def labels_from_segments(timeline, n_frames: int) -> LabelMatrix:
    """Rasterize a DiarizationHypothesis onto the label grid, one column per
    name of `timeline.names`. A frame is active when a segment covers its
    midpoint, which is exact for segments aligned to the grid."""
    mids = (np.arange(n_frames) + 0.5) * FRAME_S
    # frames lo..hi-1 are those with start <= mid < end
    lo = np.searchsorted(mids, timeline.starts)
    hi = np.searchsorted(mids, timeline.ends)
    act = cover(lo, hi, timeline.codes, max(len(timeline.names), 1), n_frames)
    # (frames, speakers), C order
    return LabelMatrix.from_activity(act.T.copy())
