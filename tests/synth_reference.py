"""The per-harmonic sine renderer and the rescanning utterance placer that
`diarnet.synth` replaced, kept as references for tests.

Both take the same arguments and make the same random draws, in the same
order, as `synth._render_speaker` and `synth._place_utterances`, so either
can be patched into `diarnet.synth` to build the reference mixture of a spec.
"""

import numpy as np

from diarnet.frontend import SAMPLE_RATE, SAMPLES_PER_FRAME
from diarnet.scoring import run_edges
from diarnet.synth import _F0_BANDS


def place_utterances(rng: np.random.Generator, n_frames: int, n_speakers: int,
                     target_overlap: float) -> np.ndarray:
    """Rescans the whole activity matrix for its speech and overlap counts
    before each utterance: quadratic in duration."""
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


def render_speaker(rng: np.random.Generator, sig: np.ndarray, mask: np.ndarray,
                   spk: int) -> None:
    """One np.sin call per harmonic, each with its own scalar phase draw."""
    lo, hi = _F0_BANDS[spk]
    f0 = float(rng.uniform(lo, hi))
    tilt = 1.0 + 0.25 * spk
    n_harm = max(1, int(3600.0 // f0))
    amps = np.arange(1, n_harm + 1, dtype=np.float64) ** (-tilt)
    amps /= np.linalg.norm(amps)
    _, starts, ends = run_edges(mask[None])
    for f_start, f_end in zip(starts.tolist(), ends.tolist()):
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
