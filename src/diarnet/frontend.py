"""Audio front-end: WAV ingest, log-mel features, window stacking, CNN encoder.

The processing chain is

    samples (8 kHz mono) -> log-mel frames (T0 x 23, 25 ms window, 10 ms hop)
    -> overlapping windows (T x 15 x 23, hop 10 frames)
    -> CNN window encoder -> frame embeddings (T x E, RMS-normalized)

so each output frame covers 100 ms of audio. The geometry is the fixed EEND
recipe (Fujita et al., arXiv:1909.06247) and is not configurable: the CNN
collapses exactly a 15 x 23 window, and the synthetic labels, the crops,
the posterior segmenter and the scorer all step in ``FRAME_S`` frames.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SAMPLE_RATE = 8000
N_MELS = 23
WIN_SAMPLES = 200                  # 25 ms analysis window
HOP_SAMPLES = 80                   # 10 ms mel hop
N_FFT = 256                        # next power of two above WIN_SAMPLES
LOG_FLOOR = 1e-10
LOG_MEL_BLOCK = 512                # frames per block of the log-mel transform
WINDOW_FRAMES = 15                 # mel frames per CNN window
WINDOW_HOP = 10                    # mel frames between window starts
SAMPLES_PER_FRAME = HOP_SAMPLES * WINDOW_HOP
FRAME_S = SAMPLES_PER_FRAME / SAMPLE_RATE      # output frame grid: 100 ms


class WavParseError(ValueError):
    """Malformed RIFF/WAVE container."""


class WavFormatError(ValueError):
    """Valid container but unsupported encoding."""


class InsufficientAudioError(ValueError):
    """Clip too short for the requested analysis."""


class ConfigError(ValueError):
    """Inconsistent encoder configuration or input geometry."""


_NUMBER_FIELDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


def check_number_fields(cfg, prefix: str = "", minimum: dict | None = None) -> None:
    """Raise ConfigError naming ``prefix + field`` for the first ``int`` or
    ``float`` field of the dataclass ``cfg`` that breaks a rule: a bool or a
    string is not a number, a float is not an int, a float is finite, and a
    field named in ``minimum`` is at least its entry."""
    for f in fields(cfg):
        if f.type in _NUMBER_FIELDS:
            kind, what = _NUMBER_FIELDS[f.type]
            v = getattr(cfg, f.name)
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError(f"{prefix}{f.name} must be {what}, got {v!r}")
            if f.type == "float" and not math.isfinite(v):
                raise ConfigError(f"{prefix}{f.name} must be finite, got {v!r}")
            if minimum and f.name in minimum and v < minimum[f.name]:
                raise ConfigError(f"{prefix}{f.name} must be at least {minimum[f.name]}, "
                                  f"got {v!r}")


def from_json(cls, d, where: str):
    """``cls(**d)`` for a JSON object ``d`` whose keys all name fields of the
    dataclass ``cls``; anything else is a ConfigError naming ``where``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    return cls(**d)


@dataclass
class AudioClip:
    """Mono audio at SAMPLE_RATE, amplitudes clipped to [-1, 1]; NaN or Inf
    samples raise WavFormatError (clipping would keep a NaN)."""
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise WavFormatError("audio holds NaN or Inf samples")
        self.samples = np.clip(arr, -1.0, 1.0)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / SAMPLE_RATE


# ---------------------------------------------------------------------------
# WAV io
# ---------------------------------------------------------------------------

def load_wav(path) -> AudioClip:
    """Read a PCM16 or float32 WAV, downmix to mono, resample down to 8 kHz."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavParseError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        size, = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = raw[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavParseError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise WavParseError(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, _, _, bits = fmt
    if channels < 1:
        raise WavParseError(f"{path}: zero channels")
    if rate < 1:
        raise WavParseError(f"{path}: zero sample rate")
    if rate < SAMPLE_RATE:
        raise WavFormatError(f"{path}: sample rate {rate} Hz is below {SAMPLE_RATE} Hz")
    if audio_format == 1 and bits == 16:
        x = np.frombuffer(data[:len(data) - len(data) % 2], dtype="<i2").astype(np.float32) / 32768.0
    elif audio_format == 3 and bits == 32:
        x = np.frombuffer(data[:len(data) - len(data) % 4], dtype="<f4").astype(np.float32)
    else:
        raise WavFormatError(f"{path}: unsupported encoding (format={audio_format}, bits={bits})")

    if channels > 1:
        x = x[:len(x) - len(x) % channels].reshape(-1, channels).mean(axis=1)
    if rate != SAMPLE_RATE:
        x = _resample_linear(x, rate, SAMPLE_RATE)
    try:
        return AudioClip(x)
    except WavFormatError as e:
        raise WavFormatError(f"{path}: {e}") from None


def _resample_linear(x: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    n_out = int(round(len(x) * dst_rate / src_rate))
    if n_out == 0 or len(x) == 0:
        return np.zeros(0, dtype=np.float32)
    t_out = np.arange(n_out) * (src_rate / dst_rate)
    return np.interp(t_out, np.arange(len(x)), x).astype(np.float32)


def write_wav(path, clip: AudioClip) -> None:
    """Write PCM16 mono WAV."""
    pcm = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE,
                                    SAMPLE_RATE * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# log-mel features
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular filters (N_MELS, N_FFT//2 + 1) spanning 0 Hz to Nyquist."""
    n_bins = N_FFT // 2 + 1
    freqs = np.arange(n_bins) * SAMPLE_RATE / N_FFT
    pts = _mel_to_hz(np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2))
    fb = np.zeros((N_MELS, n_bins), dtype=np.float64)
    for m in range(N_MELS):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-12)
        down = (hi - freqs) / max(hi - mid, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def log_mel(clip: AudioClip) -> np.ndarray:
    """(T0, N_MELS) float32 log mel-filterbank energies, floored at LOG_FLOOR."""
    x = clip.samples
    if len(x) < WIN_SAMPLES:
        raise InsufficientAudioError(
            f"clip of {len(x)} samples is shorter than one {WIN_SAMPLES}-sample analysis window")
    frames = np.lib.stride_tricks.sliding_window_view(x, WIN_SAMPLES)[::HOP_SAMPLES]
    window = np.hanning(WIN_SAMPLES)
    fb_t = mel_filterbank().T
    energies = np.empty((len(frames), N_MELS))
    # in blocks of frames, so the float64 and complex temporaries stay small
    # and are reused instead of being mapped afresh for a whole recording
    for i in range(0, len(frames), LOG_MEL_BLOCK):
        windowed = frames[i:i + LOG_MEL_BLOCK].astype(np.float64) * window
        spec = np.abs(np.fft.rfft(windowed, n=N_FFT, axis=1)) ** 2
        energies[i:i + LOG_MEL_BLOCK] = spec @ fb_t
    return np.log(np.maximum(energies, LOG_FLOOR)).astype(np.float32)


def frame_count(n_samples: int) -> int:
    """Number of embedding frames the front-end will produce for a clip."""
    n_mel = (n_samples - WIN_SAMPLES) // HOP_SAMPLES + 1
    return max((n_mel - WINDOW_FRAMES) // WINDOW_HOP + 1, 0)


def checked_frame_count(n_samples: int, where) -> int:
    """`frame_count(n_samples)`; below 1 it is an InsufficientAudioError naming `where`."""
    if frame_count(n_samples) < 1:
        need = HOP_SAMPLES * (WINDOW_FRAMES - 1) + WIN_SAMPLES
        raise InsufficientAudioError(f"{where}: {n_samples} samples < the {need} "
                                     "that one output frame reads")
    return frame_count(n_samples)


def window_stack(mel: np.ndarray) -> np.ndarray:
    """Stack (T0, N_MELS) mel frames into (T, WINDOW_FRAMES, N_MELS) windows
    (hop 10, overlap 5)."""
    t0 = mel.shape[0]
    if t0 < WINDOW_FRAMES:
        raise InsufficientAudioError(f"{t0} mel frames < window of {WINDOW_FRAMES}")
    win = np.lib.stride_tricks.sliding_window_view(mel, WINDOW_FRAMES, axis=0)[::WINDOW_HOP]
    # sliding_window_view puts the window axis last: (T, N_MELS, WINDOW_FRAMES)
    return np.ascontiguousarray(win.transpose(0, 2, 1), dtype=np.float32)


# ---------------------------------------------------------------------------
# CNN window encoder
# ---------------------------------------------------------------------------

# (kernel, stride, pads) of each CNN layer: stride-2 3x3 layers with same padding
# take a 15x23 window to 8x12, 4x6, 2x3 and 1x2; a valid 1x2 layer ends at 1x1
CNN_LAYERS = (
    ((3, 3), (2, 2), ((1, 1), (1, 1))),
    ((3, 3), (2, 2), ((0, 1), (0, 1))),
    ((3, 3), (2, 2), ((0, 1), (0, 1))),
    ((3, 3), (2, 2), ((0, 1), (1, 1))),
    ((1, 2), (1, 1), ((0, 0), (0, 0))),
)


def cnn_channel_plan(embed_dim: int) -> tuple[int, ...]:
    """Per-layer output channels; (16, 32, 64, 128, 256) at embed_dim 256."""
    if embed_dim % 16 != 0:
        raise ConfigError(f"embed_dim must be divisible by 16, got {embed_dim}")
    return (embed_dim // 16, embed_dim // 8, embed_dim // 4, embed_dim // 2, embed_dim)


def cnn_encode(windows, params: dict, embed_dim: int) -> Tensor:
    """Encode stacked windows (N, 15, 23) into RMS-normalized (N, E) embeddings.

    N may span several recordings: windows never mix, so batching is pure
    concatenation.
    """
    arr = np.asarray(windows, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[1:] != (WINDOW_FRAMES, N_MELS):
        raise ConfigError(f"expected (N, {WINDOW_FRAMES}, {N_MELS}) windows, "
                          f"got shape {arr.shape}")
    x = Tensor(arr[:, None, :, :])
    layers = zip(cnn_channel_plan(embed_dim), CNN_LAYERS)
    for i, (cout, (kernel, stride, pads)) in enumerate(layers, start=1):
        wk = params[f"frontend.conv{i}.w"]
        if wk.shape[0] != cout or wk.shape[2:] != kernel:
            raise ConfigError(f"frontend.conv{i}.w has shape {wk.shape}, expected "
                              f"{cout} filters of {kernel[0]}x{kernel[1]}")
        x = ad.conv2d(x, wk, params[f"frontend.conv{i}.b"], stride=stride, pads=pads)
        if i < len(CNN_LAYERS):     # the last layer keeps both signs for the RMSNorm
            x = ad.relu(x)
    x = x.reshape(arr.shape[0], embed_dim)
    return ad.rms_norm(x, params["frontend.norm_gain"])


def encode_clip(clip: AudioClip, params: dict, embed_dim: int) -> Tensor:
    """Full front-end: clip -> (T, E) embeddings."""
    return cnn_encode(window_stack(log_mel(clip)), params, embed_dim)
