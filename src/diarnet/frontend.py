"""Audio front-end: WAV ingest, log-mel features, window stacking, CNN encoder.

The processing chain is

    samples (8 kHz mono) -> log-mel frames (T0 x 23, 10 ms hop)
    -> overlapping windows (T x 15 x 23, hop 10 frames)
    -> CNN window encoder -> frame embeddings (T x E, RMS-normalized)

so each output frame nominally covers 100 ms of audio.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .serialize import save_array

SAMPLE_RATE = 8000
FRAME_S = 0.1                      # output frame grid: one frame per window hop


class WavParseError(ValueError):
    """Malformed RIFF/WAVE container."""


class WavFormatError(ValueError):
    """Valid container but unsupported encoding."""


class InsufficientAudioError(ValueError):
    """Clip too short for the requested analysis."""


class ConfigError(ValueError):
    """Inconsistent feature or encoder configuration."""


@dataclass
class FeatureConfig:
    """Log-mel and windowing parameters.

    The analysis window length is deliberately configurable: 25 ms is the
    conventional choice for a 10 ms hop.
    """
    sample_rate: int = SAMPLE_RATE
    n_mels: int = 23
    win_ms: float = 25.0
    hop_ms: float = 10.0
    fmin: float = 0.0
    fmax: float = 4000.0
    window_frames: int = 15
    window_hop: int = 10
    log_floor: float = 1e-10

    @property
    def win_samples(self) -> int:
        return int(round(self.win_ms * self.sample_rate / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * self.sample_rate / 1000.0))

    @property
    def n_fft(self) -> int:
        return 1 << (self.win_samples - 1).bit_length()


@dataclass
class AudioClip:
    """Mono audio at the canonical 8 kHz rate, amplitudes clipped to [-1, 1]."""
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        self.samples = np.clip(arr, -1.0, 1.0)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class MelFrames:
    frames: np.ndarray          # (T0, n_mels) float32
    hop_ms: float = 10.0

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class WindowTensor:
    windows: np.ndarray         # (T, window_frames, n_mels) float32
    window_frames: int = 15
    hop_frames: int = 10

    @property
    def n_windows(self) -> int:
        return self.windows.shape[0]


# ---------------------------------------------------------------------------
# WAV io
# ---------------------------------------------------------------------------

def load_wav(path) -> AudioClip:
    """Read a PCM16 or float32 WAV, downmix to mono, resample to 8 kHz."""
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
    return AudioClip(x)


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
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, clip.sample_rate,
                                    clip.sample_rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# log-mel features
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Triangular filters (n_mels, n_fft//2 + 1) spanning [fmin, fmax]."""
    n_bins = cfg.n_fft // 2 + 1
    freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    pts = _mel_to_hz(np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2))
    fb = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-12)
        down = (hi - freqs) / max(hi - mid, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def log_mel(clip: AudioClip, cfg: FeatureConfig | None = None) -> MelFrames:
    """Log mel-filterbank energies with a hard floor at ``cfg.log_floor``."""
    cfg = cfg or FeatureConfig()
    win, hop = cfg.win_samples, cfg.hop_samples
    x = clip.samples
    if len(x) < win:
        raise InsufficientAudioError(
            f"clip of {len(x)} samples is shorter than one {win}-sample analysis window")
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop].astype(np.float64)
    windowed = frames * np.hanning(win)
    spec = np.abs(np.fft.rfft(windowed, n=cfg.n_fft, axis=1)) ** 2
    energies = spec @ mel_filterbank(cfg).T
    logm = np.log(np.maximum(energies, cfg.log_floor))
    return MelFrames(frames=logm.astype(np.float32), hop_ms=cfg.hop_ms)


def mel_frame_count(n_samples: int, cfg: FeatureConfig | None = None) -> int:
    cfg = cfg or FeatureConfig()
    if n_samples < cfg.win_samples:
        return 0
    return (n_samples - cfg.win_samples) // cfg.hop_samples + 1


def window_count(n_mel_frames: int, cfg: FeatureConfig | None = None) -> int:
    cfg = cfg or FeatureConfig()
    if n_mel_frames < cfg.window_frames:
        return 0
    return (n_mel_frames - cfg.window_frames) // cfg.window_hop + 1


def frame_count(n_samples: int, cfg: FeatureConfig | None = None) -> int:
    """Number of embedding frames the front-end will produce for a clip."""
    return window_count(mel_frame_count(n_samples, cfg), cfg)


def window_stack(mel: MelFrames, cfg: FeatureConfig | None = None) -> WindowTensor:
    """Stack mel frames into overlapping windows (hop 10, overlap 5)."""
    cfg = cfg or FeatureConfig()
    wf, hp = cfg.window_frames, cfg.window_hop
    t0 = mel.n_frames
    if t0 < wf:
        raise InsufficientAudioError(f"{t0} mel frames < window of {wf}")
    win = np.lib.stride_tricks.sliding_window_view(mel.frames, wf, axis=0)[::hp]
    # sliding_window_view puts the window axis last: (T, n_mels, wf)
    windows = np.ascontiguousarray(win.transpose(0, 2, 1))
    return WindowTensor(windows=windows.astype(np.float32), window_frames=wf, hop_frames=hp)


def dump_mel(path, mel: MelFrames) -> None:
    """Feature-dump mode: MelFrames in the flat tensor format, for fixtures."""
    save_array(path, mel.frames)


# ---------------------------------------------------------------------------
# CNN window encoder
# ---------------------------------------------------------------------------

def cnn_channel_plan(embed_dim: int) -> tuple[int, ...]:
    """Per-layer output channels; (16, 32, 64, 128, 256) at embed_dim 256."""
    if embed_dim % 16 != 0:
        raise ConfigError(f"embed_dim must be divisible by 16, got {embed_dim}")
    return (embed_dim // 16, embed_dim // 8, embed_dim // 4, embed_dim // 2, embed_dim)


def _same_pads(size: int, k: int, s: int) -> tuple[int, int]:
    out = math.ceil(size / s)
    total = max((out - 1) * s + k - size, 0)
    return total // 2, total - total // 2


def init_frontend_params(embed_dim: int, rng: np.random.Generator,
                         window_frames: int = 15, n_mels: int = 23) -> dict:
    """Parameters for the 5-layer encoder; layers 1-4 are stride-2 3x3 with
    same padding, layer 5 is a valid 1x2 kernel collapsing the residual map."""
    chans = cnn_channel_plan(embed_dim)
    params: dict[str, Tensor] = {}
    cin = 1
    h, w = window_frames, n_mels
    for i, cout in enumerate(chans, start=1):
        if i < 5:
            kh, kw, stride = 3, 3, 2
            h, w = math.ceil(h / stride), math.ceil(w / stride)
        else:
            kh, kw, stride = h, 2, 1
            h, w = 1, w - 1
        fan_in = cin * kh * kw
        fan_out = cout * kh * kw
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params[f"frontend.conv{i}.w"] = Tensor(
            rng.uniform(-limit, limit, size=(cout, cin, kh, kw)).astype(np.float32),
            requires_grad=True)
        params[f"frontend.conv{i}.b"] = Tensor(np.zeros(cout, dtype=np.float32),
                                               requires_grad=True)
        cin = cout
    if (h, w) != (1, 1):
        raise ConfigError(f"encoder does not collapse to 1x1 (got {h}x{w}); "
                          f"window geometry must be {window_frames}x{n_mels}")
    params["frontend.norm_gain"] = Tensor(np.ones(embed_dim, dtype=np.float32),
                                          requires_grad=True)
    return params


def cnn_encode(windows, params: dict, embed_dim: int) -> Tensor:
    """Encode stacked windows (N, 15, 23) into RMS-normalized (N, E) embeddings.

    N may span several recordings: windows never mix, so batching is pure
    concatenation.
    """
    if isinstance(windows, WindowTensor):
        windows = windows.windows
    arr = np.asarray(windows, dtype=np.float32)
    if arr.ndim != 3:
        raise ConfigError(f"expected (N, win, mels) windows, got shape {arr.shape}")
    chans = cnn_channel_plan(embed_dim)
    x = Tensor(arr[:, None, :, :])
    h, w = arr.shape[1], arr.shape[2]
    for i, cout in enumerate(chans, start=1):
        wk = params[f"frontend.conv{i}.w"]
        bk = params[f"frontend.conv{i}.b"]
        if wk.shape[0] != cout:
            raise ConfigError(f"frontend.conv{i}.w has {wk.shape[0]} filters, expected {cout}")
        if i < 5:
            pads = (_same_pads(h, 3, 2), _same_pads(w, 3, 2))
            x = ad.relu(ad.conv2d(x, wk, bk, stride=(2, 2), pads=pads))
            h, w = math.ceil(h / 2), math.ceil(w / 2)
        else:
            # final layer: valid 1x2 kernel collapses the map, no activation
            # so the embedding keeps both signs ahead of the RMSNorm
            x = ad.conv2d(x, wk, bk, stride=(1, 1), pads=((0, 0), (0, 0)))
            h, w = h - wk.shape[2] + 1, w - wk.shape[3] + 1
    if (h, w) != (1, 1):
        raise ConfigError(f"encoder output is {h}x{w}, expected 1x1")
    x = x.reshape(arr.shape[0], embed_dim)
    return ad.rms_norm(x, params["frontend.norm_gain"])


def encode_clip(clip: AudioClip, params: dict, embed_dim: int,
                cfg: FeatureConfig | None = None) -> Tensor:
    """Full front-end: clip -> (T, E) embeddings."""
    return cnn_encode(window_stack(log_mel(clip, cfg), cfg), params, embed_dim)
