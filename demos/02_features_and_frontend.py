# # Front-end: from a waveform to 256-dim frame embeddings
#
# The feature chain: 8 kHz mono audio -> 23-bin log-mel at a 10 ms hop ->
# overlapping 15-frame windows (hop 10, so one window per 100 ms) -> a
# 5-layer CNN that collapses each 15x23 window to one embedding vector.

import tempfile
from pathlib import Path

import numpy as np

from diarnet import (
    MixtureSpec,
    ModelConfig,
    cnn_encode,
    frame_count,
    init_model_params,
    load_wav,
    log_mel,
    synth_mixture,
    window_stack,
    write_wav,
)
from diarnet.model import param_specs

# ## A synthetic two-speaker mixture as input

rec = synth_mixture(MixtureSpec(n_speakers=2, duration_s=12.0, overlap_ratio=0.2,
                                noise_snr_db=15.0, seed=4))
print(f"recording: {rec.clip.duration_s:.1f}s, {rec.labels.n_frames} label frames")

# WAV round-trip is part of the deal (PCM16 write, parse, resample on read).
with tempfile.TemporaryDirectory() as tmp:
    write_wav(Path(tmp) / "demo_mix.wav", rec.clip)
    clip = load_wav(Path(tmp) / "demo_mix.wav")
print("samples:", len(clip.samples))

# ## Log-mel frames
mel = log_mel(clip)
print("mel frames:", mel.shape, "(10 ms hop, 25 ms window, 23 bins)")

# ## Windows: 15 frames, hop 10, 5-frame overlap; 15*23 = 345 values each
windows = window_stack(mel)
print("windows:", windows.shape)
print("window count matches the label grid:", len(windows) == frame_count(len(clip.samples)))
assert np.array_equal(windows[1][:5], windows[0][10:])

# ## CNN encoder: (T, 15, 23) -> (T, 256), RMS-normalized
#
# Four stride-2 same-padded 3x3 layers shrink 15x23 to 1x2; a final valid
# 1x2 kernel collapses that to a single 256-channel vector per window:
# 15x23 -> 8x12 -> 4x6 -> 2x3 -> 1x2 -> 1x1.

# The encoder's tensors are the `frontend.*` rows of the model's parameter
# table, with their init rules; the model draws them first.

cfg = ModelConfig(depth=1)
for name, shape, init in param_specs(cfg):
    if name.startswith("frontend."):
        print(f"  {name:20s} {str(shape):18s} {init}")
params = {k: p for k, p in init_model_params(cfg, np.random.default_rng(0)).items()
          if k.startswith("frontend.")}
emb = cnn_encode(windows, params, 256)
print("embeddings:", emb.shape)
rms = np.sqrt((emb.data ** 2).mean(axis=1))
print("per-frame RMS after the norm (gain=1 init): %.3f .. %.3f" % (rms.min(), rms.max()))
