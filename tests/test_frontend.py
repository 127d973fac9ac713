import numpy as np
import pytest

from diarnet import frontend as fe
from diarnet.frontend import (
    AudioClip,
    ConfigError,
    InsufficientAudioError,
    WavFormatError,
    WavParseError,
    cnn_encode,
    frame_count,
    load_wav,
    log_mel,
    mel_filterbank,
    window_stack,
    write_wav,
)
from diarnet.model import ModelConfig, init_model_params
from diarnet.synth import MixtureSpec, synth_mixture


# ---------------------------------------------------------------------------
# wav io
# ---------------------------------------------------------------------------

def test_load_silence(tmp_path):
    p = tmp_path / "sil.wav"
    write_wav(p, AudioClip(np.zeros(8000, dtype=np.float32)))
    clip = load_wav(p)
    assert len(clip.samples) == 8000
    assert np.all(clip.samples == 0.0)


def test_resample_16k_to_8k(tmp_path):
    import struct
    x = (np.sin(2 * np.pi * 440 * np.arange(16000) / 16000) * 0.5)
    pcm = (x * 32767).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    p = tmp_path / "a16.wav"
    p.write_bytes(header + pcm)
    clip = load_wav(p)
    assert len(clip.samples) == 8000


def test_stereo_downmix(tmp_path):
    import struct
    left = np.full(100, 0.5, dtype=np.float32)
    right = np.full(100, -0.5, dtype=np.float32)
    inter = np.empty(200, dtype=np.float32)
    inter[0::2], inter[1::2] = left, right
    payload = inter.astype("<f4").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 2, 8000, 64000, 8, 32)
    header += b"data" + struct.pack("<I", len(payload))
    p = tmp_path / "st.wav"
    p.write_bytes(header + payload)
    clip = load_wav(p)
    assert len(clip.samples) == 100
    assert np.allclose(clip.samples, 0.0, atol=1e-6)


def test_malformed_header_rejected(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(WavParseError):
        load_wav(p)


def test_unsupported_codec_rejected(tmp_path):
    import struct
    header = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 2, 1, 8000, 8000, 1, 4)  # ADPCM
    header += b"data" + struct.pack("<I", 0)
    p = tmp_path / "adpcm.wav"
    p.write_bytes(header)
    with pytest.raises(WavFormatError):
        load_wav(p)


def test_zero_channels_rejected(tmp_path):
    import struct
    header = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 0, 8000, 16000, 2, 16)
    header += b"data" + struct.pack("<I", 0)
    p = tmp_path / "ch0.wav"
    p.write_bytes(header)
    with pytest.raises(WavParseError) as e:
        load_wav(p)
    assert e.type is WavParseError and str(e.value).startswith(f"{p}: zero channels")


def test_zero_sample_rate_rejected(tmp_path):
    import struct
    payload = np.zeros(100, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 0, 0, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    p = tmp_path / "rate0.wav"
    p.write_bytes(header + payload)
    with pytest.raises(WavParseError, match="sample rate"):
        load_wav(p)


def test_low_sample_rate_rejected_without_upsampling(tmp_path):
    # a header claiming 1 Hz once made the resampler allocate about 8000
    # samples per byte of PCM (2.4 GB peak for this 32 KB file)
    import struct
    import tracemalloc
    payload = np.zeros(16000, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 1, 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    p = tmp_path / "rate1.wav"
    p.write_bytes(header + payload)
    tracemalloc.start()
    try:
        with pytest.raises(WavFormatError, match="sample rate 1 Hz"):
            load_wav(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = (rng.random(4000).astype(np.float32) - 0.5)
    p = tmp_path / "rt.wav"
    write_wav(p, AudioClip(x))
    back = load_wav(p)
    assert np.allclose(back.samples, x, atol=1.0 / 32768)


# ---------------------------------------------------------------------------
# log-mel
# ---------------------------------------------------------------------------

def test_one_second_clip_gives_98_frames():
    clip = AudioClip(np.zeros(8000, dtype=np.float32))
    mel = log_mel(clip)
    # (8000 - 200) // 80 + 1 with a 25 ms window and 10 ms hop, no padding
    assert mel.shape == (98, 23)
    assert mel.dtype == np.float32


def test_silence_hits_log_floor():
    mel = log_mel(AudioClip(np.zeros(4000, dtype=np.float32)))
    assert np.allclose(mel, np.log(1e-10))


def test_pure_tone_concentrates_in_expected_mel_bin():
    t = np.arange(16000) / fe.SAMPLE_RATE
    clip = AudioClip((0.8 * np.sin(2 * np.pi * 1000.0 * t)).astype(np.float32))
    got = np.argmax(log_mel(clip), axis=1)
    # independent derivation: the filter with the largest response at 1 kHz
    fb = mel_filterbank()
    freqs = np.arange(fb.shape[1]) * fe.SAMPLE_RATE / fe.N_FFT
    bin_1k = int(np.argmin(np.abs(freqs - 1000.0)))
    expected = int(np.argmax(fb[:, bin_1k]))
    assert np.all(got == expected)


@pytest.mark.parametrize("rows", [
    1,                                       # one WIN_SAMPLES window
    fe.LOG_MEL_BLOCK + 123,                  # ends inside its last block
    fe.LOG_MEL_BLOCK,                        # exactly one block
    fe.WINDOW_HOP * 149 + fe.WINDOW_FRAMES,  # the desk crop: 150 frames, 1505 rows
])
def test_log_mel_is_prefix_stable(rows):
    # training keeps only a validation crop's rows, made from the samples
    # they read; they must be the head of the whole recording's rows
    clip = synth_mixture(MixtureSpec(n_speakers=2, duration_s=25.0, overlap_ratio=0.2,
                                     noise_snr_db=15.0, seed=7)).clip
    full = log_mel(clip)
    head = log_mel(AudioClip(clip.samples[:fe.HOP_SAMPLES * (rows - 1) + fe.WIN_SAMPLES]))
    assert head.shape == (rows, fe.N_MELS)
    assert head.tobytes() == full[:rows].tobytes()


def test_too_short_clip_rejected():
    with pytest.raises(InsufficientAudioError):
        log_mel(AudioClip(np.zeros(100, dtype=np.float32)))


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def _mel_of(t0: int) -> np.ndarray:
    rng = np.random.default_rng(t0)
    return rng.standard_normal((t0, 23)).astype(np.float32)


@pytest.mark.parametrize("t0,expected", [(15, 1), (105, 10), (24, 1), (25, 2)])
def test_window_counts(t0, expected):
    windows = window_stack(_mel_of(t0))
    assert windows.shape == (expected, 15, 23)
    assert windows.dtype == np.float32


def test_window_overlap_is_five_frames():
    windows = window_stack(_mel_of(40))
    assert np.array_equal(windows[1][0:5], windows[0][10:15])


def test_flattened_window_dimension_is_345():
    windows = window_stack(_mel_of(30))
    assert windows[0].reshape(-1).shape == (345,)


def test_windowing_covers_all_frames_when_aligned():
    # T0 = 5 (mod 10): the last window ends exactly at the last mel frame.
    for t0 in (15, 25, 45, 105):
        windows = window_stack(_mel_of(t0))
        covered = np.zeros(t0, dtype=bool)
        for t in range(len(windows)):
            covered[10 * t: 10 * t + 15] = True
        assert covered.all()


def test_window_stack_rejects_short_input():
    with pytest.raises(InsufficientAudioError):
        window_stack(_mel_of(14))


# ---------------------------------------------------------------------------
# CNN encoder
# ---------------------------------------------------------------------------

def _frontend_params(embed_dim: int, rng) -> dict:
    """The front-end entries of a one-block model's parameters."""
    cfg = ModelConfig(depth=1, embed_dim=embed_dim, latte_dim=16, n_latents=2, n_attractors=2,
                      ff_expansion=1, conv_kernel=3, heads=2)
    return {k: p for k, p in init_model_params(cfg, rng).items() if k.startswith("frontend.")}


def test_cnn_shape_trace_and_output():
    rng = np.random.default_rng(0)
    params = _frontend_params(256, rng)
    # kernel geometry: 4 stride-2 same-padded 3x3 layers then a valid 1x2
    assert params["frontend.conv1.w"].shape == (16, 1, 3, 3)
    assert params["frontend.conv4.w"].shape == (128, 64, 3, 3)
    assert params["frontend.conv5.w"].shape == (256, 128, 1, 2)
    windows = rng.standard_normal((7, 15, 23)).astype(np.float32)
    out = cnn_encode(windows, params, 256)
    assert out.shape == (7, 256)
    # RMSNorm with unit gain leaves every nonzero row at unit RMS
    rms = np.sqrt((out.data ** 2).mean(axis=1))
    assert np.allclose(rms, 1.0, atol=1e-5)


def test_cnn_zero_input_gives_zero_embeddings():
    params = _frontend_params(64, np.random.default_rng(1))
    out = cnn_encode(np.zeros((3, 15, 23), dtype=np.float32), params, 64)
    assert np.all(out.data == 0.0)


def test_cnn_windows_do_not_mix():
    rng = np.random.default_rng(2)
    params = _frontend_params(64, rng)
    windows = rng.standard_normal((6, 15, 23)).astype(np.float32)
    base = cnn_encode(windows, params, 64).data
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = cnn_encode(windows[perm], params, 64).data
    assert np.allclose(permuted, base[perm], atol=1e-6)


def test_cnn_batching_matches_unbatched():
    rng = np.random.default_rng(3)
    params = _frontend_params(64, rng)
    rec_a = rng.standard_normal((4, 15, 23)).astype(np.float32)
    rec_b = rng.standard_normal((5, 15, 23)).astype(np.float32)
    stacked = cnn_encode(np.concatenate([rec_a, rec_b]), params, 64).data
    sep = np.concatenate([cnn_encode(rec_a, params, 64).data,
                          cnn_encode(rec_b, params, 64).data])
    assert np.allclose(stacked, sep, atol=1e-6)


def test_frame_count_helper_matches_pipeline():
    # 200 samples make one mel frame and 1320 the first 15-frame window
    for n in (0, 199, 200, 1319, 1320, 8000, 48000, 400520, 12345):
        clip = AudioClip(np.zeros(n, dtype=np.float32))
        try:
            windows = window_stack(log_mel(clip))
            assert frame_count(n) == len(windows)
        except InsufficientAudioError:
            assert frame_count(n) == 0


def test_one_output_frame_per_frame_s_of_audio():
    assert fe.SAMPLES_PER_FRAME == 800 and fe.FRAME_S == 0.1
    for n in (1320, 8000, 12345):
        assert frame_count(n + fe.SAMPLES_PER_FRAME) == frame_count(n) + 1


def test_param_shape_mismatch_raises_config_error():
    rng = np.random.default_rng(4)
    params = _frontend_params(64, rng)
    bad = dict(params)
    bad["frontend.conv2.w"] = params["frontend.conv1.w"]
    with pytest.raises(ConfigError):
        cnn_encode(np.zeros((2, 15, 23), dtype=np.float32), bad, 64)


@pytest.mark.parametrize("shape", [(2, 16, 23), (2, 15, 22), (15, 23), (1, 2, 15, 23)])
def test_cnn_rejects_windows_of_another_geometry(shape):
    params = _frontend_params(64, np.random.default_rng(5))
    with pytest.raises(ConfigError, match="15, 23"):
        cnn_encode(np.zeros(shape, dtype=np.float32), params, 64)
