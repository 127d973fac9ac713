import numpy as np
import pytest
import synth_reference

from diarnet import synth
from diarnet.frontend import (FRAME_S, SAMPLE_RATE, ConfigError, frame_count, log_mel,
                              window_stack, write_wav)
from diarnet.model import ModelConfig
from diarnet.scoring import DiarizationHypothesis
from diarnet.synth import (
    GenerationError,
    MixtureSpec,
    labels_from_segments,
    overlap_fraction,
    synth_mixture,
)
from diarnet.training import TrainConfig, _crop_windows, train


def test_single_speaker_never_overlaps():
    rec = synth_mixture(MixtureSpec(n_speakers=1, duration_s=20, overlap_ratio=0.0, seed=3))
    assert rec.labels.y_pm.shape[1] == 1
    assert (rec.labels.y_01.sum(axis=1) <= 1).all()


def test_same_seed_is_bit_identical():
    spec = MixtureSpec(n_speakers=2, duration_s=20, overlap_ratio=0.2, seed=11)
    a, b = synth_mixture(spec), synth_mixture(spec)
    assert np.array_equal(a.clip.samples, b.clip.samples)
    assert np.array_equal(a.labels.y_pm, b.labels.y_pm)


def test_different_seed_differs():
    a = synth_mixture(MixtureSpec(n_speakers=2, duration_s=20, seed=1))
    b = synth_mixture(MixtureSpec(n_speakers=2, duration_s=20, seed=2))
    assert not np.array_equal(a.clip.samples, b.clip.samples)


def test_overlap_ratio_is_steered():
    rec = synth_mixture(MixtureSpec(n_speakers=2, duration_s=60, overlap_ratio=0.3, seed=5))
    measured = overlap_fraction(rec.labels.y_01.astype(bool))
    assert abs(measured - 0.3) <= 0.1


def test_overlap_fraction_of_silence_is_zero():
    assert overlap_fraction(np.zeros((5, 2), dtype=bool)) == 0.0


def test_every_speaker_talks():
    rec = synth_mixture(MixtureSpec(n_speakers=3, duration_s=40, overlap_ratio=0.15, seed=9))
    assert rec.labels.n_speakers == 3


def test_labels_align_with_frontend_frames():
    # 2.065 s, 16520 samples, is the shortest mixture: 205 mel rows, 20 frames
    for spec, n_frames in [
            (MixtureSpec(n_speakers=2, duration_s=17.3, overlap_ratio=0.2, seed=7), 172),
            (MixtureSpec(n_speakers=1, duration_s=2.065, overlap_ratio=0.0, seed=7), 20)]:
        rec = synth_mixture(spec)
        assert rec.labels.n_frames == frame_count(len(rec.clip.samples)) == n_frames


def test_amplitudes_bounded():
    rec = synth_mixture(MixtureSpec(n_speakers=4, duration_s=20, overlap_ratio=0.3,
                                    noise_snr_db=5.0, seed=13))
    assert float(np.abs(rec.clip.samples).max()) <= 1.0


def test_single_speaker_with_overlap_is_infeasible():
    with pytest.raises(ConfigError, match="overlap_ratio must be 0 for one speaker, got 0.5"):
        MixtureSpec(n_speakers=1, duration_s=20, overlap_ratio=0.5, seed=0)


def test_impossible_overlap_raises_after_retries():
    with pytest.raises(GenerationError):
        synth_mixture(MixtureSpec(n_speakers=2, duration_s=6, overlap_ratio=0.97, seed=0))


def test_too_short_duration_names_its_frame_count():
    # 2.01 s is 16080 samples: 199 mel rows, 19 frames, one short of the 20 needed;
    # 16519 samples, one short of the shortest mixture, are 204 mel rows and 19 frames
    for duration_s in (2.01, 16519 / SAMPLE_RATE):
        with pytest.raises(ConfigError) as e:
            MixtureSpec(n_speakers=1, duration_s=duration_s, overlap_ratio=0.0, seed=0)
        assert str(e.value) == (f"duration_s {duration_s} yields only 19 frames, "
                                "and synthesis needs 20")


# ---------------------------------------------------------------------------
# the phasor renderer and the linear placer against the loops they replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    MixtureSpec(n_speakers=1, duration_s=20, overlap_ratio=0.0, seed=3),
    MixtureSpec(n_speakers=2, duration_s=60, overlap_ratio=0.2, seed=1000),
    MixtureSpec(n_speakers=2, duration_s=17.3, overlap_ratio=0.2, seed=7),   # partial frame
    MixtureSpec(n_speakers=3, duration_s=40, overlap_ratio=0.15, seed=9),
    MixtureSpec(n_speakers=4, duration_s=20, overlap_ratio=0.3, noise_snr_db=5.0, seed=13),
    MixtureSpec(n_speakers=4, duration_s=30, overlap_ratio=0.0, seed=2),
], ids=lambda spec: f"{spec.n_speakers}spk-{spec.duration_s}s-seed{spec.seed}")
def test_renderer_matches_per_harmonic_sines(spec, tmp_path, monkeypatch):
    got = synth_mixture(spec)
    monkeypatch.setattr(synth, "_render_speaker", synth_reference.render_speaker)
    want = synth_mixture(spec)
    assert np.array_equal(got.labels.y_pm, want.labels.y_pm)
    # the Horner sum rounds differently from the sines: float64 error, far
    # below the float32 step of the clip and the 2^-15 step of PCM16
    np.testing.assert_allclose(got.clip.samples, want.clip.samples, rtol=0, atol=1e-6)
    write_wav(tmp_path / "got.wav", got.clip)
    write_wav(tmp_path / "want.wav", want.clip)
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_placement_matches_rescanning_reference():
    cases = np.random.default_rng(14)
    for seed in range(300):
        n_frames = int(cases.integers(20, 1500))
        n_speakers = int(cases.integers(1, 5))
        target = float(cases.uniform(0.0, 1.0))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth._place_utterances(got_rng, n_frames, n_speakers, target)
        want = synth_reference.place_utterances(want_rng, n_frames, n_speakers, target)
        assert np.array_equal(got, want), (seed, n_frames, n_speakers, target)
        assert got_rng.integers(2**62) == want_rng.integers(2**62)   # the same draws


# ---------------------------------------------------------------------------
# cropping (training._crop_windows cuts crops from a recording's mel rows)
# ---------------------------------------------------------------------------

def test_crop_longer_than_recording_is_identity():
    # a crop_s past the recording trains on the whole recording, exactly as a
    # crop of the recording's own length does
    specs = [MixtureSpec(n_speakers=2, duration_s=8.0, seed=21 + i) for i in range(2)]
    whole_s = synth_mixture(specs[0]).labels.n_frames * FRAME_S
    model = ModelConfig(depth=1, embed_dim=32, latte_dim=16, n_latents=2, n_attractors=2,
                        ff_expansion=2, conv_kernel=3, heads=2)
    runs = [train(TrainConfig(batch_size=2, epochs=1, crop_s=crop_s, model=model),
                  specs, val_specs=specs[:1])
            for crop_s in (30.0, whole_s)]
    assert not runs[0].diverged
    assert all(np.isfinite(r["total"]) for r in runs[0].history)
    assert runs[0].history == runs[1].history


def test_fifty_second_crop_has_500_frames():
    rec = synth_mixture(MixtureSpec(n_speakers=2, duration_s=60, seed=22))
    nf = round(50.0 / FRAME_S)
    windows, labels = _crop_windows(log_mel(rec.clip), rec.labels, 37, nf)
    assert nf == 500
    assert labels.n_frames == 500
    assert windows.shape == (500, 15, 23)


def test_crop_labels_match_source_slice():
    rec = synth_mixture(MixtureSpec(n_speakers=2, duration_s=30, seed=23))
    mel, nf = log_mel(rec.clip), 100
    for f0 in (0, rec.labels.n_frames - nf):
        _, labels = _crop_windows(mel, rec.labels, f0, nf)
        assert np.array_equal(labels.y_pm, rec.labels.y_pm[f0:f0 + nf])


def test_crop_features_match_source_windows():
    rec = synth_mixture(MixtureSpec(n_speakers=2, duration_s=20, seed=24))
    mel, nf = log_mel(rec.clip), 60
    full = window_stack(mel)
    for f0 in (0, rec.labels.n_frames - nf):
        windows, _ = _crop_windows(mel, rec.labels, f0, nf)
        assert np.array_equal(windows, full[f0:f0 + nf])


# ---------------------------------------------------------------------------
# rasterized labels
# ---------------------------------------------------------------------------

def test_labels_from_segments_grid_aligned():
    segs = [(0.0, 0.5, "a"), (0.3, 0.9, "b")]
    lm = labels_from_segments(DiarizationHypothesis(segs), n_frames=10)
    assert lm.n_slots == 2
    assert np.array_equal(lm.y_01[:, 0], [1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    assert np.array_equal(lm.y_01[:, 1], [0, 0, 0, 1, 1, 1, 1, 1, 1, 0])


def _labels_reference(segments, n_frames) -> np.ndarray:
    """The per-segment midpoint mask that labels_from_segments replaced."""
    speakers = sorted({seg[2] for seg in segments})
    act = np.zeros((n_frames, max(len(speakers), 1)), dtype=bool)
    mids = (np.arange(n_frames) + 0.5) * FRAME_S
    for start, end, name in segments:
        act[(mids >= start) & (mids < end), speakers.index(name)] = True
    return act


def test_labels_from_segments_matches_midpoint_masks():
    rng = np.random.default_rng(12)
    cases = [([], 7), ([], 0)]
    for _ in range(40):
        n_frames, k = int(rng.integers(1, 60)), int(rng.integers(1, 10))
        # off-grid, overlapping, past either end of the grid, in no order
        starts = rng.uniform(-1.0, 6.5, size=k)
        ends = starts + rng.uniform(0.001, 2.5, size=k)
        names = rng.choice(["a", "b", "c"], size=k)
        cases.append(([(float(s), float(e), str(n)) for s, e, n in zip(starts, ends, names)],
                      n_frames))
    cases.append(([(0.05, 0.15, "b"), (0.15, 0.25, "a"), (0.1, 0.2, "b")], 4))  # on midpoints
    for segs, n_frames in cases:
        lm = labels_from_segments(DiarizationHypothesis(segs), n_frames)
        want = _labels_reference(segs, n_frames)
        assert np.array_equal(lm.y_pm, np.where(want, 1, -1))
        assert lm.y_pm.flags["C_CONTIGUOUS"]

