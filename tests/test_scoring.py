import numpy as np
import pytest

from der_oracle import corrupt_timeline, frame_der, random_timeline
from diarnet.cli import _segments_from_labels
from diarnet.rttm import RttmParseError, read_rttm, write_rttm
from diarnet.scoring import (
    DiarizationHypothesis,
    ScoringError,
    aggregate_reports,
    der_score,
    mask_runs,
    posterior_to_segments,
)
from diarnet.synth import MixtureSpec, synth_mixture


def hyp(segs, file_id="rec"):
    return DiarizationHypothesis(segments=list(segs), file_id=file_id)


# ---------------------------------------------------------------------------
# posterior post-processing
# ---------------------------------------------------------------------------

def test_silence_posteriors_give_empty_hypothesis():
    out = posterior_to_segments(np.zeros((50, 3)))
    assert out.segments == []


def test_block_of_activity_becomes_one_segment():
    probs = np.zeros((40, 4))
    probs[10:20, 2] = 1.0
    out = posterior_to_segments(probs)
    assert out.segments == [(1.0, 2.0, "2")]


def test_single_frame_spike_is_removed():
    probs = np.zeros((40, 1))
    probs[7, 0] = 1.0
    out = posterior_to_segments(probs, median_w=11)
    assert out.segments == []


def test_median_window_one_keeps_spike():
    probs = np.zeros((40, 1))
    probs[7, 0] = 1.0
    out = posterior_to_segments(probs, median_w=1)
    assert out.segments == [(0.7, 0.8, "0")]


def _runs_reference(mask) -> list:
    """The frame-by-frame run scan that mask_runs replaced."""
    out, start = [], None
    for i in range(len(mask) + 1):
        active = i < len(mask) and mask[i]
        if active and start is None:
            start = i
        elif not active and start is not None:
            out.append((start, i))
            start = None
    return out


def test_mask_runs_matches_reference_scan():
    rng = np.random.default_rng(4)
    cases = [np.zeros(0, bool), np.zeros(5, bool), np.ones(5, bool), np.array([True]),
             np.array([False, True, True, False, True])]
    cases += [rng.random(int(rng.integers(1, 60))) < p for p in (0.2, 0.5, 0.8) * 10]
    for mask in cases:
        got = mask_runs(mask)
        assert got == _runs_reference(mask)
        assert all(type(v) is int for run in got for v in run)


def test_reference_segments_match_reference_scan():
    for seed in range(3):
        rec = synth_mixture(MixtureSpec(n_speakers=3, duration_s=20.0, overlap_ratio=0.2,
                                        seed=seed))
        y = rec.labels.y_01 > 0
        want = [(round(a * 0.1, 3), round(b * 0.1, 3), f"spk{spk}")
                for spk in range(y.shape[1]) for a, b in _runs_reference(y[:, spk])]
        assert _segments_from_labels(rec) == want


@pytest.mark.parametrize("seed", range(5))
def test_threshold_monotonicity(seed):
    rng = np.random.default_rng(seed)
    probs = rng.random((80, 3))
    prev = None
    for thr in (0.2, 0.4, 0.6, 0.8):
        total = posterior_to_segments(probs, threshold=thr).total_speech()
        if prev is not None:
            assert total <= prev + 1e-9
        prev = total


# ---------------------------------------------------------------------------
# DER examples
# ---------------------------------------------------------------------------

def test_identical_hypothesis_scores_zero():
    ref = hyp([(0.0, 5.0, "a"), (3.0, 8.0, "b")])
    rep = der_score(ref, ref)
    assert rep.der == pytest.approx(0.0, abs=1e-9)
    assert rep.sad_ms == 0.0 and rep.sad_fa == 0.0


def test_trimmed_onset_is_pure_miss():
    ref = hyp([(0.0, 10.0, "a")])
    h = hyp([(1.0, 10.0, "a")])
    rep = der_score(ref, h, collar_s=0.0)
    assert rep.ms == pytest.approx(10.0, abs=1e-9)
    assert rep.fa == 0.0 and rep.cf == 0.0
    assert rep.der == pytest.approx(10.0, abs=1e-9)


def test_label_swap_is_confusion():
    ref = hyp([(0.0, 4.0, "a"), (4.0, 8.0, "b")])
    h = hyp([(0.0, 4.0, "x"), (4.0, 8.0, "x")])
    rep = der_score(ref, h, collar_s=0.0)
    # one of the two turns maps correctly, the other is confused
    assert rep.cf == pytest.approx(50.0, abs=1e-9)
    assert rep.der == pytest.approx(50.0, abs=1e-9)


def test_relabeling_invariance():
    rng = np.random.default_rng(0)
    ref_segs = random_timeline(rng, 3)
    hyp_segs = corrupt_timeline(rng, ref_segs)
    base = der_score(hyp([*ref_segs]), hyp([*hyp_segs]))
    renamed = [(s, e, "Z" + spk) for s, e, spk in hyp_segs]
    again = der_score(hyp([*ref_segs]), hyp(renamed))
    assert again.der == pytest.approx(base.der, abs=1e-9)


def test_empty_reference_is_an_error():
    with pytest.raises(ScoringError):
        der_score(hyp([]), hyp([(0.0, 1.0, "a")]))


def test_overlap_region_counts_twice_in_denominator():
    ref = hyp([(0.0, 10.0, "a"), (0.0, 10.0, "b")])
    rep = der_score(ref, hyp([]), collar_s=0.0)
    assert rep.ref_speaker_s == pytest.approx(20.0)
    assert rep.ms == pytest.approx(100.0)


@pytest.mark.parametrize("seed", range(8))
def test_scorer_matches_frame_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n_spk = 2 + seed % 2
    ref_segs = random_timeline(rng, n_spk)
    hyp_segs = corrupt_timeline(rng, ref_segs)
    if not hyp_segs:
        hyp_segs = [(0.0, 1.0, "spk0")]
    rep = der_score(hyp(ref_segs), hyp(hyp_segs), collar_s=0.25)
    oracle = frame_der(hyp(ref_segs), hyp(hyp_segs), collar_s=0.25)
    for key in ("der", "ms", "fa", "cf", "sad_ms", "sad_fa"):
        assert getattr(rep, key) == pytest.approx(oracle[key], abs=0.05), key
    assert rep.ms + rep.fa + rep.cf == pytest.approx(rep.der, abs=0.01)


def test_two_speaker_overlap_with_swap_matches_oracle():
    ref = hyp([(0.0, 6.0, "a"), (4.0, 10.0, "b")])   # 2 s of overlap
    h = hyp([(0.0, 6.0, "a"), (4.0, 7.0, "a"), (7.0, 10.0, "b")])
    rep = der_score(ref, h, collar_s=0.25)
    oracle = frame_der(ref, h, collar_s=0.25)
    for key in ("der", "ms", "fa", "cf"):
        assert getattr(rep, key) == pytest.approx(oracle[key], abs=0.05), key


def test_aggregate_reports_weights_by_duration():
    ref1 = hyp([(0.0, 10.0, "a")])
    rep1 = der_score(ref1, ref1, collar_s=0.0)                 # DER 0 over 10 s
    ref2 = hyp([(0.0, 10.0, "a")])
    rep2 = der_score(ref2, hyp([]), collar_s=0.0)              # DER 100 over 10 s
    combined = aggregate_reports([rep1, rep2])
    assert combined.der == pytest.approx(50.0, abs=1e-9)


# ---------------------------------------------------------------------------
# rttm
# ---------------------------------------------------------------------------

def test_rttm_round_trip(tmp_path):
    h = hyp([(0.0, 1.5, "a"), (1.234, 4.567, "b")], file_id="callA")
    p = tmp_path / "h.rttm"
    write_rttm(p, h)
    back = read_rttm(p)["callA"]
    got = sorted((round(s, 3), round(e, 3), spk) for s, e, spk in back.segments)
    assert got == sorted(h.segments)


def test_rttm_line_format(tmp_path):
    p = tmp_path / "h.rttm"
    write_rttm(p, hyp([(0.25, 1.0, "spk1")], file_id="f1"))
    assert p.read_text() == "SPEAKER f1 1 0.250 0.750 <NA> <NA> spk1 <NA> <NA>\n"


def test_rttm_rejects_nonpositive_duration(tmp_path):
    p = tmp_path / "bad.rttm"
    p.write_text("SPEAKER f1 1 1.000 0.000 <NA> <NA> a <NA> <NA>\n")
    with pytest.raises(RttmParseError) as e:
        read_rttm(p)
    assert ":1:" in str(e.value)


def test_rttm_groups_by_file_id(tmp_path):
    p = tmp_path / "multi.rttm"
    write_rttm(p, {
        "f1": hyp([(0.0, 1.0, "a")], file_id="f1"),
        "f2": hyp([(2.0, 3.0, "b")], file_id="f2"),
    })
    back = read_rttm(p)
    assert set(back) == {"f1", "f2"}
    assert back["f2"].segments == [(2.0, 3.0, "b")]


def test_rttm_malformed_line_names_line_number(tmp_path):
    p = tmp_path / "bad.rttm"
    p.write_text("SPEAKER f1 1 0.0 1.0 <NA> <NA> a <NA> <NA>\nGARBAGE\n")
    with pytest.raises(RttmParseError) as e:
        read_rttm(p)
    assert ":2:" in str(e.value)
