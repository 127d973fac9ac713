import dataclasses
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import scoring_reference
from der_oracle import corrupt_timeline, frame_der, random_timeline
from diarnet.cli import _segments_from_labels
from diarnet.rttm import RttmParseError, read_rttm, write_rttm
from diarnet.scoring import (
    DerReport,
    DiarizationHypothesis,
    ScoringError,
    aggregate_reports,
    cover,
    der_score,
    min_cost_assignment,
    posterior_to_segments,
    run_edges,
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


@pytest.mark.parametrize("kw,match", [
    ({"threshold": float("nan")}, "threshold"),
    ({"threshold": -0.1}, "threshold"),
    ({"threshold": 1.5}, "threshold"),
    ({"median_w": 4}, "median width"),
    ({"median_w": 0}, "median width"),
    ({"median_w": -4}, "median width"),
    ({"median_w": 3.0}, "median width"),
])
def test_bad_threshold_or_median_width_is_a_scoring_error(kw, match):
    with pytest.raises(ScoringError, match=match):
        posterior_to_segments(np.full((20, 2), 0.6), **kw)


def test_nan_posteriors_are_a_scoring_error():
    probs = np.zeros((40, 2))
    probs[5, 1] = np.nan
    with pytest.raises(ScoringError, match="posteriors"):
        posterior_to_segments(probs)
    with pytest.raises(ScoringError, match="posteriors"):
        posterior_to_segments(np.full((40, 1), np.nan), median_w=1)


@pytest.mark.parametrize("shape", [(5,), (5, 2, 1), ()])
def test_posteriors_not_two_dimensional_are_a_scoring_error(shape):
    with pytest.raises(ScoringError, match=r"^expected \(T, S\) posteriors, got "):
        posterior_to_segments(np.zeros(shape))


@pytest.mark.parametrize("names", [["a"], ["a", "b", "a"], ["a", "b", "c", "d"], []],
                         ids=["fewer", "repeated", "extra", "empty"])
def test_speaker_names_must_name_each_slot_once(names):
    probs = np.full((30, 3), 0.9)
    with pytest.raises(ScoringError, match="^speaker_names must give each of the 3 slots"):
        posterior_to_segments(probs, speaker_names=names)
    out = posterior_to_segments(probs, speaker_names=["a", "b", "c"])
    assert out.segments == [(0.0, 3.0, "a"), (0.0, 3.0, "b"), (0.0, 3.0, "c")]


def _runs_reference(mask) -> list:
    """The frame-by-frame run scan that run_edges replaced."""
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
        lo, hi = run_edges(mask)
        assert list(zip(lo.tolist(), hi.tolist())) == _runs_reference(mask)


def test_reference_segments_match_reference_scan():
    for seed in range(3):
        rec = synth_mixture(MixtureSpec(n_speakers=3, duration_s=20.0, overlap_ratio=0.2,
                                        seed=seed))
        y = rec.labels.y_01 > 0
        want = [(round(a * 0.1, 3), round(b * 0.1, 3), f"spk{spk}")
                for spk in range(y.shape[1]) for a, b in _runs_reference(y[:, spk])]
        assert _segments_from_labels(rec) == want


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint union of (start, end) intervals; touching ones merge."""
    ivs = sorted((float(s), float(e)) for s, e in intervals)
    out: list[tuple[float, float]] = []
    for s, e in ivs:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_threshold_monotonicity(seed):
    rng = np.random.default_rng(seed)
    probs = rng.random((80, 3))
    prev = None
    for thr in (0.2, 0.4, 0.6, 0.8):
        segs = posterior_to_segments(probs, threshold=thr).segments
        total = sum(e - s for s, e in merge_intervals([(s, e) for s, e, _ in segs]))
        if prev is not None:
            assert total <= prev + 1e-9
        prev = total


# ---------------------------------------------------------------------------
# coverage counting
# ---------------------------------------------------------------------------

def _cover_reference(lo, hi, rows, n_rows, n) -> np.ndarray:
    """Position by position: covered when any range of the row holds it."""
    out = np.zeros((n_rows, n), dtype=bool)
    for r in range(n_rows):
        for j in range(n):
            out[r, j] = any(rows[k] == r and lo[k] <= j < hi[k] for k in range(len(lo)))
    return out


COVER_CASES = {
    "overlapping": ([0, 2], [4, 6], [0, 0], 1, 8),
    "touching": ([1, 3], [3, 5], [0, 0], 1, 6),
    "nested": ([0, 2, 3], [9, 5, 4], [0, 0, 0], 1, 10),
    "empty_ranges": ([2, 4, 1], [2, 1, 3], [0, 0, 0], 1, 5),
    "row_without_ranges": ([0, 3], [2, 5], [0, 2], 3, 5),
    "whole_span": ([0], [7], [1], 2, 7),
    "no_ranges": ([], [], [], 2, 4),
    "zero_rows": ([], [], [], 0, 4),
    "zero_positions": ([0], [0], [0], 1, 0),
}


@pytest.mark.parametrize("case", sorted(COVER_CASES))
def test_cover_matches_position_scan(case):
    lo, hi, rows, n_rows, n = COVER_CASES[case]
    got = cover(np.array(lo, dtype=int), np.array(hi, dtype=int), rows, n_rows, n)
    assert got.shape == (n_rows, n) and got.dtype == bool
    assert np.array_equal(got, _cover_reference(lo, hi, rows, n_rows, n))


def test_cover_random_ranges_match_position_scan():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n, n_rows, k = int(rng.integers(0, 25)), int(rng.integers(1, 4)), int(rng.integers(0, 12))
        lo, hi = rng.integers(0, n + 1, size=(2, k))
        rows = rng.integers(0, n_rows, size=k)
        assert np.array_equal(cover(lo, hi, rows, n_rows, n),
                              _cover_reference(lo, hi, rows, n_rows, n))


def test_cover_matches_counting_reference():
    # many ranges per row, so same-row ranges overlap, touch and nest
    rng = np.random.default_rng(9)
    for _ in range(300):
        n, n_rows, k = int(rng.integers(0, 60)), int(rng.integers(1, 6)), int(rng.integers(0, 40))
        lo, hi = rng.integers(0, n + 1, size=(2, k))
        rows = rng.integers(0, n_rows, size=k)
        assert np.array_equal(cover(lo, hi, rows, n_rows, n),
                              scoring_reference.cover(lo, hi, rows, n_rows, n))


# ---------------------------------------------------------------------------
# optimal assignment, against scipy's solver
# ---------------------------------------------------------------------------

ASSIGNMENT_COSTS = {
    "gaussian": lambda rng, shape: rng.standard_normal(shape),
    "ternary": lambda rng, shape: rng.integers(0, 3, shape).astype(float),   # full of ties
    "quarter-step": lambda rng, shape: rng.integers(-8, 9, shape) / 4,
}


@pytest.mark.parametrize("kind", sorted(ASSIGNMENT_COSTS))
def test_min_cost_assignment_equals_scipy(kind):
    rng = np.random.default_rng(sorted(ASSIGNMENT_COSTS).index(kind))
    for _ in range(7000):     # shapes 1-8 x 1-8, wide and tall
        cost = ASSIGNMENT_COSTS[kind](rng, tuple(rng.integers(1, 9, size=2)))
        rows, cols = min_cost_assignment(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols), cost


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_min_cost_assignment_of_an_empty_side_is_empty(shape):
    rows, cols = min_cost_assignment(np.zeros(shape))
    assert rows.shape == cols.shape == (0,) and rows.dtype == cols.dtype == np.intp


@pytest.mark.parametrize("call,error,text", [
    (lambda: min_cost_assignment(np.zeros((2, 2, 2))), ValueError,
     "expected a matrix (2-D array), got a 3-D array"),
    (lambda: aggregate_reports([]), ScoringError, "nothing to aggregate"),
], ids=["assignment-rank", "aggregate-nothing"])
def test_scoring_refuses_inputs_it_cannot_score(call, error, text):
    with pytest.raises(error) as e:
        call()
    assert e.type is error and str(e.value) == text


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_min_cost_assignment_refuses_nan_and_minus_inf(shape, bad):
    cost = np.ones(shape)
    cost[1, 1] = bad
    for solve in (min_cost_assignment, linear_sum_assignment):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            solve(cost)


def test_min_cost_assignment_of_a_row_of_inf():
    wide = np.array([[1.0, 2.0, 3.0], [np.inf, np.inf, np.inf]])
    for solve in (min_cost_assignment, linear_sum_assignment):
        with pytest.raises(ValueError, match="infeasible"):
            solve(wide)
    # a tall matrix leaves that row out instead
    rows, cols = min_cost_assignment(np.array([[1.0, 2.0], [np.inf, np.inf], [3.0, 4.0]]))
    assert rows.tolist() == [0, 2] and cols.tolist() == [0, 1]


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


@pytest.mark.parametrize("collar", [-1.0, float("nan"), float("inf")])
def test_negative_or_non_finite_collar_is_a_scoring_error(collar):
    ref = hyp([(0.0, 2.0, "a")])
    with pytest.raises(ScoringError, match="collar"):
        der_score(ref, hyp([(0.5, 1.5, "x")]), collar_s=collar)


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


# ---------------------------------------------------------------------------
# the sorted-cut scorer against the per-cut interval scan it replaced
# ---------------------------------------------------------------------------

def _covers(intervals, t) -> bool:
    return any(s <= t < e for s, e in intervals)


def _by_speaker(timeline) -> dict[str, list[tuple[float, float]]]:
    """Per-speaker merged, non-overlapping interval lists."""
    out: dict[str, list[tuple[float, float]]] = {}
    for start, end, spk in timeline.segments:
        out.setdefault(spk, []).append((start, end))
    return {spk: merge_intervals(iv) for spk, iv in out.items()}


def _der_reference(ref, h, collar_s) -> DerReport:
    """The cell-by-cell scorer: every speaker's interval list is scanned for
    each cut midpoint, and the mapping and error times are summed per cell."""
    if not ref.segments:
        raise ScoringError("reference timeline is empty")
    zones = []
    if collar_s > 0:
        for start, end, _ in ref.segments:
            zones += [(start - collar_s, start + collar_s), (end - collar_s, end + collar_s)]
        zones = merge_intervals(zones)
    bounds = {round(b, 9) for seg in ref.segments + h.segments for b in seg[:2]}
    bounds |= {round(b, 9) for zone in zones for b in zone}
    cuts = sorted(bounds)
    ref_by, hyp_by = _by_speaker(ref), _by_speaker(h)
    cells = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (t0 + t1)
        cells.append((t1 - t0,
                      frozenset(s for s, ivs in ref_by.items() if _covers(ivs, mid)),
                      frozenset(s for s, ivs in hyp_by.items() if _covers(ivs, mid)),
                      not _covers(zones, mid)))

    ref_names = sorted({s for _, r, _, sc in cells if sc for s in r})
    hyp_names = sorted({s for _, _, hs, sc in cells if sc for s in hs})
    mapping = set()
    if ref_names and hyp_names:
        overlap = np.zeros((len(ref_names), len(hyp_names)))
        for dur, r, hs, scored in cells:
            for rs in r if scored else ():
                for s in hs:
                    overlap[ref_names.index(rs), hyp_names.index(s)] += dur
        rows, cols = linear_sum_assignment(-overlap)
        mapping = {(ref_names[i], hyp_names[j]) for i, j in zip(rows, cols) if overlap[i, j] > 0}

    acc = dict.fromkeys(("span", "ref_speaker", "ref_speech", "miss", "fa", "conf",
                         "sad_miss", "sad_fa"), 0.0)
    for dur, r, hs, scored in cells:
        if not scored:
            continue
        nr, nh = len(r), len(hs)
        n_correct = sum(1 for a, b in mapping if a in r and b in hs)
        acc["span"] += dur
        acc["ref_speaker"] += dur * nr
        acc["ref_speech"] += dur * (nr > 0)
        acc["miss"] += dur * max(0, nr - nh)
        acc["fa"] += dur * max(0, nh - nr)
        acc["conf"] += dur * (min(nr, nh) - n_correct)
        acc["sad_miss"] += dur * (nr > 0 and nh == 0)
        acc["sad_fa"] += dur * (nh > 0 and nr == 0)
    if acc["ref_speaker"] <= 0:
        raise ScoringError("no scored reference speech")
    pct = 100.0 / acc["ref_speaker"]
    sad_pct = 100.0 / acc["ref_speech"] if acc["ref_speech"] > 0 else 0.0
    return DerReport(
        der=(acc["miss"] + acc["fa"] + acc["conf"]) * pct, ms=acc["miss"] * pct,
        fa=acc["fa"] * pct, cf=acc["conf"] * pct, sad_ms=acc["sad_miss"] * sad_pct,
        sad_fa=acc["sad_fa"] * sad_pct, total_scored_s=acc["span"],
        ref_speaker_s=acc["ref_speaker"], ref_speech_s=acc["ref_speech"],
        miss_s=acc["miss"], fa_s=acc["fa"], conf_s=acc["conf"],
        sad_miss_s=acc["sad_miss"], sad_fa_s=acc["sad_fa"])


def _assert_matches_reference(ref_segs, hyp_segs, collar_s):
    ref, h = hyp(ref_segs), hyp(hyp_segs)
    try:
        want = dataclasses.asdict(_der_reference(ref, h, collar_s))
    except ScoringError:
        with pytest.raises(ScoringError):
            der_score(ref, h, collar_s=collar_s)
        return
    got = dataclasses.asdict(der_score(ref, h, collar_s=collar_s))
    assert len(got) == 14
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-9), key


@pytest.mark.parametrize("collar", [0.0, 0.25])
@pytest.mark.parametrize("seed", range(24))
def test_scorer_matches_reference_scan(seed, collar):
    rng = np.random.default_rng(500 + seed)
    ref_segs = random_timeline(rng, 2 + seed % 3)
    _assert_matches_reference(ref_segs, corrupt_timeline(rng, ref_segs), collar)


EDGE_CASES = {
    "same_speaker_abutting_and_overlapping": (
        [(0.0, 2.0, "a"), (2.0, 4.0, "a"), (3.0, 5.0, "a"), (4.5, 9.0, "b")],
        [(0.0, 1.0, "x"), (1.0, 3.0, "x"), (2.5, 7.0, "y"), (6.0, 6.5, "y")]),
    "hypothesis_speakers_absent_from_reference": (
        [(0.0, 5.0, "a"), (4.0, 8.0, "b")],
        [(0.0, 5.0, "a"), (1.0, 3.0, "ghost"), (6.0, 9.0, "phantom")]),
    "empty_hypothesis": ([(0.0, 5.0, "a"), (2.0, 6.0, "b")], []),
    "reference_segment_inside_a_collar": (
        [(0.0, 5.0, "a"), (5.1, 5.3, "b"), (8.0, 9.0, "a")],
        [(0.0, 5.2, "a"), (5.2, 5.4, "b"), (8.1, 9.0, "b")]),
    "whole_reference_inside_a_collar": ([(1.0, 1.3, "a")], [(1.0, 1.3, "a")]),
    "off_grid_boundaries": (
        [(0.1 + 0.2, 1.1 + 0.6, "a"), (0.7, 2.9000000000000004, "b"), (1.0 / 3, 0.9, "c")],
        [(0.3, 1.7, "a"), (0.1 * 7, 2.9, "b"), (0.30000000000000004, 2.0 / 3, "b")]),
}


@pytest.mark.parametrize("collar", [0.0, 0.25])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_scorer_edge_cases_match_reference_scan(case, collar):
    _assert_matches_reference(*EDGE_CASES[case], collar)


# ---------------------------------------------------------------------------
# the sort-once scorer against the np.unique scorer it replaced, bit for bit
# ---------------------------------------------------------------------------

def _random_speaker(rng, name, span_s=30.0) -> list:
    """Segments of one speaker that may overlap, touch or nest, on the 10 ms
    grid or off it."""
    segs, grid = [], rng.random() < 0.5
    for _ in range(int(rng.integers(1, 9))):
        if segs and rng.random() < 0.4:
            start, end, _ = segs[int(rng.integers(0, len(segs)))]
            if rng.random() < 0.5:      # touching
                start, end = end, end + float(rng.uniform(0.05, 3.0))
            else:                       # nested, or overlapping past the end
                start = start + float(rng.uniform(0.0, 0.5)) * (end - start)
                end = start + float(rng.uniform(0.01, 2.0)) * (end - start)
        else:
            start = float(rng.uniform(0.0, span_s))
            end = start + float(rng.uniform(0.05, 8.0))
        if grid:
            start, end = round(start, 2), max(round(end, 2), round(start, 2) + 0.01)
        segs.append((start, end, name))
    return segs


def _random_pair(rng) -> tuple[list, list]:
    """1-6 reference and 0-6 hypothesis speakers, some hypothesis names
    unmatched; now and then an empty hypothesis or one near the reference."""
    ref = [seg for i in range(int(rng.integers(1, 7))) for seg in _random_speaker(rng, f"s{i}")]
    if rng.random() < 0.3:
        hyp = corrupt_timeline(rng, ref, span_s=40.0)
    else:
        n_hyp = int(rng.integers(0, 7))
        names = [f"s{i}" if rng.random() < 0.5 else f"x{i}" for i in range(n_hyp)]
        hyp = [seg for name in names for seg in _random_speaker(rng, name)]
    return ref, hyp


def _assert_same_report(ref, h, collar_s):
    try:
        want = scoring_reference.der_score(ref, h, collar_s)
    except ScoringError:
        with pytest.raises(ScoringError):
            der_score(ref, h, collar_s)
        return
    assert dataclasses.asdict(der_score(ref, h, collar_s)) == dataclasses.asdict(want)


def test_scorer_is_bit_identical_to_unique_scorer_on_random_pairs():
    rng = np.random.default_rng(15)
    for _ in range(300):
        ref_segs, hyp_segs = _random_pair(rng)
        for collar in (0.0, 0.25):
            _assert_same_report(hyp(ref_segs), hyp(hyp_segs), collar)


def _score_dense_pair(tmp_path, seed):
    """The two timelines of the benchmark's score_dense workload (4 speakers,
    about 2000 segments a side), read back from its RTTMs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import Score
    finally:
        sys.path.pop(0)
    work = Score()
    work.setup(tmp_path, seed)
    return read_rttm(work.ref_path)["dense"], read_rttm(work.hyp_path)["dense"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scorer_is_bit_identical_on_score_dense_inputs(tmp_path, seed):
    ref, h = _score_dense_pair(tmp_path, seed)
    for collar in (0.0, 0.25):
        _assert_same_report(ref, h, collar)


def test_scorer_peak_memory_is_at_most_the_unique_scorers(tmp_path):
    ref, h = _score_dense_pair(tmp_path, 1)
    peaks = []
    for score in (scoring_reference.der_score, der_score):
        score(ref, h)
        tracemalloc.start()
        score(ref, h)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks


def test_scorer_at_ten_thousand_segments_matches_frame_oracle():
    rng = np.random.default_rng(77)
    ref_segs = []
    for spk in range(4):
        cursor = int(rng.integers(0, 300))
        for _ in range(1400):
            dur = int(rng.integers(80, 600))
            ref_segs.append((cursor / 100, (cursor + dur) / 100, f"spk{spk}"))
            cursor += dur + int(rng.integers(20, 500))
    span = max(e for _, e, _ in ref_segs)
    hyp_segs = corrupt_timeline(rng, ref_segs, span_s=span)
    assert len(ref_segs) + len(hyp_segs) >= 10_000
    ref, h = hyp(ref_segs), hyp(hyp_segs)
    tracemalloc.start()
    rep = der_score(ref, h, collar_s=0.25)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    oracle = frame_der(ref, h, collar_s=0.25)
    for key in ("der", "ms", "fa", "cf", "sad_ms", "sad_fa"):
        assert getattr(rep, key) == pytest.approx(oracle[key], abs=0.05), key
    # a few (speakers, cells) float rows; nothing grows as cells x cells
    assert peak < 12 * 2**20


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
    # a zero duration, and one too small to move a 1e17 s onset
    for tbeg, tdur in (("1.000", "0.000"), ("1e17", "0.001")):
        p.write_text(f"SPEAKER f1 1 {tbeg} {tdur} <NA> <NA> a <NA> <NA>\n")
        with pytest.raises(RttmParseError) as e:
            read_rttm(p)
        assert ":1:" in str(e.value)


def test_segment_without_duration_is_a_scoring_error():
    with pytest.raises(ScoringError, match="no duration"):
        hyp([(1e17, 1e17 + 0.001, "a")])


@pytest.mark.parametrize("seg", [(-np.inf, 5.0), (0.0, np.inf), (np.inf, np.inf),
                                 (np.nan, 1.0)])
def test_non_finite_segment_time_is_a_scoring_error(seg):
    with pytest.raises(ScoringError, match="'b' has a non-finite time"):
        hyp([(0.0, 1.0, "a"), (*seg, "b")])


def test_time_too_large_to_round_is_a_scoring_error():
    # finite, but 1e300 s overflows when rounded to 1 ns
    ref, far = hyp([(0.0, 5.0, "a")]), hyp([(1e300, 1e300 + 1e295, "a")])
    for a, b in ((ref, far), (far, ref)):
        with pytest.raises(ScoringError, match="too large to round to 1 ns"):
            der_score(a, b)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", ["tbeg", "tdur"])
def test_rttm_rejects_non_finite_times(tmp_path, field, value):
    tbeg, tdur = (value, "1.000") if field == "tbeg" else ("1.000", value)
    p = tmp_path / "bad.rttm"
    p.write_text("SPEAKER f1 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n"
                 f"SPEAKER f1 1 {tbeg} {tdur} <NA> <NA> a <NA> <NA>\n")
    with pytest.raises(RttmParseError) as e:
        read_rttm(p)
    assert ":2:" in str(e.value)


def test_rttm_end_too_large_for_a_float_is_a_parse_error(tmp_path):
    # both times are finite, but the end 1e308 + 1e308 is not
    p = tmp_path / "far.rttm"
    p.write_text("SPEAKER f 1 0 1 <NA> <NA> s <NA> <NA>\n"
                 "SPEAKER f 1 1e308 1e308 <NA> <NA> s <NA> <NA>\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RttmParseError,
                           match=f"{re.escape(str(p))}:2: non-finite time field or end"):
            read_rttm(p)


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
