import numpy as np
import pytest

from earpipe.cardiac import (
    REFRACTORY_S,
    BeatSeries,
    match_beats,
    paired_rr,
    pan_tompkins,
    rr_outlier_filter,
    rr_periods,
)
from earpipe.synth import EcgSynthSpec, gen_ecg

from oracles import fir_response, match_beats_loop, pan_tompkins_loop


def noisy_ecg(bpm: float, rate: float, snr_db: float, seed: int, duration_s: float = 60.0):
    rec, truth = gen_ecg(
        EcgSynthSpec(rate=rate, duration_s=duration_s, seed=seed, bpm=bpm, rr_jitter_ms=25.0)
    )
    x = rec.data[0]
    rng = np.random.default_rng(seed + 1000)
    noise_std = np.sqrt(np.mean(x**2)) / 10 ** (snr_db / 20.0)
    return x + rng.normal(scale=noise_std, size=x.shape), truth


def detection_scores(beats: BeatSeries, truth: BeatSeries, tol_s: float = 0.05):
    m = match_beats(truth, beats, tolerance_s=tol_s)
    tp = len(m.pairs)
    sens = tp / len(truth)
    prec = tp / len(beats) if len(beats) else 0.0
    return sens, prec, m


def test_beat_series_validation():
    with pytest.raises(ValueError):
        BeatSeries(beat_times=np.array([1.0, 1.05]))  # inside refractory
    with pytest.raises(ValueError):
        BeatSeries(beat_times=np.array([[1.0]]))


def test_rejects_low_rate_and_short_signal():
    with pytest.raises(ValueError):
        pan_tompkins(np.zeros(1000), rate=50.0)
    with pytest.raises(ValueError):
        pan_tompkins(np.zeros(200), rate=250.0)


def test_clean_ecg_all_beats_found():
    rec, truth = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=60.0, seed=2, bpm=70.0))
    beats = pan_tompkins(rec.data[0], 250.0)
    sens, prec, _ = detection_scores(beats, truth)
    assert sens == 1.0 and prec == 1.0


def test_detection_inverted_polarity():
    rec, truth = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=60.0, seed=3, bpm=65.0))
    beats = pan_tompkins(-rec.data[0], 250.0)
    # detector is one-sided; the caller tries both polarities
    flipped = pan_tompkins(rec.data[0] * -1.0, 250.0)
    assert len(flipped) == len(beats)


def test_noisy_ecg_high_sensitivity():
    x, truth = noisy_ecg(bpm=75.0, rate=250.0, snr_db=10.0, seed=4)
    beats = pan_tompkins(x, 250.0)
    sens, prec, _ = detection_scores(beats, truth)
    assert sens >= 0.99
    assert prec >= 0.99


def test_qrs_bandpass_passes_10hz_blocks_edges():
    from earpipe.cardiac import _bandpass_qrs

    rate = 250.0
    impulse = np.zeros(2001)
    impulse[1000] = 1.0
    h = _bandpass_qrs(impulse, rate)
    mid = abs(fir_response(h, 10.0, rate))
    low = abs(fir_response(h, 0.5, rate))
    high = abs(fir_response(h, 40.0, rate))
    assert mid > 5 * low
    assert mid > 5 * high


def test_rr_periods_values():
    beats = BeatSeries(beat_times=np.array([0.0, 1.0, 1.8, 2.9]))
    rr = rr_periods(beats)
    assert np.allclose(rr.intervals_ms, [1000.0, 800.0, 1100.0])
    assert np.allclose(rr.anchored_at_s, [0.0, 1.0, 1.8])


def test_rr_periods_needs_two_beats():
    with pytest.raises(ValueError):
        rr_periods(BeatSeries(beat_times=np.array([1.0])))


def test_outlier_filter_drops_extremes():
    rng = np.random.default_rng(5)
    rr = 900.0 + rng.normal(scale=30.0, size=200)
    rr[50] = 3200.0  # missed beat
    rr[120] = 150.0  # double detection
    anchors = np.cumsum(rr) / 1000.0
    from earpipe.cardiac import RrSeries

    series = RrSeries(intervals_ms=rr, anchored_at_s=anchors)
    result = rr_outlier_filter(series)
    assert (~result.kept_mask).sum() == 2
    assert not result.kept_mask[50]
    assert not result.kept_mask[120]


def test_outlier_filter_clean_drop_rate_below_one_percent():
    from earpipe.cardiac import RrSeries

    rates = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rr = 1000.0 + rng.normal(scale=20.0, size=500)
        series = RrSeries(intervals_ms=rr, anchored_at_s=np.cumsum(rr) / 1000.0)
        rates.append((~rr_outlier_filter(series).kept_mask).sum() / 500)
    assert np.mean(rates) < 0.01


def test_outlier_filter_constant_series_untouched():
    from earpipe.cardiac import RrSeries

    rr = np.full(50, 1000.0)
    series = RrSeries(intervals_ms=rr, anchored_at_s=np.cumsum(rr) / 1000.0)
    result = rr_outlier_filter(series)
    assert result.kept_mask.all()


def test_match_beats_identical():
    beats = BeatSeries(beat_times=np.arange(0.0, 30.0, 0.8))
    m = match_beats(beats, beats, tolerance_s=0.15)
    assert len(m.pairs) == len(beats)
    assert m.unmatched_ref == 0 and m.unmatched_alt == 0


def test_match_beats_alt_missing_every_tenth():
    times = np.arange(0.0, 80.0, 0.8)
    keep = np.array([i % 10 != 9 for i in range(len(times))])
    ref = BeatSeries(beat_times=times)
    alt = BeatSeries(beat_times=times[keep])
    m = match_beats(ref, alt, tolerance_s=0.15)
    assert m.unmatched_ref == len(times) // 10
    assert m.unmatched_alt == 0
    assert len(m.pairs) == keep.sum()


def test_match_beats_symmetric_counts():
    rng = np.random.default_rng(7)
    a = BeatSeries(beat_times=np.sort(rng.uniform(0, 60, 50)) + np.arange(50) * 0.5)
    b_times = a.beat_times[: 40] + rng.normal(scale=0.02, size=40)
    b = BeatSeries(beat_times=np.sort(b_times))
    fwd = match_beats(a, b, tolerance_s=0.1)
    rev = match_beats(b, a, tolerance_s=0.1)
    assert len(fwd.pairs) == len(rev.pairs)
    assert fwd.unmatched_ref == rev.unmatched_alt
    assert fwd.unmatched_alt == rev.unmatched_ref


def test_match_beats_respects_tolerance():
    ref = BeatSeries(beat_times=np.array([1.0, 2.0, 3.0]))
    alt = BeatSeries(beat_times=np.array([1.05, 2.5, 3.02]))
    m = match_beats(ref, alt, tolerance_s=0.1)
    assert len(m.pairs) == 2
    assert m.unmatched_ref == 1 and m.unmatched_alt == 1


@pytest.mark.parametrize("tolerance", [0.0, -0.1, float("nan")])
def test_match_beats_refuses_a_tolerance_that_is_not_positive(tolerance):
    beats = BeatSeries(beat_times=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=f"^tolerance must be positive, got {tolerance}$"):
        match_beats(beats, beats, tolerance_s=tolerance)


def test_paired_rr_requires_consecutive_matches():
    # alt misses the middle beat: no R-R pair may straddle the gap
    ref = BeatSeries(beat_times=np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    alt = BeatSeries(beat_times=np.array([0.0, 1.0, 3.0, 4.0]))
    m = match_beats(ref, alt, tolerance_s=0.1)
    rr_ref, rr_alt = paired_rr(m, ref, alt)
    assert len(rr_ref) == 2  # (0,1) and (3,4) only
    assert np.allclose(rr_ref, [1000.0, 1000.0])
    assert np.allclose(rr_alt, [1000.0, 1000.0])


def test_rr_error_under_noise_is_small():
    x, truth = noisy_ecg(bpm=60.0, rate=250.0, snr_db=10.0, seed=8)
    beats = pan_tompkins(x, 250.0)
    m = match_beats(truth, beats, tolerance_s=0.05)
    rr_ref, rr_alt = paired_rr(m, truth, beats)
    assert np.mean(np.abs(rr_alt - rr_ref)) <= 4.0


def _detector_case(seed: int, rate: float) -> np.ndarray:
    """A seeded detector input: Gaussian noise (seed 0 mod 3), an ECG whose
    weak last beat is overdue only at the end of the signal (1 mod 3),
    or a noisy ECG with weakened beats and a zeroed stretch (2 mod 3)."""
    rng = np.random.default_rng(seed)
    n = int(20.0 * rate)
    if seed % 3 == 0:
        return rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
    bpm = rng.uniform(45.0, 150.0)
    rec, truth = gen_ecg(EcgSynthSpec(rate=rate, duration_s=20.0, seed=seed, bpm=bpm))
    x = rec.data[0]
    h = int(0.1 * rate)
    if seed % 3 == 1:
        # between half the threshold and the threshold, with no peak left
        # after it to trigger the loop's search-back
        i = int(truth.beat_times[-1] * rate)
        x[max(0, i - h) : i + h] *= rng.uniform(0.38, 0.47)
        end = min(n, int((truth.beat_times[-1] + 0.75 * 60.0 / bpm) * rate))
        return x[:end] + rng.normal(scale=rng.uniform(0.0, 5.0), size=end)
    for b in truth.beat_times:
        if rng.uniform() < 0.2:
            i = int(b * rate)
            x[max(0, i - h) : i + h] *= rng.uniform(0.05, 0.4)
    i = rng.integers(n - int(2 * rate))
    x[i : i + rng.integers(int(2 * rate))] = 0.0
    return x + rng.normal(scale=rng.uniform(0.0, 300.0), size=n)


def test_pan_tompkins_matches_the_two_search_back_detector():
    fired = {"loop": 0, "tail": 0}
    for rate in (100.0, 125.0, 250.0, 500.0):
        for seed in range(15):
            x = _detector_case(seed, rate)
            want, hits = pan_tompkins_loop(x, rate)
            assert np.array_equal(pan_tompkins(x, rate).beat_times, want), (rate, seed)
            for where, count in hits.items():
                fired[where] += count > 0
    # cases where each search-back accepted a beat
    assert fired["loop"] >= 10 and fired["tail"] >= 5, fired


def test_pan_tompkins_keeps_its_beats_a_refractory_period_apart_at_101_hz():
    # at 101 Hz, 200 ms is 20.2 samples: a 20-sample refractory period let
    # a spike 20 samples after a beat stand as a beat of its own
    rate = 101.0
    for seed in range(4):
        rec, truth = gen_ecg(EcgSynthSpec(rate=rate, duration_s=30.0, seed=seed, bpm=90.0))
        rng = np.random.default_rng(seed)
        x = rec.data[0] + rng.normal(scale=20.0, size=rec.n_samples)
        for b in truth.beat_times[::3]:
            x[int(round(b * rate)) + 20] += 600.0
        beats = pan_tompkins(x, rate)
        assert len(beats) > 0
        assert np.all(np.diff(beats.beat_times) >= REFRACTORY_S), seed


def _grid_beats(rng, n: int) -> np.ndarray:
    # times on a 10 ms grid, so that distances tie exactly
    return np.round(np.cumsum(rng.choice(np.arange(0.2, 1.25, 0.05), n)), 2)


def test_match_beats_matches_the_six_branch_matcher():
    ties = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        ref = _grid_beats(rng, rng.integers(0, 30))
        alt = np.round(ref + rng.choice([-0.1, -0.05, 0.0, 0.05, 0.1, 0.2], len(ref)), 2)
        alt = np.unique(np.concatenate([alt[rng.uniform(size=len(alt)) > 0.2],
                                        _grid_beats(rng, rng.integers(0, 10))]))
        kept: list[float] = []
        for t in alt:
            if not kept or t - kept[-1] >= 0.2 - 1e-9:
                kept.append(t)
        alt = np.array(kept)
        tolerance = float(rng.choice([0.05, 0.1, 0.15]))
        m = match_beats(BeatSeries(ref), BeatSeries(alt), tolerance)
        assert (m.pairs, m.unmatched_ref, m.unmatched_alt) == match_beats_loop(ref, alt, tolerance)
        d_next_ref = np.abs(ref[1:, None] - alt[None, :-1])
        ties += np.any(d_next_ref == np.abs(ref[:-1, None] - alt[None, 1:]))
    assert ties >= 50
