import tracemalloc
import warnings

import numpy as np
import pytest

from earpipe import artifact
from earpipe.artifact import (
    ECG_SCORE_THRESHOLD,
    ECG_SKEW_THRESHOLD,
    ICA_MAX_ITER,
    ICA_TOL,
    AsrConfig,
    ECG_MAX_ITER,
    asr_calibrate,
    asr_process,
    epoch_skewness,
    extract_ecg,
    ica_decompose,
    skew_units,
    _third_moments,
)
from earpipe.cardiac import pan_tompkins
from earpipe.ingest import Recording
from earpipe.montage import builtin_montage_path, load_montage_csv, rereference_linked_mastoid
from earpipe.synth import EcgSynthSpec, EegSynthSpec, gen_ecg, gen_eeg

from oracles import align_sources, asr_process_loop, fixed_point_ica, skew_units_loop
from test_acceptance import ecg_eeg_mixture

RATE = 125.0


def _rec(data: np.ndarray, rate: float = RATE) -> Recording:
    return Recording(rate=rate, labels=[f"ch{i+1}" for i in range(data.shape[0])], data=data)


def laplacian_sources(n_sources: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.laplace(size=(n_sources, n))


# --- ICA ----------------------------------------------------------------------


def test_ica_requires_seed():
    data = laplacian_sources(3, 4000, 0)
    with pytest.raises(ValueError):
        ica_decompose(_rec(data))


def test_ica_requires_enough_samples():
    data = laplacian_sources(4, 60, 0)
    with pytest.raises(ValueError):
        ica_decompose(_rec(data), seed=1)


def test_ica_recovers_mixed_sources():
    rng = np.random.default_rng(21)
    sources = laplacian_sources(3, 6000, 20)
    mixing = rng.normal(size=(3, 3))
    mixed = mixing @ sources
    result = ica_decompose(_rec(mixed), seed=7)
    assert result.converged
    corrs = align_sources(result.sources, sources)
    assert min(corrs) >= 0.95


def test_ica_determinism_bit_identical():
    rng = np.random.default_rng(22)
    data = rng.normal(size=(4, 3000)) + laplacian_sources(4, 3000, 23)
    a = ica_decompose(_rec(data), seed=11)
    b = ica_decompose(_rec(data), seed=11)
    assert np.array_equal(a.unmixing, b.unmixing)
    assert np.array_equal(a.sources, b.sources)
    assert a.n_iter == b.n_iter


def test_ica_reconstruction_identity():
    data = laplacian_sources(4, 5000, 24)
    result = ica_decompose(_rec(data), seed=3)
    recon = result.mixing @ result.sources + result.channel_means[:, None]
    assert np.allclose(recon, data, atol=1e-9)


def test_ica_reduces_on_rank_deficiency():
    sources = laplacian_sources(3, 4000, 25)
    data = np.vstack([sources, sources[0] + sources[1]])  # 4 channels, rank 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the null direction is dropped silently
        result = ica_decompose(_rec(data), seed=5)
    assert result.sources.shape[0] == 3


def test_ica_sources_unit_variance():
    data = laplacian_sources(4, 5000, 26) * 40.0
    result = ica_decompose(_rec(data), seed=9)
    assert np.allclose(result.sources.std(axis=1), 1.0, atol=1e-9)


# --- cardiac-source extraction -------------------------------------------------


def _ecg_mixture(seed: int, rate: float = 250.0, n_eeg: int = 5, rel_db: float = -6.0):
    rec, truth = gen_ecg(EcgSynthSpec(rate=rate, duration_s=60.0, seed=seed, bpm=70.0))
    ecg = rec.data[0]
    rng = np.random.default_rng(seed + 1)
    eeg = rng.normal(size=(n_eeg, len(ecg)))
    gain = 10 ** (rel_db / 20.0) * np.sqrt(np.mean(eeg[0] ** 2)) / np.sqrt(np.mean(ecg**2))
    channels = eeg + np.outer(rng.uniform(0.5, 1.5, n_eeg), gain * ecg)
    return channels, truth


def test_extract_ecg_finds_planted_heartbeat():
    rec = _rec(_ecg_mixture(seed=30)[0], rate=250.0)
    pick = extract_ecg(rec)
    assert pick is not None
    unit = list(skew_units(rec))[pick.index]
    assert unit.held_out_skew >= ECG_SKEW_THRESHOLD
    assert unit.n_iter < ECG_MAX_ITER  # a skewed source converges long before the cap
    assert pick.score >= ECG_SCORE_THRESHOLD
    # one detector pass over the unit as signed
    assert np.array_equal(pick.beats.beat_times, pan_tompkins(unit.source, 250.0).beat_times)


def test_extract_ecg_none_on_noise():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(5, 12000))
    assert extract_ecg(_rec(data, rate=250.0)) is None


def test_extract_ecg_whitens_like_ica():
    sources = laplacian_sources(3, 4000, 25)
    units = list(skew_units(_rec(np.vstack([sources, sources[0] + sources[1]]))))
    assert len(units) == 3
    # two epochs, but fewer than 20 samples per channel
    with pytest.raises(ValueError, match="need at least 1280 samples for 64 channels"):
        extract_ecg(_rec(laplacian_sources(64, 1250, 27)))


def test_extract_ecg_refuses_a_rate_below_the_detector_minimum_before_whitening(monkeypatch):
    def must_not_whiten(*args, **kwargs):
        raise AssertionError("whitened data the detector cannot take")

    monkeypatch.setattr(artifact, "_whiten", must_not_whiten)
    assert extract_ecg(_rec(_ecg_mixture(seed=30, rate=99.0)[0], rate=99.0)) is None


def test_segment_shorter_than_two_epochs_gets_no_pick():
    # 2.4 s: too short to whiten 16 channels, and shorter than two epochs
    rec = _rec(laplacian_sources(16, 300, 28))
    assert list(skew_units(rec)) == []
    assert extract_ecg(rec) is None


def test_third_moments_match_einsum(monkeypatch):
    fit = laplacian_sources(5, 3001, 29)
    # chunks of 41 samples, the last one shorter
    monkeypatch.setattr(artifact, "MOMENT_CHUNK_ELEMS", 41 * 15)
    m3, mu = _third_moments(fit)
    want = np.einsum("in,jn,ln->ijl", fit, fit, fit) / fit.shape[1]
    assert m3.shape == (5, 25)
    assert np.allclose(m3.reshape(5, 5, 5), want, rtol=1e-12, atol=1e-12)
    assert np.allclose(mu, fit.mean(axis=1), rtol=1e-12, atol=1e-15)


def _oracle_cases():
    yield "acceptance 9", ecg_eeg_mixture(250.0)[0]
    yield "planted heartbeat", _rec(_ecg_mixture(seed=30)[0], rate=250.0)
    for rate in (125.0, 250.0):
        for duration_s in (20.0, 60.0):
            for seed in (100, 101, 102):
                data = _noise("pink", seed, 16, rate, duration_s)
                yield f"pink {rate:g} Hz {duration_s:g} s seed {seed}", _rec(data, rate)


def test_skew_units_match_the_per_sample_loop():
    # A unit the loop stops before the cap takes the same steps to the same
    # direction. A capped unit only rotates in a near-Gaussian remainder, so
    # its end, and every unit deflated against it, is not pinned.
    compared = 0
    for name, rec in _oracle_cases():
        want = list(skew_units_loop(rec))
        got = list(skew_units(rec))
        assert len(got) == len(want), name
        for a, b in zip(want, got):
            if a.n_iter == ECG_MAX_ITER:
                break
            assert b.n_iter == a.n_iter, (name, a.index)
            assert np.max(np.abs(b.source - a.source)) <= 1e-9, (name, a.index)
            assert abs(b.held_out_skew - a.held_out_skew) <= 1e-9, (name, a.index)
            compared += 1
    assert compared >= 40


def test_extract_ecg_picks_as_with_the_per_sample_loop(monkeypatch):
    cases = list(_oracle_cases())
    picks = [extract_ecg(rec) for _, rec in cases]
    monkeypatch.setattr(artifact, "skew_units", skew_units_loop)
    want = [extract_ecg(rec) for _, rec in cases]
    assert sum(p is not None for p in want) == 2  # the two heartbeat mixtures
    for (name, _), got, ref in zip(cases, picks, want):
        assert (got is None) == (ref is None), name
        if ref is not None:
            assert got.index == ref.index, name
            assert np.array_equal(got.beats.beat_times, ref.beats.beat_times), name


@pytest.mark.parametrize("rate", [125.0, 250.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_detect_beats_times_the_r_wave_in_either_polarity(rate, sign):
    for seed in range(3):
        spec = EcgSynthSpec(rate=rate, duration_s=60.0, seed=seed)
        rec, truth = gen_ecg(spec)
        noise = np.random.default_rng(100 + seed).normal(size=rec.n_samples)
        x = rec.data[0] + 0.05 * spec.r_amplitude_uv * noise
        pick = extract_ecg(_rec(sign * x[None, :], rate))
        assert pick is not None, (seed, sign)
        err = np.abs(truth.beat_times[:, None] - pick.beats.beat_times[None, :]).min(axis=1)
        assert np.median(err) <= 1.0 / rate, (seed, sign)


def test_ecg_score_polarity_invariant():
    rec, _ = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=60.0, seed=32, bpm=66.0))
    x = rec.data[0] / rec.data[0].std()
    pick = extract_ecg(_rec(x[None, :], 250.0))
    flipped = extract_ecg(_rec(-x[None, :], 250.0))
    assert np.array_equal(pick.beats.beat_times, flipped.beats.beat_times)
    assert pick.score == pytest.approx(flipped.score, abs=1e-12)


# Over 1000 seeds per kind and rate the largest |epoch_skewness| of a
# 60 s noise channel was 0.21 (pink, 125 Hz); the gate sits above twice that.
NULL_MARGIN = 2.0


def _noise(kind: str, seed: int, n_channels: int, rate: float, duration_s: float = 60.0):
    if kind == "gaussian":
        return np.random.default_rng(seed).normal(size=(n_channels, int(duration_s * rate)))
    spec = EegSynthSpec(rate=rate, duration_s=duration_s, seed=seed, n_channels=n_channels,
                        band_components=())
    return gen_eeg(spec).data


@pytest.mark.parametrize("kind", ["gaussian", "pink"])
def test_no_heartbeat_found_in_noise(kind):
    skews, picks, signals = [], 0, 0
    for rate in (125.0, 250.0):
        for seed in range(50):
            x = _noise(kind, seed, 1, rate)[0]
            skews.append(abs(epoch_skewness(x, rate)))
            # the one-channel decision of `earpipe ecg`
            picks += extract_ecg(_rec(x[None, :], rate)) is not None
            signals += 1
        # the extraction maximises skewness, so only its held-out skewness
        # can be held to the single-channel null
        for duration_s in (5.0, 10.0, 20.0, 60.0):
            for seed in range(3):
                rec = _rec(_noise(kind, 100 + seed, 16, rate, duration_s), rate)
                units = list(skew_units(rec))
                if duration_s < 10.0:
                    assert units == []  # fewer than two epochs: nothing is fitted
                if duration_s == 60.0:
                    skews.extend(abs(u.held_out_skew) for u in units)
                picks += extract_ecg(rec) is not None
                signals += len(units)
    assert signals >= 100
    assert picks == 0
    assert max(skews) * NULL_MARGIN <= ECG_SKEW_THRESHOLD


def test_epoch_skewness_separates_heartbeat_from_burst():
    rate = 250.0
    rec, _ = gen_ecg(EcgSynthSpec(rate=rate, duration_s=60.0, seed=33, bpm=70.0))
    ecg = rec.data[0]
    assert epoch_skewness(ecg, rate) >= 2.0 * ECG_SKEW_THRESHOLD
    assert epoch_skewness(-ecg, rate) == -epoch_skewness(ecg, rate)
    # a one-sided burst skews the whole signal but only one epoch
    x = np.random.default_rng(34).normal(size=ecg.shape)
    x[1000:1250] += 40.0 * np.abs(np.random.default_rng(35).normal(size=250))
    whole = x - x.mean()
    assert np.mean(whole**3) / np.mean(whole**2) ** 1.5 > ECG_SKEW_THRESHOLD
    assert abs(epoch_skewness(x, rate)) * NULL_MARGIN <= ECG_SKEW_THRESHOLD
    assert epoch_skewness(x[: int(4.9 * rate)], rate) == 0.0


# --- burst rejection ------------------------------------------------------------


def gaussian_rec(seed: int, n_ch: int = 8, duration_s: float = 60.0) -> Recording:
    rng = np.random.default_rng(seed)
    return _rec(rng.normal(scale=10.0, size=(n_ch, int(duration_s * RATE))))


def test_calibration_needs_enough_windows():
    short = gaussian_rec(40, duration_s=5.0)
    with pytest.raises(ValueError, match="10"):
        asr_calibrate(short, AsrConfig())


def test_calibration_holds_at_most_one_copy_of_the_segment():
    rec = gaussian_rec(40, n_ch=16, duration_s=120.0)
    rec.data[:, 2000:2300] *= 30.0  # windows 16-18 are left out of the fit
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        model = asr_calibrate(rec, AsrConfig())
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert model.calib_windows_used < 120
    assert peak < 2 * rec.data.nbytes


def test_clean_data_passes_through_exactly():
    rec = gaussian_rec(41)
    cfg = AsrConfig()
    model = asr_calibrate(rec, cfg)
    out, flagged = asr_process(rec, model, cfg)
    assert np.array_equal(out.data, rec.data)
    assert flagged == []


def test_burst_attenuated_in_window():
    rec = gaussian_rec(42)
    clean = rec.data.copy()
    i0, i1 = int(30.0 * RATE), int(30.5 * RATE)
    rec.data[2, i0:i1] += 10.0 * 10.0 * np.sign(np.random.default_rng(1).normal(size=i1 - i0))
    cfg = AsrConfig()
    model = asr_calibrate(rec, cfg)
    out, _ = asr_process(rec, model, cfg)
    burst_rms_before = np.sqrt(np.mean((rec.data[2, i0:i1] - clean[2, i0:i1]) ** 2))
    residual = np.sqrt(np.mean((out.data[2, i0:i1] - clean[2, i0:i1]) ** 2))
    assert residual < 0.5 * burst_rms_before
    # far-away samples untouched within tolerance
    far = slice(0, int(10 * RATE))
    rel = np.sqrt(np.mean((out.data[2, far] - clean[2, far]) ** 2)) / np.sqrt(
        np.mean(clean[2, far] ** 2)
    )
    assert rel < 0.05


def test_huge_burst_k_is_exact_identity():
    rec = gaussian_rec(43)
    rec.data[1, 1000:1100] += 500.0
    cfg = AsrConfig(burst_k=1e9)
    model = asr_calibrate(rec, cfg)
    out, flagged = asr_process(rec, model, cfg)
    assert np.array_equal(out.data, rec.data)
    assert flagged == []


def test_window_criterion_controls_flagging():
    cfg = AsrConfig(window_criterion=0.15)
    rec = gaussian_rec(44, n_ch=16, duration_s=120.0)
    model = asr_calibrate(rec, cfg)
    # bursts aligned with basis components so the bad-component count is exact
    i0, i1 = int(60.0 * RATE), int(60.5 * RATE)
    few = rec.copy()
    few.data[:, i0:i1] += 3000.0 * model.basis[:, :1].sum(axis=1, keepdims=True)
    _, flagged_few = asr_process(few, model, cfg)
    many = rec.copy()
    many.data[:, i0:i1] += 3000.0 * model.basis[:, :3].sum(axis=1, keepdims=True)
    _, flagged_many = asr_process(many, model, cfg)
    # 1/16 = 0.0625 stays under the criterion, 3/16 = 0.1875 exceeds it
    assert all(not (w.start_s <= 60.25 <= w.end_s) for w in flagged_few)
    assert any(w.start_s <= 60.25 <= w.end_s for w in flagged_many)


def test_flagged_window_reports_time_and_fraction():
    cfg = AsrConfig()
    rec = gaussian_rec(45, n_ch=4, duration_s=60.0)
    model = asr_calibrate(rec, cfg)
    i0, i1 = int(30.0 * RATE), int(30.4 * RATE)
    rec.data[:, i0:i1] += 2000.0 * model.basis[:, :2].sum(axis=1, keepdims=True)
    _, flagged = asr_process(rec, model, cfg)
    hits = [w for w in flagged if w.start_s <= 30.2 <= w.end_s]
    assert hits
    assert all(0.0 < w.bad_fraction <= 1.0 for w in hits)


def rereferenced_bursts(seed: int, duration_s: float = 60.0) -> Recording:
    """16 channels of noise, linked-mastoid re-referenced (rank 15), with a
    strong 1 s burst at 15 s and 45 s and a weak one at 30 s."""
    rec = gaussian_rec(seed, n_ch=16, duration_s=duration_s)
    rng = np.random.default_rng(seed + 1)
    for start_s, uv in ((15.0, 25.0), (30.0, 4.0), (45.0, 25.0)):
        i0 = int(start_s * RATE)
        burst = rng.normal(size=(16, 1)) * rng.normal(size=(1, int(RATE)))
        rec.data[:, i0 : i0 + int(RATE)] += uv * burst
    return rereference_linked_mastoid(rec, load_montage_csv(builtin_montage_path()))


def test_asr_leaves_the_null_direction_of_a_rereferenced_montage_out():
    rec = rereferenced_bursts(47)
    cfg = AsrConfig()
    model = asr_calibrate(rec, cfg)
    assert model.basis.shape == (16, 15)
    assert np.allclose(model.basis.T @ model.basis, np.eye(15))
    _, flagged = asr_process(rec, model, cfg)
    assert flagged
    # a last-digit change of the data moves no window in or out, and no fraction
    _, again = asr_process(rec.with_data(rec.data * (1 + 1e-13)), model, cfg)
    assert [(w.index, w.bad_fraction) for w in again] == [
        (w.index, w.bad_fraction) for w in flagged
    ]
    assert all(w.bad_fraction * 15 == round(w.bad_fraction * 15) for w in flagged)


@pytest.mark.parametrize("seed, duration_s, proc_win_s", [(48, 60.0, 0.5), (49, 61.3, 0.5),
                                                          (50, 50.0, 0.23)])
def test_asr_matches_per_window_loop(seed, duration_s, proc_win_s):
    # duration and window put the last window off the hop grid; 0.23 s is
    # 29 samples, an odd window with a hop of 14
    rec = rereferenced_bursts(seed, duration_s)
    cfg = AsrConfig(proc_win_s=proc_win_s)
    model = asr_calibrate(rec, cfg)
    out, flagged = asr_process(rec, model, cfg)
    want, want_flagged = asr_process_loop(rec, model, cfg)
    assert flagged and flagged == want_flagged
    assert not np.array_equal(out.data, rec.data)
    assert np.max(np.abs(out.data - want.data)) <= 1e-12 * np.max(np.abs(rec.data))


def test_calibration_excludes_artifact_windows():
    rec = gaussian_rec(46, n_ch=4, duration_s=60.0)
    rec.data[0, 5000:5200] += 1e4  # one contaminated stretch
    model = asr_calibrate(rec, AsrConfig())
    assert model.calib_windows_used < 60
    assert model.calib_windows_used >= 10


@pytest.mark.parametrize("shape, seed", [((3, 4000), 5), ((6, 2000), 9)])
def test_ica_matches_textbook_loop_bit_for_bit(shape, seed):
    # the reused work buffers must leave every iterate exactly as the
    # fresh-array loop computes it; tol=0 runs all max_iter steps
    rng = np.random.default_rng(seed)
    mixed = rng.normal(size=(shape[0], shape[0])) @ laplacian_sources(*shape, seed)
    result = ica_decompose(_rec(mixed), seed=seed, max_iter=50, tol=0.0)
    unmixing, mixing, sources, n_iter = fixed_point_ica(mixed, seed, max_iter=50, tol=0.0)
    assert result.n_iter == n_iter == 50
    assert not result.converged
    assert np.array_equal(result.unmixing, unmixing)
    assert np.array_equal(result.mixing, mixing)
    assert np.array_equal(result.sources, sources)


def test_ica_matches_textbook_loop_until_convergence():
    rng = np.random.default_rng(21)
    mixed = rng.normal(size=(3, 3)) @ laplacian_sources(3, 6000, 20)
    result = ica_decompose(_rec(mixed), seed=7)
    unmixing, _, sources, n_iter = fixed_point_ica(mixed, 7, max_iter=ICA_MAX_ITER, tol=ICA_TOL)
    assert result.converged
    assert result.n_iter == n_iter
    assert np.array_equal(result.unmixing, unmixing)
    assert np.array_equal(result.sources, sources)
