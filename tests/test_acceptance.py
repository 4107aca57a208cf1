"""End-to-end acceptance checks, one per shipped guarantee.

Each test carries an `acceptance` marker; the terminal summary lists
them with a PASS/FAIL verdict. Runtime budgets are asserted inside the
tests with a monotonic clock around the work being budgeted.
"""

import json
import time

import numpy as np
import pytest

from earpipe.artifact import (
    AsrConfig,
    asr_calibrate,
    asr_process,
    extract_ecg,
    ica_decompose,
)
from earpipe.cardiac import match_beats, paired_rr, pan_tompkins
from earpipe.cli import main as cli_main
from earpipe.filters import FirSpec, apply_zero_phase_array, design_fir
from earpipe.ingest import (
    ADC_FULL_SCALE,
    counts_to_microvolts,
    encode_stream,
    parse_stream,
    save_events_csv,
    save_session_csv,
)
from earpipe.pipeline import _json_dump, load_config, run_pipeline
from earpipe.spectral import read_band_table
from earpipe.stats import (
    bland_altman,
    fit_quadratic_orthogonal,
    orthogonal_poly_basis,
    pairwise_contrasts,
)
from earpipe.synth import BergerSpec, EcgSynthSpec, EegSynthSpec, berger_session, gen_ecg, gen_eeg

from oracles import (
    RawPacket, align_sources, fir_response, normal_equations, psd_one_window, welch_psd,
)


def make_packet(sn, words, footer_tag=0):
    return RawPacket(sample_number=sn, channel_words=tuple(words), footer_tag=footer_tag).encode()


@pytest.mark.acceptance(1, "Berger effect: closed-eyes alpha rises >= 6 dB, theta/beta flat")
def test_berger_effect_detection(tmp_path):
    rec = berger_session(BergerSpec(seed=0))
    save_session_csv(rec, tmp_path / "session.csv")
    save_events_csv(rec.events, tmp_path / "events.csv")
    (tmp_path / "run.ini").write_text(
        f"""
[input]
session = {tmp_path / 'session.csv'}
events = {tmp_path / 'events.csv'}

[output]
dir = {tmp_path / 'out'}

[pipeline]
ica_seed = 1
"""
    )
    cfg = load_config(tmp_path / "run.ini")
    t0 = time.monotonic()
    run_pipeline(cfg)
    elapsed = time.monotonic() - t0

    rows = read_band_table(tmp_path / "out" / "bands.csv")
    med = {
        (band, cond): float(
            np.median([r.power_db for r in rows if r.band == band and r.condition == cond])
        )
        for band in ("theta", "alpha", "beta")
        for cond in ("eyes_open", "eyes_closed")
    }
    assert med[("alpha", "eyes_closed")] - med[("alpha", "eyes_open")] >= 6.0
    assert abs(med[("theta", "eyes_closed")] - med[("theta", "eyes_open")]) < 1.5
    assert abs(med[("beta", "eyes_closed")] - med[("beta", "eyes_open")]) < 1.5
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s, budget is 10s"


@pytest.mark.acceptance(2, "Welch PSD: Parseval within 5% and 10 Hz peak in bin 20/21")
def test_welch_parseval_and_peak_bin():
    t0 = time.monotonic()
    rate = 125.0
    rng = np.random.default_rng(12)
    x = rng.normal(size=int(60 * rate))
    psd = welch_psd(x, rate, seg=256, overlap=64)
    df = psd.freqs[1] - psd.freqs[0]
    total = float(np.sum(psd.power[0]) * df)
    assert abs(total - x.var()) / x.var() < 0.05

    t = np.arange(int(60 * rate)) / rate
    sine = np.sin(2 * np.pi * 10.0 * t)
    peak = int(np.argmax(welch_psd(sine, rate, seg=256, overlap=64).power[0]))
    assert peak in (20, 21)
    freqs_o, p_o = psd_one_window(sine[:256], rate)
    assert int(np.argmax(p_o)) == peak
    # single-window estimate agrees with the direct-DFT oracle
    one = welch_psd(sine[:256], rate, seg=256, overlap=0)
    assert np.allclose(one.power[0], p_o, rtol=1e-8, atol=1e-15)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


@pytest.mark.acceptance(3, "FIR: DC gains, 60 Hz attenuation >= 20 dB, zero phase")
def test_fir_contracts():
    rate = 125.0
    hp = design_fir(FirSpec("highpass", 1.0, 500, "hann"), rate)
    lp = design_fir(FirSpec("lowpass", 45.0, 100, "hann"), rate)
    assert abs(fir_response(hp.taps, 0.0, rate)) < 1e-6
    assert abs(abs(fir_response(lp.taps, 0.0, rate)) - 1.0) <= 1e-6
    att_db = -20.0 * np.log10(abs(fir_response(lp.taps, 60.0, rate)))
    assert att_db >= 20.0

    # zero phase: peak cross-correlation between input and output at lag 0
    rng = np.random.default_rng(5)
    x = rng.normal(size=4000)
    y = apply_zero_phase_array(x, lp)
    inner = slice(lp.group_delay, len(x) - lp.group_delay)
    lags = range(-5, 6)
    xc = [float(np.dot(x[inner], np.roll(y, lag)[inner])) for lag in lags]
    assert lags[int(np.argmax(xc))] == 0


@pytest.mark.acceptance(4, "Pan-Tompkins: 10 dB SNR sweep, sens/prec >= 0.99, RR <= 4 ms")
def test_pan_tompkins_sweep():
    t0 = time.monotonic()
    for rate in (1000.0, 250.0):
        for bpm in (60.0, 80.0, 100.0, 120.0):
            rec, truth = gen_ecg(
                EcgSynthSpec(rate=rate, duration_s=60.0, seed=int(bpm), bpm=bpm,
                             rr_jitter_ms=20.0)
            )
            x = rec.data[0]
            rng = np.random.default_rng(int(rate + bpm))
            noise_std = np.sqrt(np.mean(x**2)) / 10 ** (10.0 / 20.0)
            beats = pan_tompkins(x + rng.normal(scale=noise_std, size=x.shape), rate)
            match = match_beats(truth, beats, tolerance_s=0.05)
            sens = len(match.pairs) / len(truth)
            prec = len(match.pairs) / len(beats)
            assert sens >= 0.99, f"sensitivity {sens:.3f} at {bpm} bpm, {rate} Hz"
            assert prec >= 0.99, f"precision {prec:.3f} at {bpm} bpm, {rate} Hz"
            if rate == 250.0:
                rr_ref, rr_alt = paired_rr(match, truth, beats)
                err = float(np.mean(np.abs(rr_alt - rr_ref)))
                assert err <= 4.0, f"RR error {err:.2f} ms at {bpm} bpm"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"sweep took {elapsed:.1f}s, budget is 5s"


@pytest.mark.acceptance(5, "Bland-Altman: LoA recovery, exact identity, report fixture")
def test_bland_altman_recovery(tmp_path):
    rng = np.random.default_rng(20)
    ref = rng.normal(1000.0, 50.0, 2000)
    alt = ref + rng.normal(0.0, 20.0, 2000)
    report = bland_altman(ref, alt)
    assert abs(report["gaussian_loa_ms"] - 39.2) / 39.2 < 0.10

    same = bland_altman(ref, ref)
    assert same["mean_abs_diff_ms"] == 0.0
    assert same["mean_diff_ms"] == 0.0
    assert same["gaussian_loa_ms"] == 0.0
    assert same["pearson_r"] == 1.0

    fixture = {
        "n": 313,
        "mean_abs_diff_ms": 1.6,
        "mean_diff_ms": 0.0,
        "gaussian_loa_ms": 81.0,
        "nonparametric_loa_ms": 9.8,
        "pearson_r": 0.94,
        "percentile_loa_ms": [-80.0, 80.0],
    }
    _json_dump(fixture, tmp_path / "bland_altman.json")
    back = json.loads((tmp_path / "bland_altman.json").read_text())
    assert back["mean_abs_diff_ms"] == 1.6
    assert back["gaussian_loa_ms"] == 81.0
    assert back["nonparametric_loa_ms"] == 9.8
    assert back["pearson_r"] == 0.94


@pytest.mark.acceptance(6, "ICA: 3 Laplacian sources recovered at |corr| >= 0.95, deterministic")
def test_ica_source_recovery():
    from earpipe.ingest import Recording

    rng = np.random.default_rng(30)
    sources = rng.laplace(size=(3, 8000))
    mixing = rng.standard_normal((4, 3))
    assert np.linalg.matrix_rank(mixing) == 3
    data = mixing @ sources + 0.01 * rng.normal(size=(4, 8000))
    rec = Recording(rate=125.0, labels=[f"ch{i+1}" for i in range(4)], data=data)

    result = ica_decompose(rec, n_components=3, seed=7)
    corr = align_sources(result.sources, sources)
    assert min(corr) >= 0.95

    again = ica_decompose(rec, n_components=3, seed=7)
    assert np.array_equal(result.sources, again.sources)
    assert np.array_equal(result.mixing, again.mixing)


@pytest.mark.acceptance(7, "ASR: clean pass-through, burst attenuation, identity, flagging")
def test_asr_behavior():
    from earpipe.ingest import Recording

    rate = 125.0
    rng = np.random.default_rng(40)
    data = rng.normal(size=(16, int(120 * rate)))
    rec = Recording(rate=rate, labels=[f"ch{i+1}" for i in range(16)], data=data)
    cfg = AsrConfig()
    model = asr_calibrate(rec, cfg)

    out, flagged = asr_process(rec, model, cfg)
    distortion = np.sqrt(np.mean((out.data - rec.data) ** 2)) / np.sqrt(np.mean(rec.data**2))
    assert distortion < 0.05

    burst = rec.copy()
    i0, i1 = int(60.0 * rate), int(60.5 * rate)
    burst.data[:, i0:i1] += 10.0 * data.std() * rng.normal(size=(16, i1 - i0))
    cleaned, _ = asr_process(burst, model, cfg)
    in_rms = np.sqrt(np.mean(burst.data[:, i0:i1] ** 2))
    out_rms = np.sqrt(np.mean(cleaned.data[:, i0:i1] ** 2))
    assert out_rms <= 0.5 * in_rms

    huge = AsrConfig(burst_k=1e9)
    model_huge = asr_calibrate(rec, huge)
    identical, flags = asr_process(burst, model_huge, huge)
    assert np.array_equal(identical.data, burst.data)
    assert flags == []

    # flagging follows the fraction of simultaneously bad components
    crit = AsrConfig(window_criterion=0.15)
    model_c = asr_calibrate(rec, crit)
    few = rec.copy()
    few.data[:, i0:i1] += 3000.0 * model_c.basis[:, :1].sum(axis=1, keepdims=True)
    _, flagged_few = asr_process(few, model_c, crit)
    many = rec.copy()
    many.data[:, i0:i1] += 3000.0 * model_c.basis[:, :3].sum(axis=1, keepdims=True)
    _, flagged_many = asr_process(many, model_c, crit)
    mid = 60.25
    assert all(not (w["start_s"] <= mid <= w["end_s"]) for w in flagged_few)  # 1/16 < 0.15
    assert any(w["start_s"] <= mid <= w["end_s"] for w in flagged_many)  # 3/16 > 0.15


@pytest.mark.acceptance(8, "Parser: bit-exact round-trip, fuzz safety, resync counts")
def test_parser_robustness():
    rng = np.random.default_rng(50)
    counts = rng.integers(-(2**23), 2**23, size=(10_000, 16))
    rec, report = parse_stream(encode_stream(counts), rate=125.0)
    assert rec.n_samples == 10_000
    assert report.resyncs == 0 and report.dropped_packets == 0
    assert np.array_equal(rec.data.T, counts_to_microvolts(counts))

    blob = rng.bytes(1_000_000)
    fuzz, fuzz_report = parse_stream(blob, rate=125.0)  # must not raise
    limit = counts_to_microvolts(ADC_FULL_SCALE)
    assert fuzz.data.shape == (16, fuzz.n_samples)
    assert np.all(np.isfinite(fuzz.data))
    assert np.all(np.abs(fuzz.data) <= limit + 1e-9)
    # samples move forward in board time: gaps have positive lengths at
    # strictly increasing sample indices
    starts = [sample for sample, _ in fuzz_report.gaps]
    assert all(missing > 0 for _, missing in fuzz_report.gaps)
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert fuzz_report.actual_samples == fuzz.n_samples

    # two junk runs between valid pairs: exactly two resyncs
    p = make_packet(0, range(8)) + make_packet(1, range(8))
    q = make_packet(2, range(8)) + make_packet(3, range(8))
    r = make_packet(4, range(8)) + make_packet(5, range(8))
    junk = bytes([0x11, 0x22, 0x33, 0x44, 0x55])
    rec3, rep3 = parse_stream(p + junk + q + junk + r, rate=125.0)
    assert rec3.n_samples == 3
    assert rep3.resyncs == 2


def ecg_eeg_mixture(rate: float = 250.0):
    """Acceptance 9's input: 8 EEG channels at 250 Hz plus one ECG source
    at -10 dB with random signs, and the planted beats."""
    from earpipe.ingest import Recording

    eeg = gen_eeg(
        EegSynthSpec(rate=rate, duration_s=60.0, seed=60, n_channels=8,
                     pink_noise_rms=3.0, band_components=((10.0, 2.0),))
    )
    ecg_rec, truth = gen_ecg(EcgSynthSpec(rate=rate, duration_s=60.0, seed=61, bpm=72.0))
    ecg = ecg_rec.data[0]

    rng = np.random.default_rng(62)
    eeg_rms = np.sqrt(np.mean(eeg.data**2, axis=1))
    ecg_rms = np.sqrt(np.mean(ecg**2))
    target = eeg_rms * 10 ** (-10.0 / 20.0)  # -10 dB relative amplitude
    weights = target / ecg_rms * rng.choice([-1.0, 1.0], size=8)
    data = eeg.data + weights[:, None] * ecg[None, :]
    return Recording(rate=rate, labels=list(eeg.labels), data=data), truth


@pytest.mark.acceptance(9, "ECG from EEG: -10 dB source recovered, >= 95% beats, LoA <= 20 ms")
def test_ecg_from_eeg_end_to_end():
    t0 = time.monotonic()
    rate = 250.0
    rec, truth = ecg_eeg_mixture(rate)
    picked = extract_ecg(rec)
    assert picked is not None
    beats = picked.beats

    match = match_beats(truth, beats, tolerance_s=0.05)
    assert len(match.pairs) / len(truth) >= 0.95
    rr_ref, rr_alt = paired_rr(match, truth, beats)
    report = bland_altman(rr_ref, rr_alt)
    assert report["gaussian_loa_ms"] <= 20.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


@pytest.mark.acceptance(10, "Regressions: inverted U found, oracle match, Bonferroni monotone")
def test_regression_layer():
    rng = np.random.default_rng(70)
    x = rng.uniform(-2.0, 2.0, 60)
    y = 1.0 - 0.8 * x**2 + rng.normal(0.0, 0.3, 60)
    fit = fit_quadratic_orthogonal(x, y)
    quad = {c["name"]: c["estimate"] for c in fit["coefficients"]}
    p_quad = {c["name"]: c["p"] for c in fit["coefficients"]}
    assert quad["quadratic"] < 0
    assert p_quad["quadratic"] < 0.05

    basis = orthogonal_poly_basis(x)
    gram = basis.T @ basis
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9

    beta, _, _ = normal_equations(basis[:, :3], y)
    assert np.allclose(list(quad.values()), beta, atol=1e-9)

    for seed in range(5):
        table_rng = np.random.default_rng(100 + seed)
        cells = {
            (f"P{p}", f"c{c}"): float(table_rng.normal())
            for p in range(5)
            for c in range(4)
        }
        result = pairwise_contrasts(cells)
        m = len(result["pairs"])
        pairs = sorted(result["pairs"], key=lambda r: r["p_raw"])
        adjusted = [r["p_adjusted"] for r in pairs]
        for pair in pairs:
            assert pair["p_adjusted"] == pytest.approx(min(1.0, pair["p_raw"] * m))
        assert all(a <= b + 1e-12 for a, b in zip(adjusted, adjusted[1:]))


@pytest.mark.acceptance(11, "Reproducibility: identical runs produce byte-identical reports")
def test_reproducible_reports(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text("[synth]\nkind = berger\nseed = 8\n\n[berger]\nsegment_s = 10\n")
    assert cli_main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "d")]) == 0
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"""
[input]
session = {tmp_path / 'd' / 'session.csv'}
events = {tmp_path / 'd' / 'events.csv'}

[pipeline]
ica_seed = 3
"""
    )
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "r1")]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    compared = 0
    for name in ("bands.csv", "qc.json", "integrity.json", "rr.csv",
                 "bland_altman.json", "regression.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared += 1
    assert compared == 6
