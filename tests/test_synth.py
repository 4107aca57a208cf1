import numpy as np
import pytest

from earpipe.synth import (
    BergerSpec,
    EcgSynthSpec,
    EegSynthSpec,
    berger_session,
    gen_ecg,
    gen_eeg,
)

from oracles import welch_psd


def integrated_power(x, rate, lo_hz, hi_hz, seg=256):
    """Band-integrated power (variance units) from a Welch density."""
    psd = welch_psd(x, rate, seg=seg, overlap=64)
    df = psd.freqs[1] - psd.freqs[0]
    mask = (psd.freqs >= lo_hz) & (psd.freqs <= hi_hz)
    return float(np.sum(psd.power[0, mask]) * df)


# ---------------------------------------------------------------- gen_eeg


def test_gen_eeg_deterministic():
    spec = EegSynthSpec(seed=7, duration_s=4.0, n_channels=3,
                        band_components=((10.0, 2.0),), line_noise=(50.0, 1.0))
    a = gen_eeg(spec)
    b = gen_eeg(spec)
    assert np.array_equal(a.data, b.data)
    assert a.labels == b.labels
    assert a.meta == b.meta


def test_gen_eeg_zero_amplitudes():
    rec = gen_eeg(EegSynthSpec(seed=0, duration_s=2.0, n_channels=4, pink_noise_rms=0.0))
    assert rec.data.shape == (4, 250)
    assert np.all(rec.data == 0.0)


def test_gen_eeg_noise_rms():
    rec = gen_eeg(EegSynthSpec(seed=3, duration_s=60.0, n_channels=4, pink_noise_rms=3.0))
    rms = np.sqrt(np.mean(rec.data**2, axis=1))
    assert np.all(np.abs(rms - 3.0) / 3.0 < 0.02)


def test_gen_eeg_combined_rms():
    # independent noise and sinusoid powers add: sqrt(3^2 + 4^2/2)
    spec = EegSynthSpec(seed=5, duration_s=60.0, n_channels=2,
                        pink_noise_rms=3.0, band_components=((10.0, 4.0),))
    rec = gen_eeg(spec)
    expected = np.sqrt(9.0 + 16.0 / 2.0)
    rms = np.sqrt(np.mean(rec.data**2, axis=1))
    assert np.all(np.abs(rms - expected) / expected < 0.02)


def test_gen_eeg_component_band_energy():
    # a lone 10 Hz component of amplitude A carries A^2/2 integrated power
    spec = EegSynthSpec(seed=1, duration_s=60.0, n_channels=1,
                        pink_noise_rms=0.0, band_components=((10.0, 2.0),))
    rec = gen_eeg(spec)
    p = integrated_power(rec.data[0], spec.rate, 7.0, 13.0)
    assert p == pytest.approx(2.0, rel=0.05)
    psd = welch_psd(rec.data[0], spec.rate, seg=256, overlap=64)
    peak_hz = psd.freqs[np.argmax(psd.power[0])]
    assert abs(peak_hz - 10.0) <= psd.freqs[1] - psd.freqs[0]


def test_gen_eeg_line_noise_and_truth():
    spec = EegSynthSpec(seed=2, duration_s=20.0, n_channels=1,
                        pink_noise_rms=0.1, line_noise=(50.0, 5.0))
    rec = gen_eeg(spec)
    psd = welch_psd(rec.data[0], spec.rate, seg=256, overlap=64)
    peak_hz = psd.freqs[np.argmax(psd.power[0])]
    assert abs(peak_hz - 50.0) <= psd.freqs[1] - psd.freqs[0]
    assert rec.meta["truth"]["line_noise"] == [50.0, 5.0]
    assert rec.meta["truth"]["seed"] == 2


def test_gen_eeg_validation():
    with pytest.raises(ValueError):
        EegSynthSpec(duration_s=0.0)
    with pytest.raises(ValueError):
        EegSynthSpec(pink_noise_rms=-1.0)
    with pytest.raises(ValueError):
        EegSynthSpec(n_channels=0)
    with pytest.raises(ValueError):
        EegSynthSpec(band_components=((10.0, -1.0),))
    with pytest.raises(ValueError):
        EegSynthSpec(rate=125.0, band_components=((70.0, 1.0),))  # beyond Nyquist


# ---------------------------------------------------------------- gen_ecg


def test_gen_ecg_count_and_spacing():
    rec, truth = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=10.0, seed=0,
                                      bpm=60.0, rr_jitter_ms=0.0))
    assert len(truth) in (10, 11)
    assert np.all(np.diff(truth.beat_times) == 1.0)
    assert rec.data.shape == (1, 2500)


def test_gen_ecg_jitter_sd():
    # independent per-beat jitter doubles in the interval variance
    _, truth = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=600.0, seed=4,
                                    bpm=60.0, rr_jitter_ms=20.0))
    rr_sd_ms = np.std(np.diff(truth.beat_times)) * 1000.0
    assert rr_sd_ms == pytest.approx(np.sqrt(2.0) * 20.0, rel=0.10)


def test_gen_ecg_zero_amplitude():
    rec, truth = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=10.0, seed=0,
                                      bpm=60.0, r_amplitude_uv=0.0))
    assert np.all(rec.data == 0.0)
    assert len(truth) >= 9


def test_gen_ecg_truth_matches_meta():
    rec, truth = gen_ecg(EcgSynthSpec(rate=250.0, duration_s=12.0, seed=9, bpm=72.0))
    assert rec.meta["truth"]["beats"] == truth.beat_times.tolist()
    assert rec.meta["truth"]["bpm"] == 72.0


def test_gen_ecg_deterministic():
    spec = EcgSynthSpec(rate=250.0, duration_s=30.0, seed=11, bpm=80.0)
    a, ta = gen_ecg(spec)
    b, tb = gen_ecg(spec)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(ta.beat_times, tb.beat_times)


def test_gen_ecg_bpm_bounds():
    with pytest.raises(ValueError):
        EcgSynthSpec(bpm=25.0)
    with pytest.raises(ValueError):
        EcgSynthSpec(bpm=230.0)
    EcgSynthSpec(bpm=30.0)
    EcgSynthSpec(bpm=220.0)


# --------------------------------------------------------- berger_session


def test_berger_events_and_shape():
    spec = BergerSpec(seed=0, segment_s=20.0, n_channels=2)
    rec = berger_session(spec)
    assert rec.data.shape == (2, 2 * 2500)
    assert [ev.condition for ev in rec.events] == ["eyes_open", "eyes_closed"]
    assert rec.events[0].start_s == 0.0 and rec.events[0].end_s == 20.0
    assert rec.events[1].start_s == 20.0 and rec.events[1].end_s == 40.0


def test_berger_comb_on_bin_centers():
    spec = BergerSpec(seed=0, segment_s=20.0, n_channels=1)
    rec = berger_session(spec)
    df = spec.rate / spec.psd_segment
    for f in rec.meta["truth"]["comb_freqs"]:
        assert 8.0 <= f <= 12.0
        assert (f / df) == pytest.approx(round(f / df), abs=1e-9)


def test_berger_alpha_ratio_without_noise():
    # amplitude ratio 3 means a 9x (9.5 dB) alpha power ratio; comb lines
    # one bin apart interfere through window leakage, hence the slack
    spec = BergerSpec(seed=6, segment_s=60.0, n_channels=2, pink_noise_rms=0.0)
    rec = berger_session(spec)
    n_seg = int(spec.segment_s * spec.rate)
    for ch in range(2):
        p_open = integrated_power(rec.data[ch, :n_seg], spec.rate, 7.0, 13.0)
        p_closed = integrated_power(rec.data[ch, n_seg:], spec.rate, 7.0, 13.0)
        assert p_closed / p_open == pytest.approx(9.0, rel=0.05)


def test_berger_segments_share_noise():
    # identical noise cancels in the segment difference, leaving pure alpha.
    # The comb is phase-continuous across the boundary, so each line
    # contributes |r*sin(t+phi) - sin(t)|^2 with phi the phase the line
    # accrues over one segment: power (r^2 + 1 - 2 r cos phi) / 2.
    spec = BergerSpec(seed=2, segment_s=60.0, n_channels=2)
    rec = berger_session(spec)
    n_seg = int(spec.segment_s * spec.rate)
    r = spec.alpha_ratio
    expected = 0.0
    for f in rec.meta["truth"]["comb_freqs"]:
        phi = 2.0 * np.pi * f * spec.segment_s
        expected += spec.alpha_open_uv**2 * (r**2 + 1.0 - 2.0 * r * np.cos(phi)) / 2.0
    for ch in range(2):
        diff = rec.data[ch, n_seg:] - rec.data[ch, :n_seg]
        in_band = integrated_power(diff, spec.rate, 7.0, 13.0)
        total = float(np.mean(diff**2))
        assert in_band / total > 0.99
        assert total == pytest.approx(expected, rel=0.02)


def test_berger_deterministic():
    a = berger_session(BergerSpec(seed=3, segment_s=10.0, n_channels=2))
    b = berger_session(BergerSpec(seed=3, segment_s=10.0, n_channels=2))
    assert np.array_equal(a.data, b.data)
