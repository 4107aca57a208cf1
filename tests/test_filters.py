import tracemalloc

import numpy as np
import pytest

from earpipe.filters import (
    FIR_BLOCK,
    FirSpec,
    apply_zero_phase,
    apply_zero_phase_array,
    baseline_correct,
    blend_windows,
    cascade,
    check_line_noise,
    design_fir,
    overlap_add_windows,
    remove_line_noise,
)
from earpipe.ingest import Recording

from oracles import apply_zero_phase_loop, fir_response, remove_line_noise_loop

RATE = 125.0


def test_spec_rejects_odd_order():
    with pytest.raises(ValueError):
        FirSpec("lowpass", 45.0, 101, "hann")


def test_spec_rejects_cutoff_at_nyquist():
    with pytest.raises(ValueError):
        design_fir(FirSpec("lowpass", 62.5, 100, "hann"), RATE)


def test_spec_rejects_unknown_kind_and_window():
    with pytest.raises(ValueError):
        FirSpec("bandpass", 10.0, 100, "hann")
    with pytest.raises(ValueError):
        FirSpec("lowpass", 10.0, 100, "kaiser")


def test_taps_are_exactly_symmetric():
    fir = design_fir(FirSpec("highpass", 1.0, 500, "hann"), RATE)
    assert np.array_equal(fir.taps, fir.taps[::-1])
    assert len(fir.taps) == 501
    assert fir.group_delay == 250


def test_lowpass_unit_dc_gain():
    fir = design_fir(FirSpec("lowpass", 45.0, 100, "hann"), RATE)
    assert abs(fir.taps.sum() - 1.0) < 1e-12
    assert abs(fir_response(fir.taps, 0.0, RATE) - 1.0) < 1e-9


def test_highpass_blocks_dc():
    fir = design_fir(FirSpec("highpass", 1.0, 500, "hann"), RATE)
    assert abs(fir_response(fir.taps, 0.0, RATE)) < 1e-6


def test_cutoff_is_half_power_point():
    fir = design_fir(FirSpec("lowpass", 20.0, 200, "hamming"), RATE)
    mag_db = 20 * np.log10(abs(fir_response(fir.taps, 20.0, RATE)))
    assert mag_db == pytest.approx(-6.0, abs=0.1)


def test_lowpass_stopband_attenuation():
    fir = design_fir(FirSpec("lowpass", 45.0, 100, "hann"), RATE)
    mag = abs(fir_response(fir.taps, 60.0, RATE))
    assert 20 * np.log10(mag) < -20.0


def test_zero_phase_no_lag():
    # an in-band sine must come out in phase: peak cross-correlation at lag 0
    n = 2000
    t = np.arange(n) / RATE
    x = np.sin(2 * np.pi * 10.0 * t)
    fir = design_fir(FirSpec("lowpass", 30.0, 100, "hann"), RATE)
    y = apply_zero_phase_array(x, fir)
    assert y.shape == x.shape
    lags = np.arange(-20, 21)
    xc = [np.dot(x[200:-200], np.roll(y, k)[200:-200]) for k in lags]
    assert lags[int(np.argmax(xc))] == 0
    # interior samples essentially unchanged
    assert np.max(np.abs(y[300:-300] - x[300:-300])) < 1e-3


def test_zero_phase_matches_on_2d():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 900))
    fir = design_fir(FirSpec("lowpass", 30.0, 100, "hann"), RATE)
    y2 = apply_zero_phase_array(x, fir)
    for ch in range(3):
        assert np.allclose(y2[ch], apply_zero_phase_array(x[ch], fir))


def test_zero_phase_rejects_short_input():
    fir = design_fir(FirSpec("lowpass", 30.0, 100, "hann"), RATE)
    with pytest.raises(ValueError, match="101"):
        apply_zero_phase_array(np.zeros(50), fir)


def test_apply_zero_phase_recording_metadata():
    rng = np.random.default_rng(5)
    rec = Recording(rate=RATE, labels=["a", "b"], data=rng.normal(size=(2, 800)))
    fir = design_fir(FirSpec("highpass", 1.0, 500, "hann"), RATE)
    out = apply_zero_phase(rec, fir)
    assert np.array_equal(out.data, apply_zero_phase_array(rec.data, fir))
    assert (out.rate, out.labels) == (rec.rate, rec.labels)


def test_baseline_correct_zero_mean():
    rng = np.random.default_rng(6)
    rec = Recording(rate=RATE, labels=["a"], data=rng.normal(loc=37.0, size=(1, 500)))
    out = baseline_correct(rec)
    assert abs(out.data.mean()) < 1e-12
    assert rec.data.mean() != 0.0


def test_line_removal_kills_mains():
    t = np.arange(int(60 * RATE)) / RATE
    x = 12.0 * np.sin(2 * np.pi * 50.0 * t + 0.3)
    rec = Recording(rate=RATE, labels=["a"], data=x[None, :])
    out = remove_line_noise(rec, f0=50.0)
    before = np.sqrt(np.mean(x**2))
    after = np.sqrt(np.mean(out.data[0] ** 2))
    assert 20 * np.log10(before / after) > 30.0


def test_line_removal_leaves_neighbors_alone():
    t = np.arange(int(60 * RATE)) / RATE
    x = 5.0 * np.sin(2 * np.pi * 10.0 * t)
    rec = Recording(rate=RATE, labels=["a"], data=x[None, :])
    out = remove_line_noise(rec, f0=50.0)
    assert np.max(np.abs(out.data[0] - x)) < 1e-6 * 5.0


def test_line_removal_tracks_drifting_amplitude():
    t = np.arange(int(60 * RATE)) / RATE
    envelope = 1.0 + 0.5 * np.sin(2 * np.pi * 0.05 * t)
    x = envelope * np.sin(2 * np.pi * 50.0 * t)
    rec = Recording(rate=RATE, labels=["a"], data=x[None, :])
    out = remove_line_noise(rec, f0=50.0)
    assert np.sqrt(np.mean(out.data[0] ** 2)) < 0.05 * np.sqrt(np.mean(x**2))


def test_line_removal_harmonics():
    rate = 250.0
    t = np.arange(int(30 * rate)) / rate
    x = np.sin(2 * np.pi * 50.0 * t) + 0.5 * np.sin(2 * np.pi * 100.0 * t)
    rec = Recording(rate=rate, labels=["a"], data=x[None, :])
    out = remove_line_noise(rec, f0=50.0, harmonics=2)
    assert np.sqrt(np.mean(out.data[0] ** 2)) < 0.02


def test_line_removal_short_recording_whole_fit():
    # shorter than one 4 s window: a single whole-segment fit still applies
    t = np.arange(int(2 * RATE)) / RATE
    x = 3.0 * np.sin(2 * np.pi * 50.0 * t)
    rec = Recording(rate=RATE, labels=["a"], data=x[None, :])
    out = remove_line_noise(rec, f0=50.0)
    assert np.sqrt(np.mean(out.data[0] ** 2)) < 0.05


# the overlap-add FFT path against one direct convolution per row: one
# block just short of, at and just past one block step, a kernel with
# one more sample than taps, and many blocks
@pytest.mark.parametrize("order, kind, cutoff", [(100, "lowpass", 45.0), (500, "highpass", 1.0)])
@pytest.mark.parametrize("extra", ["taps+1", "step-1", "step", "step+1", "blocks"])
@pytest.mark.parametrize("channels", [None, 16])
def test_zero_phase_matches_direct_convolution(order, kind, cutoff, extra, channels):
    fir = design_fir(FirSpec(kind, cutoff, order, "hann"), RATE)
    step = FIR_BLOCK - fir.n_taps + 1
    n = {"taps+1": fir.n_taps + 1, "step-1": step - 1, "step": step, "step+1": step + 1,
         "blocks": 5 * step + 37}[extra]
    rng = np.random.default_rng(order + n)
    x = rng.normal(scale=30.0, size=n if channels is None else (channels, n)) + 5.0
    y = apply_zero_phase_array(x, fir)
    assert y.shape == x.shape
    assert np.max(np.abs(y - apply_zero_phase_loop(x, fir))) <= 1e-12 * np.max(np.abs(x))


def test_cascade_filters_as_the_two_passes_away_from_the_edges():
    hp = design_fir(FirSpec("highpass", 1.0, 500, "hann"), RATE)
    lp = design_fir(FirSpec("lowpass", 45.0, 100, "hann"), RATE)
    band = cascade(hp, lp)
    assert np.array_equal(band.taps, np.convolve(hp.taps, lp.taps))
    assert (band.n_taps, band.group_delay) == (601, 300)
    x = np.random.default_rng(3).normal(scale=30.0, size=(4, 3 * FIR_BLOCK + 11)) + 5.0
    one = apply_zero_phase_array(x, band)
    two = apply_zero_phase_loop(apply_zero_phase_loop(x, hp), lp)
    # the second pass pads the first's cut output with zeros, so only the
    # low-pass's half-width at each edge differs
    inner = np.abs(one - two)[:, lp.group_delay : -lp.group_delay]
    assert np.max(inner) <= 1e-12 * np.max(np.abs(x))
    assert np.max(np.abs(one - two)[:, : lp.group_delay]) > 1e-6


def test_zero_phase_peak_memory_is_the_output():
    x = np.random.default_rng(8).normal(size=(16, 225_000))
    fir = design_fir(FirSpec("highpass", 1.0, 500, "hann"), RATE)
    tracemalloc.start()
    try:
        apply_zero_phase_array(x, fir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes


# one projector for every window against one design matrix and lstsq
# per window: harmonics 1-3, 125 and 250 Hz, a window longer than the
# segment, and a last window off the hop grid (30.3 s with 1 s hops)
@pytest.mark.parametrize(
    "rate, f0, harmonics, win_s, duration_s",
    [
        (125.0, 50.0, 1, 4.0, 30.3),
        (250.0, 50.0, 2, 4.0, 30.3),
        (125.0, 16.0, 3, 2.5, 20.0),
        (250.0, 40.0, 3, 4.0, 30.3),
        (125.0, 50.0, 1, 40.0, 30.3),
        (250.0, 50.0, 2, 40.0, 30.0),
    ],
)
def test_line_removal_matches_per_window_lstsq(rate, f0, harmonics, win_s, duration_s):
    assert_line_removal_matches_loop(rate, f0, harmonics, win_s, 1.0, duration_s)


def assert_line_removal_matches_loop(rate, f0, harmonics, win_s, step_s, duration_s):
    rng = np.random.default_rng(harmonics)
    n = int(duration_s * rate)
    t = np.arange(n) / rate
    data = rng.normal(scale=5.0, size=(4, n))
    for h in range(1, harmonics + 1):
        phase = rng.uniform(0, 6, size=(4, 1))
        data += rng.uniform(1, 20, size=(4, 1)) * np.sin(2 * np.pi * h * f0 * t + phase)
    rec = Recording(rate=rate, labels=list("abcd"), data=data.copy())
    kw = dict(f0=f0, win_s=win_s, step_s=step_s, harmonics=harmonics)
    got = remove_line_noise(rec, **kw).data
    want = remove_line_noise_loop(rec, **kw).data
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(data))
    assert np.array_equal(rec.data, data)


# the hop-block fit at other hops: 0.3 s and 3 s steps, windows that are no
# whole number of hops (3.3 s, 4 s at a 3 s hop, 2 s at a 3 s hop, which
# leaves gaps), 100.5 Hz, and no segment a whole number of hops long
@pytest.mark.parametrize(
    "rate, f0, harmonics, win_s, step_s, duration_s",
    [
        (125.0, 50.0, 1, 4.0, 0.3, 30.3),
        (125.0, 50.0, 1, 4.0, 3.0, 30.3),
        (125.0, 20.0, 2, 3.3, 1.0, 30.3),
        (125.0, 50.0, 1, 3.3, 0.3, 20.0),
        (250.0, 50.0, 2, 3.3, 0.3, 20.01),
        (100.5, 40.0, 1, 3.3, 0.7, 25.0),
        (125.0, 50.0, 1, 2.0, 3.0, 30.3),
    ],
)
def test_line_removal_matches_per_window_lstsq_at_any_hop(rate, f0, harmonics, win_s, step_s,
                                                          duration_s):
    assert int(duration_s * rate) % round(step_s * rate) != 0
    assert_line_removal_matches_loop(rate, f0, harmonics, win_s, step_s, duration_s)


@pytest.mark.parametrize(
    "rate, win_s, harmonics, ok",
    [(RATE, 0.008, 1, False), (RATE, 0.001, 1, False), (RATE, 0.032, 1, True),
     (RATE, 0.032, 2, False), (1e308, 4.0, 1, True), (float("inf"), 4.0, 1, True)],
)
def test_line_window_must_hold_twice_the_regressors(rate, win_s, harmonics, ok):
    # 0.032 s is 4 samples at 125 Hz: enough for one sin/cos pair, not two;
    # a window of more samples than a float holds passes
    if ok:
        check_line_noise(rate, 10.0, win_s, 1.0, harmonics)
    else:
        with pytest.raises(ValueError, match=f"fewer than the {4 * harmonics} a fit"):
            check_line_noise(rate, 10.0, win_s, 1.0, harmonics)


@pytest.mark.parametrize("w", [40, 37])
@pytest.mark.parametrize("hop_of", [lambda w: 1, lambda w: w // 4, lambda w: w // 2, lambda w: w],
                         ids=["1", "w/4", "w/2", "w"])
@pytest.mark.parametrize("extra", [0, 7], ids=["on-grid", "moved-last"])
def test_blend_of_bare_tapers_is_one(w, hop_of, extra):
    """Pieces that each equal the taper blend to 1 on every sample, whether a
    window arrives as a piece or is already summed into out. Where at most two
    windows overlap the result is exactly 1; deeper overlaps sum their tapers
    in another order than the pieces, so it is 1 to rounding."""
    hop = hop_of(w)
    n = w + 24 * hop + extra
    starts, taper = overlap_add_windows(n, w, hop)
    assert bool(starts[-1] % hop) == (extra > 0 and hop > 1)  # the last window is moved
    out = np.zeros((2, n))
    for s in starts[: len(starts) // 2]:
        out[:, s : s + w] += taper
    blended = blend_windows(out, starts, taper, hop, ((s, taper) for s in starts[len(starts) // 2 :]))
    assert blended is out
    if 2 * hop >= w:
        assert np.array_equal(blended, np.ones((2, n)))
    else:
        np.testing.assert_allclose(blended, 1.0, rtol=0, atol=-(-w // hop) * np.finfo(float).eps)
