import numpy as np
import pytest

from earpipe.ingest import Recording
from earpipe.spectral import (
    BandDefinition,
    BandPowerRow,
    DEFAULT_BANDS,
    band_power,
    parse_band_spec,
    qc_report,
    read_band_table,
    welch_psd_recording,
    write_band_table,
)

from oracles import psd_one_window, welch_psd, welch_psd_loop

RATE = 125.0


def test_single_window_matches_dft_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=256)
    est = welch_psd(x, RATE, seg=256, overlap=0)
    freqs, ref = psd_one_window(x, RATE)
    assert np.allclose(est.freqs, freqs)
    assert np.allclose(est.power[0], ref, rtol=1e-8, atol=1e-12)


def test_parseval_white_noise():
    rng = np.random.default_rng(8)
    x = rng.normal(scale=2.0, size=int(60 * RATE))
    est = welch_psd(x, RATE, seg=256, overlap=64)
    df = est.freqs[1] - est.freqs[0]
    total = est.power[0].sum() * df
    assert total == pytest.approx(x.var(), rel=0.05)


def test_sine_peak_bin():
    t = np.arange(int(60 * RATE)) / RATE
    x = np.sin(2 * np.pi * 10.0 * t)
    est = welch_psd(x, RATE, seg=256, overlap=64)
    # 10 Hz falls between bin centers 20 (9.77 Hz) and 21 (10.25 Hz)
    assert int(np.argmax(est.power[0])) in (20, 21)


def test_window_count_book_keeping():
    x = np.zeros(int(10 * RATE))
    est = welch_psd(x, RATE, seg=256, overlap=64)
    hop = 256 - 64
    assert est.window_count == (len(x) - 256) // hop + 1


def test_welch_rejects_bad_segment_params():
    x = np.zeros(1000)
    with pytest.raises(ValueError):
        welch_psd(x, RATE, seg=4)
    with pytest.raises(ValueError):
        welch_psd(x, RATE, seg=256, overlap=256)
    with pytest.raises(ValueError):
        welch_psd(np.zeros(100), RATE, seg=256)


def test_recording_psd_and_exclusion():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(2, int(20 * RATE)))
    rec = Recording(rate=RATE, labels=["a", "b"], data=data)
    full = welch_psd_recording(rec, seg=256, overlap=64)
    # excluding a span removes the windows overlapping it
    part = welch_psd_recording(rec, seg=256, overlap=64, exclude_spans=[(5.0, 8.0)])
    assert part.window_count < full.window_count
    assert part.power.shape == full.power.shape


@pytest.mark.parametrize("seg, overlap", [(256, 64), (255, 0), (64, 63)])
@pytest.mark.parametrize("exclude", [None, [(5.0, 8.0), (8.5, 8.6), (19.0, 30.0)]])
def test_recording_psd_matches_per_window_loop(seg, overlap, exclude):
    rng = np.random.default_rng(seg)
    rec = Recording(rate=RATE, labels=list("abc"), data=rng.normal(3.0, 20.0, size=(3, 2531)))
    got = welch_psd_recording(rec, seg=seg, overlap=overlap, exclude_spans=exclude)
    want = welch_psd_loop(rec, seg=seg, overlap=overlap, exclude_spans=exclude)
    assert got.window_count == want.window_count
    assert np.array_equal(got.freqs, want.freqs)
    assert np.allclose(got.power, want.power, rtol=1e-12, atol=0.0)


def test_exclusion_of_everything_errors():
    rec = Recording(rate=RATE, labels=["a"], data=np.zeros((1, int(5 * RATE))))
    with pytest.raises(ValueError):
        welch_psd_recording(rec, exclude_spans=[(0.0, 5.0)])


def test_exclusion_actually_removes_contamination():
    rng = np.random.default_rng(10)
    n = int(30 * RATE)
    x = rng.normal(size=n)
    x[int(10 * RATE) : int(12 * RATE)] += 300.0  # a huge burst
    rec = Recording(rate=RATE, labels=["a"], data=x[None, :])
    with_burst = welch_psd_recording(rec)
    cleaned = welch_psd_recording(rec, exclude_spans=[(10.0, 12.0)])
    assert cleaned.power[0].sum() < 0.1 * with_burst.power[0].sum()


def test_band_power_floors_at_minus_150_db():
    rec = Recording(rate=RATE, labels=["a"], data=np.zeros((1, int(5 * RATE))))
    psd = welch_psd_recording(rec)
    assert np.all(psd.power == 0.0)
    for values in band_power(psd).values():
        assert np.all(values == -150.0)


def test_band_power_median_aggregation():
    # the median of the band's bins in dB, not the dB of their mean
    t = np.arange(int(60 * RATE)) / RATE
    rng = np.random.default_rng(11)
    x = rng.normal(size=t.shape)
    psd = welch_psd(x, RATE, seg=256, overlap=64)
    bands = band_power(psd, DEFAULT_BANDS)
    assert set(bands) == {"theta", "alpha", "beta", "gamma"}
    lo, hi = 8.0, 12.0
    sel = (psd.freqs >= lo - 1e-12) & (psd.freqs <= hi + 1e-12)
    assert bands["alpha"][0] == pytest.approx(np.median(10.0 * np.log10(psd.power[0][sel])))


def test_band_power_rejects_beyond_nyquist():
    x = np.random.default_rng(0).normal(size=2000)
    psd = welch_psd(x, RATE, seg=256, overlap=64)
    with pytest.raises(ValueError):
        band_power(psd, (BandDefinition("hf", 60.0, 80.0),))


def test_parse_band_spec():
    bands = parse_band_spec("slow:1:4,alpha:8:12")
    assert bands[0] == BandDefinition("slow", 1.0, 4.0)
    assert bands[1].hi_hz == 12.0
    # a bound is a number by the table rule (no separator, ASCII digits), and 0 <= lo < hi
    for bad in ("alpha:12:8", "alpha:8", "x::", "", "x:nan:5", "x:-1:5", "alpha:8:1_2", "x:\u0663:9"):
        with pytest.raises(ValueError):
            parse_band_spec(bad)


def test_qc_report_flags():
    rng = np.random.default_rng(12)
    n = int(30 * RATE)
    t = np.arange(n) / RATE
    good = 5.0 * rng.normal(size=n) * 0.2 + 3.0 * np.sin(2 * np.pi * 10 * t)
    noisy = 400.0 * np.sin(2 * np.pi * 50.0 * t) + rng.normal(size=n)
    rec = Recording(rate=RATE, labels=["good", "mains"], data=np.stack([good, noisy]))
    psd = welch_psd_recording(rec)
    report = qc_report(rec, psd, line_freq_hz=50.0)
    by_label = {c["label"]: c for c in report["channels"]}
    assert by_label["good"]["amplitude_typical"]
    assert by_label["mains"]["line_ratio"] > by_label["good"]["line_ratio"]
    assert not by_label["mains"]["amplitude_typical"]


def test_band_table_roundtrip(tmp_path):
    rows = [
        BandPowerRow("P01", "open", "R1", "alpha", -3.25),
        BandPowerRow("P01", "closed", "R1", "alpha", 5.5),
        # names the CSV writer must quote for earpipe's own reader to split them back
        BandPowerRow("P,1", "eyes,open", 'R"1', "alpha", 1.0),
        BandPowerRow("P01", "two\nlines", "R1", 'say "hi", twice', -0.5),
    ]
    path = tmp_path / "bands.csv"
    write_band_table(rows, path)
    back = read_band_table(path)
    assert back == rows
    # a plain name is written unquoted
    assert path.read_text().splitlines()[1] == "P01,open,R1,alpha,-3.250000"


def test_band_table_rejects_duplicates(tmp_path):
    rows = [
        BandPowerRow("P01", "open", "R1", "alpha", -3.0),
        BandPowerRow("P01", "open", "R1", "alpha", -4.0),
    ]
    with pytest.raises(ValueError):
        write_band_table(rows, tmp_path / "dup.csv")
