"""Power spectral density estimation and band summaries.

Welch's method with mean-detrended, Hamming-windowed segments. Power is
scaled as a one-sided density, 1/(rate * sum(w^2)) per segment with
doubling of all bins except DC and Nyquist, then averaged across
segments, so that sum(psd) * df approximates the signal variance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import Recording, check_name, read_table

DB_EPS = 1e-15
DB_FLOOR = -150.0


@dataclass(frozen=True)
class BandDefinition:
    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        check_name("band", self.name)
        if self.lo_hz < 0 or self.hi_hz <= self.lo_hz:
            raise ValueError(f"band {self.name}: bad bounds [{self.lo_hz}, {self.hi_hz}]")

    def bins(self, freqs: np.ndarray, rate: float) -> np.ndarray:
        """Mask of the freqs inside the band, bounds inclusive of bin
        centers; a band beyond Nyquist or covering no bin is a ValueError."""
        nyq = rate / 2.0
        if self.hi_hz > nyq + 1e-12:
            raise ValueError(f"band {self.name} upper edge {self.hi_hz} Hz beyond Nyquist {nyq} Hz")
        mask = (freqs >= self.lo_hz - 1e-12) & (freqs <= self.hi_hz + 1e-12)
        if not mask.any():
            raise ValueError(f"band {self.name} contains no frequency bins")
        return mask


DEFAULT_BANDS = (
    BandDefinition("theta", 4.0, 7.0),
    BandDefinition("alpha", 8.0, 12.0),
    BandDefinition("beta", 13.0, 30.0),
    BandDefinition("gamma", 31.0, 40.0),
)


@dataclass
class PsdEstimate:
    freqs: np.ndarray
    power: np.ndarray  # linear density, (channels, bins)
    rate: float
    window_count: int
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.power = np.atleast_2d(np.asarray(self.power, dtype=float))


def check_welch_window(seg: int, overlap: int) -> None:
    """The window rules of welch_psd_recording."""
    if seg < 8:
        raise ValueError(f"segment length {seg} too small")
    if not 0 <= overlap < seg:
        raise ValueError(f"overlap {overlap} must satisfy 0 <= overlap < seg ({seg})")


def check_welch_length(n: int, seg: int) -> None:
    """The length rule of welch_psd_recording: n samples must hold one window."""
    if n < seg:
        raise ValueError(f"{n} samples is too short for {seg}-sample windows")


# floats in one chunk of windows welch_psd_recording transforms at once (2 MB)
WELCH_CHUNK_ELEMS = 1 << 18


def welch_psd_recording(
    rec: Recording,
    seg: int = 256,
    overlap: int = 64,
    exclude_spans: list[tuple[float, float]] | None = None,
) -> PsdEstimate:
    """Per-channel Welch PSD of a recording.

    Segments hop by seg - overlap samples; each is mean-detrended,
    Hamming-windowed and transformed; squared magnitudes are averaged
    across segments, scaled by 1/(rate * sum(w^2)) and one-sided-doubled
    except at DC and Nyquist. A rate at which rate * sum(w^2) overflows
    is refused before any segment is transformed. The kept segments are
    transformed in chunks of a sliding-window view of the samples.

    exclude_spans lists [start_s, end_s) intervals (in the recording's
    own timebase, t0 = 0) whose overlapping segments are skipped, e.g.
    windows flagged by artifact rejection.
    """
    check_welch_window(seg, overlap)
    hop = seg - overlap
    n = rec.n_samples
    check_welch_length(n, seg)
    starts = np.arange(1 + (n - seg) // hop) * hop
    t_lo = starts / rec.rate
    t_hi = (starts + seg) / rec.rate
    kept = np.ones(len(starts), dtype=bool)
    for a, b in exclude_spans or ():
        kept &= ~((t_lo < b) & (a < t_hi))
    keep = starts[kept]
    if len(keep) == 0:
        raise ValueError("every segment overlaps an excluded span; nothing to average")

    w = np.hamming(seg)
    norm = float(rec.rate) * float(np.sum(w * w))
    if not math.isfinite(norm):
        raise ValueError(f"rate {rec.rate} Hz overflows the Welch density scale")
    windows = np.lib.stride_tricks.sliding_window_view(rec.data, seg, axis=1)
    per_chunk = max(1, WELCH_CHUNK_ELEMS // max(1, rec.n_channels * seg))
    acc = np.zeros((rec.n_channels, seg // 2 + 1))
    for i in range(0, len(keep), per_chunk):
        d = windows[:, keep[i : i + per_chunk]]  # (channels, windows, seg), a copy
        d -= d.mean(axis=2, keepdims=True)
        d *= w
        spect = np.fft.rfft(d, axis=2)
        acc += (spect.real**2 + spect.imag**2).sum(axis=1)
    acc *= 1.0 / norm / len(keep)
    acc[:, 1:] *= 2.0
    if seg % 2 == 0:
        acc[:, -1] *= 0.5
    return PsdEstimate(
        freqs=np.fft.rfftfreq(seg, d=1.0 / rec.rate),
        power=acc,
        rate=rec.rate,
        window_count=len(keep),
        labels=list(rec.labels),
    )


def band_power(psd: PsdEstimate, bands=DEFAULT_BANDS) -> dict:
    """Median dB power per band, per channel, of a linear estimate.

    Each bin's density is taken as 10*log10, floored at -150 dB, before
    the median. Bounds are inclusive of bin centers, so the gaps between
    canonical bands (7-8 Hz, 12-13 Hz) stay unassigned.
    """
    out = {}
    for b in bands:
        power = psd.power[:, b.bins(psd.freqs, psd.rate)]
        db = np.maximum(10.0 * np.log10(np.maximum(power, DB_EPS)), DB_FLOOR)
        out[b.name] = np.median(db, axis=1)
    return out


def check_bands(bands, seg: int, rate: float, n_samples: int) -> None:
    """Check every band's bins rule against the Welch bins of seg-sample
    windows at rate, before Welch runs. A window longer than the n_samples
    of the session is left to the length check: it fails there anyway,
    and its bins would take memory in proportion to it."""
    if seg > n_samples:
        return
    freqs = np.fft.rfftfreq(seg, d=1.0 / rate)
    for band in bands:
        band.bins(freqs, rate)


def parse_band_spec(text: str) -> tuple[BandDefinition, ...]:
    """Parse 'name:lo:hi,name:lo:hi,...' into band definitions, each name once."""
    bands = []
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError(f"bad band spec {part!r}; expected name:lo:hi")
        if any(b.name == bits[0] for b in bands):
            raise ValueError(f"band {bits[0]!r} named twice")
        bands.append(BandDefinition(bits[0], float(bits[1]), float(bits[2])))
    return tuple(bands)


def qc_report(rec: Recording, psd: PsdEstimate, line_freq_hz: float = 50.0) -> dict:
    """Per-channel data-quality summary, as qc.json holds it.

    RMS amplitudes between 1 and 20 microvolts count as typical for
    around-the-ear recordings. The high-frequency ratio is the linear
    power mass in 31-62 Hz over the total; the line ratio is the mass
    within +/-1 Hz of the line frequency over the total.
    """
    if psd.power.shape[0] != rec.n_channels:
        raise ValueError("PSD channel count does not match the recording")
    rms = np.sqrt(np.mean(rec.data**2, axis=1))
    total = psd.power.sum(axis=1)
    total = np.where(total > 0, total, np.inf)
    hf_mask = (psd.freqs >= 31.0) & (psd.freqs <= 62.0)
    line_mask = np.abs(psd.freqs - line_freq_hz) <= 1.0
    hf = psd.power[:, hf_mask].sum(axis=1) / total
    line = psd.power[:, line_mask].sum(axis=1) / total
    typical = (rms >= 1.0) & (rms <= 20.0)
    return {
        "line_freq_hz": line_freq_hz,
        "channels": [
            {
                "label": label,
                "rms_uv": float(rms[i]),
                "amplitude_typical": bool(typical[i]),
                "hf_ratio": float(hf[i]),
                "line_ratio": float(line[i]),
            }
            for i, label in enumerate(rec.labels)
        ],
    }


@dataclass(frozen=True)
class BandPowerRow:
    participant: str
    condition: str
    channel: str
    band: str
    power_db: float


def write_band_table(rows: list[BandPowerRow], path) -> None:
    """Write band-power rows as CSV (names quoted as needed); duplicate key tuples are rejected."""
    seen = set()
    for r in rows:
        key = (r.participant, r.condition, r.channel, r.band)
        if key in seen:
            raise ValueError(f"duplicate band-power row for {key}")
        seen.add(key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("participant", "condition", "channel", "band", "power_db"))
        writer.writerows((r.participant, r.condition, r.channel, r.band, f"{r.power_db:.6f}")
                         for r in rows)


def read_band_table(path) -> list[BandPowerRow]:
    _, rows = read_table(path, ("participant", "condition", "channel", "band", "power_db"))
    return [
        BandPowerRow(r["participant"], r["condition"], r["channel"], r["band"],
                     r.number("power_db", finite=True))
        for r in rows
    ]
