"""Synthetic signal generators with ground truth.

Pink noise is synthesized in the frequency domain (amplitude falling as
1/sqrt(f), uniformly random phases) and scaled to an exact target RMS,
so the energy bookkeeping of a mixed channel is predictable. ECG is a
train of Gaussian R-wave bumps at jittered beat times; the true beat
times are returned alongside the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cardiac import BeatSeries
from .ingest import Event, Recording, read_float


def parse_pair(text: str) -> tuple[float, float]:
    """Read 'value:value' as two floats, each by the session CSV's number rule."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected value:value, got {text!r}")
    return read_float(parts[0]), read_float(parts[1])


def parse_pairs(text: str) -> tuple:
    """Read a comma-separated list of 'value:value' pairs."""
    return tuple(parse_pair(p.strip()) for p in text.split(",") if p.strip())


def _check_extent(rate: float, length_key: str, length_s: float, **widths) -> None:
    """Positive finite rate, length and widths (nan fails); a length of at least one sample."""
    for key, value in {"rate": rate, length_key: length_s, **widths}.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{key} must be {'finite' if value > 0 else 'positive'}, got {value}")
    if round(length_s * rate) < 1:
        raise ValueError(f"{length_key} of {length_s} s holds no sample at {rate} Hz")


def _check_amounts(**values) -> None:
    """Finite, non-negative amplitudes, noise levels and jitter (nan fails)."""
    for key, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{key} must be finite and non-negative, got {value}")


def _line_amounts(line_noise) -> dict:
    """The frequency and amplitude of a (freq_hz, amplitude_uv) line, named for _check_amounts."""
    return {} if line_noise is None else dict(zip(("line frequency", "line amplitude"), line_noise))


@dataclass(frozen=True)
class EegSynthSpec:
    rate: float = 125.0
    duration_s: float = 60.0
    seed: int = 0
    n_channels: int = 16
    pink_noise_rms: float = 3.0
    # (freq_hz, amplitude_uv) pairs
    band_components: tuple = field(default=(), metadata={"parse": parse_pairs})
    # (freq_hz, amplitude_uv)
    line_noise: tuple | None = field(default=None, metadata={"parse": parse_pair})

    def __post_init__(self):
        _check_extent(self.rate, "duration_s", self.duration_s)
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        _check_amounts(pink_noise_rms=self.pink_noise_rms, **_line_amounts(self.line_noise))
        for f, a in self.band_components:
            if not 0 < f < self.rate / 2:
                raise ValueError(f"component at {f} Hz outside (0, Nyquist)")
            _check_amounts(**{"components amplitude": a})


def _pink_noise(n: int, rng: np.random.Generator, rms: float) -> np.ndarray:
    if rms == 0:
        return np.zeros(n)
    n_bins = n // 2 + 1
    amp = np.zeros(n_bins)
    amp[1:] = 1.0 / np.sqrt(np.arange(1, n_bins, dtype=float))
    phases = rng.uniform(0.0, 2.0 * np.pi, n_bins)
    spec = amp * np.exp(1j * phases)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = spec[-1].real
    x = np.fft.irfft(spec, n)
    sd = x.std()
    return x * (rms / sd) if sd > 0 else x


def gen_eeg(spec: EegSynthSpec) -> Recording:
    """Generate multichannel EEG-like data.

    Each channel carries its own pink-noise realization plus the
    requested sinusoidal band components (per-channel random phase) and
    optional line interference. Deterministic for a given seed; meta
    carries the ground-truth amplitudes.
    """
    n = int(round(spec.duration_s * spec.rate))
    rng = np.random.default_rng(spec.seed)
    t = np.arange(n) / spec.rate
    data = np.empty((spec.n_channels, n))
    for c in range(spec.n_channels):
        x = _pink_noise(n, rng, spec.pink_noise_rms)
        for f, a in spec.band_components:
            x = x + a * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        if spec.line_noise is not None:
            lf, la = spec.line_noise
            x = x + la * np.sin(2.0 * np.pi * lf * t + rng.uniform(0.0, 2.0 * np.pi))
        data[c] = x
    labels = [f"ch{i + 1}" for i in range(spec.n_channels)]
    truth = {
        "pink_noise_rms": spec.pink_noise_rms,
        "band_components": [list(bc) for bc in spec.band_components],
        "line_noise": list(spec.line_noise) if spec.line_noise else None,
        "seed": spec.seed,
    }
    return Recording(rate=spec.rate, labels=labels, data=data, meta={"truth": truth})


@dataclass(frozen=True)
class EcgSynthSpec:
    rate: float = 250.0
    duration_s: float = 60.0
    seed: int = 0
    bpm: float = 60.0
    r_amplitude_uv: float = 600.0
    rr_jitter_ms: float = 20.0
    r_width_ms: float = 20.0  # Gaussian sigma of the R bump

    def __post_init__(self):
        _check_extent(self.rate, "duration_s", self.duration_s, r_width_ms=self.r_width_ms)
        if not 30.0 <= self.bpm <= 220.0:
            raise ValueError(f"bpm {self.bpm} outside a plausible 30-220 range")
        _check_amounts(r_amplitude_uv=self.r_amplitude_uv, rr_jitter_ms=self.rr_jitter_ms)


def gen_ecg(spec: EcgSynthSpec) -> tuple[Recording, BeatSeries]:
    """Generate a single-channel ECG trace plus its true beat times.

    Beat k sits at (k + 1/2) * 60/bpm plus independent Gaussian jitter,
    so successive R-R intervals have SD sqrt(2) * rr_jitter_ms and a
    duration of m periods carries m beats. Amplitude 0 produces a flat
    trace while still reporting the planted beats.
    """
    n = int(round(spec.duration_s * spec.rate))
    rng = np.random.default_rng(spec.seed)
    period = 60.0 / spec.bpm
    base = np.arange(period / 2, spec.duration_s - period / 2 + 1e-9, period)
    jitter = rng.normal(0.0, spec.rr_jitter_ms / 1000.0, len(base))
    beats = np.sort(base + jitter)
    beats = beats[(beats > 0.1) & (beats < spec.duration_s - 0.1)]

    t = np.arange(n) / spec.rate
    sigma_s = spec.r_width_ms / 1000.0
    x = np.zeros(n)
    half = max(1, int(round(6 * sigma_s * spec.rate)))
    for b in beats:
        center = int(round(b * spec.rate))
        lo = max(0, center - half)
        hi = min(n, center + half + 1)
        x[lo:hi] += spec.r_amplitude_uv * np.exp(-((t[lo:hi] - b) ** 2) / (2.0 * sigma_s**2))
    rec = Recording(
        rate=spec.rate,
        labels=["ecg"],
        data=x[None, :],
        meta={"truth": {"bpm": spec.bpm, "beats": beats.tolist(), "seed": spec.seed}},
    )
    return rec, BeatSeries(beat_times=beats)


@dataclass(frozen=True)
class BergerSpec:
    """Two-segment fixture: identical pink noise, alpha scaled 3:1."""

    rate: float = 125.0
    segment_s: float = 60.0
    seed: int = 0
    n_channels: int = 16
    pink_noise_rms: float = 3.0
    alpha_open_uv: float = 1.5
    alpha_ratio: float = 3.0
    alpha_band_hz: tuple = field(default=(8.0, 12.0), metadata={"parse": parse_pair})
    psd_segment: int = 256
    line_noise: tuple | None = field(default=None, metadata={"parse": parse_pair})

    def __post_init__(self):
        _check_extent(self.rate, "segment_s", self.segment_s)
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        _check_amounts(pink_noise_rms=self.pink_noise_rms, alpha_open_uv=self.alpha_open_uv,
                       **_line_amounts(self.line_noise))
        if not 0 < self.alpha_ratio < math.inf:
            raise ValueError(f"alpha_ratio must be positive and finite, got {self.alpha_ratio}")
        if self.psd_segment < 1:
            raise ValueError(f"psd_segment must be positive, got {self.psd_segment}")
        lo, hi = self.alpha_band_hz
        if not 0 < lo <= hi < self.rate / 2:
            raise ValueError(f"alpha band {lo}:{hi} Hz outside (0, Nyquist)")


def berger_session(spec: BergerSpec = BergerSpec()) -> Recording:
    """Eyes-open / eyes-closed session with a known alpha contrast.

    Both segments share one pink-noise realization per channel; an
    alpha-band comb (one sinusoid per PSD bin center inside the band,
    per-channel random phases) is scaled by alpha_ratio in the closed
    segment. Every channel therefore shows the same known power ratio.
    """
    n_seg = int(round(spec.segment_s * spec.rate))
    rng = np.random.default_rng(spec.seed)
    t = np.arange(2 * n_seg) / spec.rate
    envelope = np.ones(2 * n_seg)
    envelope[n_seg:] = spec.alpha_ratio

    df = spec.rate / spec.psd_segment
    k_lo = int(np.ceil(spec.alpha_band_hz[0] / df))
    k_hi = int(np.floor(spec.alpha_band_hz[1] / df))
    comb_freqs = np.arange(k_lo, k_hi + 1) * df

    data = np.empty((spec.n_channels, 2 * n_seg))
    for c in range(spec.n_channels):
        noise = _pink_noise(n_seg, rng, spec.pink_noise_rms)
        x = np.concatenate([noise, noise])  # identical noise in both segments
        alpha = np.zeros(2 * n_seg)
        for f in comb_freqs:
            alpha += np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        x = x + spec.alpha_open_uv * envelope * alpha
        if spec.line_noise is not None:
            lf, la = spec.line_noise
            x = x + la * np.sin(2.0 * np.pi * lf * t + rng.uniform(0.0, 2.0 * np.pi))
        data[c] = x
    events = [
        Event("eyes_open", 0.0, spec.segment_s),
        Event("eyes_closed", spec.segment_s, 2 * spec.segment_s),
    ]
    truth = {
        "alpha_open_uv": spec.alpha_open_uv,
        "alpha_ratio": spec.alpha_ratio,
        "comb_freqs": comb_freqs.tolist(),
        "pink_noise_rms": spec.pink_noise_rms,
        "seed": spec.seed,
    }
    return Recording(
        rate=spec.rate,
        labels=[f"ch{i + 1}" for i in range(spec.n_channels)],
        data=data,
        events=events,
        meta={"truth": truth},
    )
