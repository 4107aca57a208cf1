"""Reference implementations the tests check the library against.

Everything here is written independently of the package code paths it
verifies: direct DFT instead of the streaming PSD, explicit window
formulas instead of numpy's, normal equations instead of the package's
regression arithmetic. Slow and obvious beats fast and shared.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from earpipe.artifact import (
    ECG_MAX_ITER,
    ECG_MAX_UNITS,
    ICA_TOL,
    SKEW_EPOCH_S,
    SkewUnit,
    _deflate,
    _whiten,
    epoch_skewness,
)
from earpipe.ingest import (
    ADS_GAIN,
    ADS_VREF_VOLTS,
    DEFAULT_RATE,
    FOOTER_HI,
    FOOTER_LO,
    HEADER_BYTE,
    PACKET_LEN,
    WORDS_PER_PACKET,
    IntegrityReport,
    Recording,
    counts_to_microvolts,
    decode_word,
)


def dft(x: np.ndarray) -> np.ndarray:
    """Direct O(n^2) discrete Fourier transform."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


def hamming_window(n: int) -> np.ndarray:
    m = np.arange(n, dtype=float)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * m / (n - 1))


def psd_one_window(x: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Hamming-windowed periodogram of a single segment, scaled
    as a density (power per Hz), mean removed first."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = hamming_window(n)
    spec = dft((x - x.mean()) * w)
    raw = np.abs(spec) ** 2 / (rate * np.sum(w**2))
    bins = n // 2 + 1
    out = raw[:bins].copy()
    out[1:] *= 2.0
    if n % 2 == 0:
        out[-1] /= 2.0
    freqs = np.arange(bins) * rate / n
    return freqs, out


def fir_response(taps: np.ndarray, freq_hz: float, rate: float) -> complex:
    """Frequency response H(f) = sum h[k] e^{-i 2 pi f k / rate}."""
    taps = np.asarray(taps, dtype=float)
    k = np.arange(len(taps))
    return complex(np.sum(taps * np.exp(-2j * np.pi * freq_hz * k / rate)))


def normal_equations(design: np.ndarray, y: np.ndarray):
    """OLS coefficients, standard errors and R^2 via X'X b = X'y."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    df = len(y) - design.shape[1]
    s2 = float(resid @ resid) / df
    se = np.sqrt(np.diag(s2 * np.linalg.inv(xtx)))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else float("nan")
    return beta, se, r2


def align_sources(estimated: np.ndarray, truth: np.ndarray) -> list[float]:
    """Best |correlation| per true source over permutations and signs.

    Returns one value per row of `truth`, using the assignment of
    estimated rows that maximizes the total absolute correlation.
    """
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    corr = np.zeros((tru.shape[0], est.shape[0]))
    for i in range(tru.shape[0]):
        for j in range(est.shape[0]):
            a = tru[i] - tru[i].mean()
            b = est[j] - est[j].mean()
            denom = math.sqrt(float(a @ a) * float(b @ b))
            corr[i, j] = abs(float(a @ b)) / denom if denom > 0 else 0.0
    best = None
    best_total = -1.0
    for perm in itertools.permutations(range(est.shape[0]), tru.shape[0]):
        total = sum(corr[i, perm[i]] for i in range(tru.shape[0]))
        if total > best_total:
            best_total = total
            best = perm
    return [corr[i, best[i]] for i in range(tru.shape[0])]


def student_t_p_two_sided(t: float, df: int, n_grid: int = 400_000) -> float:
    """Two-sided t-test p-value by numeric integration of the density."""
    t = abs(float(t))
    if math.isinf(t):
        return 0.0
    # integrate the density from 0 to t with Simpson's rule, exploit symmetry
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)

    def pdf(x):
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    if t == 0.0:
        return 1.0
    xs = np.linspace(0.0, t, n_grid + 1)
    ys = np.array([pdf(x) for x in xs])
    h = t / n_grid
    area = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
    return max(0.0, min(1.0, 2.0 * (0.5 - area)))


def session_rows(path) -> tuple[list[str], np.ndarray]:
    """Header and (rows, fields) values of a session CSV, one float() per
    value, line by line: blank and '#' lines skipped, the first other
    line is the header."""
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def fixed_point_ica(x: np.ndarray, seed: int, max_iter: int, tol: float):
    """Symmetric log-cosh fixed-point ICA (Hyvarinen 1999) written the
    textbook way, with fresh arrays at every step: PCA whitening, then
    w <- E{g(wz) z'} - E{g'(wz)} w and symmetric decorrelation until
    max |1 - |<w_new, w>|| < tol. Returns (unmixing, mixing, sources,
    n_iter), sources scaled to unit variance."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    means = x.mean(axis=1)
    xc = x - means[:, None]
    evals, evecs = np.linalg.eigh((xc @ xc.T) / n)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    k = int(np.sum(evals > max(evals[0], 0) * 1e-12))
    evals, evecs = evals[:k], evecs[:, :k]
    whiten = evecs.T / np.sqrt(evals)[:, None]
    color = evecs * np.sqrt(evals)[None, :]
    z = whiten @ xc

    def decorrelate(w):
        s, u = np.linalg.eigh(w @ w.T)
        return (u / np.sqrt(np.maximum(s, 1e-12))) @ u.T @ w

    w = decorrelate(np.random.default_rng(seed).standard_normal((k, k)))
    it = 0
    for it in range(1, max_iter + 1):
        g = np.tanh(w @ z)
        g_prime = (1.0 - g * g).mean(axis=1)
        w_new = decorrelate((g @ z.T) / n - g_prime[:, None] * w)
        delta = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if delta < tol:
            break
    sources = w @ z
    stds = sources.std(axis=1, ddof=0)
    stds = np.where(stds > 0, stds, 1.0)
    return (w @ whiten) / stds[:, None], (color @ w.T) * stds[None, :], sources / stds[:, None], it


# The skewness extraction with every fixed-point step as two passes over
# the fit epochs: y = w'z, then mean(z y^2) - 2 mean(y) w. The package
# contracts the fit epochs' third-moment tensor instead; a unit that
# converges must take the same steps to the same direction.


def skew_units_loop(
    rec: Recording,
    n_components: int | None = None,
    max_iter: int = ECG_MAX_ITER,
    tol: float = ICA_TOL,
) -> Iterator[SkewUnit]:
    """artifact.skew_units with a per-sample fixed-point step."""
    rate = rec.rate
    *_, z = _whiten(rec.data, n_components)
    k, n = z.shape
    width = int(round(SKEW_EPOCH_S * rate))
    m = n // width if width > 0 else 0
    if m < 2:
        return
    fit = z[:, : m * width].reshape(k, m, width)[:, 0::2].reshape(k, -1)
    starts = np.argsort([-abs(epoch_skewness(row, rate)) for row in fit], kind="stable")
    found = np.empty((0, k))
    for index in range(min(ECG_MAX_UNITS, k)):
        w = _deflate(np.eye(k)[starts[index]], found)
        it = 0
        for it in range(1, max_iter + 1):
            y = w @ fit
            w_new = _deflate((fit @ (y * y)) / len(y) - 2.0 * y.mean() * w, found)
            delta = abs(1.0 - abs(float(w_new @ w)))
            w = w_new
            if delta < tol:
                break
        found = np.vstack([found, w])
        source = w @ z
        epochs = source[: m * width].reshape(m, width)
        sign = -1.0 if epoch_skewness(epochs[0::2].ravel(), rate) < 0 else 1.0
        held_out = sign * epoch_skewness(epochs[1::2].ravel(), rate)
        yield SkewUnit(index=index, source=sign * source, held_out_skew=held_out, n_iter=it)


@dataclass(frozen=True)
class SampleFrame:
    """One 16-channel sample in microvolts, t in seconds since stream start."""

    t: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


# The packet parser as a per-byte loop: greedy header/footer walk, one
# resync per damaged span, words decoded one at a time, packets paired
# by arrival order. ingest.parse_stream must walk and resync exactly as
# this does, and give its samples bit for bit while no packet is lost.


def parse_stream_loop(
    data: bytes,
    rate: float = DEFAULT_RATE,
    vref: float = ADS_VREF_VOLTS,
    gain: float = ADS_GAIN,
) -> tuple[list[SampleFrame], IntegrityReport]:
    """Parse a raw byte stream into 16-channel frames.

    Total over arbitrary input: malformed bytes are skipped to the next
    header candidate (counted in resyncs), sample-number gaps are counted
    as dropped packets, and packets are paired strictly by arrival order
    (lower channels first). A dangling unpaired packet at end of stream
    counts as dropped.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    buf = bytes(data)
    n = len(buf)
    pos = 0
    resyncs = 0
    dropped = 0
    frames: list[SampleFrame] = []
    pending: tuple[int, ...] | None = None  # lower-8 words awaiting their pair
    pending_seq = 0
    last_sn: int | None = None
    pkt_seq = 0  # packet index in the board's own timeline, gaps included
    scale = counts_to_microvolts(1.0, vref=vref, gain=gain)

    while pos < n:
        if buf[pos] != HEADER_BYTE:
            nxt = buf.find(bytes([HEADER_BYTE]), pos + 1)
            resyncs += 1
            pos = nxt if nxt != -1 else n
            continue
        if pos + PACKET_LEN > n:
            resyncs += 1
            break
        footer = buf[pos + PACKET_LEN - 1]
        if not FOOTER_LO <= footer <= FOOTER_HI:
            nxt = buf.find(bytes([HEADER_BYTE]), pos + 1)
            resyncs += 1
            pos = nxt if nxt != -1 else n
            continue
        sn = buf[pos + 1]
        words = tuple(
            decode_word(buf[pos + 2 + 3 * k : pos + 5 + 3 * k]) for k in range(WORDS_PER_PACKET)
        )
        pos += PACKET_LEN

        if last_sn is None:
            pkt_seq = 0
        else:
            pkt_seq += 1 + (sn - last_sn - 1) % 256
            dropped += (sn - last_sn - 1) % 256
        last_sn = sn

        if pending is None:
            pending = words
            pending_seq = pkt_seq
        else:
            frame_idx = pending_seq // 2
            vals = np.array(pending + words, dtype=float) * scale
            frames.append(SampleFrame(t=frame_idx / rate, values=vals))
            pending = None

    if pending is not None:
        dropped += 1

    actual = len(frames)
    if frames:
        expected = int(frames[-1].t * rate + 0.5) + 1
        first_t, last_t = frames[0].t, frames[-1].t
    else:
        expected = 0
        first_t = last_t = 0.0
    report = IntegrityReport(
        expected_samples=max(expected, actual),
        actual_samples=actual,
        first_t=first_t,
        last_t=last_t,
        dropped_packets=dropped,
        resyncs=resyncs,
    )
    return frames, report


def session_csv_text(rec) -> str:
    """The session CSV of a recording, one f-string per value: `#rate=`,
    the `t_s,<labels>` header, then `%.6f` rows."""
    t = rec.times()
    lines = [f"#rate={rec.rate:g}\n", "t_s," + ",".join(rec.labels) + "\n"]
    for i in range(rec.n_samples):
        row = ",".join(f"{v:.6f}" for v in rec.data[:, i])
        lines.append(f"{t[i]:.6f},{row}\n")
    return "".join(lines)
