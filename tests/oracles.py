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
from dataclasses import dataclass, replace

import numpy as np

from earpipe.artifact import (
    ECG_MAX_ITER,
    ECG_MAX_UNITS,
    ICA_TOL,
    SKEW_EPOCH_S,
    AsrConfig,
    AsrModel,
    FlaggedWindow,
    SkewUnit,
    _deflate,
    _whiten,
    epoch_skewness,
)
from earpipe.cardiac import (
    INTEGRATION_S,
    REFINE_S,
    REFRACTORY_S,
    REFRACTORY_TOL_S,
    SEARCHBACK_FACTOR,
    _bandpass_qrs,
    _fiducial_peaks,
    pan_tompkins,
)
from earpipe.filters import (
    FirFilter,
    _line_design_matrix,
    check_fir_length,
    check_line_noise,
    overlap_add_windows,
)
from earpipe.ingest import (
    DEFAULT_RATE,
    FOOTER_HI,
    FOOTER_LO,
    HEADER_BYTE,
    PACKET_LEN,
    WORDS_PER_PACKET,
    IntegrityReport,
    Recording,
    counts_to_microvolts,
)
from earpipe.spectral import PsdEstimate, check_welch_window, welch_psd_recording


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


def skew_units_loop(rec: Recording) -> Iterator[SkewUnit]:
    """artifact.skew_units with a per-sample fixed-point step."""
    rate = rec.rate
    *_, z = _whiten(rec.data, None)
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
        for it in range(1, ECG_MAX_ITER + 1):
            y = w @ fit
            w_new = _deflate((fit @ (y * y)) / len(y) - 2.0 * y.mean() * w, found)
            delta = abs(1.0 - abs(float(w_new @ w)))
            w = w_new
            if delta < ICA_TOL:
                break
        found = np.vstack([found, w])
        source = w @ z
        epochs = source[: m * width].reshape(m, width)
        sign = -1.0 if epoch_skewness(epochs[0::2].ravel(), rate) < 0 else 1.0
        held_out = sign * epoch_skewness(epochs[1::2].ravel(), rate)
        yield SkewUnit(index=index, source=sign * source, held_out_skew=held_out, n_iter=it)


# The QRS detector and the beat matcher as they stood before the
# detector's two search-backs became one helper and the matcher's six
# branches became three. The code is copied unchanged except that the
# detector returns its beat times plus how often each search-back
# accepted a beat, and the matcher returns (pairs, unmatched_ref,
# unmatched_alt); the tests hold the package to the same beats and pairs.


def pan_tompkins_loop(x: np.ndarray, rate: float) -> tuple[np.ndarray, dict]:
    """cardiac.pan_tompkins on a signal it takes (1-D, 5 s or more, at
    100 Hz or more): (beat times, {"loop": n, "tail": m} search-back hits)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    fired = {"loop": 0, "tail": 0}

    bp = _bandpass_qrs(x, rate)
    der_kernel = np.array([1.0, 2.0, 0.0, -2.0, -1.0]) * (rate / 8.0)
    der = np.convolve(bp, der_kernel, mode="same")
    sq = der * der
    w = max(1, int(round(INTEGRATION_S * rate)))
    mwi = np.convolve(sq, np.ones(w) / w, mode="same")

    if not np.any(mwi > 0):
        return np.empty(0), fired

    refractory = math.ceil((REFRACTORY_S - REFRACTORY_TOL_S) * rate)
    peaks = _fiducial_peaks(mwi, refractory)
    if len(peaks) == 0:
        return np.empty(0), fired
    # scale-proportional start: largest early fiducial as signal level,
    # median early fiducial as noise level
    lead = int(round(2.0 * rate))
    early = [float(mwi[p]) for p in peaks if p < lead] or [float(mwi[peaks[0]])]
    spki = 0.5 * max(early)
    npki = 0.5 * float(np.median(early))

    qrs: list[int] = []
    rr_hist: list[float] = []

    def accept(idx: int, gain: float):
        nonlocal spki
        spki = gain * mwi[idx] + (1.0 - gain) * spki
        if qrs:
            rr_hist.append(float(idx - qrs[-1]))
            if len(rr_hist) > 8:
                rr_hist.pop(0)
        qrs.append(idx)

    k = 0
    while k < len(peaks):
        p = int(peaks[k])
        if qrs and p - qrs[-1] < refractory:
            k += 1
            continue
        thr = npki + 0.25 * (spki - npki)
        if mwi[p] >= thr:
            accept(p, 0.125)
            k += 1
            continue
        npki = 0.125 * mwi[p] + 0.875 * npki
        if qrs and rr_hist:
            rr_avg = float(np.mean(rr_hist))
            if p - qrs[-1] > SEARCHBACK_FACTOR * rr_avg:
                lo = qrs[-1] + refractory
                cands = [
                    int(c) for c in peaks if lo <= c <= p and c not in qrs and mwi[c] >= 0.5 * thr
                ]
                if cands:
                    best = max(cands, key=lambda c: mwi[c])
                    accept(best, 0.25)
                    fired["loop"] += 1
                    if best != p:
                        continue  # revisit p against the updated state
        k += 1

    # tail search-back: a final beat may sit below threshold with no
    # later peak to trigger the usual check
    if qrs and rr_hist:
        rr_avg = float(np.mean(rr_hist))
        thr = npki + 0.25 * (spki - npki)
        if n - qrs[-1] > SEARCHBACK_FACTOR * rr_avg:
            lo = qrs[-1] + refractory
            cands = [int(c) for c in peaks if c >= lo and c not in qrs and mwi[c] >= 0.5 * thr]
            if cands:
                accept(max(cands, key=lambda c: mwi[c]), 0.25)
                fired["tail"] += 1
                qrs.sort()

    # refine each detection to the bandpassed local maximum nearby
    half = int(round(REFINE_S * rate))
    refined: list[int] = []
    for p in qrs:
        lo = max(0, p - half)
        hi = min(n, p + half + 1)
        refined.append(lo + int(np.argmax(bp[lo:hi])))
    refined.sort()
    dedup: list[int] = []
    for idx in refined:
        if not dedup or idx - dedup[-1] >= refractory:
            dedup.append(idx)
    return np.array(dedup, dtype=float) / rate, fired


def match_beats_loop(r: np.ndarray, a: np.ndarray, tolerance_s: float) -> tuple[tuple, int, int]:
    """cardiac.match_beats on two beat-time arrays: (pairs, unmatched_ref, unmatched_alt)."""
    i = j = 0
    pairs: list[tuple[int, int]] = []
    un_r = un_a = 0
    while i < len(r) and j < len(a):
        d = abs(r[i] - a[j])
        d_next_r = abs(r[i + 1] - a[j]) if i + 1 < len(r) else np.inf
        d_next_a = abs(r[i] - a[j + 1]) if j + 1 < len(a) else np.inf
        if d <= min(d_next_r, d_next_a):
            if d <= tolerance_s:
                pairs.append((i, j))
                i += 1
                j += 1
            elif r[i] <= a[j]:
                un_r += 1
                i += 1
            else:
                un_a += 1
                j += 1
        elif d_next_a < d_next_r:
            un_a += 1
            j += 1
        elif d_next_r < d_next_a:
            un_r += 1
            i += 1
        elif r[i] <= a[j]:
            un_r += 1
            i += 1
        else:
            un_a += 1
            j += 1
    un_r += len(r) - i
    un_a += len(a) - j
    return tuple(pairs), un_r, un_a


# The one-channel detector of `earpipe ecg` before that command took the
# cardiac-source decision of `run`: one pan_tompkins pass on the
# channel's R lobe, chosen by the sign of its median epoch skewness. On
# a channel with a heart the decision must time the same beats.


def detect_beats(x: np.ndarray, rate: float) -> np.ndarray:
    """The beat times of one pan_tompkins pass over sign * x, where sign
    is the sign of epoch_skewness(x) (+1 for 0)."""
    sign = -1.0 if epoch_skewness(x, rate) < 0 else 1.0
    return pan_tompkins(sign * np.asarray(x, dtype=float), rate).beat_times


def decode_word(raw: bytes) -> int:
    """Decode one 24-bit big-endian two's-complement channel word."""
    if len(raw) != 3:
        raise ValueError(f"channel word must be 3 bytes, got {len(raw)}")
    return int.from_bytes(raw, "big", signed=True)


def encode_word(count: int) -> bytes:
    if not -(2**23) <= count <= 2**23 - 1:
        raise ValueError(f"count {count} outside signed 24-bit range")
    return int(count).to_bytes(3, "big", signed=True)


@dataclass(frozen=True)
class RawPacket:
    """One 33-byte packet as it came off the wire."""

    sample_number: int
    channel_words: tuple[int, ...]
    aux: bytes = b"\x00" * 6
    footer_tag: int = 0

    def __post_init__(self):
        if not 0 <= self.sample_number <= 255:
            raise ValueError(f"sample number {self.sample_number} outside 0-255")
        if len(self.channel_words) != WORDS_PER_PACKET:
            raise ValueError("packet carries exactly 8 channel words")
        if len(self.aux) != 6:
            raise ValueError("aux block is exactly 6 bytes")
        if not 0 <= self.footer_tag <= 0x0F:
            raise ValueError(f"footer tag {self.footer_tag} outside 0x0-0xF")

    def encode(self) -> bytes:
        body = bytearray([HEADER_BYTE, self.sample_number])
        for w in self.channel_words:
            body += encode_word(w)
        body += self.aux
        body.append(FOOTER_LO + self.footer_tag)
        return bytes(body)


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
    data: bytes, rate: float = DEFAULT_RATE
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
    scale = counts_to_microvolts(1.0)

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


# The per-window stages as loops with one small numpy call per window or
# row: a direct convolution per row, one lstsq per line-fit window, one
# projection per ASR window and one FFT per Welch window. The package
# runs them as block operations and must agree with these to rounding.


def apply_zero_phase_loop(x: np.ndarray, fir: FirFilter) -> np.ndarray:
    """filters.apply_zero_phase_array with one np.convolve per row."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    n = rows.shape[1]
    check_fir_length(n, fir)
    d = fir.group_delay
    out = np.empty_like(rows)
    for i in range(rows.shape[0]):
        full = np.convolve(rows[i], fir.taps)
        out[i] = full[d : d + n]
    return out[0] if single else out


def remove_line_noise_loop(
    rec: Recording,
    f0: float = 50.0,
    win_s: float = 4.0,
    step_s: float = 1.0,
    harmonics: int = 1,
) -> Recording:
    """filters.remove_line_noise with one design matrix and lstsq per window."""
    check_line_noise(rec.rate, f0, win_s, step_s, harmonics)
    n = rec.n_samples
    if n == 0:
        raise ValueError("cannot filter an empty recording")
    t = np.arange(n) / rec.rate

    w_len = int(round(win_s * rec.rate))
    if w_len >= n:
        design = _line_design_matrix(t, f0, harmonics)
        beta, *_ = np.linalg.lstsq(design, rec.data.T, rcond=None)
        return rec.with_data(rec.data - (design @ beta).T)

    starts, taper = overlap_add_windows(n, w_len, max(1, int(round(step_s * rec.rate))))
    est = np.zeros_like(rec.data)
    wsum = np.zeros(n)
    for s in starts:
        seg = rec.data[:, s : s + w_len]
        design = _line_design_matrix(t[s : s + w_len], f0, harmonics)
        beta, *_ = np.linalg.lstsq(design, seg.T, rcond=None)
        est[:, s : s + w_len] += taper * (design @ beta).T
        wsum[s : s + w_len] += taper
    est /= np.maximum(wsum, np.finfo(float).tiny)
    return rec.with_data(rec.data - est)


def asr_process_loop(
    rec: Recording, model: AsrModel, cfg: AsrConfig = AsrConfig()
) -> tuple[Recording, list[FlaggedWindow]]:
    """artifact.asr_process with one projection and RMS per window."""
    if model.basis.shape[0] != rec.n_channels:
        raise ValueError("model channel count does not match the recording")
    n = rec.n_samples
    w = int(round(cfg.proc_win_s * rec.rate))
    if w < 2 or w > n:
        raise ValueError(f"processing window of {cfg.proc_win_s} s does not fit the data")
    starts, taper = overlap_add_windows(n, w, max(1, w // 2))
    corr = np.zeros_like(rec.data)
    wsum = np.zeros(n)
    touched = np.zeros(n, dtype=bool)
    flagged: list[FlaggedWindow] = []
    n_comp = model.basis.shape[1]
    for idx, s in enumerate(starts):
        seg = rec.data[:, s : s + w]
        comp = model.basis.T @ seg
        rms = np.sqrt((comp**2).mean(axis=1))
        bad = rms > model.thresholds
        wsum[s : s + w] += taper
        if not bad.any():
            continue
        comp_fixed = comp.copy()
        comp_fixed[bad, :] = 0.0
        rebuilt = model.basis @ comp_fixed
        corr[:, s : s + w] += taper * (rebuilt - seg)
        touched[s : s + w] = True
        frac = float(bad.sum()) / n_comp
        if frac > cfg.window_criterion:
            flagged.append(
                FlaggedWindow(index=idx, start_s=s / rec.rate, end_s=(s + w) / rec.rate,
                              bad_fraction=frac)
            )
    if not touched.any():
        return rec.with_data(rec.data), flagged
    scale = np.where(wsum > 0, wsum, 1.0)
    return rec.with_data(rec.data + np.where(touched, corr / scale, 0.0)), flagged


def welch_psd(x: np.ndarray, rate: float, seg: int = 256, overlap: int = 64) -> PsdEstimate:
    """welch_psd_recording of one channel given as a 1-D array.

    A convenience wrapper for tests, not an oracle: it runs the library's
    own Welch core. With overlap=0 and len(x)==seg this reduces to a
    single periodogram.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("welch_psd expects a single channel; use welch_psd_recording")
    rec = Recording(rate=rate, labels=["x"], data=x[None, :])
    return replace(welch_psd_recording(rec, seg=seg, overlap=overlap), labels=[])


def welch_psd_loop(
    rec: Recording,
    seg: int = 256,
    overlap: int = 64,
    exclude_spans: list[tuple[float, float]] | None = None,
) -> PsdEstimate:
    """spectral.welch_psd_recording with one FFT per window."""
    check_welch_window(seg, overlap)
    hop = seg - overlap
    n = rec.n_samples
    if n < seg:
        raise ValueError(f"{n} samples is too short for {seg}-sample windows")
    count = 1 + (n - seg) // hop
    keep: list[int] = []
    for j in range(count):
        s = j * hop
        t_lo = s / rec.rate
        t_hi = (s + seg) / rec.rate
        bad = False
        for a, b in exclude_spans or ():
            if t_lo < b and a < t_hi:
                bad = True
                break
        if not bad:
            keep.append(s)
    if not keep:
        raise ValueError("every segment overlaps an excluded span; nothing to average")

    w = np.hamming(seg)
    norm = 1.0 / (rec.rate * np.sum(w * w))
    acc = np.zeros((rec.n_channels, seg // 2 + 1))
    for s in keep:
        d = rec.data[:, s : s + seg]
        d = d - d.mean(axis=1, keepdims=True)
        spect = np.fft.rfft(d * w, axis=1)
        p = (spect.real**2 + spect.imag**2) * norm
        p[:, 1:] *= 2.0
        if seg % 2 == 0:
            p[:, -1] *= 0.5
        acc += p
    acc /= len(keep)
    return PsdEstimate(
        freqs=np.fft.rfftfreq(seg, d=1.0 / rec.rate),
        power=acc,
        rate=rec.rate,
        window_count=len(keep),
        labels=list(rec.labels),
    )
