"""Artifact handling: ICA decomposition, cardiac-source extraction, and
subspace-based burst rejection.

The ICA is a symmetric fixed-point iteration with the log-cosh
contrast on PCA-whitened data. The cardiac source is found without it:
a one-unit fixed point with the skewness contrast extracts the most
skewed directions of the whitened data one by one, fitted on half the
epochs and gated on the other half; each fixed-point step contracts the
fit epochs' third-moment tensor, built once per segment, so a step
costs microseconds rather than passes over the samples. Burst
rejection (ASR-style) learns an orthonormal component basis and
per-component RMS thresholds from clean calibration windows, then
rebuilds contaminated processing windows from the sub-threshold
subspace with raised-cosine cross-fades.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cardiac import MIN_DURATION_S, MIN_RATE_HZ, BeatSeries, pan_tompkins
from .filters import blend_windows, overlap_add_windows
from .ingest import Recording

ICA_TOL = 1e-6
ICA_MAX_ITER = 2000
# a skewed source converges in a few steps; the cap bounds a unit that
# only rotates in a near-Gaussian remainder, at microseconds per step
ECG_MAX_ITER = 200
ECG_MAX_UNITS = 4


@dataclass
class IcaResult:
    mixing: np.ndarray  # (channels, components)
    unmixing: np.ndarray  # (components, channels)
    sources: np.ndarray  # (components, samples), unit variance rows
    channel_means: np.ndarray
    converged: bool
    n_iter: int
    seed: int

    @property
    def n_components(self) -> int:
        return self.sources.shape[0]


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    s, u = np.linalg.eigh(w @ w.T)
    s = np.maximum(s, 1e-12)
    return (u / np.sqrt(s)) @ u.T @ w


# an eigenvalue at or below this fraction of the largest is rounding
# noise: a linked-mastoid re-reference leaves one exactly null direction
NULL_EIG_RTOL = 1e-12


def _eigen_split(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of a covariance that are more than rounding noise
    and their eigenvectors, ascending as eigh returns them; a ValueError
    when none is."""
    evals, evecs = np.linalg.eigh(cov)
    keep = evals > max(evals.max(), 0) * NULL_EIG_RTOL
    if not keep.any():
        raise ValueError("data has no variance to decompose")
    return evals[keep], evecs[:, keep]


def _whiten(x: np.ndarray, n_components: int | None):
    """Center (channels, samples) data and find its PCA whitening to at
    most n_components dimensions, the largest first; directions whose
    variance is rounding noise are dropped (_eigen_split). Returns the
    channel means, the whitening (k, channels) and coloring (channels, k)
    matrices and the centered data (channels, samples).
    """
    if x.ndim != 2:
        raise ValueError("expected (channels, samples) data")
    n_ch, n = x.shape
    if n < 20 * n_ch:
        raise ValueError(f"need at least {20 * n_ch} samples for {n_ch} channels, got {n}")
    k = n_ch if n_components is None else n_components
    if not 1 <= k <= n_ch:
        raise ValueError(f"n_components {k} outside 1-{n_ch}")

    means = x.mean(axis=1)
    xc = x - means[:, None]
    cov = (xc @ xc.T) / n
    evals, evecs = _eigen_split(cov)
    evals, evecs = evals[::-1][:k], evecs[:, ::-1][:, :k]
    whiten = evecs.T / np.sqrt(evals)[:, None]  # (k, channels)
    color = evecs * np.sqrt(evals)[None, :]  # (channels, k)
    return means, whiten, color, xc


def ica_decompose(
    rec: Recording | np.ndarray,
    n_components: int | None = None,
    seed: int | None = None,
    max_iter: int = ICA_MAX_ITER,
    tol: float = ICA_TOL,
) -> IcaResult:
    """Fixed-point ICA with the log-cosh contrast.

    Data is centered and PCA-whitened; directions whose variance is
    rounding noise are dropped, so rank-deficient data gives fewer
    components. The unmixing matrix is driven to a fixed
    point under symmetric decorrelation until the largest change falls
    below tol or max_iter is reached. Runs are bit-reproducible for a
    given seed.
    """
    if seed is None:
        raise ValueError("ica_decompose requires an explicit seed")
    x = rec.data if isinstance(rec, Recording) else np.asarray(rec, dtype=float)
    means, whiten, color, xc = _whiten(x, n_components)
    z = whiten @ xc
    del xc
    k, n = z.shape

    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    converged = False
    it = 0
    # the (k, n) temporaries of one step live in two buffers reused by
    # every step; each step makes the same calls, so iterates are exact
    g = np.empty((k, n))
    tmp = np.empty((k, n))
    for it in range(1, max_iter + 1):
        np.matmul(w, z, out=g)
        np.tanh(g, out=g)
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        g_prime = tmp.mean(axis=1)
        w_new = (g @ z.T) / n - g_prime[:, None] * w
        w_new = _sym_decorrelate(w_new)
        delta = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if delta < tol:
            converged = True
            break
    del g, tmp

    sources = w @ z
    del z
    # whitening leaves rows at unit variance up to numerical error;
    # normalize exactly and push the scale into the mixing columns
    stds = sources.std(axis=1, ddof=0)
    stds = np.where(stds > 0, stds, 1.0)
    sources /= stds[:, None]
    unmixing = (w @ whiten) / stds[:, None]
    mixing = (color @ w.T) * stds[None, :]
    return IcaResult(
        mixing=mixing,
        unmixing=unmixing,
        sources=sources,
        channel_means=means,
        converged=converged,
        n_iter=it,
        seed=seed,
    )


RR_PLAUSIBLE_MS = (300.0, 1500.0)
ECG_SCORE_THRESHOLD = 0.5
# QRS complexes are sparse spikes of one sign, so a cardiac source is
# skewed in every epoch; noise, EEG rhythms and their mixtures are
# near-symmetric. Measured |epoch_skewness|: at most 0.22 on white and
# pink noise, EEG mixtures and burst components; at least 1.31 on
# recovered ECG components. A direction fitted to be skewed is scored
# on epochs the fit never saw, so the search cannot inflate its own gate.
ECG_SKEW_THRESHOLD = 0.5
SKEW_EPOCH_S = MIN_DURATION_S  # every signal the detector takes has an epoch


def _rhythm_score(beats: BeatSeries) -> float:
    if len(beats) < 3:
        return 0.0
    rr = np.diff(beats.beat_times) * 1000.0
    frac = float(np.mean((rr >= RR_PLAUSIBLE_MS[0]) & (rr <= RR_PLAUSIBLE_MS[1])))
    cv = float(rr.std(ddof=0)) / float(rr.mean())  # BeatSeries keeps every interval positive
    return frac * max(0.0, 1.0 - cv)


def epoch_skewness(x: np.ndarray, rate: float) -> float:
    """Median sample skewness over consecutive 5 s epochs.

    A trailing part epoch is dropped, a constant epoch counts as 0 and a
    signal shorter than one epoch gives 0. The median ignores a burst
    that skews only the epochs it falls in. For Gaussian noise each
    epoch's skewness is about N(0, 6 / epoch samples), so the median
    sits near 0. Negating the signal negates the result exactly.
    """
    x = np.asarray(x, dtype=float)
    w = int(round(SKEW_EPOCH_S * rate))
    m = len(x) // w if w > 0 else 0
    if m == 0:
        return 0.0
    e = x[: m * w].reshape(m, w)
    e = e - e.mean(axis=1, keepdims=True)
    m2 = (e * e).mean(axis=1)
    m3 = (e * e * e).mean(axis=1)
    skew = np.divide(m3, m2**1.5, out=np.zeros(m), where=m2 > 0)
    return float(np.median(skew))


@dataclass(frozen=True)
class SkewUnit:
    index: int  # place in extraction order
    source: np.ndarray  # over the whole segment, signed to skew positive on the fit epochs
    held_out_skew: float  # epoch_skewness over the epochs the fit never saw
    n_iter: int


def _deflate(w: np.ndarray, found: np.ndarray) -> np.ndarray:
    w = w - found.T @ (found @ w)
    return w / np.linalg.norm(w)


# floats in the pair-product buffer of _third_moments (2 MB): one chunk's
# samples times the k (k + 1) / 2 row pairs
MOMENT_CHUNK_ELEMS = 1 << 18


def _third_moments(fit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The third-moment tensor of (k, n) data as a (k, k * k) matrix,
    m3[i, j * k + l] = mean(fit_i * fit_j * fit_l), and the row means.

    The tensor is symmetric in its three indices, so only the row pairs
    j <= l are formed. The samples are taken in chunks; one buffer holds
    a chunk's pair products fit_j * fit_l, and one matrix product sums
    them against every row.
    """
    k, n = fit.shape
    rows_j, rows_l = np.triu_indices(k)
    chunk = max(1, MOMENT_CHUNK_ELEMS // len(rows_j))
    sums = np.zeros((len(rows_j), k))  # [p, i]: sum of fit_j fit_l fit_i, p = (j, l)
    buf = np.empty((len(rows_j), min(chunk, n)))
    for s in range(0, n, chunk):
        part = fit[:, s : s + chunk]
        pairs = buf[:, : part.shape[1]]
        p = 0
        for j in range(k):
            np.multiply(part[j], part[j:], out=pairs[p : p + k - j])
            p += k - j
        sums += pairs @ part.T
    m3 = np.empty((k, k, k))
    m3[rows_j, rows_l] = sums
    m3[rows_l, rows_j] = sums
    return m3.reshape(k, k * k) / n, fit.mean(axis=1)


def skew_units(rec: Recording) -> Iterator[SkewUnit]:
    """The most skewed directions of the whitened data, one at a time.

    The data is split into consecutive SKEW_EPOCH_S epochs; a trailing
    part epoch is dropped, and data shorter than two epochs yields no
    unit and is not whitened. Otherwise it is PCA-whitened as for
    ica_decompose, keeping every direction above the null floor. Each
    unit is fitted on the even epochs alone by the one-unit fixed point
    with the skewness contrast g(u) = u^2 (Hyvarinen 1999):
    w <- mean(z (w'z)^2) - 2 mean(w'z) w, deflated against the units
    before it and normalized. It starts at the remaining whitened axis
    with the largest |epoch_skewness| on those epochs and stops once
    |1 - |<w_new, w>|| < ICA_TOL or after ECG_MAX_ITER steps. Up to
    ECG_MAX_UNITS units, computed as they are asked for. Deterministic:
    there is no random start.

    mean(z (w'z)^2) is the fit epochs' third-moment tensor contracted
    twice with w, so the tensor is built once, in one pass over the fit
    epochs, and each step is a (k, k^2) matrix-vector product: a tensor
    power iteration (Anandkumar et al. 2014). A unit that runs to the
    ECG_MAX_ITER cap costs microseconds per step, not passes over the data.
    Only the fit epochs are whitened; a unit's source over the segment is
    w times the whitening, applied to the centered channels.
    """
    rate = rec.rate
    width = int(round(SKEW_EPOCH_S * rate))
    m = rec.n_samples // width if width > 0 else 0
    if m < 2:
        return
    _, whiten, _, xc = _whiten(rec.data, None)
    k, n_ch = whiten.shape
    fit = whiten @ xc[:, : m * width].reshape(n_ch, m, width)[:, 0::2].reshape(n_ch, -1)
    starts = np.argsort([-abs(epoch_skewness(row, rate)) for row in fit], kind="stable")
    m3, mu = _third_moments(fit)
    del fit
    found = np.empty((0, k))
    for index in range(min(ECG_MAX_UNITS, k)):
        w = _deflate(np.eye(k)[starts[index]], found)
        it = 0
        for it in range(1, ECG_MAX_ITER + 1):
            w_new = _deflate(m3 @ np.outer(w, w).ravel() - 2.0 * float(w @ mu) * w, found)
            delta = abs(1.0 - abs(float(w_new @ w)))
            w = w_new
            if delta < ICA_TOL:
                break
        found = np.vstack([found, w])
        source = (w @ whiten) @ xc
        epochs = source[: m * width].reshape(m, width)
        sign = -1.0 if epoch_skewness(epochs[0::2].ravel(), rate) < 0 else 1.0
        held_out = sign * epoch_skewness(epochs[1::2].ravel(), rate)
        yield SkewUnit(index=index, source=sign * source, held_out_skew=held_out, n_iter=it)


@dataclass(frozen=True)
class EcgPick:
    index: int
    score: float
    beats: BeatSeries


def extract_ecg(rec: Recording) -> EcgPick | None:
    """The cardiac source of a multichannel recording, or None.

    The pick is the first of the skew_units whose held-out skewness
    reaches ECG_SKEW_THRESHOLD and whose rhythm score reaches
    ECG_SCORE_THRESHOLD; its index is the unit's place in extraction
    order. The gate is one-sided: the fit made the unit skew positive,
    and a heart keeps that sign on the held-out epochs where a direction
    fitted to noise does so only by chance. One pan_tompkins pass over
    the whole unit, as signed, finds the beats, so the R spike is the
    lobe it times; the rhythm score is the fraction of R-R intervals
    within 300-1500 ms times (1 - their coefficient of variation). Data
    below MIN_RATE_HZ (never whitened) or under two epochs (10 s) gets no pick.
    """
    if rec.rate < MIN_RATE_HZ:
        return None
    for unit in skew_units(rec):
        if unit.held_out_skew < ECG_SKEW_THRESHOLD:
            continue
        beats = pan_tompkins(unit.source, rec.rate)
        score = _rhythm_score(beats)
        if score >= ECG_SCORE_THRESHOLD:
            return EcgPick(index=unit.index, score=score, beats=beats)
    return None


@dataclass(frozen=True)
class AsrConfig:
    burst_k: float = 12.0
    window_criterion: float = 0.15
    calib_win_s: float = 1.0
    proc_win_s: float = 0.5

    def __post_init__(self):
        if not self.burst_k > 0:  # also refuses nan; inf repairs nothing
            raise ValueError(f"burst_k must be positive, got {self.burst_k}")
        if not 0 < self.window_criterion <= 1:
            raise ValueError(f"window_criterion must lie in (0, 1], got {self.window_criterion}")
        if not (0 < self.calib_win_s < math.inf and 0 < self.proc_win_s < math.inf):
            raise ValueError("window lengths must be positive and finite")


MIN_CALIB_WINDOWS = 10
CALIB_Z_BOUNDS = (-3.5, 5.0)


@dataclass
class AsrModel:
    basis: np.ndarray  # (channels, components), orthonormal columns, null directions left out
    thresholds: np.ndarray  # per-component RMS threshold
    calib_windows_used: int


def calibration_windows(n_samples: int, rate: float, cfg: AsrConfig) -> tuple[int, int]:
    """The length and count of the calibration windows asr_calibrate cuts
    from n_samples; ValueError when the window or the data is too short."""
    w = int(round(cfg.calib_win_s * rate))
    if w < 2:
        raise ValueError(f"calibration window of {cfg.calib_win_s} s is too short")
    count = n_samples // w
    if count < MIN_CALIB_WINDOWS:
        raise ValueError(
            f"need at least {MIN_CALIB_WINDOWS} calibration windows, data allows {count}"
        )
    return w, count


def asr_calibrate(rec: Recording, cfg: AsrConfig = AsrConfig()) -> AsrModel:
    """Learn the clean-data component basis and burst thresholds.

    Calibration windows are consecutive non-overlapping chunks whose
    per-channel RMS z-scores (across windows) stay within [-3.5, 5].
    The eigenvectors of the clean covariance form the basis, less those
    whose eigenvalue is rounding noise (_eigen_split, as in _whiten), so
    a null direction of a re-referenced montage is never counted as bad
    and data with no variance is refused; each component's threshold is
    mean + burst_k * std of its RMS over the clean windows.
    """
    w, count = calibration_windows(rec.n_samples, rec.rate, cfg)
    starts = np.arange(count) * w
    chunks = rec.data[:, : count * w].reshape(rec.n_channels, count, w)
    rms = np.sqrt(np.einsum("cwt,cwt->cw", chunks, chunks) / w)  # (channels, windows)
    mu = rms.mean(axis=1, keepdims=True)
    sd = rms.std(axis=1, ddof=0, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    z = (rms - mu) / sd
    clean = np.all((z >= CALIB_Z_BOUNDS[0]) & (z <= CALIB_Z_BOUNDS[1]), axis=0)
    n_clean = int(clean.sum())
    if n_clean < MIN_CALIB_WINDOWS:
        raise ValueError(
            f"only {n_clean} clean calibration windows (z in [{CALIB_Z_BOUNDS[0]}, "
            f"{CALIB_Z_BOUNDS[1]}]); need {MIN_CALIB_WINDOWS}"
        )
    # the one copy of the clean windows, freed before their components are formed
    xc = chunks.compress(clean, axis=1).reshape(rec.n_channels, -1)
    cov = (xc @ xc.T) / xc.shape[1]
    del xc
    basis = _eigen_split(cov)[1]
    comp_rms = _window_rms(rec.data, basis, starts[clean], w).T  # (clean windows, components)
    thr = comp_rms.mean(axis=0) + cfg.burst_k * comp_rms.std(axis=0, ddof=0)
    return AsrModel(basis=basis, thresholds=thr, calib_windows_used=n_clean)


def processing_window(n_samples: int, rate: float, cfg: AsrConfig) -> int:
    """The length of the windows asr_process slides over n_samples;
    ValueError when it does not fit."""
    w = int(round(cfg.proc_win_s * rate))
    if w < 2 or w > n_samples:
        raise ValueError(f"processing window of {cfg.proc_win_s} s does not fit the data")
    return w


# floats in one block of _window_rms: its squared components plus their windows' copy (2 MB)
ASR_BLOCK_ELEMS = 1 << 18


def _window_rms(x: np.ndarray, basis: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """The RMS of every component over the length-w windows at ascending starts,
    (components, windows); the components are formed one column block of windows at a time."""
    k = basis.shape[1]
    rms = np.empty((k, len(starts)))
    per_block = max(1, ASR_BLOCK_ELEMS // max(1, 2 * k * w))
    for i in range(0, len(starts), per_block):
        first = starts[i]
        block = starts[i : i + per_block] - first
        comp = basis.T @ x[:, first : first + block[-1] + w]
        np.multiply(comp, comp, out=comp)
        windows = np.lib.stride_tricks.sliding_window_view(comp, w, axis=1)[:, block]
        rms[:, i : i + per_block] = windows.mean(axis=2)
    return np.sqrt(rms, out=rms)


def asr_process(
    rec: Recording, model: AsrModel, cfg: AsrConfig = AsrConfig()
) -> tuple[Recording, list[dict]]:
    """Suppress burst components window by window.

    Processing windows overlap 50%. In each, component amplitudes above
    their calibration threshold are rebuilt from the sub-threshold
    subspace (a least-squares projection, so window energy never grows);
    corrections are blended with a raised-cosine cross-fade. Windows
    where the over-threshold component fraction exceeds the window
    criterion are additionally flagged for downstream exclusion, each as
    the dict qc.json holds (index, start_s, end_s, bad_fraction). A
    window with nothing over threshold passes through bit-identically.
    Every window's component RMS is taken in column blocks; only the
    windows with a component over threshold are rebuilt.
    """
    if model.basis.shape[0] != rec.n_channels:
        raise ValueError("model channel count does not match the recording")
    n = rec.n_samples
    w = processing_window(n, rec.rate, cfg)
    hop = max(1, w // 2)
    starts, taper = overlap_add_windows(n, w, hop)
    bad = _window_rms(rec.data, model.basis, np.asarray(starts), w) > model.thresholds[:, None]
    frac = bad.mean(axis=0)
    flagged = [
        {"index": int(i), "start_s": starts[i] / rec.rate, "end_s": (starts[i] + w) / rec.rate,
         "bad_fraction": float(frac[i])}
        for i in np.flatnonzero(frac > cfg.window_criterion)
    ]
    hits = np.flatnonzero(bad.any(axis=0))
    if len(hits) == 0:
        return rec.with_data(rec.data), flagged

    def corrections():
        for i in hits:
            seg = rec.data[:, starts[i] : starts[i] + w]
            comp = model.basis.T @ seg
            comp[bad[:, i], :] = 0.0
            yield starts[i], taper * (model.basis @ comp - seg)

    blended = blend_windows(np.zeros(rec.data.shape), starts, taper, hop, corrections())
    return rec.with_data(rec.data + blended), flagged
