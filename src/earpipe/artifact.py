"""Artifact handling: ICA decomposition, ECG component pickup, and
subspace-based burst rejection.

The ICA is a symmetric fixed-point iteration with the log-cosh
contrast on PCA-whitened data. Burst rejection (ASR-style) learns an
orthonormal component basis and per-component RMS thresholds from
clean calibration windows, then rebuilds contaminated processing
windows from the sub-threshold subspace with raised-cosine cross-fades.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cardiac import MIN_DURATION_S, BeatSeries, pan_tompkins
from .filters import overlap_add_windows
from .ingest import Recording

ICA_TOL = 1e-6
ICA_MAX_ITER = 2000


class CalibrationError(ValueError):
    pass


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


def ica_decompose(
    rec: Recording | np.ndarray,
    n_components: int | None = None,
    seed: int | None = None,
    max_iter: int = ICA_MAX_ITER,
    tol: float = ICA_TOL,
) -> IcaResult:
    """Fixed-point ICA with the log-cosh contrast.

    Data is centered and PCA-whitened; near-zero-variance directions are
    dropped with a warning. The unmixing matrix is driven to a fixed
    point under symmetric decorrelation until the largest change falls
    below tol or max_iter is reached. Runs are bit-reproducible for a
    given seed.
    """
    if seed is None:
        raise ValueError("ica_decompose requires an explicit seed")
    x = rec.data if isinstance(rec, Recording) else np.asarray(rec, dtype=float)
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
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    usable = int(np.sum(evals > max(evals[0], 0) * 1e-12))
    if usable < k:
        warnings.warn(
            f"rank-deficient data: reducing components {k} -> {usable}", RuntimeWarning
        )
        k = usable
    if k == 0:
        raise ValueError("data has no variance to decompose")
    evals, evecs = evals[:k], evecs[:, :k]
    whiten = evecs.T / np.sqrt(evals)[:, None]  # (k, channels)
    color = evecs * np.sqrt(evals)[None, :]  # (channels, k)
    z = whiten @ xc
    del xc

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
# skewed in every epoch; noise, EEG rhythms and their ICA mixtures are
# near-symmetric. Measured |epoch_skewness|: at most 0.22 on white and
# pink noise, EEG mixtures and burst components; at least 1.31 on
# recovered ECG components.
ECG_SKEW_THRESHOLD = 0.5
SKEW_EPOCH_S = MIN_DURATION_S  # every signal the detector takes has an epoch


def _rhythm_score(beats: BeatSeries) -> float:
    if len(beats) < 3:
        return 0.0
    rr = np.diff(beats.beat_times) * 1000.0
    frac = float(np.mean((rr >= RR_PLAUSIBLE_MS[0]) & (rr <= RR_PLAUSIBLE_MS[1])))
    mean_rr = float(rr.mean())
    if mean_rr <= 0:
        return 0.0
    cv = float(rr.std(ddof=0)) / mean_rr
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


def detect_beats(x: np.ndarray, rate: float) -> tuple[BeatSeries, float]:
    """QRS detection on both signs of one channel.

    Returns the sign's series with more beats (a tie keeps the signal as
    given) and its rhythm score: the better of the two signs' fraction
    of R-R intervals within 300-1500 ms times (1 - their coefficient of
    variation). The rhythm score alone does not tell noise from a heart;
    ecg_component_score adds the skewness gate that does. Raises
    ValueError for a signal the detector cannot take (too short, rate
    too low).
    """
    fwd = pan_tompkins(x, rate)
    rev = pan_tompkins(-x, rate)
    beats = fwd if len(fwd) >= len(rev) else rev
    return beats, max(_rhythm_score(fwd), _rhythm_score(rev))


def _gated_beats(src: np.ndarray, rate: float) -> tuple[BeatSeries, float] | None:
    """detect_beats on a source whose |epoch_skewness| reaches
    ECG_SKEW_THRESHOLD; None for any other source, and for one the
    detector cannot take."""
    if abs(epoch_skewness(src, rate)) < ECG_SKEW_THRESHOLD:
        return None
    try:
        return detect_beats(src, rate)
    except ValueError:
        return None


def ecg_component_score(src: np.ndarray, rate: float) -> float:
    """Heartbeat-likeness of one source: the rhythm score of
    detect_beats if the source passes the skewness gate, else 0.

    Independent of the source's sign. A score of ECG_SCORE_THRESHOLD or
    more makes the source eligible as the cardiac component.
    """
    found = _gated_beats(src, rate)
    return found[1] if found else 0.0


@dataclass(frozen=True)
class EcgPick:
    index: int
    score: float
    beats: BeatSeries


def select_ecg_ic(ica: IcaResult, rate: float) -> EcgPick | None:
    """The cardiac component: of the components that pass the skewness
    gate, the one with the best rhythm score, with its score and beats;
    None if no component passes or the best score is below
    ECG_SCORE_THRESHOLD.

    The detector runs only on components that pass the gate. Ties
    resolve to the lowest index.
    """
    best: EcgPick | None = None
    for i in range(ica.n_components):
        found = _gated_beats(ica.sources[i], rate)
        if found is None:
            continue
        beats, score = found
        if best is None or score > best.score + 1e-12:
            best = EcgPick(index=i, score=score, beats=beats)
    if best is None or best.score < ECG_SCORE_THRESHOLD:
        return None
    return best


@dataclass(frozen=True)
class AsrConfig:
    burst_k: float = 12.0
    window_criterion: float = 0.15
    calib_win_s: float = 1.0
    proc_win_s: float = 0.5

    def __post_init__(self):
        if self.burst_k <= 0:
            raise ValueError(f"burst_k must be positive, got {self.burst_k}")
        if not 0 < self.window_criterion <= 1:
            raise ValueError(f"window_criterion must lie in (0, 1], got {self.window_criterion}")
        if self.calib_win_s <= 0 or self.proc_win_s <= 0:
            raise ValueError("window lengths must be positive")


MIN_CALIB_WINDOWS = 10
CALIB_Z_BOUNDS = (-3.5, 5.0)


@dataclass
class AsrModel:
    basis: np.ndarray  # (channels, channels), orthonormal columns
    thresholds: np.ndarray  # per-component RMS threshold
    calib_windows_used: int


@dataclass(frozen=True)
class FlaggedWindow:
    index: int
    start_s: float
    end_s: float
    bad_fraction: float


def asr_calibrate(rec: Recording, cfg: AsrConfig = AsrConfig()) -> AsrModel:
    """Learn the clean-data component basis and burst thresholds.

    Calibration windows are consecutive non-overlapping chunks whose
    per-channel RMS z-scores (across windows) stay within [-3.5, 5].
    The eigenvectors of the clean covariance form the basis; each
    component's threshold is mean + burst_k * std of its RMS over the
    clean windows.
    """
    w = int(round(cfg.calib_win_s * rec.rate))
    if w < 2:
        raise CalibrationError(f"calibration window of {cfg.calib_win_s} s is too short")
    count = rec.n_samples // w
    if count < MIN_CALIB_WINDOWS:
        raise CalibrationError(
            f"need at least {MIN_CALIB_WINDOWS} calibration windows, data allows {count}"
        )
    chunks = rec.data[:, : count * w].reshape(rec.n_channels, count, w)
    rms = np.sqrt((chunks**2).mean(axis=2))  # (channels, windows)
    mu = rms.mean(axis=1, keepdims=True)
    sd = rms.std(axis=1, ddof=0, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    z = (rms - mu) / sd
    clean = np.all((z >= CALIB_Z_BOUNDS[0]) & (z <= CALIB_Z_BOUNDS[1]), axis=0)
    n_clean = int(clean.sum())
    if n_clean < MIN_CALIB_WINDOWS:
        raise CalibrationError(
            f"only {n_clean} clean calibration windows (z in [{CALIB_Z_BOUNDS[0]}, "
            f"{CALIB_Z_BOUNDS[1]}]); need {MIN_CALIB_WINDOWS}"
        )
    xc = chunks[:, clean, :].reshape(rec.n_channels, -1)
    cov = (xc @ xc.T) / xc.shape[1]
    _, basis = np.linalg.eigh(cov)
    comp = np.einsum("ck,cwt->kwt", basis, chunks[:, clean, :])
    comp_rms = np.sqrt((comp**2).mean(axis=2))  # (components, clean windows)
    thr = comp_rms.mean(axis=1) + cfg.burst_k * comp_rms.std(axis=1, ddof=0)
    return AsrModel(basis=basis, thresholds=thr, calib_windows_used=n_clean)


def asr_process(
    rec: Recording, model: AsrModel, cfg: AsrConfig = AsrConfig()
) -> tuple[Recording, list[FlaggedWindow]]:
    """Suppress burst components window by window.

    Processing windows overlap 50%. In each, component amplitudes above
    their calibration threshold are rebuilt from the sub-threshold
    subspace (a least-squares projection, so window energy never grows);
    corrections are blended with a raised-cosine cross-fade. Windows
    where the over-threshold component fraction exceeds the window
    criterion are additionally flagged for downstream exclusion. A
    window with nothing over threshold passes through bit-identically.
    """
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
