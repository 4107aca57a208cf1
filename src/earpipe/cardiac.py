"""QRS detection and R-R interval handling.

Detection follows the classic energy-based recipe: bandpass to the QRS
band (5-15 Hz), differentiate, square, integrate over a 150 ms moving
window, then walk the integrated peaks with adaptive signal/noise
thresholds, a 200 ms refractory period, and a search-back pass for
beats missed when the running R-R estimate says one was due. Detected
beats are refined to the local maximum of the bandpassed signal.

All stage widths are specified in milliseconds and converted to samples
so behaviour matches across sampling rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .filters import FirSpec, apply_zero_phase_array, design_fir

MIN_RATE_HZ = 100.0
MIN_DURATION_S = 5.0
REFRACTORY_S = 0.200
REFRACTORY_TOL_S = 1e-9  # float slack in a gap between beat times
INTEGRATION_S = 0.150
REFINE_S = 0.075
SEARCHBACK_FACTOR = 1.66


@dataclass(frozen=True)
class BeatSeries:
    """Detected beat times in seconds, strictly increasing."""

    beat_times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beat_times", np.asarray(self.beat_times, dtype=float))
        if self.beat_times.ndim != 1:
            raise ValueError("beat_times must be 1-D")
        if len(self.beat_times) > 1:
            gaps = np.diff(self.beat_times)
            if np.any(gaps < REFRACTORY_S - REFRACTORY_TOL_S):
                raise ValueError("beats closer than the refractory period")

    def __len__(self) -> int:
        return len(self.beat_times)


@dataclass(frozen=True)
class RrSeries:
    """Interbeat intervals in milliseconds, each anchored at its first beat."""

    intervals_ms: np.ndarray
    anchored_at_s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intervals_ms", np.asarray(self.intervals_ms, dtype=float))
        object.__setattr__(self, "anchored_at_s", np.asarray(self.anchored_at_s, dtype=float))
        if self.intervals_ms.shape != self.anchored_at_s.shape:
            raise ValueError("intervals and anchors must align")

    def __len__(self) -> int:
        return len(self.intervals_ms)


def _bandpass_qrs(x: np.ndarray, rate: float) -> np.ndarray:
    # difference of two unit-gain lowpass kernels: passband 5-15 Hz,
    # ~4 Hz transition width at any rate
    order = int(round(0.8 * rate))
    order += order % 2
    lo = design_fir(FirSpec("lowpass", 5.0, order, "hamming"), rate)
    hi = design_fir(FirSpec("lowpass", 15.0, order, "hamming"), rate)
    return apply_zero_phase_array(x, replace(hi, taps=hi.taps - lo.taps))


def _local_maxima(y: np.ndarray) -> np.ndarray:
    left = y[1:-1] > y[:-2]
    right = y[1:-1] >= y[2:]
    idx = np.nonzero(left & right)[0] + 1
    return idx


def _fiducial_peaks(y: np.ndarray, min_gap: int) -> list[int]:
    """Thin local maxima so candidates sit at least min_gap apart,
    keeping the larger of any crowded pair."""
    out: list[int] = []
    for p in _local_maxima(y):
        p = int(p)
        if out and p - out[-1] < min_gap:
            if y[p] > y[out[-1]]:
                out[-1] = p
        else:
            out.append(p)
    return out


def pan_tompkins(x: np.ndarray, rate: float) -> BeatSeries:
    """Detect QRS complexes in a single-channel signal.

    Requires at least 5 s of data at 100 Hz or more. Scaling the input
    by any positive constant leaves detections unchanged; an all-zero
    signal yields an empty series.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("pan_tompkins expects a single channel")
    if rate < MIN_RATE_HZ:
        raise ValueError(f"rate {rate} Hz below the {MIN_RATE_HZ} Hz minimum")
    n = len(x)
    if n < MIN_DURATION_S * rate:
        raise ValueError(f"need at least {MIN_DURATION_S} s of data, got {n / rate:.2f} s")

    bp = _bandpass_qrs(x, rate)
    der_kernel = np.array([1.0, 2.0, 0.0, -2.0, -1.0]) * (rate / 8.0)
    der = np.convolve(bp, der_kernel, mode="same")
    sq = der * der
    w = max(1, int(round(INTEGRATION_S * rate)))
    mwi = np.convolve(sq, np.ones(w) / w, mode="same")

    if not np.any(mwi > 0):
        return BeatSeries(beat_times=np.empty(0))

    refractory = int(np.ceil((REFRACTORY_S - REFRACTORY_TOL_S) * rate))  # fewest that span it
    peaks = _fiducial_peaks(mwi, refractory)
    if len(peaks) == 0:
        return BeatSeries(beat_times=np.empty(0))
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

    def search_back(upto: int, thr: float) -> int | None:
        """When a beat is overdue at sample upto (more than SEARCHBACK_FACTOR
        mean R-R after the last one), the largest peak reaching half of thr
        from one refractory period after the last beat up to upto; else None."""
        if not rr_hist or upto - qrs[-1] <= SEARCHBACK_FACTOR * float(np.mean(rr_hist)):
            return None
        lo = qrs[-1] + refractory
        cands = [c for c in peaks if lo <= c <= upto and mwi[c] >= 0.5 * thr]
        return max(cands, key=lambda c: mwi[c]) if cands else None

    k = 0
    while k < len(peaks):
        p = peaks[k]
        if qrs and p - qrs[-1] < refractory:
            k += 1
            continue
        thr = npki + 0.25 * (spki - npki)
        if mwi[p] >= thr:
            accept(p, 0.125)
            k += 1
            continue
        npki = 0.125 * mwi[p] + 0.875 * npki
        best = search_back(p, thr)
        if best is not None:
            accept(best, 0.25)
            if best != p:
                continue  # revisit p against the updated state
        k += 1

    # tail search-back: a final beat may sit below threshold with no
    # later peak to trigger the usual check
    best = search_back(n, npki + 0.25 * (spki - npki))
    if best is not None:
        qrs.append(best)

    # refine each detection to the bandpassed local maximum nearby; a beat
    # moves by less than half the refractory period, so the order holds
    half = int(round(REFINE_S * rate))
    refined: list[int] = []
    for p in qrs:
        lo = max(0, p - half)
        idx = lo + int(np.argmax(bp[lo : min(n, p + half + 1)]))
        if not refined or idx - refined[-1] >= refractory:
            refined.append(idx)
    return BeatSeries(beat_times=np.array(refined, dtype=float) / rate)


def rr_periods(beats: BeatSeries) -> RrSeries:
    """Successive beat-to-beat intervals in ms, anchored at the earlier beat."""
    if len(beats) < 2:
        raise ValueError(f"need at least 2 beats for R-R intervals, got {len(beats)}")
    t = beats.beat_times
    return RrSeries(intervals_ms=np.diff(t) * 1000.0, anchored_at_s=t[:-1].copy())


RR_RANGE_MS = (300.0, 2000.0)
RR_MEDIAN_WINDOW = 11
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class RrCleanResult:
    kept_mask: np.ndarray


def rr_outlier_filter(rr: RrSeries) -> RrCleanResult:
    """Drop physiologically implausible intervals.

    An interval is dropped when it leaves [300, 2000] ms or sits more
    than 3 scaled MADs away from the rolling median (window 11,
    excluding the interval itself). The MAD is taken over the whole
    deviation series, not per window: an 11-point MAD is so noisy it
    rejects ~2% of clean normally-jittered intervals, and including
    each point in its own median pinches the deviation distribution.
    A constant plausible series passes through unchanged.
    """
    x = rr.intervals_ms
    n = len(x)
    keep = (x >= RR_RANGE_MS[0]) & (x <= RR_RANGE_MS[1])
    half = RR_MEDIAN_WINDOW // 2
    centers = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        neighbours = np.concatenate([x[lo:i], x[i + 1 : hi]])
        centers[i] = np.median(neighbours) if len(neighbours) else x[i]
    dev = x - centers
    mad = MAD_SCALE * float(np.median(np.abs(dev - np.median(dev))))
    if mad > 0:
        keep &= np.abs(dev) <= 3.0 * mad
    return RrCleanResult(kept_mask=keep)


@dataclass(frozen=True)
class BeatMatch:
    pairs: tuple  # (ref_index, alt_index) pairs
    unmatched_ref: int
    unmatched_alt: int


def match_beats(ref: BeatSeries, alt: BeatSeries, tolerance_s: float = 0.15) -> BeatMatch:
    """Pair beats between two series by greedy nearest neighbour in time.

    Each step looks at the current beat of either series. They pair when
    each is the other's nearest and they lie within the tolerance.
    Otherwise the series whose next beat lies strictly nearer than the
    other's next beat drops its current beat; on a tie the earlier
    current beat is dropped. Each beat joins at most one pair and paired times differ by at most
    the tolerance. Swapping the two series swaps the unmatched counts
    and mirrors the same pairs.
    """
    if not tolerance_s > 0:  # also refuses nan
        raise ValueError(f"tolerance must be positive, got {tolerance_s}")
    r = ref.beat_times
    a = alt.beat_times
    i = j = 0
    pairs: list[tuple[int, int]] = []
    un_r = un_a = 0
    while i < len(r) and j < len(a):
        d = abs(r[i] - a[j])
        d_next_r = abs(r[i + 1] - a[j]) if i + 1 < len(r) else np.inf
        d_next_a = abs(r[i] - a[j + 1]) if j + 1 < len(a) else np.inf
        if d <= min(d_next_r, d_next_a) and d <= tolerance_s:
            pairs.append((i, j))
            i += 1
            j += 1
        elif d_next_a < d_next_r or (d_next_a == d_next_r and a[j] < r[i]):
            un_a += 1
            j += 1
        else:
            un_r += 1
            i += 1
    un_r += len(r) - i
    un_a += len(a) - j
    return BeatMatch(pairs=tuple(pairs), unmatched_ref=un_r, unmatched_alt=un_a)


def paired_rr(match: BeatMatch, ref: BeatSeries, alt: BeatSeries) -> tuple[np.ndarray, np.ndarray]:
    """R-R pairs eligible for agreement analysis.

    An interval pair enters only when two consecutive matched pairs are
    consecutive beats in both series, so a missed beat on either side
    never produces a spliced double interval.
    """
    rr_ref: list[float] = []
    rr_alt: list[float] = []
    for (i0, j0), (i1, j1) in zip(match.pairs[:-1], match.pairs[1:]):
        if i1 == i0 + 1 and j1 == j0 + 1:
            rr_ref.append((ref.beat_times[i1] - ref.beat_times[i0]) * 1000.0)
            rr_alt.append((alt.beat_times[j1] - alt.beat_times[j0]) * 1000.0)
    return np.array(rr_ref), np.array(rr_alt)
