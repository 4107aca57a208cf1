"""Linear cleaning steps: FIR filtering, baseline removal, line-noise fitting.

Filters are windowed-sinc FIR kernels applied as a single zero-phase
pass: the linear convolution is computed against the zero-padded signal
and shifted back by the group delay (order/2), so a symmetric kernel
introduces no net lag. The convolution runs by block FFT overlap-add
over all channels at once; the result is the same zero-padded,
zero-phase output a direct convolution gives, to rounding; a high-pass
and a low-pass are cascaded into one kernel and applied in one pass.
Mains interference is removed by sliding-window least-squares fits of
sine/cosine pairs at the line frequency rather than by a notch, which
leaves the neighbouring spectrum untouched; every window shares one
projector onto the regressors' span, and the windows are fitted a hop
block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import Recording

FIR_KINDS = ("lowpass", "highpass")
FIR_WINDOWS = ("hann", "hamming")


@dataclass(frozen=True)
class FirSpec:
    kind: str
    cutoff_hz: float
    order: int
    window: str = "hann"

    def __post_init__(self):
        if self.kind not in FIR_KINDS:
            raise ValueError(f"kind must be one of {FIR_KINDS}, got {self.kind!r}")
        if self.window not in FIR_WINDOWS:
            raise ValueError(f"window must be one of {FIR_WINDOWS}, got {self.window!r}")
        if self.order <= 0 or self.order % 2 != 0:
            raise ValueError(f"order must be a positive even integer, got {self.order}")
        if not self.cutoff_hz > 0:  # also refuses nan
            raise ValueError(f"cutoff must be positive, got {self.cutoff_hz}")


@dataclass(frozen=True)
class FirFilter:
    taps: np.ndarray
    group_delay: int

    @property
    def n_taps(self) -> int:
        return len(self.taps)


def design_fir(spec: FirSpec, rate: float) -> FirFilter:
    """Design a windowed-sinc FIR kernel.

    The ideal sinc response at the cutoff is multiplied by the chosen
    window and normalized to unit DC gain; a highpass is obtained by
    spectral inversion of the complementary lowpass. Taps depend only on
    the spec and rate, never on data. The -6 dB point of the result sits
    at the cutoff frequency.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    nyq = rate / 2.0
    if not spec.cutoff_hz < nyq:
        raise ValueError(
            f"cutoff {spec.cutoff_hz} Hz must lie below the Nyquist frequency {nyq} Hz"
        )
    n = spec.order + 1
    m = np.arange(n) - spec.order / 2.0
    fc = spec.cutoff_hz / rate
    taps = 2.0 * fc * np.sinc(2.0 * fc * m)
    win = np.hanning(n) if spec.window == "hann" else np.hamming(n)
    taps = taps * win
    taps = 0.5 * (taps + taps[::-1])  # force exact symmetry
    taps /= taps.sum()
    if spec.kind == "highpass":
        taps = -taps
        taps[spec.order // 2] += 1.0
    return FirFilter(taps=taps, group_delay=spec.order // 2)


def check_fir_length(n: int, fir: FirFilter) -> None:
    """The length rule of apply_zero_phase_array: n samples must outnumber the taps."""
    if n <= fir.n_taps:
        raise ValueError(
            f"segment length {n} too short for a {fir.n_taps}-tap filter; "
            f"need more than {fir.n_taps} samples"
        )


# FFT length of one overlap-add block: about 2048 points, and at least
# four kernel lengths so a block's step stays most of its length
FIR_BLOCK = 2048


def _block_length(n_taps: int, n: int) -> int:
    """The FFT length for an n_taps kernel over n samples: a power of two,
    no longer than one that holds the whole convolution."""
    nfft = max(FIR_BLOCK, 1 << (4 * n_taps - 1).bit_length())
    return min(nfft, 1 << (n + n_taps - 2).bit_length())


def apply_zero_phase_array(x: np.ndarray, fir: FirFilter) -> np.ndarray:
    """Filter one or more rows with zero net delay.

    Accepts (n,) or (channels, n). The input is implicitly zero-padded,
    so the first and last group_delay samples carry edge transients.
    All rows are filtered at once by block overlap-add: each block of
    input is transformed with the kernel's spectrum, and the part of its
    linear convolution that lands inside the output, shifted back by the
    group delay, is added there.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    n = rows.shape[1]
    check_fir_length(n, fir)
    n_taps, d = fir.n_taps, fir.group_delay
    nfft = _block_length(n_taps, n)
    step = nfft - n_taps + 1
    kernel = np.fft.rfft(fir.taps, nfft)
    out = np.zeros_like(rows)
    for s in range(0, n, step):
        block = rows[:, s : s + step]
        full = np.fft.irfft(np.fft.rfft(block, nfft, axis=1) * kernel, nfft, axis=1)
        # full[:, i] is sample s + i of the padded convolution, output s + i - d
        lo = max(s - d, 0)
        hi = min(s + block.shape[1] + n_taps - 1 - d, n)
        out[:, lo:hi] += full[:, lo - s + d : hi - s + d]
    return out[0] if single else out


def cascade(first: FirFilter, second: FirFilter) -> FirFilter:
    """One kernel for first then second: their taps' convolution, delayed by
    both group delays. Away from the edges it filters as the two passes do;
    the two passes differ in their edge samples, because the second pads
    the first's output, cut back to the input's length, with zeros again."""
    return FirFilter(np.convolve(first.taps, second.taps), first.group_delay + second.group_delay)


def apply_zero_phase(rec: Recording, fir: FirFilter) -> Recording:
    return rec.with_data(apply_zero_phase_array(rec.data, fir))


def baseline_correct(rec: Recording) -> Recording:
    """Subtract each channel's mean over the whole recording."""
    if rec.n_samples == 0:
        raise ValueError("cannot baseline-correct an empty recording")
    return rec.with_data(rec.data - rec.data.mean(axis=1, keepdims=True))


def overlap_add_windows(n: int, w: int, hop: int) -> tuple[list[int], np.ndarray]:
    """Start indices of length-w windows hopping through n samples, plus
    their sin^2 overlap-add taper.

    The last window is moved to end exactly at n so every sample is
    covered. The taper is strictly positive, so every covered sample
    gets weight.
    """
    starts = list(range(0, n - w + 1, hop))
    if starts[-1] != n - w:
        starts.append(n - w)
    return starts, np.sin(np.pi * (np.arange(w) + 0.5) / w) ** 2


def _whole_hop_windows(n: int, w: int, hop: int) -> tuple[int, int, int]:
    """(hops per window, whole hop blocks in n, windows on whole hop blocks):
    the windows at k * hop, k < count, whose ceil(w / hop) hops all fit in n."""
    n_pieces = -(-w // hop)
    blocks = n // hop
    return n_pieces, blocks, max(0, blocks - n_pieces + 1)


def blend_windows(out: np.ndarray, starts, taper: np.ndarray, hop: int, pieces) -> np.ndarray:
    """Add pieces, taper-weighted (start, array) pairs for any subset of the
    windows at starts, into out, and divide by the taper sum of every window
    at starts; returns out.

    starts are overlap_add_windows(n, len(taper), hop)'s. out may already
    hold the weighted sum of some windows. The windows on whole hop blocks
    add their tapers one hop phase at a time; the rest, one at a time.
    """
    n, w = out.shape[-1], len(taper)
    n_pieces, blocks, count = _whole_hop_windows(n, w, hop)
    for s, piece in pieces:
        out[:, s : s + w] += piece
    wsum = np.zeros(n)
    wb = wsum[: blocks * hop].reshape(blocks, hop)
    for j, phase in enumerate(np.pad(taper, (0, n_pieces * hop - w)).reshape(n_pieces, hop)):
        wb[j : j + count] += phase
    for s in starts[count:]:
        wsum[s : s + w] += taper
    out /= np.maximum(wsum, np.finfo(float).tiny)
    return out


def _line_design_matrix(t: np.ndarray, f0: float, harmonics: int) -> np.ndarray:
    cols = []
    for h in range(1, harmonics + 1):
        w = 2.0 * np.pi * h * f0 * t
        cols.append(np.sin(w))
        cols.append(np.cos(w))
    return np.stack(cols, axis=1)


def check_line_noise(rate: float, f0: float, win_s: float, step_s: float, harmonics: int) -> None:
    """The parameter rules of remove_line_noise; an infinite rate skips Nyquist."""
    if harmonics < 1:
        raise ValueError(f"harmonics must be >= 1, got {harmonics}")
    if not f0 > 0:  # also refuses nan
        raise ValueError(f"line frequency must be positive, got {f0}")
    if f0 * harmonics >= rate / 2:
        raise ValueError(f"line frequency {f0} Hz x {harmonics} harmonics >= Nyquist {rate / 2} Hz")
    if not (0 < win_s < math.inf and 0 < step_s < math.inf):
        raise ValueError("window and step must be positive and finite")
    # fewer samples than twice the regressors and the fit follows the data
    # itself (one sample fits exactly); an infinite rate checks no length
    need = 4 * harmonics
    samples = round(min(win_s * rate, need))
    if samples < need:
        raise ValueError(
            f"a {win_s} s window at {rate} Hz holds {samples} samples, "
            f"fewer than the {need} a fit of {2 * harmonics} regressors needs"
        )


def _line_basis(w_len: int, rate: float, f0: float, harmonics: int) -> np.ndarray:
    """Orthonormal (w_len, rank) basis of the sin/cos regressors' span over
    w_len samples, cut at lstsq's default rank rule."""
    design = _line_design_matrix(np.arange(w_len) / rate, f0, harmonics)
    u, sv, _ = np.linalg.svd(design, full_matrices=False)
    return u[:, sv > np.finfo(float).eps * max(design.shape) * sv[0]]


# floats of the segment, and of the coefficient stack, that one step of
# _hop_block_fits works on (512 kB); the memory it takes stays about the
# segment's whatever the hop
LINE_BLOCK_ELEMS = 1 << 16


def _hop_block_fits(x: np.ndarray, u: np.ndarray, taper: np.ndarray, hop: int):
    """The overlap-added, taper-weighted fits of the windows at k * hop that
    lie on whole hop blocks, and how many windows they are.

    U, zero-padded to J whole hops, is cut into J pieces: window k's
    coefficients are the sum over j of hop block k + j against piece j,
    and hop block b of the blend is the sum over j of window b - j's
    coefficients against the taper-weighted piece j.
    """
    rows, n = x.shape
    w_len, rank = u.shape
    n_pieces, blocks, count = _whole_hop_windows(n, w_len, hop)
    est = np.zeros_like(x)
    if not count:
        return est, 0
    pad = ((0, n_pieces * hop - w_len), (0, 0))
    lead = n_pieces - 1
    # coef[:, lead + k] holds window k's coefficients, with lead zero rows on either side
    coef = np.zeros((rows, lead + blocks, rank))
    xb = x[:, : blocks * hop].reshape(rows, blocks, hop)
    pieces = np.pad(u, pad).reshape(n_pieces, hop, rank)
    step = max(1, LINE_BLOCK_ELEMS // (rows * hop))
    for k0 in range(0, count, step):
        part = coef[:, lead + k0 : lead + min(k0 + step, count)]
        for j, piece in enumerate(pieces):
            part += xb[:, k0 + j : k0 + j + part.shape[1]] @ piece
    # block b takes windows b - lead .. b, coef rows b .. b + lead, so it
    # meets the tapered pieces in reverse order
    stack = np.lib.stride_tricks.sliding_window_view(coef, n_pieces, axis=1)
    down = np.pad(taper[:, None] * u, pad).reshape(n_pieces, hop, rank)[::-1]
    down = down.transpose(2, 0, 1).reshape(rank * n_pieces, hop)
    eb = est[:, : blocks * hop].reshape(rows, blocks, hop)
    step = max(1, LINE_BLOCK_ELEMS // (rows * rank * n_pieces))
    for b0 in range(0, blocks, step):
        eb[:, b0 : b0 + step] = stack[:, b0 : b0 + step].reshape(rows, -1, rank * n_pieces) @ down
    return est, count


def remove_line_noise(
    rec: Recording,
    f0: float = 50.0,
    win_s: float = 4.0,
    step_s: float = 1.0,
    harmonics: int = 1,
) -> Recording:
    """Subtract a sliding-window sinusoidal fit at the line frequency.

    Within each window the amplitude and phase of the interference are
    estimated by least squares against sin/cos regressors at f0 (and at
    the requested number of harmonics); the per-window estimates are
    blended by raised-cosine overlap-add before subtraction. A window
    longer than the segment degrades to a single whole-segment fit.

    A shift in time rotates each sin/cos pair into itself, so every
    window's regressors span the same columns: one SVD of the first
    window's design gives the projector U U' that fits them all. The
    windows on whole hop blocks are fitted together (_hop_block_fits);
    the rest, at most two, one at a time.
    """
    check_line_noise(rec.rate, f0, win_s, step_s, harmonics)
    n = rec.n_samples
    if n == 0:
        raise ValueError("cannot filter an empty recording")
    x = rec.data
    w_len = min(int(round(win_s * rec.rate)), n)
    u = _line_basis(w_len, rec.rate, f0, harmonics)
    hop = max(1, int(round(step_s * rec.rate)))
    starts, taper = overlap_add_windows(n, w_len, hop)
    est, fitted = _hop_block_fits(x, u, taper, hop)
    # the last window, moved to end at n, and one that reaches past the last whole block
    tapered = (taper[:, None] * u).T
    rest = ((s, (x[:, s : s + w_len] @ u) @ tapered) for s in starts[fitted:])
    blend_windows(est, starts, taper, hop, rest)
    return rec.with_data(np.subtract(x, est, out=est))
