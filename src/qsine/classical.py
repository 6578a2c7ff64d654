"""Classical baselines: periodogram parameter estimation and AIC/MDL counting.

Both take (N, 2) IQ frames and operate on the Bussgang-linearized complex
frame (pass qspec=None for already unquantized data).
Frequency/amplitude/phase come from peaks of a zero-padded DFT; the sinusoid
count from eigenvalue information criteria on a sliding-window sample
covariance.

Each method has one implementation, which scores a stack of frames:
`periodogram_estimates` and `aic_mdl_counts`. `classical_estimate` and
`aic_mdl_detect` are their one-frame forms.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantize import Quantizer, bussgang_linearize
from .signals import ParameterSet
from .tones import TWO_PI, to_complex

DEFAULT_NFFT = 2**16
EIG_CHUNK = 32  # frames per stacked eigvalsh call; 64 raised peak RSS by 1 MB


@dataclass
class SpectrumEstimate:
    """Zero-padded DFT of one frame; bin k <-> normalized frequency k/nfft.

    `magnitudes` covers bins 0..nfft/2, the band `pick_peaks` reads.
    """

    nfft: int
    values: np.ndarray
    magnitudes: np.ndarray


def check_nfft(nfft: int, N: int) -> None:
    """Raises ValueError unless nfft is a power of two >= the frame length N."""
    if nfft < N:
        raise ValueError(f"nfft={nfft} must be >= frame length {N}")
    if nfft & (nfft - 1):
        raise ValueError(f"nfft={nfft} must be a power of two")


def check_window(L: int, Mmax: int, N: int) -> None:
    """Raises ValueError unless 1 <= L <= N/2 and 1 <= Mmax < L."""
    if not 1 <= L <= N // 2:
        raise ValueError(f"L must be in [1, N/2] = [1, {N // 2}], got {L}")
    if not 1 <= Mmax < L:
        raise ValueError(f"Mmax must be in [1, L), got {Mmax}")


def _complex_frames(X: np.ndarray, qspec: Quantizer | None) -> np.ndarray:
    """(B, N) complex frames from a (B, N, 2) IQ stack, Bussgang-linearized
    when qspec is given."""
    X = np.asarray(X)
    if X.ndim != 3:
        raise ValueError(f"expected a (B, N, 2) IQ stack, got shape {X.shape}")
    return to_complex(X) if qspec is None else bussgang_linearize(X, qspec)


def zero_padded_dft(x: np.ndarray, nfft: int = DEFAULT_NFFT) -> SpectrumEstimate:
    """DFT of x zero-padded to nfft points (nfft a power of two, >= len(x))."""
    x = np.asarray(x)
    check_nfft(nfft, len(x))
    vals = np.fft.fft(x, n=nfft)
    return SpectrumEstimate(nfft=nfft, values=vals,
                            magnitudes=np.abs(vals[: nfft // 2 + 1]))


def _local_maxima(mag: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # indices k in [lo, hi) with mag[k-1] < mag[k] >= mag[k+1]
    mid = mag[lo:hi]
    return lo + np.flatnonzero((mid > mag[lo - 1 : hi - 1])
                               & (mid >= mag[lo + 1 : hi + 1]))


def pick_peaks(spec: SpectrumEstimate, m: int, N: int) -> np.ndarray:
    """Selects m peak bins in the (0, 0.5) frequency band, ascending.

    Takes local maxima of the magnitude spectrum greedily by magnitude, with
    an exclusion zone of +-ceil(nfft/(2N)) bins around each pick so one
    mainlobe cannot yield several picks.

    If fewer than m guarded local maxima exist, the remaining picks fall back
    to the largest unguarded bins and a RuntimeWarning flags the degraded
    quality.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    mag = spec.magnitudes
    nfft = spec.nfft
    lo, hi = 1, nfft // 2  # bins with 0 < k/nfft < 0.5
    guard = math.ceil(nfft / (2 * N))
    candidates = _local_maxima(mag, lo, hi)
    order = candidates[np.argsort(mag[candidates])[::-1]]
    picked: list[int] = []
    for k in order:
        if len(picked) == m:
            break
        if all(abs(k - p) >= guard for p in picked):
            picked.append(int(k))
    if len(picked) < m:
        warnings.warn(
            f"only {len(picked)} guarded local maxima for m={m}; "
            "padding with largest unguarded bins",
            RuntimeWarning,
        )
        blocked = np.zeros(nfft, dtype=bool)
        for p in picked:
            blocked[max(0, p - guard + 1) : p + guard] = True
        rest = np.arange(lo, hi)
        rest = rest[~blocked[lo:hi]]
        for k in rest[np.argsort(mag[rest])[::-1]]:
            if len(picked) == m:
                break
            if all(abs(k - p) >= guard for p in picked):
                picked.append(int(k))
        while len(picked) < m:  # pathological tiny-band fallback
            picked.append(int(lo))
    return np.sort(np.asarray(picked, dtype=int))


def periodogram_estimates(
    X: np.ndarray,
    counts,
    qspec: Quantizer | None = None,
    nfft: int = DEFAULT_NFFT,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Periodogram estimates of counts[i] sinusoids in frame i of a stack.

    Pipeline per frame: Bussgang linearization (if qspec given) ->
    zero-padded DFT -> peak picking -> per peak p: f = p/nfft,
    a = |r[p]|/N, phi = angle(r[p]) wrapped to [0, 2*pi).

    Args:
        X: (B, N, 2) IQ stack.
        counts: sinusoids per frame, an int or a length-B vector.
        qspec: quantizer used on X, or None if X is unquantized.
        nfft: DFT length, a power of two >= N.

    Returns:
        (amps, freqs, phases), each (B, max count), ascending in frequency
        along each row, NaN past a frame's own count.
    """
    Z = _complex_frames(X, qspec)
    B, N = Z.shape
    check_nfft(nfft, N)
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (B,))
    width = int(counts.max(initial=0))
    bins = np.full((B, width), np.nan)
    values = np.full((B, width), np.nan, dtype=complex)
    for i, z in enumerate(Z):
        spec = zero_padded_dft(z, nfft)
        peaks = pick_peaks(spec, int(counts[i]), N)
        bins[i, : len(peaks)] = peaks
        values[i, : len(peaks)] = spec.values[peaks]
        del spec  # free this spectrum before the next DFT allocates its own
    return np.abs(values) / N, bins / nfft, np.mod(np.angle(values), TWO_PI)


# the benchmark imports this one-frame entry point
def classical_estimate(
    x: np.ndarray,
    m: int,
    qspec: Quantizer | None = None,
    nfft: int = DEFAULT_NFFT,
) -> ParameterSet:
    """Periodogram estimate of m sinusoids from one (N, 2) IQ matrix (see
    `periodogram_estimates`), sorted ascending in frequency."""
    amps, freqs, phases = periodogram_estimates(np.asarray(x)[None], m, qspec, nfft)
    return ParameterSet(m=m, amps=amps[0], freqs=freqs[0], phases=phases[0])


def aic_mdl_counts(
    X: np.ndarray,
    qspec: Quantizer | None = None,
    L: int = 16,
    Mmax: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue information-criterion estimates of the sinusoid count.

    For each frame, builds the L x K matrix of the K = N-L+1 sliding
    length-L subvectors, takes eigenvalues of its sample covariance, and
    scores each candidate count k by the likelihood-ratio term on the
    smallest L-k eigenvalues plus the criterion's complexity penalty:

        AIC(k) = -2K(L-k) ln(g_k/a_k) + 2k(2L-k)
        MDL(k) =  -K(L-k) ln(g_k/a_k) + (k/2)(2L-k) ln K

    (g_k/a_k: geometric/arithmetic mean ratio). Both criteria share one
    eigendecomposition per frame, computed EIG_CHUNK frames per call.

    Args:
        X: (B, N, 2) IQ stack.
        qspec: quantizer used on X, for Bussgang linearization; None if X is
            unquantized.
        L: subvector length (1 <= L <= N/2).
        Mmax: largest candidate count (< L).

    Returns:
        (aic, mdl): int arrays of length B, each the argmin over
        k in {1..Mmax} (the smallest k on ties).
    """
    Z = _complex_frames(X, qspec)
    B, N = Z.shape
    check_window(L, Mmax, N)
    K = N - L + 1
    counts = np.empty((2, B), dtype=np.int64)
    for s in range(0, B, EIG_CHUNK):
        Y = np.lib.stride_tricks.sliding_window_view(Z[s : s + EIG_CHUNK], L, axis=1)
        Y = Y.transpose(0, 2, 1)  # (b, L, K)
        # each (L, K) operand keeps one frame's strides, so numpy multiplies
        # it with the same non-BLAS loop as the frame-by-frame product
        R = (Y @ Y.conj().transpose(0, 2, 1)) / K
        ev = np.clip(np.linalg.eigvalsh(R)[:, ::-1], 1e-12, None)  # descending
        log_ev = np.log(ev)
        scores = np.empty((2, len(ev), Mmax))
        for k in range(1, Mmax + 1):
            log_gm = np.mean(log_ev[:, k:], axis=1)
            # math.log, not np.log: numpy's SIMD log differs from the C
            # library's in the last bit for about 1 value in 1000
            log_am = [math.log(a) for a in np.mean(ev[:, k:], axis=1).tolist()]
            llr = -K * (L - k) * (log_gm - log_am)
            scores[0, :, k - 1] = 2.0 * llr + 2.0 * k * (2 * L - k)
            scores[1, :, k - 1] = llr + 0.5 * k * (2 * L - k) * math.log(K)
        counts[:, s : s + EIG_CHUNK] = np.argmin(scores, axis=2) + 1
    return counts[0], counts[1]


# the benchmark imports this one-frame entry point
def aic_mdl_detect(
    x: np.ndarray,
    criterion: str = "mdl",
    qspec: Quantizer | None = None,
    L: int = 16,
    Mmax: int = 5,
) -> int:
    """AIC or MDL count of one (N, 2) IQ matrix (criterion "aic" or "mdl";
    see `aic_mdl_counts` for the other arguments)."""
    crit = criterion.lower()
    if crit not in ("aic", "mdl"):
        raise ValueError(f"criterion must be 'aic' or 'mdl', got {criterion!r}")
    aic, mdl = aic_mdl_counts(np.asarray(x)[None], qspec, L, Mmax)
    return int(aic[0] if crit == "aic" else mdl[0])
