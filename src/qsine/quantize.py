"""b-bit uniform complex quantizer and Bussgang linearization.

The quantizer has 2^b output levels evenly spaced on [-1, 1] including both
endpoints, with decision thresholds at the level midpoints and unbounded outer
bins. Real and imaginary components are quantized independently. Bins are
right-closed: an input exactly on a threshold maps to the lower level.

For a zero-mean Gaussian input x, the quantizer output decomposes as
Q(x) = G*x + eta with eta uncorrelated with x (Bussgang); `bussgang_gain`
computes G in closed form and `bussgang_linearize` divides it back out. Under
the unit-power normalization contract each component has sigma = 1/sqrt(2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tones import to_complex

SIGMA_NORMALIZED = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Quantizer:
    """Level/threshold tables for a b-bit uniform quantizer."""

    bits: int
    levels: np.ndarray      # 2^b ascending values in [-1, 1]
    thresholds: np.ndarray  # 2^b - 1 midpoints


def make_quantizer(bits: int) -> Quantizer:
    """Builds the 2^bits-level uniform quantizer on [-1, 1].

    levels[i] = -1 + 2i/(2^b - 1); thresholds sit halfway between adjacent
    levels. bits=1 gives levels {-1, +1} with the single threshold at 0.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    n = 2**bits
    levels = -1.0 + 2.0 * np.arange(n) / (n - 1)
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    return Quantizer(bits=bits, levels=levels, thresholds=thresholds)


def _quantize_real(x: np.ndarray, spec: Quantizer) -> np.ndarray:
    # searchsorted(side="left") counts thresholds strictly below x, so a value
    # exactly on thresholds[k] lands in bin k: right-closed bins, outer bins
    # unbounded.
    idx = np.searchsorted(spec.thresholds, x, side="left")
    return spec.levels[idx]


def quantize(frame: np.ndarray, spec: Quantizer) -> np.ndarray:
    """Quantizes a frame componentwise: Q(A + jB) = Q(A) + jQ(B).

    Accepts a complex frame or a real array; output has matching kind.
    """
    frame = np.asarray(frame)
    if not np.all(np.isfinite(frame.view(np.float64) if np.iscomplexobj(frame) else frame)):
        raise ValueError("quantize requires finite input")
    if np.iscomplexobj(frame):
        return _quantize_real(frame.real, spec) + 1j * _quantize_real(frame.imag, spec)
    return _quantize_real(frame, spec)


def _norm_pdf(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def bussgang_gain(spec: Quantizer, sigma: float) -> float:
    """Linear-MMSE gain G = E[x Q(x)] / E[x^2] for x ~ Normal(0, sigma^2).

    Closed form: E[x Q(x)] = sigma * sum_k levels[k] * (pdf(t_{k-1}/sigma)
    - pdf(t_k/sigma)) with t_{-1} = -inf and t_last = +inf (pdf -> 0 there).
    For one bit this reduces to sqrt(2/pi)/sigma.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    edges = np.concatenate(([-np.inf], spec.thresholds / sigma, [np.inf]))
    pdf = np.where(np.isinf(edges), 0.0, _norm_pdf(np.where(np.isinf(edges), 0.0, edges)))
    exq = sigma * float(np.sum(spec.levels * (pdf[:-1] - pdf[1:])))
    return exq / (sigma * sigma)


def bussgang_linearize(x: np.ndarray, spec: Quantizer) -> np.ndarray:
    """Undoes the Bussgang gain G of a (..., N, 2) IQ stack: its complex
    (..., N) frames / G, for frames that were unit-power normalized before
    quantization (per-component standard deviation 1/sqrt(2))."""
    return to_complex(x) / bussgang_gain(spec, SIGMA_NORMALIZED)
