"""The frame model: the IQ layout of frames and the algebra of their tones.

A frame of N complex samples is stored as an (N, 2) real IQ matrix [Re | Im],
and a stack of frames as (..., N, 2). This module is the only code that knows
that layout or builds a tone exp(j 2 pi f n); it imports nothing from qsine.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def to_complex(X: np.ndarray) -> np.ndarray:
    """The (..., N) complex samples of a real (..., N, 2) IQ stack."""
    X = np.asarray(X)
    if X.ndim < 2 or X.shape[-1] != 2 or np.iscomplexobj(X):
        raise ValueError(f"expected a real (..., N, 2) IQ matrix, got {X.dtype} {X.shape}")
    return X[..., 0] + 1j * X[..., 1]


def to_iq(z: np.ndarray) -> np.ndarray:
    """The real (..., N, 2) IQ stack of (..., N) complex samples."""
    return np.stack([z.real, z.imag], axis=-1)


def tone_sum(A: np.ndarray, F: np.ndarray, P: np.ndarray, N: int) -> np.ndarray:
    """Noiseless frames u[n] = sum_i a_i exp(j(2 pi f_i n + phi_i)), one per
    row of the (B, m) amplitudes A, frequencies F and phases P -> (B, N)."""
    n = np.arange(N, dtype=np.float64)
    angles = TWO_PI * (n[:, None] * F[:, None, :]) + P[:, None, :]
    return (A[:, None, :] * np.exp(1j * angles)).sum(axis=2)


def cancel_tone(R: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(B, N, 2) residuals minus their least-squares tone at frequencies f.

    Frames are power-normalized and quantized, so a tone's size in the frame
    is not its label amplitude. Each row's residual r is refit in frame units
    along the unit tone e at its frequency, in R's precision, and the tone
    c e with c = e^H r / N is subtracted.
    """
    N = R.shape[-2]
    e = np.exp(1j * (TWO_PI * f[:, None] * np.arange(N, dtype=R.dtype)))
    r = to_complex(R)
    c = (e.conj() * r).sum(axis=1) / N
    return to_iq(r - c[:, None] * e)
