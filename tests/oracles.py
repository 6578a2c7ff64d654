"""The per-frame generation pipeline, the reference for qsine.signals.

    draw_parameters -> synthesize -> add_noise -> normalize_power
                    -> quantize (see qsine.quantize) -> to_iq

`make_dataset` runs the same steps on count groups of frames at once; the
tests check that it gives the bytes of these per-frame steps, and use them
to build single frames of known content.
"""
from __future__ import annotations

import math

import numpy as np

from qsine.signals import ParameterSet, _noise_sigma

TWO_PI = 2.0 * math.pi


def synthesize(params: ParameterSet, N: int) -> np.ndarray:
    """Noiseless frame u[n] = sum_i a_i exp(j(2 pi f_i n + phi_i)).

    An empty parameter set (m = 0 container) yields the all-zero frame.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(N, dtype=np.float64)
    if len(params.freqs) == 0:
        return np.zeros(N, dtype=np.complex128)
    angles = TWO_PI * np.outer(n, params.freqs) + params.phases[None, :]
    return (params.amps[None, :] * np.exp(1j * angles)).sum(axis=1)


def add_noise(
    frame: np.ndarray, snr_db: float, signal_power: float, rng: np.random.Generator
) -> np.ndarray:
    """Adds circularly-symmetric complex Gaussian noise at the requested SNR.

    Noise variance is sigma_v^2 = signal_power / 10^(snr_db/10), split evenly
    between the real and imaginary components. snr_db = +inf returns the frame
    unchanged (noiseless sentinel).
    """
    sigma = _noise_sigma(snr_db, signal_power)
    if sigma is None:
        return frame.copy()
    noise = rng.normal(0.0, sigma, size=(len(frame), 2))
    return frame + noise[:, 0] + 1j * noise[:, 1]


def normalize_power(frame: np.ndarray) -> np.ndarray:
    """Scales to unit average per-sample power: s = sqrt(N) * frame / ||frame||."""
    norm = np.linalg.norm(frame)
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero frame")
    return math.sqrt(len(frame)) * frame / norm


def to_iq(frame: np.ndarray) -> np.ndarray:
    """Vectorizes a complex frame into an N x 2 real matrix [Re | Im]."""
    return np.stack([frame.real, frame.imag], axis=1)
