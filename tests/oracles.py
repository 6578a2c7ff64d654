"""The per-frame generation pipeline, the reference for qsine.signals.

    draw_parameters -> synthesize -> add_noise -> normalize_power
                    -> quantize (see qsine.quantize) -> to_iq

each step on one frame, drawing from the frame's own Generator by
Generator.uniform and Generator.normal. `make_dataset` draws the same
streams into whole arrays and runs the other steps on count groups of
frames at once; the tests check that it gives the bytes of these per-frame
steps, and use them to build single frames of known content.
"""
from __future__ import annotations

import math

import numpy as np

from qsine.signals import REJECTION_CAP, GenConfig, ParameterSet

TWO_PI = 2.0 * math.pi


def validate(params: ParameterSet) -> ParameterSet:
    """Checks the generated-label invariants; returns params."""
    # m <= M is small: Python scalar comparisons beat numpy reductions
    if params.m < 1:
        raise ValueError("label must contain at least one sinusoid")
    f = params.freqs.tolist()
    if not all(0.0 < v < 0.5 for v in f):
        raise ValueError(f"frequencies out of (0, 0.5): {params.freqs}")
    if not all(lo < hi for lo, hi in zip(f, f[1:])):
        raise ValueError(f"frequencies not strictly ascending: {params.freqs}")
    if not all(0.0 <= v < TWO_PI for v in params.phases.tolist()):
        raise ValueError(f"phases out of [0, 2*pi): {params.phases}")
    return params


def _draw_freqs_in_distribution(m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    # f_1 = w0 ~ U(0, 0.25); f_{i+1} = w0 + i/N + |Normal(0, 2.5/N)|, the
    # whole set redrawn while any f >= 0.5, then sorted
    sigma = math.sqrt(2.5 / N)
    for _ in range(REJECTION_CAP):
        w0 = rng.uniform(0.0, 0.25)
        f = [w0]
        if m > 1:
            jitter = np.abs(rng.normal(0.0, sigma, size=m - 1)).tolist()
            f += [w0 + i / N + j for i, j in enumerate(jitter, start=1)]
            f.sort()
        if f[0] > 0.0 and f[-1] < 0.5:
            return np.array(f)
    raise RuntimeError(f"frequency rejection sampling exceeded {REJECTION_CAP} attempts")


def _draw_freqs_ood(m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    # Uniform on (0, 0.5); fully regenerated until all pairwise spacings >= 1/N.
    for _ in range(REJECTION_CAP):
        f = np.sort(rng.uniform(0.0, 0.5, size=m))
        if f[0] <= 0.0:
            continue
        if m == 1 or np.diff(f).min() >= 1.0 / N:
            return f
    raise RuntimeError(f"frequency rejection sampling exceeded {REJECTION_CAP} attempts")


def draw_parameters(cfg: GenConfig, rng: np.random.Generator) -> ParameterSet:
    """Draws one label: m, then frequencies (with rejection), then (a, phi).

    In-distribution mode rejects and redraws the frequency set only; the
    amplitude/phase draws happen once, afterwards. Returned frequencies are
    sorted ascending (the canonical label order).
    """
    if cfg.m_fixed is not None:
        m = cfg.m_fixed
    else:
        m = int(rng.integers(1, cfg.M + 1))
    if cfg.freq_mode == "in_distribution":
        freqs = _draw_freqs_in_distribution(m, cfg.N, rng)
    else:
        freqs = _draw_freqs_ood(m, cfg.N, rng)
    amps = rng.uniform(0.1, 1.0, size=m)
    phases = rng.uniform(0.0, TWO_PI, size=m)
    return validate(ParameterSet(m=m, amps=amps, freqs=freqs, phases=phases))


def _noise_sigma(snr_db: float, signal_power: float) -> float | None:
    # per-component noise standard deviation; None for the +inf sentinel
    if signal_power <= 0:
        raise ValueError("signal_power must be > 0")
    if math.isinf(snr_db) and snr_db > 0:
        return None
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    var = signal_power / 10.0 ** (snr_db / 10.0)
    return math.sqrt(var / 2.0)


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
