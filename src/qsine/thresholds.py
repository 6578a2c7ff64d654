"""Closed-form learning thresholds: the loss of the best constant estimator.

A model that ignores its input can at best output the label distribution's
optimal constant; the loss it then achieves is the "learning threshold" for
that task. A trained model beating the threshold demonstrably uses the input;
one sitting at the threshold has only learned the label distribution.

Tasks and their constants, for the generator in qsine.signals:

* detection: counts m ~ Uniform{1..M} under the heavy-sided loss; the optimal
  (fractional) constant solves a Lambert-W stationarity condition.
* frequency: the per-index mean vector (mean_frequency_estimator); threshold
  per count m from the published closed form (see frequency_threshold notes).
* amplitude: a ~ U(0.1, 1.0) -> mean 0.55, MSE 0.0675.
* phase: phi ~ U(0, 2*pi) -> mean pi, MSE pi^2/3.
"""
from __future__ import annotations

import math

import numpy as np

from .losses import LossVector, detection_loss


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W: solves w*e^w = x for x >= 0.

    Halley iteration from log1p(x) for x < e and log(x) - log(log(x)) above.
    Residual |w*e^w - x| <= 1e-13 * max(1, x). Its one caller passes sums of
    exponentials, so the negative branch down to -1/e is not served.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"lambert_w domain is x >= 0, got {x}")
    if x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-13 * max(1.0, x):
            return w
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w -= f / denom
    raise RuntimeError(f"lambert_w failed to converge for x={x}")


def _mean_detection_loss(M: int, mhat: float) -> float:
    return float(np.mean(detection_loss(np.arange(1, M + 1), mhat)))


def detection_threshold(M: int) -> tuple[float, float]:
    """Optimal constant count estimate and its expected heavy-sided loss.

    The stationarity condition for the mean loss over m in {1..M}, on a
    stretch where floor(mhat) = c, is

        mhat = W((1/c) * sum_{m=c+1..M} e^(m - alpha)) + alpha,
        alpha = (c + 1) / 2.

    Solved per candidate floor c (keeping bracket-consistent solutions; for
    M = 5 the solution lands in (ceil(M/2), ceil(M/2)+1) as expected), then
    compared against the integer points, whose seam kinks can also be minima.
    The loss is evaluated at the fractional optimum directly.

    Returns:
        (mhat_star, loss_value); M = 1 degenerates to (1.0, 0.0).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if M == 1:
        return 1.0, 0.0
    candidates = {float(k) for k in range(1, M + 1)}
    for c in range(1, M):
        alpha = (c + 1) / 2.0
        s = sum(math.exp(m - alpha) for m in range(c + 1, M + 1)) / c
        sol = lambert_w(s) + alpha
        # keep only solutions consistent with the assumed floor (2 iterations
        # of the fixed point; the first solve already uses the final alpha)
        if c <= sol <= c + 1:
            candidates.add(sol)
    best = min(candidates, key=lambda mh: _mean_detection_loss(M, mh))
    return float(best), _mean_detection_loss(M, best)


def frequency_threshold(m: int, N: int) -> float:
    """Frequency-task threshold (linear MSE) for count m and frame length N.

    Closed form 1/64 + (1 - 1/m) * (5/(2N)) * (1 - 2/pi): the anchor term
    plus, for m > 1, the folded-normal jitter variance of the offsets. The
    1/64 anchor reproduces the published values this artifact is benchmarked
    against; note it exceeds the actual anchor variance Var[U(0, 0.25)] =
    1/192, so the measured constant-estimator MSE sits below this threshold
    (see the acceptance suite for the measured gap).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    return 1.0 / 64.0 + (1.0 - 1.0 / m) * (5.0 / (2.0 * N)) * (1.0 - 2.0 / math.pi)


def amplitude_threshold() -> tuple[float, float]:
    """(mean, MSE) of the constant amplitude estimator for a ~ U(0.1, 1.0)."""
    return (0.1 + 1.0) / 2.0, (1.0 - 0.1) ** 2 / 12.0


def phase_threshold() -> tuple[float, float]:
    """(mean, MSE) of the constant phase estimator for phi ~ U(0, 2*pi)."""
    return math.pi, math.pi**2 / 3.0


def estimation_thresholds(m: int, N: int) -> LossVector:
    """(amp, freq, phase) learning thresholds for count m and frame length N.

    The normalizers of the estimator training loss and of the normalized
    Chamfer score."""
    return LossVector(amp=amplitude_threshold()[1],
                      freq=frequency_threshold(m, N),
                      phase=phase_threshold()[1])


def mean_frequency_estimator(m: int, N: int) -> np.ndarray:
    """Constant frequency vector: entry i = 0.125 + (i-1)/N + E[jitter] (i>1).

    E[jitter] = sqrt(5/(N*pi)) is the folded-normal mean of the offset term.
    Entries are strictly ascending.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = np.arange(m, dtype=np.float64)
    jitter = math.sqrt(5.0 / (N * math.pi))
    out = 0.125 + idx / N
    out[1:] += jitter
    return out
