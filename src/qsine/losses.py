"""Loss functions for training and evaluation.

Detection uses a heavy-sided loss that punishes undercounting exponentially
and overcounting quadratically. Parameter estimates use per-parameter MSE,
combined into a single scalar by normalizing each term with its learning
threshold (see qsine.thresholds). Set-to-set comparisons with mismatched
counts use the Chamfer distance.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


class LossVector(NamedTuple):
    """Per-parameter loss (or threshold) triple in (amp, freq, phase) order."""

    amp: float
    freq: float
    phase: float


def detection_loss(m, mhat):
    """Heavy-sided count loss: e^(m-mhat)-1 if m >= mhat, else (m-mhat)^2/2.

    Undercounting (mhat < m) costs exponentially, overcounting quadratically;
    zero iff mhat == m. Accepts scalars or broadcastable arrays; mhat may be
    fractional.
    """
    m = np.asarray(m, dtype=np.float64)
    mhat = np.asarray(mhat, dtype=np.float64)
    diff = m - mhat
    out = np.where(diff >= 0.0, np.expm1(diff), 0.5 * diff * diff)
    if out.ndim == 0:
        return float(out)
    return out


def _chamfer_rows(F: np.ndarray, Fhat: np.ndarray) -> np.ndarray:
    # Chamfer distance of each row pair of (B, m) and (B, k) arrays -> (B,):
    # sum_i min_k |f_i - fhat_k| + sum_i min_k |fhat_i - f_k|. Each row's
    # sums run along a contiguous last axis, so a row gives the same bits
    # alone as inside any batch.
    if F.shape[1] == 0 or Fhat.shape[1] == 0:
        raise ValueError("chamfer requires nonempty vectors on both sides")
    d = np.abs(F[:, :, None] - Fhat[:, None, :])
    return d.min(axis=2).sum(axis=1) + d.min(axis=1).sum(axis=1)


def effective_loss(ell, thresholds, m: int) -> float:
    """Unified scalar loss: (1/m) * sum of per-parameter loss/threshold ratios.

    Args:
        ell: LossVector (or 3-sequence) of amp/freq/phase losses.
        thresholds: LossVector of the corresponding learning thresholds.
        m: sinusoid count of the task.
    """
    la, lf, lp = ell
    ta, tf, tp = thresholds
    if min(ta, tf, tp) <= 0.0:
        raise ValueError("thresholds must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    return (la / ta + lf / tf + lp / tp) / m


def normalized_chamfer(truth, est, thresholds) -> float:
    """Set-to-set estimate quality in threshold-normalized units.

    Chamfer distance per parameter (amps, freqs, phases), each scaled by the
    inverse square root of its learning threshold, combined like
    effective_loss with the true count's 1/m factor. Zero iff est matches
    truth exactly as sets.
    """
    rows = [(p.amps[None], p.freqs[None], p.phases[None]) for p in (truth, est)]
    return float(normalized_chamfer_batch(*rows, thresholds)[0])


def normalized_chamfer_batch(truth, est, thresholds) -> np.ndarray:
    """normalized_chamfer of B frames in one pass.

    Args:
        truth: (amps, freqs, phases), each a (B, m) float64 array: every
            frame has the same true count m.
        est: (amps, freqs, phases), each (B, k): one estimated count k.
        thresholds: LossVector of the learning thresholds for count m.

    Returns:
        (B,) values, each equal to the frame's normalized_chamfer.
    """
    ta, tf, tp = thresholds
    if min(ta, tf, tp) <= 0.0:
        raise ValueError("thresholds must be positive")
    (A, F, P), (Ah, Fh, Ph) = truth, est
    terms = (
        _chamfer_rows(A, Ah) / np.sqrt(ta)
        + _chamfer_rows(F, Fh) / np.sqrt(tf)
        + _chamfer_rows(P, Ph) / np.sqrt(tp)
    )
    return terms / A.shape[1]
