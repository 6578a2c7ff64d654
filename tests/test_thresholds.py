"""Analytic learning thresholds and the Lambert-W solver behind them."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import lambertw as scipy_lambertw

from qsine.losses import detection_loss
from qsine.thresholds import (
    amplitude_threshold,
    detection_threshold,
    frequency_threshold,
    lambert_w,
    mean_frequency_estimator,
    phase_threshold,
)


class TestLambertW:
    def test_against_scipy_on_grid(self):
        xs = np.concatenate([
            np.linspace(1e-6, 10, 40),
            np.logspace(1, 12, 30),
        ])
        for x in xs:
            ref = float(scipy_lambertw(x).real)
            assert lambert_w(float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_defining_identity(self):
        for x in (0.0, 0.5, 3.0, 1e4, 1e8):
            w = lambert_w(x)
            assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)


class TestDetectionThreshold:
    def test_reference_values_m5(self):
        mhat, loss = detection_threshold(5)
        assert mhat == pytest.approx(3.6899502865753817, rel=1e-12)
        assert loss == pytest.approx(1.6707497632740930, rel=1e-12)

    def test_degenerate_cases(self):
        assert detection_threshold(1) == (1.0, 0.0)
        mhat, loss = detection_threshold(2)
        assert mhat == pytest.approx(2.0)
        assert loss == pytest.approx(0.25)

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6, 7, 10])
    def test_minimizes_mean_loss(self, M):
        """The returned constant answer beats a fine grid of alternatives."""
        mhat, loss = detection_threshold(M)
        grid = np.linspace(1.0, M, 4001)
        grid_losses = [
            np.mean([detection_loss(m, g) for m in range(1, M + 1)])
            for g in grid
        ]
        assert loss <= min(grid_losses) + 1e-9
        best = grid[int(np.argmin(grid_losses))]
        assert mhat == pytest.approx(best, abs=2e-3)

    def test_loss_is_mean_over_counts(self):
        mhat, loss = detection_threshold(5)
        direct = np.mean([detection_loss(m, mhat) for m in range(1, 6)])
        assert loss == pytest.approx(direct, rel=1e-12)


class TestFrequencyThreshold:
    def test_reference_db_values(self):
        # N=64 thresholds in dB, largest gain for the single-tone task
        expected = [-18.0618, -16.4355, -16.0053, -15.8052, -15.6895]
        got = [10 * math.log10(frequency_threshold(m, 64)) for m in range(1, 6)]
        npt.assert_allclose(got, expected, atol=5e-4)

    def test_m1_value(self):
        assert frequency_threshold(1, 64) == pytest.approx(1 / 64, rel=1e-15)

    def test_monotone_in_m(self):
        vals = [frequency_threshold(m, 64) for m in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scales_with_frame_length(self):
        assert frequency_threshold(1, 128) == pytest.approx(1 / 64)
        assert frequency_threshold(3, 256) < frequency_threshold(3, 64)

    def test_mean_estimator_entries(self):
        vec = mean_frequency_estimator(3, 64)
        assert vec[0] == pytest.approx(0.125)
        # entries past the anchor carry the folded-normal jitter mean
        # E|N(0, 2.5/N)| = sqrt(2.5/N) * sqrt(2/pi) = sqrt(5/(N*pi))
        jitter_mean = math.sqrt(5 / (64 * math.pi))
        assert vec[1] == pytest.approx(0.125 + 1 / 64 + jitter_mean, rel=1e-9)
        assert vec[2] - vec[1] == pytest.approx(1 / 64, rel=1e-9)


class TestScalarThresholds:
    def test_amplitude_exact(self):
        mean, thr = amplitude_threshold()
        assert mean == 0.55
        assert thr == 0.9**2 / 12  # exact in IEEE arithmetic
        assert thr == 0.0675

    def test_phase_exact(self):
        mean, thr = phase_threshold()
        assert mean == pytest.approx(math.pi)
        assert thr == pytest.approx(math.pi**2 / 3, rel=1e-15)
