"""Quantizer levels, decision boundaries, and the Bussgang linearization."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from qsine.quantize import (
    SIGMA_NORMALIZED,
    bussgang_gain,
    bussgang_linearize,
    make_quantizer,
    quantize,
)
from oracles import to_iq
from qsine.signals import substream


class TestLevels:
    def test_level_set_closed_form(self):
        for bits in (1, 2, 3, 4, 6):
            q = make_quantizer(bits)
            n = 2**bits
            expected = -1.0 + 2.0 * np.arange(n) / (n - 1)
            npt.assert_allclose(q.levels, expected, atol=1e-15)

    def test_three_bit_levels_exact(self):
        q = make_quantizer(3)
        npt.assert_allclose(
            q.levels,
            [-1, -5 / 7, -3 / 7, -1 / 7, 1 / 7, 3 / 7, 5 / 7, 1],
            atol=1e-15,
        )

    def test_thresholds_are_midpoints(self):
        q = make_quantizer(3)
        npt.assert_allclose(q.thresholds, (q.levels[:-1] + q.levels[1:]) / 2,
                            atol=1e-15)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            make_quantizer(0)


class TestQuantize:
    def test_one_bit_is_sign(self):
        q = make_quantizer(1)
        rng = substream(0, 100)
        z = rng.normal(size=256) + 1j * rng.normal(size=256)
        out = quantize(z, q)
        npt.assert_array_equal(out.real, np.sign(z.real))
        npt.assert_array_equal(out.imag, np.sign(z.imag))

    def test_output_values_are_levels(self):
        q = make_quantizer(3)
        rng = substream(0, 101)
        z = 3 * (rng.normal(size=500) + 1j * rng.normal(size=500))
        out = quantize(z, q)
        assert set(np.unique(out.real)) <= set(q.levels)
        assert set(np.unique(out.imag)) <= set(q.levels)

    def test_idempotent(self):
        rng = substream(0, 102)
        for bits in (1, 2, 3, 5):
            q = make_quantizer(bits)
            z = rng.normal(size=200) + 1j * rng.normal(size=200)
            once = quantize(z, q)
            npt.assert_array_equal(quantize(once, q), once)

    def test_saturates_outside_range(self):
        q = make_quantizer(3)
        out = quantize(np.array([100.0, -100.0]), q)
        npt.assert_array_equal(out, [1.0, -1.0])

    def test_boundary_maps_to_lower_level(self):
        # bins are right-closed: a value exactly on a decision threshold
        # belongs to the bin below it
        q = make_quantizer(2)
        t = q.thresholds[1]  # boundary between levels -1/3 and 1/3
        assert quantize(np.array([t]), q)[0] == pytest.approx(q.levels[1])
        just_above = np.nextafter(t, 1.0)
        assert quantize(np.array([just_above]), q)[0] == pytest.approx(q.levels[2])

    def test_real_input_passthrough_shape(self):
        q = make_quantizer(2)
        out = quantize(np.linspace(-1, 1, 9), q)
        assert out.shape == (9,)
        assert not np.iscomplexobj(out)

    def test_rejects_non_finite(self):
        q = make_quantizer(2)
        with pytest.raises(ValueError):
            quantize(np.array([np.nan]), q)


class TestBussgang:
    def test_one_bit_gain_closed_form(self):
        # E[x sign(x)] / sigma^2 = sqrt(2/pi) / sigma
        for sigma in (0.3, 1 / math.sqrt(2), 1.0, 2.5):
            g = bussgang_gain(make_quantizer(1), sigma)
            assert g == pytest.approx(math.sqrt(2 / math.pi) / sigma, rel=1e-12)

    def test_gain_one_bit_normalized_value(self):
        g = bussgang_gain(make_quantizer(1), SIGMA_NORMALIZED)
        assert g == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)

    def test_gain_monte_carlo(self):
        # sample estimate of E[x Q(x)] / E[x^2] at the pipeline's sigma
        rng = substream(0, 103)
        for bits in (1, 3):
            q = make_quantizer(bits)
            x = rng.normal(0.0, SIGMA_NORMALIZED, size=400_000)
            mc = np.mean(x * quantize(x, q)) / np.mean(x**2)
            assert mc == pytest.approx(bussgang_gain(q, SIGMA_NORMALIZED),
                                       rel=5e-3)

    def test_gain_decreases_with_saturation(self):
        q = make_quantizer(3)
        assert bussgang_gain(q, 2.0) < bussgang_gain(q, 0.5)

    def test_linearize_divides_out_the_gain(self):
        q = make_quantizer(3)
        rng = substream(0, 104)
        z = rng.normal(size=32) + 1j * rng.normal(size=32)
        zq = quantize(z, q)
        g = bussgang_gain(q, SIGMA_NORMALIZED)
        npt.assert_allclose(bussgang_linearize(to_iq(zq), q), zq / g, rtol=1e-12)
        # a (B, N, 2) stack linearizes to the bytes of its frames one by one
        X = np.stack([to_iq(quantize(rng.normal(size=32) + 1j * rng.normal(size=32), q))
                      for _ in range(5)])
        npt.assert_array_equal(bussgang_linearize(X, q),
                               [bussgang_linearize(x, q) for x in X])

    def test_linearize_rejects_complex_frame(self):
        with pytest.raises(ValueError, match="IQ matrix"):
            bussgang_linearize(np.ones(8, dtype=complex), make_quantizer(3))

    def test_distortion_uncorrelated_with_input(self):
        # eta = Q(x) - G x should be (nearly) uncorrelated with x
        rng = substream(0, 105)
        q = make_quantizer(1)
        s = rng.normal(0, SIGMA_NORMALIZED, size=500_000) \
            + 1j * rng.normal(0, SIGMA_NORMALIZED, size=500_000)
        g = bussgang_gain(q, SIGMA_NORMALIZED)
        eta = quantize(s, q) - g * s
        assert abs(np.mean(s * np.conj(eta))) < 0.01
