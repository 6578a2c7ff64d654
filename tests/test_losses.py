"""Detection loss, Chamfer distances, unified loss."""
import numpy as np
import pytest

from qsine.losses import (
    LossVector,
    _chamfer_rows,
    detection_loss,
    effective_loss,
    normalized_chamfer,
    normalized_chamfer_batch,
)
from qsine.signals import ParameterSet


class TestDetectionLoss:
    def test_zero_on_exact(self):
        for m in range(1, 6):
            assert detection_loss(m, m) == 0.0

    def test_asymmetry_values(self):
        # missing one costs e-1, one extra costs 1/2, two extra cost 2
        assert detection_loss(3, 2) == pytest.approx(np.e - 1)
        assert detection_loss(3, 4) == pytest.approx(0.5)
        assert detection_loss(3, 5) == pytest.approx(2.0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_over_by_one_beats_under_by_one(self, m):
        assert detection_loss(m, m + 1) < detection_loss(m, m - 1) \
            < detection_loss(m, m + 2)

    def test_fractional_argument(self):
        assert detection_loss(2, 2.5) == pytest.approx(0.125)
        assert detection_loss(2, 1.5) == pytest.approx(np.expm1(0.5))

    def test_broadcasts(self):
        out = detection_loss(np.array([[2], [3]]), np.arange(1, 6))
        assert out.shape == (2, 5)
        assert out[0, 1] == 0.0 and out[1, 2] == 0.0


def chamfer(f, fhat) -> float:
    """The Chamfer distance of one pair of value sets, as a one-row batch."""
    return float(_chamfer_rows(np.atleast_2d(f), np.atleast_2d(fhat))[0])


class TestChamfer:
    def test_identical_sets_zero(self):
        f = np.array([0.1, 0.2, 0.4])
        assert chamfer(f, f) == 0.0

    def test_order_invariant(self):
        a = np.array([0.1, 0.3])
        b = np.array([0.3, 0.1])
        assert chamfer(a, b) == 0.0

    def test_hand_worked_asymmetric_sets(self):
        # truth {0, 1}, estimate {0.2}: 0.2 + 0.8 (truth side) + 0.2 (est side)
        assert chamfer(np.array([0.0, 1.0]), np.array([0.2])) \
            == pytest.approx(1.2)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(size=rng.integers(1, 5))
            b = rng.uniform(size=rng.integers(1, 5))
            assert chamfer(a, b) == pytest.approx(chamfer(b, a))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.array([]), np.array([0.1]))


class TestEffectiveLoss:
    def test_combination(self):
        ell = LossVector(amp=0.02, freq=0.01, phase=1.0)
        thr = LossVector(amp=0.04, freq=0.02, phase=2.0)
        # each ratio is 1/2; divided by m=3
        assert effective_loss(ell, thr, 3) == pytest.approx(0.5)

    def test_threshold_guard(self):
        with pytest.raises(ValueError):
            effective_loss(LossVector(1, 1, 1), LossVector(1, 0.0, 1), 2)

    def test_normalized_chamfer_zero_on_match(self):
        p = ParameterSet(m=2, amps=[0.5, 0.7], freqs=[0.1, 0.2],
                         phases=[0.0, 1.0])
        thr = LossVector(0.0675, 0.0156, 3.29)
        assert normalized_chamfer(p, p, thr) == 0.0

    def test_normalized_chamfer_scales_by_count_and_threshold(self):
        t = ParameterSet(m=1, amps=[0.5], freqs=[0.1], phases=[1.0])
        e = ParameterSet(m=1, amps=[0.5], freqs=[0.2], phases=[1.0])
        thr = LossVector(1.0, 0.04, 1.0)
        # only frequency differs: both directions contribute 0.1 / sqrt(0.04)
        assert normalized_chamfer(t, e, thr) == pytest.approx(1.0)


def _reference_normalized_chamfer(truth, est, thresholds):
    # the frame-at-a-time formula: 1-D distance matrices and 1-D sums
    def one(f, fhat):
        d = np.abs(f[:, None] - fhat[None, :])
        return float(d.min(axis=1).sum() + d.min(axis=0).sum())

    ta, tf, tp = thresholds
    terms = (one(truth[0], est[0]) / np.sqrt(ta)
             + one(truth[1], est[1]) / np.sqrt(tf)
             + one(truth[2], est[2]) / np.sqrt(tp))
    return float(terms / len(truth[0]))


class TestNormalizedChamferBatch:
    @pytest.mark.parametrize("tied", [False, True])
    def test_rows_equal_frame_by_frame(self, tied):
        rng = np.random.default_rng(17)
        thr = LossVector(0.0675, 0.0052, 3.29)
        B = 40
        for m in range(1, 6):
            for k in range(1, 6):
                if tied:
                    # values on a coarse grid: equal distances in every row
                    def draw(shape):
                        return rng.integers(0, 6, size=shape) / 8.0
                else:
                    def draw(shape):
                        return rng.uniform(0.0, 1.0, size=shape)
                truth = tuple(draw((B, m)) for _ in range(3))
                est = tuple(draw((B, k)) for _ in range(3))
                got = normalized_chamfer_batch(truth, est, thr)
                assert got.shape == (B,)
                for b in range(B):
                    t = tuple(a[b] for a in truth)
                    e = tuple(a[b] for a in est)
                    want = _reference_normalized_chamfer(t, e, thr)
                    assert got[b] == want, (m, k, b)
                    assert normalized_chamfer(ParameterSet(m, *t),
                                              ParameterSet(k, *e), thr) == want
                assert float(np.mean(got)) == float(np.mean(
                    [_reference_normalized_chamfer(tuple(a[b] for a in truth),
                                                   tuple(a[b] for a in est), thr)
                     for b in range(B)]))

    def test_threshold_and_empty_guards(self):
        one = tuple(np.ones((2, 1)) for _ in range(3))
        with pytest.raises(ValueError, match="positive"):
            normalized_chamfer_batch(one, one, LossVector(1.0, 0.0, 1.0))
        empty = tuple(np.ones((2, 0)) for _ in range(3))
        with pytest.raises(ValueError, match="nonempty"):
            normalized_chamfer_batch(one, empty, LossVector(1.0, 1.0, 1.0))
