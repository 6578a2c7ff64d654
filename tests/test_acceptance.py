"""Acceptance suite: the externally guaranteed behaviors of the toolkit.

One class per guarantee, in rough dependency order: exact analytic constants,
Monte-Carlo oracle equivalences, quantizer bit-exactness, Bussgang
linearization, gradient correctness, classical round trips, desk-scale
learning results for the shipped training recipes, end-to-end pipeline
ordering, OOD generalization, and byte-level determinism of every CLI
command.

One known shortfall is asserted at its bound anyway: the end-to-end Chamfer
ordering, the paper's own claim, which the shipped desk-scale recipe misses.
It fails with the measured values in its assertion message; it is a known
gap, not a flake. Model-backed classes use the cached networks from
conftest (the first run trains them, ~30 min total).
"""
from __future__ import annotations

import csv
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import finite_diff_check
from oracles import (add_noise, draw_parameters, normalize_power, synthesize,
                     to_iq)
from qsine.classical import aic_mdl_detect, classical_estimate
from qsine.harness import _TAG_OOD, _cell_examples, build_parser, main
from qsine.losses import detection_loss
from qsine.nn.layers import (Activation, BatchNorm1D, Conv1D, Dense, Dropout,
                             Flatten, MaxPool1D)
from qsine.nn.network import Network
from qsine.quantize import bussgang_gain, make_quantizer, quantize
from qsine.signalnet import (SinusoidEstimator, _mean_count_loss,
                             build_detection_network, build_estimator,
                             detect_count_batch, detection_batch_grads,
                             estimator_batch_grads, estimator_forward_batch)
from qsine.signals import GenConfig, ParameterSet, make_dataset, substream
from qsine.thresholds import (amplitude_threshold, detection_threshold,
                              frequency_threshold, mean_frequency_estimator,
                              phase_threshold)

N = 64
M = 5


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def _stack_examples(examples):
    X = np.stack([ex.x for ex in examples]).astype(np.float32)
    counts = np.array([ex.label.m for ex in examples])
    return X, counts


# --------------------------------------------------------------------------
# 1. analytic thresholds
# --------------------------------------------------------------------------

class TestAnalyticThresholds:
    def test_detection_constant_and_loss(self):
        mhat, loss = detection_threshold(5)
        assert abs(mhat - 3.69) <= 0.01
        assert abs(loss - 1.67) <= 0.01
        # exact values, pinned against an independent scipy.optimize solve
        assert mhat == pytest.approx(3.6899502865753817, rel=1e-12)
        assert loss == pytest.approx(1.6707497632740930, rel=1e-12)

    def test_frequency_thresholds_db(self):
        got = [_db(frequency_threshold(m, N)) for m in range(1, 6)]
        npt.assert_allclose(
            got, [-18.0618, -16.4355, -16.0053, -15.8052, -15.6895],
            atol=5e-5)
        # the coarser published rounding {-16.4, -16, -15.8, -15.7} sits
        # within 0.05 dB for m >= 2; the m=1 anchor 10*log10(1/64) =
        # -18.0618 rounds to -18.1 at that precision, not -18
        for value, ref in zip(got[1:], [-16.4, -16.0, -15.8, -15.7]):
            assert abs(value - ref) <= 0.05

    def test_amplitude_threshold_exact(self):
        mean, mse = amplitude_threshold()
        assert mean == (0.1 + 1.0) / 2.0
        assert mse == (1.0 - 0.1) ** 2 / 12.0
        assert mean == pytest.approx(0.55, rel=1e-12)
        assert mse == pytest.approx(0.0675, rel=1e-12)

    def test_phase_threshold_exact(self):
        mean, mse = phase_threshold()
        assert mean == math.pi
        assert mse == math.pi**2 / 3.0

    def test_all_thresholds_under_one_second(self):
        t0 = time.perf_counter()
        detection_threshold(5)
        for m in range(1, 6):
            frequency_threshold(m, N)
            mean_frequency_estimator(m, N)
        amplitude_threshold()
        phase_threshold()
        assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. thresholds == constant-estimator loss (Monte-Carlo oracle)
# --------------------------------------------------------------------------

N_DRAWS = 1_000_000


@pytest.fixture(scope="module")
def constant_estimator_stats():
    """One pass of 1e6 generator draws scored against the constant estimators.

    Accumulates all four tasks in a single loop so the draw cost is paid
    once; detection needs only the count tallies because the constant's
    loss is deterministic given m.
    """
    cfg = GenConfig()
    rng = np.random.default_rng(202)
    mean_vecs = {m: mean_frequency_estimator(m, N) for m in range(1, M + 1)}
    n_m = np.zeros(M + 1, dtype=np.int64)
    ss_freq = np.zeros(M + 1)
    ss_amp = 0.0
    ss_phase = 0.0
    t0 = time.perf_counter()
    for _ in range(N_DRAWS):
        ps = draw_parameters(cfg, rng)
        m = ps.m
        n_m[m] += 1
        d = ps.freqs - mean_vecs[m]
        ss_freq[m] += d @ d
        d = ps.amps - 0.55
        ss_amp += d @ d
        d = ps.phases - math.pi
        ss_phase += d @ d
    elapsed = time.perf_counter() - t0
    mhat_star, _ = detection_threshold(M)
    det = sum(n_m[m] * float(detection_loss(m, mhat_star))
              for m in range(1, M + 1)) / N_DRAWS
    n_params = float(n_m[1:] @ np.arange(1, M + 1))
    return {
        "elapsed": elapsed,
        "detection": det,
        "freq": {m: float(ss_freq[m] / (n_m[m] * m)) for m in range(1, M + 1)},
        "amp": ss_amp / n_params,
        "phase": ss_phase / n_params,
    }


class TestConstantEstimatorEquivalence:
    def test_detection_loss_within_one_percent(self, constant_estimator_stats):
        want = detection_threshold(M)[1]
        got = constant_estimator_stats["detection"]
        assert abs(got / want - 1.0) <= 0.01

    def test_amplitude_mse_within_one_percent(self, constant_estimator_stats):
        want = amplitude_threshold()[1]
        got = constant_estimator_stats["amp"]
        assert abs(got / want - 1.0) <= 0.01

    def test_phase_mse_within_one_percent(self, constant_estimator_stats):
        want = phase_threshold()[1]
        got = constant_estimator_stats["phase"]
        assert abs(got / want - 1.0) <= 0.01

    def test_frequency_mse_within_one_percent(self, constant_estimator_stats):
        # frequency_threshold is the published closed form, whose 1/64
        # anchor term exceeds the sampler's anchor variance; its docstring
        # promises only that the constant estimator scores below it. At m=1
        # (no jitter, no rejection, no sorting) the constant 0.125 scores
        # the anchor variance Var[U(0, 0.25)] = 1/192 itself.
        freq = constant_estimator_stats["freq"]
        anchor_var = 0.25**2 / 12.0
        assert abs(freq[1] / anchor_var - 1.0) <= 0.01, (freq[1], anchor_var)
        for m in range(1, M + 1):
            assert freq[m] < frequency_threshold(m, N), (
                m, freq[m], frequency_threshold(m, N))

    def test_draw_pass_under_one_minute(self, constant_estimator_stats):
        assert constant_estimator_stats["elapsed"] < 60.0


# --------------------------------------------------------------------------
# 3. detection-loss ordering
# --------------------------------------------------------------------------

class TestDetectionLossOrdering:
    def test_one_step_asymmetry_and_values(self):
        for m in range(2, 6):
            over_1 = float(detection_loss(m, m + 1))
            under_1 = float(detection_loss(m, m - 1))
            over_2 = float(detection_loss(m, m + 2))
            assert over_1 == 0.5
            # np.expm1 and math.expm1 disagree by one ulp on this value
            assert under_1 == pytest.approx(math.expm1(1.0), rel=1e-15)
            assert under_1 == pytest.approx(1.71828, abs=1e-5)
            assert over_2 == 2.0
            assert over_1 < under_1 < over_2


# --------------------------------------------------------------------------
# 4. quantizer bit-exactness
# --------------------------------------------------------------------------

class TestQuantizerBitExactness:
    def test_one_bit_alphabet(self):
        rng = np.random.default_rng(44)
        spec = make_quantizer(1)
        x = rng.normal(scale=2.0, size=256) + 1j * rng.normal(scale=0.3,
                                                              size=256)
        x[:4] = [0.0, 1e-300 + 0j, -1e-300 + 0j, 0.5 - 0.5j]
        q = quantize(x, spec)
        assert np.isin(q.real, (-1.0, 1.0)).all()
        assert np.isin(q.imag, (-1.0, 1.0)).all()

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_idempotent(self, bits):
        rng = np.random.default_rng(45 + bits)
        spec = make_quantizer(bits)
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        q = quantize(x, spec)
        npt.assert_array_equal(quantize(q, spec), q)

    def test_three_bit_level_set(self):
        spec = make_quantizer(3)
        want = -1.0 + 2.0 * np.arange(8) / 7.0
        npt.assert_allclose(spec.levels, want, rtol=0.0, atol=1e-15)
        rng = np.random.default_rng(46)
        q = quantize(rng.normal(size=512) + 1j * rng.normal(size=512), spec)
        for part in (q.real, q.imag):
            dist = np.abs(part[:, None] - want[None, :]).min(axis=1)
            assert dist.max() <= 1e-15


# --------------------------------------------------------------------------
# 5. Bussgang linearization
# --------------------------------------------------------------------------

class TestBussgangLinearization:
    def test_one_bit_gain_and_residual(self):
        t0 = time.perf_counter()
        sigma = 1.0 / math.sqrt(2.0)
        spec = make_quantizer(1)
        g = bussgang_gain(spec, sigma)
        assert g == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

        rng = np.random.default_rng(55)
        s = (rng.normal(0.0, sigma, N_DRAWS)
             + 1j * rng.normal(0.0, sigma, N_DRAWS))
        q = quantize(s, spec)
        g_mc = float(np.vdot(s, q).real / np.vdot(s, s).real)
        assert abs(g_mc / g - 1.0) <= 0.005

        # the distortion left after removing the linear part must be
        # uncorrelated with the input
        eta = q - g * s
        assert abs(np.mean(s * np.conj(eta))) < 0.01
        assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------------------
# 6. gradient correctness
# --------------------------------------------------------------------------

def _mse_loss(values, node, target):
    out = values[node]
    diff = out - target
    loss = float((diff * diff).mean())
    return loss, {node: 2.0 * diff / diff.size}


def _estimator_fd(est, X, At, Ft, Pt, h, entries=3, seed=0):
    est64 = SinusoidEstimator([b.astype(np.float64) for b in est.blocks], N=est.N)
    X = X.astype(np.float64)
    estimator_batch_grads(est64, X, At, Ft, Pt)
    # copies: every later call rewrites the gradient buffers in place
    analytic = [{k: g.copy() for k, g in b.named_grads().items()}
                for b in est64.blocks]
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for block, grads in zip(est64.blocks, analytic):
        for name, p in block.named_params().items():
            flat = p.reshape(-1)
            for i in rng.choice(flat.size, size=min(entries, flat.size),
                                replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp = estimator_batch_grads(est64, X, At, Ft, Pt)
                flat[i] = orig - h
                lm = estimator_batch_grads(est64, X, At, Ft, Pt)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = float(grads[name].reshape(-1)[i])
                max_rel = max(max_rel,
                              abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    return max_rel


class TestGradientCorrectness:
    def test_linear_layers_tight(self):
        # quadratic loss in every parameter: central differences have zero
        # truncation error, so a large step isolates roundoff and the
        # analytic gradient must match to 1e-7
        rng = np.random.default_rng(60)
        net = Network()
        net.add("conv", Conv1D(1, 3, 3, rng=rng), "x")
        net.add("flat", Flatten(), "conv")
        net.add("fc1", Dense(24, 6, rng=rng), "flat")
        net.add("fc2", Dense(6, 3, rng=rng), "fc1")
        net = net.astype(np.float64)
        x = rng.normal(size=(4, 8, 1))
        target = rng.normal(size=(4, 3))
        rep = finite_diff_check(net, lambda v: _mse_loss(v, "fc2", target),
                                x, h=1e-3, max_entries=8)
        assert rep["max_rel_err"] <= 1e-7, rep

    def test_every_layer_kind(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(61)
        net = Network()
        net.add("conv", Conv1D(2, 4, 3, rng=rng), "x")
        net.add("bn", BatchNorm1D(4), "conv")
        net.add("relu", Activation("relu"), "bn")
        net.add("pool", MaxPool1D(2), "relu")
        net.add("flat", Flatten(), "pool")
        net.add("fc1", Dense(24, 10, rng=rng), "flat")
        net.add("selu", Activation("selu"), "fc1")
        net.add("drop", Dropout(0.3, seed=9), "selu")
        net.add("fc2", Dense(10, 4, rng=rng), "drop")
        net.add("probs", Activation("softmax"), "fc2")
        net = net.astype(np.float64)
        x = rng.normal(size=(5, 12, 2))
        C = rng.uniform(0.0, 2.0, size=(5, 4))

        def loss_fn(values):
            p = values["probs"]
            return float((p * C).sum() / len(p)), {"probs": C / len(p)}

        rep = finite_diff_check(net, loss_fn, x, h=1e-5, max_entries=5,
                                rng=np.random.default_rng(1))
        assert rep["max_rel_err"] <= 1e-5, rep
        assert time.perf_counter() - t0 < 60.0

    def test_detection_training_loss(self):
        net = build_detection_network(seed=3).astype(np.float64)
        X = substream(62, 0).normal(size=(6, N, 2)).astype(np.float64)
        # counts away from 3: a fresh net's expected count sits near the
        # middle of 1..5 and the loss kinks at m == mhat
        counts = np.array([1, 2, 5, 4, 5, 1])

        def loss_fn(values):
            loss, dprobs = _mean_count_loss(values["probs"], counts)
            return loss, {"probs": dprobs}

        rep = finite_diff_check(net, loss_fn, X, h=1e-5, max_entries=3,
                                rng=np.random.default_rng(5))
        assert rep["max_rel_err"] <= 1e-5, rep

    def test_estimator_training_loss(self):
        est = build_estimator(1, seed=8)
        X = substream(63, 0).normal(size=(6, N, 2)).astype(np.float32)
        At = substream(63, 1).uniform(0.1, 1.0, size=(6, 1))
        Ft = substream(63, 2).uniform(0.02, 0.48, size=(6, 1))
        Pt = substream(63, 3).uniform(0.0, 6.28, size=(6, 1))
        assert _estimator_fd(est, X, At, Ft, Pt, h=1e-5) <= 1e-5


# --------------------------------------------------------------------------
# 7. classical round trip
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_order_hit_rates():
    """AIC/MDL agreement with the true count: 1000 unquantized trials per m
    at SNR 30, plus tallies of AIC under-counts and of frames where AIC
    picks fewer sinusoids than MDL."""
    t0 = time.perf_counter()
    rates = {}
    for m in (1, 2):
        cfg = GenConfig(bits=3, m_fixed=m, snr_db=30.0, seed=777 + m)
        rng = np.random.default_rng(777 + m)
        hits = {"aic": 0, "mdl": 0}
        aic_under = aic_below_mdl = 0
        for _ in range(1000):
            params = draw_parameters(cfg, rng)
            u = synthesize(params, N)
            y = add_noise(u, 30.0, float(np.sum(params.amps**2)), rng)
            s = to_iq(normalize_power(y))
            k = {crit: aic_mdl_detect(s, criterion=crit, L=16, Mmax=M)
                 for crit in ("aic", "mdl")}
            for crit in ("aic", "mdl"):
                hits[crit] += k[crit] == m
            aic_under += k["aic"] < m
            aic_below_mdl += k["aic"] < k["mdl"]
        rates[m] = {crit: v / 1000.0 for crit, v in hits.items()}
        rates[m]["aic_under"] = aic_under
        rates[m]["aic_below_mdl"] = aic_below_mdl
    rates["elapsed"] = time.perf_counter() - t0
    return rates


class TestClassicalRoundTrip:
    def test_single_tone_recovery(self):
        rng = np.random.default_rng(70)
        for _ in range(40):
            f = rng.uniform(0.03, 0.47)
            a = rng.uniform(0.1, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            ps = ParameterSet(m=1, amps=np.array([a]), freqs=np.array([f]),
                              phases=np.array([phi]))
            x = to_iq(synthesize(ps, N))
            est = classical_estimate(x, 1, qspec=None, nfft=2**16)
            assert abs(est.freqs[0] - f) <= 1.0 / 2**16 + 1e-9
            assert abs(est.amps[0] - a) / a <= 0.02
            dphi = (est.phases[0] - phi + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(dphi) <= 0.05

    def test_mdl_hit_rate(self, model_order_hit_rates):
        for m in (1, 2):
            assert model_order_hit_rates[m]["mdl"] >= 0.95

    def test_aic_hit_rate(self, model_order_hit_rates):
        # Wax-Kailath AIC is not consistent: its k(2L-k) penalty does not
        # grow with the snapshot count K, so it keeps over-counting at any
        # SNR and promises no hit rate. What it does promise at SNR 30 is
        # that every miss is an over-count, and that it never picks fewer
        # sinusoids than MDL on the same frame: MDL(k) - AIC(k)/2 =
        # k(2L-k)(ln K / 2 - 1) grows with k because ln K = ln 49 > 2.
        for m in (1, 2):
            r = model_order_hit_rates[m]
            assert r["aic_under"] == 0, (m, r)
            assert r["aic_below_mdl"] == 0, (m, r)

    def test_runtime_under_two_minutes(self, model_order_hit_rates):
        assert model_order_hit_rates["elapsed"] < 120.0


# --------------------------------------------------------------------------
# 8. desk-scale estimator training beats the distributional floor
# --------------------------------------------------------------------------

class TestFrequencyLearning:
    def test_single_tone_freq_mse(self, est_m1_b3):
        examples = make_dataset(
            GenConfig(N=N, M=M, bits=3, seed=8101, snr_db=10.0, m_fixed=1),
            2000)
        X, _ = _stack_examples(examples)
        Ft = np.stack([ex.label.freqs for ex in examples])
        _, F, _ = estimator_forward_batch(est_m1_b3, X)
        mse_db = _db(float(np.mean((F.astype(np.float64) - Ft) ** 2)))
        # the constant-estimator floor is -18.06 dB; demand >= 3 dB beyond
        assert mse_db <= -21.0


# --------------------------------------------------------------------------
# 9. one-bit amplitude stays at the distributional floor
# --------------------------------------------------------------------------

class TestOneBitAmplitudeFloor:
    def test_amp_mse_tracks_threshold_across_snr(self, est_m1_b1):
        floor_db = _db(amplitude_threshold()[1])
        for i, snr in enumerate((-10.0, -5.0, 0.0, 5.0, 10.0)):
            examples = make_dataset(
                GenConfig(N=N, M=M, bits=1, seed=9100 + i, snr_db=snr,
                          m_fixed=1), 1000)
            X, _ = _stack_examples(examples)
            At = np.stack([ex.label.amps for ex in examples])
            A, _, _ = estimator_forward_batch(est_m1_b1, X)
            mse_db = _db(float(np.mean((A.astype(np.float64) - At) ** 2)))
            assert abs(mse_db - floor_db) <= 2.0, (snr, mse_db, floor_db)


# --------------------------------------------------------------------------
# 10. learned detection beats the eigenvalue criteria
# --------------------------------------------------------------------------

class TestDetectionVersusClassical:
    def test_loss_bound_and_ordering(self, detection_net_b3):
        qspec = make_quantizer(3)
        for snr in (0.0, 5.0, 10.0):
            examples = make_dataset(
                GenConfig(N=N, M=M, bits=3, seed=10600 + int(snr),
                          snr_db=snr), 2000)
            X, counts = _stack_examples(examples)
            nn_pred = detect_count_batch(detection_net_b3, X)
            nn = float(np.mean(detection_loss(counts, nn_pred)))
            assert nn <= 1.67, (snr, nn)
            for crit in ("aic", "mdl"):
                pred = np.array([
                    aic_mdl_detect(ex.x, criterion=crit, qspec=qspec, L=16,
                                   Mmax=M) for ex in examples])
                classical = float(np.mean(detection_loss(counts, pred)))
                assert nn < classical, (snr, crit, nn, classical)


# --------------------------------------------------------------------------
# 11. end-to-end pipeline ordering at SNR 5
# --------------------------------------------------------------------------

class TestEndToEndChamferOrdering:
    def test_signalnet_vs_aic_periodogram(self, bundle_b3_dir, tmp_path):
        # the paper's claim: the learned pipeline beats the classical one in
        # Chamfer error. The shipped desk-scale recipe does not reach it.
        out = tmp_path / "joint.csv"
        rc = main(["eval", "--algorithms", "signalnet,aic,aic_periodogram",
                   "--bundle", str(bundle_b3_dir), "--bits", "3",
                   "--n", "2000", "--snr-min", "5", "--snr-max", "5",
                   "--snr-step", "5", "--seed", "611", "--out", str(out)])
        assert rc == 0
        value = {}
        with open(out, newline="") as fh:
            for row in csv.DictReader(fh):
                value[(row["algorithm"], row["metric"])] = float(row["value"])
        nn = value[("signalnet", "chamfer_norm")]
        classical = value[("aic_periodogram", "chamfer_norm")]
        assert nn <= classical, (
            f"signalnet normalized chamfer {nn:.4f} vs aic+periodogram "
            f"{classical:.4f} on the shared 2000-frame set at SNR 5, b=3. "
            "The learned detector wins its half (detection loss "
            f"{value[('signalnet', 'detection_loss')]:.3f} vs AIC "
            f"{value[('aic', 'detection_loss')]:.3f}); the gap is in the "
            "chains' parameter estimates, which trail the periodogram's "
            "even at the true count")


# --------------------------------------------------------------------------
# 12. OOD generalization of the m=2 estimator
# --------------------------------------------------------------------------

class TestOodFrequencyGeneralization:
    def test_ood_within_one_db(self, est_m2_b3_path, tmp_path):
        # the OOD sampler draws frequencies i.i.d. on (0, 0.5) while training
        # anchors the lowest tone in (0, 0.25) (see GenConfig), so no
        # in-distribution MSE is promised under the shift; what must hold is
        # that the estimator still uses its input: on the very OOD frames of
        # each cell it beats the input-independent estimator
        out = tmp_path / "ood.csv"
        args = ["ood", "--est-ckpt", str(est_m2_b3_path), "--m", "2",
                "--bits", "3", "--n", "2000", "--snr-min", "-10",
                "--snr-max", "10", "--snr-step", "5", "--seed", "17",
                "--out", str(out)]
        rc = main(args)
        assert rc == 0
        mse = {}
        with open(out, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["metric"] == "freq_mse_db":
                    mse[(float(row["snr_db"]), row["freq_mode"])] = \
                        float(row["value"])
        cli = build_parser().parse_args(args)
        constant = mean_frequency_estimator(2, N)
        bad = []
        for snr in (-10.0, -5.0, 0.0, 5.0, 10.0):
            examples = _cell_examples(cli, 3, 2, snr, _TAG_OOD,
                                      freq_mode="ood_uniform")
            Ft = np.stack([ex.label.freqs for ex in examples])
            const_db = _db(float(np.mean((Ft - constant) ** 2)))
            if not mse[(snr, "ood")] < const_db:
                bad.append(f"snr {snr:+.0f}: model {mse[(snr, 'ood')]:.2f} "
                           f"dB, constant {const_db:.2f} dB")
        assert not bad, (
            "m=2 estimator does not beat the constant estimator on OOD "
            "frequencies:\n  " + "\n  ".join(bad))


# --------------------------------------------------------------------------
# 13. byte-identical command reruns
# --------------------------------------------------------------------------

def _bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestCommandDeterminism:
    def test_thresholds(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"thr_{tag}.csv"
            assert main(["thresholds", "--out", str(out)]) == 0
            outs.append(_bytes(out))
        assert outs[0] == outs[1]

    def test_generate(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            base = tmp_path / f"ds_{tag}"
            assert main(["generate", "--out", str(base), "--count", "40",
                         "--bits", "3", "--seed", "5", "--snr", "0"]) == 0
            outs.append(_bytes(f"{base}.labels.csv")
                        + _bytes(f"{base}.samples.f32"))
        assert outs[0] == outs[1]

    def test_eval(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"eval_{tag}.csv"
            assert main(["eval", "--algorithms", "mdl,periodogram",
                         "--bits", "3", "--n", "6", "--snr-min", "0",
                         "--snr-max", "5", "--snr-step", "5",
                         "--nfft", "4096", "--L", "8", "--seed", "3",
                         "--out", str(out)]) == 0
            outs.append(_bytes(out))
        assert outs[0] == outs[1]

    def test_ood(self, est_m2_b3_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"ood_{tag}.csv"
            assert main(["ood", "--est-ckpt", str(est_m2_b3_path),
                         "--m", "2", "--n", "8", "--snr-min", "0",
                         "--snr-max", "0", "--seed", "3",
                         "--out", str(out)]) == 0
            outs.append(_bytes(out))
        assert outs[0] == outs[1]

    def test_train_estimator(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            ck = tmp_path / f"est_{tag}.ckpt"
            assert main(["train", "--task", "estimator", "--m", "1",
                         "--samples", "250", "--epochs", "2", "--bits", "3",
                         "--seed", "11", "--out", str(ck)]) == 0
            outs.append(_bytes(ck) + _bytes(f"{ck}.log.csv"))
        assert outs[0] == outs[1]

    def test_train_detection(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            ck = tmp_path / f"det_{tag}.ckpt"
            assert main(["train", "--task", "detection", "--samples", "300",
                         "--epochs", "1", "--seed", "12",
                         "--out", str(ck)]) == 0
            outs.append(_bytes(ck) + _bytes(f"{ck}.log.csv"))
        assert outs[0] == outs[1]
