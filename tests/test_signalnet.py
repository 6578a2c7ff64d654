"""Detection/estimator architectures, chain gradients, chunked inference,
training, bundles."""
import ast
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import conftest
from gradcheck import finite_diff_check
from oracles import synthesize, to_iq
from qsine import signalnet
from qsine.nn import Network
from qsine.nn.checkpoint import (_pack, _unpack, chain_to_bytes, load_chain,
                                 load_network, network_to_bytes, save_chain,
                                 save_network)
from qsine.signals import GenConfig, ParameterSet, make_dataset, substream
from qsine.signalnet import (
    INFER_ROWS,
    SignalNetModel,
    SinusoidEstimator,
    TrainConfig,
    _detection_probs,
    _eval_estimator_loss,
    _mean_count_loss,
    _forward_chain,
    build_block_network,
    build_detection_network,
    build_estimator,
    detect_count_batch,
    detection_arrays,
    detection_batch_grads,
    estimator_batch_grads,
    estimate_by_count,
    estimator_forward_batch,
    load_estimator,
    load_signalnet,
    save_estimator,
    save_signalnet,
    signalnet_infer,
    signalnet_infer_batch,
    train_detection,
    train_estimator,
)
from qsine.losses import detection_loss
from qsine.tones import cancel_tone


def _batch(seed, B=6, N=64):
    return substream(seed, 0).normal(size=(B, N, 2)).astype(np.float32)


# --------------------------------------------------------------------------
# tone cancellation
# --------------------------------------------------------------------------

def _tone(a, f, p, N):
    return synthesize(ParameterSet(m=1, amps=[a], freqs=[f], phases=[p]), N)


class TestReconstruction:
    def test_cancel_tone_removes_tone_at_any_scale(self):
        # the frame's scale is unknown to the chain; a tone at the given
        # frequency goes whatever its amplitude and phase, and a tone at
        # another DFT bin (orthogonal over N samples) is left untouched
        N = 16
        f = np.array([0.125, 0.3125])
        other = _tone(0.5, 0.25, 1.0, N)
        R = np.stack([to_iq(_tone(a, fi, p, N) + other)
                      for a, fi, p in zip((0.05, 7.0), f, (0.3, 2.0))])
        out = cancel_tone(R, f)
        assert out.shape == (2, N, 2)
        for i in range(2):
            npt.assert_allclose(out[i], to_iq(other), atol=1e-12)


# --------------------------------------------------------------------------
# architectures
# --------------------------------------------------------------------------

def _count_packs(monkeypatch) -> list:
    """Records every network that Network.pack runs on, once per call."""
    packed, pack = [], Network.pack

    def counting_pack(net):
        packed.append(net)
        pack(net)

    monkeypatch.setattr(Network, "pack", counting_pack)
    return packed


class TestArchitectures:
    def test_detection_param_count(self):
        assert build_detection_network().flat_params.size == 105_829

    def test_detection_probs(self):
        net = build_detection_network(seed=1)
        probs = net.forward(_batch(2), train=False)["probs"]
        assert probs.shape == (6, 5)
        npt.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        assert (probs >= 0).all()

    def test_detection_frame_length_validation(self):
        with pytest.raises(ValueError, match="divisible by 16"):
            build_detection_network(N=60)

    def test_block_param_count(self):
        assert build_block_network().flat_params.size == 13_747

    @pytest.mark.parametrize("train", [False, True])
    def test_forward_returns_only_the_outputs(self, train):
        det, block = build_detection_network(seed=1), build_block_network(seed=1)
        assert sorted(det.forward(_batch(2), train=train)) == ["probs"]
        assert sorted(block.forward(_batch(2), train=train)) == ["amp", "freq", "phase"]

    def test_build_packs_once_per_network(self, monkeypatch):
        packed = _count_packs(monkeypatch)
        det, est = build_detection_network(seed=1), build_estimator(3, seed=1)
        assert packed == [det, *est.blocks]

    def test_estimator_is_m_blocks(self):
        est = build_estimator(3, seed=5)
        assert est.m == 3
        assert sum(b.flat_params.size for b in est.blocks) == 3 * 13_747

    def test_blocks_get_distinct_initializations(self):
        est = build_estimator(2, seed=5)
        w0 = est.blocks[0].get_layer("n1_conv").params["w"]
        w1 = est.blocks[1].get_layer("n1_conv").params["w"]
        assert not np.allclose(w0, w1)

    def test_head_shapes(self):
        est = build_estimator(2, seed=3)
        A, F, P = estimator_forward_batch(est, _batch(4))
        assert A.shape == F.shape == P.shape == (6, 2)


class TestResidualChain:
    def test_wiring_matches_manual_recomposition(self):
        est = build_estimator(2, seed=9)
        X = _batch(11, B=4)
        A, F, P = _forward_chain(est, X, train=False)
        vals1 = est.blocks[0].forward(X.astype(np.float32), train=False)
        a1, f1, p1 = (vals1[h][:, 0] for h in ("amp", "freq", "phase"))
        # block 2 sees the frame minus its least-squares tone at f1
        n = np.arange(64, dtype=np.float32)  # the chain's precision
        r = X[..., 0] + 1j * X[..., 1]
        e = np.exp(2j * np.pi * f1[:, None] * n)
        c = (e.conj() * r).sum(axis=1) / 64
        r = r - c[:, None] * e
        R = np.stack([r.real, r.imag], axis=-1).astype(np.float32)
        vals2 = est.blocks[1].forward(R, train=False)
        npt.assert_allclose(A[:, 0], a1, rtol=1e-6)
        npt.assert_allclose(A[:, 1], vals2["amp"][:, 0], rtol=1e-6)
        npt.assert_allclose(F[:, 1], vals2["freq"][:, 0], rtol=1e-6)
        npt.assert_allclose(P[:, 1], vals2["phase"][:, 0], rtol=1e-6)


# --------------------------------------------------------------------------
# chunked inference
# --------------------------------------------------------------------------

class TestChunkedInference:
    # chunk edges, the tail merge below INFER_ROWS rows, and the 300-row cell
    # of the benchmark (a 108-row last chunk) and a 65-row last chunk
    NS = (1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 300, 321)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_chain_bytes_equal_whole_batch(self, m):
        est = build_estimator(m, seed=90 + m)
        X = _batch(91, B=max(self.NS))
        for n in self.NS:
            whole = _forward_chain(est, X[:n], train=False)
            for got, want in zip(estimator_forward_batch(est, X[:n]), whole):
                assert got.tobytes() == want.tobytes(), n

    def test_detector_bytes_equal_whole_batch(self):
        net = build_detection_network(seed=98)
        X = _batch(99, B=max(self.NS))
        for n in self.NS:
            want = net.forward(X[:n], train=False)["probs"]
            assert _detection_probs(net, X[:n]).tobytes() == want.tobytes(), n
            npt.assert_array_equal(detect_count_batch(net, X[:n]),
                                   want.argmax(axis=1) + 1)

    def test_chain_memory_flat_in_rows(self):
        # the whole-batch chain peaked about 4x higher at 4x the rows
        est = build_estimator(5, seed=94)
        X = _batch(95, B=4 * INFER_ROWS)
        estimator_forward_batch(est, X[:2])  # first-call allocations
        peaks = []
        for n in (INFER_ROWS, 4 * INFER_ROWS):
            tracemalloc.start()
            try:
                estimator_forward_batch(est, X[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_detector_forward_peak_is_one_layer(self):
        # a forward drops each activation after its last reader, so its peak
        # is the caller's input plus one layer's working set: that layer's
        # input and output, and temporaries no larger than those two (a
        # conv's padded input and one tap product), at most twice the two
        # largest activations. A forward that keeps every activation peaks
        # near their sum, about 11 MB on these 150 rows
        net = build_detection_network(seed=92)
        x = _batch(93, B=150)
        sizes, val = [], x
        for node in net.nodes:  # the detector is a chain of nodes
            val = node.layer.forward(val, train=False)
            sizes.append(val.nbytes)
        largest = sorted(sizes)[-2:]
        tracemalloc.start()
        try:
            net.forward(x, train=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes + 2 * sum(largest), (peak, largest)

    def test_row_chunks_merge_a_short_tail(self, monkeypatch):
        monkeypatch.setattr(signalnet, "INFER_ROWS", 8)
        net = build_detection_network(seed=96)
        est = build_estimator(2, seed=97)
        X = _batch(98, B=24)
        rows = []
        real = Network.forward

        def counting(self, x, train=False):
            rows.append(len(x))
            return real(self, x, train)

        monkeypatch.setattr(Network, "forward", counting)
        for n, chunks in ((1, [1]), (8, [8]), (15, [15]), (16, [8, 8]),
                          (17, [8, 9]), (23, [8, 15]), (24, [8, 8, 8])):
            bounds = np.cumsum([0, *chunks])
            parts = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
            rows.clear()
            probs = _detection_probs(net, X[:n])
            assert rows == chunks, n
            want = np.concatenate([real(net, X[s], False)["probs"] for s in parts])
            assert probs.tobytes() == want.tobytes(), n
            # each chunk runs through both blocks before the next starts
            rows.clear()
            heads = estimator_forward_batch(est, X[:n])
            assert rows == [c for c in chunks for _ in range(2)], n
            by_hand = [_forward_chain(est, X[s], train=False) for s in parts]
            for k, got in enumerate(heads):
                want = np.concatenate([h[k] for h in by_hand])
                assert got.tobytes() == want.tobytes(), n


# --------------------------------------------------------------------------
# training-loss gradients
# --------------------------------------------------------------------------

def _estimator_fd(est, X, At, Ft, Pt, h, entries=3, seed=0):
    """Central-difference check of estimator_batch_grads on a float64 chain."""
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


def _targets(seed, B, m):
    At = substream(seed, 0).uniform(0.1, 1.0, size=(B, m))
    Ft = np.sort(substream(seed, 1).uniform(0.02, 0.48, size=(B, m)), axis=1)
    Pt = substream(seed, 2).uniform(0.0, 6.28, size=(B, m))
    return At, Ft, Pt


class TestTrainingGradients:
    def test_detection_loss_gradients(self):
        net = build_detection_network(seed=3).astype(np.float64)
        X = _batch(31, B=6).astype(np.float64)
        # counts away from 3: a fresh net's expected count sits near the
        # middle of 1..5, and finite differences misbehave on the loss kink
        # at m == mhat
        counts = np.array([1, 2, 5, 4, 5, 1])

        def loss_fn(values):
            loss, dprobs = _mean_count_loss(values["probs"], counts)
            return loss, {"probs": dprobs}

        rep = finite_diff_check(net, loss_fn, X, h=1e-5, max_entries=3,
                                rng=np.random.default_rng(5))
        assert rep["max_rel_err"] <= 1e-5, rep

    def test_single_block_estimator_gradients(self):
        est = build_estimator(1, seed=8)
        X = _batch(33, B=6)
        At, Ft, Pt = _targets(34, 6, 1)
        assert _estimator_fd(est, X, At, Ft, Pt, h=1e-5) <= 1e-5

    def test_chain_gradients_stop_gradient(self, monkeypatch):
        # training treats the cancelled tone as a constant, so with block 1's
        # input residual held at its unperturbed value the whole loss's
        # central differences are the gradients of both blocks. Downstream
        # relu/maxpool kinks make large FD steps unreliable, so the chain
        # check runs at a smaller h with a looser bar.
        frozen = []

        def cancel_once(R, f):
            if not frozen:  # the unperturbed forward of _estimator_fd
                frozen.append(cancel_tone(R, f))
            return frozen[0]

        monkeypatch.setattr(signalnet, "cancel_tone", cancel_once)
        est = build_estimator(2, seed=8)
        X = _batch(35, B=6)
        At, Ft, Pt = _targets(36, 6, 2)
        assert _estimator_fd(est, X, At, Ft, Pt, h=1e-6, entries=2) <= 1e-4
        assert len(frozen) == 1

    def test_expected_count_loss_oracle(self):
        probs = np.array([[0.0, 0.0, 0.0, 1.0, 0.0],
                          [0.5, 0.5, 0.0, 0.0, 0.0]])
        counts = np.array([2, 3])
        npt.assert_allclose(probs @ np.arange(1.0, 6.0), [4.0, 1.5])

        loss, dprobs = _mean_count_loss(probs, counts)
        # one-hot mass recovers the hard loss; split mass gives a
        # fractional count
        want = 0.5 * (detection_loss(2.0, 4.0) + detection_loss(3.0, 1.5))
        assert loss == pytest.approx(want, rel=1e-12)

        ks = np.arange(1.0, 6.0)
        npt.assert_allclose(dprobs[0], (4.0 - 2.0) / 2 * ks)       # quadratic
        npt.assert_allclose(dprobs[1], -np.exp(3.0 - 1.5) / 2 * ks)  # expm1

    def test_detection_batch_grads_matches_manual_backward(self):
        # two nets from one seed share weights and the dropout stream, so
        # the manual pass sees the same training-mode forward
        net, ref = build_detection_network(seed=5), build_detection_network(seed=5)
        X = _batch(37, B=8)
        counts = np.array([1, 2, 3, 4, 5, 1, 2, 3])
        loss = detection_batch_grads(net, X, counts)
        grads = net.named_grads()

        ref.zero_grads()
        probs = ref.forward(X, train=True)["probs"]
        want_loss, dprobs = _mean_count_loss(probs, counts)
        ref.backward({"probs": dprobs.astype(np.float32)})
        want = ref.named_grads()

        assert loss == want_loss
        assert sorted(grads) == sorted(want) == sorted(net.named_params())
        for key, g in grads.items():
            assert g.dtype == np.float32, key
            npt.assert_array_equal(g, want[key], err_msg=key)
        assert any(np.any(g != 0) for g in grads.values())


# --------------------------------------------------------------------------
# training loops
# --------------------------------------------------------------------------

def _tiny_dataset(seed, n, bits=3, m_fixed=None):
    cfg = GenConfig(N=64, M=5, bits=bits, seed=seed, m_fixed=m_fixed,
                    snr_range=(-5.0, 10.0))
    return make_dataset(cfg, n)


class TestTraining:
    def test_detection_training_is_deterministic_and_learns(self):
        examples = _tiny_dataset(50, 700)
        cfg = TrainConfig(seed=3, detection_epochs=3, batch_size=64)
        net1, hist1 = train_detection(examples, cfg)
        net2, hist2 = train_detection(examples, cfg)
        assert network_to_bytes(net1) == network_to_bytes(net2)
        assert hist1 == hist2
        assert len(hist1) == 3
        assert hist1[-1]["train_loss"] < hist1[0]["train_loss"]

    def test_detection_arrays_and_count_range(self):
        examples = _tiny_dataset(51, 40)
        X, counts = detection_arrays(examples)
        assert X.shape == (40, 64, 2) and X.dtype == np.float32
        assert counts.min() >= 1 and counts.max() <= 5
        net = build_detection_network(seed=0)
        preds = detect_count_batch(net, X)
        assert preds.shape == (40,)
        assert set(np.unique(preds)) <= set(range(1, 6))

    def test_estimator_training_is_deterministic(self):
        examples = _tiny_dataset(52, 400, m_fixed=1)
        cfg = TrainConfig(seed=4, estimator_epochs=2, batch_size=64)
        est1, hist1 = train_estimator(examples, cfg)
        est2, hist2 = train_estimator(examples, cfg)
        assert chain_to_bytes(est1.blocks) == chain_to_bytes(est2.blocks)
        assert hist1 == hist2

    def test_estimator_training_reduces_validation_loss(self):
        examples = _tiny_dataset(53, 800, m_fixed=1)
        cfg = TrainConfig(seed=5, estimator_epochs=6, batch_size=64)
        est, hist = train_estimator(examples, cfg)
        assert hist[-1]["val_loss"] <= hist[0]["val_loss"]
        X, At, Ft, Pt = (np.stack([ex.x for ex in examples]).astype(np.float32),
                         *(np.stack([getattr(ex.label, k) for ex in examples])
                           for k in ("amps", "freqs", "phases")))
        final = _eval_estimator_loss(est, X, At, Ft, Pt)
        assert np.isfinite(final)

    def test_layer_tensors_are_views_of_the_flat_buffers(self, tmp_path):
        # every params[k] / grads[k] of a layer is a view into its network's
        # flat_params / flat_grads, and the views tile them, on every path
        # that builds, loads, casts, restores or trains a network
        def check(net):
            params, grads = net.named_params(), net.named_grads()
            assert sum(p.size for p in params.values()) == net.flat_params.size
            for key, p in params.items():
                assert np.shares_memory(p, net.flat_params), key
                assert np.shares_memory(grads[key], net.flat_grads), key

        det, est = build_detection_network(seed=1), build_estimator(2, seed=2)
        save_network(det, tmp_path / "det.ckpt")
        save_chain(est.blocks, tmp_path / "est.ckpt")
        det64 = det.astype(np.float64)
        assert det64.flat_params.dtype == det64.flat_grads.dtype == np.float64
        before, snap = network_to_bytes(det), det.snapshot()
        det.flat_params[:] += 1.0
        det.restore(snap)
        assert network_to_bytes(det) == before
        trained, _ = train_estimator(_tiny_dataset(55, 60, m_fixed=2),
                                     TrainConfig(seed=6, estimator_epochs=1))
        for net in (det, det64, *est.blocks,
                    load_network(tmp_path / "det.ckpt")[0],
                    *load_chain(tmp_path / "est.ckpt")[0], *trained.blocks):
            check(net)

    def test_estimator_rejects_mixed_counts(self):
        examples = _tiny_dataset(54, 60)  # counts drawn from 1..5
        with pytest.raises(ValueError, match="fixed sinusoid count"):
            train_estimator(examples, TrainConfig(estimator_epochs=1))


# --------------------------------------------------------------------------
# bundle persistence and inference
# --------------------------------------------------------------------------

def _tiny_bundle():
    det = build_detection_network(seed=60)
    estimators = {m: build_estimator(m, seed=60 + m) for m in (1, 2, 3, 4, 5)}
    return SignalNetModel(detection=det, estimators=estimators, bits=3)


class TestBundle:
    def test_save_load_round_trip(self, tmp_path):
        model = _tiny_bundle()
        out = save_signalnet(model, tmp_path / "bundle")
        assert out.name == "signalnet.json"
        loaded = load_signalnet(out)
        X = _batch(70, B=4)
        npt.assert_allclose(
            loaded.detection.forward(X, train=False)["probs"],
            model.detection.forward(X, train=False)["probs"], rtol=1e-6)
        for m in (1, 5):
            got = estimator_forward_batch(loaded.estimators[m], X)
            want = estimator_forward_batch(model.estimators[m], X)
            for g, w in zip(got, want):
                npt.assert_allclose(g, w, rtol=1e-6)
        assert loaded.bits == 3 and loaded.M == 5 and loaded.N == 64

    def test_loading_the_suite_bundle_packs_once_per_network(self, bundle_b3_dir,
                                                              monkeypatch):
        packed = _count_packs(monkeypatch)
        model = load_signalnet(bundle_b3_dir)
        blocks = [b for m in sorted(model.estimators) for b in model.estimators[m].blocks]
        assert len(blocks) == 1 + 2 + 3 + 4 + 5
        assert packed == [model.detection, *blocks]

    def test_load_accepts_directory(self, tmp_path):
        model = _tiny_bundle()
        save_signalnet(model, tmp_path / "b2")
        loaded = load_signalnet(tmp_path / "b2")
        assert sorted(loaded.estimators) == [1, 2, 3, 4, 5]

    def test_infer_batch_matches_single(self):
        model = _tiny_bundle()
        X = _batch(71, B=8)
        counts, sets = signalnet_infer_batch(model, X)
        for i in (0, 3, 7):
            mhat, ps = signalnet_infer(model, X[i])
            assert mhat == counts[i]
            npt.assert_allclose(ps.freqs, sets[i].freqs, rtol=1e-5)
            assert sets[i].m == counts[i]

    def test_infer_arrays_pad_the_batch_sets(self):
        model = _tiny_bundle()
        X = _batch(73, B=8)
        counts, sets = signalnet_infer_batch(model, X)
        A, F, P = estimate_by_count(model, X, counts)
        assert A.shape == (8, counts.max()) and A.dtype == np.float64
        for b, ps in enumerate(sets):
            for got, want in ((A, ps.amps), (F, ps.freqs), (P, ps.phases)):
                npt.assert_array_equal(got[b, :ps.m], want)
                assert np.isnan(got[b, ps.m:]).all()

    def test_missing_estimator_raises(self):
        model = _tiny_bundle()
        X = _batch(72, B=16)
        counts = detect_count_batch(model.detection, X)
        del model.estimators[int(counts[0])]
        with pytest.raises(KeyError, match="no estimator"):
            signalnet_infer_batch(model, X)

    def test_estimator_checkpoint_meta(self, tmp_path):
        est = build_estimator(2, seed=80)
        path = tmp_path / "est.ckpt"
        save_estimator(est, path, bits=1)
        loaded, meta = load_estimator(path)
        assert meta["m"] == 2 and meta["bits"] == 1
        assert meta["task"] == "estimator"
        assert loaded.m == 2 and "residual_mode" not in meta
        X = _batch(81, B=3)
        for g, w in zip(estimator_forward_batch(loaded, X),
                        estimator_forward_batch(est, X)):
            npt.assert_allclose(g, w, rtol=1e-6)

    @pytest.mark.parametrize("mode", ["stop_gradient", "differentiable"])
    def test_residual_mode_key_of_older_chains_is_ignored(self, tmp_path, mode):
        # chain checkpoints written before the chain had one residual rule
        # carry the rule in their meta; they load, and infer as the same
        # blocks saved without it
        model = _tiny_bundle()
        model.estimators = {m: model.estimators[m] for m in (1, 2)}
        save_signalnet(model, tmp_path / "new")
        save_signalnet(model, tmp_path / "old")
        for m in (1, 2):
            path = tmp_path / "old" / f"est_m{m}.ckpt"
            manifest, payload = _unpack(path.read_bytes())
            assert "residual_mode" not in manifest["meta"]
            manifest["meta"]["residual_mode"] = mode
            path.write_bytes(_pack(manifest, payload))
        X = _batch(82, B=5)
        new, old = load_signalnet(tmp_path / "new"), load_signalnet(tmp_path / "old")
        for m in (1, 2):
            est_old, meta = load_estimator(tmp_path / "old" / f"est_m{m}.ckpt")
            est_new, _ = load_estimator(tmp_path / "new" / f"est_m{m}.ckpt")
            assert meta["residual_mode"] == mode
            want = estimator_forward_batch(est_new, X)
            for got in (estimator_forward_batch(est_old, X),
                        estimator_forward_batch(old.estimators[m], X),
                        estimator_forward_batch(new.estimators[m], X)):
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), m


# --------------------------------------------------------------------------
# the test model cache's key
# --------------------------------------------------------------------------

def _package_files(module: str) -> set[Path]:
    """The source files of `module` and of every qsine module it imports,
    followed transitively through the import statements."""
    root = Path(signalnet.__file__).resolve().parent
    files, todo = set(), [module]
    while todo:
        name = todo.pop()
        base = root.joinpath(*name.split(".")[1:])
        path = base / "__init__.py" if base.is_dir() else base.with_suffix(".py")
        # names outside qsine, and names imported from a module, have no file
        if name.split(".")[0] != "qsine" or not path.is_file() or path in files:
            continue
        files.add(path)
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                source = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package)
                todo += [source, *(f"{source}.{a.name}" for a in node.names)]
            elif isinstance(node, ast.Import):
                todo += [a.name for a in node.names]
    return files


def test_training_sources_cover_what_training_imports():
    # cached checkpoints are keyed by a digest of the _TRAINING_SOURCES
    # modules; a module that signalnet reaches but no pattern names could
    # change the training bytes while the cache kept serving stale models
    root = Path(signalnet.__file__).resolve().parent
    listed = {path.resolve() for pattern in conftest._TRAINING_SOURCES
              for path in root.glob(pattern)}
    reached = _package_files("qsine.signalnet")
    assert {root / "signals.py", root / "tones.py", root / "nn" / "layers.py"} <= reached
    unlisted = sorted(str(path.relative_to(root)) for path in reached - listed)
    assert not unlisted, f"modules training imports but the cache key skips: {unlisted}"
