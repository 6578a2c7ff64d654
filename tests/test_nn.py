"""Network engine: layer math, gradients, Adam, checkpoint format."""
import re

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import finite_diff_check
from qsine.nn.checkpoint import (
    MAGIC,
    _pack,
    _unpack,
    chain_from_bytes,
    chain_to_bytes,
    load_chain,
    load_network,
    network_from_bytes,
    network_to_bytes,
    save_network,
)
from qsine.nn.layers import (
    SELU_ALPHA,
    SELU_LAMBDA,
    Activation,
    BatchNorm1D,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    layer_from_config,
)
from qsine.nn.network import Network
from qsine.nn.optim import Adam
from qsine.signalnet import build_block_network, build_detection_network


def _rng(seed=0):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# forward oracles
# --------------------------------------------------------------------------

class TestConv1DForward:
    def test_hand_worked_k3(self):
        # out[t] = w0*x[t-1] + w1*x[t] + w2*x[t+1] with zero edges
        conv = Conv1D(1, 1, kernel=3).astype(np.float64)
        conv.params["w"] = np.array([0.0, 1.0, -1.0]).reshape(3, 1, 1)
        conv.params["b"][:] = 0.0
        x = np.array([1.0, 2.0, 4.0]).reshape(1, 3, 1)
        npt.assert_allclose(conv.forward(x)[0, :, 0], [-1.0, -2.0, 4.0])

    def test_even_kernel_pads_right(self):
        # k=2 splits padding as left=0, right=1: out[t] = w0*x[t] + w1*x[t+1]
        conv = Conv1D(1, 1, kernel=2).astype(np.float64)
        conv.params["w"] = np.array([1.0, -1.0]).reshape(2, 1, 1)
        x = np.array([1.0, 2.0, 4.0]).reshape(1, 3, 1)
        npt.assert_allclose(conv.forward(x)[0, :, 0], [-1.0, -2.0, 4.0])

    def test_bias_broadcast(self):
        conv = Conv1D(1, 2, kernel=3).astype(np.float64)
        conv.params["w"][:] = 0.0
        conv.params["b"] = np.array([0.5, -1.5])
        out = conv.forward(np.zeros((2, 4, 1)))
        npt.assert_allclose(out, np.broadcast_to([0.5, -1.5], (2, 4, 2)))

    def test_multichannel_matches_direct_sum(self):
        rng = _rng(1)
        B, L, Cin, Cout, k = 2, 6, 3, 4, 3
        conv = Conv1D(Cin, Cout, kernel=k, rng=rng).astype(np.float64)
        x = rng.normal(size=(B, L, Cin))
        out = conv.forward(x)
        xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        want = np.empty((B, L, Cout))
        w, b = conv.params["w"], conv.params["b"]
        for bi in range(B):
            for t in range(L):
                want[bi, t] = b + sum(xp[bi, t + tau] @ w[tau] for tau in range(k))
        npt.assert_allclose(out, want, rtol=1e-12)


class TestMaxPool1DForward:
    def test_size_must_divide_length(self):
        x = np.array([3.0, 1.0, 5.0, 2.0, 4.0]).reshape(1, 5, 1)
        with pytest.raises(ValueError, match="does not divide length 5"):
            MaxPool1D(2).forward(x)

    def test_backward_routes_to_argmax(self):
        pool = MaxPool1D(2)
        x = np.array([3.0, 1.0, 5.0, 2.0]).reshape(1, 4, 1)
        pool.forward(x, train=True)
        dx = pool.backward(np.array([10.0, 20.0]).reshape(1, 2, 1))
        npt.assert_allclose(dx[0, :, 0], [10.0, 0.0, 20.0, 0.0])

    def test_tie_goes_to_first_index(self):
        pool = MaxPool1D(2)
        x = np.array([2.0, 2.0]).reshape(1, 2, 1)
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 1, 1)))
        npt.assert_allclose(dx[0, :, 0], [1.0, 0.0])

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_argmax_routing(self, size):
        # small integers make ties common
        pool = MaxPool1D(size)
        x = _rng(5).integers(0, 3, size=(4, 4 * size, 3)).astype(np.float32)
        out = pool.forward(x, train=True)
        dy = _rng(6).normal(size=out.shape).astype(np.float32)
        dx = pool.backward(dy)
        win = x.reshape(4, 4, size, 3)
        idx = win.argmax(axis=2)[:, :, None, :]
        npt.assert_array_equal(out, np.take_along_axis(win, idx, axis=2)[:, :, 0])
        want = np.zeros_like(win)
        np.put_along_axis(want, idx, dy[:, :, None, :], axis=2)
        npt.assert_array_equal(dx, want.reshape(x.shape))


class TestBatchNorm1DForward:
    def test_train_normalizes_with_biased_variance(self):
        bn = BatchNorm1D(1).astype(np.float64)
        x = np.array([1.0, 2.0, 3.0, 6.0]).reshape(4, 1)
        out = bn.forward(x, train=True)
        mu, var = x.mean(), x.var()  # biased
        npt.assert_allclose(out, (x - mu) / np.sqrt(var + 1e-5), rtol=1e-12)

    def test_running_stats_update(self):
        bn = BatchNorm1D(1, momentum=0.9).astype(np.float64)
        x = np.array([1.0, 3.0]).reshape(2, 1)
        bn.forward(x, train=True)
        npt.assert_allclose(bn.state["running_mean"], [0.9 * 0.0 + 0.1 * 2.0])
        npt.assert_allclose(bn.state["running_var"], [0.9 * 1.0 + 0.1 * 1.0])

    def test_batch_stats_match_numpy_exactly(self):
        bn = BatchNorm1D(4, momentum=0.0)
        x = _rng(8).normal(size=(30, 7, 4)).astype(np.float32)
        bn.forward(x, train=True)
        npt.assert_array_equal(bn.state["running_mean"], x.mean(axis=(0, 1)))
        npt.assert_array_equal(bn.state["running_var"], x.var(axis=(0, 1)))

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1D(1).astype(np.float64)
        bn.state["running_mean"][:] = 5.0
        bn.state["running_var"][:] = 4.0
        out = bn.forward(np.array([[7.0]]), train=False)
        npt.assert_allclose(out, [[2.0 / np.sqrt(4.0 + 1e-5)]])

    def test_gamma_beta_applied(self):
        bn = BatchNorm1D(2).astype(np.float64)
        bn.params["gamma"] = np.array([2.0, 1.0])
        bn.params["beta"] = np.array([0.0, 10.0])
        x = _rng(3).normal(size=(8, 2))
        out = bn.forward(x, train=True)
        xhat = (x - x.mean(0)) / np.sqrt(x.var(0) + 1e-5)
        npt.assert_allclose(out, xhat * [2.0, 1.0] + [0.0, 10.0], rtol=1e-12)

    def test_three_axis_input_normalizes_per_channel(self):
        bn = BatchNorm1D(3).astype(np.float64)
        x = _rng(4).normal(size=(4, 5, 3))
        out = bn.forward(x, train=True)
        npt.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-12)

    def test_train_rejects_single_row(self):
        bn = BatchNorm1D(1)
        with pytest.raises(ValueError, match="batch size"):
            bn.forward(np.ones((1, 1)), train=True)


class TestActivations:
    def test_relu(self):
        act = Activation("relu")
        npt.assert_allclose(act.forward(np.array([-2.0, 0.0, 3.0])), [0, 0, 3])

    def test_selu_reference_values(self):
        act = Activation("selu")
        out = act.forward(np.array([1.0, 0.0, -1.0]))
        npt.assert_allclose(
            out,
            [SELU_LAMBDA, 0.0, SELU_LAMBDA * SELU_ALPHA * np.expm1(-1.0)],
            rtol=1e-12,
        )

    def test_selu_constants(self):
        assert SELU_LAMBDA == pytest.approx(1.0507, abs=1e-4)
        assert SELU_ALPHA == pytest.approx(1.6733, abs=1e-4)

    def test_softmax_rows(self):
        act = Activation("softmax")
        out = act.forward(np.array([[0.0, np.log(3.0)], [5.0, 5.0]]))
        npt.assert_allclose(out, [[0.25, 0.75], [0.5, 0.5]], rtol=1e-12)

    def test_softmax_shift_invariance(self):
        act = Activation("softmax")
        x = _rng(5).normal(size=(3, 4))
        npt.assert_allclose(act.forward(x), act.forward(x + 100.0), rtol=1e-10)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            Activation("tanh")


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.7, seed=1)
        x = _rng(0).normal(size=(4, 5))
        npt.assert_array_equal(d.forward(x, train=False), x)

    def test_train_masks_and_rescales(self):
        d = Dropout(0.5, seed=2)
        x = np.ones((200, 50))
        out = d.forward(x, train=True)
        vals = np.unique(out)
        npt.assert_allclose(vals, [0.0, 2.0])  # kept entries scaled by 1/(1-p)
        assert 0.45 < (out > 0).mean() < 0.55

    def test_seeded_mask_is_reproducible(self):
        x = _rng(0).normal(size=(8, 8))
        a = Dropout(0.3, seed=9).forward(x, train=True)
        b = Dropout(0.3, seed=9).forward(x, train=True)
        npt.assert_array_equal(a, b)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestFlatten:
    def test_round_trip(self):
        f = Flatten()
        x = _rng(1).normal(size=(2, 3, 4))
        out = f.forward(x)
        assert out.shape == (2, 12)
        npt.assert_array_equal(f.backward(out), x)


# every layer kind whose backward reads a forward cache, and its input rank
_STATEFUL = {
    "conv1d": (lambda rng: Conv1D(2, 3, 3, rng=rng), 3),
    "maxpool2": (lambda rng: MaxPool1D(2), 3),
    "maxpool4": (lambda rng: MaxPool1D(4), 3),
    "batchnorm": (lambda rng: BatchNorm1D(2), 3),
    "dense": (lambda rng: Dense(2, 3, rng=rng), 2),
    "relu": (lambda rng: Activation("relu"), 2),
    "selu": (lambda rng: Activation("selu"), 2),
    "softmax": (lambda rng: Activation("softmax"), 2),
}


def _stateful(kind):
    rng = _rng(30)
    make, ndim = _STATEFUL[kind]
    shape = (4, 8, 2) if ndim == 3 else (4, 2)
    return make(rng), rng.normal(size=shape).astype(np.float32)


class TestInferenceForward:
    @pytest.mark.parametrize("kind", sorted(_STATEFUL))
    def test_backward_after_inference_raises(self, kind):
        layer, x = _stateful(kind)
        dy = np.ones_like(layer.forward(x, train=True))
        layer.backward(dy)
        layer.forward(x, train=False)
        with pytest.raises(RuntimeError, match="train=False"):
            layer.backward(dy)

    @pytest.mark.parametrize("kind", sorted(set(_STATEFUL) - {"batchnorm"}))
    def test_same_output_as_training_forward(self, kind):
        # BatchNorm is left out: its two modes normalize by different stats
        layer, x = _stateful(kind)
        want = layer.forward(x, train=True)
        assert layer.forward(x, train=False).tobytes() == want.tobytes()

    def test_network_backward_after_inference_raises(self):
        # the last training batch's caches must not be differentiated
        rng = _rng(31)
        net = Network()
        net.add("conv", Conv1D(2, 4, 3, rng=rng), "x")
        net.add("bn", BatchNorm1D(4), "conv")
        net.add("flat", Flatten(), "bn")
        net.add("fc", Dense(32, 1, rng=rng), "flat")
        net.pack()
        x = rng.normal(size=(3, 8, 2)).astype(np.float32)
        dout = np.ones((3, 1), np.float32)
        net.forward(x, train=True)
        net.backward({"fc": dout})
        net.forward(x, train=False)
        with pytest.raises(RuntimeError, match="kept no backward state"):
            net.backward({"fc": dout})


# --------------------------------------------------------------------------
# graph plumbing
# --------------------------------------------------------------------------

def _sum_loss(values, node):
    out = values[node]
    return float(out.sum()), {node: np.ones_like(out)}


class TestNetwork:
    def test_fan_out_accumulates_gradients(self):
        # one node feeding two heads: its gradient is the sum of both paths
        rng = _rng(7)
        net = Network()
        net.add("flat", Flatten(), "x")
        net.add("trunk", Dense(4, 3, rng=rng).astype(np.float64), "flat")
        net.add("h1", Dense(3, 2, rng=rng).astype(np.float64), "trunk")
        net.add("h2", Dense(3, 2, rng=rng).astype(np.float64), "trunk")
        net.pack()
        x = rng.normal(size=(5, 4, 1))
        net.zero_grads()
        net.forward(x, train=True)
        net.backward({"h1": np.ones((5, 2)), "h2": np.ones((5, 2))})
        w1 = net.get_layer("h1").params["w"]
        w2 = net.get_layer("h2").params["w"]
        # d loss / d trunk_out = 1 @ w1.T + 1 @ w2.T, pushed through trunk
        dtrunk = np.ones((5, 2)) @ w1.T + np.ones((5, 2)) @ w2.T
        want_wt = x.reshape(5, -1).T @ dtrunk
        npt.assert_allclose(net.get_layer("trunk").grads["w"], want_wt, rtol=1e-10)

    def test_forward_returns_only_the_outputs(self):
        # trunk fans out to h1 and to relu; its last reader is relu, so it
        # must live past h1, and only the nodes nothing reads come back
        rng = _rng(8)
        net = Network()
        net.add("flat", Flatten(), "x")
        net.add("trunk", Dense(4, 3, rng=rng), "flat")
        net.add("h1", Dense(3, 2, rng=rng), "trunk")
        net.add("relu", Activation("relu"), "trunk")
        net.add("h2", Dense(3, 2, rng=rng), "relu")
        net.pack()
        x = rng.normal(size=(5, 4, 1)).astype(np.float32)
        every = {"x": x}
        for node in net.nodes:
            every[node.name] = node.layer.forward(every[node.src])
        for train in (False, True):
            vals = net.forward(x, train=train)
            assert sorted(vals) == ["h1", "h2"], train
            for name, val in vals.items():
                assert val.tobytes() == every[name].tobytes(), (train, name)

    def test_changed_after_pack_raises(self):
        # no pass and no optimizer may use a network whose nodes changed
        # since its last pack: the new layers' tensors live outside the
        # flat buffers
        rng = _rng(12)
        net = Network()
        net.add("fc", Dense(3, 2, rng=rng), "x")
        x = rng.normal(size=(4, 3)).astype(np.float32)
        with pytest.raises(RuntimeError, match="pack"):
            net.forward(x)  # never packed
        net.pack()
        net.forward(x, train=True)
        net.add("out", Dense(2, 1, rng=rng), "fc")
        uses = (lambda: net.flat_params, lambda: net.flat_grads,
                net.zero_grads, net.snapshot, lambda: Adam([net]),
                lambda: net.forward(x, train=True),
                lambda: net.backward({"out": np.ones((4, 1), np.float32)}))
        for use in uses:
            with pytest.raises(RuntimeError, match="pack"):
                use()
        net.pack()
        assert net.flat_params.size == 3 * 2 + 2 + 2 * 1 + 1
        assert sorted(net.forward(x)) == ["out"]

    def test_duplicate_and_unknown_names_rejected(self):
        net = Network()
        net.add("a", Flatten(), "x")
        with pytest.raises(ValueError):
            net.add("a", Flatten(), "x")
        with pytest.raises(ValueError):
            net.add("b", Flatten(), "nope")

    def test_backward_unknown_node_rejected(self):
        net = Network()
        net.add("a", Flatten(), "x")
        net.pack()
        net.forward(np.ones((2, 3, 1)))
        with pytest.raises(ValueError):
            net.backward({"zzz": np.ones((2, 3))})

    def test_named_params_are_the_layer_arrays(self):
        # Adam updates the named arrays in place
        net = Network()
        net.add("fc", Dense(3, 2), "x")
        net.pack()
        params = net.named_params()
        assert set(params) == {"fc.w", "fc.b"}
        params["fc.b"][:] = [1.0, 2.0]
        npt.assert_allclose(net.get_layer("fc").params["b"], [1.0, 2.0])

    def test_snapshot_restore_round_trip(self):
        rng = _rng(11)
        net = Network()
        net.add("fc", Dense(3, 2, rng=rng), "x")
        net.add("bn", BatchNorm1D(2), "fc")
        net.pack()
        snap = net.snapshot()
        net.forward(rng.normal(size=(4, 3)).astype(np.float32), train=True)
        net.get_layer("fc").params["b"][:] = 9.0
        net.restore(snap)
        npt.assert_allclose(net.get_layer("fc").params["b"], 0.0)
        npt.assert_allclose(net.get_layer("bn").state["running_mean"], 0.0)

    def test_param_count(self):
        net = Network()
        net.add("fc", Dense(10, 4), "x")
        net.pack()
        assert net.flat_params.size == 10 * 4 + 4


# --------------------------------------------------------------------------
# gradient checks (layer kinds at h=1e-5; purely linear stacks at 1e-7)
# --------------------------------------------------------------------------

def _mse_loss(values, node, target):
    out = values[node]
    diff = out - target
    loss = float((diff * diff).mean())
    return loss, {node: 2.0 * diff / diff.size}


class TestFiniteDifference:
    def test_linear_stack_tight(self):
        rng = _rng(21)
        net = Network()
        net.add("flat", Flatten(), "x")
        net.add("fc1", Dense(8, 6, rng=rng), "flat")
        net.add("fc2", Dense(6, 3, rng=rng), "fc1")
        net = net.astype(np.float64)
        x = rng.normal(size=(4, 8, 1))
        target = rng.normal(size=(4, 3))
        # the loss is quadratic in each parameter, so the central difference
        # has no truncation error; a larger h keeps roundoff cancellation
        # far below the 1e-7 bar
        rep = finite_diff_check(net, lambda v: _mse_loss(v, "fc2", target), x,
                                h=1e-3, max_entries=8)
        assert rep["max_rel_err"] <= 1e-7, rep

    def test_conv_relu_pool_stack(self):
        rng = _rng(22)
        net = Network()
        net.add("conv", Conv1D(2, 4, 3, rng=rng), "x")
        net.add("relu", Activation("relu"), "conv")
        net.add("pool", MaxPool1D(2), "relu")
        net.add("flat", Flatten(), "pool")
        net.add("out", Dense(16, 2, rng=rng), "flat")
        net = net.astype(np.float64)
        x = rng.normal(size=(3, 8, 2))
        target = rng.normal(size=(3, 2))
        rep = finite_diff_check(net, lambda v: _mse_loss(v, "out", target), x,
                                h=1e-5, max_entries=6, rng=_rng(0))
        assert rep["max_rel_err"] <= 1e-5, rep

    def test_batchnorm_train_mode(self):
        rng = _rng(23)
        net = Network()
        net.add("conv", Conv1D(1, 3, 3, rng=rng), "x")
        net.add("bn", BatchNorm1D(3), "conv")
        net.add("flat", Flatten(), "bn")
        net.add("out", Dense(18, 2, rng=rng), "flat")
        net = net.astype(np.float64)
        x = rng.normal(size=(5, 6, 1))
        target = rng.normal(size=(5, 2))
        rep = finite_diff_check(net, lambda v: _mse_loss(v, "out", target), x,
                                h=1e-5, max_entries=6)
        assert rep["max_rel_err"] <= 1e-5, rep

    def test_selu_softmax_head(self):
        rng = _rng(24)
        net = Network()
        net.add("flat", Flatten(), "x")
        net.add("fc1", Dense(6, 8, rng=rng), "flat")
        net.add("selu", Activation("selu"), "fc1")
        net.add("fc2", Dense(8, 4, rng=rng), "selu")
        net.add("probs", Activation("softmax"), "fc2")
        net = net.astype(np.float64)
        x = rng.normal(size=(4, 6, 1))
        C = rng.uniform(0.0, 2.0, size=(4, 4))  # arbitrary per-class costs

        def loss_fn(values):
            p = values["probs"]
            return float((p * C).sum() / len(p)), {"probs": C / len(p)}

        rep = finite_diff_check(net, loss_fn, x, h=1e-5, max_entries=6)
        assert rep["max_rel_err"] <= 1e-5, rep

    def test_dropout_with_frozen_mask(self):
        rng = _rng(25)
        net = Network()
        net.add("flat", Flatten(), "x")
        net.add("fc1", Dense(6, 10, rng=rng), "flat")
        net.add("drop", Dropout(0.4, seed=4), "fc1")
        net.add("out", Dense(10, 2, rng=rng), "drop")
        net = net.astype(np.float64)
        x = rng.normal(size=(4, 6, 1))
        target = rng.normal(size=(4, 2))
        rep = finite_diff_check(net, lambda v: _mse_loss(v, "out", target), x,
                                h=1e-5, max_entries=6)
        assert rep["max_rel_err"] <= 1e-5, rep

    def test_rejects_float32(self):
        net = Network()
        net.add("fc", Dense(3, 2), "x")
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(net, lambda v: _sum_loss(v, "fc"),
                              np.ones((2, 3)))


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

def _reference_adam_step(p, g, state, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    m, v, t = state
    t += 1
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    return p - lr * mhat / (np.sqrt(vhat) + eps), (m, v, t)


def _dense_net(n_in, n_out, seed, dtype=np.float64):
    net = Network()
    net.add("fc", Dense(n_in, n_out, rng=_rng(seed)).astype(dtype), "x")
    net.pack()
    return net


class TestAdam:
    def test_first_step_closed_form(self):
        net = _dense_net(1, 2, seed=30)
        p = net.flat_params.copy()
        opt = Adam([net], lr=0.1)
        g = np.array([0.3, -0.4, 0.0, 0.2])
        net.flat_grads[:] = g
        opt.step()
        want = p - 0.1 * g / (np.abs(g) + 1e-8)  # mhat=g, vhat=g^2 at t=1
        npt.assert_allclose(net.flat_params, want, rtol=1e-12)

    def test_matches_reference_over_steps(self):
        rng = _rng(31)
        net = _dense_net(3, 3, seed=31)
        p0 = net.flat_params.copy()
        opt = Adam([net], lr=5e-3)
        ref_p, state = p0.copy(), (np.zeros_like(p0), np.zeros_like(p0), 0)
        for step in range(5):
            g = rng.normal(size=p0.shape)
            net.flat_grads[:] = g
            opt.step()
            ref_p, state = _reference_adam_step(ref_p, g, state, lr=5e-3)
        npt.assert_allclose(net.flat_params, ref_p, rtol=1e-10)

    def test_zero_gradient_leaves_params(self):
        net = _dense_net(2, 2, seed=33)
        p = net.flat_params.copy()
        opt = Adam([net], lr=0.5)
        net.zero_grads()
        opt.step()
        npt.assert_array_equal(net.flat_params, p)
        assert opt.t == 1

    def test_matches_per_tensor_update_bit_for_bit(self):
        # one flat update per network gives every tensor of every network
        # the bits of a separate per-tensor update
        rng = _rng(32)
        conv = Network()
        conv.add("conv", Conv1D(2, 4, 3, rng=rng), "x")
        conv.add("bn", BatchNorm1D(4), "conv")
        conv.add("flat", Flatten(), "bn")
        conv.add("fc", Dense(24, 3, rng=rng), "flat")
        conv.pack()
        nets = [conv, _dense_net(5, 2, seed=34)]  # float32 and float64
        ref = [{k: v.copy() for k, v in net.named_params().items()}
               for net in nets]
        ref_m = [{k: np.zeros_like(v) for k, v in r.items()} for r in ref]
        ref_v = [{k: np.zeros_like(v) for k, v in r.items()} for r in ref]
        opt = Adam(nets, lr=1e-2)
        for t in range(1, 4):
            for net in nets:
                for g in net.named_grads().values():
                    g[...] = rng.normal(size=g.shape)
            opt.step()
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for net, r, rm, rv in zip(nets, ref, ref_m, ref_v):
                grads = net.named_grads()
                for k, p in r.items():
                    g, m, v = grads[k], rm[k], rv[k]
                    m += (1.0 - 0.9) * (g - m)
                    v += (1.0 - 0.999) * (g * g - v)
                    p -= (1e-2 * (m / c1) / (np.sqrt(v / c2) + 1e-8)).astype(p.dtype)
        for i, (net, r, rm) in enumerate(zip(nets, ref, ref_m)):
            assert opt.m[i].dtype == net.flat_params.dtype
            npt.assert_array_equal(
                opt.m[i], np.concatenate([v.ravel() for v in rm.values()]))
            for k, p in net.named_params().items():
                npt.assert_array_equal(p, r[k], err_msg=k)

    def test_updates_in_place_preserving_dtype(self):
        net = _dense_net(3, 1, seed=35, dtype=np.float32)
        flat, w = net.flat_params, net.get_layer("fc").params["w"]
        net.flat_grads.fill(1.0)
        Adam([net], lr=0.1).step()
        assert net.flat_params is flat and flat.dtype == np.float32
        assert net.get_layer("fc").params["w"] is w
        npt.assert_allclose(w, net.flat_params[:3].reshape(3, 1))


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

def _small_net(seed=41):
    rng = _rng(seed)
    net = Network()
    net.add("conv", Conv1D(2, 3, 3, rng=rng), "x")
    net.add("bn", BatchNorm1D(3), "conv")
    net.add("relu", Activation("relu"), "bn")
    net.add("flat", Flatten(), "relu")
    net.add("out", Dense(18, 2, rng=rng), "flat")
    net.pack()
    return net


class TestCheckpoint:
    def test_round_trip_preserves_forward(self):
        net = _small_net()
        x = _rng(0).normal(size=(3, 6, 2)).astype(np.float32)
        net.forward(x, train=True)  # move the BN running stats off init
        want = net.forward(x, train=False)["out"]
        loaded, meta = network_from_bytes(network_to_bytes(net, {"tag": 7}))
        got = loaded.forward(x, train=False)["out"]
        npt.assert_allclose(got, want, rtol=1e-6)
        assert meta == {"tag": 7}

    @pytest.mark.parametrize("build", [build_detection_network, build_block_network])
    def test_shipped_networks_reserialize_byte_identical(self, build):
        net = build(seed=5)
        # a training forward moves the BatchNorm running stats off init
        net.forward(_rng(1).normal(size=(4, 64, 2)).astype(np.float32), train=True)
        blob = network_to_bytes(net, {"N": 64})
        loaded, meta = network_from_bytes(blob)
        assert network_to_bytes(loaded, meta) == blob
        assert loaded.flat_params.tobytes() == net.flat_params.tobytes()
        for node in loaded.nodes:
            for key, val in node.layer.params.items():
                assert np.shares_memory(val, loaded.flat_params), (node.name, key)

    def test_shape_mismatch_raises(self):
        # a rebuilt fc1 of another width must not take the checkpoint's weights
        manifest, payload = _unpack(network_to_bytes(build_detection_network()))
        fc1 = next(n for n in manifest["nodes"] if n["name"] == "fc1")
        fc1["config"]["in_features"] = 256
        with pytest.raises(ValueError, match=r"tensor fc1.w has shape \[512, 128\], "
                                             r"the rebuilt layer \[256, 128\]"):
            network_from_bytes(_pack(manifest, payload))

    def test_truncated_payload_names_the_tensor(self):
        blob = network_to_bytes(_small_net())
        with pytest.raises(ValueError, match="payload ends inside tensor out.w"):
            network_from_bytes(blob[:-12])

    def test_omitted_tensor_names_it(self, tmp_path):
        # a manifest without out.b, and a payload without its bytes, must not
        # load out.b as zeros
        manifest, payload = _unpack(network_to_bytes(_small_net()))
        assert manifest["tensors"].pop() == {"node": "out", "key": "b",
                                             "kind": "param", "shape": [2]}
        path = tmp_path / "net.ckpt"
        path.write_bytes(_pack(manifest, payload[:-8]))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: tensor out.b missing from the manifest")):
            load_network(path)

    def test_trailing_payload_bytes_raise(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(network_to_bytes(_small_net()) + bytes(4))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: payload has 4 bytes after the last tensor")):
            load_network(path)

    def test_trailing_chain_bytes_raise(self, tmp_path):
        path = tmp_path / "est.ckpt"
        path.write_bytes(chain_to_bytes([_small_net()]) + bytes(8))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: payload has 8 bytes after the last block")):
            load_chain(path)

    def test_layers_without_rng_start_at_zero(self):
        # a checkpoint load rebuilds layers without drawing any weights
        for layer in (Conv1D(2, 3, 3), Dense(4, 5)):
            for val in layer.params.values():
                assert val.dtype == np.float32 and not val.any()

    def test_serialization_is_deterministic(self):
        net = _small_net()
        blob = network_to_bytes(net)
        assert blob == network_to_bytes(net)
        reloaded, _ = network_from_bytes(blob)
        assert network_to_bytes(reloaded) == blob

    def test_magic_and_version_checked(self):
        net = _small_net()
        blob = network_to_bytes(net)
        with pytest.raises(ValueError, match="magic"):
            network_from_bytes(b"XXXX" + blob[4:])
        bad_version = blob[:4] + (99).to_bytes(4, "little") + blob[8:]
        with pytest.raises(ValueError, match="version"):
            network_from_bytes(bad_version)

    def test_header_layout(self):
        blob = network_to_bytes(_small_net())
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_chain_round_trip(self):
        nets = [_small_net(s) for s in (1, 2, 3)]
        x = _rng(0).normal(size=(2, 6, 2)).astype(np.float32)
        blob = chain_to_bytes(nets, {"m": 3})
        loaded, meta = chain_from_bytes(blob)
        assert meta == {"m": 3}
        assert len(loaded) == 3
        for a, b in zip(nets, loaded):
            npt.assert_allclose(b.forward(x)["out"], a.forward(x)["out"],
                                rtol=1e-6)

    def test_network_chain_kind_mismatch(self):
        with pytest.raises(ValueError, match="chain"):
            chain_from_bytes(network_to_bytes(_small_net()))
        with pytest.raises(ValueError, match="network"):
            network_from_bytes(chain_to_bytes([_small_net()]))

    def test_save_load_file(self, tmp_path):
        net = _small_net()
        path = tmp_path / "net.ckpt"
        save_network(net, path, meta={"bits": 3})
        loaded, meta = load_network(path)
        assert meta["bits"] == 3
        npt.assert_allclose(loaded.get_layer("out").params["w"],
                            net.get_layer("out").params["w"], rtol=1e-6)

    def test_layer_registry_round_trip(self):
        for layer in (Conv1D(1, 2, 3), MaxPool1D(4), BatchNorm1D(2),
                      Dense(3, 4), Activation("selu"), Dropout(0.5, seed=8),
                      Flatten()):
            rebuilt = layer_from_config(layer.kind, layer.config())
            assert type(rebuilt) is type(layer)
            assert rebuilt.config() == layer.config()
