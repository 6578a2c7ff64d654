"""Layers for the small numpy network engine.

Every layer follows the same contract: ``forward(x, train=True)`` caches
what the backward pass needs and returns the output, ``backward(dy)`` returns
the gradient w.r.t. the input and adds into ``self.grads`` (same keys as
``self.params``). An inference forward (``train=False``) computes only the
output and drops the cache, so a Network's inference memory is the live
activations of one row chunk, and a backward after it raises instead of
differentiating the last training batch. Parameters live in ``self.params``,
non-trained buffers (BatchNorm running stats) in ``self.state``. In a
Network, ``params`` and ``grads`` are views into its flat buffers, written in
place and never rebound. Layers are built float32; ``astype`` casts one
(float64 for gradient checks). ``config()`` + ``from_config()`` rebuild a
layer for the checkpoint format, with zero weights for the checkpoint to fill.
"""
from __future__ import annotations

import numpy as np

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

_REGISTRY: dict[str, type] = {}


def register(cls):
    _REGISTRY[cls.kind] = cls
    return cls


def layer_from_config(kind: str, cfg: dict):
    if kind not in _REGISTRY:
        raise ValueError(f"unknown layer kind {kind!r}")
    return _REGISTRY[kind].from_config(cfg)


def _fan_in_uniform(rng: np.random.Generator | None, shape, fan_in: int):
    """Fan-in uniform float32 weights; zeros without an rng (checkpoint loads)."""
    if rng is None:
        return np.zeros(shape, np.float32)
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Layer:
    kind = "layer"

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _saved(self):
        """The backward state the last forward kept; a RuntimeError if that
        forward ran in inference mode."""
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a forward with train=True "
                "first: the last forward ran with train=False and kept no "
                "backward state")
        return self._cache

    def backward_params(self, dy: np.ndarray) -> None:
        """Fills ``self.grads`` only, for a layer whose input needs no
        gradient; layers override it where that saves work."""
        self.backward(dy)

    def _init_params(self, **params):
        """Sets the parameters and zero gradients; a Network that adds the
        layer re-packs both into its flat buffers."""
        self.params = params
        self.grads = {k: np.zeros_like(v) for k, v in params.items()}

    def config(self) -> dict:
        return {}

    @classmethod
    def from_config(cls, cfg: dict):
        return cls(**cfg)

    def astype(self, dtype):
        self._init_params(**{k: v.astype(dtype) for k, v in self.params.items()})
        self.state = {k: v.astype(dtype) for k, v in self.state.items()}
        return self


@register
class Conv1D(Layer):
    """Stride-1 cross-correlation with TensorFlow-style 'same' zero padding.

    Input (B, L, Cin) -> output (B, L, Cout). Weight shape (k, Cin, Cout);
    pad split: left = (k-1)//2, right = k-1-left.
    """

    kind = "conv1d"

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self._init_params(
            w=_fan_in_uniform(rng, (kernel, in_channels, out_channels),
                              kernel * in_channels),
            b=np.zeros(out_channels, np.float32))

    def forward(self, x, train=False):
        k = self.kernel
        pl = (k - 1) // 2
        B, L, C = x.shape
        xp = np.zeros((B, L + k - 1, C), dtype=x.dtype)
        xp[:, pl : pl + L, :] = x
        self._cache = xp if train else None
        w = self.params["w"]
        out = np.empty((B, L, self.out_channels), dtype=x.dtype)
        out[...] = self.params["b"]
        for t in range(k):
            out += xp[:, t : t + L, :] @ w[t]
        return out

    def backward_params(self, dy):
        k = self.kernel
        xp = self._saved()
        L, cout = dy.shape[1:]
        self.grads["b"] += dy.sum(axis=(0, 1))
        # one product for all taps: rows t*Cin..(t+1)*Cin hold the (Cin, B*L)
        # window of tap t, laid out as a per-tap np.tensordot lays it out, so
        # each sum runs in the same order
        win = np.stack([xp[:, t : t + L, :] for t in range(k)])
        win = win.transpose(0, 3, 1, 2).reshape(k * xp.shape[2], -1)
        self.grads["w"] += (win @ dy.reshape(-1, cout)).reshape(self.params["w"].shape)

    def backward(self, dy):
        self.backward_params(dy)
        k = self.kernel
        L = dy.shape[1]
        w = self.params["w"]
        dxp = np.zeros_like(self._saved())
        for t in range(k):
            dxp[:, t : t + L, :] += dy @ w[t].T
        pl = (k - 1) // 2
        return dxp[:, pl : pl + L, :]

    def config(self):
        return {"in_channels": self.in_channels, "out_channels": self.out_channels,
                "kernel": self.kernel}


@register
class MaxPool1D(Layer):
    """Non-overlapping max pooling along the length axis; the pool size must
    divide the length."""

    kind = "maxpool1d"

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def forward(self, x, train=False):
        B, L, C = x.shape
        s = self.size
        if L % s:
            raise ValueError(f"maxpool size {s} does not divide length {L}")
        win = x.reshape(B, L // s, s, C)
        # running maximum over the window; in training, takes[j-1] marks
        # where slot j beat every earlier slot, so the gradient goes to the
        # first maximum (np.argmax's choice for NaN-free input)
        out = win[:, :, 0, :]
        takes = []
        for j in range(1, s):
            cand = win[:, :, j, :]
            if train:
                takes.append(cand > out)
            out = np.maximum(out, cand)
        self._cache = (takes, x.shape) if train else None
        return out.copy() if s == 1 else out

    def backward(self, dy):
        takes, shape = self._saved()
        B, L, C = shape
        s = self.size
        dxp = np.empty(shape, dtype=dy.dtype).reshape(B, L // s, s, C)
        # slot j holds the maximum where it was taken and no later slot was
        later = None
        for j in range(s - 1, 0, -1):
            take = takes[j - 1]
            won = take if later is None else take & ~later
            np.multiply(dy, won, out=dxp[:, :, j, :])
            later = take if later is None else later | take
        if later is None:
            dxp[:, :, 0, :] = dy
        else:
            np.multiply(dy, ~later, out=dxp[:, :, 0, :])
        return dxp.reshape(shape)

    def config(self):
        return {"size": self.size}


@register
class BatchNorm1D(Layer):
    """Per-channel batch normalization over all leading axes.

    Training uses biased batch statistics and updates running stats as
    running = momentum * running + (1 - momentum) * batch; inference
    normalizes with the running stats.
    """

    kind = "batchnorm1d"

    def __init__(self, channels: int, momentum: float = 0.99, eps: float = 1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self._init_params(gamma=np.ones(channels, np.float32),
                          beta=np.zeros(channels, np.float32))
        self.state = {"running_mean": np.zeros(channels, np.float32),
                      "running_var": np.ones(channels, np.float32)}

    def forward(self, x, train=False):
        axes = tuple(range(x.ndim - 1))
        if train:
            if x.shape[0] < 2:
                raise ValueError("BatchNorm1D needs batch size >= 2 in training mode")
            # x.mean and x.var with the mean and the centred x computed once:
            # the same sums, divided by the same count
            n = np.intp(x.size // x.shape[-1])
            mu = np.add.reduce(x, axis=axes, keepdims=True)
            np.true_divide(mu, n, out=mu, casting="unsafe")
            centred = x - mu
            var = np.add.reduce(np.square(centred), axis=axes)
            np.true_divide(var, n, out=var, casting="unsafe")
            mu = mu.reshape(-1)
            mom = self.momentum
            self.state["running_mean"] = (
                mom * self.state["running_mean"] + (1 - mom) * mu
            ).astype(self.state["running_mean"].dtype)
            self.state["running_var"] = (
                mom * self.state["running_var"] + (1 - mom) * var
            ).astype(self.state["running_var"].dtype)
        else:
            mu = self.state["running_mean"]
            var = self.state["running_var"]
            centred = x - mu
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = centred * inv_std
        self._cache = (xhat, inv_std, axes) if train else None
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dy):
        xhat, inv_std, axes = self._saved()
        gamma = self.params["gamma"]
        dbeta = dy.sum(axis=axes)
        dgamma = (dy * xhat).sum(axis=axes)
        self.grads["gamma"] += dgamma
        self.grads["beta"] += dbeta
        n = dy.size // dy.shape[-1]
        return gamma * inv_std * (dy - dbeta / n - xhat * dgamma / n)

    def config(self):
        return {"channels": self.channels, "momentum": self.momentum, "eps": self.eps}


@register
class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self._init_params(
            w=_fan_in_uniform(rng, (in_features, out_features), in_features),
            b=np.zeros(out_features, np.float32))

    def forward(self, x, train=False):
        self._cache = x if train else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy):
        self.grads["w"] += self._saved().T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["w"].T

    def config(self):
        return {"in_features": self.in_features, "out_features": self.out_features}


@register
class Activation(Layer):
    """Elementwise nonlinearity: relu, selu or softmax (last axis)."""

    kind = "activation"

    def __init__(self, fn: str = "relu"):
        super().__init__()
        if fn not in ("relu", "selu", "softmax"):
            raise ValueError(f"unknown activation {fn!r}")
        self.fn = fn

    def forward(self, x, train=False):
        if self.fn == "relu":
            self._cache = (x > 0) if train else None
            return np.maximum(x, 0)
        if self.fn == "selu":
            self._cache = x if train else None
            return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        self._cache = p if train else None
        return p

    def backward(self, dy):
        if self.fn == "relu":
            return dy * self._saved()  # the mask x > 0
        if self.fn == "selu":
            x = self._saved()
            return dy * SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x)).astype(dy.dtype)
        p = self._saved()  # softmax output
        return p * (dy - (dy * p).sum(axis=-1, keepdims=True))

    def config(self):
        return {"fn": self.fn}


@register
class Dropout(Layer):
    """Inverted dropout; identity at inference. Mask drawn from its own rng."""

    kind = "dropout"

    def __init__(self, rate: float, seed: int = 0):
        super().__init__()
        if not 0 <= rate < 1:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.random(x.shape) >= self.rate).astype(x.dtype)
        return x * self._mask / (1.0 - self.rate)

    def backward(self, dy):
        if self._mask is None:
            return dy
        return dy * self._mask / (1.0 - self.rate)

    def config(self):
        return {"rate": self.rate, "seed": self.seed}


@register
class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._shape)
