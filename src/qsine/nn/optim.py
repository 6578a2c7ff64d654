"""Adam optimizer over the flat parameter buffers of networks."""
from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam over whole networks.

    With zero gradients a step leaves parameters untouched (the epsilon sits
    outside the square root, so 0/eps = 0).

    Each network keeps its parameters and gradients in two flat buffers
    (``flat_params``, ``flat_grads``) whose views its layers use, and the
    moments here are one flat pair per network. A step reads the gradients
    the last backward left there and writes the parameters in place, never
    replacing them: three vector operations per network, however many
    tensors it has. Every element sees the same operations as in a
    per-tensor update.
    """

    def __init__(self, nets, lr: float = 1e-3):
        self.nets = list(nets)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(net.flat_params) for net in self.nets]
        self.v = [np.zeros_like(net.flat_params) for net in self.nets]

    def step(self):
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for net, m, v in zip(self.nets, self.m, self.v):
            p, g = net.flat_params, net.flat_grads
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
