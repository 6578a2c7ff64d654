"""Central finite-difference verification of backprop gradients.

Run on a float64 copy of the network (``net.astype(np.float64)``); float32
rounding would swamp the h=1e-5 difference quotient.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .layers import Dropout
from .network import Network

LossFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


def finite_diff_check(
    net: Network,
    loss_fn: LossFn,
    x: np.ndarray,
    h: float = 1e-5,
    max_entries: int = 5,
    rng: np.random.Generator | None = None,
) -> dict:
    """Compares analytic parameter gradients against central differences.

    loss_fn maps the forward's outputs to (scalar loss, dict of output-node
    gradients). Checks up to max_entries randomly chosen entries per
    parameter tensor. Forwards run in training mode, the mode backward
    differentiates; dropout masks are frozen for the duration so the loss
    is a deterministic function of the parameters.

    Returns a report dict with max_rel_err, worst_param and n_checked.
    """
    for name, p in net.named_params().items():
        if p.dtype != np.float64:
            raise ValueError(
                f"finite_diff_check needs a float64 network ({name} is {p.dtype}); "
                "use net.astype(np.float64)"
            )
    x = np.asarray(x, dtype=np.float64)
    rng = rng if rng is not None else np.random.default_rng(0)

    dropouts = [n.layer for n in net.nodes if isinstance(n.layer, Dropout)]
    saved_flags = [d.cache_mask for d in dropouts]
    for d in dropouts:
        d.cache_mask = True
        d._mask = None

    try:
        net.zero_grads()
        values = net.forward(x, train=True)  # materializes dropout masks
        _, out_grads = loss_fn(values)
        net.backward(out_grads)
        analytic = {k: v.copy() for k, v in net.named_grads().items()}

        def loss_at() -> float:
            vals = net.forward(x, train=True)
            return float(loss_fn(vals)[0])

        max_rel = 0.0
        worst = ""
        n_checked = 0
        params = net.named_params()
        for name, p in params.items():
            flat = p.reshape(-1)
            n_take = min(max_entries, flat.size)
            idx = rng.choice(flat.size, size=n_take, replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_at()
                flat[i] = orig - h
                lm = loss_at()
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = float(analytic[name].reshape(-1)[i])
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                n_checked += 1
                if rel > max_rel:
                    max_rel = rel
                    worst = f"{name}[{i}]"
        return {"max_rel_err": max_rel, "worst_param": worst, "n_checked": n_checked}
    finally:
        for d, flag in zip(dropouts, saved_flags):
            d.cache_mask = flag
            d._mask = None
