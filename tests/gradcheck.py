"""Central finite-difference verification of backprop gradients.

Run on a float64 copy of the network (``net.astype(np.float64)``); float32
rounding would swamp the h=1e-5 difference quotient.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from qsine.nn.layers import Dropout
from qsine.nn.network import Network

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
    differentiates; every forward restarts each dropout's generator from
    its state at the call, so all draw one mask and the loss is a
    deterministic function of the parameters.

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
    states = [d.rng.bit_generator.state for d in dropouts]

    def forward() -> dict[str, np.ndarray]:
        for d, state in zip(dropouts, states):
            d.rng.bit_generator.state = state
        return net.forward(x, train=True)

    net.zero_grads()
    _, out_grads = loss_fn(forward())
    net.backward(out_grads)
    analytic = {k: v.copy() for k, v in net.named_grads().items()}

    max_rel = 0.0
    worst = ""
    n_checked = 0
    for name, p in net.named_params().items():
        flat = p.reshape(-1)
        n_take = min(max_entries, flat.size)
        idx = rng.choice(flat.size, size=n_take, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = float(loss_fn(forward())[0])
            flat[i] = orig - h
            lm = float(loss_fn(forward())[0])
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = float(analytic[name].reshape(-1)[i])
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{i}]"
    return {"max_rel_err": max_rel, "worst_param": worst, "n_checked": n_checked}
