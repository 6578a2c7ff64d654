"""Single-input DAG of named layers.

Nodes are added in topological order; each consumes the network input ("x")
or an earlier node's output, so fan-out (several nodes reading one tensor)
is allowed and the backward pass accumulates gradients at the shared source.

All parameters of a network live in one flat buffer, ``flat_params``, and
their gradients in another, ``flat_grads``: each layer's ``params[k]`` and
``grads[k]`` are views into them, in node order. Parameters are written in
place, never replaced, so the gradient reset and the best-weights restore are
one vector operation each, and an optimizer step a few. Only building
(``add``), loading and ``astype`` re-pack the buffers.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .layers import Layer

INPUT = "x"


@dataclass
class _Node:
    name: str
    layer: Layer
    src: str


class Network:
    def __init__(self):
        self.nodes: list[_Node] = []
        self._names: set[str] = {INPUT}
        self.pack()

    def add(self, name: str, layer: Layer, src: str = INPUT) -> str:
        """Appends a named layer reading from src ("x" or an earlier node)."""
        if name in self._names:
            raise ValueError(f"duplicate node name {name!r}")
        if src not in self._names:
            raise ValueError(f"unknown input {src!r} for node {name!r}")
        self.nodes.append(_Node(name, layer, src))
        self._names.add(name)
        self.pack()
        return name

    def pack(self):
        """Copies every layer's parameters into new flat buffers and rebinds
        each params[k] and grads[k] to its view there; gradients restart at
        zero."""
        tensors = [(node.layer, key, val) for node in self.nodes
                   for key, val in node.layer.params.items()]
        dtypes = {val.dtype for *_, val in tensors} or {np.dtype(np.float32)}
        if len(dtypes) > 1:
            raise ValueError(f"parameters of mixed dtypes {sorted(map(str, dtypes))}")
        self.flat_params = np.empty(sum(val.size for *_, val in tensors), dtypes.pop())
        self.flat_grads = np.zeros_like(self.flat_params)
        offset = 0
        for layer, key, val in tensors:
            end = offset + val.size
            self.flat_params[offset:end] = val.ravel()
            layer.params[key] = self.flat_params[offset:end].reshape(val.shape)
            layer.grads[key] = self.flat_grads[offset:end].reshape(val.shape)
            offset = end

    def forward(self, x: np.ndarray, train: bool = False) -> dict[str, np.ndarray]:
        """Runs all nodes; returns every intermediate keyed by node name."""
        values: dict[str, np.ndarray] = {INPUT: x}
        for node in self.nodes:
            values[node.name] = node.layer.forward(values[node.src], train=train)
        return values

    def backward(self, out_grads: dict[str, np.ndarray],
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagates from the given output gradients; returns d loss / d x.

        Nodes that neither receive an entry in out_grads nor feed one that
        does are skipped (their parameter grads stay zero). With input_grad
        False the nodes that read the input fill their parameter grads only,
        and None is returned.
        """
        acc: dict[str, np.ndarray | None] = {n.name: None for n in self.nodes}
        acc[INPUT] = None
        for name, g in out_grads.items():
            if name not in acc or name == INPUT:
                raise ValueError(f"unknown output node {name!r}")
            acc[name] = np.array(g, copy=True)
        for node in reversed(self.nodes):
            g = acc[node.name]
            if g is None:
                continue
            if node.src == INPUT and not input_grad:
                node.layer.backward_params(g)
                continue
            dsrc = node.layer.backward(g)
            if acc[node.src] is None:
                acc[node.src] = dsrc
            else:
                acc[node.src] = acc[node.src] + dsrc
        if not input_grad:
            return None
        dx = acc[INPUT]
        if dx is None:
            raise ValueError("no gradient reached the network input")
        return dx

    # --- parameter plumbing -------------------------------------------------

    def named_params(self) -> dict[str, np.ndarray]:
        out = {}
        for node in self.nodes:
            for key, val in node.layer.params.items():
                out[f"{node.name}.{key}"] = val
        return out

    def named_grads(self) -> dict[str, np.ndarray]:
        out = {}
        for node in self.nodes:
            for key, val in node.layer.grads.items():
                out[f"{node.name}.{key}"] = val
        return out

    def get_layer(self, name: str) -> Layer:
        for node in self.nodes:
            if node.name == name:
                return node.layer
        raise KeyError(name)

    def zero_grads(self):
        self.flat_grads.fill(0)

    def astype(self, dtype) -> "Network":
        """Deep copy with parameters, buffers and layer dtype cast to dtype."""
        net = copy.deepcopy(self)
        for node in net.nodes:
            node.layer.astype(dtype)
        net.pack()
        return net

    def snapshot(self):
        """A copy of the parameters and of every layer's state buffers (for
        best-weight restore)."""
        return self.flat_params.copy(), [
            {key: val.copy() for key, val in node.layer.state.items()}
            for node in self.nodes]

    def restore(self, snap):
        params, states = snap
        self.flat_params[:] = params
        for node, state in zip(self.nodes, states):
            node.layer.state = {key: val.copy() for key, val in state.items()}
