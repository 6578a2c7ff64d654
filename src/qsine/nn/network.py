"""Single-input DAG of named layers.

Nodes are added in topological order; each consumes the network input ("x")
or an earlier node's output, so fan-out (several nodes reading one tensor)
is allowed and the backward pass accumulates gradients at the shared source.

Nodes are added first, then ``pack()`` runs once. It lays all parameters out
in one flat buffer, ``flat_params``, and their gradients in another,
``flat_grads``: each layer's ``params[k]`` and ``grads[k]`` are views into
them, in node order, written in place and never replaced. It also records
each value's last reader: a forward drops every value once that reader has
run, and returns only the outputs, the nodes no node reads. A network with
nodes added since its last pack raises on any use.
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
        self._packing = None

    def add(self, name: str, layer: Layer, src: str = INPUT) -> str:
        """Appends a named layer reading from src ("x" or an earlier node)."""
        if name in self._names:
            raise ValueError(f"duplicate node name {name!r}")
        if src not in self._names:
            raise ValueError(f"unknown input {src!r} for node {name!r}")
        self.nodes.append(_Node(name, layer, src))
        self._names.add(name)
        self._packing = None
        return name

    def pack(self):
        """Copies every layer's parameters into new flat buffers and rebinds
        each params[k] and grads[k] to its view there; gradients restart at
        zero. Records, per node, the values whose last reader it is."""
        tensors = [(node.layer, key, val) for node in self.nodes
                   for key, val in node.layer.params.items()]
        dtypes = {val.dtype for *_, val in tensors} or {np.dtype(np.float32)}
        if len(dtypes) > 1:
            raise ValueError(f"parameters of mixed dtypes {sorted(map(str, dtypes))}")
        params = np.empty(sum(val.size for *_, val in tensors), dtypes.pop())
        grads = np.zeros_like(params)
        offset = 0
        for layer, key, val in tensors:
            end = offset + val.size
            params[offset:end] = val.ravel()
            layer.params[key] = params[offset:end].reshape(val.shape)
            layer.grads[key] = grads[offset:end].reshape(val.shape)
            offset = end
        last = {node.src: i for i, node in enumerate(self.nodes)}
        drops = [[v for v, i in last.items() if i == j] for j in range(len(self.nodes))]
        self._packing = params, grads, drops

    def _packed(self):
        """(params, grads, drops) of the last pack, if no node came since."""
        if self._packing is None or len(self._packing[2]) != len(self.nodes):
            raise RuntimeError("the network changed since its last pack(); "
                               "call pack() before using it")
        return self._packing

    flat_params = property(lambda self: self._packed()[0])
    flat_grads = property(lambda self: self._packed()[1])

    def forward(self, x: np.ndarray, train: bool = False) -> dict[str, np.ndarray]:
        """Returns the outputs by name; frees each value after its last reader."""
        values: dict[str, np.ndarray] = {INPUT: x}
        for node, drops in zip(self.nodes, self._packed()[2]):
            values[node.name] = node.layer.forward(values[node.src], train=train)
            for name in drops:
                del values[name]
        return values

    def backward(self, out_grads: dict[str, np.ndarray]) -> None:
        """Backpropagates from the given output gradients into the parameter
        grads. Nodes that neither receive an entry in out_grads nor feed one
        that does are skipped (their parameter grads stay zero); the nodes
        that read the input fill their parameter grads only.
        """
        self._packed()
        acc: dict[str, np.ndarray | None] = {n.name: None for n in self.nodes}
        for name, g in out_grads.items():
            if name not in acc:
                raise ValueError(f"unknown output node {name!r}")
            acc[name] = np.array(g, copy=True)
        for node in reversed(self.nodes):
            g = acc.pop(node.name)
            if g is None:
                continue
            if node.src == INPUT:
                node.layer.backward_params(g)
                continue
            dsrc = node.layer.backward(g)
            if acc[node.src] is None:
                acc[node.src] = dsrc
            else:
                acc[node.src] = acc[node.src] + dsrc

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
        """Deep copy with parameters and buffers cast to dtype."""
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
