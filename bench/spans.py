"""Span tracing of the qsine modules, from outside the package.

`Instrumented(tracer)` wraps the public functions of the qsine modules, the
forward/backward methods of each nn layer kind and the Network/Adam methods,
so that each call records a span (name, start, end, parent); `restore()`
puts the originals back. Module
functions are replaced wherever a qsine module holds a reference to them,
since the package imports them by name. Spans stay in memory and are written
out by `Tracer.write` at the end of the run. A span's self time is its
duration minus the part its child spans cover; calls run on one thread, so
child spans never overlap and that part is the sum of their durations.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[list] = []  # [span id, start, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        t = time.perf_counter()
        self.starts.append(t)
        self.ends.append(t)
        self._stack.append([sid, t, 0.0])

    def exit(self) -> None:
        t = time.perf_counter()
        sid, t0, covered = self._stack.pop()
        self.ends[sid] = t
        name = self.names[sid]
        self.self_s[name] += (t - t0) - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += t - t0

    def write(self, path) -> None:
        """Writes one CSV line per span: id, parent, name, start, end (s from
        the first span's start)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{parent},{name},{s - t0:.9f},{e - t0:.9f}\n")


def _wrap(tracer: Tracer, fn, name, after=None):
    """fn with a span around each call; `name` is a string or a function of
    (args, kwargs); `after(counts, args, kwargs, result)` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer.counts, args, kwargs, out)
        return out

    return wrapper


def _arg(args, kwargs, index: int, key: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _count(key: str, fn):
    def after(counts, args, kwargs, out):
        counts[key] += fn(args, kwargs, out)
    return after


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# (module, function, span name, counter update or None)
FUNCTIONS = [
    ("qsine.signals", "make_dataset", "signals.make_dataset",
     _count("signals.make_dataset.frames", lambda a, k, out: len(out))),
    ("qsine.signals", "save_dataset", "signals.save_dataset",
     _count("signals.dataset_bytes", lambda a, k, out: _file_bytes(*out))),
    ("qsine.signals", "load_dataset", "signals.load_dataset", None),
    ("qsine.quantize", "quantize", "quantize.quantize", None),
    ("qsine.quantize", "bussgang_linearize", "quantize.bussgang_linearize", None),
    ("qsine.classical", "classical_estimate", "classical.classical_estimate", None),
    ("qsine.classical", "zero_padded_dft", "classical.zero_padded_dft",
     _count("classical.dft_points", lambda a, k, out: out.nfft)),
    ("qsine.classical", "pick_peaks", "classical.pick_peaks", None),
    ("qsine.classical", "aic_mdl_detect", "classical.aic_mdl_detect", None),
    ("qsine.losses", "normalized_chamfer", "losses.normalized_chamfer", None),
    ("qsine.losses", "detection_loss", "losses.detection_loss", None),
    ("qsine.nn.checkpoint", "save_network", "nn.checkpoint.save",
     _count("nn.checkpoint.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 1, "path")))),
    ("qsine.nn.checkpoint", "save_chain", "nn.checkpoint.save",
     _count("nn.checkpoint.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 1, "path")))),
    ("qsine.nn.checkpoint", "load_network", "nn.checkpoint.load", None),
    ("qsine.nn.checkpoint", "load_chain", "nn.checkpoint.load", None),
    ("qsine.signalnet", "train_detection", "signalnet.train_detection",
     _count("signalnet.epochs", lambda a, k, out: len(out[1]))),
    ("qsine.signalnet", "train_estimator", "signalnet.train_estimator",
     _count("signalnet.epochs", lambda a, k, out: len(out[1]))),
    ("qsine.signalnet", "detection_batch_grads", "signalnet.detection_batch_grads",
     _count("signalnet.batches", lambda a, k, out: 1)),
    ("qsine.signalnet", "estimator_batch_grads", "signalnet.estimator_batch_grads",
     _count("signalnet.batches", lambda a, k, out: 1)),
    ("qsine.signalnet", "detect_count_batch", "signalnet.detect_count_batch", None),
    ("qsine.signalnet", "estimator_forward_batch", "signalnet.estimator_forward_batch", None),
    ("qsine.signalnet", "signalnet_infer_batch", "signalnet.signalnet_infer_batch", None),
]

LAYER_KINDS = ("Conv1D", "MaxPool1D", "BatchNorm1D", "Dense", "Activation", "Dropout", "Flatten")


def _conv_macs(layer, shape) -> int:
    B, L = shape[0], shape[1]
    return B * L * layer.in_channels * layer.out_channels * layer.kernel


# multiply-adds per call, from the argument's shape:
# (class, method) -> (counter, macs(layer, argument))
MACS = {
    ("Conv1D", "forward"): ("nn.forward.macs", lambda self, x: _conv_macs(self, x.shape)),
    # the weight gradient; Conv1D.backward adds the input gradient and calls
    # backward_params for the weight gradient
    ("Conv1D", "backward_params"): ("nn.backward.macs", lambda self, dy: _conv_macs(self, dy.shape)),
    ("Conv1D", "backward"): ("nn.backward.macs", lambda self, dy: _conv_macs(self, dy.shape)),
    ("Dense", "forward"): ("nn.forward.macs", lambda self, x: x.shape[0] * self.in_features * self.out_features),
    ("Dense", "backward"): ("nn.backward.macs", lambda self, dy: 2 * dy.shape[0] * self.in_features * self.out_features),
}


class Instrumented:
    """Installs the wrappers on construction; `restore()` removes them."""

    def __init__(self, tracer: Tracer):
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qsine" or n.startswith("qsine."))]
        for modname, attr, span, after in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = _wrap(tracer, orig, span, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

        nn = importlib.import_module("qsine.nn")
        for kind in LAYER_KINDS:
            cls = getattr(nn, kind)
            for meth in ("forward", "backward", "backward_params"):
                if meth not in vars(cls):
                    continue
                span = f"nn.{kind}.{'forward' if meth == 'forward' else 'backward'}"
                after = None
                if (kind, meth) in MACS:
                    key, f = MACS[(kind, meth)]
                    after = _count(key, lambda a, k, out, f=f: f(a[0], a[1]))
                self._set(cls, meth, _wrap(tracer, vars(cls)[meth], span, after))

        def forward_name(args, kwargs):
            return "nn.Network.forward." + ("train" if _arg(args, kwargs, 2, "train", False) else "infer")

        def forward_rows(counts, args, kwargs, out):
            counts[forward_name(args, kwargs) + ".rows"] += len(args[1])

        self._set(nn.Network, "forward", _wrap(tracer, nn.Network.forward, forward_name, forward_rows))
        self._set(nn.Network, "backward", _wrap(tracer, nn.Network.backward, "nn.Network.backward"))
        self._set(nn.Adam, "step", _wrap(tracer, nn.Adam.step, "nn.Adam.step"))

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# per-module metrics: name -> unit. "<span>.s" is the span's self time and
# "<span>.calls" its number of calls; the rest are counters.
PER_LAYER = {
    "signals.make_dataset.s": "s",
    "signals.make_dataset.frames": "frames",
    "signals.save_dataset.s": "s",
    "signals.load_dataset.s": "s",
    "signals.dataset_bytes": "bytes",
    "quantize.quantize.s": "s",
    "quantize.quantize.calls": "count",
    "quantize.bussgang_linearize.s": "s",
    "quantize.bussgang_linearize.calls": "count",
    "classical.classical_estimate.s": "s",
    "classical.classical_estimate.calls": "count",
    "classical.zero_padded_dft.s": "s",
    "classical.dft_points": "points",
    "classical.pick_peaks.s": "s",
    "classical.aic_mdl_detect.s": "s",
    "classical.aic_mdl_detect.calls": "count",
    "losses.normalized_chamfer.s": "s",
    "losses.normalized_chamfer.calls": "count",
    "losses.detection_loss.s": "s",
    "nn.Network.forward.train.s": "s",
    "nn.Network.forward.train.rows": "rows",
    "nn.Network.forward.infer.s": "s",
    "nn.Network.forward.infer.rows": "rows",
    "nn.Network.backward.s": "s",
    "nn.Network.backward.calls": "count",
    "nn.Adam.step.s": "s",
    "nn.Adam.step.calls": "count",
    **{f"nn.{kind}.{d}.s": "s" for kind in LAYER_KINDS for d in ("forward", "backward")},
    "nn.forward.macs": "MACs",
    "nn.backward.macs": "MACs",
    "nn.checkpoint.save.s": "s",
    "nn.checkpoint.load.s": "s",
    "nn.checkpoint.bytes": "bytes",
    "signalnet.train_detection.s": "s",
    "signalnet.train_estimator.s": "s",
    "signalnet.epochs": "count",
    "signalnet.batches": "count",
    "signalnet.detection_batch_grads.s": "s",
    "signalnet.estimator_batch_grads.s": "s",
    "signalnet.detect_count_batch.s": "s",
    "signalnet.estimator_forward_batch.s": "s",
    "signalnet.signalnet_infer_batch.s": "s",
    "harness.self.s": "s",
    "trace.overhead_s": "s",
}

# span name prefix of the benchmark's span around each in-process command
COMMAND_SPAN = "harness."


def per_layer_values(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER metrics from a tracer's spans and counters."""
    out = {}
    for name in PER_LAYER:
        if name == "harness.self.s":
            out[name] = sum(v for k, v in tracer.self_s.items() if k.startswith(COMMAND_SPAN))
        elif name == "trace.overhead_s":
            out[name] = overhead_s
        elif name.endswith(".s"):
            out[name] = tracer.self_s.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            out[name] = tracer.calls.get(name[:-6], 0)
        else:
            out[name] = tracer.counts.get(name, 0)
    return out
