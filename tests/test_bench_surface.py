"""The names of the package that the benchmark under bench/ reaches.

The benchmark wraps the functions listed in bench/spans.py by getattr and
imports others by name in bench/run.py and bench/test_checks.py; a name
deleted from the package fails its run, so every one must resolve."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(modname: str, attr: str) -> bool:
    module = importlib.import_module(modname)
    if hasattr(module, attr):
        return True
    # `from qsine import losses` names a submodule of a package
    return (hasattr(module, "__path__")
            and importlib.util.find_spec(f"{modname}.{attr}") is not None)


def _imported_names(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "qsine"
            for alias in node.names]


def test_span_targets_resolve():
    spans = _spans()
    for modname, attr, *_ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    nn = importlib.import_module("qsine.nn")
    for kind in spans.LAYER_KINDS:
        assert hasattr(nn, kind), kind
    for kind, method in spans.MACS:
        assert hasattr(getattr(nn, kind), method), (kind, method)


@pytest.mark.parametrize("name", ["run.py", "test_checks.py"])
def test_imported_names_resolve(name):
    names = _imported_names(BENCH / name)
    assert names  # the parse found the imports
    for modname, attr in names:
        assert _resolves(modname, attr), f"bench/{name} imports {attr} from {modname}"


def test_detector_inference_forward_returns_probs():
    # bench/run.py _check_detector reads "probs" from an inference forward
    import numpy as np
    from qsine.signalnet import build_detection_network
    x = np.zeros((3, 64, 2), np.float32)
    probs = build_detection_network(N=64, M=5).forward(x, train=False)["probs"]
    assert probs.shape == (3, 5)
