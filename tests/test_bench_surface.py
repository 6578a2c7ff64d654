"""The names of the package that the benchmark under bench/ reaches, and
the package's own surface.

The benchmark wraps the functions listed in bench/spans.py by getattr and
imports others by name in bench/run.py and bench/test_checks.py; a name
deleted from the package fails its run, so every one must resolve. The
other way round, every public top-level name of src/qsine must be reached
by the package itself or by bench/: code that only tests call belongs
under tests/."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "qsine"


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


def test_spans_see_the_calls_of_lazily_imported_modules(tmp_path, capsys):
    # the harness imports signalnet only inside `train` and looks its names up
    # at call time, so the wrappers the tracer sets on module attributes
    # still record those calls
    from qsine.harness import main

    spans = _spans()
    tracer = spans.Tracer()
    wrappers = spans.Instrumented(tracer)
    try:
        base = str(tmp_path / "ds")
        assert main(["generate", "--count", "40", "--seed", "1", "--out", base]) == 0
        assert main(["train", "--task", "detection", "--data", base, "--epochs", "1",
                     "--out", str(tmp_path / "det.ckpt")]) == 0
    finally:
        wrappers.restore()
    for name in ("signals.make_dataset", "signals.save_dataset", "signals.load_dataset",
                 "signalnet.train_detection", "nn.checkpoint.save"):
        assert tracer.calls[name] == 1, name
    assert tracer.counts["signals.make_dataset.frames"] == 40
    assert tracer.calls["nn.Adam.step"] >= 1


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


def _references(tree: ast.AST) -> set[str]:
    """Every name a tree mentions: names, attributes, imported names and
    string constants (bench/spans.py lists its targets as strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_package_names_are_reached():
    # a public top-level def, class or assignment of src/qsine counts as
    # reached when another top-level statement of the package, or any file
    # under bench/, refers to it
    stmts = [(path, stmt) for path in sorted(PACKAGE.rglob("*.py"))
             for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    refs = [_references(stmt) for _, stmt in stmts]
    bench = set().union(*(_references(ast.parse(path.read_text()))
                          for path in sorted(BENCH.rglob("*.py"))))
    unreached = [f"{path.relative_to(PACKAGE)}: {name}"
                 for i, (path, stmt) in enumerate(stmts)
                 for name in _defined(stmt)
                 if not name.startswith("_") and name not in bench
                 and not any(name in r for j, r in enumerate(refs) if j != i)]
    assert not unreached, ("names only tests reach; move them under tests/ "
                           f"or delete them: {unreached}")
