"""Shared fixtures: desk-scale trained models, cached under tests/.model_cache.

The first fixture that needs a model trains every missing checkpoint the
suite uses, spread over worker processes (one per CPU, single-threaded
BLAS); later runs load checkpoints. Delete the cache directory to force
retraining.

A cache entry cannot go stale or be half-built:

* every checkpoint name encodes its training recipe and a digest of the
  source modules that fix the training bytes, so changing a budget below,
  or the code that trains, retrains only the affected models;
* the bundle directory is named after its component checkpoints, so it is
  rebuilt whenever any of them changes, and it counts as built only when
  every file its manifest names exists;
* every checkpoint and the bundle are written under a temporary name and
  moved into place with os.replace, so an interrupted run leaves nothing
  that a later run would trust.

At session start, every cache entry that the current recipes and sources
do not name (older digests, older bundles and their leftover temporaries)
is deleted.

`python -c "import sys; sys.path.insert(0, 'tests'); import conftest;
conftest.warm_all()"` pre-builds the cache outside pytest.
"""
import ast
import hashlib
import json
import multiprocessing
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# one BLAS thread per process: the suite's matrices are small, and a
# threaded BLAS that competes with another process for a core runs many
# times slower. This must precede the first numpy import; spawned training
# workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

import qsine
from qsine.harness import available_cpus
from qsine.nn.checkpoint import load_network, save_network
from qsine.signals import GenConfig, make_dataset
from qsine.signalnet import (
    SignalNetModel,
    TrainConfig,
    load_estimator,
    save_estimator,
    save_signalnet,
    train_detection,
    train_estimator,
)

CACHE = Path(__file__).resolve().parent / ".model_cache"

DET_SAMPLES = 50_000
DET_EPOCHS = 20
# detection training draws SNR from a wider spread than the evaluation
# sweep: count signatures keep sharpening above 10 dB, and the extra
# clean-regime exposure is what lets one model beat the eigenvalue
# criteria across the whole SNR >= 0 range
DET_SNR_RANGE = (-10.0, 20.0)
EST_SAMPLES = 20_000
EST_EPOCHS = 60  # early stopping usually ends far sooner

_DET_DATA_SEED = 910
_EST_DATA_SEED = {m: 920 + m for m in range(1, 6)}
_B1_DATA_SEED = 931
_TRAIN_SEED = 7


# modules whose code decides the bytes of a trained checkpoint; a test in
# test_signalnet.py checks that they cover every module signalnet imports
_TRAINING_SOURCES = ("nn/*.py", "signalnet.py", "signals.py", "quantize.py",
                     "losses.py", "thresholds.py", "tones.py")


def _source_digest() -> str:
    # hashes the parsed code, so comment-only edits keep the cache valid
    h = hashlib.sha256()
    root = Path(qsine.__file__).resolve().parent
    for pattern in _TRAINING_SOURCES:
        for path in sorted(root.glob(pattern)):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(ast.dump(ast.parse(path.read_text())).encode())
    return h.hexdigest()[:12]


_SRC = _source_digest()


def _det_path() -> Path:
    lo, hi = (int(v) for v in DET_SNR_RANGE)
    return (CACHE / f"det_b3_n{DET_SAMPLES}_e{DET_EPOCHS}_s{_TRAIN_SEED}"
            f"_snr{lo}_{hi}_{_SRC}.ckpt")


def _est_path(m: int, bits: int) -> Path:
    return (CACHE / f"est_m{m}_b{bits}_n{EST_SAMPLES}_e{EST_EPOCHS}"
            f"_s{_TRAIN_SEED}_{_SRC}.ckpt")


def _tmp_path(path: Path) -> Path:
    return path.with_name(f".tmp{os.getpid()}_{path.name}")


def _ensure_detection() -> Path:
    path = _det_path()
    if not path.exists():
        CACHE.mkdir(exist_ok=True)
        cfg = GenConfig(bits=3, seed=_DET_DATA_SEED, snr_range=DET_SNR_RANGE)
        tcfg = TrainConfig(seed=_TRAIN_SEED, detection_epochs=DET_EPOCHS)
        # passed unnamed, so training frees the float64 frames once it holds
        # its float32 copy
        net, _ = train_detection(make_dataset(cfg, DET_SAMPLES), tcfg)
        tmp = _tmp_path(path)
        save_network(net, tmp, meta={"task": "detection", "N": 64, "M": 5,
                                     "bits": 3})
        os.replace(tmp, path)
    return path


def _ensure_estimator(m: int, bits: int) -> Path:
    path = _est_path(m, bits)
    if not path.exists():
        CACHE.mkdir(exist_ok=True)
        data_seed = _EST_DATA_SEED[m] if bits == 3 else _B1_DATA_SEED
        cfg = GenConfig(bits=bits, seed=data_seed, m_fixed=m,
                        snr_range=(-10.0, 10.0))
        tcfg = TrainConfig(seed=_TRAIN_SEED, estimator_epochs=EST_EPOCHS)
        est, _ = train_estimator(make_dataset(cfg, EST_SAMPLES), tcfg)
        tmp = _tmp_path(path)
        save_estimator(est, tmp, bits=bits)
        os.replace(tmp, path)
    return path


def _bundle_complete(bundle_dir: Path) -> bool:
    try:
        manifest = json.loads((bundle_dir / "signalnet.json").read_text())
        names = [manifest["detection"], *manifest["estimators"].values()]
    except (OSError, ValueError, KeyError):
        return False
    return all((bundle_dir / name).is_file() for name in names)


def _bundle_path() -> Path:
    parts = [_det_path()] + [_est_path(m, 3) for m in range(1, 6)]
    key = hashlib.sha256("|".join(p.name for p in parts).encode())
    return CACHE / f"bundle_b3_{key.hexdigest()[:12]}"


def _ensure_bundle() -> Path:
    bundle_dir = _bundle_path()
    if not _bundle_complete(bundle_dir):
        det, _ = load_network(_ensure_detection())
        estimators = {}
        for m in range(1, 6):
            estimators[m], _ = load_estimator(_ensure_estimator(m, bits=3))
        model = SignalNetModel(detection=det, estimators=estimators,
                               N=64, M=5, bits=3)
        tmp = _tmp_path(bundle_dir)
        shutil.rmtree(tmp, ignore_errors=True)
        save_signalnet(model, tmp)
        shutil.rmtree(bundle_dir, ignore_errors=True)
        os.replace(tmp, bundle_dir)
    return bundle_dir


# every checkpoint the suite uses, longest training first so that the
# worker pool finishes close together
_SUITE_JOBS = (("est", 5, 3), ("det", 0, 3), ("est", 4, 3), ("est", 3, 3),
               ("est", 2, 3), ("est", 1, 1), ("est", 1, 3))


def _job_path(job) -> Path:
    kind, m, bits = job
    return _det_path() if kind == "det" else _est_path(m, bits)


def _build_job(job):
    kind, m, bits = job
    if kind == "det":
        _ensure_detection()
    else:
        _ensure_estimator(m, bits)


def _prune_cache():
    """Deletes every cache entry that is not a current suite checkpoint or
    the current bundle; temporaries of current names may belong to a
    running build and stay."""
    if not CACHE.is_dir():
        return
    keep = {_job_path(job).name for job in _SUITE_JOBS} | {_bundle_path().name}
    for entry in CACHE.iterdir():
        name = entry.name
        if name.startswith(".tmp"):
            name = name.split("_", 1)[-1]
        if name in keep:
            continue
        if entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)
        else:
            entry.unlink(missing_ok=True)


def _warm_suite():
    """Trains every missing checkpoint in _SUITE_JOBS, one spawned worker
    process per available CPU."""
    missing = [job for job in _SUITE_JOBS if not _job_path(job).exists()]
    if not missing:
        return
    ctx = multiprocessing.get_context("spawn")
    workers = min(len(missing), available_cpus())
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        list(pool.map(_build_job, missing))


def warm_all():
    _prune_cache()
    _warm_suite()
    _ensure_bundle()
    print("model cache is warm:", sorted(p.name for p in CACHE.iterdir()))


@pytest.fixture(scope="session", autouse=True)
def _pruned_cache():
    _prune_cache()


@pytest.fixture(scope="session")
def _model_cache():
    _warm_suite()


@pytest.fixture(scope="session")
def detection_net_b3(_model_cache):
    net, _ = load_network(_ensure_detection())
    return net


@pytest.fixture(scope="session")
def est_m1_b3(_model_cache):
    est, _ = load_estimator(_ensure_estimator(1, bits=3))
    return est


@pytest.fixture(scope="session")
def est_m2_b3(_model_cache):
    est, _ = load_estimator(_ensure_estimator(2, bits=3))
    return est


@pytest.fixture(scope="session")
def est_m2_b3_path(_model_cache):
    return _ensure_estimator(2, bits=3)


@pytest.fixture(scope="session")
def est_m1_b1(_model_cache):
    est, _ = load_estimator(_ensure_estimator(1, bits=1))
    return est


@pytest.fixture(scope="session")
def bundle_b3_dir(_model_cache):
    return _ensure_bundle()


if __name__ == "__main__":
    warm_all()
