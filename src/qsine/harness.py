"""Command-line front end: dataset generation, training, SNR-sweep evaluation.

Subcommands
-----------
* ``generate``   write a labeled dataset file pair
* ``train``      train a detection or estimator model, or a bundle of both
* ``eval``       SNR sweep of selected algorithms -> metrics CSV
* ``ood``        paired in-distribution / out-of-distribution estimator sweep
* ``thresholds`` print the analytic learning thresholds as CSV

Every command is a deterministic function of its flags and seed: test cells
draw from per-cell substreams, rows are sorted before writing, and floats are
serialized with repr, so reruns are byte-identical. ``eval`` and ``ood``
score their cells in forked worker processes, one per CPU of the process's
affinity set; the bytes do not depend on the worker count. Exit codes:
0 success, 1 usage error, 2 data/model error.
"""
from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise: the networks' matrices
# are too small to gain from threads, and a threaded BLAS that competes with
# another process for a core runs many times slower. This must precede the
# first numpy import, so it sits above the imports that pull numpy in.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import ctypes
import io
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (
    aic_mdl_counts,
    check_nfft,
    check_window,
    periodogram_estimates,
)
from .losses import LossVector, detection_loss, normalized_chamfer_batch
from .quantize import make_quantizer
from .signals import Dataset, GenConfig, load_dataset, make_dataset, save_dataset
from .signalnet import (
    TrainConfig,
    SignalNetModel,
    detect_count_batch,
    estimate_by_count,
    estimator_forward_batch,
    load_estimator,
    load_signalnet,
    save_estimator,
    save_network,
    save_signalnet,
    train_detection,
    train_estimator,
)
from .thresholds import (
    amplitude_threshold,
    detection_threshold,
    estimation_thresholds,
    frequency_threshold,
    mean_frequency_estimator,
    phase_threshold,
)

EVAL_HEADER = ["algorithm", "bits", "m", "snr_db", "metric", "value",
               "n_trials", "seed"]
OOD_HEADER = EVAL_HEADER + ["freq_mode"]
ALL_ALGORITHMS = ["nn_detect", "nn_est", "signalnet", "periodogram", "aic",
                  "mdl", "aic_periodogram"]
CLASSICAL_ALGORITHMS = ["periodogram", "aic", "mdl", "aic_periodogram"]
PERIODOGRAM_ALGORITHMS = {"periodogram", "aic_periodogram"}  # read --nfft
EIGEN_ALGORITHMS = {"aic", "mdl", "aic_periodogram"}  # read --L

_TAG_EVAL = 3000
_TAG_OOD = 3100
_TAG_TRAIN_LOOP = 4242

# frames drawn for training when --samples is not given
DETECTION_SAMPLES = 50_000
ESTIMATOR_SAMPLES = 100_000


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_config_file(path: str) -> dict[str, str]:
    lines = Path(path).read_text().splitlines()
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip().replace("_", "-")] = val.strip()
    return out


def _inject_config(argv: list[str]) -> list[str]:
    """Appends config-file entries as flags (explicit flags win)."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return argv
    present = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
    extra: list[str] = []
    for key, val in _parse_config_file(path).items():
        flag = "--" + key
        if flag not in present:
            extra.extend([flag, val])
    return argv + extra


def _cell_seed(*key: int) -> int:
    """Collapses a nonnegative integer key path into one 64-bit seed."""
    ss = np.random.SeedSequence([int(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


def _snr_key(snr: float) -> int:
    return int(round(snr * 1000)) + 10**6


def _snr_grid(args) -> list[float]:
    if args.snr_step <= 0:
        raise ValueError("--snr-step must be positive")
    if args.snr_max < args.snr_min:
        raise ValueError("--snr-max must be >= --snr-min")
    n = int(math.floor((args.snr_max - args.snr_min) / args.snr_step + 1e-9)) + 1
    return [round(args.snr_min + i * args.snr_step, 6) for i in range(n)]


def _bits_list(text: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--bits expects comma-separated integers, got {text!r}")
    if not vals:
        raise ValueError("--bits list is empty")
    if min(vals) < 1:
        raise ValueError(f"--bits must be >= 1, got {text!r}")
    return vals


def _check_sizes(args) -> None:
    """Rejects --n and --m-max values that no cell could be drawn with."""
    for flag in ("n", "m_max"):
        value = getattr(args, flag)
        if value < 1:
            raise ValueError(
                f"--{flag.replace('_', '-')} must be >= 1, got {value}")


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell_str(v) for v in row])
    return buf.getvalue()


def _write_csv(path: str, header: list[str], rows: list[tuple]):
    Path(path).write_text(_csv_text(header, rows))


def _cell_str(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _freq_mode(name: str) -> str:
    mapping = {"in_dist": "in_distribution", "in_distribution": "in_distribution",
               "ood": "ood_uniform", "ood_uniform": "ood_uniform"}
    if name not in mapping:
        raise ValueError(f"unknown freq mode {name!r}")
    return mapping[name]


def _db(value: float) -> float:
    return 10.0 * math.log10(max(value, 1e-300))


def _train_loop_seed(seed: int) -> int:
    # keep optimizer/shuffle streams disjoint from the data substreams
    return _cell_seed(seed, _TAG_TRAIN_LOOP)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_worker_cells: list[tuple] = []  # a pool worker's copy of its sweep's cells


def _init_worker(cells: list[tuple]) -> None:
    global _worker_cells
    _worker_cells = cells


def _run_cell(i: int):
    fn, cell_args = _worker_cells[i]
    return fn(*cell_args)


def _map_cells(cells: list[tuple]) -> list:
    """Returns [fn(*args) for fn, args in cells], one forked worker per CPU.

    Every cell is a pure function of its arguments, so the results do not
    depend on the worker count. Workers inherit the cells, with the loaded
    models in their arguments, and the heap policy through fork; only cell
    indices go out and results come back by pickle. Fork is safe here: by
    default the CLI runs one BLAS thread, and the executor starts its own
    thread only after forking the workers. A cell's exception is raised here, and a
    killed worker raises BrokenProcessPool (a RuntimeError). Either way the
    cells not yet handed to a worker are cancelled, and every worker is
    joined before this returns.
    """
    workers = min(available_cpus(), len(cells))
    if workers <= 1:
        return [fn(*cell_args) for fn, cell_args in cells]
    # imported here: about 25 ms of start-up that no other command needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(cells,))
    try:
        return list(pool.map(_run_cell, range(len(cells))))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = GenConfig(
        N=args.frame_len, M=args.m_max, bits=args.bits_int, seed=args.seed,
        m_fixed=args.m, freq_mode=_freq_mode(args.freq_mode),
        snr_db=args.snr,
        snr_range=(args.snr_min, args.snr_max) if args.snr_spread else None,
    )
    dataset = make_dataset(cfg, args.count)
    labels_path, samples_path = save_dataset(args.out, cfg, dataset)
    counts = np.bincount(dataset.counts, minlength=cfg.M + 1)
    mean_snr = float(np.mean(dataset.snr_db))
    print(f"wrote {labels_path} and {samples_path}")
    for m in range(1, cfg.M + 1):
        print(f"  m={m}: {int(counts[m])} examples")
    print(f"  mean snr_db: {mean_snr:.3f}")
    return 0


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def _train_config(args) -> TrainConfig:
    cfg = TrainConfig(seed=_train_loop_seed(args.seed))
    if args.lr is not None:
        cfg.lr = args.lr
    if args.batch_size is not None:
        cfg.batch_size = args.batch_size
    if args.val_fraction is not None:
        cfg.val_fraction = args.val_fraction
    if args.patience is not None:
        cfg.patience = args.patience
    if args.epochs is not None:
        cfg.detection_epochs = cfg.estimator_epochs = args.epochs
    return cfg


def _train_examples(args, m_fixed: int | None) -> Dataset:
    """Training frames: --data filtered to count m_fixed, or --samples fresh
    frames (default DETECTION_SAMPLES / ESTIMATOR_SAMPLES)."""
    if args.data is not None:
        _, dataset = load_dataset(args.data)
        if m_fixed is not None:
            dataset = dataset[dataset.counts == m_fixed]
            if not len(dataset):
                raise ValueError(
                    f"dataset {args.data} has no examples with m={m_fixed}")
        return dataset
    count = args.samples
    if count is None:
        count = DETECTION_SAMPLES if m_fixed is None else ESTIMATOR_SAMPLES
    gen = GenConfig(N=args.frame_len, M=args.m_max, bits=args.bits_int,
                    seed=args.seed, m_fixed=m_fixed,
                    snr_range=(args.snr_min, args.snr_max))
    return make_dataset(gen, count)


def _train_model(args, cfg: TrainConfig, m: int | None):
    """Trains the count detector (m None) or the m-sinusoid chain; returns
    (model, history)."""
    dataset = _train_examples(args, m)
    if m is None:
        return train_detection(dataset, cfg, M=args.m_max)
    return train_estimator(dataset, cfg, residual_mode=args.residual_mode)


def _write_log(path: str, history: list[dict]):
    rows = [(h["epoch"], float(h["train_loss"]), float(h["val_loss"]),
             float(h["lr"])) for h in history]
    _write_csv(path, ["epoch", "train_loss", "val_loss", "lr"], rows)


def cmd_train(args) -> int:
    cfg = _train_config(args)
    if args.task == "bundle":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        det, history = _train_model(args, cfg, None)
        _write_log(str(out / "train_detection.log.csv"), history)
        estimators = {}
        for m in range(1, args.m_max + 1):
            estimators[m], history = _train_model(args, cfg, m)
            _write_log(str(out / f"train_est_m{m}.log.csv"), history)
        model = SignalNetModel(detection=det, estimators=estimators,
                               N=args.frame_len, M=args.m_max,
                               bits=args.bits_int)
        print(f"wrote {save_signalnet(model, out)}")
        return 0
    if args.task == "detection":
        net, history = _train_model(args, cfg, None)
        save_network(net, args.out,
                     meta={"task": "detection", "bits": args.bits_int,
                           "N": args.frame_len, "M": args.m_max})
    else:
        if args.m is None:
            raise ValueError("--m is required for --task estimator")
        est, history = _train_model(args, cfg, args.m)
        save_estimator(est, args.out, bits=args.bits_int)
    _write_log(args.out + ".log.csv", history)
    print(f"wrote {args.out} ({len(history)} epochs trained)")
    return 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _cell_examples(args, bits: int, m_code: int, snr: float, tag: int,
                   freq_mode: str = "in_distribution") -> Dataset:
    mode_code = 0 if freq_mode == "in_distribution" else 1
    seed = _cell_seed(args.seed, tag, bits, m_code, _snr_key(snr), mode_code)
    gen = GenConfig(N=args.frame_len, M=args.m_max, bits=bits, seed=seed,
                    snr_db=snr, m_fixed=m_code if m_code else None,
                    freq_mode=freq_mode)
    return make_dataset(gen, args.n)


def _estimator_metrics(A, F, P, At, Ft, Pt, thr: LossVector):
    cham = normalized_chamfer_batch((At, Ft, Pt), (A, F, P), thr)
    return {
        "freq_mse_db": _db(float(np.mean((F - Ft) ** 2))),
        "amp_mse_db": _db(float(np.mean((A - At) ** 2))),
        "phase_mse": float(np.mean((P - Pt) ** 2)),
        "chamfer_norm": float(np.mean(cham)),
    }


def _chamfer_norm(cell: Dataset, est_counts, est, N: int) -> float:
    """Mean normalized Chamfer of a mixed-count cell against estimates with
    their own counts (est: padded (amps, freqs, phases) arrays, as in a
    Dataset), scored in one pass per (true count, estimated count) group."""
    cham = np.empty(len(cell))
    truth = (cell.amps, cell.freqs, cell.phases)
    for m in np.unique(cell.counts).tolist():
        thr = estimation_thresholds(m, N)
        of_m = cell.counts == m
        for k in np.unique(est_counts[of_m]).tolist():
            rows = np.flatnonzero(of_m & (est_counts == k))
            cham[rows] = normalized_chamfer_batch(
                tuple(a[rows, :m] for a in truth),
                tuple(a[rows, :k] for a in est), thr)
    return float(np.mean(cham))


def _threshold_rows(args, bits: int, snr: float) -> list[tuple]:
    rows = []
    for m in range(1, args.m_max + 1):
        thr = estimation_thresholds(m, args.frame_len)
        for metric, value in (("freq_mse_db", _db(thr.freq)),
                              ("amp_mse_db", _db(thr.amp)),
                              ("phase_mse", thr.phase)):
            rows.append(("threshold", bits, m, snr, metric, value, 1,
                         args.seed))
    det_loss = detection_threshold(args.m_max)[1]
    rows.append(("threshold", bits, "joint", snr, "detection_loss", det_loss,
                 1, args.seed))
    return rows


def cmd_eval(args) -> int:
    _check_sizes(args)
    grid = _snr_grid(args)
    bundle = load_signalnet(args.bundle) if args.bundle else None
    algorithms = _select_algorithms(args, bundle)
    if PERIODOGRAM_ALGORITHMS & set(algorithms):
        check_nfft(args.nfft, args.frame_len)
    if EIGEN_ALGORITHMS & set(algorithms):
        check_window(args.L, args.m_max, args.frame_len)
    rows: list[tuple] = []
    cells: list[tuple] = []
    for bits in args.bits:
        qspec = make_quantizer(bits)
        nn_ok = bundle is not None and bundle.bits == bits
        if not nn_ok and any(a.startswith("nn") or a == "signalnet"
                             for a in algorithms):
            print(f"note: skipping model-based algorithms at bits={bits} "
                  f"(bundle is for bits={bundle.bits if bundle else '-'})",
                  file=sys.stderr)
        nn_bundle = bundle if nn_ok else None
        for snr in grid:
            rows.extend(_threshold_rows(args, bits, snr))
            cells.extend((_eval_estimator_cell, (args, bits, m, snr, qspec,
                                                 nn_bundle, algorithms))
                         for m in range(1, args.m_max + 1))
            cells.append((_eval_joint_cell, (args, bits, snr, qspec,
                                             nn_bundle, algorithms)))
    rows.extend(_gather(_map_cells(cells)))
    rows.sort(key=lambda r: (r[0], r[1], str(r[2]), r[3], r[4]))
    _write_csv(args.out, EVAL_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _gather(results: list[tuple[list, list]]) -> list[tuple]:
    """Concatenates the cells' (rows, notes) results, printing the notes in
    cell order."""
    rows = []
    for cell_rows, notes in results:
        for note in notes:
            print(note, file=sys.stderr)
        rows.extend(cell_rows)
    return rows


def _select_algorithms(args, bundle) -> list[str]:
    if args.algorithms == "all":
        names = list(ALL_ALGORITHMS) if bundle else list(CLASSICAL_ALGORITHMS)
    else:
        names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        unknown = set(names) - set(ALL_ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if bundle is None and any(a.startswith("nn") or a == "signalnet"
                                  for a in names):
            raise ValueError(
                "model-based algorithms need --bundle <dir with signalnet.json>")
    return names


def _eval_estimator_cell(args, bits, m, snr, qspec, bundle, algorithms):
    """Scores the count-m cell; returns (rows, notes)."""
    rows, notes = [], []
    wanted = [a for a in ("periodogram", "nn_est") if a in algorithms]
    if not wanted:
        return rows, notes
    cell = _cell_examples(args, bits, m, snr, _TAG_EVAL)
    At, Ft, Pt = cell.amps, cell.freqs, cell.phases
    thr = estimation_thresholds(m, args.frame_len)
    n = len(cell)
    if "periodogram" in wanted:
        est_a, est_f, est_p = periodogram_estimates(cell.x, m, qspec,
                                                    args.nfft)
        for metric, value in _estimator_metrics(est_a, est_f, est_p,
                                                At, Ft, Pt, thr).items():
            rows.append(("periodogram", bits, m, snr, metric, value, n,
                         args.seed))
    if "nn_est" in wanted and bundle is not None:
        if m not in bundle.estimators:
            notes.append(f"note: bundle lacks an m={m} estimator; "
                         "skipping nn_est")
        else:
            A, F, P = estimator_forward_batch(bundle.estimators[m],
                                              cell.x.astype(np.float32))
            for metric, value in _estimator_metrics(
                    A.astype(np.float64), F.astype(np.float64),
                    P.astype(np.float64), At, Ft, Pt, thr).items():
                rows.append(("nn_est", bits, m, snr, metric, value, n,
                             args.seed))
    return rows, notes


def _eval_joint_cell(args, bits, snr, qspec, bundle, algorithms):
    """Scores the mixed-count cell; returns (rows, notes)."""
    rows = []
    wanted = [a for a in ("aic", "mdl", "nn_detect", "signalnet",
                          "aic_periodogram") if a in algorithms]
    if not wanted:
        return rows, []
    cell = _cell_examples(args, bits, 0, snr, _TAG_EVAL)
    X = cell.x.astype(np.float32)
    counts = cell.counts
    n = len(cell)
    classical_counts = {}
    if EIGEN_ALGORITHMS & set(wanted):
        classical_counts["aic"], classical_counts["mdl"] = aic_mdl_counts(
            cell.x, qspec, L=args.L, Mmax=args.m_max)
    for crit in ("aic", "mdl"):
        if crit in wanted:
            loss = float(np.mean(detection_loss(counts, classical_counts[crit])))
            rows.append((crit, bits, "joint", snr, "detection_loss", loss,
                         n, args.seed))
    if bundle is not None and {"nn_detect", "signalnet"} & set(wanted):
        # signalnet's count is the detector's: one forward serves both rows
        pred = detect_count_batch(bundle.detection, X)
        loss = float(np.mean(detection_loss(counts, pred)))
        for algo in ("nn_detect", "signalnet"):
            if algo in wanted:
                rows.append((algo, bits, "joint", snr, "detection_loss",
                             loss, n, args.seed))
        if "signalnet" in wanted:
            est = estimate_by_count(bundle, X, pred)
            rows.append(("signalnet", bits, "joint", snr, "chamfer_norm",
                         _chamfer_norm(cell, pred, est, args.frame_len), n,
                         args.seed))
    if "aic_periodogram" in wanted:
        pred = classical_counts["aic"]
        est = periodogram_estimates(cell.x, pred, qspec, args.nfft)
        rows.append(("aic_periodogram", bits, "joint", snr, "chamfer_norm",
                     _chamfer_norm(cell, pred, est, args.frame_len), n,
                     args.seed))
    return rows, []


# --------------------------------------------------------------------------
# ood
# --------------------------------------------------------------------------

def cmd_ood(args) -> int:
    _check_sizes(args)
    est, meta = load_estimator(args.est_ckpt)
    if est.m != args.m:
        raise ValueError(
            f"--m {args.m} does not match checkpoint (m={est.m})")
    cells = [(_ood_cell, (args, est, snr, mode, tag_name))
             for snr in _snr_grid(args)
             for mode, tag_name in (("in_distribution", "in_dist"),
                                    ("ood_uniform", "ood"))]
    rows = _gather(_map_cells(cells))
    rows.sort(key=lambda r: (r[0], r[1], str(r[2]), r[3], r[4], r[8]))
    _write_csv(args.out, OOD_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _ood_cell(args, est, snr, mode, tag_name):
    """Scores the chain on one (snr, freq mode) cell; returns (rows, notes)."""
    bits = args.bits_int
    cell = _cell_examples(args, bits, args.m, snr, _TAG_OOD, freq_mode=mode)
    A, F, P = estimator_forward_batch(est, cell.x.astype(np.float32))
    thr = estimation_thresholds(args.m, args.frame_len)
    metrics = _estimator_metrics(A.astype(np.float64), F.astype(np.float64),
                                 P.astype(np.float64), cell.amps, cell.freqs,
                                 cell.phases, thr)
    return [("nn_est", bits, args.m, snr, metric, value, len(cell), args.seed,
             tag_name) for metric, value in metrics.items()], []


# --------------------------------------------------------------------------
# thresholds
# --------------------------------------------------------------------------

def cmd_thresholds(args) -> int:
    M, N = args.M, args.N
    mhat, det = detection_threshold(M)
    amp_mean, amp_thr = amplitude_threshold()
    phase_mean, phase_thr = phase_threshold()
    rows: list[tuple] = [("detection", "", det, "", float(mhat))]
    for m in range(1, M + 1):
        thr = frequency_threshold(m, N)
        mean_vec = mean_frequency_estimator(m, N)
        rows.append(("frequency", m, thr, _db(thr),
                     ";".join(repr(float(v)) for v in mean_vec)))
    rows.append(("amplitude", "", amp_thr, _db(amp_thr), amp_mean))
    rows.append(("phase", "", phase_thr, "", phase_mean))
    text = _csv_text(["task", "m", "threshold", "threshold_db",
                      "constant_estimate"], rows)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_shared(p: _Parser, *, bits_default: str = "3"):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", default=bits_default,
                   help="quantizer bits (eval: comma list, default 1,3)")
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--frame-len", type=int, default=64)
    p.add_argument("--snr-min", type=float, default=-10.0)
    p.add_argument("--snr-max", type=float, default=10.0)
    p.add_argument("--snr-step", type=float, default=1.0)
    p.add_argument("--config", default=None,
                   help="line-oriented 'key = value' defaults file")


def build_parser() -> _Parser:
    parser = _Parser(prog="qsine",
                     description="quantized multi-sinusoid benchmark toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a labeled dataset")
    _add_shared(g)
    g.add_argument("--out", required=True, help="dataset base path")
    g.add_argument("--count", type=int, default=50_000)
    g.add_argument("--m", type=int, default=None,
                   help="fix the sinusoid count (default: uniform 1..m-max)")
    g.add_argument("--snr", type=float, default=10.0,
                   help="fixed SNR in dB (ignored with --snr-spread true)")
    g.add_argument("--snr-spread", default="false", choices=["true", "false"],
                   help="draw per-example SNR uniform in [snr-min, snr-max]")
    g.add_argument("--freq-mode", default="in_dist",
                   choices=["in_dist", "ood", "in_distribution", "ood_uniform"])
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train models")
    _add_shared(t)
    t.add_argument("--task", required=True,
                   choices=["detection", "estimator", "bundle"])
    t.add_argument("--out", required=True,
                   help="checkpoint path (directory for --task bundle)")
    t.add_argument("--data", default=None,
                   help="dataset base path (default: generate from flags)")
    t.add_argument("--m", type=int, default=None)
    t.add_argument("--samples", type=int, default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--val-fraction", type=float, default=None)
    t.add_argument("--patience", type=int, default=None)
    t.add_argument("--residual-mode", default="stop_gradient",
                   choices=["stop_gradient", "differentiable"])
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="SNR sweep -> metrics CSV")
    _add_shared(e, bits_default="1,3")
    e.add_argument("--out", required=True)
    e.add_argument("--n", type=int, default=8000,
                   help="test frames per (bits, m, snr) cell")
    e.add_argument("--algorithms", default="all",
                   help=f"comma list from {ALL_ALGORITHMS} (default: all "
                        "applicable)")
    e.add_argument("--bundle", default=None,
                   help="model bundle dir (signalnet.json) for nn algorithms")
    e.add_argument("--nfft", type=int, default=2**16)
    e.add_argument("--L", type=int, default=16,
                   help="covariance subvector length for aic/mdl")
    e.set_defaults(func=cmd_eval)

    o = sub.add_parser("ood", help="in-dist vs OOD estimator sweep")
    _add_shared(o)
    o.add_argument("--out", required=True)
    o.add_argument("--n", type=int, default=8000)
    o.add_argument("--m", type=int, default=2)
    o.add_argument("--est-ckpt", required=True,
                   help="estimator chain checkpoint")
    o.set_defaults(func=cmd_ood)

    th = sub.add_parser("thresholds", help="print analytic thresholds CSV")
    th.add_argument("--M", type=int, default=5)
    th.add_argument("--N", type=int, default=64)
    th.add_argument("--out", default=None, help="also write the CSV here")
    th.add_argument("--config", default=None)
    th.set_defaults(func=cmd_thresholds)
    return parser


def _postprocess(args) -> None:
    if hasattr(args, "bits"):
        vals = _bits_list(args.bits)
        if args.command == "eval":
            args.bits = vals
        else:
            if len(vals) != 1:
                raise ValueError(
                    f"{args.command} takes a single --bits value, got {vals}")
            args.bits_int = vals[0]
    if hasattr(args, "snr_spread"):
        args.snr_spread = args.snr_spread == "true"


# glibc's mallopt parameter codes (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_heap_policy() -> None:
    """Keeps freed work buffers in the process heap for reuse (glibc only).

    Each periodogram frame allocates about 1.9 MB of FFT buffers, and each
    network layer its activations. Under glibc's dynamic thresholds these
    are mapped and unmapped, or trimmed off the heap top, on every call, so
    every call faults its pages in afresh: about 480 minor faults per
    periodogram frame. Fixing both thresholds stops that; fixing either one
    alone does not. 32 MiB is the highest mmap threshold glibc's dynamic
    rule reaches on 64-bit, so nothing is mapped that the default would
    have kept on the heap; 64 MiB is the trim threshold that rule pairs
    with it. Smaller fixed values did worse: 2/4 MiB cured the FFT loop but
    mapped every nn inference chunk afresh, 2.6 times the faults of the
    default on `eval` of nn_detect,signalnet.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv)
        args = parser.parse_args(argv)
        _postprocess(args)
        _set_heap_policy()
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"qsine: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
