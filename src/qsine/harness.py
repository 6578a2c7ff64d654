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
affinity set; the bytes do not depend on the worker count. Every flag is
checked once, by ``_check_flags``, before any work: a bad value exits 2 and
names its flag. Exit codes: 0 success, 1 usage error, 2 data/model error.

Each command imports the modules it runs when it runs: ``generate`` and
``--version`` load only signals, quantize and tones; ``eval`` loads
signalnet and nn only for a bundle. Names are looked up in their module at
call time, so a wrapper installed on a module attribute sees every call.
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
from .quantize import make_quantizer
from .signals import Dataset, GenConfig, load_dataset, make_dataset, save_dataset

EVAL_HEADER = ["algorithm", "bits", "m", "snr_db", "metric", "value",
               "n_trials", "seed"]
OOD_HEADER = EVAL_HEADER + ["freq_mode"]
# spellings of `generate --freq-mode` and of the `ood` CSV's freq_mode column,
# each with its GenConfig.freq_mode
FREQ_MODES = {"in_dist": "in_distribution", "ood": "ood_uniform"}
ALL_ALGORITHMS = ["nn_detect", "nn_est", "signalnet", "periodogram", "aic",
                  "mdl", "aic_periodogram"]
MODEL_ALGORITHMS = {"nn_detect", "nn_est", "signalnet"}  # need --bundle
PERIODOGRAM_ALGORITHMS = {"periodogram", "aic_periodogram"}  # read --nfft
EIGEN_ALGORITHMS = {"aic", "mdl", "aic_periodogram"}  # read --L

_TAG_EVAL = 3000
_TAG_OOD = 3100
# keeps the optimizer and shuffle streams disjoint from the data substreams
_TAG_TRAIN_LOOP = 4242

# frames drawn for training when --samples is not given
DETECTION_SAMPLES = 50_000
ESTIMATOR_SAMPLES = 100_000
# the SNR range of drawn SNRs (train, generate --snr-spread true) where
# --snr-min / --snr-max are not given
SPREAD_SNR_RANGE = (-10.0, 10.0)


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _cell_seed(*key: int) -> int:
    """Collapses a nonnegative integer key path into one 64-bit seed."""
    ss = np.random.SeedSequence([int(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


def _snr_key(snr: float) -> int:
    return int(round(snr * 1000)) + 10**6


def _snr_grid(args) -> list[float]:
    n = int(math.floor((args.snr_max - args.snr_min) / args.snr_step + 1e-9)) + 1
    return [round(args.snr_min + i * args.snr_step, 6) for i in range(n)]


def _bits_list(text: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--bits expects comma-separated integers, got {text!r}")
    if not vals:
        raise ValueError("--bits list is empty")
    return vals


def _spread_snr_range(args) -> tuple[float, float]:
    """--snr-min and --snr-max, each SPREAD_SNR_RANGE's bound when not
    given."""
    lo, hi = SPREAD_SNR_RANGE
    return (lo if args.snr_min is None else args.snr_min,
            hi if args.snr_max is None else args.snr_max)


# each flag's least value, by dest: the same in every command that has it
LEAST_VALUES = {"seed": 0, "m_max": 1, "frame_len": 2, "n": 1, "count": 1,
                "epochs": 0, "patience": 1, "samples": 1, "M": 1, "N": 2}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_flags(args) -> None:
    """Rejects, naming the flag, the first value in the order below that its
    command would refuse or leave unread; a rule on a flag that the command
    lacks, or left unset (None), passes. Runs before any work."""
    f = vars(args)
    for dest, low in LEAST_VALUES.items():
        if f.get(dest) is not None and f[dest] < low:
            raise ValueError(f"{_flag(dest)} must be >= {low}, got {f[dest]}")
    task, m, m_max, frame_len, data, lr, snr = (f.get(k) for k in (
        "task", "m", "m_max", "frame_len", "data", "lr", "snr"))
    snr_range = [d for d in ("snr_min", "snr_max") if f.get(d) is not None]
    frame_flags = ["samples"] * (f.get("samples") is not None) + snr_range
    lo, hi = _spread_snr_range(args) if "snr_min" in f else SPREAD_SNR_RANGE
    every = 4 if task == "estimator" else 16  # a chain's or the detector's N
    bits, algorithms = f.get("bits", [1]), f.get("algorithms", set())
    unknown = sorted(algorithms - set(ALL_ALGORITHMS))
    rules = [
        (task == "estimator" and m is None,
         "--m is required for --task estimator"),
        (task in ("detection", "bundle") and m is not None,
         f"--m does not apply with --task {task}: it covers every count up "
         f"to --m-max {m_max}"),
        (m is not None and not 1 <= m <= m_max,
         f"--m must be in [1, --m-max] = [1, {m_max}], got {m}"),
        *((data is not None, f"{_flag(d)} does not apply with --data: {data} "
           "fixes the frames") for d in frame_flags),
        (lr is not None and not (math.isfinite(lr) and lr > 0),
         f"--lr must be finite and > 0, got {lr}"),
        *((f.get("snr_spread") is False, f"{_flag(d)} applies only with "
           "--snr-spread true") for d in snr_range),
        (not f.get("snr_step", 1.0) > 0, "--snr-step must be positive"),
        *((not math.isfinite(f[d]), f"{_flag(d)} must be finite, got {f[d]}")
          for d in snr_range),
        (snr is not None and not (math.isfinite(snr) or snr == math.inf),
         f"--snr must be finite or +inf, got {snr}"),
        (hi < lo, f"--snr-max must be >= --snr-min, got {hi} < {lo}"),
        (task is not None and frame_len % every != 0, "--frame-len must be "
         f"divisible by {every} for --task {task}, got {frame_len}"),
        (args.command != "eval" and len(bits) != 1,
         f"{args.command} takes a single --bits value, got {bits}"),
        (min(bits) < 1,
         f"--bits must be >= 1, got {','.join(map(str, bits))!r}"),
        (bool(unknown), f"unknown algorithms in --algorithms: {unknown}"),
        (not f.get("bundle") and bool(MODEL_ALGORITHMS & algorithms),
         "model-based algorithms need --bundle <dir with signalnet.json>"),
    ]
    for bad, message in rules:
        if bad:
            raise ValueError(message)
    if (PERIODOGRAM_ALGORITHMS | EIGEN_ALGORITHMS) & algorithms:
        from . import classical  # only when a selected algorithm reads it

        if PERIODOGRAM_ALGORITHMS & algorithms:
            classical.check_nfft(args.nfft, args.frame_len)
        if EIGEN_ALGORITHMS & algorithms:
            classical.check_window(args.L, args.m_max, args.frame_len)


def _check_meta(path, meta: dict, flags: dict) -> None:
    """Rejects a dataset or model whose meta lacks a field or disagrees with
    the command's flags; flags maps a meta field to (flag, value)."""
    for field, (flag, value) in flags.items():
        if field not in meta:
            raise ValueError(f"{path}: no {field} to check against "
                             f"{flag} {value}")
        if meta[field] != value:
            raise ValueError(f"{path}: {field}={meta[field]} does not match "
                             f"{flag} {value}")


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # floats as repr, the shortest round-trip text
    return buf.getvalue()


def _write_csv(path: str, header: list[str], rows: list[tuple]):
    Path(path).write_text(_csv_text(header, rows))


def _db(value: float) -> float:
    return 10.0 * math.log10(max(value, 1e-300))


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


def _sweep(args, header: list[str], rows: list[tuple], cells: list[tuple]):
    """Adds the cells' rows to rows, writes them to --out sorted (so the
    bytes do not depend on cell order) and reports; returns exit code 0."""
    rows += [row for cell_rows in _map_cells(cells) for row in cell_rows]
    # the key's tail is ood's freq_mode column; eval rows end at the seed
    rows.sort(key=lambda r: (r[0], r[1], str(r[2]), r[3], r[4], *r[8:]))
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = GenConfig(
        N=args.frame_len, M=args.m_max, bits=args.bits_int, seed=args.seed,
        m_fixed=args.m, freq_mode=FREQ_MODES[args.freq_mode],
        snr_db=args.snr,
        snr_range=_spread_snr_range(args) if args.snr_spread else None,
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

def _train_config(args):
    """The TrainConfig of the flags; a flag not given keeps its default."""
    from .signalnet import TrainConfig

    cfg = TrainConfig(seed=_cell_seed(args.seed, _TAG_TRAIN_LOOP))
    for field in ("lr", "batch_size", "patience"):
        if getattr(args, field) is not None:
            setattr(cfg, field, getattr(args, field))
    if args.epochs is not None:
        cfg.detection_epochs = cfg.estimator_epochs = args.epochs
    return cfg


def _train_examples(args, m_fixed: int | None) -> Dataset:
    """Training frames: --data filtered to count m_fixed, or --samples fresh
    frames (default DETECTION_SAMPLES / ESTIMATOR_SAMPLES)."""
    if args.data is not None:
        meta, dataset = load_dataset(args.data)
        _check_meta(f"{args.data}.labels.csv", meta, {
            "N": ("--frame-len", args.frame_len), "M": ("--m-max", args.m_max),
            "bits": ("--bits", args.bits_int)})
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
                    snr_range=_spread_snr_range(args))
    return make_dataset(gen, count)


def _train_model(args, cfg, m: int | None):
    """Trains the count detector (m None) or the m-sinusoid chain; returns
    (model, history). The frames go unnamed, so training can free them."""
    from .signalnet import train_detection, train_estimator

    if m is None:
        return train_detection(_train_examples(args, m), cfg, M=args.m_max)
    return train_estimator(_train_examples(args, m), cfg)


def _write_log(path: str, history: list[dict]):
    rows = [(h["epoch"], float(h["train_loss"]), float(h["val_loss"]),
             float(h["lr"])) for h in history]
    _write_csv(path, ["epoch", "train_loss", "val_loss", "lr"], rows)


def cmd_train(args) -> int:
    from .signalnet import (SignalNetModel, save_estimator, save_network,
                            save_signalnet)

    cfg = _train_config(args)
    if args.task == "bundle":
        # every model trains before --out is made: a failed run writes nothing
        det, history = _train_model(args, cfg, None)
        logs = {"detection": history}
        estimators = {}
        for m in range(1, args.m_max + 1):
            estimators[m], logs[f"est_m{m}"] = _train_model(args, cfg, m)
        model = SignalNetModel(detection=det, estimators=estimators,
                               N=args.frame_len, M=args.m_max,
                               bits=args.bits_int)
        manifest = save_signalnet(model, args.out)  # makes --out
        for name, history in logs.items():
            _write_log(str(manifest.parent / f"train_{name}.log.csv"), history)
        print(f"wrote {manifest}")
        return 0
    net, history = _train_model(args, cfg, args.m)  # detection: --m unset
    if args.task == "detection":
        save_network(net, args.out,
                     meta={"task": "detection", "bits": args.bits_int,
                           "N": args.frame_len, "M": args.m_max})
    else:
        save_estimator(net, args.out, bits=args.bits_int)
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


def _estimate_rows(args, algo: str, bits: int, m: int, snr: float,
                   cell: Dataset, est, *tail) -> list[tuple]:
    """The metric rows of a count-m cell's estimates est = (A, F, P), each
    ending with tail; float32 network heads are scored in float64."""
    A, F, P = (np.asarray(h, dtype=np.float64) for h in est)
    At, Ft, Pt = cell.amps, cell.freqs, cell.phases
    metrics = (("freq_mse_db", _db(float(np.mean((F - Ft) ** 2)))),
               ("amp_mse_db", _db(float(np.mean((A - At) ** 2)))),
               ("phase_mse", float(np.mean((P - Pt) ** 2))),
               ("chamfer_norm", _chamfer_norm(cell, cell.counts, (A, F, P),
                                              args.frame_len)))
    return [(algo, bits, m, snr, metric, value, len(cell), args.seed, *tail)
            for metric, value in metrics]


def _chamfer_norm(cell: Dataset, est_counts, est, N: int) -> float:
    """Mean normalized Chamfer of a mixed-count cell against estimates with
    their own counts (est: padded (amps, freqs, phases) arrays, as in a
    Dataset), scored in one pass per (true count, estimated count) group."""
    from .losses import normalized_chamfer_batch
    from .thresholds import estimation_thresholds

    cham = np.empty(len(cell))
    truth = (cell.amps, cell.freqs, cell.phases)
    # the counts present: np.unique would import numpy.ma (7.5 ms a process)
    for m in np.flatnonzero(np.bincount(cell.counts)).tolist():
        thr = estimation_thresholds(m, N)
        of_m = cell.counts == m
        for k in np.flatnonzero(np.bincount(est_counts[of_m])).tolist():
            rows = np.flatnonzero(of_m & (est_counts == k))
            cham[rows] = normalized_chamfer_batch(
                tuple(a[rows, :m] for a in truth),
                tuple(a[rows, :k] for a in est), thr)
    return float(np.mean(cham))


def _threshold_rows(args, bits: int, snr: float) -> list[tuple]:
    from .thresholds import detection_threshold, estimation_thresholds

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
    grid = _snr_grid(args)
    # the modules the cells call are imported here, before the workers fork
    bundle = None
    if args.bundle:
        from .signalnet import load_signalnet

        bundle = load_signalnet(args.bundle)
        _check_meta(args.bundle, {"N": bundle.N},
                    {"N": ("--frame-len", args.frame_len)})
    rows: list[tuple] = []
    cells: list[tuple] = []
    for bits in args.bits:
        qspec = make_quantizer(bits)
        wanted = args.algorithms
        if MODEL_ALGORITHMS & wanted and bundle.bits != bits:
            print(f"note: skipping model-based algorithms at bits={bits} "
                  f"(bundle is for bits={bundle.bits})", file=sys.stderr)
            wanted = wanted - MODEL_ALGORITHMS
        for snr in grid:
            rows.extend(_threshold_rows(args, bits, snr))
            for m in range(1, args.m_max + 1):
                chain = bundle.estimators.get(m) if "nn_est" in wanted else None
                if "nn_est" in wanted and chain is None:
                    print(f"note: bundle lacks an m={m} estimator; skipping "
                          "nn_est", file=sys.stderr)
                cells.append((_eval_estimator_cell, (
                    args, bits, m, snr, qspec, chain, "periodogram" in wanted)))
            cells.append((_eval_joint_cell, (args, bits, snr, qspec, bundle,
                                             wanted)))
    return _sweep(args, EVAL_HEADER, rows, cells)


def _eval_estimator_cell(args, bits, m, snr, qspec, chain, periodogram):
    """Scores the count-m cell by the periodogram if asked and by the chain
    unless it is None; returns the rows."""
    if not periodogram and chain is None:
        return []
    cell = _cell_examples(args, bits, m, snr, _TAG_EVAL)
    rows = []
    if periodogram:
        from .classical import periodogram_estimates

        rows += _estimate_rows(args, "periodogram", bits, m, snr, cell,
                               periodogram_estimates(cell.x, m, qspec,
                                                     args.nfft))
    if chain is not None:
        from .signalnet import estimator_forward_batch

        rows += _estimate_rows(args, "nn_est", bits, m, snr, cell,
                               estimator_forward_batch(chain, cell.x))
    return rows


def _eval_joint_cell(args, bits, snr, qspec, bundle, wanted):
    """Scores the mixed-count cell; returns the rows."""
    from .losses import detection_loss

    if not wanted - {"periodogram", "nn_est"}:
        return []
    cell = _cell_examples(args, bits, 0, snr, _TAG_EVAL)

    def row(algo, metric, value):
        return (algo, bits, "joint", snr, metric, value, len(cell), args.seed)

    counts = {}  # each count-picking algorithm's count per frame
    if EIGEN_ALGORITHMS & wanted:
        from .classical import aic_mdl_counts

        counts["aic"], counts["mdl"] = aic_mdl_counts(cell.x, qspec, L=args.L,
                                                      Mmax=args.m_max)
    if {"nn_detect", "signalnet"} & wanted:
        from .signalnet import detect_count_batch

        # signalnet's count is the detector's: one forward serves both
        counts["nn_detect"] = counts["signalnet"] = detect_count_batch(
            bundle.detection, cell.x)
    rows = [row(algo, "detection_loss",
                float(np.mean(detection_loss(cell.counts, pred))))
            for algo, pred in counts.items() if algo in wanted]
    if "signalnet" in wanted:
        from .signalnet import estimate_by_count

        est = estimate_by_count(bundle, cell.x, counts["signalnet"])
        rows.append(row("signalnet", "chamfer_norm", _chamfer_norm(
            cell, counts["signalnet"], est, args.frame_len)))
    if "aic_periodogram" in wanted:
        from .classical import periodogram_estimates

        est = periodogram_estimates(cell.x, counts["aic"], qspec, args.nfft)
        rows.append(row("aic_periodogram", "chamfer_norm", _chamfer_norm(
            cell, counts["aic"], est, args.frame_len)))
    return rows


# --------------------------------------------------------------------------
# ood
# --------------------------------------------------------------------------

def cmd_ood(args) -> int:
    from .signalnet import load_estimator

    est, meta = load_estimator(args.est_ckpt)
    if est.m != args.m:
        raise ValueError(
            f"--m {args.m} does not match checkpoint (m={est.m})")
    _check_meta(args.est_ckpt, meta, {"N": ("--frame-len", args.frame_len),
                                      "bits": ("--bits", args.bits_int)})
    cells = [(_ood_cell, (args, est, snr, mode))
             for snr in _snr_grid(args) for mode in FREQ_MODES]
    return _sweep(args, OOD_HEADER, [], cells)


def _ood_cell(args, chain, snr, mode):
    """Scores the chain on one (snr, freq mode) cell; returns the rows."""
    from .signalnet import estimator_forward_batch

    bits, m = args.bits_int, args.m
    cell = _cell_examples(args, bits, m, snr, _TAG_OOD,
                          freq_mode=FREQ_MODES[mode])
    est = estimator_forward_batch(chain, cell.x)
    return _estimate_rows(args, "nn_est", bits, m, snr, cell, est, mode)


# --------------------------------------------------------------------------
# thresholds
# --------------------------------------------------------------------------

def cmd_thresholds(args) -> int:
    from .thresholds import (amplitude_threshold, detection_threshold,
                             frequency_threshold, mean_frequency_estimator,
                             phase_threshold)

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


def _add_sweep(p: _Parser):
    """The flags of the SNR-sweep commands, eval and ood."""
    p.add_argument("--snr-step", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=8000,
                   help="test frames per cell")


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
                   choices=list(FREQ_MODES))
    # the SNR-range flags apply only with --snr-spread true; None tells a
    # given flag from an unset one
    g.set_defaults(func=cmd_generate, snr_min=None, snr_max=None)

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
    # None keeps TrainConfig's default (see _train_config)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--patience", type=int, default=None)
    # None tells an SNR flag given alongside --data from an unset one
    t.set_defaults(func=cmd_train, snr_min=None, snr_max=None)

    e = sub.add_parser("eval", help="SNR sweep -> metrics CSV")
    _add_shared(e, bits_default="1,3")
    _add_sweep(e)
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
    _add_sweep(o)
    o.add_argument("--m", type=int, default=2)
    o.add_argument("--est-ckpt", required=True,
                   help="estimator chain checkpoint")
    o.set_defaults(func=cmd_ood)

    th = sub.add_parser("thresholds", help="print analytic thresholds CSV")
    th.add_argument("--M", type=int, default=5)
    th.add_argument("--N", type=int, default=64)
    th.add_argument("--out", default=None, help="also write the CSV here")
    th.set_defaults(func=cmd_thresholds)
    return parser


def _postprocess(args) -> None:
    if hasattr(args, "bits"):
        args.bits = _bits_list(args.bits)
        args.bits_int = args.bits[0]  # read by the one-value commands
    if hasattr(args, "snr_spread"):
        args.snr_spread = args.snr_spread == "true"
    if hasattr(args, "algorithms"):
        names = {a.strip() for a in args.algorithms.split(",") if a.strip()}
        # all: every algorithm that applies; the model-based need a bundle
        args.algorithms = names if args.algorithms != "all" else (
            set(ALL_ALGORITHMS) - (set() if args.bundle else MODEL_ALGORITHMS))


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
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["train"]:
            # imported before the parser is built: imported after the
            # arguments were parsed, signalnet left the heap laid out so that
            # `train --data` peaked about 0.3 MB higher (median of 30 runs)
            from . import signalnet  # noqa: F401
        args = build_parser().parse_args(argv)
        _postprocess(args)
        _check_flags(args)
        _set_heap_policy()
        # numpy.random imports secrets and so hashlib, whose OpenSSL backend
        # maps libcrypto (3.4 MB) into the process; qsine seeds every
        # generator and hashes nothing, so hashlib's builtin hashes serve
        sys.modules.setdefault("_hashlib", None)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"qsine: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
