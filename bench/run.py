#!/usr/bin/env python3
"""Benchmark of the qsine command-line tool.

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0

Runs one workload's `qsine` commands the way a user runs them: each command
in a fresh `python3 -m qsine.harness` process, with the caller's environment
(only PYTHONPATH gains the checkout's `src`, the program under test). The
benchmark sets no BLAS thread count. After the set-up it repeats whole rounds
of the workload's commands until --seconds have passed, checks every round's
outputs, and prints one JSON line: whether the outputs were correct, the
operations attempted and failed (one operation is one command or one check),
and the end-to-end metrics.

With --trace 1 it runs the set-up and one round in this process through
`qsine.harness.main` three times: untraced, with spans around the package's
functions (see spans.py), and untraced again. It prints the per-module
metrics of the traced pass instead. Spans go to `spans.csv` in the run
directory, `bench/runs/<workload>-seed<seed>-<pid>/`.
See bench/README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SNRS = [-10.0, -5.0, 0.0, 5.0, 10.0]
SNR_FLAGS = ["--snr-min", "-10", "--snr-max", "10", "--snr-step", "5"]
NFFT = 2**16  # the eval default, which the classical commands leave as is
COMMAND_TIMEOUT_S = 120

END_TO_END = {
    "cmd1_frames_per_s": "frames/s",
    "cmd2_frames_per_s": "frames/s",
    "cmd3_frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Command:
    argv: list[str]
    slot: str | None = None  # the end-to-end metric this command's throughput feeds
    frames: int = 0  # frames written, trained on (x epochs) or scored


def _s(*items) -> list[str]:
    return [str(i) for i in items]


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    name = ""
    setup_repeats = 5

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> list[Command]:
        """One set-up: a cold start of the CLI, which every command pays."""
        return [Command(["--version"])]

    def finish_setup(self) -> None:
        """Runs after the set-up's commands, before the timer stops."""

    def round(self) -> list[Command]:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, object]]:
        raise NotImplementedError


class Train(Workload):
    """Datasets written by `qsine generate`, then a detector and an m=3 chain
    trained from them with `qsine train --data` for a fixed epoch budget."""

    name = "train"
    MIX, M3, HELD = 1500, 1200, 1000  # frames per dataset
    DET_EPOCHS, EST_EPOCHS = 3, 4
    SPREAD = ["--snr-spread", "true", "--snr-min", "0", "--snr-max", "20"]

    def round(self):
        w, s = self.work, self.seed
        gen = ["generate", "--bits", "3"]
        train = ["train", "--bits", "3", "--batch-size", "8", "--seed", s]
        return [
            Command(_s(*gen, "--count", self.MIX, *self.SPREAD, "--seed", 3 * s, "--out", w / "mix"),
                    "cmd1_frames_per_s", self.MIX),
            Command(_s(*gen, "--count", self.M3, "--m", 3, *self.SPREAD, "--seed", 3 * s + 1,
                       "--out", w / "m3"), "cmd1_frames_per_s", self.M3),
            Command(_s(*gen, "--count", self.HELD, "--snr", 10, "--seed", 3 * s + 2, "--out", w / "held"),
                    "cmd1_frames_per_s", self.HELD),
            Command(_s(*train, "--task", "detection", "--data", w / "mix", "--epochs", self.DET_EPOCHS,
                       "--patience", self.DET_EPOCHS, "--lr", 0.002, "--out", w / "det.ckpt"),
                    "cmd2_frames_per_s", self.MIX * self.DET_EPOCHS),
            Command(_s(*train, "--task", "estimator", "--m", 3, "--data", w / "m3", "--epochs", self.EST_EPOCHS,
                       "--patience", self.EST_EPOCHS, "--lr", 0.003, "--out", w / "est_m3.ckpt"),
                    "cmd3_frames_per_s", self.M3 * self.EST_EPOCHS),
        ]

    def checks(self):
        import checks as C
        w = self.work
        out = []
        for base, count, kw in (("mix", self.MIX, {"snr_range": (0.0, 20.0)}),
                                ("m3", self.M3, {"snr_range": (0.0, 20.0), "m_fixed": 3}),
                                ("held", self.HELD, {"snr_range": (10.0, 10.0)})):
            out.append((f"{base} samples on the 3-bit levels",
                        lambda b=base, c=count: C.check_samples_on_levels(w / f"{b}.samples.f32", 3, c)))
            out.append((f"{base} label ranges",
                        lambda b=base, c=count, kw=kw: C.check_label_rows(w / f"{b}.labels.csv", c, **kw)))
        out.append(("detector log", lambda: C.check_training_log(w / "det.ckpt.log.csv", self.DET_EPOCHS)))
        out.append(("m=3 chain log", lambda: C.check_training_log(w / "est_m3.ckpt.log.csv", self.EST_EPOCHS)))
        out.append(("detector beats the best constant count", self._check_detector))
        out.append(("m=3 chain beats the per-index label variance", self._check_chain))
        return out

    def _held_out(self):
        import checks as C
        X = C.read_samples(self.work / "held.samples.f32")
        _, rows = C.read_labels(self.work / "held.labels.csv")
        return X, rows

    def _check_detector(self):
        import numpy as np
        import checks as C
        from qsine.nn.checkpoint import load_network
        X, rows = self._held_out()
        net, _ = load_network(self.work / "det.ckpt")
        probs = net.forward(X.astype(np.float32), train=False)["probs"].astype(np.float64)
        mhat = probs @ np.arange(1, probs.shape[1] + 1)  # the expected count it is trained on
        counts = [r[0] for r in rows]
        C.check_loss_below_constant(float(np.mean(C.detection_loss(counts, mhat))), counts,
                                    "detector on held-out SNR-10 frames")

    def _check_chain(self):
        import numpy as np
        import checks as C
        from qsine.signalnet import estimator_forward_batch, load_estimator
        X, rows = self._held_out()
        idx = [i for i, r in enumerate(rows) if r[0] == 3]
        est, _ = load_estimator(self.work / "est_m3.ckpt")
        _, F, _ = estimator_forward_batch(est, X[idx].astype(np.float32))
        Ft = np.array([rows[i][3] for i in idx])
        mse = float(np.mean((F.astype(np.float64) - Ft) ** 2))
        C.check_frequency_mse_below_variance(mse, Ft, f"{len(idx)} held-out SNR-10 m=3 frames")


def _cell_args(seed: int, n: int):
    return argparse.Namespace(seed=seed, frame_len=64, m_max=5, n=n)


@functools.lru_cache(maxsize=None)
def _cell(seed: int, n: int, bits: int, m: int, snr: float):
    """The first n frames of an eval cell (m = 0: the mixed-count cell), as
    `qsine eval --seed seed` draws them. Every round checks the same cells."""
    from qsine.harness import _TAG_EVAL, _cell_examples
    return _cell_examples(_cell_args(seed, n), bits, m, snr, _TAG_EVAL)


class EvalClassical(Workload):
    """`qsine eval` of the eigenvalue criteria and of the periodogram."""

    name = "eval-classical"
    N_AIC, N_PER = 200, 8  # frames per cell
    SAMPLE = 3  # frames per cell checked against the benchmark's own spectra

    def round(self):
        w, s = self.work, self.seed
        ev = ["eval", *SNR_FLAGS, "--seed", s]
        return [
            Command(_s(*ev, "--algorithms", "aic,mdl", "--bits", "1,3", "--n", self.N_AIC, "--out", w / "aic_mdl.csv"),
                    "cmd1_frames_per_s", 2 * len(SNRS) * self.N_AIC),
            *(Command(_s(*ev, "--algorithms", "periodogram,aic_periodogram", "--bits", b, "--n", self.N_PER,
                         "--out", w / f"periodogram_b{b}.csv"),
                      slot, len(SNRS) * 6 * self.N_PER)
              for b, slot in ((1, "cmd2_frames_per_s"), (3, "cmd3_frames_per_s"))),
        ]

    def checks(self):
        import checks as C
        w, s = self.work, self.seed
        csvs = [("aic_mdl.csv", ["aic", "mdl"], [1, 3], self.N_AIC),
                ("periodogram_b1.csv", ["periodogram", "aic_periodogram"], [1], self.N_PER),
                ("periodogram_b3.csv", ["periodogram", "aic_periodogram"], [3], self.N_PER)]
        out = []
        for name, algs, bits, n in csvs:
            out.append((f"{name} rows", lambda name=name, algs=algs, bits=bits, n=n: C.check_csv_complete(
                C.read_csv(w / name), C.expected_eval_keys(algs, bits, SNRS), n, s, name)))
            out.append((f"{name} threshold rows", lambda name=name: C.check_threshold_rows(C.read_csv(w / name))))
        out.append(("AIC/MDL counts from singular values", self._check_counts))
        for b in (1, 3):
            out.append((f"{b}-bit periodogram picks against a direct DTFT", lambda b=b: self._check_picks(b)))
        out.append(("3-bit m=1 periodogram frequency MSE at SNR 10", self._check_m1_mse))
        return out

    def _check_counts(self):
        import checks as C
        from qsine.classical import aic_mdl_detect
        from qsine.quantize import make_quantizer
        for bits in (1, 3):
            for snr in SNRS:
                for i, ex in enumerate(_cell(self.seed, self.SAMPLE, bits, 0, snr)):
                    for crit in ("aic", "mdl"):
                        count = aic_mdl_detect(ex.x, criterion=crit, qspec=make_quantizer(bits), L=16, Mmax=5)
                        C.check_aic_mdl_count(ex.x, bits, crit, count, f"{bits}-bit SNR {snr} frame {i}")

    def _check_picks(self, bits: int):
        import checks as C
        from qsine.classical import aic_mdl_detect, classical_estimate
        from qsine.quantize import make_quantizer
        q = make_quantizer(bits)
        for snr in SNRS:
            cells = [(m, m, _cell(self.seed, self.SAMPLE, bits, m, snr)) for m in range(1, 6)]
            joint = _cell(self.seed, self.SAMPLE, bits, 0, snr)
            cells.append(("joint", None, joint))
            for label, m, examples in cells:
                for i, ex in enumerate(examples):
                    k = m if m is not None else aic_mdl_detect(ex.x, criterion="aic", qspec=q, L=16, Mmax=5)
                    est = classical_estimate(ex.x, k, qspec=q, nfft=NFFT)
                    C.check_periodogram_picks(ex.x, bits, k, est.freqs, est.amps, est.phases, NFFT,
                                              f"{bits}-bit m={label} SNR {snr} frame {i}")

    def _check_m1_mse(self):
        import checks as C
        rows = C.read_csv(self.work / "periodogram_b3.csv")
        mse = C.db_to_linear(C.csv_value(rows, "periodogram", 3, 1, 10.0, "freq_mse_db"))
        C.require(mse < 1.0 / 192.0, f"3-bit m=1 SNR-10 periodogram frequency MSE {mse} not below 1/192")


class EvalNN(Workload):
    """A small 3-bit bundle built from a fixed recipe (the set-up), then
    `qsine eval --bundle` and `qsine ood` on it."""

    name = "eval-nn"
    setup_repeats = 3
    N = 300  # frames per cell
    SAMPLE = 16  # frames per cell run one at a time against the batched pipeline
    # each model is trained by its own --task detection / --task estimator
    # command with explicit budgets and seed, so the bundle does not depend
    # on the defaults of --task bundle
    RECIPE = ["--bits", "3", "--batch-size", "8", "--snr-min", "0", "--snr-max", "20", "--seed", "7"]
    DET = ["--samples", "1500", "--epochs", "3", "--patience", "3", "--lr", "0.002"]
    EST = ["--samples", "1000", "--epochs", "3", "--patience", "3", "--lr", "0.003"]

    @property
    def bundle(self) -> Path:
        return self.work / "bundle"

    def setup(self):
        shutil.rmtree(self.bundle, ignore_errors=True)
        self.bundle.mkdir(parents=True)
        b = self.bundle
        cmds = [Command(_s("train", "--task", "detection", *self.RECIPE, *self.DET, "--out", b / "detection.ckpt"))]
        for m in range(1, 6):
            cmds.append(Command(_s("train", "--task", "estimator", "--m", m, *self.RECIPE, *self.EST,
                                   "--out", b / f"est_m{m}.ckpt")))
        return cmds

    def finish_setup(self):
        manifest = {"N": 64, "M": 5, "bits": 3, "detection": "detection.ckpt",
                    "estimators": {str(m): f"est_m{m}.ckpt" for m in range(1, 6)}}
        (self.bundle / "signalnet.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")

    def round(self):
        w, s, n = self.work, self.seed, self.N
        ev = ["eval", "--bundle", self.bundle, "--bits", "3", *SNR_FLAGS, "--n", n, "--seed", s]
        return [
            Command(_s(*ev, "--algorithms", "nn_est", "--out", w / "nn_est.csv"),
                    "cmd1_frames_per_s", len(SNRS) * 5 * n),
            Command(_s(*ev, "--algorithms", "nn_detect,signalnet", "--out", w / "nn_joint.csv"),
                    "cmd2_frames_per_s", len(SNRS) * n),
            Command(_s("ood", "--est-ckpt", self.bundle / "est_m2.ckpt", "--m", 2, "--bits", 3, *SNR_FLAGS,
                       "--n", n, "--seed", s, "--out", w / "ood.csv"),
                    "cmd3_frames_per_s", len(SNRS) * 2 * n),
        ]

    def checks(self):
        import checks as C
        w, s, n = self.work, self.seed, self.N
        return [
            ("nn_est.csv rows", lambda: C.check_csv_complete(
                C.read_csv(w / "nn_est.csv"), C.expected_eval_keys(["nn_est"], [3], SNRS), n, s, "nn_est.csv")),
            ("nn_joint.csv rows", lambda: C.check_csv_complete(
                C.read_csv(w / "nn_joint.csv"), C.expected_eval_keys(["nn_detect", "signalnet"], [3], SNRS),
                n, s, "nn_joint.csv")),
            ("ood.csv rows", lambda: C.check_csv_complete(
                C.read_csv(w / "ood.csv"), C.expected_ood_keys(3, 2, SNRS), n, s, "ood.csv")),
            ("threshold rows", lambda: [C.check_threshold_rows(C.read_csv(w / f))
                                        for f in ("nn_est.csv", "nn_joint.csv")]),
            ("nn_est beats the per-index label variance at SNR 10", self._check_nn_est),
            ("nn_detect beats the best constant count at SNR 10", self._check_nn_detect),
            ("one-frame and batched inference agree", self._check_infer),
            ("signalnet chamfer_norm at SNR 10", self._check_chamfer),
        ]

    def _check_nn_est(self):
        import numpy as np
        import checks as C
        rows = C.read_csv(self.work / "nn_est.csv")
        for m in range(1, 6):
            mse = C.db_to_linear(C.csv_value(rows, "nn_est", 3, m, 10.0, "freq_mse_db"))
            Ft = np.array([ex.label.freqs for ex in _cell(self.seed, self.N, 3, m, 10.0)])
            C.check_frequency_mse_below_variance(mse, Ft, f"nn_est m={m} SNR 10")

    def _check_nn_detect(self):
        import checks as C
        loss = C.csv_value(C.read_csv(self.work / "nn_joint.csv"), "nn_detect", 3, "joint", 10.0, "detection_loss")
        C.check_loss_below_constant(loss, [ex.label.m for ex in _cell(self.seed, self.N, 3, 0, 10.0)],
                                    "nn_detect at SNR 10")

    def _check_infer(self):
        import numpy as np
        import checks as C
        from qsine.signalnet import load_signalnet, signalnet_infer, signalnet_infer_batch
        model = load_signalnet(self.bundle)
        for snr in (-10.0, 10.0):
            X = np.stack([ex.x for ex in _cell(self.seed, self.SAMPLE, 3, 0, snr)]).astype(np.float32)
            single = []
            for x in X:
                c, p = signalnet_infer(model, x)
                single.append((c, (p.amps, p.freqs, p.phases)))
            counts, sets = signalnet_infer_batch(model, X)
            C.check_same_inference(single, counts, [(p.amps, p.freqs, p.phases) for p in sets], f"SNR {snr}")

    def _check_chamfer(self):
        import numpy as np
        import checks as C
        from qsine.signalnet import load_signalnet, signalnet_infer_batch
        value = C.csv_value(C.read_csv(self.work / "nn_joint.csv"), "signalnet", 3, "joint", 10.0, "chamfer_norm")
        examples = _cell(self.seed, self.N, 3, 0, 10.0)
        X = np.stack([ex.x for ex in examples]).astype(np.float32)
        _, sets = signalnet_infer_batch(load_signalnet(self.bundle), X)
        truths = [(ex.label.amps, ex.label.freqs, ex.label.phases) for ex in examples]
        C.check_chamfer_mean(value, truths, [(p.amps, p.freqs, p.phases) for p in sets], "signalnet SNR 10")


WORKLOADS = {w.name: w for w in (Train, EvalClassical, EvalNN)}


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

class Ops:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}: {detail}", file=sys.stderr)


def run_checks(workload: Workload, ops: Ops) -> None:
    import checks as C
    for what, fn in workload.checks():
        try:
            fn()
            ops.record(True, what)
        except C.CheckFailed as exc:
            ops.record(False, what, str(exc))
        except Exception as exc:  # a missing or unreadable output fails its check
            ops.record(False, what, f"{type(exc).__name__}: {exc}")


class Subprocesses:
    """Runs commands as `python3 -m qsine.harness ...` in fresh processes,
    spawned by launch.py, which is started before this process grows."""

    def __init__(self, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.log = log
        self.peak_rss_kb = 0
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env, text=True,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, cmd: Command, ops: Ops) -> tuple[bool, float]:
        """Returns whether the command exited 0, and its wall time in s."""
        with open(self.log, "a") as log:
            log.write(f"$ qsine {' '.join(cmd.argv)}\n")
        req = {"argv": [sys.executable, "-m", "qsine.harness", *cmd.argv], "log": str(self.log),
               "timeout_s": COMMAND_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.peak_rss_kb = reply["peak_rss_kb"]
        rc = reply["rc"]
        ops.record(rc == 0, f"qsine {cmd.argv[0]}", f"exit {'timeout' if rc is None else rc}, see {self.log}")
        return rc == 0, reply["wall_s"]

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()


def untraced(workload: Workload, seconds: float, log: Path) -> tuple[Ops, dict]:
    ops = Ops()
    runner = Subprocesses(log)
    setups = []
    per_round: dict[str, list[float]] = {k: [] for k in END_TO_END if k.startswith("cmd")}
    try:
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            for cmd in workload.setup():
                runner.run(cmd, ops)
            workload.finish_setup()
            setups.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        while not per_round["cmd1_frames_per_s"] or time.perf_counter() - t0 < seconds:
            frames = dict.fromkeys(per_round, 0)
            walls = dict.fromkeys(per_round, 0.0)
            for cmd in workload.round():
                ok, wall = runner.run(cmd, ops)
                if ok:
                    frames[cmd.slot] += cmd.frames
                    walls[cmd.slot] += wall
            for slot in per_round:
                per_round[slot].append(frames[slot] / walls[slot] if walls[slot] else 0.0)
            run_checks(workload, ops)
    finally:
        runner.close()

    for slot, v in per_round.items():
        print(f"bench: {slot} per round: {', '.join(f'{x:.1f}' for x in v)}", file=sys.stderr)
    metrics = {slot: statistics.median(v) for slot, v in per_round.items()}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = runner.peak_rss_kb / 1024.0
    return ops, metrics


def traced(workload: Workload, log: Path, spans_path: Path) -> tuple[Ops, dict]:
    from qsine.harness import main
    import spans

    ops = Ops()

    def run(cmd: Command, tracer) -> float:
        with open(log, "a") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.enter(spans.COMMAND_SPAN + cmd.argv[0].lstrip("-"))
            try:
                rc = main(list(cmd.argv))
            finally:
                if tracer is not None:
                    tracer.exit()
            wall = time.perf_counter() - t0
        ops.record(rc == 0, f"qsine {cmd.argv[0]} (in-process)", f"exit {rc}, see {log}")
        return wall

    def one_pass(tracer) -> float:
        wall = sum(run(cmd, tracer) for cmd in workload.setup())
        workload.finish_setup()
        return wall + sum(run(cmd, tracer) for cmd in workload.round())

    # untraced passes before and after the traced one, so that warm-up and
    # drift fall on both sides of the overhead estimate
    before = one_pass(None)
    tracer = spans.Tracer()
    hooks = spans.Instrumented(tracer)
    try:
        with_spans = one_pass(tracer)
    finally:
        hooks.restore()
    after = one_pass(None)
    run_checks(workload, ops)
    tracer.write(spans_path)
    return ops, spans.per_layer_values(tracer, with_spans - (before + after) / 2.0)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "qsine" / "harness.py").is_file():
        print(f"bench: the qsine source is missing ({SRC / 'qsine'}); run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    log = run_dir / "commands.log"
    try:
        if args.trace:
            ops, values = traced(workload, log, run_dir / "spans.csv")
            import spans
            units = spans.PER_LAYER
        else:
            ops, values = untraced(workload, args.seconds, log)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    line = json.dumps(result)
    (run_dir / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
