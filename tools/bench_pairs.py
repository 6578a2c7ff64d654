"""Alternated parent/change runs of bench/run.py, summarized as BENCH_*.json.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \
        --workload eval-nn --pairs 10 --seed0 701 --out BENCH_6.json
    python3 tools/bench_pairs.py ... --workload eval-nn --trace --out BENCH_6.json

Pair i runs both checkouts with seed seed0 + i, the parent first on even i
and the change first on odd i, so that drift of the machine falls on both
sides. Each end-to-end metric gets, per side, the median and quartiles over
the pairs, the ratio of the medians (change / parent) and the number of
pairs the change won, in the direction BENCHMARK.json gives. `--trace`
makes one `--trace 1` run per side instead of the pairs and records its
per-module metrics. Results are merged into --out under the workload's
name, so one file collects all workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, text=True, stdout=subprocess.PIPE).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(parent: list[dict], change: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     "parent": quartiles(p), "change": quartiles(c),
                     "ratio_of_medians": statistics.median(c) / statistics.median(p),
                     "pairs_won": won, "pairs": len(p)}
    return out


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v, "unset") for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=701)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", action="store_true", help="one --trace 1 run per side instead of pairs")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["environment"] = environment()
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {})
    sides = {"parent": args.parent, "change": args.change}
    if args.trace:
        entry["trace"] = {side: run_bench(path, args.workload, args.seed0, args.seconds, 1)
                          for side, path in sides.items()}
    else:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = run_bench(sides[side], args.workload, args.seed0 + i, args.seconds, 0)
                runs[side].append(r)
                print(f"pair {i} {side}: " + ", ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
        entry["runs"] = runs
        entry["summary"] = summarize(runs["parent"], runs["change"], spec)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
