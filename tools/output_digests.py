"""sha256 of every output of a fixed, desk-size `qsine` command script.

    python3 tools/output_digests.py                      # this checkout
    python3 tools/output_digests.py --checkout <other>   # another checkout

Runs `generate` (one dataset noiseless, `--snr inf`, one of 500 frames
of one count, which crosses many 32-frame groups, and one from a seed of
two 32-bit words, as eval cells' seeds are, whose 300 frames cross a
256-row seeding block), a tiny `train --task
detection`, `--task estimator` and `--task bundle --m-max 2`, an estimator
trained on 2,000 frames (200 validation rows), a detector and an m = 3
estimator trained with `--data` on the script's own datasets, `eval` of
aic,mdl and of periodogram,aic_periodogram at bits 1 and 3, `eval` of
nn_est,nn_detect,signalnet on the bundle at 100 and 300 frames a cell,
`eval` of all algorithms on the bundle at bits 1 and 3
(the bundle's nn algorithms are skipped at bits 1), `ood` on the trained
estimator at 100 and 321 frames a cell, the same bundle, `eval` and `ood`
at `--frame-len 32`, and `thresholds`, each as `python3 -m qsine.harness` with the checkout's
`src` first on PYTHONPATH, into a temporary directory. Prints one
`<sha256>  <file>` line per output, sorted by name, and for each `*.ckpt`
one more `<sha256>  <file>#payload` line over the tensor bytes after the
manifest, which tells a manifest-only change from a weight change. Two
checkouts that print the same lines wrote byte-identical datasets,
checkpoints, training logs and CSVs. A command that fails stops the script
with its exit code.
The larger sizes cross the 64-row inference chunks: 300 rows split as
64+64+64+108, and 321 rows end in a 65-row chunk.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

SNR = ["--snr-min", "-10", "--snr-max", "10", "--snr-step", "10"]
FIT = ["--bits", "3", "--epochs", "2", "--patience", "2", "--batch-size", "8",
       "--seed", "7"]
TRAIN = [*FIT, "--samples", "240", "--snr-min", "0", "--snr-max", "20"]


def script(out: Path) -> list[list[str]]:
    return [
        ["generate", "--bits", "3", "--count", "300", "--snr-spread", "true",
         "--seed", "11", "--out", out / "gen"],
        ["generate", "--bits", "1", "--count", "200", "--m", "2", "--freq-mode", "ood",
         "--seed", "12", "--out", out / "gen_ood"],
        ["generate", "--bits", "1", "--count", "200", "--snr", "inf", "--seed", "18",
         "--out", out / "gen_noiseless"],
        ["generate", "--bits", "3", "--count", "500", "--m", "3", "--snr-spread", "true",
         "--seed", "19", "--out", out / "gen_m3"],
        ["generate", "--bits", "3", "--count", "300", "--seed", "5000000000",
         "--out", out / "gen_seed2w"],
        # the load-then-train path of the benchmark's train workload
        ["train", "--task", "detection", *FIT, "--data", out / "gen", "--out", out / "det_data.ckpt"],
        ["train", "--task", "estimator", "--m", "3", *FIT, "--data", out / "gen_m3",
         "--out", out / "est_m3_data.ckpt"],
        ["train", "--task", "detection", *TRAIN, "--out", out / "det.ckpt"],
        ["train", "--task", "estimator", "--m", "2", *TRAIN, "--out", out / "est_m2.ckpt"],
        ["train", "--task", "bundle", "--m-max", "2", *TRAIN, "--out", out / "bundle"],
        ["train", "--task", "estimator", "--m", "2", *TRAIN, "--samples", "2000",
         "--out", out / "est_m2_s2000.ckpt"],
        ["eval", "--algorithms", "aic,mdl", "--bits", "1,3", "--n", "150", *SNR,
         "--seed", "13", "--out", out / "eval_aic_mdl.csv"],
        *(["eval", "--algorithms", "periodogram,aic_periodogram", "--bits", b, "--n", "6", *SNR,
           "--seed", "14", "--out", out / f"eval_periodogram_b{b}.csv"] for b in ("1", "3")),
        *(["eval", "--bundle", out / "bundle", "--m-max", "2", "--bits", "3",
           "--algorithms", "nn_est,nn_detect,signalnet", "--n", n, *SNR,
           "--seed", "16", "--out", out / name] for n, name in (("100", "eval_nn.csv"),
                                                               ("300", "eval_nn_n300.csv"))),
        # classical and nn rows from one command, and the bits=1 skip of a
        # bundle trained at 3 bits
        ["eval", "--bundle", out / "bundle", "--m-max", "2", "--algorithms", "all",
         "--bits", "1,3", "--n", "6", *SNR, "--seed", "17", "--out", out / "eval_all.csv"],
        *(["ood", "--est-ckpt", out / "est_m2.ckpt", "--m", "2", "--bits", "3", "--n", n, *SNR,
           "--seed", "15", "--out", out / name] for n, name in (("100", "ood.csv"),
                                                              ("321", "ood_n321.csv"))),
        # a frame length other than the default
        ["train", "--task", "bundle", "--frame-len", "32", "--m-max", "2", *TRAIN,
         "--out", out / "bundle_n32"],
        ["eval", "--bundle", out / "bundle_n32", "--frame-len", "32", "--m-max", "2",
         "--bits", "3", "--algorithms", "nn_est,nn_detect,signalnet", "--n", "100", *SNR,
         "--seed", "16", "--out", out / "eval_nn_n32.csv"],
        ["ood", "--est-ckpt", out / "bundle_n32" / "est_m2.ckpt", "--frame-len", "32",
         "--m", "2", "--bits", "3", "--n", "100", *SNR, "--seed", "15",
         "--out", out / "ood_n32.csv"],
        ["thresholds", "--out", out / "thresholds.csv"],
    ]


def ckpt_payload(data: bytes) -> bytes:
    # the SGNT layout: magic, version (u32), manifest length (u32), manifest.
    # Parsed here rather than by qsine.nn.checkpoint, which would import one
    # checkout's package into a run that compares two.
    (mlen,) = struct.unpack_from("<I", data, 8)
    return data[12 + mlen:]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="repository whose src/ is run (default: this one)")
    args = p.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (str(args.checkout.resolve() / "src"), os.environ.get("PYTHONPATH")) if x)
    with tempfile.TemporaryDirectory(prefix="qsine-digests-") as tmp:
        out = Path(tmp)
        for argv in script(out):
            cmd = [sys.executable, "-m", "qsine.harness", *map(str, argv)]
            rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
            if rc != 0:
                print(f"failed ({rc}): {' '.join(map(str, argv))}", file=sys.stderr)
                return rc
        for path in sorted(f for f in out.rglob("*") if f.is_file()):
            data = path.read_bytes()
            print(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out)}")
            if path.suffix == ".ckpt":
                print(f"{hashlib.sha256(ckpt_payload(data)).hexdigest()}  "
                      f"{path.relative_to(out)}#payload")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
