"""CLI-level tests: tiny budgets, real subcommand runs through ``main``."""
import csv
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsine import harness, signalnet
from qsine.harness import (
    EVAL_HEADER,
    OOD_HEADER,
    _bits_list,
    _cell_seed,
    _snr_grid,
    main,
)
from qsine.signals import load_dataset
from qsine.signalnet import load_estimator, load_signalnet
from qsine.thresholds import detection_threshold, frequency_threshold


def _run(capsys, argv):
    """Runs the CLI once, returning (exit_code, stdout, stderr)."""
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --------------------------------------------------------------------------
# thresholds
# --------------------------------------------------------------------------

class TestThresholdsCommand:
    def test_stdout_csv_values(self, capsys):
        code, out, _ = _run(capsys, ["thresholds"])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["task", "m", "threshold", "threshold_db",
                          "constant_estimate"]
        by_task = {}
        for row in rows:
            by_task.setdefault(row[0], []).append(row)

        det = by_task["detection"][0]
        assert float(det[2]) == pytest.approx(1.6707497632740930, rel=1e-12)
        assert float(det[4]) == pytest.approx(3.6899502865753817, rel=1e-12)

        freq = {int(r[1]): r for r in by_task["frequency"]}
        assert set(freq) == {1, 2, 3, 4, 5}
        assert float(freq[1][2]) == pytest.approx(1.0 / 64.0, rel=1e-15)
        assert float(freq[1][3]) == pytest.approx(-18.0618, abs=5e-4)
        # the constant-estimate column carries the mean frequency vector
        mean3 = [float(tok) for tok in freq[3][4].split(";")]
        assert len(mean3) == 3
        assert mean3[0] == pytest.approx(0.125, rel=1e-12)
        assert mean3 == sorted(mean3)

        amp = by_task["amplitude"][0]
        assert float(amp[2]) == 0.0675
        assert float(amp[4]) == 0.55

        ph = by_task["phase"][0]
        assert float(ph[2]) == pytest.approx(math.pi**2 / 3, rel=1e-12)
        assert float(ph[4]) == pytest.approx(math.pi, rel=1e-12)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "thr.csv"
        code, text, _ = _run(capsys, ["thresholds", "--out", str(out)])
        assert code == 0
        assert out.read_text() == text

    def test_m_and_n_flags(self, capsys):
        code, out, _ = _run(capsys, ["thresholds", "--M", "3", "--N", "32"])
        assert code == 0
        header, rows = _read_csv(out)
        freq_rows = [r for r in rows if r[0] == "frequency"]
        assert [int(r[1]) for r in freq_rows] == [1, 2, 3]
        # anchor-band term is N-free; the jitter term picks up --N
        assert float(freq_rows[0][2]) == pytest.approx(1.0 / 64.0)
        assert float(freq_rows[1][2]) == pytest.approx(
            frequency_threshold(2, 32), rel=1e-12)
        det = [r for r in rows if r[0] == "detection"][0]
        assert float(det[2]) == pytest.approx(detection_threshold(3)[1])


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------

class TestGenerateCommand:
    def test_writes_file_pair(self, capsys, tmp_path):
        base = str(tmp_path / "ds")
        code, out, _ = _run(capsys, [
            "generate", "--out", base, "--count", "40", "--m", "2",
            "--snr", "5", "--seed", "3",
        ])
        assert code == 0
        assert Path(base + ".labels.csv").exists()
        assert Path(base + ".samples.f32").exists()
        assert "wrote" in out
        meta, examples = load_dataset(base)
        assert meta["N"] == 64 and meta["bits"] == 3
        assert len(examples) == 40
        assert all(ex.label.m == 2 for ex in examples)
        assert all(ex.snr_db == 5.0 for ex in examples)
        # quantized 3-bit frames only take the 8 canonical levels
        levels = np.linspace(-1.0, 1.0, 8)
        flat = np.concatenate([ex.x.ravel() for ex in examples])
        assert np.allclose(np.abs(flat[:, None] - levels).min(axis=1), 0,
                           atol=1e-6)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = ["generate", "--count", "25", "--seed", "11"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert _run(capsys, args + ["--out", a])[0] == 0
        assert _run(capsys, args + ["--out", b])[0] == 0
        for suffix in (".labels.csv", ".samples.f32"):
            assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()

    def test_snr_spread_draws_per_example(self, capsys, tmp_path):
        base = str(tmp_path / "spread")
        code, _, _ = _run(capsys, [
            "generate", "--out", base, "--count", "30", "--seed", "2",
            "--snr-spread", "true", "--snr-min", "-5", "--snr-max", "5",
        ])
        assert code == 0
        _, examples = load_dataset(base)
        snrs = np.array([ex.snr_db for ex in examples])
        assert snrs.min() >= -5 and snrs.max() <= 5
        assert len(np.unique(snrs)) > 1

    def test_ood_mode_widens_band(self, capsys, tmp_path):
        base = str(tmp_path / "ood")
        code, _, _ = _run(capsys, [
            "generate", "--out", base, "--count", "200", "--m", "1",
            "--seed", "7", "--freq-mode", "ood",
        ])
        assert code == 0
        _, examples = load_dataset(base)
        freqs = np.array([ex.label.freqs[0] for ex in examples])
        # in-distribution anchors live in [0, 0.25); uniform mode fills (0, 0.5)
        assert freqs.max() > 0.3
        assert np.all(freqs < 0.5)


# --------------------------------------------------------------------------
# config file
# --------------------------------------------------------------------------

class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count = 15\nseed = 21\n# comment line\n\nm = 1\n")
        base = str(tmp_path / "fromcfg")
        code, _, _ = _run(capsys, [
            "generate", "--out", base, "--config", str(cfg)])
        assert code == 0
        _, examples = load_dataset(base)
        assert len(examples) == 15
        assert all(ex.label.m == 1 for ex in examples)

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count = 15\nseed = 21\n")
        base_cfg = str(tmp_path / "c1")
        base_ref = str(tmp_path / "c2")
        _run(capsys, ["generate", "--out", base_cfg, "--config", str(cfg),
                      "--count", "9"])
        _run(capsys, ["generate", "--out", base_ref, "--count", "9",
                      "--seed", "21"])
        assert (Path(base_cfg + ".labels.csv").read_bytes()
                == Path(base_ref + ".labels.csv").read_bytes())

    def test_underscore_keys_map_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("m_max = 2\ncount = 30\nseed = 5\n")
        base = str(tmp_path / "mm")
        code, _, _ = _run(capsys, ["generate", "--out", base,
                                   "--config", str(cfg)])
        assert code == 0
        meta, examples = load_dataset(base)
        assert meta["M"] == 2
        assert max(ex.label.m for ex in examples) <= 2

    def test_malformed_line_is_data_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("count 15\n")
        code, _, err = _run(capsys, ["generate", "--out",
                                     str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2
        assert "expected 'key = value'" in err


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert _run(capsys, ["bogus-command"])[0] == 1
        assert _run(capsys, ["eval"])[0] == 1  # missing required --out

    def test_data_error_is_2(self, capsys, tmp_path):
        # nn algorithm without a bundle
        code, _, err = _run(capsys, [
            "eval", "--out", str(tmp_path / "e.csv"), "--algorithms",
            "signalnet"])
        assert code == 2
        assert "qsine: error:" in err
        # missing checkpoint file
        code, _, _ = _run(capsys, [
            "ood", "--out", str(tmp_path / "o.csv"), "--est-ckpt",
            str(tmp_path / "nope.ckpt")])
        assert code == 2

    def test_bad_bits_values(self, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "eval", "--out", str(tmp_path / "e.csv"), "--bits", "3,x"])
        assert code == 2
        assert "--bits" in err
        # non-eval commands take exactly one bits value
        code, _, err = _run(capsys, [
            "generate", "--out", str(tmp_path / "g"), "--bits", "1,3"])
        assert code == 2
        assert "single --bits" in err

    def test_bad_snr_grid(self, capsys, tmp_path):
        code, _, _ = _run(capsys, [
            "eval", "--out", str(tmp_path / "e.csv"), "--algorithms", "mdl",
            "--snr-step", "0"])
        assert code == 2
        code, _, _ = _run(capsys, [
            "eval", "--out", str(tmp_path / "e.csv"), "--algorithms", "mdl",
            "--snr-min", "5", "--snr-max", "0"])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--nfft", "100"], "nfft=100 must be a power of two"),
        (["--nfft", "32"], "nfft=32 must be >= frame length 64"),
        (["--L", "40"], "L must be in [1, N/2] = [1, 32], got 40"),
        (["--n", "0"], "--n must be >= 1, got 0"),
        (["--n", "-3"], "--n must be >= 1, got -3"),
        (["--m-max", "0"], "--m-max must be >= 1, got 0"),
        (["--bits", "0"], "--bits must be >= 1, got '0'"),
        (["--bits", "1,0,3"], "--bits must be >= 1, got '1,0,3'"),
    ])
    def test_bad_classical_flags_before_any_frame(self, capsys, tmp_path,
                                                  monkeypatch, flags, message):
        def no_cell(*args, **kwargs):
            raise AssertionError("an eval cell was drawn")

        monkeypatch.setattr(harness, "_cell_examples", no_cell)
        out = tmp_path / "e.csv"
        code, _, err = _run(capsys, ["eval", "--out", str(out), *flags])
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "--n must be >= 1, got 0"),
        (["--m-max", "0"], "--m-max must be >= 1, got 0"),
    ])
    def test_bad_ood_sizes_before_any_frame(self, capsys, tmp_path,
                                            monkeypatch, flags, message):
        # checked before the checkpoint is even read
        def no_cell(*args, **kwargs):
            raise AssertionError("an ood cell was drawn")

        monkeypatch.setattr(harness, "_cell_examples", no_cell)
        out = tmp_path / "o.csv"
        code, _, err = _run(capsys, ["ood", "--out", str(out), "--est-ckpt",
                                     str(tmp_path / "nope.ckpt"), *flags])
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_version_exits_zero(self, capsys):
        code, out, _ = _run(capsys, ["--version"])
        assert code == 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _tiny_eval_args(out, **kw):
    argv = ["eval", "--out", out, "--n", "6", "--bits", "3",
            "--snr-min", "0", "--snr-max", "1", "--snr-step", "1",
            "--algorithms", "mdl,periodogram", "--nfft", "4096",
            "--L", "8", "--seed", "5"]
    for key, val in kw.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return argv


class TestEvalCommand:
    def test_layout_and_sorting(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text, _ = _run(capsys, _tiny_eval_args(str(out)))
        assert code == 0
        assert "wrote" in text
        header, rows = _read_csv(out.read_text())
        assert header == EVAL_HEADER

        keys = [(r[0], r[1], r[2], float(r[3]), r[4]) for r in rows]
        assert keys == sorted(keys)

        algos = {r[0] for r in rows}
        assert algos == {"mdl", "periodogram", "threshold"}
        mdl_rows = [r for r in rows if r[0] == "mdl"]
        assert all(r[2] == "joint" and r[4] == "detection_loss"
                   for r in mdl_rows)
        assert len(mdl_rows) == 2  # one per snr point
        per_rows = [r for r in rows if r[0] == "periodogram"]
        # 5 counts x 2 snr x 4 metrics
        assert len(per_rows) == 40
        assert {r[4] for r in per_rows} == {
            "freq_mse_db", "amp_mse_db", "phase_mse", "chamfer_norm"}
        for r in rows:
            float(r[5])  # every value parses
        assert all(int(r[6]) == 6 for r in mdl_rows + per_rows)

    def test_threshold_rows_match_analytics(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        _run(capsys, _tiny_eval_args(str(out)))
        _, rows = _read_csv(out.read_text())
        thr = [r for r in rows if r[0] == "threshold" and r[4] == "freq_mse_db"
               and r[2] == "2" and float(r[3]) == 0.0]
        assert len(thr) == 1
        want = 10 * math.log10(frequency_threshold(2, 64))
        assert float(thr[0][5]) == pytest.approx(want, rel=1e-12)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, _tiny_eval_args(str(a)))
        _run(capsys, _tiny_eval_args(str(b)))
        assert a.read_bytes() == b.read_bytes()

    def test_bits_list_runs_both(self, capsys, tmp_path):
        out = tmp_path / "both.csv"
        argv = ["eval", "--out", str(out), "--n", "4", "--bits", "1,3",
                "--snr-min", "0", "--snr-max", "0", "--algorithms", "mdl",
                "--L", "8", "--seed", "5"]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        _, rows = _read_csv(out.read_text())
        assert {r[1] for r in rows if r[0] == "mdl"} == {"1", "3"}

    def test_unknown_algorithm_rejected(self, capsys, tmp_path):
        code, _, err = _run(capsys, _tiny_eval_args(
            str(tmp_path / "x.csv"), algorithms="mdl,warp"))
        assert code == 2
        assert "unknown algorithms" in err

    def test_nn_skipped_when_bits_mismatch(self, capsys, tmp_path,
                                           bundle_b3_dir):
        out = tmp_path / "skip.csv"
        argv = ["eval", "--out", str(out), "--n", "4", "--bits", "1",
                "--snr-min", "0", "--snr-max", "0",
                "--algorithms", "nn_detect,mdl", "--L", "8",
                "--bundle", str(bundle_b3_dir), "--seed", "5"]
        code, _, err = _run(capsys, argv)
        assert code == 0
        assert "skipping model-based" in err
        _, rows = _read_csv(out.read_text())
        assert {r[0] for r in rows} == {"mdl", "threshold"}

    def test_one_detection_forward_per_joint_cell(self, capsys, tmp_path,
                                                  monkeypatch, bundle_b3_dir):
        # nn_detect and signalnet score the same counts; the harness must
        # not run the detector twice on a cell. Cells may run in worker
        # processes, so each call appends its row count to a file.
        log = tmp_path / "calls.txt"
        real = signalnet.detect_count_batch

        def counting(net, X, *a, **kw):
            with open(log, "a") as fh:
                fh.write(f"{len(X)}\n")
            return real(net, X, *a, **kw)

        monkeypatch.setattr(harness, "detect_count_batch", counting)
        monkeypatch.setattr(signalnet, "detect_count_batch", counting)
        out = tmp_path / "joint.csv"
        argv = ["eval", "--out", str(out), "--n", "5", "--bits", "3",
                "--snr-min", "0", "--snr-max", "1", "--snr-step", "1",
                "--algorithms", "nn_detect,signalnet",
                "--bundle", str(bundle_b3_dir), "--seed", "5"]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        calls = sorted(int(line) for line in log.read_text().split())
        assert calls == [5, 5]  # one per (bits, snr) cell
        _, rows = _read_csv(out.read_text())
        loss = {(r[0], r[3]): r[5] for r in rows
                if r[4] == "detection_loss" and r[0] != "threshold"}
        for snr in ("0.0", "1.0"):
            assert loss["nn_detect", snr] == loss["signalnet", snr]
        assert sum(r[0] == "signalnet" and r[4] == "chamfer_norm"
                   for r in rows) == 2


# --------------------------------------------------------------------------
# ood
# --------------------------------------------------------------------------

class TestOodCommand:
    def test_paired_rows(self, capsys, tmp_path, est_m2_b3_path):
        out = tmp_path / "ood.csv"
        argv = ["ood", "--out", str(out), "--n", "8", "--m", "2",
                "--est-ckpt", str(est_m2_b3_path), "--snr-min", "0",
                "--snr-max", "2", "--snr-step", "2", "--seed", "5"]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        header, rows = _read_csv(out.read_text())
        assert header == OOD_HEADER
        # 2 snr points x 2 modes x 4 metrics
        assert len(rows) == 16
        assert {r[8] for r in rows} == {"in_dist", "ood"}
        for snr in ("0.0", "2.0"):
            for metric in ("freq_mse_db", "amp_mse_db", "phase_mse",
                           "chamfer_norm"):
                tags = [r[8] for r in rows
                        if r[3] == snr and r[4] == metric]
                assert tags == ["in_dist", "ood"]

    def test_count_mismatch_rejected(self, capsys, tmp_path, est_m2_b3_path):
        code, _, err = _run(capsys, [
            "ood", "--out", str(tmp_path / "o.csv"), "--m", "3",
            "--est-ckpt", str(est_m2_b3_path)])
        assert code == 2
        assert "does not match checkpoint" in err


# --------------------------------------------------------------------------
# cells over worker processes
# --------------------------------------------------------------------------

def _set_cpus(monkeypatch, n):
    """Gives the process an affinity set of n CPUs, so eval and ood use
    min(n, cells) workers; one CPU runs the cells in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _record_cell_pids(monkeypatch, log):
    real = harness._cell_examples

    def recording(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_cell_examples", recording)


class TestCellPool:
    def _same_bytes(self, capsys, tmp_path, monkeypatch, argv_for):
        """Runs argv_for(out) in-process and over two workers; returns the
        CSV bytes after checking that both sides wrote the same."""
        got = {}
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            pids = tmp_path / f"pids{cpus}.txt"
            _record_cell_pids(monkeypatch, pids)
            out = tmp_path / f"cpus{cpus}.csv"
            code, _, err = _run(capsys, argv_for(str(out)))
            assert code == 0, err
            got[cpus] = out.read_bytes()
            cell_pids = set(pids.read_text().split())
            if cpus == 1:
                assert cell_pids == {str(os.getpid())}
            else:
                assert str(os.getpid()) not in cell_pids
            assert multiprocessing.active_children() == []
        assert got[1] == got[2]
        return got[1]

    def test_eval_classical_bytes(self, capsys, tmp_path, monkeypatch):
        algorithms = "aic,mdl,periodogram,aic_periodogram"
        self._same_bytes(capsys, tmp_path, monkeypatch, lambda out:
                         _tiny_eval_args(out, bits="1,3",
                                         algorithms=algorithms))

    def test_eval_nn_bytes(self, capsys, tmp_path, monkeypatch, bundle_b3_dir):
        argv = ["eval", "--n", "6", "--bits", "3", "--snr-min", "0",
                "--snr-max", "1", "--algorithms", "nn_est,nn_detect,signalnet",
                "--bundle", str(bundle_b3_dir), "--seed", "5", "--out"]
        text = self._same_bytes(capsys, tmp_path, monkeypatch,
                                lambda out: [*argv, out]).decode()
        _, rows = _read_csv(text)
        assert {r[0] for r in rows} == {"nn_est", "nn_detect", "signalnet",
                                        "threshold"}

    def test_ood_bytes(self, capsys, tmp_path, monkeypatch, est_m2_b3_path):
        argv = ["ood", "--n", "8", "--m", "2", "--est-ckpt",
                str(est_m2_b3_path), "--snr-min", "0", "--snr-max", "2",
                "--snr-step", "2", "--seed", "5", "--out"]
        self._same_bytes(capsys, tmp_path, monkeypatch,
                         lambda out: [*argv, out])

    @pytest.mark.parametrize("error", [ValueError("cell m=3 is malformed"),
                                       KeyError("no such field")])
    def test_worker_error_exits_2_like_in_process(self, capsys, tmp_path,
                                                  monkeypatch, error):
        real = harness._cell_examples

        def failing(args, bits, m_code, snr, tag, **kwargs):
            if m_code == 3:
                raise error
            return real(args, bits, m_code, snr, tag, **kwargs)

        monkeypatch.setattr(harness, "_cell_examples", failing)
        errs = {}
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            code, _, errs[cpus] = _run(capsys, _tiny_eval_args(str(out)))
            assert code == 2
            assert not out.exists()
            assert multiprocessing.active_children() == []
        assert errs[1] == errs[2] == f"qsine: error: {error}\n"

    def test_killed_worker_exits_2(self, capsys, tmp_path, monkeypatch):
        parent = os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("a cell ran in the parent process")
            os._exit(3)

        monkeypatch.setattr(harness, "_cell_examples", dying)
        _set_cpus(monkeypatch, 2)
        out = tmp_path / "e.csv"
        code, _, err = _run(capsys, _tiny_eval_args(str(out)))
        assert code == 2
        assert "terminated abruptly" in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_notes_come_back_in_cell_order(self, capsys, tmp_path,
                                           monkeypatch, bundle_b3_dir):
        # a bundle whose manifest omits the m=2 chain: each SNR's m=2 cell
        # notes the skip, and the parent prints the notes, not the workers
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_b3_dir, bundle)
        manifest = json.loads((bundle / "signalnet.json").read_text())
        del manifest["estimators"]["2"]
        (bundle / "signalnet.json").write_text(json.dumps(manifest))
        argv = ["eval", "--n", "4", "--bits", "3", "--m-max", "3",
                "--snr-min", "0", "--snr-max", "1", "--algorithms", "nn_est",
                "--bundle", str(bundle), "--seed", "5", "--out"]
        errs = {}
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            code, _, errs[cpus] = _run(capsys, [*argv, str(out)])
            assert code == 0
            _, rows = _read_csv(out.read_text())
            assert {r[2] for r in rows if r[0] == "nn_est"} == {"1", "3"}
        note = "note: bundle lacks an m=2 estimator; skipping nn_est\n"
        assert errs[1] == errs[2] == note * 2


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

class TestTrainCommand:
    def test_estimator_round_trip(self, capsys, tmp_path):
        ckpt = str(tmp_path / "est.ckpt")
        code, out, _ = _run(capsys, [
            "train", "--task", "estimator", "--m", "1", "--out", ckpt,
            "--samples", "300", "--epochs", "2", "--seed", "1"])
        assert code == 0
        assert "wrote" in out
        est, meta = load_estimator(ckpt)
        assert est.m == 1
        assert meta["bits"] == 3

        header, rows = _read_csv(Path(ckpt + ".log.csv").read_text())
        assert header == ["epoch", "train_loss", "val_loss", "lr"]
        assert len(rows) == 2
        assert [int(r[0]) for r in rows] == [0, 1]
        for r in rows:
            assert math.isfinite(float(r[1])) and math.isfinite(float(r[2]))

    def test_detection_tiny_run(self, capsys, tmp_path):
        ckpt = str(tmp_path / "det.ckpt")
        code, _, _ = _run(capsys, [
            "train", "--task", "detection", "--out", ckpt,
            "--samples", "400", "--epochs", "1", "--seed", "1"])
        assert code == 0
        assert Path(ckpt).exists()
        _, rows = _read_csv(Path(ckpt + ".log.csv").read_text())
        assert len(rows) == 1

    def test_estimator_requires_m(self, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "train", "--task", "estimator", "--out",
            str(tmp_path / "e.ckpt"), "--samples", "100", "--epochs", "1"])
        assert code == 2
        assert "--m is required" in err

    def test_train_from_dataset_file(self, capsys, tmp_path):
        base = str(tmp_path / "ds")
        _run(capsys, ["generate", "--out", base, "--count", "250",
                      "--m", "1", "--seed", "4"])
        ckpt = str(tmp_path / "fromfile.ckpt")
        code, _, _ = _run(capsys, [
            "train", "--task", "estimator", "--m", "1", "--out", ckpt,
            "--data", base, "--epochs", "2", "--seed", "1"])
        assert code == 0
        est, _ = load_estimator(ckpt)
        assert est.m == 1
        # asking for a count the dataset does not contain is a data error
        code, _, err = _run(capsys, [
            "train", "--task", "estimator", "--m", "3",
            "--out", str(tmp_path / "z.ckpt"), "--data", base,
            "--epochs", "1"])
        assert code == 2
        assert "no examples with m=3" in err

    def test_bundle_epochs_bound_every_model(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        code, _, _ = _run(capsys, [
            "train", "--task", "bundle", "--m-max", "2", "--samples", "600",
            "--epochs", "1", "--out", str(out)])
        assert code == 0
        logs = ["train_detection.log.csv", "train_est_m1.log.csv",
                "train_est_m2.log.csv"]
        for name in logs:
            _, rows = _read_csv((out / name).read_text())
            assert len(rows) == 1, name
        model = load_signalnet(out)
        assert model.M == 2 and sorted(model.estimators) == [1, 2]


# --------------------------------------------------------------------------
# process settings of the CLI
# --------------------------------------------------------------------------

def _cli_env(**overrides) -> dict:
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, os.environ.get("PYTHONPATH")) if x)
    env.update(overrides)
    return env


class TestProcessSettings:
    def test_blas_pinned_unless_caller_chose(self):
        probe = ("import os, qsine.harness; print(','.join(os.environ[v] "
                 "for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', "
                 "'MKL_NUM_THREADS')))")

        def run(env):
            return subprocess.run([sys.executable, "-c", probe], env=env,
                                  check=True, text=True,
                                  stdout=subprocess.PIPE).stdout.strip()

        assert run(_cli_env()) == "1,1,1"
        assert run(_cli_env(OPENBLAS_NUM_THREADS="2")) == "2,1,1"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_periodogram_frames_reuse_the_heap(self, tmp_path):
        # Minor faults of the marginal frames: without the heap policy every
        # 65536-point FFT maps fresh buffers, about 480 faults a frame.
        def faults(n):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            subprocess.run(
                [sys.executable, "-m", "qsine.harness", "eval",
                 "--algorithms", "periodogram", "--bits", "3",
                 "--snr-min", "0", "--snr-max", "0", "--n", str(n),
                 "--out", str(tmp_path / f"n{n}.csv")],
                env=_cli_env(), check=True, stdout=subprocess.DEVNULL)
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        frames = 5 * (10 - 2)  # m = 1..5 cells, 8 more frames each
        per_frame = (faults(10) - faults(2)) / frames
        assert per_frame < 20, f"{per_frame:.1f} minor faults per frame"


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

class TestHelpers:
    def test_bits_list(self):
        assert _bits_list("1,3") == [1, 3]
        assert _bits_list("3") == [3]
        with pytest.raises(ValueError):
            _bits_list("a,b")
        with pytest.raises(ValueError):
            _bits_list(",")

    def test_snr_grid_fractional_step(self):
        import argparse

        ns = argparse.Namespace(snr_min=0.0, snr_max=2.0, snr_step=0.5)
        assert _snr_grid(ns) == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_cell_seed_distinct_and_stable(self):
        s1 = _cell_seed(0, 3000, 3, 1, 10**6)
        s2 = _cell_seed(0, 3000, 3, 2, 10**6)
        assert s1 == _cell_seed(0, 3000, 3, 1, 10**6)
        assert s1 != s2
