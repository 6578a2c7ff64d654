"""CLI-level tests: tiny budgets, real subcommand runs through ``main``."""
import csv
import io
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from qsine import harness, signalnet, signals
from qsine.harness import (
    EVAL_HEADER,
    OOD_HEADER,
    _bits_list,
    _cell_seed,
    _snr_grid,
    main,
)
from qsine.nn.checkpoint import save_chain
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

    @pytest.mark.parametrize("flag", ["--snr-min", "--snr-max"])
    def test_snr_range_flags_need_the_spread(self, capsys, tmp_path, flag):
        # without --snr-spread true every frame is at --snr, so a range flag
        # would go unread
        code, _, err = _run(capsys, ["generate", "--out", str(tmp_path / "ds"),
                                     "--count", "4", flag, "5"])
        assert code == 2
        assert f"{flag} applies only with --snr-spread true" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, lo, hi", [
        ([], -10.0, 10.0), (["--snr-min", "5"], 5.0, 10.0),
        (["--snr-max", "-4"], -10.0, -4.0)])
    def test_spread_range_bound_by_bound(self, capsys, tmp_path, flags, lo, hi):
        # a range flag left out keeps its default bound
        base = str(tmp_path / "ds")
        code, _, _ = _run(capsys, ["generate", "--out", base, "--count", "300",
                                   "--seed", "3", "--snr-spread", "true", *flags])
        assert code == 0
        snrs = load_dataset(base)[1].snr_db
        assert lo <= snrs.min() < lo + 1 and hi - 1 < snrs.max() <= hi

    @pytest.mark.parametrize("mode", ["in_distribution", "ood_uniform"])
    def test_freq_mode_takes_only_the_ood_csv_spellings(self, capsys, tmp_path, mode):
        base = tmp_path / "ds"
        code, _, err = _run(capsys, ["generate", "--out", str(base), "--count", "2",
                                     "--freq-mode", mode])
        assert code == 1
        assert f"invalid choice: '{mode}'" in err
        assert not Path(str(base) + ".labels.csv").exists()


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

    @pytest.mark.parametrize("command, flag", [
        *((command, "--config")
          for command in ("generate", "train", "eval", "ood", "thresholds")),
        ("generate", "--snr-step"),
        ("train", "--snr-step"),
    ])
    def test_flags_nothing_reads_are_usage_errors(self, capsys, tmp_path,
                                                  command, flag):
        # --snr-step steps only the eval and ood sweeps
        cfg = tmp_path / "q.cfg"
        cfg.write_text("seed = 1\n")
        value = str(cfg) if flag == "--config" else "2"
        out = tmp_path / "out"
        argv = [command, "--out", str(out), flag, value, *{
            "generate": ["--count", "2"],
            "train": ["--task", "detection", "--samples", "8", "--epochs", "1"],
            "eval": ["--algorithms", "mdl", "--n", "2", "--snr-max", "-10"],
            "ood": ["--est-ckpt", str(tmp_path / "est.ckpt"), "--n", "2"],
            "thresholds": [],
        }[command]]
        if command == "ood":
            _untrained_chain(tmp_path / "est.ckpt")
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("argv", [
        ["generate", "--count", "2"],
        ["train", "--task", "detection", "--samples", "8", "--epochs", "1"],
        ["train", "--task", "estimator", "--m", "1", "--samples", "8",
         "--epochs", "1"],
        ["eval", "--algorithms", "mdl", "--n", "2", "--snr-max", "-10"],
        ["ood", "--est-ckpt", "est.ckpt", "--n", "2"],
    ])
    def test_negative_seed_names_the_flag(self, capsys, tmp_path, argv):
        code, _, err = _run(capsys, [*argv, "--seed", "-1",
                                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--seed must be >= 0, got -1" in err
        assert list(tmp_path.iterdir()) == []

    def test_version_exits_zero(self, capsys):
        code, out, _ = _run(capsys, ["--version"])
        assert code == 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the flags were checked")


class TestFlagRules:
    @pytest.mark.parametrize("argv, message", [
        (["generate", "--m", "9"], "--m must be in [1, --m-max] = [1, 5], got 9"),
        (["generate", "--m-max", "0"], "--m-max must be >= 1, got 0"),
        (["generate", "--frame-len", "1"], "--frame-len must be >= 2, got 1"),
        (["generate", "--snr", "nan"], "--snr must be finite or +inf, got nan"),
        (["generate", "--snr=-inf"], "--snr must be finite or +inf, got -inf"),
        (["generate", "--snr-spread", "true", "--snr-max", "inf"],
         "--snr-max must be finite, got inf"),
        (["generate", "--snr-spread", "true", "--snr-min", "20"],
         "--snr-max must be >= --snr-min, got 10.0 < 20.0"),
        (["generate", "--bits", "0"], "--bits must be >= 1, got '0'"),
        (["train", "--task", "estimator", "--m", "1", "--m-max", "0"],
         "--m-max must be >= 1, got 0"),
        (["train", "--task", "bundle", "--frame-len", "1"],
         "--frame-len must be >= 2, got 1"),
        (["train", "--task", "detection", "--frame-len", "40"],
         "--frame-len must be divisible by 16 for --task detection, got 40"),
        (["train", "--task", "bundle", "--frame-len", "40", "--samples", "20",
          "--epochs", "0"],
         "--frame-len must be divisible by 16 for --task bundle, got 40"),
        (["train", "--task", "estimator", "--m", "1", "--frame-len", "42"],
         "--frame-len must be divisible by 4 for --task estimator, got 42"),
        (["train", "--task", "estimator", "--m", "6"],
         "--m must be in [1, --m-max] = [1, 5], got 6"),
        (["train", "--task", "detection", "--snr-min", "nan"],
         "--snr-min must be finite, got nan"),
        (["train", "--task", "bundle", "--snr-min", "20"],
         "--snr-max must be >= --snr-min, got 10.0 < 20.0"),
        (["train", "--task", "estimator", "--m", "2", "--snr-max", "inf"],
         "--snr-max must be finite, got inf"),
        (["eval", "--snr-max", "inf"], "--snr-max must be finite, got inf"),
        (["eval", "--snr-min", "nan"], "--snr-min must be finite, got nan"),
        (["eval", "--snr-step", "nan"], "--snr-step must be positive"),
        (["eval", "--frame-len", "1"], "--frame-len must be >= 2, got 1"),
        (["ood", "--m", "6"], "--m must be in [1, --m-max] = [1, 5], got 6"),
        (["ood", "--snr-max", "inf"], "--snr-max must be finite, got inf"),
        (["ood", "--snr-step", "0"], "--snr-step must be positive"),
        (["ood", "--frame-len", "1"], "--frame-len must be >= 2, got 1"),
        (["thresholds", "--M", "0"], "--M must be >= 1, got 0"),
        (["thresholds", "--N", "1"], "--N must be >= 2, got 1"),
    ])
    def test_bad_flag_exits_before_any_work(self, capsys, tmp_path,
                                            monkeypatch, argv, message):
        for module in (signals, harness):
            for name in ("make_dataset", "load_dataset"):
                monkeypatch.setattr(module, name, _must_not_run)
        monkeypatch.setattr(harness, "_cell_examples", _must_not_run)
        tail = ["--out", str(tmp_path / "out")]
        if argv[0] == "ood":
            tail += ["--est-ckpt", str(tmp_path / "est.ckpt")]
        code, _, err = _run(capsys, [*argv, *tail])
        assert code == 2
        assert f"qsine: error: {message}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("algorithms, imported", [
        ("nn_est,nn_detect,signalnet", False), ("nn_est,mdl", True)])
    def test_classical_checks_load_classical_only_for_its_algorithms(
            self, algorithms, imported):
        # --nfft and --L are checked by classical's own functions, and only
        # when a selected algorithm reads them
        probe = ("import sys\n"
                 "from qsine.harness import _check_flags, _postprocess, "
                 "build_parser\n"
                 "args = build_parser().parse_args(['eval', '--algorithms', "
                 f"{algorithms!r}, '--bundle', 'b', '--out', 'e.csv'])\n"
                 "_postprocess(args)\n"
                 "_check_flags(args)\n"
                 "print('qsine.classical' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                             text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [str(imported)]


# --------------------------------------------------------------------------
# inputs that disagree with the flags, and malformed inputs: exit 2 with a
# message that names the file and the field
# --------------------------------------------------------------------------

def _no_cell(*args, **kwargs):
    raise AssertionError("a cell was drawn")


def _untrained_chain(path, m=2):
    signalnet.save_estimator(signalnet.build_estimator(m), path, bits=3)
    return str(path)


def _untrained_bundle(path):
    model = signalnet.SignalNetModel(
        detection=signalnet.build_detection_network(M=1),
        estimators={1: signalnet.build_estimator(1)}, M=1)
    signalnet.save_signalnet(model, path)
    return str(path)


class TestInputsMatchTheFlags:
    @pytest.mark.parametrize("gen_flags, message", [
        (["--bits", "1", "--frame-len", "32"], "N=32 does not match --frame-len 64"),
        (["--bits", "1"], "bits=1 does not match --bits 3"),
        (["--m-max", "3"], "M=3 does not match --m-max 5"),
    ])
    def test_train_data_header(self, capsys, tmp_path, gen_flags, message):
        base = str(tmp_path / "ds")
        assert _run(capsys, ["generate", "--out", base, "--count", "20",
                             "--seed", "4", *gen_flags])[0] == 0
        ckpt = tmp_path / "det.ckpt"
        code, _, err = _run(capsys, ["train", "--task", "detection", "--data", base,
                                     "--epochs", "1", "--out", str(ckpt)])
        assert code == 2
        assert f"{base}.labels.csv: {message}" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--bits", "1"], "bits=3 does not match --bits 1"),
        (["--frame-len", "32"], "N=64 does not match --frame-len 32"),
    ])
    def test_ood_chain(self, capsys, tmp_path, monkeypatch, flags, message):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        ckpt = _untrained_chain(tmp_path / "est.ckpt")
        out = tmp_path / "o.csv"
        code, _, err = _run(capsys, ["ood", "--m", "2", "--est-ckpt", ckpt,
                                     "--out", str(out), *flags])
        assert code == 2
        assert f"{ckpt}: {message}" in err
        assert not out.exists()

    def test_ood_chain_without_bits(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        ckpt = tmp_path / "est.ckpt"
        save_chain(signalnet.build_estimator(2).blocks, ckpt,
                   meta={"task": "estimator", "m": 2, "N": 64})
        out = tmp_path / "o.csv"
        code, _, err = _run(capsys, ["ood", "--m", "2", "--bits", "1",
                                     "--est-ckpt", str(ckpt), "--out", str(out)])
        assert code == 2
        assert f"qsine: error: {ckpt}: no bits to check against --bits 1" in err
        assert not out.exists()

    def test_eval_bundle_frame_len(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        bundle = _untrained_bundle(tmp_path / "bundle")
        out = tmp_path / "e.csv"
        code, _, err = _run(capsys, ["eval", "--bundle", bundle, "--frame-len", "32",
                                     "--m-max", "1", "--bits", "3",
                                     "--algorithms", "nn_est", "--out", str(out)])
        assert code == 2
        assert f"{bundle}: N=64 does not match --frame-len 32" in err
        assert not out.exists()


def _damage(path: Path, how: str) -> None:
    data = path.read_bytes()
    if how == "truncated payload":
        data = data[:-100]
    elif how == "truncated header":
        data = data[:6]
    else:  # a manifest that is not JSON
        data = data[:12] + b"!" + data[13:]
    path.write_bytes(data)


class TestReadErrors:
    @pytest.mark.parametrize("how, message", [
        # cutting 100 bytes drops amp.b, amp.w and half of u_fc.b of block 2
        ("truncated payload", "payload ends inside tensor u_fc.b"),
        ("truncated header", "unpack_from requires a buffer of at least 12 bytes"),
        ("bad manifest", "Expecting value"),
    ])
    def test_chain_checkpoint(self, capsys, tmp_path, monkeypatch, how, message):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        ckpt = tmp_path / "est.ckpt"
        _untrained_chain(ckpt)
        _damage(ckpt, how)
        code, _, err = _run(capsys, ["ood", "--m", "2", "--est-ckpt", str(ckpt),
                                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"qsine: error: {ckpt}: {message}" in err

    def test_network_checkpoint(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        bundle = _untrained_bundle(tmp_path / "bundle")
        ckpt = Path(bundle) / "detection.ckpt"
        _damage(ckpt, "truncated payload")
        code, _, err = _run(capsys, ["eval", "--bundle", bundle, "--m-max", "1",
                                     "--bits", "3", "--algorithms", "nn_detect",
                                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert f"qsine: error: {ckpt}: payload ends inside tensor " in err

    @pytest.mark.parametrize("line, row, message", [
        (1, "qsine-dataset v1, N=x, M=5, bits=3",
         "invalid literal for int() with base 10: 'x'"),
        (3, "1,x,10.0,0.5,0.1,0.2", "invalid literal for int() with base 10: 'x'"),
        (2, "0,1,10.0,0.5", "label row has 1 values, expected 3"),
        (4, "2", "list index out of range"),
    ])
    def test_dataset_labels_line(self, capsys, tmp_path, line, row, message):
        base = str(tmp_path / "ds")
        assert _run(capsys, ["generate", "--out", base, "--count", "4",
                             "--m", "1", "--seed", "4"])[0] == 0
        labels = Path(base + ".labels.csv")
        lines = labels.read_text().splitlines()
        lines[line - 1] = row
        labels.write_text("\n".join(lines) + "\n")
        code, _, err = _run(capsys, ["train", "--task", "estimator", "--m", "1",
                                     "--data", base, "--epochs", "1",
                                     "--out", str(tmp_path / "e.ckpt")])
        assert code == 2
        assert f"qsine: error: {labels}:{line}: {message}" in err

    @pytest.mark.parametrize("text, message", [
        ("{", "Expecting property name enclosed in double quotes"),
        ("{}", "missing key 'N'"),
    ])
    def test_bundle_manifest(self, capsys, tmp_path, monkeypatch, text, message):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        bundle = _untrained_bundle(tmp_path / "bundle")
        manifest = Path(bundle) / "signalnet.json"
        manifest.write_text(text)
        code, _, err = _run(capsys, ["eval", "--bundle", bundle, "--m-max", "1",
                                     "--bits", "3", "--algorithms", "nn_detect",
                                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert f"qsine: error: {manifest}: {message}" in err

    def test_ood_chain_without_n(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        ckpt = tmp_path / "est.ckpt"
        save_chain(signalnet.build_estimator(2).blocks, ckpt,
                   meta={"task": "estimator", "m": 2, "bits": 3})
        code, _, err = _run(capsys, ["ood", "--m", "2", "--est-ckpt", str(ckpt),
                                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"qsine: error: {ckpt}: chain meta has no N" in err

    def test_bundle_chain_without_n(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_cell_examples", _no_cell)
        bundle = _untrained_bundle(tmp_path / "bundle")
        ckpt = Path(bundle) / "est_m1.ckpt"
        save_chain(signalnet.build_estimator(1).blocks, ckpt,
                   meta={"task": "estimator", "m": 1, "bits": 3})
        code, _, err = _run(capsys, ["eval", "--bundle", bundle, "--m-max", "1",
                                     "--bits", "3", "--algorithms", "nn_est",
                                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert f"qsine: error: {ckpt}: chain meta has no N" in err

    def test_dataset_line_numbers_count_blank_lines(self, tmp_path):
        base = str(tmp_path / "ds")
        labels = Path(base + ".labels.csv")
        labels.write_text("qsine-dataset v1, N=64, M=5, bits=3\n\n\n1,x\n")
        with pytest.raises(ValueError, match=re.escape(f"{labels}:4: ")):
            load_dataset(base)


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
        # processes, so each call appends its row count to a file. The
        # harness looks the function up in signalnet when it calls it.
        log = tmp_path / "calls.txt"
        real = signalnet.detect_count_batch

        def counting(net, X, *a, **kw):
            with open(log, "a") as fh:
                fh.write(f"{len(X)}\n")
            return real(net, X, *a, **kw)

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

    @pytest.mark.parametrize("flags, batch, rows", [
        (["--samples", "40", "--batch-size", "1"], 1, 36),
        (["--samples", "2"], 32, 1),
        (["--samples", "40", "--batch-size", "0"], 0, 36)])
    def test_no_batch_of_two_rows_is_a_data_error(self, capsys, tmp_path, flags,
                                                   batch, rows):
        # BatchNorm needs two rows a batch: a run that can form no such batch
        # exits 2 naming both sizes, and one that trains no epoch still works
        ckpt = tmp_path / "det.ckpt"
        argv = ["train", "--task", "detection", *flags, "--out", str(ckpt)]
        code, _, err = _run(capsys, [*argv, "--epochs", "1"])
        assert code == 2
        assert f"batch size {batch} and {rows} training row(s)" in err
        assert not ckpt.exists()
        code, _, _ = _run(capsys, [*argv, "--epochs", "0"])
        assert code == 0 and ckpt.exists()

    @pytest.mark.parametrize("task", [["detection"], ["estimator", "--m", "1"]])
    def test_frames_freed_before_training(self, capsys, tmp_path, monkeypatch, task):
        # the command keeps one copy of its frames: the float64 dataset is
        # gone before the first network is built
        refs, freed = [], []
        train_examples = harness._train_examples

        def draw(*args):
            ds = train_examples(*args)
            refs.append(weakref.ref(ds))
            return ds

        monkeypatch.setattr(harness, "_train_examples", draw)
        name = "build_detection_network" if task[0] == "detection" else "build_estimator"
        build = getattr(signalnet, name)

        def spy(*args, **kwargs):
            freed.append(refs[0]() is None)
            return build(*args, **kwargs)

        monkeypatch.setattr(signalnet, name, spy)
        code, _, _ = _run(capsys, [
            "train", "--task", *task, "--out", str(tmp_path / "c.ckpt"),
            "--samples", "40", "--epochs", "1", "--seed", "1"])
        assert code == 0
        assert freed == [True]

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "5"), ("--snr-min", "3"), ("--snr-max", "4")])
    def test_data_rejects_frame_flags(self, capsys, tmp_path, flag, value):
        # the dataset fixes the frames, so a frame flag beside --data would
        # go unread
        base = str(tmp_path / "ds")
        _run(capsys, ["generate", "--out", base, "--count", "40", "--seed", "4"])
        ckpt = tmp_path / "det.ckpt"
        code, _, err = _run(capsys, [
            "train", "--task", "detection", "--data", base, flag, value,
            "--epochs", "1", "--out", str(ckpt)])
        assert code == 2
        assert f"{flag} does not apply with --data" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ds.labels.csv", "ds.samples.f32"]

    def test_failed_bundle_writes_nothing(self, capsys, tmp_path):
        # the detector and the m=1 chain train; the m=2 chain has no frames
        base = str(tmp_path / "ds")
        assert _run(capsys, ["generate", "--out", base, "--count", "40",
                             "--m", "1", "--m-max", "2", "--seed", "4"])[0] == 0
        code, _, err = _run(capsys, [
            "train", "--task", "bundle", "--m-max", "2", "--data", base,
            "--epochs", "1", "--out", str(tmp_path / "bundle")])
        assert code == 2
        assert f"dataset {base} has no examples with m=2" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ds.labels.csv", "ds.samples.f32"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("--lr", "0", "--lr must be finite and > 0, got 0.0"),
        ("--lr", "-0.5", "--lr must be finite and > 0, got -0.5"),
        ("--lr", "nan", "--lr must be finite and > 0, got nan"),
        ("--lr", "inf", "--lr must be finite and > 0, got inf"),
        ("--patience", "0", "--patience must be >= 1, got 0"),
        ("--samples", "0", "--samples must be >= 1, got 0")])
    def test_training_flags_out_of_range(self, capsys, tmp_path, flag, value,
                                         message):
        for task in (["detection"], ["bundle", "--m-max", "1"]):
            out = tmp_path / task[0]
            code, _, err = _run(capsys, [
                "train", "--task", *task, "--samples", "40", "--epochs", "1",
                flag, value, "--out", str(out)])
            assert code == 2, task
            assert message in err, task
            assert list(tmp_path.iterdir()) == [], task

    @pytest.mark.parametrize("task", [["detection"], ["bundle", "--m-max", "2"]])
    def test_m_applies_only_to_the_estimator(self, capsys, tmp_path, task):
        code, _, err = _run(capsys, [
            "train", "--task", *task, "--m", "3", "--samples", "40",
            "--epochs", "0", "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"--m does not apply with --task {task[0]}" in err
        assert list(tmp_path.iterdir()) == []

    def test_unset_training_flags_keep_the_config_defaults(self):
        parse = harness.build_parser().parse_args
        base = ["train", "--task", "detection", "--out", "c.ckpt"]
        fields = ("lr", "batch_size", "patience", "detection_epochs",
                  "estimator_epochs")
        default = signalnet.TrainConfig()
        cfg = harness._train_config(parse(base))
        assert [getattr(cfg, f) for f in fields] == [getattr(default, f)
                                                     for f in fields]
        cfg = harness._train_config(parse([
            *base, "--lr", "0.5", "--batch-size", "4", "--patience", "2",
            "--epochs", "3"]))
        assert [getattr(cfg, f) for f in fields] == [0.5, 4, 2, 3, 3]

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


# modules that neither `generate` nor `--version` runs
_RUN_MODULES = frozenset({"qsine.classical", "qsine.losses", "qsine.signalnet",
                          "qsine.nn", "qsine.thresholds"})


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

    def test_no_openssl_in_the_cli(self, tmp_path):
        # numpy.random imports hashlib, whose OpenSSL backend would map
        # libcrypto into every command that draws
        probe = ("import json, sys\n"
                 "from qsine.harness import main\n"
                 f"code = main(['generate', '--count', '20', '--out', {str(tmp_path / 'g')!r}])\n"
                 "try:\n"
                 "    maps = open('/proc/self/maps').read()\n"
                 "except OSError:\n"
                 "    maps = None\n"
                 "print(json.dumps({'code': code, 'random': 'numpy.random' in sys.modules,\n"
                 "    'hashlib': sys.modules.get('_hashlib') is not None,\n"
                 "    'libcrypto': None if maps is None else 'libcrypto' in maps}))\n")
        run = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                             text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        assert run.stderr == ""
        got = json.loads(run.stdout.splitlines()[-1])
        assert got["code"] == 0 and got["random"]
        assert not got["hashlib"]
        if got["libcrypto"] is None:
            pytest.skip("no /proc/self/maps to read the mappings from")
        assert not got["libcrypto"]

    @pytest.mark.parametrize("argv, absent", [
        (["generate", "--count", "20", "--out", "{tmp}/g"], _RUN_MODULES),
        (["--version"], _RUN_MODULES),
        (["eval", "--algorithms", "aic,mdl", "--bits", "3", "--n", "2",
          "--snr-min", "0", "--snr-max", "0", "--out", "{tmp}/e.csv"],
         {"qsine.signalnet", "qsine.nn"}),
        (None, {"qsine.signalnet", "qsine.nn"}),
    ])
    def test_commands_import_only_what_they_run(self, tmp_path, argv, absent):
        # one CPU, so that eval's cells run in the probed process; argv None
        # only parses a train command line
        call = ("build_parser().parse_args(['train', '--task', 'detection', "
                "'--out', 'c'])" if argv is None else
                f"main({[a.format(tmp=tmp_path) for a in argv]!r})")
        probe = ("import json, sys\n"
                 "from qsine import harness\n"
                 "from qsine.harness import build_parser, main\n"
                 "harness.available_cpus = lambda: 1\n"
                 f"{call}\n"
                 "print(json.dumps(sorted(m for m in sys.modules\n"
                 "                        if m.split('.')[0] == 'qsine')))\n")
        run = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                             text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        assert run.returncode == 0, run.stderr
        loaded = set(json.loads(run.stdout.splitlines()[-1]))
        assert "qsine.signals" in loaded or argv is None
        assert not loaded & absent, sorted(loaded & absent)
        if absent is _RUN_MODULES:
            assert loaded == {"qsine", "qsine.harness", "qsine.quantize",
                              "qsine.signals", "qsine.tones"}

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
