"""Each benchmark check accepts a correct output and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
from qsine import losses, thresholds  # noqa: E402
from qsine.classical import aic_mdl_detect, classical_estimate  # noqa: E402
from qsine.quantize import bussgang_gain, make_quantizer  # noqa: E402
from qsine.signals import GenConfig, ParameterSet, make_dataset  # noqa: E402

NFFT = 2**16


@pytest.fixture(scope="module")
def frames():
    return {bits: make_dataset(GenConfig(bits=bits, seed=5, snr_db=5.0), 6) for bits in (1, 3)}


# --- the benchmark's own closed forms agree with the program's -------------

@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_own_quantizer_and_gain(bits):
    q = make_quantizer(bits)
    assert np.array_equal(C.quantizer_levels(bits), q.levels)
    assert C.bussgang_gain(bits) == pytest.approx(bussgang_gain(q, 1 / math.sqrt(2)), rel=1e-13)


def test_own_thresholds():
    assert C.best_constant_loss(np.arange(1, 6)) == pytest.approx(thresholds.detection_threshold(5)[1], rel=1e-12)
    for m in range(1, 6):
        assert C.frequency_threshold(m, 64) == thresholds.frequency_threshold(m, 64)


# --- dataset files -----------------------------------------------------------

def _write_dataset(tmp_path, x, rows):
    x.astype("<f4").tofile(tmp_path / "d.samples.f32")
    lines = ["qsine-dataset v1, N=64, M=5, bits=3"]
    for i, (m, a, f, p) in enumerate(rows):
        lines.append(",".join([str(i), str(m), "10.0", *map(repr, a), *map(repr, f), *map(repr, p)]))
    (tmp_path / "d.labels.csv").write_text("\n".join(lines) + "\n")


def test_samples_off_the_levels_rejected(tmp_path):
    x = np.tile(C.quantizer_levels(3), 16).reshape(1, 64, 2)
    _write_dataset(tmp_path, x, [])
    C.check_samples_on_levels(tmp_path / "d.samples.f32", 3, 1)
    x[0, 5, 1] = 0.5
    _write_dataset(tmp_path, x, [])
    with pytest.raises(C.CheckFailed, match="off the 8 quantizer levels"):
        C.check_samples_on_levels(tmp_path / "d.samples.f32", 3, 1)
    with pytest.raises(C.CheckFailed, match="expected 2"):
        C.check_samples_on_levels(tmp_path / "d.samples.f32", 3, 2)


@pytest.mark.parametrize("row, message", [
    ((2, [0.5, 0.5], [0.3, 0.2], [1.0, 1.0]), "not ascending"),
    ((1, [0.5], [0.5], [1.0]), r"outside \(0, 0.5\)"),
    ((1, [0.5], [0.2], [2 * math.pi]), "phase outside"),
    ((1, [0.05], [0.2], [1.0]), "amplitude outside"),
])
def test_label_out_of_range_rejected(tmp_path, row, message):
    good = (2, [0.5, 0.9], [0.1, 0.2], [0.0, 6.0])
    _write_dataset(tmp_path, np.zeros((0, 64, 2)), [good])
    C.check_label_rows(tmp_path / "d.labels.csv", 1)
    _write_dataset(tmp_path, np.zeros((0, 64, 2)), [good, row])
    with pytest.raises(C.CheckFailed, match=message):
        C.check_label_rows(tmp_path / "d.labels.csv", 2)


def test_training_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("epoch,train_loss,val_loss,lr\n0,2.0,2.1,0.001\n1,1.5,1.9,0.001\n")
    C.check_training_log(path, 2)
    with pytest.raises(C.CheckFailed, match="expected 3"):
        C.check_training_log(path, 3)
    path.write_text("epoch,train_loss,val_loss,lr\n0,2.0,2.1,0.001\n1,2.0,1.9,0.001\n")
    with pytest.raises(C.CheckFailed, match="not below the first"):
        C.check_training_log(path, 2)
    path.write_text("epoch,train_loss,val_loss,lr\n0,2.0,nan,0.001\n1,1.5,1.9,0.001\n")
    with pytest.raises(C.CheckFailed, match="not finite"):
        C.check_training_log(path, 2)


# --- model quality -------------------------------------------------------------

def test_constant_detector_rejected():
    counts = np.random.default_rng(0).integers(1, 6, size=500)
    C.check_loss_below_constant(float(np.mean(C.detection_loss(counts, counts + 0.3))), counts, "good")
    for c in (3.0, 3.3, 4.0):
        with pytest.raises(C.CheckFailed, match="not below the best constant"):
            C.check_loss_below_constant(float(np.mean(C.detection_loss(counts, c))), counts, f"constant {c}")


def test_constant_frequency_estimator_rejected():
    F = np.sort(np.random.default_rng(1).uniform(0, 0.5, size=(400, 3)), axis=1)
    noisy = F + np.random.default_rng(2).normal(0, 0.01, F.shape)
    C.check_frequency_mse_below_variance(float(np.mean((noisy - F) ** 2)), F, "good")
    const = np.broadcast_to(F.mean(axis=0), F.shape)
    with pytest.raises(C.CheckFailed, match="not below the per-index label variance"):
        C.check_frequency_mse_below_variance(float(np.mean((const - F) ** 2)), F, "constant")


# --- eval CSVs -------------------------------------------------------------------

def _rows(keys, n=10, seed=3, value=0.5):
    return [{"algorithm": a, "bits": str(b), "m": m, "snr_db": repr(s), "metric": k,
             "value": repr(value), "n_trials": str(1 if a == "threshold" else n), "seed": str(seed)}
            for a, b, m, s, k in keys]


def test_missing_or_wrong_rows_rejected():
    keys = C.expected_eval_keys(["aic", "mdl"], [1, 3], [0.0, 5.0])
    rows = _rows(keys)
    C.check_csv_complete(rows, keys, 10, 3, "csv")
    with pytest.raises(C.CheckFailed, match="missing"):
        C.check_csv_complete(rows[1:], keys, 10, 3, "csv")
    bad = _rows(keys)
    bad[-1]["n_trials"] = "9"
    with pytest.raises(C.CheckFailed, match="n_trials"):
        C.check_csv_complete(bad, keys, 10, 3, "csv")
    bad = _rows(keys)
    bad[-1]["value"] = "inf"
    with pytest.raises(C.CheckFailed, match="non-finite"):
        C.check_csv_complete(bad, keys, 10, 3, "csv")


def test_wrong_threshold_row_rejected():
    def row(m, metric, value):
        return {"algorithm": "threshold", "bits": "3", "m": str(m), "snr_db": "0.0", "metric": metric,
                "value": repr(value)}
    good = [row(m, "freq_mse_db", 10 * math.log10(thresholds.frequency_threshold(m, 64))) for m in range(1, 6)]
    good += [row(1, "amp_mse_db", 10 * math.log10(0.0675)), row(1, "phase_mse", math.pi**2 / 3),
             row("joint", "detection_loss", thresholds.detection_threshold(5)[1])]
    C.check_threshold_rows(good)
    for i in range(len(good)):
        bad = [dict(r) for r in good]
        bad[i]["value"] = repr(float(bad[i]["value"]) * (1 + 1e-6))
        with pytest.raises(C.CheckFailed, match="closed form gives"):
            C.check_threshold_rows(bad)


# --- classical estimates -------------------------------------------------------------

@pytest.mark.parametrize("bits", [1, 3])
def test_shifted_bin_rejected(frames, bits):
    q = make_quantizer(bits)
    for ex in frames[bits]:
        m = ex.label.m
        est = classical_estimate(ex.x, m, qspec=q, nfft=NFFT)
        C.check_periodogram_picks(ex.x, bits, m, est.freqs, est.amps, est.phases, NFFT, "program")
        for shift in (-1, 1):
            f = est.freqs.copy()
            f[0] += shift / NFFT
            with pytest.raises(C.CheckFailed, match="not a local maximum"):
                C.check_periodogram_picks(ex.x, bits, m, f, est.amps, est.phases, NFFT, "shifted")
        with pytest.raises(C.CheckFailed, match="amplitude"):
            C.check_periodogram_picks(ex.x, bits, m, est.freqs, est.amps * 1.001, est.phases, NFFT, "amp")
        with pytest.raises(C.CheckFailed, match="phase"):
            C.check_periodogram_picks(ex.x, bits, m, est.freqs, est.amps, (est.phases + 1e-6) % (2 * math.pi),
                                      NFFT, "phase")


@pytest.mark.parametrize("bits", [1, 3])
@pytest.mark.parametrize("crit", ["aic", "mdl"])
def test_wrong_count_rejected(frames, bits, crit):
    q = make_quantizer(bits)
    for ex in frames[bits]:
        count = aic_mdl_detect(ex.x, criterion=crit, qspec=q)
        C.check_aic_mdl_count(ex.x, bits, crit, count, "program")
        wrong = count + 1 if count < 5 else count - 1
        with pytest.raises(C.CheckFailed, match="singular values give"):
            C.check_aic_mdl_count(ex.x, bits, crit, wrong, "wrong")


# --- SignalNet scoring ---------------------------------------------------------------

def test_chamfer_matches_program_and_rejects_wrong_mean():
    rng = np.random.default_rng(4)
    truths, ests, program = [], [], []
    for m, k in [(1, 2), (3, 3), (5, 2), (2, 4)]:
        t = (rng.uniform(0.1, 1, m), np.sort(rng.uniform(0, 0.5, m)), rng.uniform(0, 6, m))
        e = (rng.uniform(0, 1, k), rng.uniform(0, 0.5, k), rng.uniform(0, 6, k))
        thr = losses.LossVector(0.0675, thresholds.frequency_threshold(m, 64), math.pi**2 / 3)
        program.append(losses.normalized_chamfer(ParameterSet(m, *t), ParameterSet(k, *e), thr))
        truths.append(t)
        ests.append(e)
    value = float(np.mean(program))
    C.check_chamfer_mean(value, truths, ests, "program")
    with pytest.raises(C.CheckFailed, match="own sum gives"):
        C.check_chamfer_mean(value * (1 + 1e-6), truths, ests, "wrong")


def test_different_inference_rejected():
    est = (np.array([0.5]), np.array([0.1]), np.array([1.0]))
    single = [(1, est), (2, (np.ones(2), np.ones(2), np.ones(2)))]
    batch = [est, (np.ones(2), np.ones(2), np.ones(2))]
    C.check_same_inference(single, [1, 2], batch, "same")
    with pytest.raises(C.CheckFailed, match="count"):
        C.check_same_inference(single, [1, 3], batch, "count")
    with pytest.raises(C.CheckFailed, match="freqs"):
        C.check_same_inference(single, [1, 2], [(est[0], est[1] + 1e-3, est[2]), batch[1]], "estimate")


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import run
    import spans
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
