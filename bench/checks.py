"""Output checks of the qsine benchmark.

Every expected value here is computed by the benchmark's own code from the
method's definition: quantizer levels, label ranges, closed-form learning
thresholds, a direct DTFT sum, the singular values of the sliding-window
matrix, the heavy-sided detection loss and the normalized Chamfer distance.
No check compares against a stored copy of earlier output. Each check raises
CheckFailed with a message that names what was wrong.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
AMP_THRESHOLD = 0.9**2 / 12.0  # Var U(0.1, 1) = 0.0675
PHASE_THRESHOLD = math.pi**2 / 3.0  # E[(phi - pi)^2] for phi ~ U(0, 2 pi)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# closed forms, written from the method's definition
# --------------------------------------------------------------------------

def quantizer_levels(bits: int) -> np.ndarray:
    """The 2^b levels -1 + 2i/(2^b - 1) of the uniform quantizer."""
    n = 2**bits
    return np.array([-1.0 + 2.0 * i / (n - 1) for i in range(n)])


def bussgang_gain(bits: int, sigma: float = 1.0 / math.sqrt(2.0)) -> float:
    """E[x Q(x)] / E[x^2] for x ~ Normal(0, sigma^2), by integrating x phi(x)
    over each decision cell: the integral of x phi_sigma(x) from a to b is
    sigma^2 (phi_sigma(a) - phi_sigma(b))."""
    levels = quantizer_levels(bits)
    edges = [-math.inf] + [(a + b) / 2.0 for a, b in zip(levels, levels[1:])] + [math.inf]

    def pdf(t):
        if math.isinf(t):
            return 0.0
        return math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))

    exq = sum(lv * sigma**2 * (pdf(lo) - pdf(hi))
              for lv, lo, hi in zip(levels, edges, edges[1:]))
    return exq / sigma**2


def frequency_threshold(m: int, N: int) -> float:
    return 1.0 / 64.0 + (1.0 - 1.0 / m) * (5.0 / (2.0 * N)) * (1.0 - 2.0 / math.pi)


def detection_loss(m, mhat) -> np.ndarray:
    """e^(m - mhat) - 1 when counting low or exact, (m - mhat)^2 / 2 when high."""
    d = np.asarray(m, dtype=np.float64) - np.asarray(mhat, dtype=np.float64)
    return np.where(d >= 0.0, np.exp(d) - 1.0, 0.5 * d * d)


def best_constant_loss(counts) -> float:
    """Lowest mean detection loss of any constant (fractional) count.

    The mean loss is convex in the constant, so a ternary search over
    [min count, max count] finds the minimum."""
    counts = np.asarray(counts, dtype=np.float64)
    lo, hi = float(counts.min()), float(counts.max())
    for _ in range(200):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if np.mean(detection_loss(counts, a)) <= np.mean(detection_loss(counts, b)):
            hi = b
        else:
            lo = a
    return float(np.mean(detection_loss(counts, 0.5 * (lo + hi))))


def per_index_label_variance(F: np.ndarray) -> float:
    """Mean over label indices of the frequency variance: the MSE of the best
    constant estimator that outputs one value per index."""
    return float(np.mean(np.var(np.asarray(F, dtype=np.float64), axis=0)))


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


# --------------------------------------------------------------------------
# dataset files (own reader)
# --------------------------------------------------------------------------

def read_samples(path, N: int = 64) -> np.ndarray:
    """Frames of a .samples.f32 file: little-endian float32, (count, N, 2)."""
    raw = np.fromfile(path, dtype="<f4")
    require(raw.size % (2 * N) == 0, f"{path}: {raw.size} floats, not a multiple of {2 * N}")
    return raw.reshape(-1, N, 2)


def read_labels(path) -> tuple[str, list[tuple[int, float, list, list, list]]]:
    """Header line and rows (m, snr_db, amps, freqs, phases) of a .labels.csv."""
    lines = Path(path).read_text().splitlines()
    require(len(lines) >= 2, f"{path}: no label rows")
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        require(int(cells[0]) == i, f"{path}: row {i} has index {cells[0]}")
        m = int(cells[1])
        vals = [float(c) for c in cells[3:]]
        require(len(vals) == 3 * m, f"{path}: row {i} has {len(vals)} values for m={m}")
        rows.append((m, float(cells[2]), vals[:m], vals[m:2 * m], vals[2 * m:]))
    return lines[0], rows


def check_samples_on_levels(path, bits: int, count: int, N: int = 64) -> None:
    X = read_samples(path, N)
    require(len(X) == count, f"{path}: {len(X)} frames, expected {count}")
    levels = quantizer_levels(bits).astype(np.float32)
    off = ~np.isin(X, levels)
    require(not off.any(), f"{path}: {int(off.sum())} values off the {2**bits} "
            f"quantizer levels, e.g. {X[off][:3].tolist()}")


def check_label_rows(path, count: int, m_max: int = 5, m_fixed: int | None = None,
                     snr_range: tuple[float, float] | None = None) -> None:
    header, rows = read_labels(path)
    require(header.startswith("qsine-dataset v1"), f"{path}: bad header {header!r}")
    require(len(rows) == count, f"{path}: {len(rows)} label rows, expected {count}")
    for i, (m, snr, amps, freqs, phases) in enumerate(rows):
        where = f"{path} row {i}"
        require(1 <= m <= m_max, f"{where}: m={m} outside 1..{m_max}")
        require(m_fixed is None or m == m_fixed, f"{where}: m={m}, expected {m_fixed}")
        if snr_range is not None:
            require(snr_range[0] <= snr <= snr_range[1], f"{where}: snr {snr} outside {snr_range}")
        require(all(0.0 < f < 0.5 for f in freqs), f"{where}: frequency outside (0, 0.5): {freqs}")
        require(all(a < b for a, b in zip(freqs, freqs[1:])), f"{where}: frequencies not ascending: {freqs}")
        require(all(0.0 <= p < TWO_PI for p in phases), f"{where}: phase outside [0, 2pi): {phases}")
        require(all(0.1 <= a <= 1.0 for a in amps), f"{where}: amplitude outside [0.1, 1]: {amps}")


def check_training_log(path, epochs: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == epochs, f"{path}: {len(rows)} epochs logged, expected {epochs}")
    require([int(r["epoch"]) for r in rows] == list(range(epochs)), f"{path}: epochs out of order")
    for r in rows:
        for key in ("train_loss", "val_loss", "lr"):
            require(math.isfinite(float(r[key])), f"{path}: {key} not finite in epoch {r['epoch']}")
    first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
    require(last < first, f"{path}: last train loss {last} not below the first {first}")


# --------------------------------------------------------------------------
# model quality against the best input-independent estimator
# --------------------------------------------------------------------------

def check_loss_below_constant(loss: float, counts, what: str) -> None:
    """loss: a detector's mean detection loss on frames with these counts."""
    const = best_constant_loss(counts)
    require(loss < const, f"{what}: detection loss {loss:.4f} not below the best "
            f"constant count's {const:.4f}")


def check_frequency_mse_below_variance(mse: float, F_true, what: str) -> None:
    var = per_index_label_variance(F_true)
    require(mse < var, f"{what}: frequency MSE {mse:.6g} not below the per-index "
            f"label variance {var:.6g}")


# --------------------------------------------------------------------------
# eval / ood CSVs
# --------------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_key(r: dict) -> tuple:
    key = (r["algorithm"], int(r["bits"]), r["m"], float(r["snr_db"]), r["metric"])
    return key + ((r["freq_mode"],) if "freq_mode" in r else ())


def threshold_keys(bits, snrs, m_max: int = 5) -> list[tuple]:
    keys = []
    for b in bits:
        for s in snrs:
            for m in range(1, m_max + 1):
                keys += [("threshold", b, str(m), s, k) for k in ("freq_mse_db", "amp_mse_db", "phase_mse")]
            keys.append(("threshold", b, "joint", s, "detection_loss"))
    return keys


ESTIMATOR_METRICS = ("freq_mse_db", "amp_mse_db", "phase_mse", "chamfer_norm")


def expected_eval_keys(algorithms, bits, snrs, m_max: int = 5) -> list[tuple]:
    """Row keys (algorithm, bits, m, snr, metric) `qsine eval` must write."""
    keys = threshold_keys(bits, snrs, m_max)
    for b in bits:
        for s in snrs:
            for alg in algorithms:
                if alg in ("periodogram", "nn_est"):
                    keys += [(alg, b, str(m), s, k) for m in range(1, m_max + 1) for k in ESTIMATOR_METRICS]
                if alg in ("aic", "mdl", "nn_detect", "signalnet"):
                    keys.append((alg, b, "joint", s, "detection_loss"))
                if alg in ("signalnet", "aic_periodogram"):
                    keys.append((alg, b, "joint", s, "chamfer_norm"))
    return keys


def expected_ood_keys(bits: int, m: int, snrs) -> list[tuple]:
    return [("nn_est", bits, str(m), s, k, mode)
            for s in snrs for k in ESTIMATOR_METRICS for mode in ("in_dist", "ood")]


def check_csv_complete(rows: list[dict], expected: list[tuple], n: int, seed: int, what: str) -> None:
    """Exactly the expected rows, each once, all finite, n_trials = --n (1 on
    the closed-form threshold rows) and the run's seed."""
    got = sorted(row_key(r) for r in rows)
    want = sorted(expected)
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        raise CheckFailed(f"{what}: {len(got)} rows, expected {len(want)}; "
                          f"missing {missing}, unexpected {extra}")
    for r in rows:
        require(math.isfinite(float(r["value"])), f"{what}: non-finite value in {row_key(r)}")
        trials = 1 if r["algorithm"] == "threshold" else n
        require(int(r["n_trials"]) == trials, f"{what}: n_trials {r['n_trials']} in {row_key(r)}, expected {trials}")
        require(int(r["seed"]) == seed, f"{what}: seed {r['seed']} in {row_key(r)}, expected {seed}")


def check_threshold_rows(rows: list[dict], N: int = 64, m_max: int = 5, tol: float = 1e-9) -> None:
    """Threshold rows equal the closed forms: frequency 1/64 + (1-1/m)(5/(2N))(1-2/pi)
    and amplitude 0.0675 in dB, phase pi^2/3, and the best constant count's
    loss for m ~ Uniform{1..M}."""
    det = best_constant_loss(np.arange(1, m_max + 1))
    for r in rows:
        if r["algorithm"] != "threshold":
            continue
        v = float(r["value"])
        if r["metric"] == "freq_mse_db":
            want = _db(frequency_threshold(int(r["m"]), N))
        elif r["metric"] == "amp_mse_db":
            want = _db(AMP_THRESHOLD)
        elif r["metric"] == "phase_mse":
            want = PHASE_THRESHOLD
        else:
            want = det
        require(abs(v - want) <= tol * max(1.0, abs(want)),
                f"threshold row {row_key(r)} = {v!r}, closed form gives {want!r}")


def csv_value(rows: list[dict], algorithm: str, bits: int, m, snr: float, metric: str) -> float:
    for r in rows:
        if row_key(r)[:5] == (algorithm, bits, str(m), snr, metric):
            return float(r["value"])
    raise CheckFailed(f"no row {(algorithm, bits, m, snr, metric)}")


# --------------------------------------------------------------------------
# classical estimates, from the definition of each method
# --------------------------------------------------------------------------

def linearized_frame(x_iq: np.ndarray, bits: int) -> np.ndarray:
    x = np.asarray(x_iq, dtype=np.float64)
    return (x[:, 0] + 1j * x[:, 1]) / bussgang_gain(bits)


def dtft(z: np.ndarray, bins, nfft: int) -> np.ndarray:
    """Direct sum X(k) = sum_n z[n] exp(-j 2 pi k n / nfft) at the given bins."""
    n = np.arange(len(z))
    k = np.asarray(bins, dtype=np.float64)
    return np.exp(-1j * TWO_PI * np.outer(k, n) / nfft) @ z


def check_periodogram_picks(x_iq, bits: int, m: int, freqs, amps, phases,
                            nfft: int, what: str, rtol: float = 1e-12, atol: float = 1e-9) -> None:
    """Each picked bin k = f * nfft lies in (0, nfft/2), is a local maximum of
    |X| (|X(k)| > |X(k-1)| and >= |X(k+1)|, up to float64 rounding), and the
    estimate's amplitude |X(k)|/N and phase arg X(k) match the direct sum."""
    z = linearized_frame(x_iq, bits)
    N = len(z)
    freqs, amps, phases = (np.asarray(v, dtype=np.float64) for v in (freqs, amps, phases))
    require(len(freqs) == m, f"{what}: {len(freqs)} picks, expected {m}")
    require(bool(np.all(np.diff(freqs) > 0)), f"{what}: picks not ascending: {freqs}")
    for f, a, p in zip(freqs, amps, phases):
        k = f * nfft
        require(k == round(k) and 0 < k < nfft // 2, f"{what}: frequency {f} is not a bin in (0, 0.5)")
        spectrum = dtft(z, [k - 1, k, k + 1], nfft)
        below, at, above = np.abs(spectrum)
        X = spectrum[1]
        require(at > below * (1 + rtol) and at >= above * (1 - rtol),
                f"{what}: bin {int(k)} is not a local maximum "
                f"(|X| = {below:.12g}, {at:.12g}, {above:.12g})")
        require(abs(a - abs(X) / N) <= atol, f"{what}: amplitude {a!r} at bin {int(k)}, "
                f"spectrum gives {abs(X) / N!r}")
        dphi = (p - np.angle(X) + math.pi) % TWO_PI - math.pi
        require(abs(dphi) <= atol and 0.0 <= p < TWO_PI,
                f"{what}: phase {p!r} at bin {int(k)}, spectrum gives {np.angle(X) % TWO_PI!r}")


def aic_mdl_count(x_iq, bits: int, criterion: str, L: int = 16, m_max: int = 5) -> int:
    """Wax-Kailath count from the singular values s_i of the L x K matrix of
    sliding length-L windows: the covariance eigenvalues are s_i^2 / K."""
    z = linearized_frame(x_iq, bits)
    K = len(z) - L + 1
    Y = np.array([z[i:i + L] for i in range(K)]).T
    ev = np.linalg.svd(Y, compute_uv=False) ** 2 / K  # descending
    ev = np.maximum(ev, 1e-12)
    scores = []
    for k in range(1, m_max + 1):
        tail = ev[k:]
        ratio = np.exp(np.mean(np.log(tail))) / np.mean(tail)  # geometric / arithmetic
        llr = -K * (L - k) * math.log(ratio)
        if criterion == "aic":
            scores.append(2.0 * llr + 2.0 * k * (2 * L - k))
        else:
            scores.append(llr + 0.5 * k * (2 * L - k) * math.log(K))
    return int(np.argmin(scores)) + 1


def check_aic_mdl_count(x_iq, bits: int, criterion: str, count: int, what: str,
                        L: int = 16, m_max: int = 5) -> None:
    want = aic_mdl_count(x_iq, bits, criterion, L, m_max)
    require(count == want, f"{what}: {criterion} count {count}, singular values give {want}")


# --------------------------------------------------------------------------
# SignalNet scoring
# --------------------------------------------------------------------------

def normalized_chamfer(truth: tuple, est: tuple, m_true: int, N: int = 64) -> float:
    """Sum over (amps, freqs, phases) of the symmetric nearest-neighbour
    distance between the true and estimated sets, each divided by the square
    root of its learning threshold, over the true count."""
    total = 0.0
    for t, e, thr in zip(truth, est, (AMP_THRESHOLD, frequency_threshold(m_true, N), PHASE_THRESHOLD)):
        t = np.asarray(t, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        d = np.abs(t[:, None] - e[None, :])
        total += (d.min(axis=1).sum() + d.min(axis=0).sum()) / math.sqrt(thr)
    return total / m_true


def check_chamfer_mean(value: float, truths: list, ests: list, what: str, rtol: float = 1e-9) -> None:
    own = float(np.mean([normalized_chamfer(t, e, len(t[0])) for t, e in zip(truths, ests)]))
    require(abs(value - own) <= rtol * abs(own), f"{what}: chamfer_norm {value!r}, own sum gives {own!r}")


def check_same_inference(single: list, batch_counts, batch_sets: list, what: str,
                         rtol: float = 1e-5, atol: float = 1e-6) -> None:
    """single: (count, (amps, freqs, phases)) per frame from one-frame
    inference; batch_*: the batched pipeline on the same frames."""
    require(len(single) == len(batch_counts) == len(batch_sets),
            f"{what}: {len(single)} frames one at a time, {len(batch_counts)} batched")
    for i, ((c, est), cb, eb) in enumerate(zip(single, batch_counts, batch_sets)):
        require(int(c) == int(cb), f"{what}: frame {i} count {c} one at a time, {cb} batched")
        for name, a, b in zip(("amps", "freqs", "phases"), est, eb):
            require(np.allclose(a, b, rtol=rtol, atol=atol),
                    f"{what}: frame {i} {name} {np.asarray(a).tolist()} one at a time, "
                    f"{np.asarray(b).tolist()} batched")
