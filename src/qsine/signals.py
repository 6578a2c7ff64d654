"""Multi-sinusoid frame synthesis and labeled dataset generation.

A frame is N complex baseband samples

    u[n] = sum_i a_i * exp(j*(2*pi*f_i*n + phi_i)),   n = 0..N-1,

with normalized frequencies f_i in (0, 0.5) cycles/sample. One labeled
example draws its label (`draw_parameters`), synthesizes u (see
qsine.tones), adds complex Gaussian noise at its SNR, scales the noisy frame
to unit average per-sample power (||s||^2 = N, so each real component is
approximately Normal(0, 1/2) for the Bussgang linearization downstream),
quantizes it (see qsine.quantize) and stores it as an N x 2 IQ matrix.

A generated or loaded dataset is a `Dataset`: one array per field, row i
holding example i (the IQ frames, counts, padded labels and SNRs). It
indexes and iterates as `LabeledExample`s. `make_dataset` builds it in two
phases that give the same bytes as taking those steps frame by frame (the
per-frame reference is tests/oracles.py):

1. per frame, in index order: the SNR, the label (count, frequencies with
   rejection, amplitudes, phases) and the noise are drawn from the frame's
   own substream;
2. per group of frames with equal count: synthesis, noise addition, power
   normalization and quantization run on the whole group at once.

Randomness: every example draws from its own substream keyed by
(seed, example index), so datasets are reproducible and independent of any
parallel generation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import make_quantizer, quantize
from .tones import TWO_PI, to_complex, to_iq, tone_sum

# phase 2 of make_dataset handles at most this many frames of a count group
# at once, so its (frames, N, m) temporaries stay small beside the frames
# themselves; larger chunks ran no faster
GROUP_CHUNK = 32

# Give up on rejection sampling after this many attempts (probability ~0 for
# sane configs; guards against a pathological config looping forever).
REJECTION_CAP = 10**6

DATASET_MAGIC = "qsine-dataset v1"


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, *key).

    Args:
        seed: base 64-bit seed.
        *key: integers identifying the substream (e.g. an example index).

    Returns:
        An independent numpy Generator; the same (seed, key) always yields
        the same stream regardless of what other substreams were consumed.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _float_vector(v) -> np.ndarray:
    # a 1-D float64 ndarray passes through as the same object, exactly as
    # np.atleast_1d(np.asarray(v, dtype=np.float64)) would return it
    if type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64:
        return v
    return np.atleast_1d(np.asarray(v, dtype=np.float64))


@dataclass
class ParameterSet:
    """Label or estimate for one frame: m sinusoids with (a, f, phi) vectors.

    Generated labels satisfy: freqs strictly ascending in (0, 0.5), phases in
    [0, 2*pi), amps in [0.1, 1.0]. Estimates produced by models reuse this
    container without those range guarantees; call validate() where the label
    contract matters.
    """

    m: int
    amps: np.ndarray
    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.amps = _float_vector(self.amps)
        self.freqs = _float_vector(self.freqs)
        self.phases = _float_vector(self.phases)
        if not (len(self.amps) == len(self.freqs) == len(self.phases) == self.m):
            raise ValueError(
                f"parameter vectors must all have length m={self.m}: got "
                f"{len(self.amps)}/{len(self.freqs)}/{len(self.phases)}"
            )

    def validate(self) -> "ParameterSet":
        """Checks the generated-label invariants; returns self."""
        # m <= M is small: Python scalar comparisons beat numpy reductions
        if self.m < 1:
            raise ValueError("label must contain at least one sinusoid")
        f = self.freqs.tolist()
        if not all(0.0 < v < 0.5 for v in f):
            raise ValueError(f"frequencies out of (0, 0.5): {self.freqs}")
        if not all(lo < hi for lo, hi in zip(f, f[1:])):
            raise ValueError(f"frequencies not strictly ascending: {self.freqs}")
        if not all(0.0 <= v < TWO_PI for v in self.phases.tolist()):
            raise ValueError(f"phases out of [0, 2*pi): {self.phases}")
        return self


@dataclass
class GenConfig:
    """Dataset generation settings.

    Attributes:
        N: frame length in samples.
        M: maximum sinusoid count; labels draw m ~ Uniform{1..M}.
        snr_db: per-example SNR in dB (ignored when snr_range is set).
        bits: quantizer resolution b.
        seed: base RNG seed; example i uses substream (seed, i).
        freq_mode: "in_distribution" (offset + folded-normal jitter) or
            "ood_uniform" (uniform on (0, 0.5) with min spacing 1/N).
        m_fixed: when set, every label has exactly this count (used to build
            per-m estimator training sets).
        snr_range: when set, each example draws snr_db ~ U(lo, hi).
    """

    N: int = 64
    M: int = 5
    snr_db: float = 10.0
    bits: int = 3
    seed: int = 0
    freq_mode: str = "in_distribution"
    m_fixed: int | None = None
    snr_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.freq_mode not in ("in_distribution", "ood_uniform"):
            raise ValueError(f"unknown freq_mode {self.freq_mode!r}")
        if self.m_fixed is not None and not (1 <= self.m_fixed <= self.M):
            raise ValueError(f"m_fixed must be in 1..{self.M}")
        if self.snr_range is not None:
            lo, hi = self.snr_range
            if not lo <= hi:
                raise ValueError("snr_range must be (lo, hi) with lo <= hi")


@dataclass
class LabeledExample:
    """One generated frame: quantized IQ data, its label, and the SNR used."""

    x: np.ndarray  # (N, 2) real
    label: ParameterSet
    snr_db: float


@dataclass
class Dataset:
    """Labeled frames as arrays; row i is example i.

    Attributes:
        x: (n, N, 2) float64 quantized IQ frames.
        counts: (n,) int64 sinusoid counts.
        amps, freqs, phases: (n, K) float64 labels, K the widest label; row
            i holds its counts[i] values first and NaN after them.
        snr_db: (n,) float64 SNRs in dB.

    An integer index gives a LabeledExample whose x and label vectors are
    views into these arrays. A slice, an index array or a boolean mask gives
    the Dataset of those rows.
    """

    x: np.ndarray
    counts: np.ndarray
    amps: np.ndarray
    freqs: np.ndarray
    phases: np.ndarray
    snr_db: np.ndarray

    def __post_init__(self):
        n = len(self.x)
        if not (len(self.counts) == len(self.amps) == len(self.freqs)
                == len(self.phases) == len(self.snr_db) == n):
            raise ValueError("dataset arrays must all have one row per frame")

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            m = int(self.counts[index])
            label = ParameterSet(m=m, amps=self.amps[index, :m],
                                 freqs=self.freqs[index, :m],
                                 phases=self.phases[index, :m])
            return LabeledExample(x=self.x[index], label=label,
                                  snr_db=float(self.snr_db[index]))
        return Dataset(x=self.x[index], counts=self.counts[index],
                       amps=self.amps[index], freqs=self.freqs[index],
                       phases=self.phases[index], snr_db=self.snr_db[index])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _noise_sigma(snr_db: float, signal_power: float) -> float | None:
    # per-component noise standard deviation; None for the +inf sentinel
    if signal_power <= 0:
        raise ValueError("signal_power must be > 0")
    if math.isinf(snr_db) and snr_db > 0:
        return None
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    var = signal_power / 10.0 ** (snr_db / 10.0)
    return math.sqrt(var / 2.0)


def _draw_freqs_in_distribution(m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    # f_1 = w0 ~ U(0, 0.25); f_{i+1} = w0 + i/N + |Normal(0, 2.5/N)|.
    # The whole set is redrawn while any f >= 0.5. Offsets share the single
    # anchor w0 (they do not accumulate), so the raw draw order is not always
    # ascending and the set is sorted before the range check. Every offset
    # entry exceeds w0, so after sorting f[0] = w0 and f[-1] is the largest.
    # Python floats: m <= M is too small for numpy to pay off, and the
    # arithmetic is the same IEEE double arithmetic in the same order.
    sigma = math.sqrt(2.5 / N)
    for _ in range(REJECTION_CAP):
        w0 = rng.uniform(0.0, 0.25)
        f = [w0]
        if m > 1:
            jitter = np.abs(rng.normal(0.0, sigma, size=m - 1)).tolist()
            f += [w0 + i / N + j for i, j in enumerate(jitter, start=1)]
            f.sort()
        if f[0] > 0.0 and f[-1] < 0.5:
            return np.array(f)
    raise RuntimeError(f"frequency rejection sampling exceeded {REJECTION_CAP} attempts")


def _draw_freqs_ood(m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    # Uniform on (0, 0.5); fully regenerated until all pairwise spacings >= 1/N.
    for _ in range(REJECTION_CAP):
        f = np.sort(rng.uniform(0.0, 0.5, size=m))
        if f[0] <= 0.0:
            continue
        if m == 1 or np.diff(f).min() >= 1.0 / N:
            return f
    raise RuntimeError(f"frequency rejection sampling exceeded {REJECTION_CAP} attempts")


def draw_parameters(cfg: GenConfig, rng: np.random.Generator) -> ParameterSet:
    """Draws one label: m, then frequencies (with rejection), then (a, phi).

    In-distribution mode rejects and redraws the frequency set only; the
    amplitude/phase draws happen once, afterwards. Returned frequencies are
    sorted ascending (the canonical label order).
    """
    if cfg.m_fixed is not None:
        m = cfg.m_fixed
    else:
        m = int(rng.integers(1, cfg.M + 1))
    if cfg.freq_mode == "in_distribution":
        freqs = _draw_freqs_in_distribution(m, cfg.N, rng)
    else:
        freqs = _draw_freqs_ood(m, cfg.N, rng)
    amps = rng.uniform(0.1, 1.0, size=m)
    phases = rng.uniform(0.0, TWO_PI, size=m)
    return ParameterSet(m=m, amps=amps, freqs=freqs, phases=phases).validate()


def make_dataset(cfg: GenConfig, count: int) -> Dataset:
    """Generates `count` labeled examples deterministically from cfg.seed;
    row i is the pipeline above on substream (cfg.seed, i), whatever `count`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    spec = make_quantizer(cfg.bits)
    n, N = count, cfg.N
    width = cfg.m_fixed if cfg.m_fixed is not None else cfg.M
    x = np.empty((n, N, 2))
    counts = np.empty(n, dtype=np.int64)
    amps, freqs, phases = (np.full((n, width), np.nan) for _ in range(3))
    snrs = np.empty(n)
    # phase 1, per frame in index order: the SNR, label and noise draws of
    # the frame's substream; x holds the noise until phase 2. A noiseless
    # frame gets zeros: adding them can flip only the sign of a zero sample,
    # and both signs quantize to the same level.
    for row in range(n):
        rng = substream(cfg.seed, row)
        if cfg.snr_range is not None:
            snr_db = float(rng.uniform(cfg.snr_range[0], cfg.snr_range[1]))
        else:
            snr_db = float(cfg.snr_db)
        params = draw_parameters(cfg, rng)
        m = params.m
        counts[row] = m
        snrs[row] = snr_db
        amps[row, :m] = params.amps
        freqs[row, :m] = params.freqs
        phases[row, :m] = params.phases
        sigma = _noise_sigma(snr_db, float(np.sum(params.amps**2)))
        if sigma is None:
            x[row] = 0.0
        else:
            x[row] = rng.normal(0.0, sigma, size=(N, 2))
    # phase 2, per count group: the pipeline on many frames at once, with
    # each step's elementwise arithmetic in the per-frame order
    for m in np.unique(counts).tolist():
        group = np.flatnonzero(counts == m)
        for start in range(0, len(group), GROUP_CHUNK):
            rows = group[start : start + GROUP_CHUNK]
            u = tone_sum(amps[rows, :m], freqs[rows, :m], phases[rows, :m], N)
            z = quantize(_normalize_rows(u + to_complex(x[rows])), spec)
            x[rows] = to_iq(z)
    return Dataset(x=x, counts=counts, amps=amps, freqs=freqs, phases=phases,
                   snr_db=snrs)


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    # each row scaled to unit average per-sample power, sqrt(N) * y / ||y||.
    # A norm over axis=1 differs from the per-row np.linalg.norm in the last
    # bit on about a fifth of rows.
    norms = np.array([np.linalg.norm(row) for row in y])
    if not norms.all():
        raise ValueError("cannot normalize an all-zero frame")
    return math.sqrt(y.shape[1]) * y / norms[:, None]


# ---------------------------------------------------------------------------
# Dataset files: "<base>.labels.csv" (header + one CSV row per example) and
# "<base>.samples.f32" (little-endian float32, row-major N x 2 per example).
# ---------------------------------------------------------------------------


def save_dataset(base: str, cfg: GenConfig, dataset: Dataset) -> tuple[str, str]:
    """Writes the labels/samples file pair; returns their paths."""
    labels_path = base + ".labels.csv"
    samples_path = base + ".samples.f32"
    lines = [f"{DATASET_MAGIC}, N={cfg.N}, M={cfg.M}, bits={cfg.bits}"]
    rows = zip(dataset.counts.tolist(), dataset.snr_db.tolist(),
               dataset.amps.tolist(), dataset.freqs.tolist(),
               dataset.phases.tolist())
    for i, (m, snr_db, a, f, p) in enumerate(rows):
        fields = [str(i), str(m), repr(snr_db)]
        fields += [repr(v) for v in a[:m] + f[:m] + p[:m]]
        lines.append(",".join(fields))
    with open(labels_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(samples_path, "wb") as fh:
        np.ascontiguousarray(dataset.x, dtype="<f4").tofile(fh)
    return labels_path, samples_path


def load_dataset(base: str) -> tuple[dict, Dataset]:
    """Reads a dataset file pair; returns (header metadata, dataset).

    Sample values have float32 precision (the file's), stored as float64.
    A malformed labels line raises a ValueError that names the file and the
    line.
    """
    labels_path = base + ".labels.csv"
    samples_path = base + ".samples.f32"
    with open(labels_path) as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith(DATASET_MAGIC):
        raise ValueError(f"{labels_path}: not a {DATASET_MAGIC} file")
    meta, counts, snrs, labels = {}, [], [], []
    lineno = lines[0][0]
    try:
        for part in lines[0][1].split(",")[1:]:
            k, v = part.strip().split("=")
            meta[k.strip()] = int(v)
        if "N" not in meta:
            raise ValueError("header has no N field")
        for lineno, row in lines[1:]:
            cells = row.split(",")
            m = int(cells[1])
            vals = [float(c) for c in cells[3:]]
            if len(vals) != 3 * m:
                raise ValueError(f"label row has {len(vals)} values, expected {3 * m}")
            counts.append(m)
            snrs.append(float(cells[2]))
            labels.append(vals)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{labels_path}:{lineno}: {exc}") from exc
    N = meta["N"]
    raw = np.fromfile(samples_path, dtype="<f4")
    if raw.size % (N * 2) != 0:
        raise ValueError(f"{samples_path}: size not a multiple of N*2 floats")
    frames = raw.reshape(-1, N, 2)
    if len(counts) != len(frames):
        raise ValueError(f"{labels_path} has {len(counts)} label rows, "
                         f"{samples_path} {len(frames)} frames")
    n, width = len(counts), max(counts, default=0)
    amps, freqs, phases = (np.full((n, width), np.nan) for _ in range(3))
    for i, (m, vals) in enumerate(zip(counts, labels)):
        amps[i, :m] = vals[:m]
        freqs[i, :m] = vals[m : 2 * m]
        phases[i, :m] = vals[2 * m :]
    return meta, Dataset(x=frames.astype(np.float64),
                         counts=np.array(counts, dtype=np.int64), amps=amps,
                         freqs=freqs, phases=phases,
                         snr_db=np.array(snrs, dtype=np.float64))
