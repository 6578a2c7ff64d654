"""Multi-sinusoid frame synthesis and labeled dataset generation.

A frame is N complex baseband samples

    u[n] = sum_i a_i * exp(j*(2*pi*f_i*n + phi_i)),   n = 0..N-1,

with normalized frequencies f_i in (0, 0.5) cycles/sample. One labeled
example draws its label (count, frequencies with rejection, amplitudes,
phases), synthesizes u (see qsine.tones), adds complex Gaussian noise at its
SNR, scales the noisy frame to unit average per-sample power (||s||^2 = N,
so each real component is approximately Normal(0, 1/2) for the Bussgang
linearization downstream), quantizes it (see qsine.quantize) and stores it
as an N x 2 IQ matrix.

A generated or loaded dataset is a `Dataset`: one array per field, row i
holding example i (the IQ frames, counts, padded labels and SNRs). It
indexes and iterates as `LabeledExample`s. `make_dataset` builds it in two
phases that give the same bytes as taking those steps frame by frame (the
per-frame reference is tests/oracles.py):

1. per frame, in index order: the SNR, the label and the noise are drawn
   from the frame's own substream, as raw uniform doubles and standard
   normals written straight into the dataset's arrays;
2. for the whole dataset, and per group of frames with equal count: the
   draws are mapped to their ranges, and synthesis, noise addition, power
   normalization and quantization run on many frames at once.

Randomness: every example draws from its own substream keyed by
(seed, example index), so datasets are reproducible and independent of any
parallel generation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import make_quantizer, quantize
from .tones import TWO_PI, to_iq, tone_sum

# phase 2 of make_dataset handles at most this many frames of a count group
# at once, so its (frames, N, m) temporaries stay small beside the frames
# themselves; larger chunks ran no faster
GROUP_CHUNK = 32

# phase 1 of make_dataset derives the substream states of this many rows in
# one vectorized pass (see _substream_states)
SEED_BLOCK = 256

# Give up on rejection sampling after this many attempts (probability ~0 for
# sane configs; guards against a pathological config looping forever).
REJECTION_CAP = 10**6

DATASET_MAGIC = "qsine-dataset v1"

# NumPy's SeedSequence hash constants (numpy.random.bit_generator, stable
# across releases by NumPy's stream-compatibility policy) and PCG64's LCG
# multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _substream_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that substream(seed, row) starts from, for each
    row in range(start, stop).

    This is SeedSequence([seed, row]) hashing its 32-bit entropy words (the
    seed's, low word first, then the row's) into a 4-word pool and drawing 8
    words from it, then PCG64 seeding its 128-bit LCG from them, with every
    row a lane of uint32 vectors. Words that do not depend on the row stay
    vectors of one lane. A row needs one word, so rows end below 2**32.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"rows {start}..{stop - 1} do not fit one 32-bit word")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.array([w], np.uint32) for w in words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    entropy += [np.zeros(1, np.uint32)] * (4 - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> 16)

    pool = [hashmix(v) for v in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))
    hash_const = _INIT_B
    out = []
    for i in range(8):  # generate_state(4, uint64): words low half first
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        out.append(np.broadcast_to(value ^ (value >> 16), (stop - start,)))
    s_hi, s_lo, i_hi, i_lo = (
        (out[2 * j].astype(np.uint64) | out[2 * j + 1].astype(np.uint64) << 32).tolist()
        for j in range(4))
    # pcg64_set_seed: inc = 2 * initseq + 1, and the state is one LCG step,
    # state * MULT + inc, on from inc + initstate
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 65) | (d << 1) | 1) & _MASK128
        states.append(((((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


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
    container without those range guarantees.
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


@dataclass
class GenConfig:
    """Dataset generation settings.

    Attributes:
        N: frame length in samples.
        M: maximum sinusoid count; labels draw m ~ Uniform{1..M}.
        snr_db: per-example SNR in dB, finite or +inf for noiseless frames
            (ignored when snr_range is set).
        bits: quantizer resolution b.
        seed: nonnegative base RNG seed; example i uses substream (seed, i).
        freq_mode: "in_distribution" (offset + folded-normal jitter) or
            "ood_uniform" (uniform on (0, 0.5) with min spacing 1/N).
        m_fixed: when set, every label has exactly this count (used to build
            per-m estimator training sets).
        snr_range: when set, each example draws snr_db ~ U(lo, hi), both
            finite.
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
        if self.snr_range is None:
            if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
                raise ValueError("snr_db must be finite or +inf")
        else:
            lo, hi = self.snr_range
            if not lo <= hi:
                raise ValueError("snr_range must be (lo, hi) with lo <= hi")
            if not math.isfinite(hi - lo):
                raise ValueError("snr_range must be finite")


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


# Phase 1 draws every uniform as the raw double u of Generator.random and
# maps it afterwards: Generator.uniform(low, high) returns low + (high - low)
# * u, and Generator.normal(0, sigma) returns 0.0 + sigma * z for the
# standard normal z, so the bytes are those of the uniform and normal draws.

def _freqs_in_distribution(m: int, N: int, gen: np.random.Generator) -> list[float]:
    # f_1 = w0 ~ U(0, 0.25); f_{i+1} = w0 + i/N + |Normal(0, 2.5/N)|.
    # The whole set is redrawn while any f >= 0.5. Offsets share the single
    # anchor w0 (they do not accumulate), so the raw draw order is not always
    # ascending and the set is sorted before the range check. Every offset
    # entry exceeds w0, so after sorting f[0] = w0 and f[-1] is the largest.
    # Python floats: m <= M is too small for numpy to pay off, and the
    # arithmetic is the same IEEE double arithmetic in the same order.
    sigma = math.sqrt(2.5 / N)
    for _ in range(REJECTION_CAP):
        w0 = 0.0 + 0.25 * gen.random()
        f = [w0]
        if m > 1:
            z = gen.standard_normal(m - 1).tolist()
            f += [w0 + i / N + abs(sigma * v) for i, v in enumerate(z, start=1)]
            f.sort()
        if f[0] > 0.0 and f[-1] < 0.5:
            return f
    raise RuntimeError(f"frequency rejection sampling exceeded {REJECTION_CAP} attempts")


def _freqs_ood(m: int, N: int, gen: np.random.Generator) -> list[float]:
    # Uniform on (0, 0.5); fully regenerated until all pairwise spacings >= 1/N.
    for _ in range(REJECTION_CAP):
        f = sorted(0.0 + 0.5 * u for u in gen.random(m).tolist())
        if f[0] > 0.0 and all(b - a >= 1.0 / N for a, b in zip(f, f[1:])):
            return f
    raise RuntimeError(f"frequency rejection sampling exceeded {REJECTION_CAP} attempts")


def _check_labels(counts: np.ndarray, freqs: np.ndarray, phases: np.ndarray) -> None:
    """Raises a ValueError for the first row whose label breaks the generated
    invariants: m >= 1, freqs strictly ascending in (0, 0.5), phases in
    [0, 2*pi). The arrays are padded as in a Dataset."""
    used = np.arange(freqs.shape[1]) < counts[:, None]
    checks = (
        (counts < 1, "label must contain at least one sinusoid"),
        ((used & ~((freqs > 0.0) & (freqs < 0.5))).any(axis=1),
         "frequencies out of (0, 0.5): {f}"),
        ((used[:, 1:] & ~(freqs[:, 1:] > freqs[:, :-1])).any(axis=1),
         "frequencies not strictly ascending: {f}"),
        ((used & ~((phases >= 0.0) & (phases < TWO_PI))).any(axis=1),
         "phases out of [0, 2*pi): {p}"),
    )
    bad = np.logical_or.reduce([rows for rows, _ in checks])
    if bad.any():
        row = int(np.argmax(bad))
        m = int(counts[row])
        message = next(text for rows, text in checks if rows[row])
        raise ValueError(message.format(f=freqs[row, :m], p=phases[row, :m]))


def make_dataset(cfg: GenConfig, count: int) -> Dataset:
    """Generates `count` labeled examples deterministically from cfg.seed;
    row i is the pipeline above on substream (cfg.seed, i), whatever `count`."""
    if not 1 <= count <= 1 << 32:
        raise ValueError(f"count must be in 1..2**32, got {count}")
    spec = make_quantizer(cfg.bits)
    n, N = count, cfg.N
    width = cfg.m_fixed if cfg.m_fixed is not None else cfg.M
    noisy = cfg.snr_range is not None or cfg.snr_db != math.inf
    # a noiseless frame gets zeros for noise: adding them can flip only the
    # sign of a zero sample, and both signs quantize to the same level
    x = np.empty((n, N, 2)) if noisy else np.zeros((n, N, 2))
    counts = np.empty(n, dtype=np.int64)
    amps, freqs, phases = (np.full((n, width), np.nan) for _ in range(3))
    # with a range, phase 1 stores each row's raw uniform here
    snrs = np.full(n, float(cfg.snr_db))
    draw_freqs = (_freqs_in_distribution if cfg.freq_mode == "in_distribution"
                  else _freqs_ood)
    # phase 1, per frame in index order: one Generator loaded with each
    # frame's substream state draws the SNR, the label and the noise
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    pcg = {"state": 0, "inc": 0}
    loaded = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(0, n, SEED_BLOCK):
        stop = min(n, start + SEED_BLOCK)
        for row, (state, inc) in zip(range(start, stop),
                                     _substream_states(cfg.seed, start, stop)):
            pcg["state"], pcg["inc"] = state, inc
            bitgen.state = loaded
            if cfg.snr_range is not None:
                snrs[row] = gen.random()
            m = cfg.m_fixed if cfg.m_fixed is not None else int(gen.integers(1, cfg.M + 1))
            counts[row] = m
            freqs[row, :m] = draw_freqs(m, N, gen)
            gen.random(out=amps[row, :m])
            gen.random(out=phases[row, :m])
            if noisy:
                gen.standard_normal(out=x[row])
    # phase 2: the draws mapped to their ranges, then per count group the
    # pipeline on many frames at once, with each step's elementwise
    # arithmetic in the per-frame order
    amps = 0.1 + (1.0 - 0.1) * amps
    phases = 0.0 + (TWO_PI - 0.0) * phases
    _check_labels(counts, freqs, phases)
    if cfg.snr_range is not None:
        lo, hi = (float(v) for v in cfg.snr_range)
        snrs = lo + (hi - lo) * snrs
    for m in np.flatnonzero(np.bincount(counts)).tolist():
        group = np.flatnonzero(counts == m)
        for start in range(0, len(group), GROUP_CHUNK):
            rows = group[start : start + GROUP_CHUNK]
            A = amps[rows, :m]
            y = to_iq(tone_sum(A, freqs[rows, :m], phases[rows, :m], N))
            if noisy:
                # per-component noise deviation sqrt(power / 10^(snr/10) / 2),
                # by Python's pow: SIMD builds of np.power can differ from it
                # in the last bit
                gains = [10.0 ** (s / 10.0) for s in snrs[rows].tolist()]
                sigma = np.sqrt(np.sum(A * A, axis=1) / gains / 2.0)
                y += sigma[:, None, None] * x[rows]
            x[rows] = quantize(_normalize_rows(y), spec)
    return Dataset(x=x, counts=counts, amps=amps, freqs=freqs, phases=phases,
                   snr_db=snrs)


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    """Each (N, 2) IQ frame of y scaled in place to unit average per-sample
    power, sqrt(N) * y / ||y||, with the bytes of the complex per-frame
    reference: np.linalg.norm of a complex frame is the square root of the
    BLAS dot products of its strided real and imaginary parts, which
    np.vecdot takes row by row, and dividing a complex frame by a real norm
    multiplies it by the norm's reciprocal."""
    re, im = y[..., 0], y[..., 1]
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    if not norms.all():
        raise ValueError("cannot normalize an all-zero frame")
    y *= math.sqrt(y.shape[1])
    y *= (1.0 / norms)[:, None, None]
    return y


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
