"""Sinusoid counting and parameter estimation networks, plus their training.

Two model families built on the :mod:`qsine.nn` engine:

* a detection classifier mapping an IQ frame to a distribution over counts
  1..M, trained by applying the asymmetric detection loss to the expected
  count under the softmax, and
* a residual chain of per-sinusoid block estimators: block k estimates one
  (amplitude, frequency, phase) triple, the tone at its frequency estimate
  is refit in frame units and subtracted from the frame, and block k+1 sees
  the residual. Each block has a batch-normalized branch (frequency head),
  a phase head off the first conv stage, and an unnormalized branch
  (amplitude head) so amplitude scale survives. Training treats each
  cancelled tone as a constant: block k is differentiated against its own
  heads only.

Both are trained by one epoch loop with validation-driven learning rate
reduction, early stopping and best-weights restore.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn import (
    Activation,
    Adam,
    BatchNorm1D,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    Network,
)
from .losses import LossVector, detection_loss, effective_loss
from .nn.checkpoint import load_chain, load_network, save_chain, save_network
from .signals import Dataset, ParameterSet, substream
from .thresholds import estimation_thresholds
from .tones import cancel_tone

_TAG_SPLIT = 7000
_TAG_EPOCH = 7001
_TAG_DETECT_NET = 11
_TAG_BLOCK_NET = 13

# rows per forward-only pass, so inference memory is one chunk's activations
# whatever the batch size (see _row_chunks)
INFER_ROWS = 64
# rows per partial sum of the validation losses, which fix the logged bytes
DETECTION_LOSS_ROWS = 1024
ESTIMATOR_LOSS_ROWS = 2048
# dropout rate before the detector's dense layers
DETECTION_DROPOUT = 0.7


# --------------------------------------------------------------------------
# architectures
# --------------------------------------------------------------------------

def build_detection_network(N: int = 64, M: int = 5, seed: int = 0) -> Network:
    """Count classifier: 3 conv stages (32/64/128, pools 2/2/4) -> 2 dense."""
    if N % 16:
        raise ValueError(f"N must be divisible by 16, got {N}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_DETECT_NET]))
    net = Network()
    src = "x"
    c_in = 2
    for i, (c_out, pool) in enumerate([(32, 2), (64, 2), (128, 4)], start=1):
        net.add(f"conv{i}", Conv1D(c_in, c_out, 3, rng=rng), src)
        net.add(f"relu{i}", Activation("relu"), f"conv{i}")
        net.add(f"pool{i}", MaxPool1D(pool), f"relu{i}")
        net.add(f"bn{i}", BatchNorm1D(c_out), f"pool{i}")
        src, c_in = f"bn{i}", c_out
    net.add("flat", Flatten(), src)
    net.add("drop", Dropout(DETECTION_DROPOUT, seed=seed + 9001), "flat")
    net.add("fc1", Dense((N // 16) * 128, 128, rng=rng), "drop")
    net.add("fc1_relu", Activation("relu"), "fc1")
    net.add("fc2", Dense(128, 64, rng=rng), "fc1_relu")
    net.add("fc2_relu", Activation("relu"), "fc2")
    net.add("logits", Dense(64, M, rng=rng), "fc2_relu")
    net.add("probs", Activation("softmax"), "logits")
    net.pack()
    return net


def build_block_network(N: int = 64, seed: int = 0, tag: int = 0) -> Network:
    """One residual block: outputs scalar heads "amp", "freq", "phase".

    Normalized branch (conv8+pool+BN -> conv16+pool+BN -> dense16 SeLU)
    feeds the frequency head; the phase head branches off the first
    normalized conv stage; the amplitude branch repeats the conv stack
    without BatchNorm so the input scale is preserved.
    """
    if N % 4:
        raise ValueError(f"N must be divisible by 4, got {N}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_BLOCK_NET, tag]))
    net = Network()
    flat_dim = (N // 4) * 16

    net.add("n1_conv", Conv1D(2, 8, 3, rng=rng), "x")
    net.add("n1_relu", Activation("relu"), "n1_conv")
    net.add("n1_pool", MaxPool1D(2), "n1_relu")
    net.add("n1_bn", BatchNorm1D(8), "n1_pool")
    net.add("n2_conv", Conv1D(8, 16, 3, rng=rng), "n1_bn")
    net.add("n2_relu", Activation("relu"), "n2_conv")
    net.add("n2_pool", MaxPool1D(2), "n2_relu")
    net.add("n2_bn", BatchNorm1D(16), "n2_pool")
    net.add("n_flat", Flatten(), "n2_bn")
    net.add("n_fc", Dense(flat_dim, 16, rng=rng), "n_flat")
    net.add("n_selu", Activation("selu"), "n_fc")
    net.add("freq", Dense(16, 1, rng=rng), "n_selu")

    net.add("p_conv", Conv1D(8, 16, 3, rng=rng), "n1_bn")
    net.add("p_relu", Activation("relu"), "p_conv")
    net.add("p_pool", MaxPool1D(2), "p_relu")
    net.add("p_flat", Flatten(), "p_pool")
    net.add("p_fc", Dense(flat_dim, 16, rng=rng), "p_flat")
    net.add("p_selu", Activation("selu"), "p_fc")
    net.add("phase", Dense(16, 1, rng=rng), "p_selu")

    net.add("u1_conv", Conv1D(2, 8, 3, rng=rng), "x")
    net.add("u1_relu", Activation("relu"), "u1_conv")
    net.add("u1_pool", MaxPool1D(2), "u1_relu")
    net.add("u2_conv", Conv1D(8, 16, 3, rng=rng), "u1_pool")
    net.add("u2_relu", Activation("relu"), "u2_conv")
    net.add("u2_pool", MaxPool1D(2), "u2_relu")
    net.add("u_flat", Flatten(), "u2_pool")
    net.add("u_fc", Dense(flat_dim, 16, rng=rng), "u_flat")
    net.add("u_selu", Activation("selu"), "u_fc")
    net.add("amp", Dense(16, 1, rng=rng), "u_selu")
    net.pack()
    return net


@dataclass
class SinusoidEstimator:
    """Residual chain of block networks; block k handles sinusoid k."""

    blocks: list[Network]
    N: int = 64

    @property
    def m(self) -> int:
        return len(self.blocks)


def build_estimator(m: int, N: int = 64, seed: int = 0) -> SinusoidEstimator:
    blocks = [build_block_network(N, seed=seed, tag=k) for k in range(m)]
    return SinusoidEstimator(blocks=blocks, N=N)


def _chain_dtype(est: SinusoidEstimator):
    return est.blocks[0].flat_params.dtype


def _forward_chain(est: SinusoidEstimator, X: np.ndarray, train: bool):
    """Runs all blocks on residuals; returns per-head (B, m) arrays.

    With train True each block's layer caches stay populated (one backward
    per block may follow)."""
    R = np.ascontiguousarray(X, dtype=_chain_dtype(est))
    a_cols, f_cols, p_cols = [], [], []
    for k, net in enumerate(est.blocks):
        vals = net.forward(R, train=train)
        a_cols.append(vals["amp"][:, 0])
        f_cols.append(vals["freq"][:, 0])
        p_cols.append(vals["phase"][:, 0])
        if k + 1 < est.m:
            R = cancel_tone(R, f_cols[-1])
    return np.stack(a_cols, 1), np.stack(f_cols, 1), np.stack(p_cols, 1)


def _row_chunks(n: int) -> list[slice]:
    """Cuts rows 0..n at multiples of INFER_ROWS; a last chunk shorter than
    INFER_ROWS joins the one before it. So n < 2 * INFER_ROWS rows run as one
    chunk, and otherwise every chunk has INFER_ROWS to 2 * INFER_ROWS - 1 rows.

    The merge keeps the bytes of a whole-batch forward: OpenBLAS multiplies a
    product of few rows by other kernels (gemv for one row, a small-matrix
    kernel for two), which change the last bits, while every chunk of 64 rows
    or more gives each row the bits it has in the whole batch."""
    cuts = list(range(INFER_ROWS, n, INFER_ROWS))
    if cuts and n - cuts[-1] < INFER_ROWS:
        cuts.pop()
    bounds = [0, *cuts, n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _infer_chunks(forward, X: np.ndarray) -> tuple:
    """The forward-only pass of every network: forward(rows) on each row
    chunk of X, its outputs (a tuple of arrays with rows first) concatenated."""
    parts = [forward(X[rows]) for rows in _row_chunks(len(X))]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def estimator_forward_batch(est: SinusoidEstimator, X: np.ndarray):
    """Inference over a batch of IQ frames -> (amps, freqs, phases), (B, m).
    Each row chunk runs through the whole chain before the next."""
    return _infer_chunks(lambda R: _forward_chain(est, R, train=False), X)


# --------------------------------------------------------------------------
# training configuration and data plumbing
# --------------------------------------------------------------------------

# epochs without a validation gain before the learning rate is scaled
LR_PATIENCE = 4
LR_FACTOR = 0.5
# share of the training frames held out for validation
VAL_FRACTION = 0.1


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    detection_epochs: int = 20
    estimator_epochs: int = 60
    patience: int = 8
    seed: int = 0


def detection_arrays(dataset: Dataset):
    """Frames as float32 (n, N, 2) and their counts."""
    return dataset.x.astype(np.float32), dataset.counts


def estimator_arrays(dataset: Dataset):
    """Frames and labels of a fixed-count dataset, all float32."""
    m = int(dataset.counts[0])
    if np.any(dataset.counts != m):
        raise ValueError("estimator training needs a fixed sinusoid count")
    X = dataset.x.astype(np.float32)
    A, F, P = (a[:, :m].astype(np.float32)
               for a in (dataset.amps, dataset.freqs, dataset.phases))
    return X, A, F, P


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        idx = order[i : i + batch_size]
        if len(idx) >= 2:  # BatchNorm needs at least two rows
            yield idx


def _fit(cfg: TrainConfig, epochs: int, tr: np.ndarray, batch_grads, eval_val,
         adam: Adam):
    """The training loop: shuffled minibatches of the training rows `tr`,
    LR reduction and early stop on validation loss, and the best-validation
    weights of the networks of `adam` restored at the end.

    batch_grads(rows) leaves the gradients of those rows on the networks and
    returns their mean loss; eval_val() returns the validation loss."""
    if epochs > 0 and min(cfg.batch_size, len(tr)) < 2:
        raise ValueError(f"batch size {cfg.batch_size} and {len(tr)} training "
                         "row(s) give no batch of the 2 rows BatchNorm needs")
    history = []
    best = np.inf
    best_snap = None
    lr_wait = stop_wait = 0
    for epoch in range(epochs):
        rng = substream(cfg.seed, _TAG_EPOCH, epoch)
        total = weight = 0.0
        for idx in _epoch_batches(len(tr), cfg.batch_size, rng):
            b = tr[idx]
            loss = batch_grads(b)
            adam.step()
            total += loss * len(b)
            weight += len(b)
        train_loss = total / weight
        val_loss = eval_val()
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": val_loss, "lr": adam.lr})
        if val_loss < best - 1e-7:
            best = val_loss
            best_snap = [net.snapshot() for net in adam.nets]
            lr_wait = stop_wait = 0
        else:
            lr_wait += 1
            stop_wait += 1
            if stop_wait >= cfg.patience:
                break
            if lr_wait >= LR_PATIENCE:
                adam.lr *= LR_FACTOR
                lr_wait = 0
    if best_snap is not None:
        for net, snap in zip(adam.nets, best_snap):
            net.restore(snap)
    return history


def _split(n: int, cfg: TrainConfig):
    perm = substream(cfg.seed, _TAG_SPLIT).permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n)))
    return perm[n_val:], perm[:n_val]


# --------------------------------------------------------------------------
# detection training
# --------------------------------------------------------------------------

def _mean_count_loss(probs: np.ndarray, counts: np.ndarray):
    """Detection loss of the expected count, plus its gradient w.r.t. probs.

    The loss is applied to mhat = sum_k k*p_k rather than as the
    probability-weighted cost sum C @ p: in the weighted-cost form a class's
    gradient is proportional to its own probability, so classes crushed early
    by their large average cost (answering 1 when the truth might be 5 costs
    e^4 - 1) can never recover, and the output collapses onto the two classes
    flanking the constant-optimum count. Routing the loss through the
    expected count keeps the push and pull on every class at comparable
    scale, which is what lets the classifier become input-dependent.
    """
    ks = np.arange(1.0, probs.shape[-1] + 1.0)
    mbar = probs.astype(np.float64) @ ks
    m = counts.astype(np.float64)
    loss = float(np.mean(detection_loss(m, mbar)))
    dmbar = np.where(m >= mbar, -np.exp(m - mbar), mbar - m) / len(probs)
    dprobs = dmbar[:, None] * ks[None, :]
    return loss, dprobs


def detection_batch_grads(net: Network, X: np.ndarray, counts: np.ndarray):
    """One training-mode forward/backward of the detection loss; returns the
    loss and leaves the gradients on the network."""
    net.zero_grads()
    vals = net.forward(X, train=True)
    probs = vals["probs"]
    loss, dprobs = _mean_count_loss(probs, counts)
    net.backward({"probs": dprobs.astype(probs.dtype)})
    return loss


def _detection_probs(net: Network, X: np.ndarray) -> np.ndarray:
    """Inference class distributions (B, M) of a batch of frames."""
    (probs,) = _infer_chunks(
        lambda R: (net.forward(np.asarray(R, dtype=np.float32), train=False)["probs"],), X)
    return probs


def _chunked_mean_loss(n: int, chunk: int, loss_of) -> float:
    # the row-weighted mean of loss_of(rows) over chunks of n rows
    total = 0.0
    for i in range(0, n, chunk):
        rows = slice(i, min(i + chunk, n))
        total += loss_of(rows) * (rows.stop - i)
    return total / n


def _detection_loss_eval(net: Network, X: np.ndarray, counts: np.ndarray) -> float:
    probs = _detection_probs(net, X)
    return _chunked_mean_loss(len(X), DETECTION_LOSS_ROWS, lambda r:
                              _mean_count_loss(probs[r], counts[r])[0])


def train_detection(dataset: Dataset, cfg: TrainConfig, M: int = 5):
    """Trains the count classifier on mixed-count frames.

    Returns (network, history); the network carries the best-validation
    weights."""
    X, counts = detection_arrays(dataset)
    del dataset  # freed unless the caller holds it; training reads the copies
    net = build_detection_network(N=X.shape[1], M=M, seed=cfg.seed)
    tr, va = _split(len(X), cfg)
    history = _fit(cfg, cfg.detection_epochs, tr,
                   lambda b: detection_batch_grads(net, X[b], counts[b]),
                   lambda: _detection_loss_eval(net, X[va], counts[va]),
                   Adam([net], lr=cfg.lr))
    return net, history


def detect_count_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Hard count decisions: argmax of the class distribution, as counts 1..M."""
    return _detection_probs(net, X).argmax(axis=1) + 1


# --------------------------------------------------------------------------
# estimator training
# --------------------------------------------------------------------------

def _eff_loss_and_head_grads(A, F, P, At, Ft, Pt, thr: LossVector):
    """effective_loss of the per-head MSEs, and its gradients w.r.t. A, F, P."""
    B, m = A.shape
    da, df, dp = A - At, F - Ft, P - Pt
    loss = effective_loss((np.mean(da**2), np.mean(df**2), np.mean(dp**2)),
                          thr, m)
    scale = 2.0 / (B * m * m)
    return (float(loss), (scale / thr.amp) * da, (scale / thr.freq) * df,
            (scale / thr.phase) * dp)


def estimator_batch_grads(est: SinusoidEstimator, X, At, Ft, Pt):
    """Training-mode forward/backward of the threshold-normalized loss
    through the chain; returns the loss and leaves each block's gradients on
    its network. Each cancelled tone is a constant, so each block is
    differentiated against its own heads only.
    """
    for net in est.blocks:
        net.zero_grads()
    A, F, P = _forward_chain(est, X, train=True)
    thr = estimation_thresholds(est.m, est.N)
    loss, dA, dF, dP = _eff_loss_and_head_grads(
        A.astype(np.float64), F.astype(np.float64), P.astype(np.float64),
        At, Ft, Pt, thr)
    dtype = _chain_dtype(est)
    dA = dA.astype(dtype)
    dF = dF.astype(dtype)
    dP = dP.astype(dtype)
    for k, net in enumerate(est.blocks):
        net.backward({"amp": dA[:, k : k + 1], "freq": dF[:, k : k + 1],
                      "phase": dP[:, k : k + 1]})
    return loss


def _eval_estimator_loss(est: SinusoidEstimator, X, At, Ft, Pt) -> float:
    thr = estimation_thresholds(est.m, est.N)
    A, F, P = (h.astype(np.float64) for h in estimator_forward_batch(est, X))
    return _chunked_mean_loss(len(X), ESTIMATOR_LOSS_ROWS, lambda r:
                              _eff_loss_and_head_grads(A[r], F[r], P[r], At[r],
                                                       Ft[r], Pt[r], thr)[0])


def train_estimator(dataset: Dataset, cfg: TrainConfig):
    """Trains a residual-chain estimator on fixed-count frames.

    Targets are the frequency-sorted ground-truth triples; block k learns
    the k-th lowest-frequency sinusoid. Returns (estimator, history).
    """
    X, At, Ft, Pt = estimator_arrays(dataset)
    del dataset  # freed unless the caller holds it; training reads the copies
    At, Ft, Pt = (a.astype(np.float64) for a in (At, Ft, Pt))
    est = build_estimator(At.shape[1], N=X.shape[1], seed=cfg.seed)
    tr, va = _split(len(X), cfg)
    history = _fit(cfg, cfg.estimator_epochs, tr,
                   lambda b: estimator_batch_grads(est, X[b], At[b], Ft[b], Pt[b]),
                   lambda: _eval_estimator_loss(est, X[va], At[va], Ft[va], Pt[va]),
                   Adam(est.blocks, lr=cfg.lr))
    return est, history


# --------------------------------------------------------------------------
# bundled pipeline
# --------------------------------------------------------------------------

@dataclass
class SignalNetModel:
    """Detection network plus one residual-chain estimator per count."""

    detection: Network
    estimators: dict[int, SinusoidEstimator] = field(default_factory=dict)
    N: int = 64
    M: int = 5
    bits: int = 3


def estimate_by_count(model: SignalNetModel, X: np.ndarray, counts: np.ndarray):
    """Runs each frame through the chain of its given count: (amps, freqs,
    phases), each (B, K) float64 with K = counts.max(); row b holds its
    counts[b] estimates and NaN after them."""
    est = np.full((3, len(X), int(counts.max(initial=0))), np.nan)
    for mhat in np.unique(counts).tolist():
        if mhat not in model.estimators:
            raise KeyError(f"no estimator for detected count {mhat}")
        idx = np.flatnonzero(counts == mhat)
        est[:, idx, :mhat] = estimator_forward_batch(model.estimators[mhat], X[idx])
    return tuple(est)


def signalnet_infer_batch(model: SignalNetModel, X: np.ndarray):
    """Full pipeline on a batch of frames: detect each count, then run each
    frame through the chain of its count. Returns (counts (B,), list of
    ParameterSet)."""
    counts = detect_count_batch(model.detection, X)
    A, F, P = estimate_by_count(model, X, counts)
    sets = [ParameterSet(m=m, amps=A[b, :m], freqs=F[b, :m], phases=P[b, :m])
            for b, m in enumerate(counts.tolist())]
    return counts, sets


# the benchmark imports this one-frame entry point
def signalnet_infer(model: SignalNetModel, x: np.ndarray):
    """signalnet_infer_batch on the one frame x: (count, ParameterSet)."""
    counts, sets = signalnet_infer_batch(model, x[None])
    return int(counts[0]), sets[0]


def save_signalnet(model: SignalNetModel, out_dir) -> Path:
    """Writes detection.ckpt, est_m{k}.ckpt and a signalnet.json manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_network(model.detection, out / "detection.ckpt",
                 meta={"task": "detection", "N": model.N, "M": model.M,
                       "bits": model.bits})
    manifest = {"N": model.N, "M": model.M, "bits": model.bits,
                "detection": "detection.ckpt", "estimators": {}}
    for m, est in sorted(model.estimators.items()):
        name = f"est_m{m}.ckpt"
        save_estimator(est, out / name, bits=model.bits)
        manifest["estimators"][str(m)] = name
    path = out / "signalnet.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def load_signalnet(path) -> SignalNetModel:
    """Loads a bundle from its manifest (or the directory containing it). A
    manifest that does not parse or lacks a field is an error naming it."""
    p = Path(path)
    if p.is_dir():
        p = p / "signalnet.json"
    try:
        manifest = json.loads(p.read_text())
        N, M, bits = manifest["N"], manifest["M"], manifest["bits"]
        detection_name = manifest["detection"]
        chains = {int(m): name for m, name in manifest["estimators"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{p}: {what}") from exc
    detection, _ = load_network(p.parent / detection_name)
    estimators = {m: load_estimator(p.parent / name)[0]
                  for m, name in chains.items()}
    return SignalNetModel(detection=detection, estimators=estimators,
                          N=N, M=M, bits=bits)


def load_estimator(path) -> tuple[SinusoidEstimator, dict]:
    """Loads a single chain checkpoint written by save_chain; its meta must
    record N. Meta keys that nothing reads, such as the residual rule older
    chains recorded, come back in meta unread."""
    blocks, meta = load_chain(path)
    if "N" not in meta:
        raise ValueError(f"{path}: chain meta has no N")
    return SinusoidEstimator(blocks=blocks, N=int(meta["N"])), meta


def save_estimator(est: SinusoidEstimator, path, bits: int):
    """Writes a chain checkpoint that load_estimator reads."""
    save_chain(est.blocks, path,
               meta={"task": "estimator", "m": est.m, "N": est.N, "bits": bits})
