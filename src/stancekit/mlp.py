"""From-scratch multilayer perceptron: one ReLU hidden layer, 4-way softmax,
seeded mini-batch SGD with inverted dropout on mean cross-entropy plus
l2_lambda times the squared weights (w1, w2). A step with rate r is, in place,
w <- (1 - 2*r*l2_lambda) * w - r * grad(cross-entropy): l2 as weight decay.

Training takes any object exposing `.matrix` (dense or scipy CSR, one row
per example) and `.layout`; sparse input keeps the big TF blocks cheap.
Prediction is batched only: predict_batch maps a whole example matrix to
probability rows. A trained model is immutable in practice and safe for
concurrent prediction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import STANCES, Stance
from .errors import DataFormatError, TrainingDivergedError
from .text import BlockSlice

_MAGIC = b"SKITMLP0"
_VERSION = 1

OUTPUT_DIM = 4  # the four stances, always


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for one training run. All randomness flows from seed.

    Defaults are validation-tuned starting points, not gospel; every field is
    exposed in the experiment config.
    """

    learning_rate: float = 0.01
    batch_size: int = 500
    epochs: int = 90
    dropout_keep: float = 0.6
    l2_lambda: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:  # also false for nan
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError("dropout_keep must be in (0, 1]")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if not 0.0 <= self.l2_lambda < np.inf:
            raise ValueError("l2_lambda must be non-negative and finite")


@dataclass
class MlpModel:
    """Weights, biases, and the feature layout the model was trained on."""

    w1: np.ndarray  # (input, hidden), C-contiguous: the layout x @ w1 reads
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (4, hidden)
    b2: np.ndarray  # (4,)
    feature_layout: tuple[BlockSlice, ...]

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction)."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def init_model(
    input_dim: int,
    hidden_dim: int,
    feature_layout: tuple[BlockSlice, ...],
    seed: int,
) -> MlpModel:
    """Glorot-uniform weights, zero biases, from a dedicated RNG stream.

    w1 is drawn hidden-major, the order model files store it in, then kept
    input-major.
    """
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (input_dim + hidden_dim))
    a2 = np.sqrt(6.0 / (hidden_dim + OUTPUT_DIM))
    return MlpModel(
        w1=np.ascontiguousarray(rng.uniform(-a1, a1, size=(hidden_dim, input_dim)).T),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-a2, a2, size=(OUTPUT_DIM, hidden_dim)),
        b2=np.zeros(OUTPUT_DIM),
        feature_layout=feature_layout,
    )


def predict_batch(model: MlpModel, matrix) -> tuple[list[Stance], np.ndarray]:
    """Vectorized prediction over a dense or CSR example matrix: each row's
    argmax stance in canonical order (ties go to the lowest index) and its
    probabilities."""
    probs = _batch_forward(model, matrix)[2]
    picks = np.argmax(probs, axis=1)
    return [STANCES[int(i)] for i in picks], probs


def _label_index(label) -> int:
    return label.index if isinstance(label, Stance) else int(label)


def _batch_forward(model: MlpModel, x, mask: np.ndarray | None = None, keep: float = 1.0):
    # overflow here surfaces as a non-finite objective, which train() turns
    # into TrainingDivergedError; the interim warnings are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        hidden_pre = np.asarray(x @ model.w1) + model.b1
        hidden = np.maximum(0.0, hidden_pre)
        if mask is not None:
            hidden = hidden * mask / keep
        logits = hidden @ model.w2.T + model.b2
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1)) + logits.max(axis=1)
        probs = softmax(logits)
    return hidden_pre, hidden, probs, logits, lse


def _sq_norm(a: np.ndarray) -> float:
    """Sum of squares in one read pass; einsum's loop, unlike BLAS dot, adds
    in an order that does not depend on the thread count."""
    v = a.reshape(-1)
    return float(np.einsum("i,i->", v, v))


def _batch_gradients(model, x, y, l2_lambda, mask=None, keep=1.0, scale=1.0):
    """(objective, steps) for one mini-batch: mean cross-entropy, computed
    from logits, plus the l2 penalty; scale times the cross-entropy gradients
    (not the l2 one, which train applies as decay), keyed like the fields.
    scale rides on the (batch, 4) error, so x.T @ g_pre is w1's step itself."""
    n = len(y)
    if n == 0:
        raise ValueError("empty batch")
    hidden_pre, hidden, probs, logits, lse = _batch_forward(model, x, mask, keep)
    ce = float(np.mean(lse - logits[np.arange(n), y]))

    g_logits = probs  # probs is not read again
    g_logits[np.arange(n), y] -= 1.0
    g_logits *= scale / n

    g_hidden = g_logits @ model.w2
    if mask is not None:
        g_hidden = g_hidden * mask / keep
    g_pre = g_hidden * (hidden_pre > 0.0)
    steps = {"w1": np.asarray(x.T @ g_pre), "b1": g_pre.sum(axis=0),
             "w2": g_logits.T @ hidden, "b2": g_logits.sum(axis=0)}
    return ce + l2_lambda * (_sq_norm(model.w1) + _sq_norm(model.w2)), steps


def train(
    features,
    labels: Sequence[Stance | int],
    config: TrainingConfig,
    hidden_dim: int = 100,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> MlpModel:
    """Seeded mini-batch SGD on cross-entropy + l2 (as weight decay) over
    features.matrix, one row per label; the model records features.layout.
    epoch_callback gets each epoch's mean batch objective, before each step.

    Deterministic given (data order, config.seed): weight init, epoch
    shuffles, and dropout masks all come from one RNG stream. Raises
    TrainingDivergedError naming the epoch if the objective goes non-finite.
    """
    x, layout = features.matrix, tuple(features.layout)
    y = np.array([_label_index(lbl) for lbl in labels])
    n = x.shape[0]
    if n < 1:
        raise ValueError("need at least one labeled example")
    if len(y) != n:
        raise ValueError(f"{n} feature rows but {len(y)} labels")

    rng = np.random.default_rng(config.seed)
    model = init_model(x.shape[1], hidden_dim, layout, seed=config.seed)
    keep, rate = config.dropout_keep, config.learning_rate
    decay = 1.0 - 2.0 * rate * config.l2_lambda

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            mask = None
            if keep < 1.0:
                mask = (rng.random((len(idx), hidden_dim)) < keep).astype(np.float64)
            objective, steps = _batch_gradients(model, x[idx], y[idx], config.l2_lambda,
                                                mask, keep, scale=rate)
            if not np.isfinite(objective):
                raise TrainingDivergedError(epoch)
            model.w1 *= decay  # in place: no weight-sized array but the w1 step
            model.w2 *= decay
            for name, step in steps.items():
                param = getattr(model, name)
                param -= step
            del steps  # frees the w1 step before the next batch allocates its own
            epoch_loss += objective * len(idx)
        if epoch_callback is not None:
            epoch_callback(epoch, epoch_loss / n)
    return model


def save_model(model: MlpModel, path: str | Path) -> None:
    """Versioned flat binary; arrays are row-major little-endian float64,
    w1 hidden-major as (hidden, input)."""
    blocks = model.feature_layout
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<IIII", _VERSION, model.input_dim, model.hidden_dim, model.output_dim)
    out += struct.pack("<I", len(blocks))
    for b in blocks:
        name = b.name.encode("utf-8")
        out += struct.pack("<I", len(name)) + name + struct.pack("<II", b.offset, b.length)
    for arr in (model.w1.T, model.b1, model.w2, model.b2):
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def load_model(path: str | Path) -> MlpModel:
    """Inverse of save_model; rejects wrong magic, future versions,
    truncation, and a layout whose blocks do not tile [0, input_dim)."""
    raw = memoryview(Path(path).read_bytes())  # slices are views, not copies
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(raw):
            raise DataFormatError(f"{path}: truncated model file")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    if take(len(_MAGIC)) != _MAGIC:
        raise DataFormatError(f"{path}: not a model file (bad magic)")
    version, input_dim, hidden_dim, output_dim = struct.unpack("<IIII", take(16))
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported model format version {version}")
    (n_blocks,) = struct.unpack("<I", take(4))
    layout = []
    for _ in range(n_blocks):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        offset, length = struct.unpack("<II", take(8))
        layout.append(BlockSlice(name, offset, length))
    if [b.offset for b in layout] + [input_dim] != [0] + [b.offset + b.length for b in layout]:
        raise DataFormatError(f"{path}: feature layout does not tile the {input_dim} inputs")

    def view(shape: tuple[int, ...]) -> np.ndarray:
        """Read-only view of the next array in the file bytes."""
        count = int(np.prod(shape))
        return np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)

    model = MlpModel(
        # one copy, input-major; np.ascontiguousarray would return the
        # read-only view itself when hidden_dim == 1
        w1=np.array(view((hidden_dim, input_dim)).T, order="C"),
        b1=view((hidden_dim,)).copy(),
        w2=view((output_dim, hidden_dim)).copy(),
        b2=view((output_dim,)).copy(),
        feature_layout=tuple(layout),
    )
    if pos != len(raw):
        raise DataFormatError(f"{path}: trailing bytes after model payload")
    if not all(np.isfinite(a).all() for a in (model.w1, model.b1, model.w2, model.b2)):
        raise DataFormatError(f"{path}: a model weight is not finite")
    return model
