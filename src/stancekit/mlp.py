"""From-scratch multilayer perceptron: one ReLU hidden layer, 4-way softmax,
seeded mini-batch SGD with inverted dropout on mean cross-entropy plus
l2_lambda times the squared weights (w1, w2). A step with rate r is, in place,
w <- (1 - 2*r*l2_lambda) * w - r * grad(cross-entropy): l2 as weight decay.

Training and prediction take a FeatureMatrix, which holds a row per
distinct headline and body, so each mini-batch projects a document its
examples share through w1 once and sums their w1 gradients per document
before one sparse product; a plain dense or CSR example matrix is a
FeatureMatrix without document rows. Labels are read, and decisions
made, through corpus.stance_indices and corpus.decisions. Prediction is
batched only: predict_batch maps whole example matrices to probability rows
and their argmax stances. A trained model is immutable in practice and safe
for concurrent prediction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import STANCES, Stance, decisions, stance_indices
from .errors import DataFormatError, TrainingDivergedError
from .text import BlockSlice

_MAGIC = b"SKITMLP0"
_VERSION = 1

#: init_model draws w1 in hidden-major order about this many weights at a
#: time into its input-major array, so it holds no second weight-sized array
#: while cv's concurrent folds train (the fnc-headline benchmark's cv --jobs 2)
_CHUNK_WEIGHTS = 1 << 18


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


@dataclass(frozen=True)
class FeatureMatrix:
    """Examples by input columns, grouped as layout says. Example i is
    docs[head_row[i]] + docs[body_row[i]] plus pairs[i] at the input columns
    pair_columns: docs has a CSR row per distinct headline and body, holding
    that side's columns (TF, keyword bits), and pairs the pair's (TF-IDF
    cosine, embedding similarity), dense or CSR. As x @ w1 is linear in x, a
    document is projected once however many examples share it."""

    pairs: np.ndarray | sp.csr_matrix
    docs: sp.csr_matrix
    head_row: np.ndarray
    body_row: np.ndarray
    pair_columns: np.ndarray
    layout: tuple[BlockSlice, ...] = ()

    @classmethod
    def of(cls, x, layout: tuple[BlockSlice, ...] = ()) -> FeatureMatrix:
        """A plain dense or CSR example matrix: every column a pair column,
        both documents of every example one empty row."""
        unused = np.zeros(x.shape[0], dtype=np.intp)
        return cls(x, sp.csr_matrix((1, x.shape[1])), unused, unused, np.arange(x.shape[1]),
                   layout)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pairs.shape[0], self.docs.shape[1]

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The (examples, inputs) CSR matrix, built on first read; training
        and prediction never read it."""
        pairs = sp.csr_matrix(self.pairs)
        placed = sp.csr_matrix((pairs.data, self.pair_columns[pairs.indices], pairs.indptr),
                               shape=self.shape)
        return self.docs[self.head_row] + self.docs[self.body_row] + placed


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

    w1 is drawn hidden-major, the order model files store it in, a chunk of
    hidden units at a time straight into its input-major array.
    """
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (input_dim + hidden_dim))
    classes = len(STANCES)
    a2 = np.sqrt(6.0 / (hidden_dim + classes))
    w1 = np.empty((input_dim, hidden_dim))
    for start, stop in _unit_chunks(input_dim, hidden_dim):
        w1[:, start:stop] = rng.uniform(-a1, a1, size=(stop - start, input_dim)).T
    return MlpModel(
        w1=w1,
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-a2, a2, size=(classes, hidden_dim)),
        b2=np.zeros(classes),
        feature_layout=feature_layout,
    )


def _unit_chunks(input_dim: int, hidden_dim: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of consecutive hidden units, about _CHUNK_WEIGHTS weights each."""
    step = max(1, _CHUNK_WEIGHTS // max(1, input_dim))
    for start in range(0, hidden_dim, step):
        yield start, min(start + step, hidden_dim)


def predict_batch(model: MlpModel, features) -> tuple[list[Stance], np.ndarray]:
    """Vectorized prediction over a FeatureMatrix or a dense or CSR example
    matrix: each row's argmax stance in canonical order (ties go to the
    lowest index) and its probabilities."""
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix.of(features)
    probs = _batch_forward(model, features)[2]
    return decisions(probs), probs


def _batch_forward(model: MlpModel, x: FeatureMatrix, mask: np.ndarray | None = None,
                   keep: float = 1.0):
    # overflow here surfaces as a non-finite objective, which train() turns
    # into TrainingDivergedError; the interim warnings are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        projected = x.docs @ model.w1  # each document once
        hidden_pre = projected[x.head_row]
        hidden_pre += projected[x.body_row]
        hidden_pre += x.pairs @ model.w1[x.pair_columns]
        hidden_pre += model.b1
        hidden = np.maximum(0.0, hidden_pre)
        if mask is not None:
            hidden = hidden * mask / keep
        logits = hidden @ model.w2.T + model.b2
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)  # one exp for the softmax and the log-sum-exp
        total = e.sum(axis=1, keepdims=True)
        return hidden_pre, hidden, e / total, logits, np.log(total[:, 0]) + top[:, 0]


def _sq_norm(a: np.ndarray) -> float:
    """Sum of squares in one read pass; einsum's loop, unlike BLAS dot, adds
    in an order that does not depend on the thread count."""
    v = a.reshape(-1)
    return float(np.einsum("i,i->", v, v))


def _batches(features: FeatureMatrix, order: np.ndarray,
             size: int) -> Iterator[tuple[np.ndarray, FeatureMatrix, sp.csr_matrix]]:
    """(rows, x, by_document) of each mini-batch, size rows of order in
    turn. x is their FeatureMatrix, whose docs are the distinct documents
    the rows use; by_document is the 0/1 (documents, rows) matrix of those
    uses, which sums row gradients per document (np.add.reduceat takes six
    times as long for a batch of 500 rows at FNC scale). One sort per call
    finds every batch's documents; a batch copies their entries straight
    into its CSR arrays (scipy's row indexing costs twice as much at a few
    rows)."""
    starts = range(0, len(order), size)
    docs = features.docs
    # use 2j is row j's headline, 2j + 1 its body; the keys sort batch-major
    keys = np.repeat(np.arange(len(order)) // size * docs.shape[0], 2)
    keys[0::2] += features.head_row[order]
    keys[1::2] += features.body_row[order]
    sorter = np.argsort(keys, kind="stable")
    is_first = np.diff(keys[sorter], prepend=-1) != 0
    # sorted position where each (batch, document) starts, then the end
    runs = np.flatnonzero(np.append(is_first, True))
    run_of = np.empty_like(sorter)
    run_of[sorter] = np.cumsum(is_first) - 1
    run_docs, use_row = keys[sorter[runs[:-1]]] % docs.shape[0], sorter // 2
    ones = np.ones(2 * min(size, len(order)))
    lengths = np.diff(docs.indptr)
    bounds = np.searchsorted(runs, [2 * s for s in starts] + [2 * len(order)])
    for k, start in enumerate(starts):
        a, b = 2 * start, 2 * min(start + size, len(order))
        lo, hi = bounds[k : k + 2]
        first, length = docs.indptr[run_docs[lo:hi]], lengths[run_docs[lo:hi]]
        indptr = np.zeros(hi - lo + 1, dtype=docs.indptr.dtype)
        np.cumsum(length, out=indptr[1:])
        entries = np.repeat(first - indptr[:-1], length) + np.arange(indptr[-1])
        batch = sp.csr_matrix((docs.data[entries], docs.indices[entries], indptr),
                              shape=(hi - lo, docs.shape[1]))
        x = FeatureMatrix(features.pairs[order[a // 2 : b // 2]], batch,
                          run_of[a:b:2] - lo, run_of[a + 1 : b : 2] - lo, features.pair_columns)
        by_document = sp.csr_matrix((ones[: b - a], use_row[a:b] - start, runs[lo : hi + 1] - a),
                                    shape=(hi - lo, (b - a) // 2))
        yield order[a // 2 : b // 2], x, by_document


def _batch_gradients(model, x, by_document, y, l2_lambda, mask=None, keep=1.0, scale=1.0):
    """(objective, steps) for one mini-batch, x and by_document as _batches
    makes them: mean cross-entropy, computed from logits, plus the l2
    penalty; scale times the cross-entropy gradients (not the l2 one, which
    train applies as decay), keyed like the fields. scale rides on the
    (batch, 4) error, so x.T @ g_pre is w1's step itself; g_pre is summed
    per document before one transposed product."""
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
    w1 = x.docs.T @ (by_document @ g_pre)
    w1[x.pair_columns] += x.pairs.T @ g_pre  # rows no document column touches
    steps = {"w1": w1, "b1": g_pre.sum(axis=0),
             "w2": g_logits.T @ hidden, "b2": g_logits.sum(axis=0)}
    return ce + l2_lambda * (_sq_norm(model.w1) + _sq_norm(model.w2)), steps


def train(
    features,
    labels: Sequence[Stance | int] | np.ndarray,
    config: TrainingConfig,
    hidden_dim: int = 100,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> MlpModel:
    """Seeded mini-batch SGD on cross-entropy + l2 (as weight decay) over a
    FeatureMatrix, one row per label (a Stance or its index 0..3); the model
    records features.layout. epoch_callback gets each epoch's mean batch
    objective, before each step.

    Deterministic given (data order, config.seed): weight init, epoch
    shuffles, and dropout masks all come from one RNG stream. Raises
    TrainingDivergedError naming the epoch if the objective goes non-finite.
    """
    y = stance_indices(labels)
    n, input_dim = features.shape
    if n < 1:
        raise ValueError("need at least one labeled example")
    if len(y) != n:
        raise ValueError(f"{n} feature rows but {len(y)} labels")

    rng = np.random.default_rng(config.seed)
    model = init_model(input_dim, hidden_dim, tuple(features.layout), seed=config.seed)
    keep, rate = config.dropout_keep, config.learning_rate
    decay = 1.0 - 2.0 * rate * config.l2_lambda

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for idx, x, by_document in _batches(features, order, config.batch_size):
            mask = None
            if keep < 1.0:
                mask = (rng.random((len(idx), hidden_dim)) < keep).astype(np.float64)
            objective, steps = _batch_gradients(model, x, by_document, y[idx], config.l2_lambda,
                                                mask, keep, rate)
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
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<IIII", _VERSION, model.input_dim, model.hidden_dim, model.output_dim)
    header += struct.pack("<I", len(blocks))
    for b in blocks:
        name = b.name.encode("utf-8")
        header += struct.pack("<I", len(name)) + name + struct.pack("<II", b.offset, b.length)
    with Path(path).open("wb") as out:
        out.write(header)
        for arr in (model.w1.T, model.b1, model.w2, model.b2):
            out.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_model(path: str | Path) -> MlpModel:
    """Inverse of save_model; rejects wrong magic, future versions, an
    output size other than one per stance, truncation, and a layout whose
    blocks do not tile [0, input_dim)."""
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
    if output_dim != len(STANCES):
        raise DataFormatError(f"{path}: {output_dim} outputs, expected one per stance")
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
