"""From-scratch multilayer perceptron: one ReLU hidden layer, 4-way softmax,
seeded mini-batch SGD with inverted dropout on mean cross-entropy plus
l2_lambda times the squared weights (w1, w2). A step with rate r is
w <- (1 - 2*r*l2_lambda) * w - r * grad(cross-entropy): l2 as weight decay.
w2 decays in place; w1 is held as scale * w during training, so its decay
multiplies the scale, and a step adds straight into the rows its batch
touches. The objective's ||w1||^2 is summed from row norms carried from step
to step, each step reading only the rows it touched. There is one forward
pass, gradient and step, the ones train runs: a trained model predicts
through the same forward pass at scale 1, and the gradient checks in tests
differentiate train's scaled step.

Training and prediction take a FeatureMatrix, which holds a row per
distinct headline and body, so each mini-batch projects a document its
examples share through w1 once and sums their w1 gradients per document
before one sparse product; a plain dense or CSR example matrix is a
FeatureMatrix without document rows. Document rows are text.Csr arrays,
and a mini-batch is a FeatureMatrix of its own rows and documents. Sparse
products run scipy's compiled CSR/CSC kernels on those arrays
(_sparse_product), loaded from their extension file without importing
scipy.sparse: the SGD loop builds no scipy matrix unless the pair columns
are one (a plain CSR example matrix).
Labels are read, and decisions made, through corpus.stance_indices and
corpus.decisions. Prediction is batched only: predict_batch maps whole
example matrices to probability rows and their argmax stances. A trained
model is immutable in practice and safe for concurrent prediction.
"""

from __future__ import annotations

import importlib.util
import struct
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import STANCES, Stance, decisions, stance_indices
from .errors import DataFormatError, TrainingDivergedError, reading
from .text import BlockSlice, Csr, empty_csr, take_rows

_MAGIC = b"SKITMLP0"
_VERSION = 1

#: init_model draws w1 in hidden-major order about this many weights at a
#: time into its input-major array, so it holds no second weight-sized array
#: while cv's concurrent folds train (the fnc-headline benchmark's cv --jobs 2)
_CHUNK_WEIGHTS = 1 << 18

#: train multiplies w1's scale into its weights once |scale| falls below this
_SCALE_FLOOR = 1e-9


def _load_sparsetools():
    """scipy's compiled sparsetools module, loaded from its extension file
    in scipy's installed sparse directory. Importing scipy.sparse for it
    would start every command about 0.1 s later."""
    scipy = importlib.util.find_spec("scipy")  # finds the package without running it
    if scipy is None:
        raise ImportError("stancekit needs scipy, which is not installed")
    where = Path(scipy.origin).parent / "sparse"
    spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "scipy.sparse._sparsetools")
    if spec is None:
        raise ImportError(f"no scipy sparsetools extension in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


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
    cosine, embedding similarity), dense or scipy CSR. As x @ w1 is linear
    in x, a document is projected once however many examples share it. In
    a mini-batch (_batches) docs holds the batch's documents alone."""

    pairs: np.ndarray  # or a scipy CSR matrix
    docs: Csr
    head_row: np.ndarray
    body_row: np.ndarray
    pair_columns: np.ndarray
    layout: tuple[BlockSlice, ...] = ()

    @classmethod
    def of(cls, x, layout: tuple[BlockSlice, ...] = ()) -> FeatureMatrix:
        """A plain dense or CSR example matrix: every column a pair column,
        both documents of every example one empty row."""
        unused = np.zeros(x.shape[0], dtype=np.intp)
        return cls(x, empty_csr((1, x.shape[1])), unused, unused, np.arange(x.shape[1]), layout)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pairs.shape[0], self.docs.shape[1]

    @cached_property
    def matrix(self):
        """The (examples, inputs) scipy CSR matrix, built on first read;
        training and prediction never read it, and only it imports
        scipy.sparse."""
        import scipy.sparse as sp

        docs = sp.csr_matrix((self.docs.data, self.docs.indices, self.docs.indptr),
                             shape=self.docs.shape)
        pairs = sp.csr_matrix(self.pairs)
        placed = sp.csr_matrix((pairs.data, self.pair_columns[pairs.indices], pairs.indptr),
                               shape=self.shape)
        return docs[self.head_row] + docs[self.body_row] + placed


def _sparse_product(a: Csr, b: np.ndarray, transpose: bool = False,
                    out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, or with transpose a.T @ b (the CSC matrix of a's arrays), for
    a 2-d float64 b: the kernel scipy's @ runs, on a's arrays, so the
    product has @'s bits and no scipy matrix is built. The kernel adds each
    term into its output in turn: out, a C-contiguous float64 array of the
    product's shape, or a zero-filled one. scipy's sparsetools is private,
    so a test pins this against @; there is no fallback path."""
    rows, cols = a.shape[::-1] if transpose else a.shape
    if out is None:
        out = np.zeros((rows, b.shape[1]))
    elif (out.shape != (rows, b.shape[1]) or out.dtype != np.float64
          or not out.flags.c_contiguous):  # ravel would copy it and drop the sum
        raise ValueError("out must be a C-contiguous float64 array of the product's shape")
    kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
    kernel(rows, cols, b.shape[1], a.indptr, a.indices, a.data, b.ravel(), out.ravel())
    return out


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
                   keep: float = 1.0, w1_scale: float = 1.0):
    """(hidden_pre, hidden, probs, logits, lse) of the rows x under the
    weights w1_scale * model.w1 (train's _ScaledW1; 1.0 for a trained
    model)."""
    # overflow here surfaces as a non-finite objective, which train() turns
    # into TrainingDivergedError; the interim warnings are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        projected = _sparse_product(x.docs, model.w1)  # each document once
        hidden_pre = projected[x.head_row]
        hidden_pre += projected[x.body_row]
        hidden_pre += x.pairs @ model.w1[x.pair_columns]
        hidden_pre *= w1_scale
        hidden_pre += model.b1
        hidden = np.maximum(0.0, hidden_pre)
        if mask is not None:
            hidden = hidden * mask / keep
        logits = hidden @ model.w2.T + model.b2
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)  # one exp for the softmax and the log-sum-exp
        total = e.sum(axis=1, keepdims=True)
        return hidden_pre, hidden, e / total, logits, np.log(total[:, 0]) + top[:, 0]


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Each row's sum of squares of the 2-d a, in one read pass; einsum's
    loop, unlike BLAS dot, adds in an order that does not depend on the
    thread count."""
    return np.einsum("ij,ij->i", a, a)


class _ScaledW1:
    """model.w1 during train, held as scale * w: the sparse-update trick of
    Bottou 2012 ("Stochastic Gradient Descent Tricks", section 5.1). The l2
    decay multiplies scale alone, so a step changes only the rows of w its
    batch touches. row_sq carries each row's ||w_r||^2 from step to step, and
    a step reads only the rows it touched; all of w is read for it only here
    and after a fold, which multiplies scale into w once |scale| falls below
    _SCALE_FLOOR (and when the decay is exactly 0)."""

    def __init__(self, w: np.ndarray, decay: float):
        self.w, self.decay, self.scale = w, decay, 1.0
        self.row_sq = _sq_norms(w)

    def take(self, x: FeatureMatrix, g_pre: np.ndarray) -> None:
        """Decays, then subtracts x.T @ g_pre / scale, the step at the new
        scale, from w. The CSC kernel sums g_pre / scale per document over
        the 0/1 (rows, documents) matrix of x's uses, row j its headline
        then its body, so each document adds its rows in row order; it then
        adds the negated sums into the rows of the batch's document columns,
        and x.pairs.T @ (g_pre / scale) comes off the pair columns' rows.
        Only those rows' norms are read again."""
        scale = self.scale * self.decay
        folds = abs(scale) < _SCALE_FLOOR
        if folds:
            self.w *= scale
            scale = 1.0
        self.scale = scale
        g = g_pre / scale
        n = len(g)
        uses = Csr(np.ones(2 * n), np.column_stack((x.head_row, x.body_row)).ravel(),
                    np.arange(0, 2 * n + 1, 2), (n, x.docs.shape[0]))
        touched = np.zeros(len(self.w), dtype=bool)
        touched[x.docs.indices] = True
        touched[x.pair_columns] = True
        _sparse_product(x.docs, -_sparse_product(uses, g, transpose=True), transpose=True,
                        out=self.w)
        self.w[x.pair_columns] -= x.pairs.T @ g  # rows no document column touches
        if folds:
            self.row_sq = _sq_norms(self.w)
        else:
            self.row_sq[touched] = _sq_norms(self.w.compress(touched, axis=0))

    def fold(self) -> None:
        """Multiplies scale into w, which then holds the weights themselves."""
        if self.scale != 1.0:
            self.w *= self.scale
            self.scale = 1.0


def _batches(features: FeatureMatrix, order: np.ndarray,
             size: int) -> Iterator[tuple[np.ndarray, FeatureMatrix]]:
    """(rows, batch) of each mini-batch, size rows of order in turn. The
    batch is a FeatureMatrix of those rows whose docs holds only the
    distinct documents they use, in ascending document order, their
    entries copied straight from features.docs."""
    for start in range(0, len(order), size):
        rows = order[start : start + size]
        used, local = np.unique(np.concatenate((features.head_row[rows], features.body_row[rows])),
                                return_inverse=True)
        yield rows, FeatureMatrix(features.pairs[rows], take_rows(features.docs, used),
                                  local[: len(rows)], local[len(rows) :], features.pair_columns)


def _batch_gradients(model, w1: _ScaledW1, x, y, l2_lambda, mask=None, keep=1.0, rate=1.0):
    """(objective, steps) for one mini-batch x, as _batches makes it, under
    the weights w1.scale * w1.w (w1.w is model.w1): mean cross-entropy,
    computed from logits, plus the l2 penalty, which reads w1's carried
    row norms; rate times the cross-entropy gradients (not the l2 one, which
    train applies as decay), keyed like the fields. rate rides on the
    (batch, 4) error; steps["w1"] is the (batch, hidden) g_pre, whose step
    at the new scale w1.take subtracts.
    """
    n = len(y)
    if n == 0:
        raise ValueError("empty batch")
    hidden_pre, hidden, probs, logits, lse = _batch_forward(model, x, mask, keep, w1.scale)
    ce = float(np.mean(lse - logits[np.arange(n), y]))

    g_logits = probs  # probs is not read again
    g_logits[np.arange(n), y] -= 1.0
    g_logits *= rate / n

    g_hidden = g_logits @ model.w2
    if mask is not None:
        g_hidden = g_hidden * mask / keep
    g_pre = g_hidden * (hidden_pre > 0.0)
    steps = {"b1": g_pre.sum(axis=0), "w2": g_logits.T @ hidden, "b2": g_logits.sum(axis=0)}
    steps["w1"] = g_pre
    l2 = w1.scale * w1.scale * float(w1.row_sq.sum()) + float(_sq_norms(model.w2).sum())
    return ce + l2_lambda * l2, steps


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

    The decay multiplies w2 and the scale of w1 (a _ScaledW1), which is
    multiplied into w1 before train returns, so the model holds the
    weights themselves.

    Deterministic given (data order, config.seed): init_model draws the weights, and train
    the shuffles and dropout masks, each from its own default_rng(config.seed). Raises
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
    w1 = _ScaledW1(model.w1, decay)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for idx, x in _batches(features, order, config.batch_size):
            mask = None
            if keep < 1.0:
                mask = (rng.random((len(idx), hidden_dim)) < keep).astype(np.float64)
            objective, steps = _batch_gradients(model, w1, x, y[idx], config.l2_lambda, mask,
                                                keep, rate)
            if not np.isfinite(objective):
                raise TrainingDivergedError(epoch)
            w1.take(x, steps.pop("w1"))
            model.w2 *= decay
            for name, step in steps.items():
                param = getattr(model, name)
                param -= step
            epoch_loss += objective * len(idx)
        if epoch_callback is not None:
            epoch_callback(epoch, epoch_loss / n)
    w1.fold()
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
        with reading(path):
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
