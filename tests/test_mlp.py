"""Feed-forward network: forward pass, loss, training, gradient checking, io.

The forward and loss oracles are scalar recomputations with math.exp so
they share no numpy code paths with the implementation. Single examples go
through predict_batch and the batch objective as one-row matrices.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import stancekit.mlp as mlp
from stancekit.corpus import Instance, Stance, make_corpus
from stancekit.errors import DataFormatError, TrainingDivergedError
from stancekit.mlp import (
    FeatureMatrix,
    MlpModel,
    TrainingConfig,
    init_model,
    load_model,
    predict_batch,
    save_model,
    softmax,
    train,
)
from stancekit.pipeline import stance_labels
from stancekit.text import BlockSlice

from oracles import PAIR_ATOL, eager_train, gradient_check, one_batch, pair_train

LAYOUT_2 = (BlockSlice("in", 0, 2),)


def row(values) -> np.ndarray:
    """One example as a one-row matrix."""
    return np.asarray([values], dtype=np.float64)


def objective(model, batch, l2_lambda):
    """Batch objective of (values, stance) pairs."""
    x = np.array([values for values, _ in batch], dtype=np.float64)
    y = np.array([label.index for _, label in batch], dtype=np.int64)
    x = one_batch(x.reshape(len(batch), model.input_dim))
    return mlp._batch_gradients(model, mlp._ScaledW1(model.w1, 1.0), x, y, l2_lambda)[0]


def csr(a) -> sp.csr_matrix:
    """The scipy matrix of a batch's CSR arrays (an mlp._Csr)."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def zero_model(input_dim: int = 2, hidden_dim: int = 2) -> MlpModel:
    return MlpModel(
        w1=np.zeros((input_dim, hidden_dim)),
        b1=np.zeros(hidden_dim),
        w2=np.zeros((4, hidden_dim)),
        b2=np.zeros(4),
        feature_layout=(BlockSlice("in", 0, input_dim),),
    )


def scalar_softmax(logits):
    exps = [math.exp(z - max(logits)) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def scalar_probs(model, x):
    """Forward pass of one example in Python floats, one unit at a time."""
    hidden = [
        max(0.0, sum(float(model.w1[i, h]) * float(v) for i, v in enumerate(x))
            + float(model.b1[h]))
        for h in range(model.hidden_dim)
    ]
    logits = [
        sum(float(model.w2[o, h]) * hidden[h] for h in range(model.hidden_dim))
        + float(model.b2[o])
        for o in range(4)
    ]
    return scalar_softmax(logits)


class TestSoftmax:
    def test_uniform_for_zero_logits(self):
        assert list(softmax(np.zeros(4))) == [0.25] * 4

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(0, 5, size=4)
            shift = float(rng.normal(0, 100))
            base = softmax(logits)
            assert np.allclose(softmax(logits + shift), base, atol=1e-12)

    def test_large_logits_stable(self):
        probs = softmax(np.array([1000.0, 0.0, 0.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)


class TestInit:
    def test_shapes_and_determinism(self):
        a = init_model(7, 5, (BlockSlice("in", 0, 7),), seed=3)
        b = init_model(7, 5, (BlockSlice("in", 0, 7),), seed=3)
        assert a.w1.shape == (7, 5) and a.w2.shape == (4, 5)
        assert a.w1.flags.c_contiguous
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert not a.b1.any() and not a.b2.any()

    def test_seed_changes_weights(self):
        a = init_model(7, 5, (BlockSlice("in", 0, 7),), seed=3)
        b = init_model(7, 5, (BlockSlice("in", 0, 7),), seed=4)
        assert not np.array_equal(a.w1, b.w1)

    def test_w1_drawn_in_chunks_as_one_draw(self, monkeypatch):
        # 2 hidden units of 5 inputs per chunk: 4 chunks for 7 units
        monkeypatch.setattr(mlp, "_CHUNK_WEIGHTS", 10)
        model = init_model(5, 7, (BlockSlice("in", 0, 5),), seed=3)
        rng = np.random.default_rng(3)
        drawn = rng.uniform(-math.sqrt(6.0 / 12), math.sqrt(6.0 / 12), size=(7, 5))
        assert model.w1.tobytes() == np.ascontiguousarray(drawn.T).tobytes()
        # the stream stands where one draw of all of w1 leaves it
        after = rng.uniform(-math.sqrt(6.0 / 11), math.sqrt(6.0 / 11), size=(4, 7))
        assert model.w2.tobytes() == after.tobytes()

    def test_glorot_bounds(self):
        model = init_model(10, 6, (BlockSlice("in", 0, 10),), seed=0)
        limit1 = math.sqrt(6.0 / (10 + 6))
        limit2 = math.sqrt(6.0 / (6 + 4))
        assert np.all(np.abs(model.w1) <= limit1)
        assert np.all(np.abs(model.w2) <= limit2)


def pencil_model() -> MlpModel:
    """2-input, 2-hidden network small enough to run on paper."""
    return MlpModel(
        w1=np.array([[1.0, 0.0], [0.0, -1.0]]),
        b1=np.array([0.5, 0.5]),
        w2=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.0]]),
        b2=np.array([0.0, 0.1, 0.0, 0.0]),
        feature_layout=LAYOUT_2,
    )


def pencil_probs():
    # x=[1,2]: pre=[1.5,-1.5], relu=[1.5,0], logits=[1.5, 0.1, 0.75, -1.5]
    return scalar_softmax([1.5, 0.1, 0.75, -1.5])


class TestForward:
    def test_zero_model_uniform(self):
        _, probs = predict_batch(zero_model(), row([3.0, -1.0]))
        assert list(probs[0]) == [0.25] * 4

    def test_pencil_network(self):
        _, probs = predict_batch(pencil_model(), row([1.0, 2.0]))
        assert list(probs[0]) == pytest.approx(pencil_probs(), abs=1e-12)

    def test_probabilities_normalized(self):
        model = init_model(3, 4, (BlockSlice("in", 0, 3),), seed=1)
        _, probs = predict_batch(model, row([0.3, -2.0, 5.0]))
        assert float(probs[0].sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)


class TestPredict:
    def test_argmax(self):
        model = zero_model()
        model.b2[:] = np.log([0.1, 0.2, 0.3, 0.4])
        stances, probs = predict_batch(model, row([0.0, 0.0]))
        assert stances[0] is Stance.UNRELATED
        assert list(probs[0]) == pytest.approx([0.1, 0.2, 0.3, 0.4], abs=1e-12)

    def test_exact_tie_lowest_index(self):
        stances, probs = predict_batch(zero_model(), row([1.0, 1.0]))
        assert stances[0] is Stance.AGREE
        assert list(probs[0]) == [0.25] * 4

    def test_pencil_argmax(self):
        stances, _ = predict_batch(pencil_model(), row([1.0, 2.0]))
        want = max(range(4), key=lambda i: pencil_probs()[i])
        assert stances[0].index == want

    def test_predict_batch_matches_scalar_rows(self):
        model = init_model(3, 5, (BlockSlice("in", 0, 3),), seed=8)
        rng = np.random.default_rng(2)
        matrix = rng.normal(0, 1, size=(20, 3))
        stances, probs = predict_batch(model, matrix)
        for i in range(20):
            want = scalar_probs(model, matrix[i])
            assert stances[i].index == max(range(4), key=lambda k: want[k])
            # the oracle sums in a different order; equality holds to ulps
            assert np.allclose(probs[i], want, rtol=0, atol=1e-12)


class TestLoss:
    def test_uniform_is_ln4(self):
        batch = [([1.0, -1.0], Stance.DISCUSS)]
        # zero weights: l2 penalty vanishes even with lambda > 0
        assert objective(zero_model(), batch, 0.5) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_approaches_zero(self):
        model = zero_model()
        model.b2[0] = 30.0
        batch = [([0.0, 0.0], Stance.AGREE)]
        assert objective(model, batch, 0.0) < 1e-7

    def test_scalar_recomputation(self):
        model = pencil_model()
        batch = [
            ([1.0, 2.0], Stance.AGREE),
            ([0.0, -1.0], Stance.UNRELATED),
            ([2.0, 0.5], Stance.DISCUSS),
        ]

        def one_ce(x, label):
            pre = [
                model.w1[0, h] * x[0] + model.w1[1, h] * x[1] + model.b1[h]
                for h in range(2)
            ]
            hidden = [max(0.0, p) for p in pre]
            logits = [
                sum(model.w2[o, h] * hidden[h] for h in range(2)) + model.b2[o]
                for o in range(4)
            ]
            return -math.log(scalar_softmax(logits)[label.index])

        ce = sum(one_ce(x, lbl) for x, lbl in batch) / len(batch)
        penalty = 0.01 * (
            sum(v * v for v in model.w1.reshape(-1))
            + sum(v * v for v in model.w2.reshape(-1))
        )
        assert objective(model, batch, 0.01) == pytest.approx(ce + penalty, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            objective(zero_model(), [], TrainingConfig().l2_lambda)


def separable_toy(n: int = 20):
    """Two linearly separable classes on the x axis."""
    rng = np.random.default_rng(4)
    points, labels = [], []
    for i in range(n):
        side = 1.0 if i % 2 else -1.0
        points.append([side * (1.5 + rng.random()), float(rng.normal(0, 0.2))])
        labels.append(Stance.AGREE if side > 0 else Stance.DISAGREE)
    return FeatureMatrix.of(np.array(points), LAYOUT_2), labels


class TestTrain:
    def test_separable_toy_reaches_perfect_accuracy(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(
            learning_rate=0.1, batch_size=5, epochs=200, dropout_keep=1.0,
            l2_lambda=0.0, seed=0,
        )
        model = train(feats, labels, cfg, hidden_dim=8)
        stances, _ = predict_batch(model, feats.matrix)
        correct = sum(s is lbl for s, lbl in zip(stances, labels))
        assert correct == len(labels)

    def test_bitwise_deterministic(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(learning_rate=0.05, batch_size=4, epochs=10, seed=11)
        a = train(feats, labels, cfg, hidden_dim=6)
        b = train(feats, labels, cfg, hidden_dim=6)
        assert a.w1.tobytes() == b.w1.tobytes()
        assert a.b1.tobytes() == b.b1.tobytes()
        assert a.w2.tobytes() == b.w2.tobytes()
        assert a.b2.tobytes() == b.b2.tobytes()

    def test_l2_shrinks_weights(self):
        # lambda 1e3 needs a step small enough that decay stays contractive
        feats, labels = separable_toy()
        base = TrainingConfig(learning_rate=1e-4, batch_size=5, epochs=30,
                              dropout_keep=1.0, l2_lambda=0.0, seed=2)
        heavy = TrainingConfig(learning_rate=1e-4, batch_size=5, epochs=30,
                               dropout_keep=1.0, l2_lambda=1e3, seed=2)
        free = train(feats, labels, base, hidden_dim=6)
        shrunk = train(feats, labels, heavy, hidden_dim=6)
        assert np.linalg.norm(shrunk.w1) < np.linalg.norm(free.w1)
        assert np.linalg.norm(shrunk.w2) < np.linalg.norm(free.w2)

    def test_divergence_names_epoch(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(learning_rate=1e12, batch_size=5, epochs=50, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(feats, labels, cfg, hidden_dim=6)
        assert err.value.epoch >= 1

    def test_epoch_callback_one_based(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(learning_rate=0.01, batch_size=10, epochs=5, seed=0)
        seen = []
        train(feats, labels, cfg, hidden_dim=4,
              epoch_callback=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [1, 2, 3, 4, 5]
        assert all(math.isfinite(l) for _, l in seen)

    def test_label_count_mismatch(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(seed=0)
        with pytest.raises(ValueError):
            train(feats, labels[:-1], cfg)

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_label_outside_stances_rejected(self, bad, as_array):
        # -1 would otherwise index the last class, "unrelated"
        feats, labels = separable_toy()
        indices = [lbl.index for lbl in labels[:-1]] + [bad]
        if as_array:
            indices = np.array(indices, dtype=np.int64)
        with pytest.raises(ValueError, match=f"label {bad} is not a stance index"):
            train(feats, indices, TrainingConfig(seed=0), hidden_dim=4)

    def test_stance_list_and_stance_labels_train_the_same_model(self):
        feats, labels = separable_toy()
        corpus = make_corpus([Instance(f"h{i}", 1, lbl) for i, lbl in enumerate(labels)],
                             {1: "body"})
        indices = stance_labels(corpus)
        assert indices.dtype == np.int64
        cfg = TrainingConfig(learning_rate=0.05, batch_size=4, epochs=5, seed=3)
        a = train(feats, labels, cfg, hidden_dim=6)
        b = train(feats, indices, cfg, hidden_dim=6)
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_dropout_path_deterministic(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(learning_rate=0.05, batch_size=5, epochs=10,
                             dropout_keep=0.5, seed=6)
        a = train(feats, labels, cfg, hidden_dim=6)
        b = train(feats, labels, cfg, hidden_dim=6)
        assert a.w1.tobytes() == b.w1.tobytes()

    def test_batch_larger_than_corpus_is_one_batch(self):
        feats, labels = document_toy(seed=3)
        n = feats.shape[0]
        whole = TrainingConfig(learning_rate=0.05, batch_size=n, epochs=3, seed=1)
        huge = replace(whole, batch_size=10**12)  # a valid config; nothing is sized by it
        a, b = train(feats, labels, whole, hidden_dim=5), train(feats, labels, huge, hidden_dim=5)
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def sparse_toy(n: int = 60, dim: int = 40, seed: int = 3):
    """Random non-negative CSR rows, about a fifth of them non-zero, with
    labels from all four stances."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n, dim)) * (rng.random((n, dim)) < 0.2)
    labels = [int(v) for v in rng.integers(0, 4, size=n)]
    layout = (BlockSlice("in", 0, dim),)
    return FeatureMatrix.of(sp.csr_matrix(dense), layout), labels


def dense_toy():
    """sparse_toy's rows as a dense matrix."""
    feats, labels = sparse_toy()
    return FeatureMatrix.of(feats.pairs.toarray(), feats.layout), labels


# (learning_rate, l2_lambda): the default lambda, 2 * rate * lambda > 1
# (decay flips the weights' sign every step), test_l2_shrinks_weights's,
# and a decay of exactly 0 (2 * rate * lambda = 1)
EAGER_CASES = [(0.05, 1e-4), (0.05, 15.0), (1e-4, 1e3), (0.5, 1.0)]


class TestTrainMatchesEager:
    """train applies l2 as in-place weight decay with the rate folded into
    the backward pass; eager_train adds 2 * lambda * w to the gradient. The
    two agree up to rounding: both draw the same random numbers, so only
    the order of floating-point operations differs."""

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("keep", [1.0, 0.6])
    @pytest.mark.parametrize("rate,lam", EAGER_CASES)
    def test_same_weights_losses_and_decisions(self, dense, keep, rate, lam):
        feats, labels = sparse_toy()
        if dense:
            feats = FeatureMatrix.of(feats.pairs.toarray(), feats.layout)
        cfg = TrainingConfig(learning_rate=rate, batch_size=16, epochs=12,
                             dropout_keep=keep, l2_lambda=lam, seed=5)
        losses = []
        model = train(feats, labels, cfg, hidden_dim=7,
                      epoch_callback=lambda e, loss: losses.append(loss))
        want, want_losses = eager_train(feats, labels, cfg, hidden_dim=7)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(model, name), getattr(want, name),
                               rtol=1e-12, atol=0), name
        assert np.allclose(losses, want_losses, rtol=1e-13, atol=0)
        assert predict_batch(model, feats.matrix)[0] == predict_batch(want, feats.matrix)[0]


def document_toy(seed: int, n: int = 60, pair_cols: int = 2, heads: int = 12, bodies: int = 5,
                 head_cols: int = 9, body_cols: int = 11, density: float = 0.4):
    """A FeatureMatrix with a document side, and labels from all four
    stances: sparse non-negative headline and body rows over head_cols and
    body_cols columns, about density of each row non-zero, examples that
    share them, and dense pair columns, the three kinds of column shuffled
    together."""
    rng = np.random.default_rng(seed)
    width = head_cols + body_cols + pair_cols
    at = np.split(rng.permutation(width), [head_cols, head_cols + body_cols])
    docs = np.zeros((heads + bodies, width))
    for rows, cols in ((slice(0, heads), at[0]), (slice(heads, None), at[1])):
        side = docs[rows]
        side[:, cols] = (rng.random((len(side), len(cols)))
                         * (rng.random((len(side), len(cols))) < density))
    feats = FeatureMatrix(rng.random((n, pair_cols)), sp.csr_matrix(docs),
                          rng.integers(0, heads, n), heads + rng.integers(0, bodies, n),
                          np.sort(at[2]), (BlockSlice("in", 0, width),))
    return feats, [int(v) for v in rng.integers(0, 4, size=n)]


def wide_toy():
    """document_toy over 150 headline and 250 body columns, a few of them
    non-zero in each document: a batch of 4 examples touches about a
    tenth of w1's rows."""
    return document_toy(seed=8, head_cols=150, body_cols=250, density=0.02)


class TestDocumentSide:
    """A FeatureMatrix with a document side stands for its example rows:
    the first layer sums each example's headline, body and pair
    projections, and a batch sums w1's gradient per document."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), size=st.integers(1, 12),
           pair_cols=st.integers(0, 2))
    def test_batches_stand_for_their_rows(self, seed, n, size, pair_cols):
        feats, _ = document_toy(seed, n=n, pair_cols=pair_cols)
        model = init_model(feats.shape[1], 5, feats.layout, seed=seed)
        model.b1[:] = np.linspace(-0.5, 0.5, 5)
        x = feats.matrix.toarray()
        # a dot product's rounding is relative to the sum of its |terms|
        scale = np.abs(x) @ np.abs(model.w1) + np.abs(model.b1)
        got = mlp._batch_forward(model, feats)[0]
        assert np.all(np.abs(got - (x @ model.w1 + model.b1)) <= 1e-12 * scale)
        g = np.random.default_rng(seed).normal(size=(n, 5))
        side = x.copy()
        side[:, feats.pair_columns] = 0.0
        for rows, batch in mlp._batches(feats, np.random.default_rng(seed).permutation(n), size):
            # the batch's documents are the distinct ones its rows use, ascending
            used = np.unique(np.concatenate((feats.head_row[rows], feats.body_row[rows])))
            docs = csr(batch.docs)
            assert docs.shape[0] == len(used)
            assert np.array_equal(docs.toarray(), feats.docs[used].toarray())
            assert np.array_equal(used[batch.head_row], feats.head_row[rows])
            assert np.array_equal(used[batch.body_row], feats.body_row[rows])
            examples = replace(batch, docs=docs)
            assert np.array_equal(examples.matrix.toarray(), x[rows])
            # the per-document step, as take subtracts it from zeros at scale 1
            taken = mlp._ScaledW1(np.zeros((feats.shape[1], 5)), 1.0)
            taken.take(batch, g[rows])
            step = -taken.w
            step[feats.pair_columns] = 0.0
            want = side[rows].T @ g[rows]
            assert np.all(np.abs(step - want) <= 1e-12 * (np.abs(side[rows].T) @ np.abs(g[rows])))

    def test_step_sums_each_document_in_row_order(self):
        """take's bits: g_pre / scale summed over each document's rows in
        row order, then the negated sums added into w entry by entry, in
        document order."""
        feats, _ = document_toy(seed=6, n=12, pair_cols=0, heads=3, bodies=2)
        rows = np.random.default_rng(6).permutation(12)[:9]
        batch = next(mlp._batches(feats, rows, 9))[1]
        rng = np.random.default_rng(7)
        w1 = mlp._ScaledW1(rng.normal(size=(feats.shape[1], 3)), 0.7)
        g_pre = rng.normal(size=(9, 3))
        want = w1.w.tolist()
        docs = feats.docs
        for d in sorted({int(i) for i in np.concatenate((feats.head_row[rows],
                                                          feats.body_row[rows]))}):
            total = [0.0] * 3
            for j, r in enumerate(rows):
                for doc in (feats.head_row[r], feats.body_row[r]):
                    if doc == d:
                        total = [t + float(v) / 0.7 for t, v in zip(total, g_pre[j])]
            for k in range(docs.indptr[d], docs.indptr[d + 1]):
                dst = want[int(docs.indices[k])]
                for v in range(3):
                    dst[v] = dst[v] + float(docs.data[k]) * -total[v]
        w1.take(batch, g_pre)
        assert w1.scale == 0.7
        assert w1.w.tobytes() == np.array(want).tobytes()

    def test_gradient_check(self):
        feats, labels = document_toy(seed=2, n=20)
        model = init_model(feats.shape[1], 4, feats.layout, seed=2)
        model.b1[:] = [0.3, -0.2, 0.4, 0.1]
        cfg = TrainingConfig(dropout_keep=1.0, l2_lambda=1e-3)
        assert gradient_check(model, feats, labels, cfg, sample_size=200) < 1e-5

    @pytest.mark.parametrize("pair_cols", [0, 2])
    @pytest.mark.parametrize("keep", [1.0, 0.6])
    def test_train_matches_pair_rows(self, keep, pair_cols):
        """pair_train multiplies one example row per instance; only the order
        of additions differs, so weights agree to a few ulps."""
        feats, labels = document_toy(seed=4, pair_cols=pair_cols)
        cfg = TrainingConfig(learning_rate=0.05, batch_size=16, epochs=6,
                             dropout_keep=keep, l2_lambda=1e-4, seed=5)
        losses = []
        model = train(feats, labels, cfg, hidden_dim=7,
                      epoch_callback=lambda e, loss: losses.append(loss))
        want, want_losses = pair_train(feats, labels, cfg, hidden_dim=7)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(model, name), getattr(want, name),
                               rtol=0, atol=PAIR_ATOL), name
        assert np.allclose(losses, want_losses, rtol=1e-14, atol=0)
        assert predict_batch(model, feats)[0] == predict_batch(want, feats.matrix)[0]


#: toy -> (features and labels, the batch size its pins train with)
TOYS = {
    "sparse": (sparse_toy, 16),
    "dense": (dense_toy, 16),
    "documents": (lambda: document_toy(seed=4), 16),
    "wide": (wide_toy, 4),
}


def touched_rows(x) -> np.ndarray:
    """The rows of w1 a batch's step touches: its document columns and its
    pair columns."""
    return np.union1d(x.docs.indices, x.pair_columns)


class TestStepForms:
    """train takes w1's step in one form: it adds the step straight into the
    rows of w1 the batch touches, and carries each row's squared norm,
    reading only those rows again; the decay multiplies a scale."""

    def test_untouched_rows_keep_their_bytes(self):
        feats, _ = wide_toy()
        rng = np.random.default_rng(1)
        for rows, x in mlp._batches(feats, rng.permutation(feats.shape[0]), 4):
            w1 = mlp._ScaledW1(rng.normal(size=(feats.shape[1], 7)), 0.9)
            before = w1.w.copy()
            w1.take(x, rng.normal(size=(len(rows), 7)))
            touched = touched_rows(x)
            assert 2 * len(touched) < feats.shape[1]
            assert w1.scale == 0.9
            assert np.delete(w1.w, touched, axis=0).tobytes() == \
                np.delete(before, touched, axis=0).tobytes()
            assert not np.array_equal(w1.w[touched], before[touched])

    @pytest.mark.parametrize("toy", sorted(TOYS))
    def test_carried_norms_track_fresh_ones(self, toy):
        make, batch_size = TOYS[toy]
        feats, _ = make()
        rng = np.random.default_rng(2)
        w1 = mlp._ScaledW1(init_model(feats.shape[1], 7, feats.layout, seed=3).w1, 0.99)
        steps = 0
        for rows, x in mlp._batches(feats, rng.permutation(feats.shape[0]), batch_size):
            w1.take(x, rng.normal(scale=0.1, size=(len(rows), 7)))
            # a touched row's norm is read again from the same bytes
            assert w1.row_sq.tobytes() == mlp._sq_norms(w1.w).tobytes()
            fresh = float(np.sum(w1.w * w1.w))
            assert abs(w1.row_sq.sum() - fresh) <= 1e-12 * fresh
            steps += 1
        assert steps == -(-feats.shape[0] // batch_size)

    @pytest.mark.parametrize("scale", [0.37, -1.7])
    def test_gradient_check_at_a_scale(self, scale):
        """The finite differences see the weights scale * w1; the step is
        taken at that scale, on the rows one batch of 4 touches, fewer than
        half of w1's."""
        feats, labels = wide_toy()
        feats = replace(feats, pairs=feats.pairs[:4], head_row=feats.head_row[:4],
                        body_row=feats.body_row[:4])
        model = init_model(feats.shape[1], 4, feats.layout, seed=2)
        model.b1[:] = [0.3, -0.2, 0.4, 0.1]
        assert 2 * len(touched_rows(one_batch(feats))) < feats.shape[1]
        # on the rows no batch touches the gradient is l2's alone; at 1e-3
        # it falls to 1e-7 on the smallest weights, where the differences'
        # rounding is a relative 1e-5
        cfg = TrainingConfig(dropout_keep=1.0, l2_lambda=0.1)
        assert gradient_check(model, feats, labels[:4], cfg, sample_size=200, scale=scale) < 1e-5

    @pytest.mark.parametrize("keep", [1.0, 0.6])
    def test_compressed_step_matches_pair_rows(self, keep):
        feats, labels = wide_toy()
        cfg = TrainingConfig(learning_rate=0.05, batch_size=4, epochs=6,
                             dropout_keep=keep, l2_lambda=1e-4, seed=5)
        losses = []
        model = train(feats, labels, cfg, hidden_dim=7,
                      epoch_callback=lambda e, loss: losses.append(loss))
        want, want_losses = pair_train(feats, labels, cfg, hidden_dim=7)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(model, name), getattr(want, name),
                               rtol=0, atol=PAIR_ATOL), name
        assert np.allclose(losses, want_losses, rtol=1e-14, atol=0)
        assert predict_batch(model, feats)[0] == predict_batch(want, feats.matrix)[0]

    @pytest.mark.parametrize("keep", [1.0, 0.6])
    @pytest.mark.parametrize("rate,lam", EAGER_CASES)
    def test_compressed_step_matches_eager(self, keep, rate, lam):
        feats, labels = wide_toy()
        cfg = TrainingConfig(learning_rate=rate, batch_size=4, epochs=6,
                             dropout_keep=keep, l2_lambda=lam, seed=5)
        losses = []
        model = train(feats, labels, cfg, hidden_dim=7,
                      epoch_callback=lambda e, loss: losses.append(loss))
        want, want_losses = eager_train(feats, labels, cfg, hidden_dim=7)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(model, name), getattr(want, name),
                               rtol=1e-12, atol=0), name
        assert np.allclose(losses, want_losses, rtol=1e-13, atol=0)
        assert predict_batch(model, feats)[0] == predict_batch(want, feats.matrix)[0]

    # (learning_rate, l2_lambda, folds in 48 steps): the scale never reaches
    # the floor; 0.5 ** 30 < 1e-9 folds once at step 30; a decay of 0 folds
    # every step
    @pytest.mark.parametrize("rate,lam,folds", [(0.05, 1e-4, 0), (0.05, 15.0, 1),
                                                (0.5, 1.0, 48)])
    def test_whole_w1_norm_read_at_start_and_per_fold(self, monkeypatch, rate, lam, folds):
        reads, real = [], mlp._sq_norms

        def recording(a):
            reads.append(a)
            return real(a)

        monkeypatch.setattr(mlp, "_sq_norms", recording)
        feats, labels = sparse_toy()
        cfg = TrainingConfig(learning_rate=rate, batch_size=16, epochs=12,
                             dropout_keep=1.0, l2_lambda=lam, seed=5)
        model = train(feats, labels, cfg, hidden_dim=7)
        assert mlp._SCALE_FLOOR == 1e-9
        # train folds w1 in place, so every read of all of it reads this array
        assert sum(a is model.w1 for a in reads) == 1 + folds


def random_csr(seed: int, shape: tuple[int, int], index_dtype) -> mlp._Csr:
    """The arrays of a random CSR matrix, every third row empty."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=shape) * (rng.random(shape) < 0.5)
    dense[::3] = 0.0
    m = sp.csr_matrix(dense)
    return mlp._Csr(m.data, m.indices.astype(index_dtype), m.indptr.astype(index_dtype), m.shape)


class TestSparseProduct:
    """_sparse_product runs scipy's private CSR/CSC kernels on bare arrays;
    a scipy release that changes them must fail here, not shift weights."""

    # every third row is empty, so the (1, 30) operand holds no entry at all
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("shape", [(9, 13), (13, 9), (4, 6), (1, 30)])
    @pytest.mark.parametrize("vecs", [1, 2, 7])
    @pytest.mark.parametrize("layout", ["C", "strided", "F"])
    def test_has_the_bits_of_scipy_matmul(self, index_dtype, transpose, shape, vecs, layout):
        a = random_csr(sum(shape) + vecs, shape, index_dtype)
        scipy_a = csr(a).T if transpose else csr(a)  # the CSC of a's arrays
        b = np.random.default_rng(vecs).normal(size=(scipy_a.shape[1], 2 * vecs))
        b = b[:, ::2] if layout == "strided" else np.array(b[:, :vecs], order=layout)
        got = mlp._sparse_product(a, b, transpose)
        want = scipy_a @ b
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("shape", [(9, 13), (13, 9)])
    def test_adds_into_out_term_by_term(self, transpose, shape):
        """train adds its w1 step straight into w1: each term of the
        product is added into out in turn, in the order of a's entries."""
        a = random_csr(sum(shape), shape, np.int32)
        rng = np.random.default_rng(5)
        rows, cols = shape[::-1] if transpose else shape
        b = rng.normal(size=(cols, 3))
        out = rng.normal(size=(rows, 3))
        want = out.tolist()
        for i in range(a.shape[0]):
            for k in range(a.indptr[i], a.indptr[i + 1]):
                j = int(a.indices[k])
                dst, src = (j, i) if transpose else (i, j)
                for v in range(b.shape[1]):
                    want[dst][v] = want[dst][v] + float(a.data[k]) * float(b[src, v])
        assert mlp._sparse_product(a, b, transpose, out=out) is out
        assert out.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_out_must_take_the_sum_in_place(self, transpose):
        a = random_csr(3, (9, 13), np.int32)
        rows, cols = (13, 9) if transpose else (9, 13)
        b = np.ones((cols, 3))
        for out in (np.ones((rows, 3), order="F"), np.ones((rows, 6))[:, ::2],
                    np.ones((rows, 4)), np.ones((rows, 3), dtype=np.float32)):
            kept = out.copy()
            with pytest.raises(ValueError, match="C-contiguous"):
                mlp._sparse_product(a, b, transpose, out=out)
            assert np.array_equal(out, kept)

    def test_train_builds_no_sparse_matrix_per_batch(self, monkeypatch):
        built = []
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
            def counting(self, *args, _real=cls.__init__, **kwargs):
                built.append(type(self))
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        feats, labels = document_toy(seed=4)
        counts = []
        for batch_size in (60, 4):  # 1 and 15 batches an epoch
            built.clear()
            train(feats, labels, TrainingConfig(batch_size=batch_size, epochs=2, seed=5),
                  hidden_dim=7)
            counts.append(len(built))
        assert counts[0] == counts[1]


def random_check_setup(seed: int, input_dim: int = 5, hidden_dim: int = 4, n: int = 6):
    rng = np.random.default_rng(seed)
    layout = (BlockSlice("in", 0, input_dim),)
    model = init_model(input_dim, hidden_dim, layout, seed=seed)
    rows, labels = [], []
    for _ in range(n):
        rows.append(rng.normal(0, 1, size=input_dim))
        labels.append(int(rng.integers(0, 4)))
    return model, np.array(rows), labels


class TestGradientCheck:
    def test_correct_gradients_pass(self):
        model, x, labels = random_check_setup(seed=0)
        cfg = TrainingConfig(dropout_keep=1.0, l2_lambda=1e-3)
        assert gradient_check(model, x, labels, cfg, sample_size=200) < 1e-5

    def test_perturbed_gradient_detected(self, monkeypatch):
        model, x, labels = random_check_setup(seed=1)
        cfg = TrainingConfig(dropout_keep=1.0, l2_lambda=0.0)
        real = mlp._batch_gradients

        def crooked(*args, **kwargs):
            objective, grads = real(*args, **kwargs)
            grads = dict(grads)
            grads["w2"] = grads["w2"].copy()
            grads["w2"][0, 0] *= 1.01
            return objective, grads

        monkeypatch.setattr(mlp, "_batch_gradients", crooked)
        assert gradient_check(model, x, labels, cfg, sample_size=200) > 1e-3

    def test_zero_input_w1_gradient_exactly_zero(self):
        model, _, _ = random_check_setup(seed=2)
        # keep hidden pre-activations off the relu kink at exactly zero,
        # where central differences legitimately disagree with the subgradient
        model.b1[:] = [0.3, -0.2, 0.4, 0.1]
        cfg = TrainingConfig(dropout_keep=1.0, l2_lambda=0.0)
        batch = [([0.0] * 5, Stance.AGREE), ([0.0] * 5, Stance.DISCUSS)]
        before = objective(model, batch, cfg.l2_lambda)
        model.w1 += 17.0  # objective cannot see w1 when every input is zero
        assert objective(model, batch, cfg.l2_lambda) == before
        model.w1 -= 17.0
        x = np.zeros((2, 5))
        labels = [Stance.AGREE, Stance.DISCUSS]
        assert gradient_check(model, x, labels, cfg, sample_size=200) < 1e-5

    def test_requires_dropout_disabled(self):
        model, x, labels = random_check_setup(seed=3)
        cfg = TrainingConfig(dropout_keep=0.6)
        with pytest.raises(ValueError, match="dropout"):
            gradient_check(model, x, labels, cfg)

    def test_empty_batch(self):
        model, _, _ = random_check_setup(seed=4)
        with pytest.raises(ValueError):
            gradient_check(model, np.zeros((0, 5)), [], TrainingConfig(dropout_keep=1.0))


class TestModelIo:
    def test_roundtrip_identical_predictions(self, tmp_path):
        model = init_model(6, 5, (BlockSlice("in", 0, 6),), seed=9)
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.feature_layout == model.feature_layout
        rng = np.random.default_rng(0)
        matrix = rng.normal(0, 2, size=(100, 6))
        stances_a, probs_a = predict_batch(model, matrix)
        stances_b, probs_b = predict_batch(back, matrix)
        assert stances_a == stances_b
        assert np.array_equal(probs_a, probs_b)

    def test_w1_kept_input_major_and_stored_hidden_major(self, tmp_path):
        model = init_model(3, 2, (BlockSlice("in", 0, 3),), seed=5)
        limit = math.sqrt(6.0 / (3 + 2))
        drawn = np.random.default_rng(5).uniform(-limit, limit, size=(2, 3))
        assert np.array_equal(model.w1, drawn.T)
        path = tmp_path / "m.bin"
        save_model(model, path)
        # w1 leads the payload: hidden x input values, then b1, w2 and b2
        payload = path.read_bytes()[-8 * (6 + 2 + 8 + 4):]
        assert payload[: 8 * 6] == drawn.astype("<f8").tobytes()
        back = load_model(path)
        assert back.w1.flags.c_contiguous
        assert back.w1.tobytes() == model.w1.tobytes()

    def test_w1_written_hidden_major_in_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mlp, "_CHUNK_WEIGHTS", 10)
        model = init_model(5, 7, (BlockSlice("in", 0, 5),), seed=1)
        path = tmp_path / "m.bin"
        save_model(model, path)
        payload = b"".join(np.ascontiguousarray(a).tobytes()
                           for a in (model.w1.T, model.b1, model.w2, model.b2))
        assert path.read_bytes().endswith(payload)
        assert load_model(path).w1.tobytes() == model.w1.tobytes()

    @pytest.mark.parametrize("hidden_dim", [1, 3])
    def test_loaded_arrays_own_writeable_memory(self, tmp_path, hidden_dim):
        # with one hidden unit the transposed file view is already
        # C-contiguous, so only an explicit copy detaches w1 from the bytes
        model = init_model(5, hidden_dim, (BlockSlice("in", 0, 5),), seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        for arr in (back.w1, back.b1, back.w2, back.b2):
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        again = tmp_path / "again.bin"
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_truncated_file(self, tmp_path):
        model = init_model(4, 3, (BlockSlice("in", 0, 4),), seed=0)
        path = tmp_path / "m.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(DataFormatError, match="truncated"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        model = init_model(4, 3, (BlockSlice("in", 0, 4),), seed=0)
        path = tmp_path / "m.bin"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"PNG....definitely not a model")
        with pytest.raises(DataFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize(
        "layout",
        [
            (BlockSlice("in", 0, 3),),  # short of input_dim
            (BlockSlice("in", 0, 5),),  # past input_dim
            (BlockSlice("a", 0, 2), BlockSlice("b", 3, 1)),  # a gap
            (BlockSlice("a", 0, 3), BlockSlice("b", 2, 2)),  # an overlap
            (BlockSlice("in", 1, 4),),  # not from 0
        ],
        ids=["short", "past_end", "gap", "overlap", "not_from_0"],
    )
    def test_layout_must_tile_inputs(self, tmp_path, layout):
        model = init_model(4, 3, layout, seed=0)
        path = tmp_path / "m.bin"
        save_model(model, path)
        with pytest.raises(DataFormatError, match="tile the 4 inputs"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = init_model(4, 3, (BlockSlice("in", 0, 4),), seed=0)
        path = tmp_path / "m.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)
