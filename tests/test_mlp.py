"""Feed-forward network: forward pass, loss, training, gradient checking, io.

The forward and loss oracles are scalar recomputations with math.exp so
they share no numpy code paths with the implementation. Single examples go
through predict_batch and the batch objective as one-row matrices.
"""

import math

import numpy as np
import pytest

import stancekit.mlp as mlp
from stancekit.corpus import Stance
from stancekit.errors import DataFormatError, TrainingDivergedError
from stancekit.mlp import (
    MlpModel,
    TrainingConfig,
    gradient_check,
    init_model,
    load_model,
    predict_batch,
    save_model,
    softmax,
    train,
)
from stancekit.pipeline import FeatureMatrix
from stancekit.text import BlockSlice

LAYOUT_2 = (BlockSlice("in", 0, 2),)


def row(values) -> np.ndarray:
    """One example as a one-row matrix."""
    return np.asarray([values], dtype=np.float64)


def objective(model, batch, l2_lambda):
    """Batch objective of (values, stance) pairs."""
    x = np.array([values for values, _ in batch], dtype=np.float64)
    y = np.array([label.index for _, label in batch], dtype=np.int64)
    return mlp._batch_gradients(model, x, y, l2_lambda)[0]


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
    return FeatureMatrix(matrix=np.array(points), layout=LAYOUT_2), labels


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

    def test_dropout_path_deterministic(self):
        feats, labels = separable_toy()
        cfg = TrainingConfig(learning_rate=0.05, batch_size=5, epochs=10,
                             dropout_keep=0.5, seed=6)
        a = train(feats, labels, cfg, hidden_dim=6)
        b = train(feats, labels, cfg, hidden_dim=6)
        assert a.w1.tobytes() == b.w1.tobytes()


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

    def test_trailing_bytes_rejected(self, tmp_path):
        model = init_model(4, 3, (BlockSlice("in", 0, 4),), seed=0)
        path = tmp_path / "m.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)
