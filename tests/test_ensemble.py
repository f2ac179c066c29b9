"""Probability fusion rules and the learned concatenation combiner."""

import json
import math
import operator

import numpy as np
import pytest

from stancekit.corpus import STANCES, Stance, decisions
from stancekit.ensemble import (
    CONCATENATION,
    SUMMATION,
    EnsembleMember,
    EnsembleSpec,
    LinearCombiner,
    fit_concat_combiner,
    fuse,
    load_combiner,
    save_combiner,
)
from stancekit.errors import DataFormatError

from oracles import fuse_concatenation_row, fuse_summation_row


def one_hot(index: int, sharp: float = 1.0) -> np.ndarray:
    probs = np.full(4, (1.0 - sharp) / 3.0)
    probs[index] = sharp
    return probs


def fuse_one(members, combiner=None):
    """Fuse a single row of member vectors; returns (fused, decision)."""
    rule = SUMMATION if combiner is None else CONCATENATION
    fused = fuse(np.array([members]), rule, combiner)
    assert fused.shape == (1, 4)
    return fused[0], decisions(fused)[0]


class TestSummation:
    def test_single_member_identity(self):
        member = np.array([0.1, 0.2, 0.3, 0.4])
        fused, decided = fuse_one([member])
        assert np.allclose(fused, member, atol=1e-15)
        assert decided is Stance.UNRELATED

    def test_two_member_tie_goes_to_lowest_index(self):
        fused, decided = fuse_one([one_hot(0), one_hot(1)])
        assert np.allclose(fused, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        assert decided is Stance.AGREE

    def test_three_member_hand_mean(self):
        a = np.array([0.7, 0.1, 0.1, 0.1])
        b = np.array([0.1, 0.7, 0.1, 0.1])
        c = np.array([0.1, 0.1, 0.1, 0.7])
        fused, decided = fuse_one([a, b, c])
        assert np.allclose(fused, (a + b + c) / 3.0, atol=1e-15)
        assert decided is Stance.AGREE  # three-way tie 0.3 at indexes 0,1,3

    def test_member_order_irrelevant(self):
        rng = np.random.default_rng(0)
        members = [rng.dirichlet(np.ones(4)) for _ in range(4)]
        forward = fuse_one(members)
        backward = fuse_one(list(reversed(members)))
        assert np.allclose(forward[0], backward[0], atol=1e-15)
        assert forward[1] is backward[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse(np.zeros((2, 0, 4)))

    def test_fused_is_distribution(self):
        rng = np.random.default_rng(1)
        members = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        fused, _ = fuse_one(members)
        assert float(fused.sum()) == pytest.approx(1.0, abs=1e-12)


def identity_combiner(scale: float = 10.0) -> LinearCombiner:
    return LinearCombiner(weights=scale * np.eye(4), bias=np.zeros(4))


class TestConcatenation:
    def test_identity_combiner_preserves_argmax(self):
        member = np.array([0.1, 0.5, 0.15, 0.25])
        _, decided = fuse_one([member], identity_combiner())
        assert decided is Stance.DISAGREE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expects 4 inputs"):
            fuse_one([one_hot(0), one_hot(1)], identity_combiner())

    def test_hand_map_softmax(self):
        weights = np.array(
            [
                [2.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 0.0, 0.0, 1.0],
            ]
        )
        bias = np.array([0.0, 0.5, 0.0, -0.5])
        member = np.array([0.1, 0.2, 0.3, 0.4])
        logits = [
            2.0 * 0.1,
            0.2 + 0.5,
            0.3 + 0.4,
            0.1 + 0.4 - 0.5,
        ]
        exps = [math.exp(z - max(logits)) for z in logits]
        want = [e / sum(exps) for e in exps]
        fused, _ = fuse_one([member], LinearCombiner(weights=weights, bias=bias))
        assert np.allclose(fused, want, atol=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(0, 1, size=(4, 8))
        combiner = LinearCombiner(weights=weights, bias=rng.normal(0, 1, size=4))
        swapped = LinearCombiner(
            weights=np.concatenate([weights[:, 4:], weights[:, :4]], axis=1),
            bias=combiner.bias,
        )
        p1, p2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        out = fuse_one([p1, p2], combiner)
        out_swapped = fuse_one([p2, p1], swapped)
        assert np.allclose(out[0], out_swapped[0], atol=1e-12)
        assert out[1] is out_swapped[1]


def member_prob_stack(labels, accuracy_mask):
    """One near-one-hot member: right where mask is True, else rotated."""
    rows = []
    for label, ok in zip(labels, accuracy_mask):
        target = label.index if ok else (label.index + 1) % 4
        rows.append(one_hot(target, sharp=0.85))
    return np.array(rows)[:, np.newaxis, :]  # (n, 1, 4)


class TestCombinerFit:
    def _toy(self, n=48):
        labels = [STANCES[i % 4] for i in range(n)]
        mask = [i % 6 != 0 for i in range(n)]  # 5/6 correct
        return labels, member_prob_stack(labels, mask)

    def test_combiner_at_least_as_accurate_as_member(self):
        labels, stack = self._toy()
        combiner = fit_concat_combiner(stack, labels, seed=0)
        fused = decisions(fuse(stack, CONCATENATION, combiner))
        member_correct = combiner_correct = 0
        for row, label in enumerate(labels):
            member_correct += int(np.argmax(stack[row, 0])) == label.index
            combiner_correct += fused[row] is label
        assert combiner_correct >= member_correct

    def test_identical_members_match_single(self):
        labels, stack = self._toy()
        tripled = np.repeat(stack, 3, axis=1)  # (n, 3, 4), all members equal
        single = fit_concat_combiner(stack, labels, seed=1)
        triple = fit_concat_combiner(tripled, labels, seed=1)
        singles = decisions(fuse(stack, CONCATENATION, single))
        triples = decisions(fuse(tripled, CONCATENATION, triple))
        assert sum(map(operator.is_, singles, labels)) == sum(map(operator.is_, triples, labels))

    def test_flat_input_accepted(self):
        labels, stack = self._toy(n=16)
        flat = stack.reshape(16, 4)
        a = fit_concat_combiner(stack, labels, seed=5)
        b = fit_concat_combiner(flat, labels, seed=5)
        assert np.array_equal(a.weights, b.weights)

    def test_absent_class_warns(self):
        labels = [Stance.AGREE, Stance.DISCUSS, Stance.UNRELATED, Stance.AGREE]
        stack = member_prob_stack(labels, [True] * 4)
        combiner = fit_concat_combiner(stack, labels, seed=0)
        assert any("disagree" in w for w in combiner.fit_warnings)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            fit_concat_combiner(np.zeros((3, 5)), [Stance.AGREE] * 3, seed=0)

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            fit_concat_combiner(np.zeros((3, 4)), [Stance.AGREE] * 2, seed=0)

    @pytest.mark.parametrize("bad", [-1, 4, None])
    def test_label_outside_stances_rejected(self, bad):
        # -1 would otherwise train as the last class, "unrelated"
        labels, stack = self._toy(n=6)
        with pytest.raises(ValueError, match="not a stance index|unlabeled"):
            fit_concat_combiner(stack, [bad, 0, 1, 2, 3, 0], seed=0)

    def test_deterministic(self):
        labels, stack = self._toy(n=20)
        a = fit_concat_combiner(stack, labels, seed=9)
        b = fit_concat_combiner(stack, labels, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


class TestEnsembleSpec:
    def _members(self, n=2):
        return tuple(EnsembleMember(model=f"m{i}", pipeline=f"p{i}") for i in range(n))

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(name="e", members=())

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="rule"):
            EnsembleSpec(name="e", members=self._members(), rule="majority")

    def test_concatenation_requires_combiner(self):
        with pytest.raises(ValueError):
            EnsembleSpec(name="e", members=self._members(), rule=CONCATENATION)

    def test_combiner_width_must_match_members(self):
        with pytest.raises(ValueError):
            EnsembleSpec(
                name="e",
                members=self._members(3),
                rule=CONCATENATION,
                combiner=LinearCombiner(weights=np.zeros((4, 8)), bias=np.zeros(4)),
            )

    def test_valid_concatenation_spec(self):
        spec = EnsembleSpec(
            name="e",
            members=self._members(2),
            rule=CONCATENATION,
            combiner=LinearCombiner(weights=np.zeros((4, 8)), bias=np.zeros(4)),
        )
        assert spec.combiner.n_inputs == 8


class TestBatchedFusion:
    """Whole-stack fusion against the one-row-at-a-time oracle."""

    def _stack(self, n=400, members=3, seed=6):
        rng = np.random.default_rng(seed)
        stack = rng.dirichlet(np.ones(4), size=(n, members))
        stack[::7] = one_hot(2, sharp=0.4)  # tied rows exercise the tie-break
        return stack

    def test_summation_bit_identical_to_rows(self):
        stack = self._stack()
        fused = fuse(stack, SUMMATION)
        decided = decisions(fused)
        for row in range(len(stack)):
            want, want_decided = fuse_summation_row(list(stack[row]))
            assert np.array_equal(fused[row], want)
            assert decided[row] is want_decided

    def test_concatenation_within_1e15_of_rows(self):
        """One gemm over all rows instead of one gemv per row may round
        differently in the last place; the drift stays below 1e-15 and no
        decision changes."""
        stack = self._stack()
        rng = np.random.default_rng(8)
        combiner = LinearCombiner(
            weights=rng.normal(0, 3, size=(4, 12)), bias=rng.normal(0, 1, size=4)
        )
        fused = fuse(stack, CONCATENATION, combiner)
        decided = decisions(fused)
        for row in range(len(stack)):
            want, want_decided = fuse_concatenation_row(list(stack[row]), combiner)
            assert np.max(np.abs(fused[row] - want)) <= 1e-15
            assert decided[row] is want_decided

    def test_concatenation_needs_combiner(self):
        with pytest.raises(ValueError, match="combiner"):
            fuse(self._stack(n=2), CONCATENATION)

    @pytest.mark.parametrize("rule", [SUMMATION, CONCATENATION])
    def test_no_rows(self, rule):
        combiner = LinearCombiner(weights=np.ones((4, 12)), bias=np.zeros(4))
        assert fuse(np.zeros((0, 3, 4)), rule, combiner).shape == (0, 4)

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            fuse(np.zeros((3, 4)))


class TestCombinerIo:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        combiner = LinearCombiner(
            weights=rng.normal(0, 1, size=(4, 8)),
            bias=rng.normal(0, 1, size=4),
            fit_warnings=("class 'agree' absent from combiner fit data",),
        )
        path = tmp_path / "c.json"
        save_combiner(combiner, path)
        back = load_combiner(path)
        assert np.array_equal(back.weights, combiner.weights)
        assert np.array_equal(back.bias, combiner.bias)
        assert back.fit_warnings == combiner.fit_warnings

    def test_deterministic_bytes(self, tmp_path):
        combiner = LinearCombiner(weights=np.ones((4, 4)) / 3.0, bias=np.zeros(4))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_combiner(combiner, a)
        save_combiner(combiner, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_combiner(path)

    @staticmethod
    def saved_payload(path):
        save_combiner(LinearCombiner(weights=np.ones((4, 4)), bias=np.zeros(4)), path)
        return json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("key", ["weights", "bias"])
    def test_missing_array_names_file(self, tmp_path, key):
        path = tmp_path / "c.json"
        payload = self.saved_payload(path)
        del payload[key]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match="c.json"):
            load_combiner(path)

    @pytest.mark.parametrize("key, value", [
        ("weights", [[1.0] * 4] * 3), ("weights", [1.0] * 4), ("weights", [[1.0] * 6] * 4),
        ("bias", [0.0]), ("bias", [[0.0] * 4]),
    ])
    def test_misshapen_array_names_file(self, tmp_path, key, value):
        path = tmp_path / "c.json"
        payload = self.saved_payload(path)
        payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match="c.json"):
            load_combiner(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_combiner(path)
