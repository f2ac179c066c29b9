"""Fusion of N member models' probability outputs.

Two rules: summation (mean of member probabilities) and concatenation
(a learned linear map from the stacked 4N vector back to 4 classes).
Member outputs fused here are post-softmax probabilities, which keeps
summation scale-free across members. Fusion works on a whole (n, N, 4)
stack of member probabilities at once; corpus.decisions turns the fused rows
into stances, and the combiner reads its labels through
corpus.stance_indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import STANCES, Stance, stance_indices
from .errors import read_envelope, reading
from .mlp import softmax

SUMMATION = "summation"
CONCATENATION = "concatenation"
RULES = (SUMMATION, CONCATENATION)

#: Step size and full-batch steps of fit_concat_combiner's gradient descent.
COMBINER_LEARNING_RATE = 0.5
COMBINER_EPOCHS = 500


@dataclass(frozen=True)
class EnsembleMember:
    """Reference to one trained model and the feature pipeline it expects."""

    model: str
    pipeline: str


@dataclass(frozen=True)
class LinearCombiner:
    """Linear map 4N -> 4 applied to concatenated member probabilities."""

    weights: np.ndarray  # (4, 4N)
    bias: np.ndarray  # (4,)
    fit_warnings: tuple[str, ...] = ()

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class EnsembleSpec:
    """Ordered members plus the fusion rule (and combiner when learned)."""

    name: str
    members: tuple[EnsembleMember, ...]
    rule: str = SUMMATION
    combiner: LinearCombiner | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if self.rule not in RULES:
            raise ValueError(f"unknown fusion rule {self.rule!r}")
        if self.rule == CONCATENATION:
            if self.combiner is None:
                raise ValueError("concatenation rule requires a fitted combiner")
            if self.combiner.n_inputs != 4 * len(self.members):
                raise ValueError(
                    f"combiner expects {self.combiner.n_inputs} inputs, "
                    f"{len(self.members)} members produce {4 * len(self.members)}"
                )


def fuse(
    member_probs: np.ndarray, rule: str = SUMMATION, combiner: LinearCombiner | None = None
) -> np.ndarray:
    """Fuse an (n, N, 4) stack of member probabilities into (n, 4) rows.

    summation takes the member mean; concatenation applies the combiner to
    each row's flattened 4N vector and a softmax.
    """
    stack = np.asarray(member_probs, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[2] != 4:
        raise ValueError("member probabilities must have shape (n, N, 4)")
    if stack.shape[1] == 0:
        raise ValueError("no member probabilities to fuse")
    if rule == SUMMATION:
        return stack.mean(axis=1)
    if combiner is None:
        raise ValueError("concatenation rule requires a fitted combiner")
    flat = stack.reshape(stack.shape[0], 4 * stack.shape[1])  # -1 fails on 0 rows
    if flat.shape[1] != combiner.n_inputs:
        raise ValueError(
            f"combiner expects {combiner.n_inputs} inputs, got {flat.shape[1]}"
        )
    return softmax(flat @ combiner.weights.T + combiner.bias)


def fit_concat_combiner(
    member_probs: np.ndarray,
    labels: Sequence[Stance | int] | np.ndarray,
    seed: int,
) -> LinearCombiner:
    """Multinomial-logistic map fitted by seeded full-batch gradient descent.

    member_probs has shape (n_examples, n_members, 4) or (n_examples, 4N),
    one row per label (a Stance or its index 0..3; anything else raises
    ValueError). A class absent from the fit data yields a degenerate-fit
    warning on the returned combiner; the fit itself proceeds.
    """
    x = np.asarray(member_probs, dtype=np.float64)
    if x.ndim == 3:
        x = x.reshape(x.shape[0], -1)
    if x.ndim != 2 or x.shape[1] % 4 != 0:
        raise ValueError("member probabilities must stack to an (n, 4N) matrix")
    y = stance_indices(labels)
    if len(y) != x.shape[0]:
        raise ValueError(f"{x.shape[0]} examples but {len(y)} labels")
    if not len(y):
        raise ValueError("no examples to fit the combiner on")

    counts = np.bincount(y, minlength=len(STANCES))
    warnings = tuple(f"class {s.value!r} absent from combiner fit data"
                     for s, count in zip(STANCES, counts) if not count)

    n, dim = x.shape
    onehot = np.zeros((n, 4))
    onehot[np.arange(n), y] = 1.0
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.01, 0.01, size=(4, dim))
    bias = np.zeros(4)
    for _ in range(COMBINER_EPOCHS):
        probs = softmax(x @ weights.T + bias)
        g = (probs - onehot) / n
        weights -= COMBINER_LEARNING_RATE * (g.T @ x)
        bias -= COMBINER_LEARNING_RATE * g.sum(axis=0)
    return LinearCombiner(weights=weights, bias=bias, fit_warnings=warnings)


def save_combiner(combiner: LinearCombiner, path: str | Path) -> None:
    payload = {
        "format": "stancekit-combiner",
        "version": 1,
        "weights": combiner.weights.tolist(),
        "bias": combiner.bias.tolist(),
        "warnings": list(combiner.fit_warnings),
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def load_combiner(path: str | Path) -> LinearCombiner:
    payload = read_envelope(path, "stancekit-combiner")
    with reading(path):
        warnings = payload.get("warnings", [])
        if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
            raise TypeError("warnings is not a list of strings")
        weights = np.array(payload["weights"], dtype=np.float64)
        bias = np.array(payload["bias"], dtype=np.float64)
        # a (1,) bias would broadcast silently in logits()
        if weights.ndim != 2 or len(weights) != 4 or weights.shape[1] % 4 or bias.shape != (4,):
            raise ValueError(f"combiner weights {weights.shape} and bias {bias.shape} "
                             "are not (4, 4N) and (4,)")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError("a combiner weight is not finite")
    return LinearCombiner(weights=weights, bias=bias, fit_warnings=tuple(warnings))
