"""Weighted stance scoring, confusion metrics, and k-fold cross-validation.

The competition metric awards 0.25 points for getting relatedness right
(unrelated vs anything else) and a further 0.75 for the exact related
class. The relative grade normalizes by the maximum achievable grade on
the same label set, so systems are comparable across splits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, FoldPlan, STANCES, Stance
from .errors import DataFormatError

#: (true, predicted) pair
Pair = tuple[Stance, Stance]

#: Per-fold evaluation hook: (train corpus, test corpus, fold index) ->
#: (true, predicted) pairs for the held-out instances. Everything the
#: fold needs (vocabularies, IDF, keywords, models) must be rebuilt from
#: the train corpus inside the hook; the harness only checks the plan and
#: aggregates scores.
FoldRunner = Callable[[Corpus, Corpus, int], Sequence[Pair]]

#: A FoldRunner of several targets at once: each target's pairs.
TargetsFoldRunner = Callable[[Corpus, Corpus, int], Mapping[str, Sequence[Pair]]]


def fnc_score(pairs: Sequence[Pair]) -> tuple[float, float]:
    """Return (grade, max_grade) under the weighted relatedness metric."""
    if not len(pairs):
        raise ValueError("no prediction pairs to score")
    return _grades(confusion(pairs))


def _grades(counts: np.ndarray) -> tuple[float, float]:
    """(grade, max_grade) of a confusion matrix. A pair scores 0.25 for its
    relatedness (unrelated, the last class, vs the three related ones) and
    a related pair 0.75 more for its exact class. All increments are
    multiples of 0.25, so the sums are exact floats.

    >>> _grades(np.array([[2, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 3]]))
    (3.0, 5.0)
    """
    related = counts[:3, :3]
    grade = 0.25 * counts[3, 3] + 0.25 * related.sum() + 0.75 * np.trace(related)
    return float(grade), float(0.25 * counts[3].sum() + counts[:3].sum())


def confusion(pairs: Sequence[Pair]) -> np.ndarray:
    """4x4 count matrix, rows = true stance, columns = predicted."""
    if not len(pairs):
        raise ValueError("no prediction pairs to tally")
    cells = [4 * true.index + pred.index for true, pred in pairs]
    return np.bincount(cells, minlength=16).astype(np.int64).reshape(4, 4)


def metrics(confusion_matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """(per-class accuracy, macro-F1) from a confusion matrix.

    Per-class accuracy is recall: diagonal over true-row sum, 0 for an
    empty row. A class whose precision and recall are both undefined or
    zero contributes F1 = 0.
    """
    counts = np.asarray(confusion_matrix, dtype=np.float64)
    if counts.shape != (4, 4) or counts.sum() < 1:
        raise ValueError("confusion matrix must be 4x4 with at least one count")
    diag = np.diag(counts)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(row_sums > 0, diag / row_sums, 0.0)
        precision = np.where(col_sums > 0, diag / col_sums, 0.0)
    denom = precision + recall
    f1 = np.where(denom > 0, 2 * precision * recall / np.maximum(denom, 1e-300), 0.0)
    return recall, float(f1.mean())


@dataclass(frozen=True)
class ScoreReport:
    grade: float
    max_grade: float
    relative_grade: float
    per_class_accuracy: tuple[float, float, float, float]
    f1_macro: float
    confusion: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.grade <= self.max_grade:
            raise ValueError("grade must lie in [0, max_grade]")
        expected = 100.0 * self.grade / self.max_grade
        if abs(self.relative_grade - expected) > 1e-9:
            raise ValueError("relative_grade inconsistent with grade/max_grade")


def score_predictions(pairs: Sequence[Pair]) -> ScoreReport:
    counts = confusion(pairs)
    grade, max_grade = _grades(counts)
    per_class, f1_macro = metrics(counts)
    return ScoreReport(
        grade=grade,
        max_grade=max_grade,
        relative_grade=100.0 * grade / max_grade,
        per_class_accuracy=tuple(float(a) for a in per_class),
        f1_macro=f1_macro,
        confusion=counts,
    )


def _fmt(value: float) -> str:
    # repr round-trips and is stable across runs, unlike fixed precision
    return repr(float(value))


def _metric_lines(report: ScoreReport) -> list[str]:
    lines = [
        f"grade={_fmt(report.grade)}",
        f"max_grade={_fmt(report.max_grade)}",
        f"relative_grade={_fmt(report.relative_grade)}",
        f"f1_macro={_fmt(report.f1_macro)}",
    ]
    for stance, acc in zip(STANCES, report.per_class_accuracy):
        lines.append(f"accuracy_{stance.value}={_fmt(acc)}")
    return lines


def render_report(report: ScoreReport) -> str:
    """Human-oriented structured text report."""
    lines = [
        "stance evaluation report",
        "f1_macro is the unweighted mean F1 over the four classes",
        "per-class accuracy is recall (confusion diagonal over true-row sum)",
        "",
    ]
    lines.extend(_metric_lines(report))
    lines.append("")
    lines.append("confusion matrix, rows=true cols=predicted, order "
                 + ",".join(s.value for s in STANCES))
    width = max(len(str(int(c))) for c in report.confusion.ravel())
    for stance, row in zip(STANCES, report.confusion):
        cells = " ".join(str(int(c)).rjust(width) for c in row)
        lines.append(f"{stance.value:<9} {cells}")
    return "\n".join(lines) + "\n"


def render_delimited(report: ScoreReport) -> str:
    """Machine-readable form: key=value lines, blank line, 4x4 CSV block."""
    lines = _metric_lines(report)
    lines.append("")
    for row in report.confusion:
        lines.append(",".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def parse_delimited(text: str) -> ScoreReport:
    """Inverse of render_delimited; malformed text raises DataFormatError."""
    head, _, tail = text.partition("\n\n")
    values: dict[str, float] = {}
    try:
        for line in head.splitlines():
            key, _, value = line.partition("=")
            if not _ or not key:
                raise DataFormatError(f"bad metric line {line!r}")
            values[key] = float(value)
        rows = [line.split(",") for line in tail.splitlines() if line]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise DataFormatError("confusion block must be 4x4 CSV")
        counts = np.array([[int(c) for c in row] for row in rows], dtype=np.int64)
        per_class = tuple(values[f"accuracy_{s.value}"] for s in STANCES)
        return ScoreReport(
            grade=values["grade"],
            max_grade=values["max_grade"],
            relative_grade=values["relative_grade"],
            per_class_accuracy=per_class,
            f1_macro=values["f1_macro"],
            confusion=counts,
        )
    except KeyError as exc:
        raise DataFormatError(f"missing metric {exc}") from None
    except ValueError as exc:  # not a number, or a grade out of range
        raise DataFormatError(str(exc)) from None


def render_heatmap_data(confusion_matrix: np.ndarray) -> str:
    """Plot-ready cell triples: "row col count", blank line between rows."""
    blocks = []
    for i in range(4):
        rows = [f"{i} {j} {int(confusion_matrix[i, j])}" for j in range(4)]
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


@dataclass(frozen=True)
class CrossValidationResult:
    reports: tuple[ScoreReport, ...]
    relative_mean: float
    relative_std: float  # sample standard deviation (ddof=1)


def cross_validate(
    corpus: Corpus, plan: FoldPlan, run_fold: FoldRunner, jobs: int = 1
) -> CrossValidationResult:
    """Score run_fold on every held-out fold and aggregate relative grades.

    run_fold must fit everything (vocabulary, IDF, keywords, models) from
    the train corpus it is handed; the held-out corpus is only for
    prediction. Folds run concurrently when jobs > 1; reports keep fold
    order either way.
    """
    return cross_validate_targets(corpus, plan, lambda *split: {"": run_fold(*split)}, jobs)[""]


def cross_validate_targets(
    corpus: Corpus, plan: FoldPlan, run_fold: TargetsFoldRunner, jobs: int = 1
) -> dict[str, CrossValidationResult]:
    """cross_validate of every target run_fold returns, from one pass over
    the folds; results keep run_fold's target order."""
    splits = []
    for fold in range(plan.k):
        train, test = plan.split(corpus, fold)
        if not train.instances or not test.instances:
            raise ValueError(f"fold {fold} has an empty train or test side")
        splits.append((train, test))

    def run(fold: int) -> dict[str, ScoreReport]:
        train, test = splits[fold]
        reports = {}
        for target, pairs in run_fold(train, test, fold).items():
            if len(pairs) != len(test.instances):
                raise ValueError(
                    f"fold {fold} returned {len(pairs)} pairs "
                    f"for {len(test.instances)} held-out instances"
                )
            reports[target] = score_predictions(pairs)
        return reports

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(run, range(plan.k)))
    else:
        folds = [run(fold) for fold in range(plan.k)]
    results = {}
    for target in folds[0]:
        reports = tuple(f[target] for f in folds)
        grades = np.array([r.relative_grade for r in reports])
        std = float(grades.std(ddof=1)) if len(grades) > 1 else 0.0
        results[target] = CrossValidationResult(reports, float(grades.mean()), std)
    return results
