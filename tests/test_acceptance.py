"""Go/no-go gate: the ten acceptance checks, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to watch the lines stream; without
-s pytest still shows them for failing tests. Checks 1 and 2 (and the
reference-profile half of check 8) need the real dataset; they print SKIP
with the reason when it is absent and the rest of the gate still runs.
"""

import itertools
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from stancekit.config import load_config
from stancekit.corpus import Stance, load_corpus, plan_folds
from stancekit.ensemble import EnsembleMember, EnsembleSpec
from stancekit.evaluation import cross_validate, score_predictions
from stancekit.keywords import mutual_information
from stancekit.mlp import TrainingConfig, init_model, predict_batch
from stancekit.mlp import train as train_model
from stancekit.pipeline import (
    BlockSpec,
    KeywordSpec,
    PipelineSpec,
    ensemble_predictions,
    fit_pipeline,
    stance_labels,
)
from stancekit.text import BlockSlice

from conftest import FNC_SKIP_REASON, HEADLINE_CONFIG, fnc_paths, synthetic_corpus
from oracles import gradient_check, wmd
from test_cli import base_config, hash_tree, run
from test_embeddings import brute_force_wmd, random_instance
from test_evaluation import (
    brute_force_grade,
    cheating_runner,
    constructed_pairs,
    grades,
    honest_runner,
)
from test_keywords import entropy_identity_mi

from stancekit.embeddings import WMD_RELAXED


@contextmanager
def criterion(number: int, slug: str):
    """Print exactly one verdict line for one acceptance check."""
    record = SimpleNamespace(note="")
    label = f"criterion {number:02d} {slug}"
    try:
        yield record
    except BaseException as exc:
        if isinstance(exc, pytest.skip.Exception):
            print(f"{label}: SKIP ({exc})")
        else:
            print(f"{label}: FAIL")
        raise
    suffix = f" ({record.note})" if record.note else ""
    print(f"{label}: PASS{suffix}")


@pytest.fixture(scope="module")
def fnc_run():
    """Train the three headline models and fuse them, if the dataset exists.

    Mirrors configs/headline.yaml; returns None when the CSVs are absent so
    each dependent check can print its own SKIP line.
    """
    paths = fnc_paths()
    if paths is None:
        return None
    train_corpus = load_corpus(paths["train_stances"], paths["train_bodies"])
    test_corpus = load_corpus(paths["test_stances"], paths["test_bodies"])

    keyword_specs = {
        "manual": load_config(HEADLINE_CONFIG).keyword_specs["manual"],
        "micc": KeywordSpec(name="micc", selector="micc", themes=("hoax", "fraud", "scam"), k=20),
    }
    layouts = {
        "baseline": (BlockSpec(kind="baseline"),),
        "with_manual": (
            BlockSpec(kind="baseline"),
            BlockSpec(kind="indicator", keywords="manual"),
        ),
        "with_micc": (
            BlockSpec(kind="baseline"),
            BlockSpec(kind="indicator", keywords="micc"),
        ),
    }

    truth = [inst.stance for inst in test_corpus.instances]
    pipelines: dict[str, object] = {}
    models: dict[str, object] = {}
    reports: dict[str, object] = {}
    baseline_seconds = 0.0
    plan = (("baseline", "baseline", 7),
            ("manual_keywords", "with_manual", 8),
            ("micc_keywords", "with_micc", 9))
    for model_name, pipe_name, seed in plan:
        started = time.monotonic()
        spec = PipelineSpec(name=pipe_name, blocks=layouts[pipe_name])
        fitted = fit_pipeline(
            spec, train_corpus, keyword_specs=keyword_specs, vocab_capacity=5000
        )
        model = train_model(
            fitted.matrix(train_corpus),
            stance_labels(train_corpus),
            TrainingConfig(seed=seed),
            hidden_dim=100,
        )
        if model_name == "baseline":
            baseline_seconds = time.monotonic() - started
        predicted, _ = predict_batch(model, fitted.matrix(test_corpus).matrix)
        reports[model_name] = score_predictions(list(zip(truth, predicted)))
        pipelines[pipe_name] = fitted
        models[model_name] = model

    ensemble = EnsembleSpec(
        name="headline",
        members=(
            EnsembleMember("baseline", "baseline"),
            EnsembleMember("manual_keywords", "with_manual"),
            EnsembleMember("micc_keywords", "with_micc"),
        ),
    )
    decided, _ = ensemble_predictions(ensemble, models, pipelines, test_corpus)
    return SimpleNamespace(
        baseline_report=reports["baseline"],
        ensemble_report=score_predictions(list(zip(truth, decided))),
        baseline_seconds=baseline_seconds,
    )


@pytest.fixture(scope="module")
def synthetic_run():
    """A small end-to-end run to exercise report mechanics without the dataset."""
    train_corpus = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
    test_corpus = synthetic_corpus(n_instances=48, n_bodies=24, seed=6)
    spec = PipelineSpec(name="plain", blocks=(BlockSpec(kind="baseline"),))
    fitted = fit_pipeline(spec, train_corpus, vocab_capacity=40)
    config = TrainingConfig(
        learning_rate=0.05, batch_size=16, epochs=10,
        dropout_keep=1.0, l2_lambda=1e-4, seed=7,
    )
    model = train_model(fitted.matrix(train_corpus), stance_labels(train_corpus),
                        config, hidden_dim=8)
    predicted, _ = predict_batch(model, fitted.matrix(test_corpus).matrix)
    truth = [inst.stance for inst in test_corpus.instances]
    return score_predictions(list(zip(truth, predicted)))


def test_criterion_01_baseline_reproduction(fnc_run):
    with criterion(1, "baseline-reproduction") as c:
        if fnc_run is None:
            pytest.skip(FNC_SKIP_REASON)
        relative = fnc_run.baseline_report.relative_grade
        assert abs(relative - 81.72) <= 1.5
        assert fnc_run.baseline_seconds < 1800.0
        c.note = f"relative grade {relative:.2f} vs 81.72±1.5, {fnc_run.baseline_seconds:.0f}s"


def test_criterion_02_ensemble_improvement(fnc_run):
    with criterion(2, "ensemble-improvement") as c:
        if fnc_run is None:
            pytest.skip(FNC_SKIP_REASON)
        base = fnc_run.baseline_report.relative_grade
        fused = fnc_run.ensemble_report.relative_grade
        assert fused > base
        band = "inside" if abs(fused - 82.32) <= 1.5 else "OUTSIDE (soft gate)"
        c.note = f"ensemble {fused:.2f} > baseline {base:.2f}; 82.32±1.5 band: {band}"


def test_criterion_03_margin_sanity():
    with criterion(3, "margin-sanity") as c:
        winner_grade, winner_max = grades(constructed_pairs(18348, 7064, 4317))
        runner_grade, runner_max = grades(constructed_pairs(18349, 7064, 4271))
        reference_grade, _ = grades(constructed_pairs(18347, 7064, 4225))
        assert winner_max == runner_max == 11651.25
        assert winner_grade == 9590.75
        assert runner_grade == 9556.5
        assert winner_grade - runner_grade == 34.25
        assert reference_grade == 9521.5
        assert round(100.0 * reference_grade / winner_max, 2) == 81.72
        assert abs(9521.5 / 0.8172 - winner_max) < 2.0
        c.note = "margin exactly 34.25 over max_grade 11651.25; 9521.5/0.8172 cross-check holds"


def test_criterion_04_scorer_oracle_equivalence():
    with criterion(4, "scorer-oracle-equivalence") as c:
        rng = random.Random(417)
        stances = list(Stance)
        pairs_seen = 0
        for _ in range(1000):
            n = rng.randint(1, 200)
            pairs = [(rng.choice(stances), rng.choice(stances)) for _ in range(n)]
            assert grades(pairs) == brute_force_grade(pairs)
            pairs_seen += n
        c.note = f"1000 lists, {pairs_seen} pairs, grade and max_grade exactly equal"


def test_criterion_05_gradient_correctness():
    with criterion(5, "gradient-correctness") as c:
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            input_dim = int(rng.integers(3, 12))
            hidden_dim = int(rng.integers(2, 8))
            layout = (BlockSlice("all", 0, input_dim),)
            model = init_model(input_dim, hidden_dim, layout, seed=seed)
            # random bias shifts move pre-activations off the ReLU kink,
            # where central differences legitimately disagree
            model.b1 += rng.normal(0.05, 0.2, size=hidden_dim)
            model.b2 += rng.normal(0.0, 0.2, size=4)
            rows, labels = [], []
            for _ in range(6):
                rows.append(rng.normal(0.0, 1.0, size=input_dim))
                labels.append(int(rng.integers(0, 4)))
            config = TrainingConfig(dropout_keep=1.0, l2_lambda=1e-4, seed=0)
            worst = max(worst, gradient_check(model, np.array(rows), labels, config,
                                              sample_size=40, seed=seed))
        assert worst < 1e-5
        c.note = f"20 seeded models, worst relative error {worst:.2e}"


def test_criterion_06_mi_correctness():
    with criterion(6, "mi-correctness") as c:
        worst = 0.0
        tables = 0
        for n11, n10, n01 in itertools.product(range(51), repeat=3):
            rest = 50 - n11 - n10 - n01
            if rest < 0:
                continue
            for n00 in range(rest + 1):
                if n11 + n10 + n01 + n00 == 0:
                    continue
                got = mutual_information(n11, n10, n01, n00)
                want = entropy_identity_mi(n11, n10, n01, n00)
                worst = max(worst, abs(got - want))
                tables += 1
        assert worst <= 1e-10
        c.note = f"{tables} tables exhaustively, worst gap {worst:.2e}"


def test_criterion_07_wmd_correctness():
    with criterion(7, "wmd-correctness") as c:
        worst = 0.0
        for seed in range(30):
            da, db = random_instance(np.random.default_rng(seed))
            distance = wmd(da, db)
            want = brute_force_wmd(da, db)
            worst = max(worst, abs(distance - want))
            assert abs(distance - want) <= 1e-6
        rng = np.random.default_rng(7000)
        for _ in range(100):
            da, db = random_instance(rng)
            exact = wmd(da, db)
            assert wmd(da, db, WMD_RELAXED) <= exact + 1e-9
        c.note = f"30 enumerated instances (worst gap {worst:.2e}); relaxed bound held on 100"


def test_criterion_08_confusion_consistency(fnc_run, synthetic_run):
    with criterion(8, "confusion-consistency") as c:
        report = fnc_run.ensemble_report if fnc_run is not None else synthetic_run
        diagonal = report.confusion.diagonal().astype(float)
        row_totals = report.confusion.sum(axis=1)
        for i in range(4):
            want = float(diagonal[i] / row_totals[i]) if row_totals[i] else 0.0
            assert report.per_class_accuracy[i] == want
        shown = "/".join(f"{a:.3f}" for a in report.per_class_accuracy)
        if fnc_run is None:
            c.note = (
                f"row-diagonal identity exact on synthetic run ({shown}); "
                "reference-profile comparison needs the dataset"
            )
        else:
            profile = (0.391, 0.067, 0.855, 0.980)
            inside = all(
                abs(a - b) <= 0.08 for a, b in zip(report.per_class_accuracy, profile)
            )
            band = "inside" if inside else "OUTSIDE (soft gate)"
            c.note = f"identity exact; per-class {shown}, ±0.08 profile band: {band}"


def test_criterion_09_determinism_umbrella(tmp_path):
    with criterion(9, "determinism-umbrella") as c:
        config = base_config(tmp_path)

        def sweep():
            run("train", "--config", str(config))
            run("evaluate", "--config", str(config))
            run("predict", "--config", str(config), "--models", "base")
            run("keywords", "--config", str(config))
            run("cv", "--config", str(config), "--models", "base,duo")
            run("report", "--config", str(config))

        sweep()
        first = hash_tree(tmp_path / "out")
        sweep()
        assert hash_tree(tmp_path / "out") == first
        c.note = f"{len(first)} files byte-identical across reruns of all six commands"


def assert_no_leak(result):
    """The canary: an honest pipeline never scores a perfect fold."""
    for report in result.reports:
        assert report.relative_grade < 100.0


def test_criterion_10_leakage_canary():
    with criterion(10, "leakage-canary") as c:
        corpus = synthetic_corpus(n_instances=64, n_bodies=16, seed=5)
        plan = plan_folds(corpus, k=4, seed=3)
        honest = cross_validate(corpus, plan, honest_runner)
        assert_no_leak(honest)
        leaky = cross_validate(corpus, plan, cheating_runner)
        with pytest.raises(AssertionError):
            assert_no_leak(leaky)
        c.note = (
            f"honest folds max {max(r.relative_grade for r in honest.reports):.1f} "
            "pass the canary; the label-reading runner trips it on every fold"
        )
