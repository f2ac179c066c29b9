"""End-to-end command surface: train/evaluate/predict/keywords/cv/report."""

import csv
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from stancekit.cli import main
from stancekit.corpus import Stance
from stancekit.evaluation import fnc_score, parse_delimited
from stancekit.keywords import read_keyword_set

from conftest import synthetic_corpus, write_corpus_files, write_stances, write_vectors

RUNNER = CliRunner()


def base_config(tmp_path: Path, **overrides) -> Path:
    """Synthetic data files plus a ready-to-run experiment config."""
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    train = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
    test = synthetic_corpus(n_instances=24, n_bodies=24, seed=6)
    write_corpus_files(train, data / "train_stances.csv", data / "train_bodies.csv")
    write_corpus_files(test, data / "test_stances.csv", data / "test_bodies.csv")

    def training(seed):
        return {
            "epochs": 8, "batch_size": 16, "learning_rate": 0.05,
            "dropout_keep": 1.0, "l2_lambda": 0.0001, "seed": seed,
        }

    raw = {
        "data": {
            "train_stances": "data/train_stances.csv",
            "train_bodies": "data/train_bodies.csv",
            "test_stances": "data/test_stances.csv",
            "test_bodies": "data/test_bodies.csv",
        },
        "features": {"vocab_capacity": 40},
        "keywords": {
            "manual": {"selector": "manual", "terms": ["fake", "hoax", "fraud"]},
            "auto": {"selector": "mi", "k": 4},
            "themed": {"selector": "micc", "themes": ["hoax", "vaccine"], "k": 3},
        },
        "pipelines": {
            "plain": {"blocks": ["baseline"]},
            "with_manual": {
                "blocks": ["baseline", {"kind": "indicator", "keywords": "manual"}]
            },
            "with_themed": {
                "blocks": ["baseline", {"kind": "indicator", "keywords": "themed"}]
            },
        },
        "models": {
            "base": {"pipeline": "plain", "hidden_dim": 8, "training": training(7)},
            "manual_kw": {"pipeline": "with_manual", "hidden_dim": 8, "training": training(8)},
            "themed_kw": {"pipeline": "with_themed", "hidden_dim": 8, "training": training(9)},
        },
        "ensembles": {
            "duo": {"members": ["base", "manual_kw"], "rule": "summation"},
            "trio": {"members": ["base", "manual_kw", "themed_kw"], "rule": "summation"},
            "trio_concat": {
                "members": ["base", "manual_kw", "themed_kw"],
                "rule": "concatenation",
                "combiner_seed": 21,
            },
        },
        "validation": {"fraction": 0.2, "seed": 13},
        "cv": {"folds": 3, "seed": 17},
        "output_dir": "out",
    }
    raw.update(overrides)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def run(*args, expect: int = 0):
    result = RUNNER.invoke(main, list(args))
    if result.exit_code != expect:  # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} != {expect}\nstdout:\n{result.output}\n"
            f"stderr:\n{getattr(result, 'stderr', '')}"
        )
    return result


def hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def fit_calls(monkeypatch):
    """The specs of every fit_pipeline call the CLI makes, and the specs of
    the pipelines it calls block_matrices on."""
    import stancekit.cli as cli
    from stancekit.pipeline import FittedPipeline

    calls = {"fit": [], "blocks": []}
    real_fit, real_blocks = cli.fit_pipeline, FittedPipeline.block_matrices

    def fit(spec, corpus, **kwargs):
        calls["fit"].append(spec)
        return real_fit(spec, corpus, **kwargs)

    def block_matrices(self, corpus):
        calls["blocks"].append(self.spec)
        return real_blocks(self, corpus)

    monkeypatch.setattr(cli, "fit_pipeline", fit)
    monkeypatch.setattr(FittedPipeline, "block_matrices", block_matrices)
    return calls


def selector_config(tmp_path: Path, keyword: str, node: dict) -> Path:
    """base_config with keyword set `keyword` replaced by node and used by
    the pipeline of a model named sel_kw."""
    config = base_config(tmp_path)
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["keywords"][keyword] = node
    raw["pipelines"]["with_sel"] = {
        "blocks": ["baseline", {"kind": "indicator", "keywords": keyword}]
    }
    raw["models"]["sel_kw"] = dict(raw["models"]["base"], pipeline="with_sel")
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return config


SELECTOR_FAILURES = {
    # every training body has a positive stance, so mi has no negative class
    "mi": ("auto", {"selector": "mi", "k": 4,
                    "positive": ["agree", "disagree", "discuss", "unrelated"]},
           "both document classes must be non-empty"),
    "micc": ("themed", {"selector": "micc", "themes": ["zebra", "quokka"], "k": 3},
             "no document matched any theme"),
}


class TestKeywordSelectorFailures:
    """A keyword selector that cannot run on the training data is a
    configuration error naming the set, from every command that selects."""

    @pytest.mark.parametrize("selector", sorted(SELECTOR_FAILURES))
    @pytest.mark.parametrize("command", ["train", "cv", "keywords"])
    def test_exit_2(self, tmp_path, command, selector):
        keyword, node, reason = SELECTOR_FAILURES[selector]
        config = selector_config(tmp_path, keyword, node)
        target = keyword if command == "keywords" else "sel_kw"
        result = RUNNER.invoke(main, [command, "--config", str(config), "--models", target])
        assert result.exit_code == 2
        assert f"keyword set {keyword!r} ({selector} selector): {reason}" in result.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One shared trained workspace for the read-only command tests."""
    tmp_path = tmp_path_factory.mktemp("workspace")
    config = base_config(tmp_path)
    run("train", "--config", str(config))
    return tmp_path, config


class TestTrain:
    def test_model_files_and_logs(self, trained):
        tmp_path, _ = trained
        out = tmp_path / "out"
        for name in ("base", "manual_kw", "themed_kw"):
            assert (out / f"{name}.model.bin").is_file()
            log = (out / f"{name}.train.log").read_text(encoding="utf-8")
            epochs = [line for line in log.splitlines() if " epoch=" in line]
            assert len(epochs) == 8
            assert log.splitlines()[-1].startswith(f"model={name} validation_relative_grade=")
        assert (out / "trio_concat.combiner.json").is_file()

    def test_rerun_bitwise_identical(self, tmp_path):
        config = base_config(tmp_path)
        run("train", "--config", str(config))
        first = hash_tree(tmp_path / "out")
        run("train", "--config", str(config))
        assert hash_tree(tmp_path / "out") == first

    def test_seed_override_changes_models(self, tmp_path):
        config = base_config(tmp_path)
        run("train", "--config", str(config))
        first = (tmp_path / "out" / "base.model.bin").read_bytes()
        run("train", "--config", str(config), "--seed", "4242")
        assert (tmp_path / "out" / "base.model.bin").read_bytes() != first

    def test_models_selection(self, tmp_path):
        config = base_config(tmp_path)
        run("train", "--config", str(config), "--models", "base")
        out = tmp_path / "out"
        assert (out / "base.model.bin").is_file()
        assert not (out / "manual_kw.model.bin").exists()

    def test_out_flag_redirects(self, tmp_path):
        config = base_config(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        run("train", "--config", str(config), "--models", "base", "--out", str(elsewhere))
        assert (elsewhere / "base.model.bin").is_file()
        assert not (tmp_path / "out").exists()

    def test_missing_data_file_exit_3(self, tmp_path):
        config = base_config(tmp_path)
        (tmp_path / "data" / "train_bodies.csv").unlink()
        result = RUNNER.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 3

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("data: {}\n", encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2

    def test_jobs_flag_is_cv_only_exit_2(self, tmp_path):
        config = base_config(tmp_path)
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--jobs", "2"])
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    def test_jobs_config_key_rejected_exit_2(self, tmp_path):
        config = base_config(tmp_path, jobs=2)
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "base"])
        assert result.exit_code == 2
        assert "jobs" in result.stderr

    def test_unlabeled_training_data_exit_3(self, tmp_path):
        config = base_config(tmp_path)
        unlabeled = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
        write_stances(
            tmp_path / "data" / "train_stances.csv",
            [(i.headline, i.body_id, None) for i in unlabeled.instances],
            labeled=False,
        )
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "base"])
        assert result.exit_code == 3
        assert "no labels" in result.stderr

    def test_one_fit_and_same_bytes_as_separate_runs(self, tmp_path, fit_calls):
        config = base_config(tmp_path)
        run("train", "--config", str(config))
        [union] = fit_calls["fit"]
        assert len(union.blocks) == 3
        # validation scoring featurizes per pipeline; training builds the union once
        assert fit_calls["blocks"].count(union) == 1
        together = hash_tree(tmp_path / "out")
        for name in ("base", "manual_kw", "themed_kw"):
            alone = tmp_path / f"alone_{name}"
            run("train", "--config", str(config), "--models", name, "--out", str(alone))
            separate = hash_tree(alone)
            assert any(f.endswith(".pipeline.json") for f in separate)
            assert {f: together[f] for f in separate} == separate

    def test_divergence_exit_4(self, tmp_path):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["models"]["base"]["training"]["learning_rate"] = 1e12
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "base"])
        assert result.exit_code == 4
        assert "base" in result.stderr


class TestEvaluate:
    def test_score_files_per_target(self, trained):
        tmp_path, config = trained
        run("evaluate", "--config", str(config))
        out = tmp_path / "out"
        for target in ("base", "manual_kw", "themed_kw", "duo", "trio", "trio_concat"):
            scores = out / f"{target}.scores.txt"
            assert scores.is_file()
            report = parse_delimited(scores.read_text(encoding="utf-8"))
            assert 0.0 <= report.relative_grade <= 100.0
            assert (out / f"{target}.report.txt").is_file()
            assert (out / f"{target}.heatmap.dat").is_file()
            assert (out / f"{target}.heatmap.gp").is_file()

    def test_stdout_summary_lines(self, trained):
        _, config = trained
        result = run("evaluate", "--config", str(config), "--models", "base,trio")
        lines = [l for l in result.output.splitlines() if l.startswith("command=evaluate")]
        assert len(lines) == 2
        assert "target=base" in lines[0] and "target=trio" in lines[1]

    def test_heatmap_matches_confusion(self, trained):
        tmp_path, config = trained
        run("evaluate", "--config", str(config), "--models", "base")
        out = tmp_path / "out"
        report = parse_delimited((out / "base.scores.txt").read_text(encoding="utf-8"))
        triples = [
            line.split()
            for line in (out / "base.heatmap.dat").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(triples) == 16
        for i, j, value in triples:
            assert report.confusion[int(i), int(j)] == int(value)

    def test_unlabeled_test_data_points_at_predict(self, tmp_path):
        config = base_config(tmp_path)
        unlabeled = synthetic_corpus(n_instances=8, n_bodies=24, seed=9)
        write_stances(
            tmp_path / "data" / "test_stances.csv",
            [(i.headline, i.body_id, None) for i in unlabeled.instances],
            labeled=False,
        )
        run("train", "--config", str(config), "--models", "base")
        result = RUNNER.invoke(main, ["evaluate", "--config", str(config), "--models", "base"])
        assert result.exit_code == 3
        assert "predict" in result.stderr


class TestPredict:
    def test_rows_order_and_names(self, trained):
        tmp_path, config = trained
        run("predict", "--config", str(config), "--models", "base")
        out = tmp_path / "out" / "base.predictions.csv"
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        test_stances = tmp_path / "data" / "test_stances.csv"
        with test_stances.open(newline="", encoding="utf-8") as fh:
            inputs = list(csv.DictReader(fh))
        assert len(rows) == len(inputs)
        names = {s.value for s in Stance}
        for got, given in zip(rows, inputs):
            assert got["Headline"] == given["Headline"]
            assert got["Body ID"] == given["Body ID"]
            assert got["Stance"] in names

    def test_predict_evaluate_consistency(self, trained):
        tmp_path, config = trained
        run("predict", "--config", str(config), "--models", "base")
        run("evaluate", "--config", str(config), "--models", "base")
        out = tmp_path / "out"
        with (out / "base.predictions.csv").open(newline="", encoding="utf-8") as fh:
            predicted = [Stance.parse(row["Stance"]) for row in csv.DictReader(fh)]
        with (tmp_path / "data" / "test_stances.csv").open(newline="", encoding="utf-8") as fh:
            truth = [Stance.parse(row["Stance"]) for row in csv.DictReader(fh)]
        grade, _ = fnc_score(list(zip(truth, predicted)))
        report = parse_delimited((out / "base.scores.txt").read_text(encoding="utf-8"))
        assert grade == report.grade

    def test_plain_model_predicts_without_embeddings_loaded(self, tmp_path):
        """Training alongside a similarity model must not make the plain
        model's saved pipeline demand the embedding table at predict time."""
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        write_vectors(tmp_path / "data" / "vectors.txt")
        raw["embeddings"] = {"path": "data/vectors.txt"}
        raw["pipelines"]["embedded"] = {
            "blocks": ["baseline", {"kind": "similarity", "mode": "centroid"}]
        }
        raw["models"]["emb"] = {
            "pipeline": "embedded",
            "hidden_dim": 8,
            "training": raw["models"]["base"]["training"],
        }
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        run("train", "--config", str(config), "--models", "base,emb")
        run("predict", "--config", str(config), "--models", "base")
        assert (tmp_path / "out" / "base.predictions.csv").is_file()

    def test_requires_exactly_one_model(self, trained):
        _, config = trained
        result = RUNNER.invoke(main, ["predict", "--config", str(config)])
        assert result.exit_code == 2
        result = RUNNER.invoke(
            main, ["predict", "--config", str(config), "--models", "base,manual_kw"]
        )
        assert result.exit_code == 2


class TestKeywords:
    def test_manual_file_contains_configured_list(self, trained):
        tmp_path, config = trained
        run("keywords", "--config", str(config))
        ks = read_keyword_set(tmp_path / "out" / "manual.keywords.txt")
        assert ks.terms == ("fake", "hoax", "fraud")

    def test_mi_file_written(self, trained):
        tmp_path, config = trained
        run("keywords", "--config", str(config))
        ks = read_keyword_set(tmp_path / "out" / "auto.keywords.txt")
        assert len(ks.terms) == 4
        assert ks.provenance == "mi"

    def test_micc_one_file_per_theme(self, trained):
        tmp_path, config = trained
        run("keywords", "--config", str(config))
        out = tmp_path / "out"
        hoax = read_keyword_set(out / "themed.hoax.keywords.txt")
        vaccine = read_keyword_set(out / "themed.vaccine.keywords.txt")
        assert hoax.provenance == "micc" and vaccine.provenance == "micc"
        assert "hoax" not in hoax.terms
        assert "vaccine" not in vaccine.terms

    def test_k_zero_headers_only(self, tmp_path):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["keywords"]["auto"]["k"] = 0
        raw["keywords"]["themed"]["k"] = 0
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        run("keywords", "--config", str(config))
        out = tmp_path / "out"
        assert read_keyword_set(out / "auto.keywords.txt").terms == ()
        assert read_keyword_set(out / "themed.hoax.keywords.txt").terms == ()

    def test_mi_on_unlabeled_data_exit_3(self, tmp_path):
        config = base_config(tmp_path)
        unlabeled = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
        write_stances(
            tmp_path / "data" / "train_stances.csv",
            [(i.headline, i.body_id, None) for i in unlabeled.instances],
            labeled=False,
        )
        result = RUNNER.invoke(main, ["keywords", "--config", str(config), "--models", "auto"])
        assert result.exit_code == 3
        assert "no labels" in result.stderr
        # manual and micc selection read no labels
        run("keywords", "--config", str(config), "--models", "manual,themed")
        assert (tmp_path / "out" / "themed.hoax.keywords.txt").is_file()


class TestCv:
    def test_file_count_and_aggregate(self, tmp_path):
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", "base")
        out = tmp_path / "out"
        folds = sorted(out.glob("base.cv.fold*.scores.txt"))
        assert len(folds) == 3
        aggregate = (out / "base.cv.aggregate.txt").read_text(encoding="utf-8")
        rels = [
            parse_delimited(p.read_text(encoding="utf-8")).relative_grade for p in folds
        ]
        mean = next(
            float(l.split("=", 1)[1])
            for l in aggregate.splitlines()
            if l.startswith("relative_mean=")
        )
        assert min(rels) <= mean <= max(rels)
        assert abs(mean - sum(rels) / len(rels)) < 1e-9

    def test_ensembles_side_by_side(self, tmp_path):
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", "duo,trio")
        out = tmp_path / "out"
        assert (out / "duo.cv.aggregate.txt").is_file()
        assert (out / "trio.cv.aggregate.txt").is_file()

    def test_deterministic(self, tmp_path):
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", "base")
        first = (tmp_path / "out" / "base.cv.aggregate.txt").read_bytes()
        run("cv", "--config", str(config), "--models", "base")
        assert (tmp_path / "out" / "base.cv.aggregate.txt").read_bytes() == first

    def test_one_fit_per_fold(self, tmp_path, fit_calls):
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", "trio", "--jobs", "1")
        assert len(fit_calls["fit"]) == 3
        assert {len(spec.blocks) for spec in fit_calls["fit"]} == {3}
        assert sum(spec in fit_calls["fit"] for spec in fit_calls["blocks"]) == 3

    def test_requires_cv_section(self, tmp_path):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        del raw["cv"]
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["cv", "--config", str(config), "--models", "base"])
        assert result.exit_code == 2

    def test_more_folds_than_bodies_exit_2(self, tmp_path):
        config = base_config(tmp_path, cv={"folds": 25, "seed": 17})
        result = RUNNER.invoke(main, ["cv", "--config", str(config), "--models", "base"])
        assert result.exit_code == 2
        assert "need at least 25 bodies for 25 folds, have 24" in result.output

    def test_jobs_flag_matches_serial(self, tmp_path):
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", "base", "--jobs", "1")
        serial = (tmp_path / "out" / "base.cv.aggregate.txt").read_bytes()
        run("cv", "--config", str(config), "--models", "base", "--jobs", "3")
        assert (tmp_path / "out" / "base.cv.aggregate.txt").read_bytes() == serial


    def test_jobs_must_be_positive_exit_2(self, tmp_path):
        config = base_config(tmp_path)
        result = RUNNER.invoke(main, ["cv", "--config", str(config), "--jobs", "0"])
        assert result.exit_code == 2

    def test_unlabeled_training_data_exit_3(self, tmp_path):
        config = base_config(tmp_path)
        unlabeled = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
        write_stances(
            tmp_path / "data" / "train_stances.csv",
            [(i.headline, i.body_id, None) for i in unlabeled.instances],
            labeled=False,
        )
        result = RUNNER.invoke(main, ["cv", "--config", str(config), "--models", "base"])
        assert result.exit_code == 3
        assert "no labels" in result.stderr


class TestReport:
    def test_reemits_from_score_files(self, trained):
        tmp_path, config = trained
        run("evaluate", "--config", str(config), "--models", "base")
        out = tmp_path / "out"
        report_file = out / "base.report.txt"
        original = report_file.read_text(encoding="utf-8")
        report_file.unlink()
        run("report", "--config", str(config), "--models", "base")
        assert report_file.read_text(encoding="utf-8") == original

    def test_reports_zero_when_no_scores(self, tmp_path):
        config = base_config(tmp_path)
        (tmp_path / "out").mkdir()
        result = run("report", "--config", str(config))
        assert "files=0" in result.output


class TestDeterminismUmbrella:
    def test_full_surface_rerun_is_byte_identical(self, tmp_path):
        config = base_config(tmp_path)

        def sweep():
            run("train", "--config", str(config))
            run("evaluate", "--config", str(config))
            run("predict", "--config", str(config), "--models", "base")
            run("keywords", "--config", str(config))

        sweep()
        first = hash_tree(tmp_path / "out")
        sweep()
        assert hash_tree(tmp_path / "out") == first


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stancekit.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for sub in ("train", "evaluate", "predict", "keywords", "cv", "report"):
            assert sub in proc.stdout
