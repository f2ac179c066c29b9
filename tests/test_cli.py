"""End-to-end command surface: train/evaluate/predict/keywords/cv/report."""

import csv
import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from stancekit import embeddings
from stancekit.cli import main
from stancekit.corpus import (
    Stance,
    load_bodies,
    load_corpus,
    load_stances,
    plan_folds,
    validation_split,
)
from stancekit.evaluation import parse_delimited, score_predictions
from stancekit.keywords import read_keyword_set
from stancekit.mlp import load_model, save_model

from conftest import (
    FILLER,
    synthetic_corpus,
    write_bodies,
    write_corpus_files,
    write_stances,
    write_vectors,
)

RUNNER = CliRunner()
SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def add_unreferenced_bodies(tmp_path: Path, n: int) -> None:
    """Append n bodies that no stance row references to the training bodies."""
    path = tmp_path / "data" / "train_bodies.csv"
    bodies = load_bodies(path)
    first = max(bodies) + 1
    bodies.update({first + b: " ".join(FILLER[b % 8 : b % 8 + 8]) for b in range(n)})
    write_bodies(path, bodies)


@pytest.fixture()
def fit_calls(monkeypatch):
    """The specs and corpus sizes of every fit_pipeline call the CLI makes,
    and the specs of the pipelines it calls block_matrices on."""
    import stancekit.cli as cli
    from stancekit.pipeline import FittedPipeline

    calls = {"fit": [], "fit_rows": [], "blocks": []}
    real_fit, real_blocks = cli.fit_pipeline, FittedPipeline.block_matrices

    def fit(spec, corpus, **kwargs):
        calls["fit"].append(spec)
        calls["fit_rows"].append(len(corpus.instances))
        return real_fit(spec, corpus, **kwargs)

    def block_matrices(self, corpus):
        calls["blocks"].append(self.spec)
        return real_blocks(self, corpus)

    monkeypatch.setattr(cli, "fit_pipeline", fit)
    monkeypatch.setattr(FittedPipeline, "block_matrices", block_matrices)
    return calls


@pytest.fixture()
def trainings(monkeypatch):
    """(training rows, training seed) of every model the CLI trains."""
    import stancekit.cli as cli

    calls, real = [], cli.train_mlp

    def train(matrix, labels, training, **kwargs):
        calls.append((matrix.shape[0], training.seed))
        return real(matrix, labels, training, **kwargs)

    monkeypatch.setattr(cli, "train_mlp", train)
    return calls


@pytest.fixture()
def tokenized(monkeypatch):
    """The text of every tokenize call the CLI makes, through whichever
    stancekit module imported the function."""
    import stancekit.text

    real, texts = stancekit.text.tokenize, []

    def tokenize(text):
        texts.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "stancekit" and getattr(module, "tokenize", None) is real:
            monkeypatch.setattr(module, "tokenize", tokenize)
    return texts


def loaded_texts(tmp_path: Path, split: str) -> Counter:
    """Each distinct headline and each body of the train or test data files."""
    data = tmp_path / "data"
    headlines = {i.headline for i in load_stances(data / f"{split}_stances.csv")}
    return Counter(headlines) + Counter(load_bodies(data / f"{split}_bodies.csv").values())


def embedded_config(tmp_path: Path) -> Path:
    """base_config plus a toy embedding file and a model emb whose pipeline
    adds a centroid similarity block to the baseline."""
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
    return config


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
        assert not (tmp_path / "out").exists()


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

    def test_refuses_to_rewrite_pipeline_under_kept_model_exit_2(self, tmp_path):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["models"]["base2"] = dict(raw["models"]["base"], training=dict(
            raw["models"]["base"]["training"], seed=10))
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        run("train", "--config", str(config), "--models", "base")
        kept = hash_tree(tmp_path / "out")
        assert "plain.pipeline.json" in kept and "base.model.bin" in kept

        edited = tmp_path / "edited.yaml"
        edited.write_text(yaml.safe_dump(dict(raw, validation={"fraction": 0.2, "seed": 14})),
                          encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(edited), "--models", "base2"])
        assert result.exit_code == 2
        assert "saved pipeline 'plain' under kept model(s) base;" in result.stderr
        assert hash_tree(tmp_path / "out") == kept

        run("train", "--config", str(config), "--models", "base2")
        rerun = hash_tree(tmp_path / "out")
        assert {f: rerun[f] for f in kept} == kept
        assert "base2.model.bin" in rerun

    def test_refuses_to_rewrite_model_under_kept_combiner_exit_2(self, tmp_path):
        config = base_config(tmp_path)
        run("train", "--config", str(config))
        kept = hash_tree(tmp_path / "out")
        # retraining a member with its config unchanged writes the same model bytes
        run("train", "--config", str(config), "--models", "manual_kw")
        assert hash_tree(tmp_path / "out") == kept

        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["models"]["manual_kw"]["training"]["seed"] = 30
        edited = tmp_path / "edited.yaml"
        edited.write_text(yaml.safe_dump(raw), encoding="utf-8")
        beside = sorted(p.name for p in tmp_path.iterdir())
        result = RUNNER.invoke(main, ["train", "--config", str(edited), "--models", "manual_kw"])
        assert result.exit_code == 2
        assert "saved model 'manual_kw' under kept combiner(s) trio_concat;" in result.stderr
        assert hash_tree(tmp_path / "out") == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == beside
        assert not [p for p in (tmp_path / "out").iterdir() if p.is_dir()]

        run("train", "--config", str(edited), "--models", "base,manual_kw,themed_kw")
        refit = hash_tree(tmp_path / "out")
        assert refit["manual_kw.model.bin"] != kept["manual_kw.model.bin"]
        assert refit["trio_concat.combiner.json"] != kept["trio_concat.combiner.json"]

    def test_out_on_its_own_filesystem(self, tmp_path, monkeypatch):
        """--out may be a mount point: train moves nothing into it from outside."""
        config = base_config(tmp_path)
        out, move = (tmp_path / "out").resolve(), os.replace

        def replace_within_out(src, dst):
            if Path(dst).resolve().is_relative_to(out) != Path(src).resolve().is_relative_to(out):
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            move(src, dst)

        monkeypatch.setattr(os, "replace", replace_within_out)
        run("train", "--config", str(config), "--models", "base")
        names = sorted(p.name for p in out.iterdir())
        assert "base.model.bin" in names and not [n for n in names if n.startswith(".")]

    def test_models_selection(self, tmp_path):
        config = base_config(tmp_path)
        run("train", "--config", str(config), "--models", "base")
        out = tmp_path / "out"
        assert (out / "base.model.bin").is_file()
        assert not (out / "manual_kw.model.bin").exists()

    def test_repeated_model_name_trains_once(self, tmp_path, trainings):
        config = base_config(tmp_path)
        result = run("train", "--config", str(config), "--models", "base,base")
        assert len(trainings) == 1
        assert result.stdout.splitlines() == ["command=train model=base file=base.model.bin"]

    def test_stray_block_key_exit_2(self, tmp_path):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["pipelines"]["with_mi"] = {"blocks": [
            {"kind": "baseline", "keywords": "nosuchset"},
            {"kind": "indicator", "keywords": "auto"},
        ]}
        raw["models"]["mi_kw"] = dict(raw["models"]["base"], pipeline="with_mi")
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(config),
                                      "--models", "base,mi_kw"])
        assert result.exit_code == 2
        assert ("config error: pipelines.with_mi.blocks[0]: baseline block takes no "
                "keywords") in result.stderr
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("name", ["train_stances.csv", "train_bodies.csv", "vectors.txt"])
    def test_data_file_not_utf8_exit_3(self, tmp_path, name):
        config = embedded_config(tmp_path)
        path = tmp_path / "data" / name
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 :])
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "emb"])
        assert result.exit_code == 3, result.output
        assert f"{path}: not UTF-8 text (byte 0xff" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_exit_2(self, tmp_path):
        config = base_config(tmp_path)
        config.write_bytes(b"# caf\xe9\n" + config.read_bytes())
        result = RUNNER.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"{config}: not UTF-8 text (byte 0xe9" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("data: {}\n", encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("key,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("l2_lambda", float("inf")),
    ])
    def test_non_finite_hyperparameter_exit_2(self, tmp_path, key, value):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["models"]["base"]["training"][key] = value
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "base"])
        assert result.exit_code == 2
        assert f"{key} must be" in result.stderr and "finite" in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", ["models.base.training.seed",
                                       "ensembles.trio_concat.combiner_seed"])
    def test_negative_seed_exit_2(self, tmp_path, entry):
        """numpy refuses a negative seed: the config does, before any SGD."""
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        *parents, key = entry.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[key] = -1
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2
        assert f"{entry}: must be >= 0" in result.stderr
        assert not (tmp_path / "out").exists()

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
        # the union's blocks are built once for training and once for validation
        assert fit_calls["blocks"] == [union, union]
        together = hash_tree(tmp_path / "out")
        for name in ("base", "manual_kw", "themed_kw"):
            alone = tmp_path / f"alone_{name}"
            run("train", "--config", str(config), "--models", name, "--out", str(alone))
            separate = hash_tree(alone)
            assert any(f.endswith(".pipeline.json") for f in separate)
            assert {f: together[f] for f in separate} == separate

    def test_each_text_tokenized_once(self, tmp_path, tokenized):
        config = base_config(tmp_path)
        tokenized.clear()  # the synthetic corpora written above
        run("train", "--config", str(config))
        assert Counter(tokenized) == loaded_texts(tmp_path, "train")

    def test_validation_needs_enough_bodies_exit_2(self, tmp_path):
        config = base_config(tmp_path, validation={"fraction": 0.04, "seed": 13})
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "base"])
        assert result.exit_code == 2
        assert "validation.fraction 0.04 needs at least 25 bodies" in result.stderr
        assert "have 24" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_unreferenced_bodies_stay_in_training(self, tmp_path):
        # with seed 230, dealing every body would leave validation no stance rows
        config = base_config(tmp_path, validation={"fraction": 0.2, "seed": 230})
        add_unreferenced_bodies(tmp_path, 400)
        run("train", "--config", str(config), "--models", "base")
        log = (tmp_path / "out" / "base.train.log").read_text(encoding="utf-8")
        assert "validation_relative_grade=" in log

    def test_divergence_exit_4(self, tmp_path):
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["models"]["base"]["training"]["learning_rate"] = 1e12
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "base"])
        assert result.exit_code == 4
        assert "base" in result.stderr

    def test_transport_budget_exit_4(self, tmp_path, monkeypatch):
        config = embedded_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["pipelines"]["embedded"]["blocks"][1]["mode"] = "wmd-exact"
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        monkeypatch.setattr(embeddings, "PIVOTS_PER_LINE", 0)
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "emb"])
        assert result.exit_code == 4
        assert "error: transport solver exceeded its iteration budget" in result.stderr

    def test_non_finite_embedding_component_exit_3(self, tmp_path):
        config = embedded_config(tmp_path)
        path = tmp_path / "data" / "vectors.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        # the header stays; every vector gets one nan component
        lines[1:] = [line.rsplit(" ", 1)[0] + " nan" for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = RUNNER.invoke(main, ["train", "--config", str(config), "--models", "emb"])
        assert result.exit_code == 3
        assert f"{path}:2: non-finite vector component" in result.stderr

    def test_duplicate_embedding_terms_warn_once(self, tmp_path):
        """Every term listed again with another vector: the first vectors are
        kept, so train writes the same bytes, and says so in one line."""
        config = embedded_config(tmp_path)
        path = tmp_path / "data" / "vectors.txt"
        result = run("train", "--config", str(config), "--models", "emb")
        assert "warning=" not in result.stderr
        want = hash_tree(tmp_path / "out")
        shutil.rmtree(tmp_path / "out")
        lines = path.read_text(encoding="utf-8").splitlines()
        again = [" ".join([term, *(str(-float(v)) for v in values)])
                 for term, *values in (line.split() for line in lines[1:])]
        path.write_text("\n".join(lines + again) + "\n", encoding="utf-8")
        result = run("train", "--config", str(config), "--models", "emb")
        warning = f"{len(again)} duplicate terms skipped; the first vector of each is kept"
        assert [line for line in result.stderr.splitlines() if "warning=" in line] == [
            f"command=train embeddings={path} warning={warning!r}"]
        assert hash_tree(tmp_path / "out") == want


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

    def test_one_build_per_saved_pipeline(self, trained, fit_calls):
        _, config = trained
        run("evaluate", "--config", str(config))
        assert fit_calls["fit"] == []
        names = [spec.name for spec in fit_calls["blocks"]]
        assert sorted(names) == ["plain", "with_manual", "with_themed"]

    def test_test_corpus_tokenized_once(self, trained, tokenized):
        tmp_path, config = trained
        run("evaluate", "--config", str(config), "--models", "base,manual_kw,themed_kw")
        assert Counter(tokenized) == loaded_texts(tmp_path, "test")

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


# what evaluate, predict and keywords write into the shared trained workspace
WRITTEN = ("*.scores.txt", "*.report.txt", "*.heatmap.*", "*.predictions.csv", "*.keywords.txt")


def copied_workspace(trained, tmp_path: Path) -> tuple[Path, Path]:
    """A private copy of the trained workspace, safe to corrupt, with only
    the files train wrote."""
    source, config = trained
    shutil.copytree(source, tmp_path / "ws", ignore=shutil.ignore_patterns(*WRITTEN))
    return tmp_path / "ws" / "out", tmp_path / "ws" / config.name


def edit_json(edit):
    """A corruption that applies edit to a JSON file's payload."""

    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")

    return corrupt


def set_line(index: int, text: str):
    """A corruption that overwrites one line of a text file."""

    def corrupt(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return corrupt


def not_utf8(path: Path) -> None:
    """A corruption that puts a byte no UTF-8 text holds at the file's start."""
    path.write_bytes(b"\xff" + path.read_bytes())


def first_block_name_not_utf8(path: Path) -> None:
    """A corruption of a model file: the first byte of its first block name becomes 0xff."""
    name = load_model(path).feature_layout[0].name.encode("utf-8")
    path.write_bytes(path.read_bytes().replace(name, b"\xff" + name[1:], 1))


# case -> (saved file, corruption of that file); the error must name the file
CORRUPTIONS = {
    "manifest_without_files": ("plain.pipeline.json", edit_json(lambda m: m.pop("files"))),
    "manifest_without_blocks": ("plain.pipeline.json", edit_json(lambda m: m.pop("blocks"))),
    "manifest_without_name": ("plain.pipeline.json", edit_json(lambda m: m.pop("name"))),
    "manifest_lists_no_vocabulary": (
        "plain.pipeline.json", edit_json(lambda m: m["files"].pop("body_vocab"))
    ),
    "manifest_not_an_object": ("plain.pipeline.json", lambda p: p.write_text("[]")),
    "manifest_not_utf8": ("plain.pipeline.json", not_utf8),
    # Python compares true and 1.0 equal to 1; the format's version is the integer
    "manifest_version_true": ("plain.pipeline.json", edit_json(lambda m: m.update(version=True))),
    # a block key its kind does not read, as a config could once leave there
    "manifest_block_with_stray_key": (
        "plain.pipeline.json", edit_json(lambda m: m["blocks"][0].update(keywords="manual"))
    ),
    "manifest_file_not_a_name": (
        "plain.pipeline.json", edit_json(lambda m: m["files"].update(idf=5))
    ),
    # another pipeline's IDF, byte-identical to this one's: a file the table does not name
    "manifest_lists_another_idf": (
        "plain.pipeline.json", edit_json(lambda m: m["files"].update(idf="with_manual.idf.txt"))
    ),
    # a JSON string is not the boolean save wrote, though it is truthy
    "manifest_tf_log1p_a_string": (
        "plain.pipeline.json", edit_json(lambda m: m.update(tf_log1p="false"))
    ),
    "manifest_name_not_a_string": ("plain.pipeline.json", edit_json(lambda m: m.update(name=5))),
    "pipeline_file_missing": ("plain.body_vocab.txt", Path.unlink),
    "idf_count_not_a_number": ("plain.idf.txt", set_line(0, "document_count=many")),
    "idf_value_not_a_number": ("plain.idf.txt", set_line(1, "many")),
    "idf_value_nan": ("plain.idf.txt", set_line(1, "nan")),
    "idf_value_negative": ("plain.idf.txt", set_line(1, "-0.5")),
    "idf_not_utf8": ("plain.idf.txt", not_utf8),
    "idf_without_header": (
        "plain.idf.txt",
        lambda p: p.write_text("".join(p.read_text(encoding="utf-8").splitlines(True)[1:]),
                               encoding="utf-8"),
    ),
    "idf_empty": ("plain.idf.txt", lambda p: p.write_text("")),
    "idf_truncated": (
        "plain.idf.txt",
        lambda p: p.write_text("".join(p.read_text(encoding="utf-8").splitlines(True)[:-3]),
                               encoding="utf-8"),
    ),
    "keyword_set_duplicate_term": ("with_manual.kw.manual.txt", set_line(2, "fake")),
    "keyword_set_not_utf8": ("with_manual.kw.manual.txt", not_utf8),
    # the second term overwritten with the first: same length, one column dead
    "vocabulary_repeats_a_term": (
        "plain.headline_vocab.txt",
        lambda p: set_line(1, p.read_text(encoding="utf-8").splitlines()[0])(p),
    ),
    "vocabulary_not_utf8": ("plain.body_vocab.txt", not_utf8),
    "combiner_without_weights": (
        "trio_concat.combiner.json", edit_json(lambda c: c.pop("weights"))
    ),
    "combiner_without_bias": ("trio_concat.combiner.json", edit_json(lambda c: c.pop("bias"))),
    "combiner_not_an_object": ("trio_concat.combiner.json", lambda p: p.write_text("[]")),
    "combiner_not_utf8": ("trio_concat.combiner.json", not_utf8),
    "combiner_version_float": (
        "trio_concat.combiner.json", edit_json(lambda c: c.update(version=1.0))
    ),
    "combiner_warnings_not_a_list": (
        "trio_concat.combiner.json", edit_json(lambda c: c.update(warnings="abc"))
    ),
    # Python's json reads and writes the NaN literal
    "combiner_weight_nan": (
        "trio_concat.combiner.json", edit_json(lambda c: c["weights"][0].__setitem__(0, math.nan))
    ),
    "combiner_bias_too_short": (
        "trio_concat.combiner.json", edit_json(lambda c: c.update(bias=[0.0]))
    ),
    # fitted for two members where the ensemble has three
    "combiner_for_other_members": (
        "trio_concat.combiner.json",
        edit_json(lambda c: c.update(weights=[row[:8] for row in c["weights"]])),
    ),
    # a model trained on another pipeline's columns
    "model_layout_mismatch": (
        "base.model.bin",
        lambda p: p.write_bytes((p.parent / "manual_kw.model.bin").read_bytes()),
    ),
    # one input row of w1 dropped: the layout names one input more than the weights
    "model_weights_shorter_than_layout": (
        "base.model.bin",
        lambda p: save_model(replace(m := load_model(p), w1=m.w1[:-1]), p),
    ),
    "model_block_name_not_utf8": ("base.model.bin", first_block_name_not_utf8),
    "model_weight_not_finite": (
        "base.model.bin", lambda p: save_model(replace(m := load_model(p), b2=m.b2 + math.inf), p)
    ),
    # a fifth output row: the header says output_dim 5
    "model_five_classes": (
        "base.model.bin",
        lambda p: save_model(replace(m := load_model(p), w2=np.vstack([m.w2, m.w2[:1]]),
                                     b2=np.append(m.b2, 0.0)), p),
    ),
}


class TestSavedArtifacts:
    """evaluate and predict load and check every saved artifact first."""

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_corrupt_artifact_exit_3(self, trained, tmp_path, command, case):
        out, config = copied_workspace(trained, tmp_path)
        named, corrupt = CORRUPTIONS[case]
        corrupt(out / named)
        before = hash_tree(out)
        target = "trio_concat" if "combiner" in case else "trio"
        result = RUNNER.invoke(main, [command, "--config", str(config), "--models", target])
        assert result.exit_code == 3, result.output
        # a file that is there is named by its path; a missing one by the manifest
        assert (str(out / named) if (out / named).exists() else named) in result.stderr
        assert hash_tree(out) == before

    def test_missing_combiner_fails_before_any_score_file(self, trained, tmp_path):
        out, config = copied_workspace(trained, tmp_path)
        (out / "trio_concat.combiner.json").unlink()
        before = hash_tree(out)
        result = RUNNER.invoke(main, ["evaluate", "--config", str(config)])
        assert result.exit_code == 2
        assert "trio_concat" in result.stderr
        assert hash_tree(out) == before

    def test_pipeline_changed_since_training_exit_2(self, trained, tmp_path):
        _, config = copied_workspace(trained, tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["pipelines"]["plain"]["blocks"].append({"kind": "indicator", "keywords": "manual"})
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        result = RUNNER.invoke(main, ["evaluate", "--config", str(config), "--models", "base"])
        assert result.exit_code == 2
        assert "saved pipeline 'plain' differs" in result.stderr

    def test_keyword_file_header_name_is_not_read(self, trained, tmp_path):
        # an indicator block's columns are named after the config's keyword
        # set, so the saved file's header name changes no layout or decision
        out, config = copied_workspace(trained, tmp_path)
        run("evaluate", "--config", str(config))
        scores = {p.name: p.read_bytes() for p in out.glob("*.scores.txt")}
        keyword_file = out / "with_manual.kw.manual.txt"
        header = keyword_file.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("# manual ")
        set_line(0, "# renamed " + header[len("# manual "):])(keyword_file)
        run("evaluate", "--config", str(config))
        assert {p.name: p.read_bytes() for p in out.glob("*.scores.txt")} == scores


# what one fuzz edit may insert into a saved file
FUZZ_TOKENS = (b"nan", b"1e400", b'"', b"\xff", b"\n")


def fuzz_edit(data, raw: bytes) -> bytes:
    """raw with one drawn edit: a flipped byte, a truncation, a deleted or
    duplicated line, or an inserted FUZZ_TOKENS token."""
    kind = data.draw(st.sampled_from(["flip", "truncate", "delete", "duplicate", "insert"]))
    if kind == "flip":
        at, mask = data.draw(st.integers(0, len(raw) - 1)), data.draw(st.integers(1, 255))
        return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if kind == "insert":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.sampled_from(FUZZ_TOKENS)) + raw[at:]
    lines = raw.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    return b"".join(lines[:i] + lines[i:i + 1] * (2 if kind == "duplicate" else 0) + lines[i + 1:])


@pytest.fixture(scope="module")
def fuzz_workspace(trained, tmp_path_factory):
    """(pristine output directory with score files, workspace whose out is
    replaced per example, its config, the files evaluate, predict and
    report read)."""
    source, config = trained
    pristine = tmp_path_factory.mktemp("pristine")
    shutil.copytree(source, pristine, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns(*WRITTEN))
    run("evaluate", "--config", str(pristine / config.name))
    work = tmp_path_factory.mktemp("fuzzed")
    shutil.copytree(pristine, work, dirs_exist_ok=True)
    unread = (".train.log", ".report.txt", ".heatmap.dat", ".heatmap.gp")
    read = sorted(p.name for p in (pristine / "out").iterdir() if not p.name.endswith(unread))
    return pristine / "out", work, work / config.name, read


class TestSavedFileFuzz:
    """One edit to one saved file: every reading command exits with a
    documented code, never with a traceback."""

    @settings(max_examples=300, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_edit_exits_documented_code(self, fuzz_workspace, data):
        pristine, work, config, read = fuzz_workspace
        shutil.rmtree(work / "out")
        shutil.copytree(pristine, work / "out")
        name = data.draw(st.sampled_from(read))
        path = work / "out" / name
        path.write_bytes(fuzz_edit(data, path.read_bytes()))
        args = ["report"] if name.endswith(".scores.txt") else data.draw(
            st.sampled_from([["evaluate"], ["predict", "--models", "trio_concat"]]))
        result = RUNNER.invoke(main, [*args, "--config", str(config)])
        assert result.exit_code in (0, 2, 3, 4), (name, result.exception)


# input file -> the reading commands that read it
FUZZED_INPUTS = {
    "exp.yaml": (["evaluate"], ["predict", "--models", "emb"], ["keywords"]),
    "data/train_stances.csv": (["keywords"],),
    "data/train_bodies.csv": (["keywords"],),
    "data/test_stances.csv": (["evaluate"], ["predict", "--models", "emb"]),
    "data/test_bodies.csv": (["evaluate"], ["predict", "--models", "emb"]),
    "data/vectors.txt": (["evaluate"], ["predict", "--models", "emb"]),
}


@pytest.fixture(scope="module")
def input_fuzz_workspace(tmp_path_factory):
    """A workspace trained on embedded_config, whose inputs the fuzz edits."""
    work = tmp_path_factory.mktemp("inputs")
    config = embedded_config(work)
    run("train", "--config", str(config))
    return work, config


class TestInputFileFuzz:
    """One edit to the config, a CSV or the embedding file: every command
    that reads it exits with a documented code, never with a traceback.
    --out pins the output directory, so an edited config cannot move where
    a command writes."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_one_edit_exits_documented_code(self, input_fuzz_workspace, data):
        work, config = input_fuzz_workspace
        name = data.draw(st.sampled_from(sorted(FUZZED_INPUTS)))
        path = work / name
        original = path.read_bytes()
        path.write_bytes(fuzz_edit(data, original))
        args = data.draw(st.sampled_from(FUZZED_INPUTS[name]))
        try:
            result = RUNNER.invoke(main, [*args, "--config", str(config),
                                          "--out", str(work / "out")])
        finally:
            path.write_bytes(original)
        assert result.exit_code in (0, 2, 3, 4), (name, args, result.exception)


class TestEmptyStances:
    """A header-only stances file is a data error wherever labels are needed."""

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_training_data_exit_3(self, tmp_path, command):
        config = base_config(tmp_path)
        write_stances(tmp_path / "data" / "train_stances.csv", [])
        result = RUNNER.invoke(main, [command, "--config", str(config), "--models", "base"])
        assert result.exit_code == 3
        assert "train_stances.csv has no stance rows" in result.stderr

    def test_evaluate_exit_3(self, trained, tmp_path):
        _, config = copied_workspace(trained, tmp_path)
        write_stances(config.parent / "data" / "test_stances.csv", [])
        result = RUNNER.invoke(main, ["evaluate", "--config", str(config), "--models", "base"])
        assert result.exit_code == 3
        assert "test_stances.csv has no stance rows" in result.stderr

    def test_predict_writes_header_only(self, trained, tmp_path):
        out, config = copied_workspace(trained, tmp_path)
        write_stances(config.parent / "data" / "test_stances.csv", [], labeled=False)
        run("predict", "--config", str(config), "--models", "trio_concat")
        text = (out / "trio_concat.predictions.csv").read_text(encoding="utf-8")
        assert text == "Headline,Body ID,Stance\n"

    def test_predict_with_similarity_block_writes_header_only(self, tmp_path):
        config = embedded_config(tmp_path)
        run("train", "--config", str(config), "--models", "emb")
        write_stances(tmp_path / "data" / "test_stances.csv", [], labeled=False)
        run("predict", "--config", str(config), "--models", "emb")
        text = (tmp_path / "out" / "emb.predictions.csv").read_text(encoding="utf-8")
        assert text == "Headline,Body ID,Stance\n"


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
        grade = score_predictions(list(zip(truth, predicted))).grade
        report = parse_delimited((out / "base.scores.txt").read_text(encoding="utf-8"))
        assert grade == report.grade

    def test_plain_model_predicts_without_embeddings_loaded(self, tmp_path):
        """Training alongside a similarity model must not make the plain
        model's saved pipeline demand the embedding table at predict time."""
        config = embedded_config(tmp_path)
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

    def test_each_body_tokenized_once_and_no_headline(self, tmp_path, tokenized):
        config = base_config(tmp_path)
        tokenized.clear()  # the synthetic corpora written above
        run("keywords", "--config", str(config))
        bodies = load_bodies(tmp_path / "data" / "train_bodies.csv").values()
        assert Counter(tokenized) == Counter(bodies)

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

    @staticmethod
    def assert_fold_builds(tmp_path, fit_calls, target: str, builds: int):
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", target, "--jobs", "1")
        assert len(fit_calls["fit"]) == 3
        assert {len(spec.blocks) for spec in fit_calls["fit"]} == {3}
        # each fold builds its union's blocks on every corpus it trains or scores on
        assert fit_calls["blocks"] == [s for s in fit_calls["fit"] for _ in range(builds)]

    def test_one_fit_per_fold(self, tmp_path, fit_calls):
        self.assert_fold_builds(tmp_path, fit_calls, "trio", 2)  # train and test sides

    def test_concat_fold_scores_inner_validation_once(self, tmp_path, fit_calls):
        self.assert_fold_builds(tmp_path, fit_calls, "trio_concat", 3)

    def test_concat_fold_matches_train_and_evaluate(self, tmp_path):
        """A fold's concatenation ensemble scores what train + evaluate give
        when the fold's train and test sides are the config's data."""
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--models", "trio_concat")
        corpus = load_corpus(tmp_path / "data" / "train_stances.csv",
                             tmp_path / "data" / "train_bodies.csv")
        plan = plan_folds(corpus, 3, 17)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        for fold in range(3):
            data = {}
            for side, part in zip(("train", "test"), plan.split(corpus, fold)):
                stances = f"data/fold{fold}_{side}_stances.csv"
                bodies = f"data/fold{fold}_{side}_bodies.csv"
                write_corpus_files(part, tmp_path / stances, tmp_path / bodies)
                data.update({f"{side}_stances": stances, f"{side}_bodies": bodies})
            fold_config = tmp_path / f"fold{fold}.yaml"
            fold_config.write_text(yaml.safe_dump(dict(raw, data=data, output_dir=f"fold{fold}")),
                                   encoding="utf-8")
            run("train", "--config", str(fold_config))
            run("evaluate", "--config", str(fold_config), "--models", "trio_concat")
            assert (tmp_path / f"fold{fold}" / "trio_concat.scores.txt").read_bytes() == (
                tmp_path / "out" / f"trio_concat.cv.fold{fold}.scores.txt").read_bytes()

    def test_one_fit_and_training_per_fold_and_training_corpus(
        self, tmp_path, fit_calls, trainings
    ):
        """Every target at once: models and summation ensembles share the
        fold's train side, concatenation ensembles its inner fit side."""
        config = base_config(tmp_path)
        run("cv", "--config", str(config), "--jobs", "1")
        data = tmp_path / "data"
        corpus = load_corpus(data / "train_stances.csv", data / "train_bodies.csv")
        plan = plan_folds(corpus, 3, 17)
        rows = []
        for fold in range(3):
            train_side = plan.split(corpus, fold)[0]
            inner_fit = validation_split(train_side, 0.2, 13)[0]
            rows += [len(train_side.instances), len(inner_fit.instances)]
        assert fit_calls["fit_rows"] == rows
        # base, manual_kw and themed_kw train with seeds 7, 8 and 9
        assert Counter(trainings) == Counter((n, seed) for n in rows for seed in (7, 8, 9))

    def test_all_targets_match_separate_runs(self, tmp_path):
        config = base_config(tmp_path)
        together = run("cv", "--config", str(config)).output
        written = hash_tree(tmp_path / "out")
        targets = ["base", "manual_kw", "themed_kw", "duo", "trio", "trio_concat"]
        separate = ""
        for target in targets:
            out = tmp_path / f"alone_{target}"
            separate += run("cv", "--config", str(config), "--models", target,
                            "--out", str(out)).output
            alone = hash_tree(out)
            assert sorted(alone) == [f"{target}.cv.aggregate.txt"] + [
                f"{target}.cv.fold{k}.scores.txt" for k in range(3)
            ]
            assert {f: written[f] for f in alone} == alone
        assert len(written) == 4 * len(targets)
        assert together == separate

    def test_each_text_tokenized_once(self, tmp_path, tokenized):
        config = base_config(tmp_path)
        tokenized.clear()  # the synthetic corpora written above
        # every fold and its inner validation split read the loaded corpus's lists
        run("cv", "--config", str(config), "--models", "trio_concat", "--jobs", "3")
        assert Counter(tokenized) == loaded_texts(tmp_path, "train")

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

    def test_jobs_default_is_the_cores_this_process_may_use(self, tmp_path, monkeypatch):
        import stancekit.cli as cli

        seen, real = [], cli.cross_validate_targets

        def recording(*args, jobs):
            seen.append(jobs)
            return real(*args, jobs=jobs)

        monkeypatch.setattr(cli, "cross_validate_targets", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the host's CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run("cv", "--config", str(base_config(tmp_path)), "--models", "base")
        assert seen == [1]

    def test_unreferenced_bodies_stay_in_training(self, tmp_path):
        # with seed 3, dealing every body would leave fold 8 no stance rows
        config = base_config(tmp_path, cv={"folds": 10, "seed": 3})
        add_unreferenced_bodies(tmp_path, 40)
        run("cv", "--config", str(config), "--models", "base")
        assert len(list((tmp_path / "out").glob("base.cv.fold*.scores.txt"))) == 10

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

    @pytest.mark.parametrize("grades", [
        pytest.param({"grade": "abc"}, id="abc"),
        pytest.param({"grade": "999.0"}, id="999.0"),
        pytest.param({"grade": "0.0", "max_grade": "0.0"}, id="max_grade_zero"),
        pytest.param({"grade": "inf", "max_grade": "inf"}, id="grades_inf"),
        pytest.param({"f1_macro": "nan"}, id="f1_macro_nan"),
        pytest.param({"accuracy_agree": "7.5"}, id="accuracy_above_one"),
    ])
    def test_corrupt_scores_exit_3(self, trained, tmp_path, grades):
        out, config = copied_workspace(trained, tmp_path)
        run("evaluate", "--config", str(config), "--models", "base")
        scores = out / "base.scores.txt"
        lines = scores.read_text(encoding="utf-8").splitlines(True)
        for i, line in enumerate(lines):
            key = line.partition("=")[0]
            if key in grades:
                lines[i] = f"{key}={grades[key]}\n"
        scores.write_text("".join(lines), encoding="utf-8")
        result = RUNNER.invoke(main, ["report", "--config", str(config), "--models", "base"])
        assert result.exit_code == 3, result.output
        assert "base.scores.txt" in result.stderr

    def test_scores_not_utf8_exit_3(self, trained, tmp_path):
        out, config = copied_workspace(trained, tmp_path)
        run("evaluate", "--config", str(config), "--models", "trio")
        not_utf8(out / "trio.scores.txt")
        result = RUNNER.invoke(main, ["report", "--config", str(config), "--models", "trio"])
        assert result.exit_code == 3, result.output
        assert "trio.scores.txt: not UTF-8 text" in result.stderr

    def test_reports_zero_when_no_scores(self, tmp_path):
        config = base_config(tmp_path)
        (tmp_path / "out").mkdir()
        result = run("report", "--config", str(config))
        assert "files=0" in result.output

    def test_fresh_config_creates_no_output_directory(self, tmp_path):
        config = base_config(tmp_path)
        result = run("report", "--config", str(config))
        assert "files=0" in result.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", ["train", "evaluate", "predict", "keywords", "cv", "report"]
)
def test_output_path_not_a_directory_exit_2(tmp_path, command):
    config = base_config(tmp_path)
    (tmp_path / "out").write_text("a file, not a directory\n", encoding="utf-8")
    result = RUNNER.invoke(main, [command, "--config", str(config), "--models", "base"])
    assert result.exit_code == 2
    assert f"output path {tmp_path / 'out'} is not a directory" in result.stderr


@pytest.mark.parametrize(
    "command", ["train", "evaluate", "predict", "keywords", "cv", "report"]
)
def test_unknown_target_exit_2(tmp_path, command):
    config = base_config(tmp_path)
    result = RUNNER.invoke(main, [command, "--config", str(config), "--models", "nosuch"])
    assert result.exit_code == 2
    assert "named 'nosuch' in the config" in result.stderr
    assert not (tmp_path / "out").exists()


def renamed(node, old: str, new: str):
    """node with every mapping key and string equal to old replaced by new."""
    if isinstance(node, dict):
        return {renamed(k, old, new): renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [renamed(v, old, new) for v in node]
    return new if node == old else node


#: (section, base_config name, name that cannot be part of a file name, command)
UNFIT_NAMES = {
    "model-slash": ("models", "base", "a/b", "train"),
    "model-parent": ("models", "base", "../esc", "train"),
    "model-tab": ("models", "base", "tab\tname", "train"),
    "model-nul": ("models", "base", "nul\0name", "train"),
    "pipeline-dotdot": ("pipelines", "plain", "..", "train"),
    "pipeline-dot": ("pipelines", "plain", ".", "train"),
    "ensemble-escape": ("ensembles", "duo", "../../escaped", "evaluate"),
    "keywords-space": ("keywords", "manual", "my set", "train"),
    "keywords-backslash": ("keywords", "manual", "a\\b", "keywords"),
    "theme-slash": ("themes", "hoax", "a/b", "keywords"),
}


@pytest.mark.parametrize("section,old,new,command", UNFIT_NAMES.values(), ids=UNFIT_NAMES)
def test_name_that_is_no_file_name_exit_2(tmp_path, section, old, new, command):
    config = base_config(tmp_path)
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    if section == "themes":  # a theme word is also a manual term here
        raw["keywords"]["themed"]["themes"][0] = new
        message = f"keywords.themed.themes[0]: {new!r} is not a token"
    else:
        raw = renamed(raw, old, new)
        message = f"{section}.{new}: name {new!r} cannot be part of a file name"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "run" / "out"
    result = RUNNER.invoke(main, [command, "--config", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"config error: {message}" in result.stderr
    # an escaped write would land beside these, or under run/
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "exp.yaml"]


#: (keyword set, key, an entry that tokenize never yields, command)
NON_TOKENS = {
    "term-capital": ("manual", "terms", "Fake", "train"),
    "term-space": ("manual", "terms", "fraud word", "train"),
    "term-apostrophe": ("manual", "terms", "can't", "keywords"),
    "term-underscore": ("manual", "terms", "a_b", "cv"),
    "theme-capital": ("themed", "themes", "Hoax", "keywords"),
}


@pytest.mark.parametrize("keyword_set,key,entry,command", NON_TOKENS.values(), ids=NON_TOKENS)
def test_keyword_that_is_no_token_exit_2(tmp_path, keyword_set, key, entry, command):
    # such a keyword would match no text, and its indicator columns stay zero
    config = base_config(tmp_path)
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["keywords"][keyword_set][key][1:1] = [entry]
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    result = RUNNER.invoke(main, [command, "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert (f"config error: keywords.{keyword_set}.{key}[1]: {entry!r} is not a token"
            in result.stderr)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", ["train", "evaluate", "predict", "keywords", "cv", "report"]
)
def test_seed_flag_refused_exit_2(tmp_path, command):
    # seeds live only in the config, so a saved run is a function of it and the data
    config = base_config(tmp_path)
    result = RUNNER.invoke(main, [command, "--config", str(config), "--seed", "1"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--seed" in result.output
    assert not (tmp_path / "out").exists()


def test_commands_build_no_example_rows(tmp_path, monkeypatch):
    """train, evaluate and cv keep headline and body columns per document:
    none lays sparse blocks side by side with a row per example or builds a
    FeatureMatrix's example-by-input matrix."""
    import stancekit.pipeline as pipeline
    from stancekit.mlp import FeatureMatrix
    from stancekit.pipeline import FittedPipeline

    config = base_config(tmp_path)
    builds = []  # the document rows of every block build, kept alive
    examples = {}  # id of a build's document rows -> examples of its corpus
    stacked = set()  # ids of the first document rows of every stack
    real_blocks, real_hstack = FittedPipeline.block_matrices, pipeline._hstack

    def block_matrices(self, corpus):
        blocks = real_blocks(self, corpus)
        builds.append([b.docs for b in blocks.values()])
        examples.update({id(b.docs): len(corpus.instances) for b in blocks.values()})
        return blocks

    def hstack(blocks):
        matrix = real_hstack(blocks)
        first = id(blocks[0])
        if first not in examples or matrix.shape[0] == examples[first]:
            raise AssertionError("an example-by-input matrix was built")
        stacked.add(first)
        return matrix

    def refuse(*args, **kwargs):
        raise AssertionError("an example-by-input matrix was built")

    monkeypatch.setattr(FittedPipeline, "block_matrices", block_matrices)
    monkeypatch.setattr(pipeline, "_hstack", hstack)
    monkeypatch.setattr(FeatureMatrix, "matrix", property(refuse))
    run("train", "--config", str(config))
    for command in ("evaluate", "cv"):
        run(command, "--config", str(config), "--models", "trio_concat")
    # every block build was laid out through the wrapper, so its shape check ran
    assert all(any(id(docs) in stacked for docs in build) for build in builds)


class TestDeterminismUmbrella:
    def test_across_hash_seeds(self, tmp_path):
        """Every command writes the same bytes under two string-hash seeds,
        so no output depends on set or dict-of-str iteration order."""
        config = base_config(tmp_path)
        commands = [
            ["train"], ["evaluate"], ["predict", "--models", "base"], ["keywords"],
            ["cv", "--models", "trio_concat", "--jobs", "1"],
        ]
        for hash_seed in ("1", "2"):
            out = str(tmp_path / f"out{hash_seed}")
            script = (
                "from stancekit.cli import main\n"
                f"for args in {commands!r}:\n"
                f"    main(args + ['--config', {str(config)!r}, '--out', {out!r}],"
                " standalone_mode=False)\n"
            )
            path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        first = hash_tree(tmp_path / "out1")
        assert any(f.endswith(".cv.aggregate.txt") for f in first)
        assert hash_tree(tmp_path / "out2") == first

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


class TestBlasThreads:
    def test_train_bytes_independent_of_blas_thread_count(self, tmp_path):
        """Models and training logs are byte-identical under one and two
        BLAS threads. Each w1 has over 20k entries (50-odd inputs by 512
        hidden units), a size at which a BLAS dot product already splits its
        sum across two threads."""
        config = base_config(tmp_path)
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        for model in raw["models"].values():
            model["hidden_dim"] = 512
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "stancekit.cli", "train", "--config", str(config),
                 "--out", str(tmp_path / f"out{threads}")],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        one, two = hash_tree(tmp_path / "out1"), hash_tree(tmp_path / "out2")
        trained = [f for f in one if f.endswith((".model.bin", ".train.log"))]
        assert len(trained) == 6
        assert {f: one[f] for f in trained} == {f: two.get(f) for f in trained}


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
