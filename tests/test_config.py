"""Declarative experiment config: parsing, validation, seed overrides."""

import re
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from stancekit.cli import main
from stancekit.config import load_config
from stancekit.errors import ConfigError


def base_raw() -> dict:
    return {
        "data": {
            "train_stances": "data/train_stances.csv",
            "train_bodies": "data/train_bodies.csv",
            "test_stances": "data/test_stances.csv",
            "test_bodies": "data/test_bodies.csv",
        },
        "features": {"vocab_capacity": 50},
        "keywords": {
            "manual": {"selector": "manual", "terms": ["fake", "hoax"]},
            "auto": {"selector": "mi", "k": 5},
            "themed": {"selector": "micc", "themes": ["hoax"], "k": 3},
        },
        "pipelines": {
            "plain": {"blocks": ["baseline"]},
            "with_kw": {
                "blocks": ["baseline", {"kind": "indicator", "keywords": "manual"}]
            },
        },
        "models": {
            "base": {
                "pipeline": "plain",
                "hidden_dim": 8,
                "training": {
                    "epochs": 5,
                    "batch_size": 8,
                    "learning_rate": 0.05,
                    "dropout_keep": 1.0,
                    "l2_lambda": 0.0001,
                    "seed": 7,
                },
            },
            "kw": {
                "pipeline": "with_kw",
                "hidden_dim": 8,
                "training": {"seed": 8},
            },
        },
        "ensembles": {
            "duo": {"members": ["base", "kw"], "rule": "summation"},
        },
        "validation": {"fraction": 0.2, "seed": 13},
        "cv": {"folds": 3, "seed": 17},
        "output_dir": "out",
    }


def write_config(tmp_path: Path, raw: dict) -> Path:
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def load_raw(tmp_path: Path, raw: dict):
    return load_config(write_config(tmp_path, raw))


def set_entry(raw: dict, dotted: str, value) -> None:
    """Set raw's entry at a dotted config path such as models.base.hidden_dim."""
    *parents, key = dotted.split(".")
    for part in parents:
        raw = raw[part]
    raw[key] = value


# case -> (dotted entry, value set there, config path the message starts
# with, text the message contains)
CONFIG_ERRORS = {
    "string_kind": ("output_dir", 5, "config.output_dir", "expected a non-empty string"),
    "empty_string": ("models.base.pipeline", "", "models.base.pipeline",
                     "expected a non-empty string"),
    "integer_kind": ("models.base.hidden_dim", "8", "models.base.hidden_dim",
                     "expected an integer"),
    "float_is_not_an_integer": ("cv.seed", 1.5, "cv.seed", "expected an integer"),
    "number_kind": ("models.base.training.learning_rate", "fast",
                    "models.base.training.learning_rate", "expected a number"),
    "bool_is_not_a_number": ("validation.fraction", True, "validation.fraction",
                             "expected a number"),
    "bool_kind": ("features.tf_log1p", "yes", "features.tf_log1p", "expected true or false"),
    "string_list_entry_kind": ("keywords.manual.terms", ["fake", 3], "keywords.manual.terms",
                               "expected a list of non-empty strings"),
    "string_list_kind": ("ensembles.duo.members", "base", "ensembles.duo.members",
                         "expected a list of non-empty strings"),
    "vocab_capacity_minimum": ("features.vocab_capacity", 0, "features.vocab_capacity",
                               "must be >= 1"),
    "hidden_dim_minimum": ("models.base.hidden_dim", 0, "models.base.hidden_dim",
                           "must be >= 1"),
    "batch_size_minimum": ("models.base.training.batch_size", 0,
                           "models.base.training.batch_size", "must be >= 1"),
    "epochs_minimum": ("models.base.training.epochs", -1, "models.base.training.epochs",
                       "must be >= 0"),
    "k_minimum": ("keywords.auto.k", -1, "keywords.auto", "keywords.auto.k: must be >= 0"),
    "folds_minimum": ("cv.folds", 1, "cv.folds", "must be >= 2"),
    "unknown_section_key": ("data.extra", 1, "data", "unknown key(s) ['extra']"),
    "unknown_training_key": ("models.base.training.momentum", 0.9, "models.base.training",
                             "unknown key(s) ['momentum']"),
    "section_not_a_mapping": ("features", [1], "features", "expected a mapping"),
    "entry_not_a_mapping": ("models.base", "plain", "models.base", "expected a mapping"),
    "unknown_selector": ("keywords.auto.selector", "tfidf", "keywords.auto", "selector"),
    "unknown_block_kind": ("pipelines.plain.blocks", ["bogus"], "pipelines.plain.blocks[0]",
                           "unknown feature block kind 'bogus'"),
    "unknown_similarity_mode": ("pipelines.plain.blocks", [{"kind": "similarity",
                                                            "mode": "cosine"}],
                                "pipelines.plain.blocks[0]", "similarity block needs a mode"),
    "unknown_positive_stance": ("keywords.auto.positive", ["maybe"], "keywords.auto.positive",
                                "unknown stance 'maybe'"),
    "fraction_one": ("validation.fraction", 1.0, "validation.fraction", "must be in (0, 1)"),
    "fraction_zero": ("validation.fraction", 0, "validation.fraction", "must be in (0, 1)"),
    # validation_split holds out one of max(2, round(1 / fraction)) body folds
    "fraction_above_half": ("validation.fraction", 0.6, "validation.fraction",
                            "at most half the bodies"),
    "fraction_near_one": ("validation.fraction", 0.9, "validation.fraction",
                          "at most half the bodies"),
    # numpy's default_rng refuses a negative seed
    "training_seed_minimum": ("models.base.training.seed", -1, "models.base.training.seed",
                              "must be >= 0"),
    "empty_ensemble": ("ensembles.duo.members", [], "ensembles.duo.members",
                       "expected at least one model"),
    # a key its block kind, keyword selector or fusion rule does not read
    "baseline_keywords": ("pipelines.plain.blocks", [{"kind": "baseline", "keywords": "manual"}],
                          "pipelines.plain.blocks[0]", "baseline block takes no keywords"),
    "baseline_mode": ("pipelines.plain.blocks", [{"kind": "baseline", "mode": "centroid"}],
                      "pipelines.plain.blocks[0]", "baseline block takes no mode"),
    "indicator_mode": ("pipelines.with_kw.blocks",
                       ["baseline", {"kind": "indicator", "keywords": "manual",
                                     "mode": "centroid"}],
                       "pipelines.with_kw.blocks[1]", "indicator block takes no mode"),
    "similarity_keywords": ("pipelines.plain.blocks",
                            [{"kind": "similarity", "mode": "centroid", "keywords": "manual"}],
                            "pipelines.plain.blocks[0]", "similarity block takes no keywords"),
    "manual_k": ("keywords.manual.k", 3, "keywords.manual",
                 "unknown key(s) ['k']; allowed: ['selector', 'terms']"),
    "manual_themes": ("keywords.manual.themes", ["hoax"], "keywords.manual",
                      "unknown key(s) ['themes']; allowed: ['selector', 'terms']"),
    "manual_positive": ("keywords.manual.positive", ["agree"], "keywords.manual",
                        "unknown key(s) ['positive']; allowed: ['selector', 'terms']"),
    "mi_terms": ("keywords.auto.terms", ["fake"], "keywords.auto",
                 "unknown key(s) ['terms']; allowed: ['k', 'positive', 'selector']"),
    "mi_themes": ("keywords.auto.themes", ["hoax"], "keywords.auto",
                  "unknown key(s) ['themes']; allowed: ['k', 'positive', 'selector']"),
    "micc_terms": ("keywords.themed.terms", ["fake"], "keywords.themed",
                   "unknown key(s) ['terms']; allowed: ['k', 'selector', 'themes']"),
    "micc_positive": ("keywords.themed.positive", ["agree"], "keywords.themed",
                      "unknown key(s) ['positive']; allowed: ['k', 'selector', 'themes']"),
    "summation_combiner_seed": ("ensembles.duo.combiner_seed", 21, "ensembles.duo",
                                "unknown key(s) ['combiner_seed']; allowed: ['members', 'rule']"),
}


class TestHappyPath:
    def test_full_config(self, tmp_path):
        cfg = load_raw(tmp_path, base_raw())
        assert set(cfg.models) == {"base", "kw"}
        assert set(cfg.ensembles) == {"duo"}
        assert cfg.targets() == ("base", "kw", "duo")
        assert cfg.features.vocab_capacity == 50
        assert cfg.models["base"].training.seed == 7
        assert cfg.cv.folds == 3
        assert cfg.validation.fraction == 0.2

    def test_paths_relative_to_config_dir(self, tmp_path):
        cfg = load_raw(tmp_path, base_raw())
        assert cfg.data.train_stances == tmp_path / "data/train_stances.csv"
        assert cfg.output_dir == tmp_path / "out"

    def test_training_defaults_fill_in(self, tmp_path):
        cfg = load_raw(tmp_path, base_raw())
        training = cfg.models["kw"].training
        assert training.seed == 8
        assert training.epochs == 90  # library default
        assert training.dropout_keep == 0.6

    def test_optional_sections_absent(self, tmp_path):
        raw = base_raw()
        del raw["validation"], raw["cv"], raw["ensembles"]
        del raw["data"]["test_stances"], raw["data"]["test_bodies"]
        cfg = load_raw(tmp_path, raw)
        assert cfg.validation is None and cfg.cv is None
        assert cfg.ensembles == {}
        assert cfg.data.test_stances is None


class TestErrors:
    @pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
    def test_rejected_naming_the_entry(self, tmp_path, case):
        dotted, value, where, text = CONFIG_ERRORS[case]
        raw = base_raw()
        set_entry(raw, dotted, value)
        with pytest.raises(ConfigError) as caught:
            load_raw(tmp_path, raw)
        message = str(caught.value)
        assert message.startswith(where) and text in message
        result = CliRunner().invoke(main, ["train", "--config", str(tmp_path / "exp.yaml")])
        assert result.exit_code == 2
        assert f"config error: {message}" in result.stderr

    @pytest.mark.parametrize("name", [7, ""], ids=["integer", "empty"])
    @pytest.mark.parametrize("section", ["keywords", "pipelines", "models", "ensembles"])
    def test_entry_name_must_be_a_string(self, tmp_path, section, name):
        raw = base_raw()
        entries = raw[section]
        entries[name] = entries.pop(next(iter(entries)))
        with pytest.raises(ConfigError) as caught:
            load_raw(tmp_path, raw)
        message = str(caught.value)
        assert message.startswith(f"{section}.{name}: entry name {name!r}")
        result = CliRunner().invoke(main, ["train", "--config", str(tmp_path / "exp.yaml")])
        assert result.exit_code == 2
        assert f"config error: {message}" in result.stderr

    @pytest.mark.parametrize("line, bad", [
        ("seed: 17", "seed: 2001-13-01"),  # YAML reads a date, whose month is out of range
        ("folds: 3", "folds: !!int abc"),
        ("seed: 7", "seed: !!timestamp x"),
    ], ids=["date_out_of_range", "int_tag_on_text", "timestamp_tag_on_text"])
    def test_value_yaml_cannot_construct_exit_2(self, tmp_path, line, bad):
        path = write_config(tmp_path, base_raw())
        text = path.read_text(encoding="utf-8")
        assert text.count(line + "\n") == 1
        path.write_text(text.replace(line + "\n", bad + "\n"), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_config(path)
        result = CliRunner().invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"config error: {path}: " in result.stderr

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config file"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("models: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        raw = base_raw()
        raw["modles"] = raw.pop("models")
        with pytest.raises(ConfigError, match="modles"):
            load_raw(tmp_path, raw)

    def test_unknown_keys_of_mixed_types(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("data: {1: a, zz: b}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^data: unknown key\(s\) \[1, 'zz'\]"):
            load_config(path)

    def test_seed_required(self, tmp_path):
        raw = base_raw()
        del raw["models"]["kw"]["training"]["seed"]
        with pytest.raises(ConfigError, match="explicit"):
            load_raw(tmp_path, raw)

    def test_bool_is_not_an_int(self, tmp_path):
        raw = base_raw()
        raw["models"]["kw"]["training"]["seed"] = True
        with pytest.raises(ConfigError, match="integer"):
            load_raw(tmp_path, raw)

    @pytest.mark.parametrize("key,value,message", [
        ("learning_rate", float("nan"), "positive and finite"),
        ("learning_rate", float("inf"), "positive and finite"),
        ("l2_lambda", float("inf"), "non-negative and finite"),
        ("l2_lambda", float("nan"), "non-negative and finite"),
        ("dropout_keep", float("nan"), r"in \(0, 1\]"),
    ])
    def test_non_finite_training_value(self, tmp_path, key, value, message):
        raw = base_raw()
        raw["models"]["base"]["training"][key] = value
        with pytest.raises(ConfigError, match=rf"models\.base\.training: {key} must be {message}"):
            load_raw(tmp_path, raw)

    def test_test_files_come_together(self, tmp_path):
        raw = base_raw()
        del raw["data"]["test_bodies"]
        with pytest.raises(ConfigError, match="test"):
            load_raw(tmp_path, raw)

    def test_undefined_pipeline_reference(self, tmp_path):
        raw = base_raw()
        raw["models"]["base"]["pipeline"] = "ghost"
        with pytest.raises(ConfigError, match="ghost"):
            load_raw(tmp_path, raw)

    def test_undefined_keyword_reference(self, tmp_path):
        raw = base_raw()
        raw["pipelines"]["with_kw"]["blocks"][1]["keywords"] = "ghost"
        with pytest.raises(ConfigError, match="ghost"):
            load_raw(tmp_path, raw)

    def test_similarity_needs_embedding_section(self, tmp_path):
        raw = base_raw()
        raw["pipelines"]["plain"]["blocks"] = [
            "baseline", {"kind": "similarity", "mode": "centroid"}
        ]
        with pytest.raises(ConfigError, match="embedding"):
            load_raw(tmp_path, raw)

    def test_duplicate_keyword_terms(self, tmp_path):
        raw = base_raw()
        raw["keywords"]["manual"]["terms"] = ["fake", "fake"]
        with pytest.raises(ConfigError, match=r"keywords\.manual\.terms: .*distinct"):
            load_raw(tmp_path, raw)

    def test_duplicate_micc_themes(self, tmp_path):
        raw = base_raw()
        raw["keywords"]["themed"]["themes"] = ["hoax", "hoax"]
        with pytest.raises(ConfigError, match=r"keywords\.themed\.themes: .*distinct"):
            load_raw(tmp_path, raw)

    def test_ensemble_member_must_be_model(self, tmp_path):
        raw = base_raw()
        raw["ensembles"]["duo"]["members"] = ["base", "ghost"]
        with pytest.raises(ConfigError, match="ghost"):
            load_raw(tmp_path, raw)

    def test_ensemble_name_collision_with_model(self, tmp_path):
        raw = base_raw()
        raw["ensembles"]["base"] = raw["ensembles"].pop("duo")
        with pytest.raises(ConfigError, match="base"):
            load_raw(tmp_path, raw)

    def test_unknown_fusion_rule(self, tmp_path):
        raw = base_raw()
        raw["ensembles"]["duo"]["rule"] = "vote"
        with pytest.raises(ConfigError, match="rule"):
            load_raw(tmp_path, raw)

    def test_concatenation_needs_combiner_seed(self, tmp_path):
        raw = base_raw()
        raw["ensembles"]["duo"]["rule"] = "concatenation"
        with pytest.raises(ConfigError, match="combiner_seed"):
            load_raw(tmp_path, raw)

    def test_negative_combiner_seed(self, tmp_path):
        raw = base_raw()
        raw["ensembles"]["duo"].update(rule="concatenation", combiner_seed=-3)
        with pytest.raises(ConfigError, match=r"^ensembles\.duo\.combiner_seed: must be >= 0"):
            load_raw(tmp_path, raw)

    def test_half_can_be_held_out(self, tmp_path):
        raw = base_raw()
        raw["validation"]["fraction"] = 0.5
        assert load_raw(tmp_path, raw).validation.fraction == 0.5

    def test_concatenation_needs_validation_section(self, tmp_path):
        raw = base_raw()
        raw["ensembles"]["duo"]["rule"] = "concatenation"
        raw["ensembles"]["duo"]["combiner_seed"] = 3
        del raw["validation"]
        with pytest.raises(ConfigError, match="validation"):
            load_raw(tmp_path, raw)

    def test_cv_needs_two_folds(self, tmp_path):
        raw = base_raw()
        raw["cv"]["folds"] = 1
        with pytest.raises(ConfigError, match=">= 2"):
            load_raw(tmp_path, raw)

    def test_output_dir_required(self, tmp_path):
        raw = base_raw()
        del raw["output_dir"]
        with pytest.raises(ConfigError, match="output_dir"):
            load_raw(tmp_path, raw)

