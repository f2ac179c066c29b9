"""Experiment configuration: one YAML file drives every CLI command.

Validation is strict and happens before any compute: unknown keys, keys
that an entry's block kind, keyword selector or fusion rule does not read,
undefined references and missing seeds are all rejected with the field path
in the message. Every random choice anywhere in a run traces back to a seed
written in the config (or to the --seed override).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .corpus import Stance
from .ensemble import CONCATENATION, RULES, SUMMATION
from .errors import ConfigError
from .mlp import TrainingConfig
from .pipeline import (
    BlockSpec,
    DEFAULT_VOCAB_CAPACITY,
    INDICATOR,
    KeywordSpec,
    PipelineSpec,
    SIMILARITY,
)


@dataclass(frozen=True)
class DataConfig:
    train_stances: Path
    train_bodies: Path
    test_stances: Path | None = None
    test_bodies: Path | None = None


@dataclass(frozen=True)
class EmbeddingConfig:
    path: Path
    restrict_to_corpus: bool = True


@dataclass(frozen=True)
class FeatureConfig:
    vocab_capacity: int = DEFAULT_VOCAB_CAPACITY
    tf_log1p: bool = False


@dataclass(frozen=True)
class ModelConfig:
    name: str
    pipeline: str
    training: TrainingConfig
    hidden_dim: int = 100


@dataclass(frozen=True)
class EnsembleConfig:
    name: str
    members: tuple[str, ...]  # model names, order significant
    rule: str = SUMMATION
    combiner_seed: int | None = None  # concatenation only


@dataclass(frozen=True)
class ValidationConfig:
    fraction: float
    seed: int


@dataclass(frozen=True)
class CvConfig:
    folds: int
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    features: FeatureConfig
    keyword_specs: dict[str, KeywordSpec]
    pipelines: dict[str, PipelineSpec]
    models: dict[str, ModelConfig]
    ensembles: dict[str, EnsembleConfig]
    output_dir: Path
    embeddings: EmbeddingConfig | None = None
    validation: ValidationConfig | None = None
    cv: CvConfig | None = None

    def targets(self) -> tuple[str, ...]:
        """All evaluable names: models first, then ensembles."""
        return tuple(self.models) + tuple(self.ensembles)


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _section(node, path: str, keys: tuple[str, ...] | None = None) -> dict:
    """node as a mapping (null is an empty one) whose keys all lie in keys;
    keys=None allows any, as for the named entries of models or pipelines."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise _fail(path, "expected a mapping")
    if keys is not None and not set(node) <= set(keys):
        extras = sorted(set(node) - set(keys), key=str)  # YAML keys need not be strings
        raise _fail(path, f"unknown key(s) {extras}; allowed: {sorted(keys)}")
    return node


def _entries(raw: dict, section: str, keys: tuple[str, ...] | None = None):
    """(name, path, node) of each named entry of a section such as models."""
    for name, node in _section(raw.get(section), section).items():
        path = f"{section}.{name}"
        if not _KINDS[str][0](name):  # YAML reads `7:` as an int, which --models cannot name
            raise _fail(path, f"entry name {name!r}: {_KINDS[str][1]}")
        yield name, path, _section(node, path, keys)


#: the default of a field that has none and must be given
_REQUIRED = object()

#: field kind -> (accepts a present value, message when it does not); a
#: value read as kind k is returned as k(value)
_KINDS = {
    str: (lambda v: isinstance(v, str) and v != "", "expected a non-empty string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "expected an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "expected a number"),
    bool: (lambda v: isinstance(v, bool), "expected true or false"),
    tuple: (lambda v: isinstance(v, list) and all(isinstance(s, str) and s for s in v),
            "expected a list of non-empty strings"),
}


def _field(node: dict, key: str, path: str, kind: type, default=_REQUIRED,
           minimum: int | None = None):
    """node[key] checked as kind. An absent key, or a null scalar, gives
    default, or fails when there is none (_REQUIRED); a null string list is
    the wrong kind."""
    where = f"{path}.{key}"
    if key not in node or (node[key] is None and kind is not tuple):
        if default is _REQUIRED:
            raise _fail(where, "required (seeds and counts must be explicit)"
                        if kind is int else "required")
        return default
    accepts, message = _KINDS[kind]
    if not accepts(node[key]):
        raise _fail(where, message)
    if minimum is not None and node[key] < minimum:
        raise _fail(where, f"must be >= {minimum}")
    return kind(node[key])


def _parse_training(node, path: str) -> TrainingConfig:
    node = _section(node, path, ("learning_rate", "batch_size", "epochs", "dropout_keep",
                                 "l2_lambda", "seed"))
    defaults = TrainingConfig(seed=0)
    try:
        return TrainingConfig(
            learning_rate=_field(node, "learning_rate", path, float, defaults.learning_rate),
            batch_size=_field(node, "batch_size", path, int, defaults.batch_size, minimum=1),
            epochs=_field(node, "epochs", path, int, defaults.epochs, minimum=0),
            dropout_keep=_field(node, "dropout_keep", path, float, defaults.dropout_keep),
            l2_lambda=_field(node, "l2_lambda", path, float, defaults.l2_lambda),
            seed=_field(node, "seed", path, int),
        )
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _parse_keyword_spec(name: str, node: dict, path: str) -> KeywordSpec:
    selector = _field(node, "selector", path, str)  # KeywordSpec refuses an unknown one
    _section(node, path, {"manual": ("selector", "terms"), "mi": ("selector", "k", "positive"),
                          "micc": ("selector", "themes", "k")}.get(selector))
    terms = _field(node, "terms", path, tuple, ())
    themes = _field(node, "themes", path, tuple, ())
    for key, values in (("terms", terms), ("themes", themes)):
        if len(set(values)) != len(values):
            raise _fail(f"{path}.{key}", "entries must be distinct")
    names = _field(node, "positive", path, tuple, ("disagree",))
    try:
        positive = tuple(map(Stance.parse, names))
    except ValueError as exc:
        raise _fail(f"{path}.positive", str(exc)) from None
    k = _field(node, "k", path, int, 20, minimum=0)
    try:
        return KeywordSpec(name=name, selector=selector, terms=terms, k=k, themes=themes,
                           positive=positive)
    except ConfigError as exc:
        raise _fail(path, str(exc)) from None


def _parse_block(raw, path: str, keyword_specs: dict[str, KeywordSpec],
                 has_embeddings: bool) -> BlockSpec:
    node = _section({"kind": raw} if isinstance(raw, str) else raw, path,
                    ("kind", "keywords", "mode"))
    kind = _field(node, "kind", path, str)
    keywords = _field(node, "keywords", path, str, None)
    mode = _field(node, "mode", path, str, None)
    try:
        block = BlockSpec(kind=kind, keywords=keywords, mode=mode)
    except ConfigError as exc:
        raise _fail(path, str(exc)) from None
    if kind == INDICATOR and keywords not in keyword_specs:
        raise _fail(f"{path}.keywords", f"undefined keyword set {keywords!r}")
    if kind == SIMILARITY and not has_embeddings:
        raise _fail(path, "similarity block requires an embeddings section")
    return block


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw, base_dir=path.parent)


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    raw = _section(raw, "config", ("data", "embeddings", "features", "keywords", "pipelines",
                                   "models", "ensembles", "validation", "cv", "output_dir"))

    def rel(p: str | None) -> Path | None:
        return None if p is None else base_dir / p

    node = _section(raw.get("data"), "data",
                    ("train_stances", "train_bodies", "test_stances", "test_bodies"))
    test_stances = _field(node, "test_stances", "data", str, None)
    test_bodies = _field(node, "test_bodies", "data", str, None)
    if (test_stances is None) != (test_bodies is None):
        raise _fail("data", "test_stances and test_bodies must be given together")
    data = DataConfig(
        train_stances=rel(_field(node, "train_stances", "data", str)),
        train_bodies=rel(_field(node, "train_bodies", "data", str)),
        test_stances=rel(test_stances),
        test_bodies=rel(test_bodies),
    )

    embeddings = None
    if raw.get("embeddings") is not None:
        node = _section(raw["embeddings"], "embeddings", ("path", "restrict_to_corpus"))
        embeddings = EmbeddingConfig(
            path=rel(_field(node, "path", "embeddings", str)),
            restrict_to_corpus=_field(node, "restrict_to_corpus", "embeddings", bool, True),
        )

    node = _section(raw.get("features"), "features", ("vocab_capacity", "tf_log1p"))
    features = FeatureConfig(
        vocab_capacity=_field(node, "vocab_capacity", "features", int, DEFAULT_VOCAB_CAPACITY,
                              minimum=1),
        tf_log1p=_field(node, "tf_log1p", "features", bool, False),
    )

    keyword_specs = {
        name: _parse_keyword_spec(name, node, path)
        for name, path, node in _entries(raw, "keywords")
    }

    pipelines: dict[str, PipelineSpec] = {}
    for name, path, node in _entries(raw, "pipelines", ("blocks",)):
        if not isinstance(node.get("blocks"), list):
            raise _fail(f"{path}.blocks", "expected a non-empty list of blocks")
        blocks = tuple(_parse_block(block, f"{path}.blocks[{i}]", keyword_specs,
                                    embeddings is not None)
                       for i, block in enumerate(node["blocks"]))
        try:
            pipelines[name] = PipelineSpec(name=name, blocks=blocks)
        except ConfigError as exc:
            raise _fail(path, str(exc)) from None

    models: dict[str, ModelConfig] = {}
    for name, path, node in _entries(raw, "models", ("pipeline", "hidden_dim", "training")):
        pipeline = _field(node, "pipeline", path, str)
        if pipeline not in pipelines:
            raise _fail(f"{path}.pipeline", f"undefined pipeline {pipeline!r}")
        models[name] = ModelConfig(
            name=name,
            pipeline=pipeline,
            hidden_dim=_field(node, "hidden_dim", path, int, 100, minimum=1),
            training=_parse_training(node.get("training"), f"{path}.training"),
        )

    validation = None
    if raw.get("validation") is not None:
        node = _section(raw["validation"], "validation", ("fraction", "seed"))
        fraction = _field(node, "fraction", "validation", float, 0.1)
        if not 0.0 < fraction < 1.0:
            raise _fail("validation.fraction", "must be in (0, 1)")
        validation = ValidationConfig(fraction=fraction,
                                      seed=_field(node, "seed", "validation", int))

    ensembles: dict[str, EnsembleConfig] = {}
    for name, path, node in _entries(raw, "ensembles"):
        rule = _field(node, "rule", path, str, SUMMATION)
        if rule not in RULES:
            raise _fail(f"{path}.rule", f"expected one of {list(RULES)}")
        concat = rule == CONCATENATION
        _section(node, path, ("members", "rule") + (("combiner_seed",) if concat else ()))
        members = _field(node, "members", path, tuple)
        if not members:
            raise _fail(f"{path}.members", "expected at least one model")
        for member in members:
            if member not in models:
                raise _fail(f"{path}.members", f"undefined model {member!r}")
        if name in models:
            raise _fail(path, "ensemble name collides with a model name")
        combiner_seed = _field(node, "combiner_seed", path, int, None)
        if concat:
            if combiner_seed is None:
                raise _fail(f"{path}.combiner_seed", "required for the concatenation rule")
            if validation is None:
                raise _fail(path, "concatenation rule needs a validation section to fit on")
        ensembles[name] = EnsembleConfig(
            name=name, members=members, rule=rule, combiner_seed=combiner_seed
        )

    cv = None
    if raw.get("cv") is not None:
        node = _section(raw["cv"], "cv", ("folds", "seed"))
        cv = CvConfig(folds=_field(node, "folds", "cv", int, minimum=2),
                      seed=_field(node, "seed", "cv", int))

    return ExperimentConfig(
        data=data,
        features=features,
        keyword_specs=keyword_specs,
        pipelines=pipelines,
        models=models,
        ensembles=ensembles,
        output_dir=rel(_field(raw, "output_dir", "config", str)),
        embeddings=embeddings,
        validation=validation,
        cv=cv,
    )


def override_seeds(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Replace every seed in the config with one explicit value (--seed)."""
    models = {
        name: replace(m, training=replace(m.training, seed=seed))
        for name, m in config.models.items()
    }
    ensembles = {
        name: replace(e, combiner_seed=seed if e.combiner_seed is not None else None)
        for name, e in config.ensembles.items()
    }
    return replace(
        config,
        models=models,
        ensembles=ensembles,
        validation=replace(config.validation, seed=seed) if config.validation else None,
        cv=replace(config.cv, seed=seed) if config.cv else None,
    )
