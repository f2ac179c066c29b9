"""Experiment configuration: one YAML file drives every CLI command.

Validation is strict and happens before any compute: unknown keys,
undefined references, and missing seeds are all rejected with the field
path in the message. Every random choice anywhere in a run traces back
to a seed written in the config (or to the --seed override).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .corpus import Stance
from .ensemble import RULES, SUMMATION
from .errors import ConfigError
from .mlp import TrainingConfig
from .pipeline import (
    BlockSpec,
    DEFAULT_VOCAB_CAPACITY,
    KeywordSpec,
    PipelineSpec,
    SELECTORS,
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


def _as_map(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise _fail(path, "expected a mapping")
    return node


def _no_extras(node: dict, allowed: tuple[str, ...], path: str) -> None:
    extras = sorted(set(node) - set(allowed))
    if extras:
        raise _fail(path, f"unknown key(s) {extras}; allowed: {sorted(allowed)}")


def _as_str(node: dict, key: str, path: str, required: bool = True) -> str | None:
    if key not in node or node[key] is None:
        if required:
            raise _fail(f"{path}.{key}", "required")
        return None
    value = node[key]
    if not isinstance(value, str) or not value:
        raise _fail(f"{path}.{key}", "expected a non-empty string")
    return value


def _as_int(
    node: dict,
    key: str,
    path: str,
    required: bool = True,
    default: int | None = None,
    minimum: int | None = None,
) -> int | None:
    if key not in node or node[key] is None:
        if required:
            raise _fail(f"{path}.{key}", "required (seeds and counts must be explicit)")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{path}.{key}", "expected an integer")
    if minimum is not None and value < minimum:
        raise _fail(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _as_float(node: dict, key: str, path: str, default: float) -> float:
    if key not in node or node[key] is None:
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}", "expected a number")
    return float(value)


def _as_bool(node: dict, key: str, path: str, default: bool) -> bool:
    if key not in node or node[key] is None:
        return default
    value = node[key]
    if not isinstance(value, bool):
        raise _fail(f"{path}.{key}", "expected true or false")
    return value


def _as_str_list(node: dict, key: str, path: str) -> tuple[str, ...]:
    value = node.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
        raise _fail(f"{path}.{key}", "expected a list of non-empty strings")
    return tuple(value)


def _parse_training(node: dict, path: str) -> TrainingConfig:
    _no_extras(
        node,
        ("learning_rate", "batch_size", "epochs", "dropout_keep", "l2_lambda", "seed"),
        path,
    )
    defaults = TrainingConfig(seed=0)
    try:
        return TrainingConfig(
            learning_rate=_as_float(node, "learning_rate", path, defaults.learning_rate),
            batch_size=_as_int(node, "batch_size", path, required=False,
                               default=defaults.batch_size, minimum=1),
            epochs=_as_int(node, "epochs", path, required=False,
                           default=defaults.epochs, minimum=0),
            dropout_keep=_as_float(node, "dropout_keep", path, defaults.dropout_keep),
            l2_lambda=_as_float(node, "l2_lambda", path, defaults.l2_lambda),
            seed=_as_int(node, "seed", path),
        )
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _parse_keyword_spec(name: str, node: dict, path: str) -> KeywordSpec:
    _no_extras(node, ("selector", "terms", "k", "themes", "positive"), path)
    selector = _as_str(node, "selector", path)
    if selector not in SELECTORS:
        raise _fail(f"{path}.selector", f"expected one of {list(SELECTORS)}")
    terms = _as_str_list(node, "terms", path) if "terms" in node else ()
    themes = _as_str_list(node, "themes", path) if "themes" in node else ()
    for key, values in (("terms", terms), ("themes", themes)):
        if len(set(values)) != len(values):
            raise _fail(f"{path}.{key}", "entries must be distinct")
    positive: tuple[Stance, ...] = (Stance.DISAGREE,)
    if "positive" in node:
        names = _as_str_list(node, "positive", path)
        try:
            positive = tuple(Stance.parse(n) for n in names)
        except ValueError as exc:
            raise _fail(f"{path}.positive", str(exc)) from None
    try:
        return KeywordSpec(
            name=name,
            selector=selector,
            terms=terms,
            k=_as_int(node, "k", path, required=False, default=20, minimum=0),
            themes=themes,
            positive=positive,
        )
    except ConfigError as exc:
        raise _fail(path, str(exc)) from None


def _parse_pipeline(name: str, node: dict, path: str) -> PipelineSpec:
    _no_extras(node, ("blocks",), path)
    raw_blocks = node.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise _fail(f"{path}.blocks", "expected a non-empty list of blocks")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        bpath = f"{path}.blocks[{i}]"
        if isinstance(raw, str):
            raw = {"kind": raw}
        raw = _as_map(raw, bpath)
        _no_extras(raw, ("kind", "keywords", "mode"), bpath)
        try:
            blocks.append(
                BlockSpec(
                    kind=_as_str(raw, "kind", bpath),
                    keywords=_as_str(raw, "keywords", bpath, required=False),
                    mode=_as_str(raw, "mode", bpath, required=False),
                )
            )
        except ConfigError as exc:
            raise _fail(bpath, str(exc)) from None
    try:
        return PipelineSpec(name=name, blocks=tuple(blocks))
    except ConfigError as exc:
        raise _fail(path, str(exc)) from None


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
    _no_extras(
        raw,
        ("data", "embeddings", "features", "keywords", "pipelines", "models",
         "ensembles", "validation", "cv", "output_dir"),
        "config",
    )

    def rel(p: str) -> Path:
        return base_dir / p

    data_node = _as_map(raw.get("data"), "data")
    _no_extras(data_node, ("train_stances", "train_bodies", "test_stances", "test_bodies"), "data")
    test_stances = _as_str(data_node, "test_stances", "data", required=False)
    test_bodies = _as_str(data_node, "test_bodies", "data", required=False)
    if (test_stances is None) != (test_bodies is None):
        raise _fail("data", "test_stances and test_bodies must be given together")
    data = DataConfig(
        train_stances=rel(_as_str(data_node, "train_stances", "data")),
        train_bodies=rel(_as_str(data_node, "train_bodies", "data")),
        test_stances=rel(test_stances) if test_stances else None,
        test_bodies=rel(test_bodies) if test_bodies else None,
    )

    embeddings = None
    if raw.get("embeddings") is not None:
        emb_node = _as_map(raw["embeddings"], "embeddings")
        _no_extras(emb_node, ("path", "restrict_to_corpus"), "embeddings")
        embeddings = EmbeddingConfig(
            path=rel(_as_str(emb_node, "path", "embeddings")),
            restrict_to_corpus=_as_bool(emb_node, "restrict_to_corpus", "embeddings", True),
        )

    feat_node = _as_map(raw.get("features"), "features")
    _no_extras(feat_node, ("vocab_capacity", "tf_log1p"), "features")
    features = FeatureConfig(
        vocab_capacity=_as_int(feat_node, "vocab_capacity", "features", required=False,
                               default=DEFAULT_VOCAB_CAPACITY, minimum=1),
        tf_log1p=_as_bool(feat_node, "tf_log1p", "features", False),
    )

    keyword_specs = {
        name: _parse_keyword_spec(name, _as_map(node, f"keywords.{name}"), f"keywords.{name}")
        for name, node in _as_map(raw.get("keywords"), "keywords").items()
    }

    pipelines = {
        name: _parse_pipeline(name, _as_map(node, f"pipelines.{name}"), f"pipelines.{name}")
        for name, node in _as_map(raw.get("pipelines"), "pipelines").items()
    }
    for name, spec in pipelines.items():
        for i, block in enumerate(spec.blocks):
            if block.kind == "indicator" and block.keywords not in keyword_specs:
                raise _fail(
                    f"pipelines.{name}.blocks[{i}].keywords",
                    f"undefined keyword set {block.keywords!r}",
                )
            if block.kind == "similarity" and embeddings is None:
                raise _fail(
                    f"pipelines.{name}.blocks[{i}]",
                    "similarity block requires an embeddings section",
                )

    models: dict[str, ModelConfig] = {}
    for name, node in _as_map(raw.get("models"), "models").items():
        path = f"models.{name}"
        node = _as_map(node, path)
        _no_extras(node, ("pipeline", "hidden_dim", "training"), path)
        pipeline = _as_str(node, "pipeline", path)
        if pipeline not in pipelines:
            raise _fail(f"{path}.pipeline", f"undefined pipeline {pipeline!r}")
        models[name] = ModelConfig(
            name=name,
            pipeline=pipeline,
            hidden_dim=_as_int(node, "hidden_dim", path, required=False,
                               default=100, minimum=1),
            training=_parse_training(_as_map(node.get("training"), f"{path}.training"),
                                     f"{path}.training"),
        )

    validation = None
    if raw.get("validation") is not None:
        node = _as_map(raw["validation"], "validation")
        _no_extras(node, ("fraction", "seed"), "validation")
        fraction = _as_float(node, "fraction", "validation", 0.1)
        if not 0.0 < fraction < 1.0:
            raise _fail("validation.fraction", "must be in (0, 1)")
        validation = ValidationConfig(fraction=fraction, seed=_as_int(node, "seed", "validation"))

    ensembles: dict[str, EnsembleConfig] = {}
    for name, node in _as_map(raw.get("ensembles"), "ensembles").items():
        path = f"ensembles.{name}"
        node = _as_map(node, path)
        _no_extras(node, ("members", "rule", "combiner_seed"), path)
        members = _as_str_list(node, "members", path)
        for member in members:
            if member not in models:
                raise _fail(f"{path}.members", f"undefined model {member!r}")
        if name in models:
            raise _fail(path, "ensemble name collides with a model name")
        rule = _as_str(node, "rule", path, required=False) or SUMMATION
        if rule not in RULES:
            raise _fail(f"{path}.rule", f"expected one of {list(RULES)}")
        combiner_seed = _as_int(node, "combiner_seed", path, required=False)
        if rule == "concatenation":
            if combiner_seed is None:
                raise _fail(f"{path}.combiner_seed", "required for the concatenation rule")
            if validation is None:
                raise _fail(path, "concatenation rule needs a validation section to fit on")
        ensembles[name] = EnsembleConfig(
            name=name, members=members, rule=rule, combiner_seed=combiner_seed
        )

    cv = None
    if raw.get("cv") is not None:
        node = _as_map(raw["cv"], "cv")
        _no_extras(node, ("folds", "seed"), "cv")
        cv = CvConfig(
            folds=_as_int(node, "folds", "cv", minimum=2),
            seed=_as_int(node, "seed", "cv"),
        )

    return ExperimentConfig(
        data=data,
        features=features,
        keyword_specs=keyword_specs,
        pipelines=pipelines,
        models=models,
        ensembles=ensembles,
        output_dir=rel(_as_str(raw, "output_dir", "config")),
        embeddings=embeddings,
        validation=validation,
        cv=cv,
    )


def override_seeds(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Replace every seed in the config with one explicit value (--seed)."""
    from dataclasses import replace

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
