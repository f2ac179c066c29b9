"""Command-line surface: train, evaluate, predict, keywords, cv, report.

One YAML config drives everything; flags only override paths and seeds,
and cv's --jobs caps its parallel folds. Every command is deterministic:
rerunning with the same config and inputs writes byte-identical files
(logs carry no timestamps, floats are serialized with repr). train and
every cv fold run one training step, _train_models; evaluate, predict and
every cv fold decide through _predict_target.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import replace
from functools import wraps
from pathlib import Path
from typing import Mapping, Sequence

import click
import numpy as np

from .config import ExperimentConfig, load_config, override_seeds
from .corpus import Corpus, Stance, decisions, load_corpus, plan_folds, validation_split
from .embeddings import EmbeddingTable, load_embeddings
from .ensemble import (
    CONCATENATION,
    LinearCombiner,
    fit_concat_combiner,
    fuse,
    load_combiner,
    save_combiner,
)
from .errors import (
    ConfigError,
    DataFormatError,
    IntegrityError,
    StancekitError,
    TrainingDivergedError,
)
from .evaluation import (
    ScoreReport,
    cross_validate_targets,
    parse_delimited,
    render_delimited,
    render_heatmap_data,
    render_report,
    score_predictions,
)
from .keywords import select_keywords_micc, write_keyword_set
from .mlp import MlpModel, load_model, predict_batch, save_model
from .mlp import train as train_mlp
from .pipeline import (
    FittedPipeline,
    PipelineSpec,
    SIMILARITY,
    body_vocabulary,
    fit_keyword_set,
    fit_pipeline,
    load_pipeline,
    save_pipeline,
    selecting,
    stance_labels,
)


def _handled(func):
    """Map package errors onto the documented exit codes."""

    @wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except (DataFormatError, IntegrityError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
        except TrainingDivergedError as exc:
            click.echo(f"training error: {exc}", err=True)
            sys.exit(4)
        except StancekitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _common(func):
    for option in reversed(
        (
            click.option("--config", "config_path", required=True,
                         type=click.Path(), help="experiment config (YAML)"),
            click.option("--out", "out_dir", type=click.Path(), default=None,
                         help="override the configured output directory"),
            click.option("--seed", type=int, default=None,
                         help="override every seed in the config"),
            click.option("--models", "models_csv", default=None,
                         help="comma-separated target names (default: all)"),
        )
    ):
        func = option(func)
    return func


def _load(config_path, out_dir, seed) -> ExperimentConfig:
    cfg = load_config(config_path)
    if seed is not None:
        cfg = override_seeds(cfg, seed)
    if out_dir is not None:
        cfg = replace(cfg, output_dir=Path(out_dir))
    if cfg.output_dir.exists() and not cfg.output_dir.is_dir():
        raise ConfigError(f"output path {cfg.output_dir} is not a directory")
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def _select(cfg: ExperimentConfig, models_csv: str | None, pool: Sequence[str],
            what: str) -> list[str]:
    if models_csv is None:
        return list(pool)
    names = list(dict.fromkeys(n.strip() for n in models_csv.split(",") if n.strip()))
    if not names:
        raise ConfigError(f"--models selected no {what}")
    for name in names:
        if name not in pool:
            raise ConfigError(f"--models: no {what} named {name!r} in the config")
    return names


def _read_corpus(stances_path: Path, bodies_path: Path, require_labels: bool) -> Corpus:
    for p in (stances_path, bodies_path):
        if not Path(p).is_file():
            raise DataFormatError(f"no such data file: {p}")
    corpus = load_corpus(stances_path, bodies_path)
    if require_labels and any(i.stance is None for i in corpus.instances):
        raise DataFormatError(
            f"{stances_path} has no labels; use the predict command for unlabeled input"
        )
    if require_labels and not corpus.instances:
        raise DataFormatError(f"{stances_path} has no stance rows")
    return corpus


def _test_corpus(cfg: ExperimentConfig, require_labels: bool) -> Corpus:
    if cfg.data.test_stances is None:
        raise ConfigError("config has no test data (data.test_stances/test_bodies)")
    return _read_corpus(cfg.data.test_stances, cfg.data.test_bodies, require_labels)


def _members(cfg: ExperimentConfig, targets: Sequence[str]) -> list[str]:
    """Model names behind the given model/ensemble targets, in first-use order."""
    names: dict[str, None] = {}
    for target in targets:
        ens = cfg.ensembles.get(target)
        names.update(dict.fromkeys([target] if ens is None else ens.members))
    return list(names)


def _maybe_embeddings(
    cfg: ExperimentConfig, names: Sequence[str], corpus: Corpus
) -> EmbeddingTable | None:
    """The embedding table, when a pipeline of the named models needs one."""
    needed = any(
        block.kind == SIMILARITY
        for name in names
        for block in cfg.pipelines[cfg.models[name].pipeline].blocks
    )
    if not needed:
        return None
    if not cfg.embeddings.path.is_file():
        raise DataFormatError(f"no such embedding file: {cfg.embeddings.path}")
    restrict = None
    if cfg.embeddings.restrict_to_corpus:
        restrict = set().union(*corpus.headline_tokens.values(), *corpus.body_tokens.values())
    return load_embeddings(cfg.embeddings.path, restrict_to=restrict)


def _train_models(
    cfg: ExperimentConfig,
    names: Sequence[str],
    corpus: Corpus,
    embeddings: EmbeddingTable | None,
    validate: bool,
) -> tuple[FittedPipeline, dict[str, MlpModel], dict[str, list[float]], dict[str, float],
           dict[str, LinearCombiner]]:
    """The one training step. With validate, hold out the config's
    validation split of the corpus first. Fit the union of the named
    models' pipeline blocks once on the rest and build each block once,
    then train every model on its pipeline's blocks. Returns that one fit,
    the models, each model's epoch losses and, from one build of the
    held-out side's blocks, each model's validation relative grade and the
    combiner of every concatenation ensemble whose members all trained."""
    if validate:
        corpus, held_out = validation_split(corpus, cfg.validation.fraction, cfg.validation.seed)
    pids = list(dict.fromkeys(cfg.models[name].pipeline for name in names))
    union = tuple(dict.fromkeys(b for pid in pids for b in cfg.pipelines[pid].blocks))
    fit = fit_pipeline(
        PipelineSpec(name="+".join(pids), blocks=union),
        corpus,
        keyword_specs=cfg.keyword_specs,
        embeddings=embeddings,
        vocab_capacity=cfg.features.vocab_capacity,
        tf_log1p=cfg.features.tf_log1p,
    )
    blocks = fit.block_matrices(corpus)
    labels = stance_labels(corpus)
    models: dict[str, MlpModel] = {}
    losses: dict[str, list[float]] = {}
    for name in names:
        mc = cfg.models[name]
        features = replace(fit, spec=cfg.pipelines[mc.pipeline]).assemble(blocks)
        losses[name] = []
        try:
            models[name] = train_mlp(features, labels, mc.training, hidden_dim=mc.hidden_dim,
                                     epoch_callback=lambda _, loss: losses[name].append(loss))
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(exc.epoch, f"model {name!r}: {exc}") from None
    if not validate:
        return fit, models, losses, {}, {}
    probs = _probabilities(cfg, fit, models, held_out)
    truth, held_labels = [i.stance for i in held_out.instances], stance_labels(held_out)
    grades = {name: score_predictions(list(zip(truth, decisions(probs[name])))).relative_grade
              for name in names}
    combiners = {
        ens.name: fit_concat_combiner(np.stack([probs[m] for m in ens.members], axis=1),
                                      held_labels, seed=ens.combiner_seed)
        for ens in cfg.ensembles.values()
        if ens.rule == CONCATENATION and all(m in models for m in ens.members)
    }
    return fit, models, losses, grades, combiners


def _probabilities(cfg: ExperimentConfig, fit: FittedPipeline, models: Mapping[str, MlpModel],
                   corpus: Corpus) -> dict[str, np.ndarray]:
    """(n, 4) probabilities of each model on the corpus, from one build of
    fit's blocks, as the models were trained."""
    blocks = fit.block_matrices(corpus)
    probs = {}
    for name, model in models.items():
        pipeline = replace(fit, spec=cfg.pipelines[cfg.models[name].pipeline])
        probs[name] = predict_batch(model, pipeline.assemble(blocks))[1]
    return probs


def _write_score_files(out: Path, target: str, report: ScoreReport) -> None:
    (out / f"{target}.scores.txt").write_text(render_delimited(report), encoding="utf-8")
    (out / f"{target}.report.txt").write_text(render_report(report), encoding="utf-8")
    _write_heatmap(out, target, report)


_GNUPLOT_TEMPLATE = """\
# render with: gnuplot -p {name}.heatmap.gp
set title "stance confusion counts (rows=true, cols=predicted)"
set palette gray negative
set xrange [-0.5:3.5]
set yrange [3.5:-0.5]
set xtics ("agree" 0, "disagree" 1, "discuss" 2, "unrelated" 3)
set ytics ("agree" 0, "disagree" 1, "discuss" 2, "unrelated" 3)
plot "{name}.heatmap.dat" using 2:1:3 with image notitle
"""


def _write_heatmap(out: Path, target: str, report: ScoreReport) -> None:
    (out / f"{target}.heatmap.dat").write_text(
        render_heatmap_data(report.confusion), encoding="utf-8"
    )
    (out / f"{target}.heatmap.gp").write_text(
        _GNUPLOT_TEMPLATE.format(name=target), encoding="utf-8"
    )


@click.group()
def main():
    """Stance detection for headline/body pairs: bag-of-words MLP models,
    keyword and embedding-similarity features, weighted-metric evaluation."""


@main.command()
@_common
@_handled
def train(config_path, out_dir, seed, models_csv):
    """Fit feature pipelines and train the configured models."""
    cfg = _load(config_path, out_dir, seed)
    names = _select(cfg, models_csv, list(cfg.models), "model")
    corpus = _read_corpus(cfg.data.train_stances, cfg.data.train_bodies, require_labels=True)
    embeddings = _maybe_embeddings(cfg, names, corpus)
    fit, models, losses, grades, combiners = _train_models(
        cfg, names, corpus, embeddings, validate=cfg.validation is not None
    )
    out = _out_dir(cfg)
    for pid in dict.fromkeys(cfg.models[name].pipeline for name in names):
        save_pipeline(replace(fit, spec=cfg.pipelines[pid]), out, pid)
    for name in names:
        lines = [f"model={name} epoch={epoch} loss={loss!r}"
                 for epoch, loss in enumerate(losses[name], start=1)]
        if name in grades:
            lines.append(f"model={name} validation_relative_grade={grades[name]!r}")
        save_model(models[name], out / f"{name}.model.bin")
        (out / f"{name}.train.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
        click.echo(f"command=train model={name} file={name}.model.bin")

    for ens, combiner in combiners.items():
        save_combiner(combiner, out / f"{ens}.combiner.json")
        for warning in combiner.fit_warnings:
            click.echo(f"command=train ensemble={ens} warning={warning!r}", err=True)
        click.echo(f"command=train ensemble={ens} file={ens}.combiner.json")


def _saved_combiner(cfg: ExperimentConfig, target: str) -> LinearCombiner | None:
    """The combiner train wrote for a concatenation ensemble, else None."""
    if target in cfg.models or cfg.ensembles[target].rule != CONCATENATION:
        return None
    path = cfg.output_dir / f"{target}.combiner.json"
    if not path.is_file():
        raise ConfigError(f"no fitted combiner for {target!r}; run the train command")
    combiner = load_combiner(path)
    if combiner.n_inputs != 4 * len(cfg.ensembles[target].members):
        raise DataFormatError(f"{path}: combiner does not fit the members of {target!r}")
    return combiner


def _predict_target(
    cfg: ExperimentConfig,
    target: str,
    probs: Mapping[str, np.ndarray],
    combiner: LinearCombiner | None,
) -> list[Stance]:
    """Decisions of a model, or of an ensemble fusing its members' probs."""
    if target in cfg.models:
        return decisions(probs[target])
    ens = cfg.ensembles[target]
    stack = np.stack([probs[m] for m in ens.members], axis=1)
    return decisions(fuse(stack, ens.rule, combiner))


def _saved_decisions(cfg: ExperimentConfig, targets: Sequence[str],
                     corpus: Corpus) -> dict[str, list[Stance]]:
    """Each target's decisions on the corpus from the saved artifacts, all
    loaded and checked first; each saved pipeline featurizes it once."""
    out = cfg.output_dir
    names = _members(cfg, targets)
    embeddings = _maybe_embeddings(cfg, names, corpus)
    fits = {pid: load_pipeline(out, pid, embeddings)
            for pid in dict.fromkeys(cfg.models[name].pipeline for name in names)}
    for pid, fit in fits.items():
        if fit.spec != cfg.pipelines[pid]:
            raise ConfigError(f"saved pipeline {pid!r} differs from the config's; run train")
    models: dict[str, dict[str, MlpModel]] = {pid: {} for pid in fits}
    for name in names:
        path, pid = out / f"{name}.model.bin", cfg.models[name].pipeline
        if not path.is_file():
            raise ConfigError(f"no trained model file for {name!r}; run the train command")
        models[pid][name] = load_model(path)
        if models[pid][name].feature_layout != fits[pid].layout:
            raise DataFormatError(f"{path}: feature layout does not match pipeline {pid!r}")
    combiners = {target: _saved_combiner(cfg, target) for target in targets}
    probs = {}
    for pid, fit in fits.items():
        probs.update(_probabilities(cfg, fit, models[pid], corpus))
    return {t: _predict_target(cfg, t, probs, combiners[t]) for t in targets}


@main.command()
@_common
@_handled
def evaluate(config_path, out_dir, seed, models_csv):
    """Score trained models and ensembles on the labeled test data."""
    cfg = _load(config_path, out_dir, seed)
    targets = _select(cfg, models_csv, cfg.targets(), "model or ensemble")
    corpus = _test_corpus(cfg, require_labels=True)
    decided = _saved_decisions(cfg, targets, corpus)
    out = _out_dir(cfg)
    truth = [i.stance for i in corpus.instances]
    for target in targets:
        report = score_predictions(list(zip(truth, decided[target])))
        _write_score_files(out, target, report)
        click.echo(
            f"command=evaluate target={target} grade={report.grade!r} "
            f"relative_grade={report.relative_grade!r} f1_macro={report.f1_macro!r}"
        )


@main.command()
@_common
@_handled
def predict(config_path, out_dir, seed, models_csv):
    """Predict stances for the (possibly unlabeled) test data."""
    cfg = _load(config_path, out_dir, seed)
    targets = _select(cfg, models_csv, cfg.targets(), "model or ensemble")
    if len(targets) != 1:
        raise ConfigError("predict needs exactly one target; pass --models NAME")
    target = targets[0]
    corpus = _test_corpus(cfg, require_labels=False)
    decided = _saved_decisions(cfg, [target], corpus)[target]
    out = _out_dir(cfg)
    path = out / f"{target}.predictions.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["Headline", "Body ID", "Stance"])
        for instance, stance in zip(corpus.instances, decided):
            writer.writerow([instance.headline, instance.body_id, stance.value])
    click.echo(f"command=predict target={target} file={path.name} rows={len(decided)}")


@main.command()
@_common
@_handled
def keywords(config_path, out_dir, seed, models_csv):
    """Select and write the configured keyword sets from the training data."""
    cfg = _load(config_path, out_dir, seed)
    names = _select(cfg, models_csv, list(cfg.keyword_specs), "keyword set")
    # mi selection ranks terms against stance classes, so it needs labels
    needs_labels = any(cfg.keyword_specs[n].selector == "mi" for n in names)
    corpus = _read_corpus(cfg.data.train_stances, cfg.data.train_bodies, needs_labels)
    out = _out_dir(cfg)
    candidates = body_vocabulary(corpus.body_tokens.values(), cfg.features.vocab_capacity).terms
    for name in names:
        spec = cfg.keyword_specs[name]
        if spec.selector == "micc":
            with selecting(spec):
                groups = select_keywords_micc(
                    corpus.body_tokens, spec.themes, candidates, spec.k, name_prefix=spec.name
                )
            for theme, group in groups.items():
                fname = f"{name}.{theme}.keywords.txt"
                write_keyword_set(group, out / fname)
                click.echo(
                    f"command=keywords set={name} theme={theme} file={fname} "
                    f"terms={len(group.terms)}"
                )
        else:
            ks = fit_keyword_set(spec, corpus, candidates)
            fname = f"{name}.keywords.txt"
            write_keyword_set(ks, out / fname)
            click.echo(f"command=keywords set={name} file={fname} terms={len(ks.terms)}")


def _fold_runner(cfg: ExperimentConfig, targets: Sequence[str], embeddings):
    """Per-fold pipeline: run train's training step on the fold's train
    side only, then decide every target on the test side as evaluate does.
    The step runs once per target group: without a validation split for
    models and summation ensembles, with it for concatenation ensembles,
    whose combiners fit on its held-out side."""
    concat = [t for t in targets if t in cfg.ensembles and cfg.ensembles[t].rule == CONCATENATION]
    plain = [t for t in targets if t not in concat]

    def run(train_part: Corpus, test_part: Corpus, fold: int):
        decided = {}
        for group, validate in ((plain, False), (concat, True)):
            if not group:
                continue
            fit, models, _, _, combiners = _train_models(cfg, _members(cfg, group), train_part,
                                                         embeddings, validate)
            probs = _probabilities(cfg, fit, models, test_part)
            decided.update({t: _predict_target(cfg, t, probs, combiners.get(t)) for t in group})
        truth = [i.stance for i in test_part.instances]
        return {t: list(zip(truth, decided[t])) for t in targets}

    return run


@main.command()
@_common
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="parallel folds (default: available cores)")
@_handled
def cv(config_path, out_dir, seed, models_csv, jobs):
    """K-fold cross-validation with per-fold refits of all fitted state."""
    cfg = _load(config_path, out_dir, seed)
    if cfg.cv is None:
        raise ConfigError("config has no cv section")
    targets = _select(cfg, models_csv, cfg.targets(), "model or ensemble")
    corpus = _read_corpus(cfg.data.train_stances, cfg.data.train_bodies, require_labels=True)
    plan = plan_folds(corpus, cfg.cv.folds, cfg.cv.seed)
    embeddings = _maybe_embeddings(cfg, _members(cfg, targets), corpus)
    out = _out_dir(cfg)
    results = cross_validate_targets(corpus, plan, _fold_runner(cfg, targets, embeddings),
                                     jobs=jobs or os.cpu_count() or 1)
    for target, result in results.items():
        for fold, report in enumerate(result.reports):
            (out / f"{target}.cv.fold{fold}.scores.txt").write_text(
                render_delimited(report), encoding="utf-8"
            )
        lines = [f"target={target}", f"folds={cfg.cv.folds}"]
        for fold, report in enumerate(result.reports):
            lines.append(f"relative_grade_fold{fold}={report.relative_grade!r}")
        lines.append(f"relative_mean={result.relative_mean!r}")
        lines.append(f"relative_std={result.relative_std!r}")
        (out / f"{target}.cv.aggregate.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        click.echo(
            f"command=cv target={target} folds={cfg.cv.folds} "
            f"relative_mean={result.relative_mean!r} relative_std={result.relative_std!r}"
        )


@main.command()
@_common
@_handled
def report(config_path, out_dir, seed, models_csv):
    """Re-emit human reports and heat-map plot data from saved score files."""
    cfg = _load(config_path, out_dir, seed)
    out = _out_dir(cfg)
    wanted = None
    if models_csv is not None:
        wanted = set(_select(cfg, models_csv, cfg.targets(), "model or ensemble"))
    count = 0
    for scores_path in sorted(out.glob("*.scores.txt")):
        target = scores_path.name[: -len(".scores.txt")]
        base = target.split(".cv.fold")[0]
        if wanted is not None and base not in wanted:
            continue
        try:
            parsed = parse_delimited(scores_path.read_text(encoding="utf-8"))
        except DataFormatError as exc:
            raise DataFormatError(f"{scores_path}: {exc}") from None
        (out / f"{target}.report.txt").write_text(render_report(parsed), encoding="utf-8")
        _write_heatmap(out, target, parsed)
        click.echo(f"command=report target={target} file={target}.report.txt")
        count += 1
    if count == 0:
        click.echo("command=report files=0 (no *.scores.txt under the output directory)")


if __name__ == "__main__":
    main()
