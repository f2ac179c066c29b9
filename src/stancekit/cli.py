"""Command-line surface: train, evaluate, predict, keywords, cv, report.

One YAML config drives everything; flags only override paths, seeds, and
worker counts. Every command is deterministic: rerunning with the same
config and inputs writes byte-identical files (logs carry no timestamps,
floats are serialized with repr).
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

from .config import EnsembleConfig, ExperimentConfig, load_config, override_seeds
from .corpus import Corpus, Stance, load_corpus, plan_folds, validation_split
from .embeddings import EmbeddingTable, load_embeddings
from .ensemble import (
    CONCATENATION,
    EnsembleMember,
    EnsembleSpec,
    LinearCombiner,
    decisions,
    fit_concat_combiner,
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
    cross_validate,
    parse_delimited,
    render_delimited,
    render_heatmap_data,
    render_report,
    score_predictions,
)
from .keywords import corpus_documents, select_keywords_micc, write_keyword_set
from .mlp import MlpModel, load_model, save_model
from .mlp import train as train_mlp
from .pipeline import (
    FittedPipeline,
    SIMILARITY,
    body_vocabulary,
    ensemble_predictions,
    fit_keyword_set,
    fit_pipeline,
    load_pipeline,
    member_probabilities,
    member_stack,
    save_pipeline,
    stance_labels,
)
from .text import tokenize


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
        except (StancekitError, ValueError, RuntimeError) as exc:
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
            click.option("--jobs", type=int, default=None,
                         help="worker cap (default: available cores)"),
            click.option("--seed", type=int, default=None,
                         help="override every seed in the config"),
            click.option("--models", "models_csv", default=None,
                         help="comma-separated target names (default: all)"),
        )
    ):
        func = option(func)
    return func


def _load(config_path, out_dir, seed, jobs) -> ExperimentConfig:
    cfg = load_config(config_path)
    if seed is not None:
        cfg = override_seeds(cfg, seed)
    if out_dir is not None:
        cfg = replace(cfg, output_dir=Path(out_dir))
    if jobs is not None:
        if jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        cfg = replace(cfg, jobs=jobs)
    return cfg


def _jobs(cfg: ExperimentConfig) -> int:
    return cfg.jobs or os.cpu_count() or 1


def _out_dir(cfg: ExperimentConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def _select(cfg: ExperimentConfig, models_csv: str | None, pool: Sequence[str],
            what: str) -> list[str]:
    if models_csv is None:
        return list(pool)
    names = [n.strip() for n in models_csv.split(",") if n.strip()]
    if not names:
        raise ConfigError(f"--models selected no {what}")
    for name in names:
        if name not in pool:
            raise ConfigError(f"--models: no {what} named {name!r} in the config")
    return names


def _read_corpus(stances_path: Path, bodies_path: Path) -> Corpus:
    for p in (stances_path, bodies_path):
        if not Path(p).is_file():
            raise DataFormatError(f"no such data file: {p}")
    return load_corpus(stances_path, bodies_path)


def _test_corpus(cfg: ExperimentConfig, require_labels: bool) -> Corpus:
    if cfg.data.test_stances is None:
        raise ConfigError("config has no test data (data.test_stances/test_bodies)")
    corpus = _read_corpus(cfg.data.test_stances, cfg.data.test_bodies)
    labeled = all(i.stance is not None for i in corpus.instances)
    if require_labels and not labeled:
        raise DataFormatError(
            "test stances file has no labels; use the predict command for unlabeled input"
        )
    return corpus


def _pipelines_of(cfg: ExperimentConfig, targets: Sequence[str]) -> list[str]:
    """Pipeline ids needed by the given model/ensemble targets, in order."""
    ids: dict[str, None] = {}
    for name in targets:
        if name in cfg.models:
            ids.setdefault(cfg.models[name].pipeline)
        else:
            for member in cfg.ensembles[name].members:
                ids.setdefault(cfg.models[member].pipeline)
    return list(ids)


def _maybe_embeddings(
    cfg: ExperimentConfig, pipeline_ids: Sequence[str], corpora: Sequence[Corpus]
) -> EmbeddingTable | None:
    needed = any(
        block.kind == SIMILARITY
        for pid in pipeline_ids
        for block in cfg.pipelines[pid].blocks
    )
    if not needed:
        return None
    if cfg.embeddings is None:
        raise ConfigError("a similarity pipeline is selected but no embeddings section is configured")
    if not cfg.embeddings.path.is_file():
        raise DataFormatError(f"no such embedding file: {cfg.embeddings.path}")
    restrict = None
    if cfg.embeddings.restrict_to_corpus:
        restrict = set()
        for corpus in corpora:
            for instance in corpus.instances:
                restrict.update(tokenize(instance.headline))
            for text in corpus.bodies.values():
                restrict.update(tokenize(text))
    return load_embeddings(cfg.embeddings.path, restrict_to=restrict)


def _train_models(
    cfg: ExperimentConfig,
    names: Sequence[str],
    corpus: Corpus,
    embeddings: EmbeddingTable | None,
    epoch_logs: dict[str, list[str]] | None = None,
) -> tuple[dict[str, FittedPipeline], dict[str, MlpModel]]:
    """Fit each needed pipeline once, then train the named models on it."""
    fitted: dict[str, FittedPipeline] = {}
    models: dict[str, MlpModel] = {}
    for name in names:
        mc = cfg.models[name]
        if mc.pipeline not in fitted:
            fitted[mc.pipeline] = fit_pipeline(
                cfg.pipelines[mc.pipeline],
                corpus,
                keyword_specs=cfg.keyword_specs,
                embeddings=embeddings,
                vocab_capacity=cfg.features.vocab_capacity,
                tf_log1p=cfg.features.tf_log1p,
            )
        matrix = fitted[mc.pipeline].matrix(corpus)
        callback = None
        if epoch_logs is not None:
            lines = epoch_logs.setdefault(name, [])

            def callback(epoch: int, loss: float, _lines=lines, _name=name):
                _lines.append(f"model={_name} epoch={epoch} loss={loss!r}")

        try:
            models[name] = train_mlp(
                matrix,
                stance_labels(corpus),
                mc.training,
                hidden_dim=mc.hidden_dim,
                epoch_callback=callback,
            )
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(exc.epoch, f"model {name!r}: {exc}") from None
    return fitted, models


def _members(cfg: ExperimentConfig, ens: EnsembleConfig) -> tuple[EnsembleMember, ...]:
    return tuple(
        EnsembleMember(model=m, pipeline=cfg.models[m].pipeline) for m in ens.members
    )


def _ensemble_spec(
    cfg: ExperimentConfig, ens: EnsembleConfig, combiner: LinearCombiner | None
) -> EnsembleSpec:
    return EnsembleSpec(
        name=ens.name, members=_members(cfg, ens), rule=ens.rule, combiner=combiner
    )


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
def train(config_path, out_dir, jobs, seed, models_csv):
    """Fit feature pipelines and train the configured models."""
    cfg = _load(config_path, out_dir, seed, jobs)
    names = _select(cfg, models_csv, list(cfg.models), "model")
    corpus = _read_corpus(cfg.data.train_stances, cfg.data.train_bodies)
    if cfg.validation is not None:
        fit_part, val_part = validation_split(
            corpus, cfg.validation.fraction, cfg.validation.seed
        )
    else:
        fit_part, val_part = corpus, None
    embeddings = _maybe_embeddings(cfg, _pipelines_of(cfg, names), [corpus])
    out = _out_dir(cfg)

    epoch_logs: dict[str, list[str]] = {}
    fitted, models = _train_models(cfg, names, fit_part, embeddings, epoch_logs)
    for pid, pipeline in fitted.items():
        save_pipeline(pipeline, out, pid)
    for name in names:
        model = models[name]
        lines = epoch_logs.get(name, [])
        if val_part is not None:
            probs = member_probabilities(model, fitted[cfg.models[name].pipeline], val_part)
            pairs = list(zip((i.stance for i in val_part.instances), decisions(probs)))
            grade = score_predictions(pairs).relative_grade
            lines.append(f"model={name} validation_relative_grade={grade!r}")
        save_model(model, out / f"{name}.model.bin")
        (out / f"{name}.train.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
        click.echo(f"command=train model={name} file={name}.model.bin")

    for ens in cfg.ensembles.values():
        if ens.rule != CONCATENATION or not all(m in models for m in ens.members):
            continue
        stack = member_stack(_members(cfg, ens), models, fitted, val_part)
        labels = [i.stance for i in val_part.instances]
        combiner = fit_concat_combiner(stack, labels, seed=ens.combiner_seed)
        save_combiner(combiner, out / f"{ens.name}.combiner.json")
        for warning in combiner.fit_warnings:
            click.echo(f"command=train ensemble={ens.name} warning={warning!r}", err=True)
        click.echo(f"command=train ensemble={ens.name} file={ens.name}.combiner.json")


def _load_target_parts(
    cfg: ExperimentConfig, targets: Sequence[str], corpora: Sequence[Corpus]
) -> tuple[dict[str, FittedPipeline], dict[str, MlpModel]]:
    """Load saved pipelines and models for the given targets."""
    out = cfg.output_dir
    pipeline_ids = _pipelines_of(cfg, targets)
    embeddings = _maybe_embeddings(cfg, pipeline_ids, corpora)
    fitted = {pid: load_pipeline(out, pid, embeddings) for pid in pipeline_ids}
    model_names: dict[str, None] = {}
    for name in targets:
        if name in cfg.models:
            model_names.setdefault(name)
        else:
            for member in cfg.ensembles[name].members:
                model_names.setdefault(member)
    models = {}
    for name in model_names:
        path = out / f"{name}.model.bin"
        if not path.is_file():
            raise ConfigError(f"no trained model file for {name!r}; run the train command")
        models[name] = load_model(path)
    return fitted, models


def _predict_target(
    cfg: ExperimentConfig,
    target: str,
    fitted: Mapping[str, FittedPipeline],
    models: Mapping[str, MlpModel],
    corpus: Corpus,
) -> list[Stance]:
    if target in cfg.models:
        probs = member_probabilities(
            models[target], fitted[cfg.models[target].pipeline], corpus
        )
        return decisions(probs)
    ens = cfg.ensembles[target]
    combiner = None
    if ens.rule == CONCATENATION:
        path = cfg.output_dir / f"{target}.combiner.json"
        if not path.is_file():
            raise ConfigError(f"no fitted combiner for {target!r}; run the train command")
        combiner = load_combiner(path)
    spec = _ensemble_spec(cfg, ens, combiner)
    return ensemble_predictions(spec, models, fitted, corpus)[0]


@main.command()
@_common
@_handled
def evaluate(config_path, out_dir, jobs, seed, models_csv):
    """Score trained models and ensembles on the labeled test data."""
    cfg = _load(config_path, out_dir, seed, jobs)
    targets = _select(cfg, models_csv, cfg.targets(), "model or ensemble")
    corpus = _test_corpus(cfg, require_labels=True)
    fitted, models = _load_target_parts(cfg, targets, [corpus])
    out = _out_dir(cfg)
    truth = [i.stance for i in corpus.instances]
    for target in targets:
        decided = _predict_target(cfg, target, fitted, models, corpus)
        report = score_predictions(list(zip(truth, decided)))
        _write_score_files(out, target, report)
        click.echo(
            f"command=evaluate target={target} grade={report.grade!r} "
            f"relative_grade={report.relative_grade!r} f1_macro={report.f1_macro!r}"
        )


@main.command()
@_common
@_handled
def predict(config_path, out_dir, jobs, seed, models_csv):
    """Predict stances for the (possibly unlabeled) test data."""
    cfg = _load(config_path, out_dir, seed, jobs)
    targets = _select(cfg, models_csv, cfg.targets(), "model or ensemble")
    if len(targets) != 1:
        raise ConfigError("predict needs exactly one target; pass --models NAME")
    target = targets[0]
    corpus = _test_corpus(cfg, require_labels=False)
    fitted, models = _load_target_parts(cfg, [target], [corpus])
    out = _out_dir(cfg)
    decided = _predict_target(cfg, target, fitted, models, corpus)
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
def keywords(config_path, out_dir, jobs, seed, models_csv):
    """Select and write the configured keyword sets from the training data."""
    cfg = _load(config_path, out_dir, seed, jobs)
    names = _select(cfg, models_csv, list(cfg.keyword_specs), "keyword set")
    corpus = _read_corpus(cfg.data.train_stances, cfg.data.train_bodies)
    out = _out_dir(cfg)
    documents = corpus_documents(corpus)
    candidates = body_vocabulary(documents.values(), cfg.features.vocab_capacity).terms
    for name in names:
        spec = cfg.keyword_specs[name]
        if spec.selector == "micc":
            groups = select_keywords_micc(
                documents, spec.themes, candidates, spec.k, name_prefix=spec.name
            )
            for theme, group in groups.items():
                fname = f"{name}.{theme}.keywords.txt"
                write_keyword_set(group, out / fname)
                click.echo(
                    f"command=keywords set={name} theme={theme} file={fname} "
                    f"terms={len(group.terms)}"
                )
        else:
            ks = fit_keyword_set(spec, corpus, candidates, documents)
            fname = f"{name}.keywords.txt"
            write_keyword_set(ks, out / fname)
            click.echo(f"command=keywords set={name} file={fname} terms={len(ks.terms)}")


def _fold_runner(cfg: ExperimentConfig, target: str, embeddings):
    """Per-fold pipeline: refit everything on the fold's train side only."""

    def run_model(train_part: Corpus, test_part: Corpus, fold: int):
        fitted, models = _train_models(cfg, [target], train_part, embeddings)
        probs = member_probabilities(
            models[target], fitted[cfg.models[target].pipeline], test_part
        )
        decided = decisions(probs)
        return [(i.stance, d) for i, d in zip(test_part.instances, decided)]

    def run_ensemble(train_part: Corpus, test_part: Corpus, fold: int):
        ens = cfg.ensembles[target]
        if ens.rule == CONCATENATION:
            inner_train, inner_val = validation_split(
                train_part, cfg.validation.fraction, cfg.validation.seed
            )
        else:
            inner_train, inner_val = train_part, None
        fitted, models = _train_models(cfg, list(ens.members), inner_train, embeddings)
        combiner = None
        if inner_val is not None:
            stack = member_stack(_members(cfg, ens), models, fitted, inner_val)
            labels = [i.stance for i in inner_val.instances]
            combiner = fit_concat_combiner(stack, labels, seed=ens.combiner_seed)
        spec = _ensemble_spec(cfg, ens, combiner)
        decided, _ = ensemble_predictions(spec, models, fitted, test_part)
        return [(i.stance, d) for i, d in zip(test_part.instances, decided)]

    return run_model if target in cfg.models else run_ensemble


@main.command()
@_common
@_handled
def cv(config_path, out_dir, jobs, seed, models_csv):
    """K-fold cross-validation with per-fold refits of all fitted state."""
    cfg = _load(config_path, out_dir, seed, jobs)
    if cfg.cv is None:
        raise ConfigError("config has no cv section")
    targets = _select(cfg, models_csv, cfg.targets(), "model or ensemble")
    corpus = _read_corpus(cfg.data.train_stances, cfg.data.train_bodies)
    plan = plan_folds(corpus, cfg.cv.folds, cfg.cv.seed)
    embeddings = _maybe_embeddings(cfg, _pipelines_of(cfg, targets), [corpus])
    out = _out_dir(cfg)
    for target in targets:
        result = cross_validate(corpus, plan, _fold_runner(cfg, target, embeddings),
                                jobs=_jobs(cfg))
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
def report(config_path, out_dir, jobs, seed, models_csv):
    """Re-emit human reports and heat-map plot data from saved score files."""
    cfg = _load(config_path, out_dir, seed, jobs)
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
        parsed = parse_delimited(scores_path.read_text(encoding="utf-8"))
        (out / f"{target}.report.txt").write_text(render_report(parsed), encoding="utf-8")
        _write_heatmap(out, target, parsed)
        click.echo(f"command=report target={target} file={target}.report.txt")
        count += 1
    if count == 0:
        click.echo("command=report files=0 (no *.scores.txt under the output directory)")


if __name__ == "__main__":
    main()
