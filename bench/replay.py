"""Traced replay of the CLI commands, plus per-layer probes.

Run as a script by run.py, one fresh process per command, exactly as the
CLI runs:

    replay.py setup CONFIG EMBED           set-up work only (timed from outside)
    replay.py train|evaluate|cv CONFIG OUT SPANS [--models M] [--jobs N]
    replay.py probe CONFIG SPANS SAMPLES   SAMPLES: pairs per similarity mode

train, evaluate and cv repeat what `python -m stancekit.cli <command>`
does, through the library's documented entry points only (LIBRARY_API),
and record a timed span around each call into a layer. They write the same
model, pipeline, combiner and score files as the CLI, which run.py compares
byte for byte. probe times single-block pipelines and single layers on the
workload's corpora. Spans are kept in memory and written as JSON at exit.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Every library name this file calls: stancekit.__all__, the README
#: "Library use" names, the module functions the CLI itself calls, and the
#: config's KeywordSpec type. A rename of any of them breaks the benchmark;
#: tests/test_smoke.py checks that they all resolve.
LIBRARY_API = (
    "stancekit.Corpus",
    "stancekit.STANCES",
    "stancekit.cross_validate",
    "stancekit.fit_pipeline",
    "stancekit.load_corpus",
    "stancekit.load_model",
    "stancekit.save_model",
    "stancekit.score_predictions",
    "stancekit.train",
    "stancekit.PipelineSpec",
    "stancekit.config.load_config",
    "stancekit.corpus.plan_folds",
    "stancekit.corpus.validation_split",
    "stancekit.embeddings.load_embeddings",
    "stancekit.ensemble.CONCATENATION",
    "stancekit.ensemble.EnsembleMember",
    "stancekit.ensemble.EnsembleSpec",
    "stancekit.ensemble.fit_concat_combiner",
    "stancekit.ensemble.load_combiner",
    "stancekit.ensemble.save_combiner",
    "stancekit.evaluation.render_delimited",
    "stancekit.mlp.predict_batch",
    "stancekit.pipeline.BlockSpec",
    "stancekit.pipeline.KeywordSpec",
    "stancekit.pipeline.ensemble_predictions",
    "stancekit.pipeline.load_pipeline",
    "stancekit.pipeline.member_probabilities",
    "stancekit.pipeline.save_pipeline",
    "stancekit.pipeline.stance_labels",
    "stancekit.text.tokenize",
)


class Tracer:
    """In-memory spans: name, start, end, parent span index, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.origin = time.perf_counter()
        self.replay_end: float | None = None

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def mark_replay_end(self) -> None:
        """Work after this mark is extra timing, not part of the CLI replay."""
        self.replay_end = self.now()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": self.now(), **attrs}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now()

    def dump(self, path: Path) -> None:
        end = self.now()
        extra_s = end - self.replay_end if self.replay_end is not None else 0.0
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts,
                                    "extra_s": extra_s}), encoding="utf-8")


def _decisions(probs):
    from stancekit import STANCES

    return [STANCES[int(i)] for i in probs.argmax(axis=1)]


def _embeddings(tr, cfg, pipeline_ids, corpora):
    """The CLI's embedding load: only for similarity pipelines, restricted
    to the tokens of the given corpora."""
    from stancekit.embeddings import load_embeddings

    if not any(b.kind == "similarity" for pid in pipeline_ids
               for b in cfg.pipelines[pid].blocks):
        return None
    restrict = None
    if cfg.embeddings.restrict_to_corpus:
        restrict = set().union(*(_tokens(c) for c in corpora))
    with tr.span("embeddings.load"):
        return load_embeddings(cfg.embeddings.path, restrict_to=restrict)


def _pipelines_of(cfg, targets):
    ids: dict[str, None] = {}
    for name in targets:
        members = [name] if name in cfg.models else cfg.ensembles[name].members
        for m in members:
            ids.setdefault(cfg.models[m].pipeline)
    return list(ids)


def _train_models(tr, cfg, names, corpus, embeddings):
    from stancekit import fit_pipeline, train
    from stancekit.pipeline import stance_labels

    fitted, models = {}, {}
    for name in names:
        mc = cfg.models[name]
        if mc.pipeline not in fitted:
            with tr.span("pipeline.fit", pipeline=mc.pipeline):
                fitted[mc.pipeline] = fit_pipeline(
                    cfg.pipelines[mc.pipeline], corpus,
                    keyword_specs=cfg.keyword_specs, embeddings=embeddings,
                    vocab_capacity=cfg.features.vocab_capacity,
                    tf_log1p=cfg.features.tf_log1p,
                )
        with tr.span("pipeline.matrix", pipeline=mc.pipeline, pairs=len(corpus)):
            matrix = fitted[mc.pipeline].matrix(corpus)
        epochs: list[float] = []
        with tr.span("mlp.train", model=name, rows=matrix.shape[0],
                     batch_size=mc.training.batch_size) as s:
            models[name] = train(matrix, stance_labels(corpus), mc.training,
                                 hidden_dim=mc.hidden_dim,
                                 epoch_callback=lambda e, l: epochs.append(tr.now()))
        s["epoch_ends"] = epochs
        s["input_dim"] = models[name].input_dim
    return fitted, models


def _member_stack(tr, cfg, ens, models, fitted, corpus):
    import numpy as np
    from stancekit.pipeline import member_probabilities

    rows = []
    for m in ens.members:
        with tr.span("pipeline.member_probabilities", model=m):
            rows.append(member_probabilities(models[m], fitted[cfg.models[m].pipeline],
                                             corpus))
    return np.stack(rows, axis=1)


def _ensemble_spec(cfg, ens, combiner):
    from stancekit.ensemble import EnsembleMember, EnsembleSpec

    members = tuple(EnsembleMember(model=m, pipeline=cfg.models[m].pipeline)
                    for m in ens.members)
    return EnsembleSpec(name=ens.name, members=members, rule=ens.rule, combiner=combiner)


def cmd_train(tr, cfg, out, models_csv, jobs):
    from stancekit import load_corpus, save_model, score_predictions
    from stancekit.corpus import validation_split
    from stancekit.ensemble import CONCATENATION, fit_concat_combiner, save_combiner
    from stancekit.pipeline import member_probabilities, save_pipeline

    names = models_csv.split(",") if models_csv else list(cfg.models)
    with tr.span("corpus.load"):
        corpus = load_corpus(cfg.data.train_stances, cfg.data.train_bodies)
    tr.counts.update(pairs=len(corpus), bodies=len(corpus.bodies))
    val_part = None
    fit_part = corpus
    if cfg.validation is not None:
        with tr.span("corpus.split"):
            fit_part, val_part = validation_split(corpus, cfg.validation.fraction,
                                                  cfg.validation.seed)
    embeddings = _embeddings(tr, cfg, _pipelines_of(cfg, names), [corpus])
    out.mkdir(parents=True, exist_ok=True)
    fitted, models = _train_models(tr, cfg, names, fit_part, embeddings)
    for pid, pipeline in fitted.items():
        save_pipeline(pipeline, out, pid)
    for name in names:
        if val_part is not None:
            with tr.span("pipeline.member_probabilities", model=name, part="validation"):
                probs = member_probabilities(models[name],
                                             fitted[cfg.models[name].pipeline], val_part)
            with tr.span("evaluation.score"):
                score_predictions(list(zip((i.stance for i in val_part.instances),
                                           _decisions(probs))))
        save_model(models[name], out / f"{name}.model.bin")
    for ens in cfg.ensembles.values():
        if ens.rule != CONCATENATION or not all(m in models for m in ens.members):
            continue
        stack = _member_stack(tr, cfg, ens, models, fitted, val_part)
        with tr.span("ensemble.combiner_fit"):
            combiner = fit_concat_combiner(stack, [i.stance for i in val_part.instances],
                                           seed=ens.combiner_seed)
        save_combiner(combiner, out / f"{ens.name}.combiner.json")


def cmd_evaluate(tr, cfg, out, models_csv, jobs):
    import numpy as np
    from stancekit import load_corpus, load_model, score_predictions
    from stancekit.ensemble import CONCATENATION, fit_concat_combiner, load_combiner
    from stancekit.evaluation import render_delimited
    from stancekit.mlp import predict_batch
    from stancekit.pipeline import ensemble_predictions, load_pipeline, member_probabilities

    targets = models_csv.split(",") if models_csv else list(cfg.targets())
    with tr.span("corpus.load"):
        corpus = load_corpus(cfg.data.test_stances, cfg.data.test_bodies)
    pipeline_ids = _pipelines_of(cfg, targets)
    embeddings = _embeddings(tr, cfg, pipeline_ids, [corpus])
    fitted = {pid: load_pipeline(out, pid, embeddings) for pid in pipeline_ids}
    names: dict[str, None] = {}
    for t in targets:
        for m in ([t] if t in cfg.models else cfg.ensembles[t].members):
            names.setdefault(m)
    models = {m: load_model(out / f"{m}.model.bin") for m in names}
    truth = [i.stance for i in corpus.instances]
    member_probs = {}
    for target in targets:
        if target in cfg.models:
            with tr.span("pipeline.member_probabilities", model=target):
                probs = member_probabilities(models[target],
                                             fitted[cfg.models[target].pipeline], corpus)
            member_probs[target] = probs
            decided = _decisions(probs)
        else:
            ens = cfg.ensembles[target]
            combiner = None
            if ens.rule == CONCATENATION:
                combiner = load_combiner(out / f"{target}.combiner.json")
            with tr.span("pipeline.ensemble_predictions", target=target,
                         members=list(ens.members)):
                decided = ensemble_predictions(_ensemble_spec(cfg, ens, combiner),
                                               models, fitted, corpus)[0]
        with tr.span("evaluation.score"):
            report = score_predictions(list(zip(truth, decided)))
        (out / f"{target}.scores.txt").write_text(render_delimited(report),
                                                  encoding="utf-8")
    tr.mark_replay_end()

    # layer timings the CLI does not isolate; not part of the replay above
    first = next(iter(models))
    matrix = fitted[cfg.models[first].pipeline].matrix(corpus).matrix
    for _ in range(3):
        with tr.span("mlp.predict", model=first, rows=matrix.shape[0]):
            predict_batch(models[first], matrix)
    if not any(s["name"] == "ensemble.combiner_fit" for s in tr.spans):
        ens = next(iter(cfg.ensembles.values()))
        stack = np.stack([member_probs[m] for m in ens.members], axis=1)
        with tr.span("ensemble.combiner_fit", derived_from="test corpus"):
            fit_concat_combiner(stack, truth, seed=21)


def cmd_cv(tr, cfg, out, models_csv, jobs):
    from stancekit import cross_validate, load_corpus
    from stancekit.corpus import plan_folds, validation_split
    from stancekit.ensemble import CONCATENATION, fit_concat_combiner
    from stancekit.evaluation import render_delimited
    from stancekit.pipeline import ensemble_predictions, member_probabilities

    targets = models_csv.split(",") if models_csv else list(cfg.targets())
    with tr.span("corpus.load"):
        corpus = load_corpus(cfg.data.train_stances, cfg.data.train_bodies)
    with tr.span("corpus.split"):
        plan = plan_folds(corpus, cfg.cv.folds, cfg.cv.seed)
        # cross_validate splits again internally; this pass only times it
        for fold in range(plan.k):
            plan.split(corpus, fold)
    embeddings = _embeddings(tr, cfg, _pipelines_of(cfg, targets), [corpus])
    out.mkdir(parents=True, exist_ok=True)
    for target in targets:
        def run_fold(train_part, test_part, fold, target=target):
            # spans from worker threads would interleave; time folds directly
            start = time.perf_counter()
            quiet = Tracer()
            if target in cfg.models:
                fitted, models = _train_models(quiet, cfg, [target], train_part, embeddings)
                probs = member_probabilities(models[target],
                                             fitted[cfg.models[target].pipeline], test_part)
                decided = _decisions(probs)
            else:
                ens = cfg.ensembles[target]
                inner_train, inner_val = train_part, None
                if ens.rule == CONCATENATION:
                    inner_train, inner_val = validation_split(
                        train_part, cfg.validation.fraction, cfg.validation.seed)
                fitted, models = _train_models(quiet, cfg, list(ens.members), inner_train,
                                               embeddings)
                combiner = None
                if inner_val is not None:
                    stack = _member_stack(quiet, cfg, ens, models, fitted, inner_val)
                    combiner = fit_concat_combiner(
                        stack, [i.stance for i in inner_val.instances],
                        seed=ens.combiner_seed)
                decided = ensemble_predictions(_ensemble_spec(cfg, ens, combiner),
                                               models, fitted, test_part)[0]
            fold_times.append((fold, time.perf_counter() - start))
            return [(i.stance, d) for i, d in zip(test_part.instances, decided)]

        fold_times: list[tuple[int, float]] = []
        with tr.span("evaluation.cross_validate", target=target, jobs=jobs) as s:
            result = cross_validate(corpus, plan, run_fold, jobs=jobs)
        s["fold_seconds"] = [t for _, t in sorted(fold_times)]
        for fold, report in enumerate(result.reports):
            (out / f"{target}.cv.fold{fold}.scores.txt").write_text(
                render_delimited(report), encoding="utf-8")
        lines = [f"target={target}", f"folds={cfg.cv.folds}"]
        for fold, report in enumerate(result.reports):
            lines.append(f"relative_grade_fold{fold}={report.relative_grade!r}")
        lines.append(f"relative_mean={result.relative_mean!r}")
        lines.append(f"relative_std={result.relative_std!r}")
        (out / f"{target}.cv.aggregate.txt").write_text("\n".join(lines) + "\n",
                                                       encoding="utf-8")


def _tokens(corpus) -> set[str]:
    from stancekit.text import tokenize

    terms: set[str] = set()
    for instance in corpus.instances:
        terms.update(tokenize(instance.headline))
    for text in corpus.bodies.values():
        terms.update(tokenize(text))
    return terms


def cmd_probe(tr, cfg, similarity_samples):
    """Single-layer timings on the workload's training and test corpora."""
    from stancekit import Corpus, PipelineSpec, fit_pipeline, load_corpus
    from stancekit.embeddings import load_embeddings
    from stancekit.pipeline import BlockSpec, KeywordSpec

    train_corpus = load_corpus(cfg.data.train_stances, cfg.data.train_bodies)
    test_corpus = load_corpus(cfg.data.test_stances, cfg.data.test_bodies)
    corpora = (train_corpus, test_corpus)

    # the generator writes vectors.txt next to the CSVs for every workload
    emb_path = Path(cfg.data.train_stances).parent / "vectors.txt"
    with open(emb_path, encoding="utf-8") as handle:
        parsed = int(handle.readline().split()[0])
    # timed as the train command loads it; the test-side table feeds the
    # similarity probes below
    with tr.span("embeddings.load", parsed=parsed) as s:
        s["kept"] = len(load_embeddings(emb_path, restrict_to=_tokens(train_corpus)))
    table = load_embeddings(emb_path, restrict_to=_tokens(test_corpus))

    def single(kind, **kw):
        return PipelineSpec(name=f"probe_{kind}", blocks=(BlockSpec(kind=kind, **kw),))

    with tr.span("text.fit"):
        baseline = fit_pipeline(single("baseline"), train_corpus,
                                vocab_capacity=cfg.features.vocab_capacity,
                                tf_log1p=cfg.features.tf_log1p)
    tr.counts["vocab_terms"] = (len(baseline.headline_vocab) + len(baseline.body_vocab)
                                + len(baseline.shared_vocab))
    for corpus in corpora:
        with tr.span("text.featurize", pairs=len(corpus)) as s:
            fm = baseline.matrix(corpus)
        s["nnz"] = int(fm.matrix.nnz)

    specs = dict(cfg.keyword_specs)
    defaults = {
        "manual": KeywordSpec(name="probe_manual", selector="manual",
                              terms=("fake", "fraud", "hoax", "false", "deny", "denies",
                                     "not", "despite", "nope", "doubt", "doubts",
                                     "bogus", "debunk", "pranks", "retract")),
        "mi": KeywordSpec(name="probe_mi", selector="mi", k=20),
        "micc": KeywordSpec(name="probe_micc", selector="micc",
                            themes=("hoax", "fraud", "scam"), k=20),
    }
    for selector, default in defaults.items():
        name = next((n for n, k in specs.items() if k.selector == selector), None)
        if name is None:
            name = default.name
            specs[name] = default
        spec = single("indicator", keywords=name)
        with tr.span(f"keywords.{selector}_select"):
            fitted = fit_pipeline(spec, train_corpus, keyword_specs=specs,
                                  vocab_capacity=cfg.features.vocab_capacity)
        if selector == "manual":
            for corpus in corpora:
                with tr.span("keywords.featurize", pairs=len(corpus)):
                    fitted.matrix(corpus)

    modes = ("centroid", "wmd-relaxed", "wmd-exact")
    for mode, n_sample in zip(modes, similarity_samples):
        fitted = fit_pipeline(single("similarity", mode=mode), test_corpus, embeddings=table)
        if mode == "centroid":
            with tr.span("embeddings.centroid_matrix", pairs=len(test_corpus)) as s:
                fm = fitted.matrix(test_corpus)
            s["zeros"] = len(test_corpus) - int(fm.matrix.nnz)
        instances = test_corpus.instances
        step = max(1, len(instances) // n_sample)
        for inst in instances[::step][:n_sample]:
            one = Corpus(instances=(inst,),
                         bodies={inst.body_id: test_corpus.bodies[inst.body_id]})
            with tr.span(f"embeddings.{mode}_pair"):
                fitted.matrix(one)


def main(argv: list[str]) -> int:
    from stancekit.config import load_config

    command = argv[0]
    if command == "setup":
        # the set-up every CLI command pays before any layer work
        import stancekit.cli  # noqa: F401
        from stancekit import load_corpus

        cfg = load_config(argv[1])
        corpus = load_corpus(cfg.data.train_stances, cfg.data.train_bodies)
        load_corpus(cfg.data.test_stances, cfg.data.test_bodies)
        if argv[2] == "1":
            _embeddings(Tracer(), cfg, list(cfg.pipelines), [corpus])
        return 0

    tr = Tracer()
    cfg = load_config(argv[1])
    if command == "probe":
        cmd_probe(tr, cfg, tuple(int(x) for x in argv[3].split(",")))
        tr.dump(Path(argv[2]))
        return 0
    out, spans_path = Path(argv[2]), Path(argv[3])
    opts = dict(zip(argv[4::2], argv[5::2]))
    jobs = int(opts.get("--jobs", "1"))
    handler = {"train": cmd_train, "evaluate": cmd_evaluate, "cv": cmd_cv}[command]
    handler(tr, cfg, out, opts.get("--models"), jobs)
    tr.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
