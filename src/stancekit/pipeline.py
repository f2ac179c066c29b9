"""Named feature pipelines: fit on a training corpus, then featurize.

A pipeline is an ordered list of feature blocks: baseline TF + TF-IDF cosine,
indicator bits of a keyword set, embedding similarity of a mode (which needs
an embedding table). Fitting derives every data-dependent part (vocabularies,
IDF weights, keyword selections) from the training corpus alone, so
cross-validation folds rebuilt through fit_pipeline stay leakage-free.

Fits and blocks read the corpus's count matrices (Corpus.headline_counts,
Corpus.body_counts): a vocabulary ranks column sums weighted by the
corpus's own rows, IDF counts column entries the same way, TF and keyword
bits are column selections of its rows, and similarity blocks embed the
same gathered rows. Each block owns its columns and keeps a block's
headline and body columns as one row per distinct document, which no
instance copies; the model projects such a row once (see mlp.FeatureMatrix).
Only the pair columns have a row per instance: the TF-IDF cosine, and the
embedding similarities, all scored by one embeddings.similarities() call
that takes each distinct headline/body pair once. assemble() lays a
pipeline's blocks side by side. Column names come from the spec alone (an
indicator block's are kw_<the config's keyword-set name>, never a saved
file's header), so the distinct blocks of a PipelineSpec always have
distinct names.
Pipelines trained on one corpus can thus share one fit of the union of their
blocks and one set of block matrices: each is then dataclasses.replace(
shared, spec=...), and featurizes and saves exactly as a fit of its own spec.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, Stance, decisions, stance_indices
from .embeddings import EmbeddingTable, SIMILARITY_MODES, similarities
from .ensemble import EnsembleSpec, fuse
from .errors import ConfigError, DataFormatError, read_envelope, reading
from .keywords import (
    KeywordSet,
    read_keyword_set,
    select_keywords_mi,
    select_keywords_micc,
    stance_positive_bodies,
    write_keyword_set,
)
from .mlp import FeatureMatrix, MlpModel, predict_batch
from .stopwords import ENGLISH_STOPWORDS
from .text import (
    BlockSlice,
    Csr,
    IdfTable,
    TermCounts,
    Vocabulary,
    build_idf,
    build_vocabulary,
    column_sums,
    count_matrix,
    dump_idf,
    dump_vocabulary,
    load_idf,
    load_vocabulary,
    empty_csr,
    entry_rows,
    presence,
    tfidf_cosines,
)

BASELINE = "baseline"
INDICATOR = "indicator"
SIMILARITY = "similarity"
BLOCK_KINDS = (BASELINE, INDICATOR, SIMILARITY)

SELECTORS = ("manual", "mi", "micc")

#: TF vocabulary capacity of the baseline blocks.
DEFAULT_VOCAB_CAPACITY = 5000


@dataclass(frozen=True)
class KeywordSpec:
    """How to obtain one keyword set when fitting a pipeline."""

    name: str
    selector: str
    terms: tuple[str, ...] = ()  # manual only
    k: int = 20  # mi / micc
    themes: tuple[str, ...] = ()  # micc only
    positive: tuple[Stance, ...] = (Stance.DISAGREE,)  # mi only

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ConfigError(f"keyword set {self.name!r}: unknown selector {self.selector!r}")
        if self.selector == "manual" and not self.terms:
            raise ConfigError(f"keyword set {self.name!r}: manual selector needs terms")
        if self.selector == "micc" and not self.themes:
            raise ConfigError(f"keyword set {self.name!r}: micc selector needs themes")
        if self.selector != "manual" and self.k < 0:
            raise ConfigError(f"keyword set {self.name!r}: k must be >= 0")


@dataclass(frozen=True)
class BlockSpec:
    """One feature block of a pipeline."""

    kind: str
    keywords: str | None = None  # indicator only: name of a KeywordSpec
    mode: str | None = None  # similarity only: centroid | wmd-exact | wmd-relaxed

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ConfigError(f"unknown feature block kind {self.kind!r}")
        if self.kind == INDICATOR and not self.keywords:
            raise ConfigError("indicator block needs a keyword-set name")
        if self.kind == SIMILARITY and self.mode not in SIMILARITY_MODES:
            raise ConfigError(f"similarity block needs a mode from {SIMILARITY_MODES}")
        for key, owner in (("keywords", INDICATOR), ("mode", SIMILARITY)):
            if getattr(self, key) is not None and self.kind != owner:
                raise ConfigError(f"{self.kind} block takes no {key}; only {owner} blocks do")


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError(f"pipeline {self.name!r} has no feature blocks")
        if len(set(self.blocks)) != len(self.blocks):
            raise ConfigError(f"pipeline {self.name!r} repeats a feature block")


def body_vocabulary(corpus: Corpus, capacity: int) -> Vocabulary:
    """TF vocabulary of the body side, also the keyword candidate terms."""
    totals = column_sums(corpus.body_counts.matrix, corpus.body_weights)
    return build_vocabulary(corpus.body_counts.terms, totals, capacity, ENGLISH_STOPWORDS)


def body_documents(corpus: Corpus) -> TermCounts:
    """The counts of the corpus's bodies, in bodies order: the documents
    keyword selection reads, one per article body (headlines excluded)."""
    return corpus.body_counts.rows(corpus.body_rows(corpus.bodies))


@contextmanager
def selecting(spec: KeywordSpec):
    """Raise a selector's failure on the training data (say, no document in
    a class) as a ConfigError naming the keyword set."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"keyword set {spec.name!r} ({spec.selector} selector): {exc}") from None


def fit_keyword_set(spec: KeywordSpec, corpus: Corpus, candidates: Sequence[str]) -> KeywordSet:
    """Select one keyword set from the corpus's body_documents."""
    if spec.selector == "manual":
        return KeywordSet(
            name=spec.name, terms=spec.terms, provenance="manual", params=()
        )
    with selecting(spec):
        if spec.selector == "mi":
            positive = stance_positive_bodies(corpus, spec.positive)
            rows = np.array([b in positive for b in corpus.bodies], dtype=bool)
            ks = select_keywords_mi(body_documents(corpus), rows, candidates, spec.k)
            classes = "+".join(s.value for s in spec.positive)
            params = (("positive", classes), ("k", str(spec.k)))
            return KeywordSet(name=spec.name, terms=ks.terms, provenance="mi", params=params)
        groups = select_keywords_micc(
            body_documents(corpus), spec.themes, candidates, spec.k, name_prefix=spec.name
        )
    # theme groups flatten to one ordered, deduplicated indicator list
    terms = dict.fromkeys(t for theme in spec.themes for t in groups[theme].terms)
    params = (("themes", "+".join(spec.themes)), ("k", str(spec.k)))
    return KeywordSet(name=spec.name, terms=tuple(terms), provenance="micc", params=params)


@dataclass
class FittedPipeline:
    """A pipeline after fitting; read-only once constructed. Its fitted state
    may cover more blocks than spec (a shared fit); featurizing and saving
    read only what spec uses. Constructing one, by a fit, a load or a
    dataclasses.replace, refuses a similarity block without an embedding table."""

    spec: PipelineSpec
    headline_vocab: Vocabulary | None
    body_vocab: Vocabulary | None
    idf: IdfTable | None
    keyword_sets: dict[str, KeywordSet]
    embeddings: EmbeddingTable | None
    tf_log1p: bool = False

    def __post_init__(self):
        columns: list[tuple[str, int]] = []  # (name, length) of each column group
        for block in self.spec.blocks:
            if block.kind == BASELINE:
                columns += [("tf_headline", len(self.headline_vocab)),
                            ("tf_body", len(self.body_vocab)), ("tfidf_cos", 1)]
            elif block.kind == INDICATOR:
                columns.append((f"kw_{block.keywords}",
                                2 * len(self.keyword_sets[block.keywords].terms)))
            elif self.embeddings is None:
                raise ConfigError(f"pipeline {self.spec.name!r} has a similarity block but no "
                                  "embedding table")
            else:
                columns.append(("emb_" + block.mode.replace("-", "_"), 1))
        starts = accumulate((length for _, length in columns), initial=0)
        self.layout = tuple(BlockSlice(n, s, length) for (n, length), s in zip(columns, starts))

    @property
    def shared_vocab(self) -> Vocabulary | None:
        """The vocabulary of the TF-IDF cosine: the IDF table's."""
        return None if self.idf is None else self.idf.vocab

    def block_matrices(self, corpus: Corpus) -> dict[BlockSpec, FeatureMatrix]:
        """Each spec block's columns, numbered from 0 inside the block, over
        the corpus instances in order. The document rows are the distinct
        headlines, then the distinct bodies, each in first-use order.
        baseline has headline TF and body TF on them and the TF-IDF cosine
        as its pair column; indicator has keyword i's headline bit at 2i
        and its body bit at 2i + 1 on them; similarity is one pair column."""
        used_heads: dict[str, int] = {}
        used: dict[int, int] = {}
        head_row = np.array([used_heads.setdefault(i.headline, len(used_heads))
                             for i in corpus.instances], dtype=np.intp)
        body_row = np.array([used.setdefault(i.body_id, len(used)) for i in corpus.instances],
                            dtype=np.intp)
        heads = corpus.headline_counts.rows([corpus.headlines[h] for h in used_heads])
        bodies = corpus.body_counts.rows(corpus.body_rows(used))
        rows = (head_row, len(used_heads) + body_row)
        modes = [b.mode for b in self.spec.blocks if b.kind == SIMILARITY]
        if modes:
            sims = similarities(heads, bodies, head_row, body_row, self.embeddings, modes)
        blocks: dict[BlockSpec, FeatureMatrix] = {}
        for block in self.spec.blocks:
            if block.kind == BASELINE:
                sides = [count_matrix(heads, self.headline_vocab),
                         count_matrix(bodies, self.body_vocab)]
                if self.tf_log1p:
                    sides = [tf._replace(data=np.log1p(tf.data)) for tf in sides]
                width = len(self.headline_vocab) + len(self.body_vocab)
                docs = _document_rows(sides, (0, len(self.headline_vocab)), 1, width + 1)
                pairs = tfidf_cosines(heads, bodies, head_row, body_row, self.idf)
                pairs, at = pairs[:, None], [width]
            elif block.kind == INDICATOR:
                terms = self.keyword_sets[block.keywords].terms
                sides = [presence(docs, terms) for docs in (heads, bodies)]
                docs = _document_rows(sides, (0, 1), 2, 2 * len(terms))
                pairs, at = np.empty((len(head_row), 0)), []
            else:
                docs = empty_csr((len(used_heads) + len(used), 1))
                pairs, at = sims[:, [modes.index(block.mode)]], [0]
            blocks[block] = FeatureMatrix(pairs, docs, *rows, np.array(at, dtype=np.intp))
        return blocks

    def assemble(self, blocks: Mapping[BlockSpec, FeatureMatrix]) -> FeatureMatrix:
        """The spec's blocks side by side in spec order; blocks may hold more.
        Only the document rows and the pair columns are laid out."""
        parts = [blocks[b] for b in self.spec.blocks]
        offsets = list(accumulate((p.shape[1] for p in parts), initial=0))
        return FeatureMatrix(
            np.concatenate([p.pairs for p in parts], axis=1),
            _hstack([p.docs for p in parts]),
            parts[0].head_row, parts[0].body_row,
            np.concatenate([p.pair_columns + at for p, at in zip(parts, offsets)]), self.layout)

    def matrix(self, corpus: Corpus) -> FeatureMatrix:
        """Features of all corpus instances, in corpus order."""
        return self.assemble(self.block_matrices(corpus))


def _document_rows(sides: Sequence[Csr], offsets: Sequence[int], stride: int,
                   width: int) -> Csr:
    """The headline rows, then the body rows, of a block width columns wide:
    column j of side s goes to block column stride * j + offsets[s]."""
    heads, bodies = sides
    return Csr(np.concatenate([s.data for s in sides]),
               np.concatenate([stride * s.indices + at for s, at in zip(sides, offsets)]),
               np.concatenate((heads.indptr, heads.indptr[-1] + bodies.indptr[1:])),
               (heads.shape[0] + bodies.shape[0], width))


def _hstack(parts: Sequence[Csr]) -> Csr:
    """The parts' columns side by side, as scipy's hstack lays them: row i
    holds the first part's entries of row i, then the next part's, each
    part's columns shifted by the widths of the parts before it."""
    offsets = list(accumulate((p.shape[1] for p in parts), initial=0))
    order = np.argsort(np.concatenate([entry_rows(p) for p in parts]), kind="stable")
    return Csr(np.concatenate([p.data for p in parts])[order],
               np.concatenate([p.indices + at for p, at in zip(parts, offsets)])[order],
               sum(p.indptr for p in parts), (parts[0].shape[0], offsets[-1]))


def fit_pipeline(
    spec: PipelineSpec,
    corpus: Corpus,
    keyword_specs: Mapping[str, KeywordSpec] | None = None,
    embeddings: EmbeddingTable | None = None,
    vocab_capacity: int = DEFAULT_VOCAB_CAPACITY,
    tf_log1p: bool = False,
) -> FittedPipeline:
    """Fit all data-dependent state of a pipeline from the training corpus.
    Vocabulary and IDF counts take one headline per instance and every body."""
    keyword_specs = keyword_specs or {}
    headline_vocab = body_vocab = idf = None
    if any(b.kind == BASELINE for b in spec.blocks):
        sides = [(corpus.headline_counts, corpus.headline_weights),
                 (corpus.body_counts, corpus.body_weights)]
        totals = [column_sums(docs.matrix, weights) for docs, weights in sides]
        headline_vocab = build_vocabulary(corpus.headline_counts.terms, totals[0], vocab_capacity,
                                          ENGLISH_STOPWORDS)
        body_vocab = body_vocabulary(corpus, vocab_capacity)
        # the shared vocabulary ranks both sides' totals on the corpus's term table
        terms, *side_ids = corpus.terms
        shared = np.zeros(len(terms))
        for ids, t in zip(side_ids, totals):
            shared[ids] += t
        idf = build_idf(sides, build_vocabulary(terms, shared, vocab_capacity, ENGLISH_STOPWORDS))

    candidates: tuple[str, ...] | None = None
    keyword_sets: dict[str, KeywordSet] = {}
    for block in spec.blocks:
        if block.kind == INDICATOR:
            if block.keywords not in keyword_specs:
                raise ConfigError(
                    f"pipeline {spec.name!r} references undefined keyword set "
                    f"{block.keywords!r}"
                )
            kw_spec = keyword_specs[block.keywords]
            if kw_spec.selector != "manual" and candidates is None:
                vocab = body_vocab or body_vocabulary(corpus, vocab_capacity)
                candidates = vocab.terms
            keyword_sets[block.keywords] = fit_keyword_set(kw_spec, corpus, candidates or ())

    return FittedPipeline(
        spec=spec,
        headline_vocab=headline_vocab,
        body_vocab=body_vocab,
        idf=idf,
        keyword_sets=keyword_sets,
        embeddings=embeddings,
        tf_log1p=tf_log1p,
    )


def stance_labels(corpus: Corpus) -> np.ndarray:
    """Canonical label indices for a fully labeled corpus."""
    return stance_indices([i.stance for i in corpus.instances])


def member_probabilities(
    model: MlpModel, fitted: FittedPipeline, corpus: Corpus
) -> np.ndarray:
    """(n, 4) probability rows, with a layout compatibility check."""
    fm = fitted.matrix(corpus)
    if fm.layout != model.feature_layout:
        pipe = ", ".join(f"{b.name}:{b.length}" for b in fm.layout)
        got = ", ".join(f"{b.name}:{b.length}" for b in model.feature_layout)
        raise ValueError(
            f"pipeline layout [{pipe}] does not match model layout [{got}]"
        )
    return predict_batch(model, fm)[1]


def ensemble_predictions(
    spec: EnsembleSpec,
    models: Mapping[str, MlpModel],
    pipelines: Mapping[str, FittedPipeline],
    corpus: Corpus,
) -> tuple[list[Stance], np.ndarray]:
    """Fused decisions and probabilities for every corpus instance."""
    for member in spec.members:
        if member.model not in models:
            raise ConfigError(f"ensemble member: no model {member.model!r}")
        if member.pipeline not in pipelines:
            raise ConfigError(f"ensemble member: no pipeline {member.pipeline!r}")
    rows = [
        member_probabilities(models[m.model], pipelines[m.pipeline], corpus)
        for m in spec.members
    ]
    fused = fuse(np.stack(rows, axis=1), spec.rule, spec.combiner)
    return decisions(fused), fused


#: A baseline block's manifest keys: its three vocabularies, then its IDF.
BASELINE_FILES = ("headline_vocab", "body_vocab", "shared_vocab", "idf")


def pipeline_files(name: str, blocks: Sequence[BlockSpec]) -> dict[str, str]:
    """The sidecar files of a saved pipeline, by manifest key: the
    BASELINE_FILES for a baseline block, one keyword file per indicator block."""
    files = {}
    if any(b.kind == BASELINE for b in blocks):
        files = {key: f"{name}.{key}.txt" for key in BASELINE_FILES}
    files.update({f"keywords:{b.keywords}": f"{name}.kw.{b.keywords}.txt"
                  for b in blocks if b.kind == INDICATOR})
    return files


def save_pipeline(fitted: FittedPipeline, out_dir: str | Path, name: str) -> list[str]:
    """Write the pipeline_files of the spec plus a JSON manifest listing
    them. Returns the names of the files written, the manifest first."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = pipeline_files(name, fitted.spec.blocks)
    for key, fname in files.items():
        kind, _, keywords = key.partition(":")
        if keywords:
            write_keyword_set(fitted.keyword_sets[keywords], out / fname)
        elif kind == "idf":
            dump_idf(fitted.idf, out / fname)
        else:
            dump_vocabulary(getattr(fitted, kind), out / fname)
    manifest = {
        "format": "stancekit-pipeline",
        "version": 1,
        "name": name,
        "tf_log1p": fitted.tf_log1p,
        "blocks": [
            {"kind": b.kind, "keywords": b.keywords, "mode": b.mode}
            for b in fitted.spec.blocks
        ],
        # from the spec, not the attached table, which a shared fit may hand to
        # a pipeline without similarity blocks; load_pipeline does not read it
        "needs_embeddings": any(b.kind == SIMILARITY for b in fitted.spec.blocks),
        "files": files,
    }
    (out / f"{name}.pipeline.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
    )
    return [f"{name}.pipeline.json", *files.values()]


def load_pipeline(
    out_dir: str | Path, name: str, embeddings: EmbeddingTable | None = None
) -> FittedPipeline:
    """Rebuild a FittedPipeline from save_pipeline artifacts; a malformed,
    incomplete or misnamed artifact raises DataFormatError naming its file."""
    out = Path(out_dir)
    manifest_path = out / f"{name}.pipeline.json"
    try:
        manifest = read_envelope(manifest_path, "stancekit-pipeline")
    except FileNotFoundError:
        raise ConfigError(f"no fitted pipeline {name!r} under {out}") from None
    with reading(manifest_path):
        listed = dict(manifest["files"])
        blocks = tuple(
            BlockSpec(kind=b["kind"], keywords=b.get("keywords"), mode=b.get("mode"))
            for b in manifest["blocks"]
        )
        spec = PipelineSpec(name=manifest["name"], blocks=blocks)
        tf_log1p = manifest.get("tf_log1p", False)
        if not (isinstance(spec.name, str) and isinstance(tf_log1p, bool)):
            raise TypeError("name is not a string or tf_log1p not a boolean")
    files = pipeline_files(name, blocks)
    bad = [f for key, f in files.items() if listed.get(key) != f or not (out / f).is_file()]
    if bad:
        raise DataFormatError(f"{manifest_path}: pipeline files {bad} are unlisted or missing")
    vocabs = {key: load_vocabulary(out / files[key]) for key in BASELINE_FILES[:3] if key in files}
    return FittedPipeline(
        spec=spec,
        headline_vocab=vocabs.get("headline_vocab"),
        body_vocab=vocabs.get("body_vocab"),
        idf=load_idf(out / files["idf"], vocabs["shared_vocab"]) if "idf" in files else None,
        keyword_sets={b.keywords: read_keyword_set(out / files[f"keywords:{b.keywords}"])
                      for b in blocks if b.kind == INDICATOR},
        embeddings=embeddings,
        tf_log1p=tf_log1p,
    )
