"""Named feature pipelines: fit on a training corpus, then featurize.

A pipeline is an ordered list of feature blocks: baseline TF + TF-IDF cosine,
indicator bits of a keyword set, embedding similarity of a mode (which needs
an embedding table). Fitting derives every data-dependent part (vocabularies,
IDF weights, keyword selections) from the training corpus alone, so
cross-validation folds rebuilt through fit_pipeline stay leakage-free.

Each block owns its columns: block_matrices() reads the token lists the
corpus made when it was built and keeps a block's headline and body columns
(TF, keyword bits) as one row per distinct document, which no instance
copies; the model projects such a row once (see mlp.FeatureMatrix). Only
the pair columns have a row per instance: the TF-IDF cosine, computed for
all instances at once from the IDF-weighted count rows, and the embedding
similarities, all scored by one embeddings.similarities() call that takes
each distinct headline/body pair once. assemble() lays a pipeline's blocks
side by side.
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
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Stance, decisions, stance_indices
from .embeddings import EmbeddingTable, SIMILARITY_MODES, similarities
from .ensemble import EnsembleSpec, fuse
from .errors import ConfigError, DataFormatError
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
    IdfTable,
    TokenList,
    Vocabulary,
    build_idf,
    build_vocabulary,
    count_matrix,
    dump_vocabulary,
    load_vocabulary,
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


def body_vocabulary(body_tokens: Iterable[TokenList], capacity: int) -> Vocabulary:
    """TF vocabulary of the body side, also the keyword candidate terms."""
    return build_vocabulary(body_tokens, capacity, ENGLISH_STOPWORDS)


@contextmanager
def selecting(spec: KeywordSpec):
    """Raise a selector's failure on the training data (say, no document in
    a class) as a ConfigError naming the keyword set."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"keyword set {spec.name!r} ({spec.selector} selector): {exc}") from None


def fit_keyword_set(spec: KeywordSpec, corpus: Corpus, candidates: Sequence[str]) -> KeywordSet:
    """Select one keyword set. The selectors read one document per article
    body (headlines excluded): the corpus's body token lists."""
    if spec.selector == "manual":
        return KeywordSet(
            name=spec.name, terms=spec.terms, provenance="manual", params=()
        )
    with selecting(spec):
        if spec.selector == "mi":
            positive = stance_positive_bodies(corpus, spec.positive)
            ks = select_keywords_mi(corpus.body_tokens, positive, candidates, spec.k)
            classes = "+".join(s.value for s in spec.positive)
            params = (("positive", classes), ("k", str(spec.k)))
            return KeywordSet(name=spec.name, terms=ks.terms, provenance="mi", params=params)
        groups = select_keywords_micc(
            corpus.body_tokens, spec.themes, candidates, spec.k, name_prefix=spec.name
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
                ks = self.keyword_sets[block.keywords]
                columns.append((f"kw_{ks.name}", 2 * len(ks.terms)))
            elif self.embeddings is None:
                raise ConfigError(f"pipeline {self.spec.name!r} has a similarity block but no "
                                  "embedding table")
            else:
                columns.append(("emb_" + block.mode.replace("-", "_"), 1))
        if len({name for name, _ in columns}) != len(columns):
            raise ConfigError(f"pipeline {self.spec.name!r} has duplicate block names")
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
        heads: dict[str, int] = {}
        bodies: dict[int, int] = {}
        head_row = [heads.setdefault(i.headline, len(heads)) for i in corpus.instances]
        body_row = [bodies.setdefault(i.body_id, len(bodies)) for i in corpus.instances]
        head_tokens = [corpus.headline_tokens[h] for h in heads]
        body_tokens = [corpus.tokens_of_body(b) for b in bodies]
        rows = (np.array(head_row, dtype=np.intp), len(heads) + np.array(body_row, dtype=np.intp))
        modes = [b.mode for b in self.spec.blocks if b.kind == SIMILARITY]
        if modes:
            sims = similarities(head_tokens, body_tokens, head_row, body_row, self.embeddings,
                                modes)
        blocks: dict[BlockSpec, FeatureMatrix] = {}
        for block in self.spec.blocks:
            if block.kind == BASELINE:
                sides = [count_matrix(head_tokens, self.headline_vocab),
                         count_matrix(body_tokens, self.body_vocab)]
                if self.tf_log1p:
                    for tf in sides:
                        tf.data = np.log1p(tf.data)
                width = len(self.headline_vocab) + len(self.body_vocab)
                docs = _document_rows(sides, (0, len(self.headline_vocab)), 1, width + 1)
                pairs = tfidf_cosines(head_tokens, body_tokens, head_row, body_row, self.idf)
                pairs, at = pairs[:, None], [width]
            elif block.kind == INDICATOR:
                terms = self.keyword_sets[block.keywords].terms
                sides = [presence(docs, terms) for docs in (head_tokens, body_tokens)]
                docs = _document_rows(sides, (0, 1), 2, 2 * len(terms))
                pairs, at = np.empty((len(head_row), 0)), []
            else:
                docs = sp.csr_matrix((len(heads) + len(bodies), 1))
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
            sp.hstack([p.docs for p in parts], format="csr"),
            parts[0].head_row, parts[0].body_row,
            np.concatenate([p.pair_columns + at for p, at in zip(parts, offsets)]), self.layout)

    def matrix(self, corpus: Corpus) -> FeatureMatrix:
        """Features of all corpus instances, in corpus order."""
        return self.assemble(self.block_matrices(corpus))


def _document_rows(sides: Sequence[sp.csr_matrix], offsets: Sequence[int], stride: int,
                   width: int) -> sp.csr_matrix:
    """The headline rows, then the body rows, of a block width columns wide:
    column j of side s goes to block column stride * j + offsets[s]."""
    return sp.vstack([sp.csr_matrix((s.data, stride * s.indices + at, s.indptr),
                                    shape=(s.shape[0], width)) for s, at in zip(sides, offsets)],
                     format="csr")


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
    head_tokens = [corpus.headline_tokens[i.headline] for i in corpus.instances]
    body_tokens = corpus.body_tokens.values()

    headline_vocab = body_vocab = idf = None
    if any(b.kind == BASELINE for b in spec.blocks):
        headline_vocab = build_vocabulary(head_tokens, vocab_capacity, ENGLISH_STOPWORDS)
        body_vocab = body_vocabulary(body_tokens, vocab_capacity)
        all_docs = head_tokens + list(body_tokens)
        shared_vocab = build_vocabulary(all_docs, vocab_capacity, ENGLISH_STOPWORDS)
        idf = build_idf(all_docs, shared_vocab)

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
                vocab = body_vocab or body_vocabulary(body_tokens, vocab_capacity)
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


def save_pipeline(fitted: FittedPipeline, out_dir: str | Path, name: str) -> None:
    """Write the fitted state the spec uses plus a JSON manifest: the
    vocabularies and IDF only for a baseline block, and the keyword sets of
    the spec's own indicator blocks."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    if any(b.kind == BASELINE for b in fitted.spec.blocks):
        for tag in ("headline_vocab", "body_vocab", "shared_vocab"):
            fname = f"{name}.{tag}.txt"
            dump_vocabulary(getattr(fitted, tag), out / fname)
            files[tag] = fname
        fname = f"{name}.idf.txt"
        lines = [f"document_count={fitted.idf.document_count}"]
        lines.extend(repr(float(v)) for v in fitted.idf.values)
        (out / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
        files["idf"] = fname
    for block in fitted.spec.blocks:
        if block.kind == INDICATOR:
            fname = f"{name}.kw.{block.keywords}.txt"
            write_keyword_set(fitted.keyword_sets[block.keywords], out / fname)
            files[f"keywords:{block.keywords}"] = fname
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


def load_pipeline(
    out_dir: str | Path, name: str, embeddings: EmbeddingTable | None = None
) -> FittedPipeline:
    """Rebuild a FittedPipeline from save_pipeline artifacts; a malformed
    or incomplete artifact raises DataFormatError naming its file."""
    out = Path(out_dir)
    manifest_path = out / f"{name}.pipeline.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no fitted pipeline {name!r} under {out}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from None
    if (not isinstance(manifest, dict) or manifest.get("format") != "stancekit-pipeline"
            or manifest.get("version") != 1):
        raise DataFormatError(f"{manifest_path}: unsupported pipeline manifest")
    try:
        files = dict(manifest["files"])
        blocks = tuple(
            BlockSpec(kind=b["kind"], keywords=b.get("keywords"), mode=b.get("mode"))
            for b in manifest["blocks"]
        )
        spec = PipelineSpec(name=manifest["name"], blocks=blocks)
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        raise DataFormatError(f"{manifest_path}: malformed pipeline manifest ({exc!r})") from None
    needed = {f"keywords:{b.keywords}" for b in blocks if b.kind == INDICATOR}
    if any(b.kind == BASELINE for b in blocks):
        needed |= {"headline_vocab", "body_vocab", "shared_vocab", "idf"}
    unlisted = sorted(needed - files.keys())
    if unlisted:
        raise DataFormatError(f"{manifest_path}: lists no file for {unlisted}")
    missing = [f for f in files.values() if not isinstance(f, str) or not (out / f).is_file()]
    if missing:
        raise DataFormatError(f"{manifest_path}: missing pipeline files {missing}")

    def vocab_of(tag: str) -> Vocabulary | None:
        return load_vocabulary(out / files[tag]) if tag in files else None

    headline_vocab = vocab_of("headline_vocab")
    body_vocab = vocab_of("body_vocab")
    shared_vocab = vocab_of("shared_vocab")
    idf = None
    if "idf" in files:
        lines = (out / files["idf"]).read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("document_count="):
            raise DataFormatError(f"{files['idf']}: missing document_count header")
        try:
            idf = IdfTable(
                vocab=shared_vocab,
                values=np.array([float(v) for v in lines[1:]], dtype=np.float64),
                document_count=int(lines[0].partition("=")[2]),
            )
        except ValueError as exc:
            raise DataFormatError(f"{out / files['idf']}: {exc}") from None
    keyword_sets = {
        key.partition(":")[2]: read_keyword_set(out / fname)
        for key, fname in files.items()
        if key.startswith("keywords:")
    }
    return FittedPipeline(
        spec=spec,
        headline_vocab=headline_vocab,
        body_vocab=body_vocab,
        idf=idf,
        keyword_sets=keyword_sets,
        embeddings=embeddings,
        tf_log1p=bool(manifest.get("tf_log1p", False)),
    )
