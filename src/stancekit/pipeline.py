"""Named feature pipelines: fit on a training corpus, then featurize.

A pipeline is an ordered list of feature blocks (baseline TF + TF-IDF
cosine, keyword indicator bits, embedding similarity). Fitting derives
every data-dependent part (vocabularies, IDF weights, keyword selections)
from the training corpus alone, so cross-validation folds rebuilt through
fit_pipeline stay leakage-free by construction.

Featurization is document-level: matrix() tokenizes and counts each
distinct headline and body once, builds one CSR row per document with
that side's TF and keyword-presence columns, and assembles instance rows
as headline row + body row + the pairwise columns. A pairwise column
(TF-IDF cosine, embedding similarity) is a function of two document
states built once per distinct headline and body, evaluated once per
distinct headline/body pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Stance
from .embeddings import EmbeddingTable, SIMILARITY_MODES, embed_doc, similarity
from .ensemble import EnsembleSpec, decisions, fuse
from .errors import ConfigError, DataFormatError
from .keywords import (
    KeywordSet,
    corpus_documents,
    read_keyword_set,
    select_keywords_mi,
    select_keywords_micc,
    stance_positive_bodies,
    write_keyword_set,
)
from .mlp import MlpModel, predict_batch
from .stopwords import ENGLISH_STOPWORDS
from .text import (
    BlockSlice,
    IdfTable,
    TokenList,
    Vocabulary,
    build_idf,
    build_vocabulary,
    dump_vocabulary,
    load_vocabulary,
    tf_counts,
    tfidf_cosine,
    tfidf_doc,
    tokenize,
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
    keywords: str | None = None  # indicator: name of a KeywordSpec
    mode: str | None = None  # similarity: centroid | wmd-exact | wmd-relaxed

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ConfigError(f"unknown feature block kind {self.kind!r}")
        if self.kind == INDICATOR and not self.keywords:
            raise ConfigError("indicator block needs a keyword-set name")
        if self.kind == SIMILARITY and self.mode not in SIMILARITY_MODES:
            raise ConfigError(f"similarity block needs a mode from {SIMILARITY_MODES}")


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError(f"pipeline {self.name!r} has no feature blocks")
        if len(set(self.blocks)) != len(self.blocks):
            raise ConfigError(f"pipeline {self.name!r} repeats a feature block")


@dataclass(frozen=True)
class FeatureMatrix:
    """CSR example-by-feature matrix plus the shared block layout."""

    matrix: sp.csr_matrix
    layout: tuple[BlockSlice, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _micc_flat(groups: Mapping[str, KeywordSet], spec: KeywordSpec) -> KeywordSet:
    # theme groups flatten to one ordered, deduplicated indicator list
    seen: dict[str, None] = {}
    for theme in spec.themes:
        for term in groups[theme].terms:
            seen.setdefault(term)
    params = (("themes", "+".join(spec.themes)), ("k", str(spec.k)))
    return KeywordSet(
        name=spec.name, terms=tuple(seen), provenance="micc", params=params
    )


def body_vocabulary(body_tokens: Iterable[TokenList], capacity: int) -> Vocabulary:
    """TF vocabulary of the body side, also the keyword candidate terms."""
    return build_vocabulary(body_tokens, capacity, ENGLISH_STOPWORDS, source="body")


def fit_keyword_set(
    spec: KeywordSpec,
    corpus: Corpus,
    candidates: Sequence[str],
    documents: Mapping[int, TokenList],
) -> KeywordSet:
    """Select one keyword set; documents are the corpus_documents(corpus)
    body token lists."""
    if spec.selector == "manual":
        return KeywordSet(
            name=spec.name, terms=spec.terms, provenance="manual", params=()
        )
    if spec.selector == "mi":
        positive = stance_positive_bodies(corpus, spec.positive)
        classes = "+".join(s.value for s in spec.positive)
        ks = select_keywords_mi(documents, positive, candidates, spec.k, name=spec.name)
        return KeywordSet(
            name=spec.name,
            terms=ks.terms,
            provenance="mi",
            params=(("positive", classes), ("k", str(spec.k))),
        )
    groups = select_keywords_micc(
        documents, spec.themes, candidates, spec.k, name_prefix=spec.name
    )
    return _micc_flat(groups, spec)


@dataclass
class FittedPipeline:
    """A pipeline after fitting; read-only once constructed."""

    spec: PipelineSpec
    headline_vocab: Vocabulary | None
    body_vocab: Vocabulary | None
    shared_vocab: Vocabulary | None
    idf: IdfTable | None
    keyword_sets: dict[str, KeywordSet]
    embeddings: EmbeddingTable | None
    tf_log1p: bool = False

    def __post_init__(self):
        layout: list[BlockSlice] = []
        starts: list[int] = []
        offset = 0

        def add(name: str, length: int):
            nonlocal offset
            layout.append(BlockSlice(name, offset, length))
            offset += length

        for block in self.spec.blocks:
            starts.append(offset)
            if block.kind == BASELINE:
                add("tf_headline", len(self.headline_vocab))
                add("tf_body", len(self.body_vocab))
                add("tfidf_cos", 1)
            elif block.kind == INDICATOR:
                ks = self.keyword_sets[block.keywords]
                add(f"kw_{ks.name}", 2 * len(ks.terms))
            else:
                add("emb_" + block.mode.replace("-", "_"), 1)
        names = [b.name for b in layout]
        if len(set(names)) != len(names):
            raise ConfigError(f"pipeline {self.spec.name!r} has duplicate block names")
        self.layout = tuple(layout)
        self.input_dim = offset
        self._starts = tuple(starts)

    def _side_matrix(self, docs: Sequence[TokenList], side: int) -> sp.csr_matrix:
        """One row per headline (side 0) or body (side 1) document.

        A row holds that side's TF counts and keyword-presence bits at their
        final columns: headline bit i of an indicator block at 2i, body bit
        at 2i + 1. tf_log1p transforms the TF values only.
        """
        indptr, indices, data = [0], [], []
        for tokens in docs:
            present = set(tokens)
            for block, start in zip(self.spec.blocks, self._starts):
                if block.kind == BASELINE:
                    if side:
                        start += len(self.headline_vocab)
                    counts = tf_counts(tokens, self.body_vocab if side else self.headline_vocab)
                    indices.extend(start + i for i in counts)
                    values = list(counts.values())
                    data.extend(np.log1p(values) if self.tf_log1p else values)
                elif block.kind == INDICATOR:
                    terms = self.keyword_sets[block.keywords].terms
                    hits = [start + side + 2 * i for i, t in enumerate(terms) if t in present]
                    indices.extend(hits)
                    data.extend([1.0] * len(hits))
            indptr.append(len(indices))
        mat = sp.csr_matrix(
            (
                np.array(data, dtype=np.float64),
                np.array(indices, dtype=np.int64),
                np.array(indptr, dtype=np.int64),
            ),
            shape=(len(docs), self.input_dim),
        )
        mat.sort_indices()
        return mat

    def _pair_matrix(
        self,
        head_tokens: Sequence[TokenList],
        body_tokens: Sequence[TokenList],
        head_row: list[int],
        body_row: list[int],
    ) -> sp.csr_matrix:
        """TF-IDF cosine and similarity columns of each distinct (headline,
        body) pair, gathered to instance rows.

        Every pair column is a function of two document states, a TfidfDoc
        and an EmbeddedDoc, each built once per distinct headline and body
        and only for the pair blocks the pipeline has. A body's states live
        only while its pairs are scored.
        """
        columns: list[int] = []
        state_fns: dict[str, Callable] = {}  # document state name -> its constructor
        kernels: list[tuple[str, Callable]] = []  # (state name, pair kernel)
        for block, start in zip(self.spec.blocks, self._starts):
            if block.kind == BASELINE:
                columns.append(start + len(self.headline_vocab) + len(self.body_vocab))
                state_fns["tfidf"] = partial(tfidf_doc, vocab=self.shared_vocab, idf=self.idf)
                kernels.append(("tfidf", tfidf_cosine))
            elif block.kind == SIMILARITY:
                columns.append(start)
                state_fns["embedded"] = partial(embed_doc, table=self.embeddings)
                kernels.append(("embedded", partial(similarity, mode=block.mode)))

        def state(tokens: TokenList) -> dict:
            return {name: make(tokens) for name, make in state_fns.items()}

        pairs: dict[tuple[int, int], int] = {}
        pair_row = [pairs.setdefault(p, len(pairs)) for p in zip(head_row, body_row)]
        by_body: dict[int, list[tuple[int, int]]] = {}
        for (h, b), k in pairs.items():
            by_body.setdefault(b, []).append((h, k))
        heads = [state(tokens) for tokens in head_tokens]
        pair_values: list = [None] * len(pairs)
        for b, members in by_body.items():
            body = state(body_tokens[b])
            for h, k in members:
                pair_values[k] = [kernel(heads[h][name], body[name]) for name, kernel in kernels]
        values = np.array(pair_values, dtype=np.float64).reshape(len(pairs), len(kernels))[pair_row]
        rows, ks = np.nonzero(values)
        return sp.csr_matrix(
            (values[rows, ks], (rows, np.array(columns, dtype=np.int64)[ks])),
            shape=(len(head_row), self.input_dim),
        )

    def matrix(self, corpus: Corpus) -> FeatureMatrix:
        """CSR feature matrix over all corpus instances, in corpus order.

        Each distinct headline and body is tokenized and counted once; an
        instance row is its headline row plus its body row plus the
        pairwise columns.
        """
        heads: dict[str, int] = {}
        bodies: dict[int, int] = {}
        head_row = [heads.setdefault(i.headline, len(heads)) for i in corpus.instances]
        body_row = [bodies.setdefault(i.body_id, len(bodies)) for i in corpus.instances]
        head_tokens = [tokenize(h) for h in heads]
        body_tokens = [tokenize(corpus.body_text(b)) for b in bodies]
        mat = (
            self._side_matrix(head_tokens, 0)[head_row]
            + self._side_matrix(body_tokens, 1)[body_row]
            + self._pair_matrix(head_tokens, body_tokens, head_row, body_row)
        )
        return FeatureMatrix(matrix=mat, layout=self.layout)


def fit_pipeline(
    spec: PipelineSpec,
    corpus: Corpus,
    keyword_specs: Mapping[str, KeywordSpec] | None = None,
    embeddings: EmbeddingTable | None = None,
    vocab_capacity: int = DEFAULT_VOCAB_CAPACITY,
    tf_log1p: bool = False,
) -> FittedPipeline:
    """Fit all data-dependent state of a pipeline from the training corpus."""
    keyword_specs = keyword_specs or {}
    head_tokens = [tokenize(i.headline) for i in corpus.instances]
    body_tokens = corpus_documents(corpus)

    headline_vocab = body_vocab = shared_vocab = None
    idf = None
    if any(b.kind == BASELINE for b in spec.blocks):
        headline_vocab = build_vocabulary(
            head_tokens, vocab_capacity, ENGLISH_STOPWORDS, source="headline"
        )
        body_vocab = body_vocabulary(body_tokens.values(), vocab_capacity)
        all_docs = head_tokens + list(body_tokens.values())
        shared_vocab = build_vocabulary(
            all_docs, vocab_capacity, ENGLISH_STOPWORDS, source="shared"
        )
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
                vocab = body_vocab or body_vocabulary(body_tokens.values(), vocab_capacity)
                candidates = vocab.terms
            keyword_sets[block.keywords] = fit_keyword_set(
                kw_spec, corpus, candidates or (), body_tokens
            )
        elif block.kind == SIMILARITY and embeddings is None:
            raise ConfigError(
                f"pipeline {spec.name!r} has a similarity block but no "
                "embedding table is configured"
            )

    return FittedPipeline(
        spec=spec,
        headline_vocab=headline_vocab,
        body_vocab=body_vocab,
        shared_vocab=shared_vocab,
        idf=idf,
        keyword_sets=keyword_sets,
        embeddings=embeddings,
        tf_log1p=tf_log1p,
    )


def stance_labels(corpus: Corpus) -> np.ndarray:
    """Canonical label indices for a fully labeled corpus."""
    labels = np.empty(len(corpus.instances), dtype=np.int64)
    for row, instance in enumerate(corpus.instances):
        if instance.stance is None:
            raise ValueError(f"instance {row} is unlabeled")
        labels[row] = instance.stance.index
    return labels


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
    return predict_batch(model, fm.matrix)[1]


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
    """Write the fitted artifact set plus a JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    for tag, vocab in (
        ("headline_vocab", fitted.headline_vocab),
        ("body_vocab", fitted.body_vocab),
        ("shared_vocab", fitted.shared_vocab),
    ):
        if vocab is not None:
            fname = f"{name}.{tag}.txt"
            dump_vocabulary(vocab, out / fname)
            files[tag] = fname
    if fitted.idf is not None:
        fname = f"{name}.idf.txt"
        lines = [f"document_count={fitted.idf.document_count}"]
        lines.extend(repr(float(v)) for v in fitted.idf.values)
        (out / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
        files["idf"] = fname
    for ref, ks in fitted.keyword_sets.items():
        fname = f"{name}.kw.{ref}.txt"
        write_keyword_set(ks, out / fname)
        files[f"keywords:{ref}"] = fname
    manifest = {
        "format": "stancekit-pipeline",
        "version": 1,
        "name": name,
        "tf_log1p": fitted.tf_log1p,
        "blocks": [
            {"kind": b.kind, "keywords": b.keywords, "mode": b.mode}
            for b in fitted.spec.blocks
        ],
        # from the spec, not the attached table: a shared table may be handed
        # to every pipeline of a run even when this one has no similarity block
        "needs_embeddings": any(b.kind == SIMILARITY for b in fitted.spec.blocks),
        "files": files,
    }
    (out / f"{name}.pipeline.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
    )


def load_pipeline(
    out_dir: str | Path, name: str, embeddings: EmbeddingTable | None = None
) -> FittedPipeline:
    """Rebuild a FittedPipeline from save_pipeline artifacts."""
    out = Path(out_dir)
    manifest_path = out / f"{name}.pipeline.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no fitted pipeline {name!r} under {out}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from None
    if manifest.get("format") != "stancekit-pipeline" or manifest.get("version") != 1:
        raise DataFormatError(f"{manifest_path}: unsupported pipeline manifest")
    files = manifest["files"]

    def vocab_of(tag: str, source: str) -> Vocabulary | None:
        return load_vocabulary(out / files[tag], source) if tag in files else None

    headline_vocab = vocab_of("headline_vocab", "headline")
    body_vocab = vocab_of("body_vocab", "body")
    shared_vocab = vocab_of("shared_vocab", "shared")
    idf = None
    if "idf" in files:
        lines = (out / files["idf"]).read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("document_count="):
            raise DataFormatError(f"{files['idf']}: missing document_count header")
        idf = IdfTable(
            vocab=shared_vocab,
            values=np.array([float(v) for v in lines[1:]], dtype=np.float64),
            document_count=int(lines[0].partition("=")[2]),
        )
    keyword_sets = {
        key.partition(":")[2]: read_keyword_set(out / fname)
        for key, fname in files.items()
        if key.startswith("keywords:")
    }
    blocks = tuple(
        BlockSpec(kind=b["kind"], keywords=b.get("keywords"), mode=b.get("mode"))
        for b in manifest["blocks"]
    )
    if manifest.get("needs_embeddings") and embeddings is None:
        raise ConfigError(
            f"pipeline {name!r} uses embedding features; pass the embedding table"
        )
    return FittedPipeline(
        spec=PipelineSpec(name=manifest["name"], blocks=blocks),
        headline_vocab=headline_vocab,
        body_vocab=body_vocab,
        shared_vocab=shared_vocab,
        idf=idf,
        keyword_sets=keyword_sets,
        embeddings=embeddings,
        tf_log1p=bool(manifest.get("tf_log1p", False)),
    )
