"""Keyword selection: manual refutation list, mutual information, and the
customized-class (theme partition) MI selector.

Documents here are bags of tokens keyed by a document id; the corpus adapter
decides what a "document" is (this package uses one document per article
body, headlines excluded). The keyword indicator features themselves are
built by the pipeline module, one presence bit per keyword and side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping, Sequence

from .corpus import Corpus
from .errors import DataFormatError
from .text import TokenList, tokenize

#: Refutation cue words that signal the disagree stance. A starting point,
#: not gospel: every selector that takes keywords accepts any list via config.
DEFAULT_REFUTATION_TERMS: tuple[str, ...] = (
    "fake", "fraud", "hoax", "false", "deny", "denies", "not", "despite",
    "nope", "doubt", "doubts", "bogus", "debunk", "pranks", "retract",
)


@dataclass(frozen=True)
class KeywordSet:
    """Named, ordered set of distinct lowercase keywords with provenance."""

    name: str
    terms: tuple[str, ...]
    provenance: str = "manual"          # manual | mi | micc
    params: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError(f"keyword set {self.name!r} has duplicate terms")
        if any(not t for t in self.terms):
            raise ValueError(f"keyword set {self.name!r} has an empty term")


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 document counts: term present/absent x class positive/negative."""

    term: str
    n11: int  # present, positive
    n10: int  # present, negative
    n01: int  # absent, positive
    n00: int  # absent, negative

    def __post_init__(self):
        if min(self.n11, self.n10, self.n01, self.n00) < 0:
            raise ValueError("contingency counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


def mutual_information(table: ContingencyTable) -> float:
    """Pointwise MI over the 2x2 table, in bits; 0*log0 counts as 0.

    I = sum over cells of (n/N) * log2(N*n / (row_marginal * col_marginal)).
    Always non-negative up to rounding.
    """
    n = table.total
    if n < 1:
        raise ValueError("all-zero contingency table")
    rows = (table.n11 + table.n10, table.n01 + table.n00)
    cols = (table.n11 + table.n01, table.n10 + table.n00)
    cells = ((table.n11, 0, 0), (table.n10, 0, 1), (table.n01, 1, 0), (table.n00, 1, 1))
    info = 0.0
    for count, r, c in cells:
        if count:
            info += (count / n) * math.log2(n * count / (rows[r] * cols[c]))
    return max(info, 0.0)


def _presence_counts(
    documents: Mapping[object, Collection[str]],
    positive_ids: Collection[object],
    candidates: Collection[str],
) -> tuple[dict[str, int], dict[str, int], int, int]:
    """Per-candidate document frequencies split by class membership."""
    cand = set(candidates)
    pos_df: dict[str, int] = {}
    neg_df: dict[str, int] = {}
    n_pos = n_neg = 0
    positive = set(positive_ids)
    for doc_id, tokens in documents.items():
        hit = cand.intersection(tokens)
        if doc_id in positive:
            n_pos += 1
            for t in hit:
                pos_df[t] = pos_df.get(t, 0) + 1
        else:
            n_neg += 1
            for t in hit:
                neg_df[t] = neg_df.get(t, 0) + 1
    return pos_df, neg_df, n_pos, n_neg


def score_candidates(
    documents: Mapping[object, Collection[str]],
    positive_ids: Collection[object],
    candidates: Collection[str],
) -> dict[str, float]:
    """MI of every candidate term against the binary document class."""
    pos_df, neg_df, n_pos, n_neg = _presence_counts(documents, positive_ids, candidates)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both document classes must be non-empty")
    scores = {}
    for term in candidates:
        n11 = pos_df.get(term, 0)
        n10 = neg_df.get(term, 0)
        scores[term] = mutual_information(
            ContingencyTable(term, n11=n11, n10=n10, n01=n_pos - n11, n00=n_neg - n10)
        )
    return scores


def select_keywords_mi(
    documents: Mapping[object, Collection[str]],
    positive_ids: Collection[object],
    candidates: Collection[str],
    k: int,
    name: str = "mi",
    params: tuple[tuple[str, str], ...] = (),
) -> KeywordSet:
    """Top-k candidates by mutual information, ties lexicographic."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    scores = score_candidates(documents, positive_ids, candidates)
    ranked = sorted(scores, key=lambda t: (-scores[t], t))
    return KeywordSet(name=name, terms=tuple(ranked[:k]), provenance="mi", params=params)


@dataclass(frozen=True)
class ThemePartition:
    """First-match assignment of documents to ordered theme words."""

    theme_terms: tuple[str, ...]
    classes: Mapping[str, frozenset]
    residual: frozenset


def partition_by_theme(
    documents: Mapping[object, Collection[str]],
    theme_terms: Sequence[str],
) -> ThemePartition:
    """Assign each document to the first theme whose word it contains."""
    if not theme_terms:
        raise ValueError("theme_terms must be non-empty")
    if len(set(theme_terms)) != len(theme_terms):
        raise ValueError("theme_terms must be distinct")
    classes: dict[str, set] = {t: set() for t in theme_terms}
    residual: set = set()
    for doc_id, tokens in documents.items():
        token_set = set(tokens)
        for theme in theme_terms:
            if theme in token_set:
                classes[theme].add(doc_id)
                break
        else:
            residual.add(doc_id)
    return ThemePartition(
        theme_terms=tuple(theme_terms),
        classes={t: frozenset(ids) for t, ids in classes.items()},
        residual=frozenset(residual),
    )


def select_keywords_micc(
    documents: Mapping[object, Collection[str]],
    theme_terms: Sequence[str],
    candidates: Collection[str],
    k: int,
    name_prefix: str = "micc",
) -> dict[str, KeywordSet]:
    """Per-theme top-k keywords by MI against "in this theme class vs not".

    The theme word itself is excluded from its own group. Themes whose class
    is empty (or covers every document) carry no discrimination signal and
    get an empty group.
    """
    partition = partition_by_theme(documents, theme_terms)
    if all(not ids for ids in partition.classes.values()):
        raise ValueError("no document matched any theme")
    groups: dict[str, KeywordSet] = {}
    n_docs = len(documents)
    for theme in partition.theme_terms:
        members = partition.classes[theme]
        params = (("theme", theme), ("k", str(k)))
        if not members or len(members) == n_docs:
            groups[theme] = KeywordSet(
                name=f"{name_prefix}_{theme}", terms=(), provenance="micc", params=params
            )
            continue
        cand = [t for t in candidates if t != theme]
        ks = select_keywords_mi(documents, members, cand, k, name=f"{name_prefix}_{theme}")
        groups[theme] = KeywordSet(
            name=ks.name, terms=ks.terms, provenance="micc", params=params
        )
    return groups


def corpus_documents(corpus: Corpus) -> dict[int, TokenList]:
    """One document per article body (headlines excluded), as token lists."""
    return {b: tokenize(text) for b, text in corpus.bodies.items()}


def stance_positive_bodies(corpus: Corpus, positive_stances: Collection) -> set[int]:
    """Bodies that appear with at least one instance of a positive stance."""
    positive = set(positive_stances)
    return {i.body_id for i in corpus.instances if i.stance in positive}


def write_keyword_set(ks: KeywordSet, path: str | Path) -> None:
    """Text format: `# name provenance k=v ...` then one term per line."""
    header = f"# {ks.name} {ks.provenance}"
    for key, value in ks.params:
        header += f" {key}={value}"
    Path(path).write_text(
        header + "\n" + "".join(t + "\n" for t in ks.terms), encoding="utf-8"
    )


def read_keyword_set(path: str | Path) -> KeywordSet:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise DataFormatError(f"{path}: missing keyword-set header line")
    fields = lines[0][2:].split()
    if len(fields) < 2:
        raise DataFormatError(f"{path}: malformed keyword-set header")
    name, provenance = fields[0], fields[1]
    params = tuple(tuple(p.split("=", 1)) for p in fields[2:] if "=" in p)
    terms = tuple(t for t in lines[1:] if t)
    try:
        return KeywordSet(name=name, terms=terms, provenance=provenance, params=params)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
