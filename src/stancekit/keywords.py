"""Keyword selection: a manual selector's terms as the config lists them
(configs/headline.yaml lists the paper's refutation cues), mutual
information (MI), and the customized-class (MICC) selector that ranks
keywords per theme.

The documents are the corpus's body counts (Corpus.body_counts), one row
per article body, headlines excluded. Both selectors read the presence
columns of the candidates (text.presence). A term's 2x2 table against a
document class comes from column counts over the class's rows and the
other rows, and MI is computed once per distinct table. MICC puts each
document in the class of the first theme word it contains, then ranks the
same candidate columns against each theme's class. The pipeline module
builds the keyword indicator bits from the same presence columns.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .corpus import Corpus
from .errors import reading
from .text import Csr, TermCounts, presence, take_rows


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


def mutual_information(n11: int, n10: int, n01: int, n00: int) -> float:
    """MI of a 2x2 table of document counts, in bits; 0*log0 counts as 0.

    The counts are: term present in a positive (n11) or negative (n10)
    document, and absent from a positive (n01) or negative (n00) one.
    I = sum over cells of (n/N) * log2(N*n / (row_marginal * col_marginal)).
    Always non-negative up to rounding.
    """
    if min(n11, n10, n01, n00) < 0:
        raise ValueError("contingency counts must be non-negative")
    n = n11 + n10 + n01 + n00
    if n < 1:
        raise ValueError("all-zero contingency table")
    rows = (n11 + n10, n01 + n00)
    cols = (n11 + n01, n10 + n00)
    cells = ((n11, 0, 0), (n10, 0, 1), (n01, 1, 0), (n00, 1, 1))
    info = 0.0
    for count, r, c in cells:
        if count:
            info += (count / n) * math.log2(n * count / (rows[r] * cols[c]))
    return max(info, 0.0)


def _top_k(present: Csr, positive: np.ndarray, terms: Sequence[str], k: int,
           skip: str | None = None) -> tuple[str, ...]:
    """The k terms (columns of the document-by-term presence matrix) of
    highest MI against the boolean row class `positive`, ties lexicographic;
    `skip` is never ranked. MI runs once per distinct table."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both document classes must be non-empty")
    n11 = np.bincount(take_rows(present, np.flatnonzero(positive)).indices,
                      minlength=len(terms))
    n10 = np.bincount(present.indices, minlength=len(terms)) - n11
    tables = list(zip(n11.tolist(), n10.tolist()))
    info = {t: mutual_information(t[0], t[1], n_pos - t[0], n_neg - t[1]) for t in set(tables)}
    scored = ((-info[t], term) for term, t in zip(terms, tables) if term != skip)
    return tuple(term for _, term in heapq.nsmallest(k, scored))


def select_keywords_mi(
    documents: TermCounts,
    positive: np.ndarray,
    candidates: Collection[str],
    k: int,
) -> KeywordSet:
    """Top-k candidates by mutual information against the boolean document
    class `positive` (one value per row), ties lexicographic."""
    terms = tuple(dict.fromkeys(candidates))
    top = _top_k(presence(documents, terms), np.asarray(positive, dtype=bool), terms, k)
    return KeywordSet(name="mi", terms=top, provenance="mi")


def select_keywords_micc(
    documents: TermCounts,
    theme_terms: Sequence[str],
    candidates: Collection[str],
    k: int,
    name_prefix: str = "micc",
) -> dict[str, KeywordSet]:
    """Per-theme top-k keywords by MI against "in this theme class vs not".

    A document's class is the first theme whose word it contains. The theme
    word itself is excluded from its own group. Themes whose class is empty
    (or covers every document) carry no discrimination signal and get an
    empty group.
    """
    if not theme_terms:
        raise ValueError("theme_terms must be non-empty")
    if len(set(theme_terms)) != len(theme_terms):
        raise ValueError("theme_terms must be distinct")
    themed = presence(documents, theme_terms)
    if not len(themed.data):
        raise ValueError("no document matched any theme")
    # indices are sorted, so a row's first stored column is its first theme
    theme_of = np.full(themed.shape[0], -1)
    hit = np.diff(themed.indptr) > 0
    theme_of[hit] = themed.indices[themed.indptr[:-1][hit]]
    terms = tuple(dict.fromkeys(candidates))
    present = presence(documents, terms)
    groups: dict[str, KeywordSet] = {}
    for j, theme in enumerate(theme_terms):
        members = theme_of == j
        top = ()
        if members.any() and not members.all():
            top = _top_k(present, members, terms, k, skip=theme)
        groups[theme] = KeywordSet(
            name=f"{name_prefix}_{theme}", terms=top, provenance="micc",
            params=(("theme", theme), ("k", str(k))),
        )
    return groups


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
    with reading(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("# "):
            raise ValueError("missing keyword-set header line")
        fields = lines[0][2:].split()
        if len(fields) < 2:
            raise ValueError("malformed keyword-set header")
        params = tuple(tuple(p.split("=", 1)) for p in fields[2:] if "=" in p)
        return KeywordSet(name=fields[0], terms=tuple(t for t in lines[1:] if t),
                          provenance=fields[1], params=params)
