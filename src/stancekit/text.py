"""Tokenization, frequency-ranked vocabularies, TF counts, TF-IDF cosine,
and the named column blocks of a feature layout.

Everything here works on one document at a time: a token list is counted
or IDF-weighted once, and the cosine combines two weighted documents. The
pipeline module places these per-document values into feature matrices,
whose columns it names with BlockSlice. All functions are pure and
deterministic; vocabularies and IDF tables are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

#: Lowercase word tokens, in text order.
TokenList = list[str]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> TokenList:
    """Lowercase and split on any non-alphanumeric character.

    >>> tokenize("it's a-b 42")
    ['it', 's', 'a', 'b', '42']
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Ordered list of distinct terms with a positional index."""

    terms: tuple[str, ...]
    source: str = "shared"

    def __post_init__(self):
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def build_vocabulary(
    token_lists: Iterable[TokenList],
    capacity: int,
    stopwords: frozenset[str] | set[str] = frozenset(),
    source: str = "shared",
) -> Vocabulary:
    """The `capacity` most frequent non-stopword terms, ties lexicographic."""
    if capacity < 1:
        raise ValueError(f"vocabulary capacity must be >= 1, got {capacity}")
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    ranked = sorted(
        (t for t in counts if t not in stopwords),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(terms=tuple(ranked[:capacity]), source=source)


def dump_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One term per line, order significant."""
    Path(path).write_text("".join(t + "\n" for t in vocab.terms), encoding="utf-8")


def load_vocabulary(path: str | Path, source: str = "shared") -> Vocabulary:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return Vocabulary(terms=tuple(t for t in lines if t), source=source)


def tf_counts(tokens: TokenList, vocab: Vocabulary) -> dict[int, int]:
    """Sparse raw term counts keyed by vocabulary position; OOV ignored."""
    index = vocab.index
    out: dict[int, int] = {}
    for tok in tokens:
        i = index.get(tok)
        if i is not None:
            out[i] = out.get(i, 0) + 1
    return out


@dataclass(frozen=True)
class IdfTable:
    """Smoothed inverse document frequencies aligned with a vocabulary.

    idf(t) = max(0, ln(N / (1 + df(t)))), so a term present in every
    document (or absent from the vocabulary) never gets negative weight.
    """

    vocab: Vocabulary
    values: np.ndarray
    document_count: int

    def idf(self, term: str) -> float:
        i = self.vocab.index.get(term)
        return float(self.values[i]) if i is not None else 0.0


def build_idf(documents: Iterable[TokenList], vocab: Vocabulary) -> IdfTable:
    """Document frequencies over `documents`, one set-membership per doc."""
    df = np.zeros(len(vocab), dtype=np.int64)
    n_docs = 0
    index = vocab.index
    for tokens in documents:
        n_docs += 1
        for i in {index[t] for t in set(tokens) if t in index}:
            df[i] += 1
    if n_docs < 1:
        raise ValueError("idf requires at least one document")
    values = np.maximum(0.0, np.log(n_docs / (1.0 + df)))
    return IdfTable(vocab=vocab, values=values, document_count=n_docs)


class TfidfDoc(NamedTuple):
    """IDF-weighted term counts of one document, keyed by vocabulary
    position in first-occurrence order, and their L2 norm."""

    weights: dict[int, float]
    norm: float


def tfidf_doc(tokens: TokenList, vocab: Vocabulary, idf: IdfTable) -> TfidfDoc:
    weights = {i: c * idf.values[i] for i, c in tf_counts(tokens, vocab).items()}
    return TfidfDoc(weights, math.sqrt(sum(v * v for v in weights.values())))


def tfidf_cosine(headline: TfidfDoc, body: TfidfDoc) -> float:
    """Cosine of two TF-IDF documents over the shared vocabulary.

    Returns 0.0 when either side has zero norm (no weighted overlap with the
    vocabulary); otherwise lies in [0, 1] since all weights are non-negative.
    The dot product runs over the smaller side in its key order.
    """
    if headline.norm == 0.0 or body.norm == 0.0:
        return 0.0
    a, b = headline.weights, body.weights
    if len(b) < len(a):
        a, b = b, a
    dot = sum(v * b[i] for i, v in a.items() if i in b)
    return dot / (headline.norm * body.norm)


class BlockSlice(NamedTuple):
    """One contiguous named block of columns in a feature matrix row."""

    name: str
    offset: int
    length: int
