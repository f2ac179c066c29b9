"""Tokenization, frequency-ranked vocabularies, TF counts, term presence,
TF-IDF cosines, and the named column blocks of a feature layout.

The corpus module alone calls tokenize, once per distinct headline and
body when a Corpus is built; every function here takes those token lists.
count_matrix stacks the counts of many documents into one CSR row each.
presence reduces that matrix to "document contains term": the one place
document frequencies (IDF, keyword selection) and keyword indicator bits
come from. tfidf_cosines weights the count rows of the distinct headlines
and bodies by IDF once and scores every instance from them. The pipeline
module places these per-document rows into feature matrices, whose columns
it names with BlockSlice. All functions are pure and deterministic;
vocabularies and IDF tables are immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataFormatError

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

    def __post_init__(self):
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})
        if len(self.index) != len(self.terms):
            repeated = next(t for i, t in enumerate(self.terms) if self.index[t] != i)
            raise ValueError(f"vocabulary repeats the term {repeated!r}")

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def build_vocabulary(
    token_lists: Iterable[TokenList],
    capacity: int,
    stopwords: frozenset[str] | set[str] = frozenset(),
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
    return Vocabulary(terms=tuple(ranked[:capacity]))


def dump_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One term per line, order significant."""
    Path(path).write_text("".join(t + "\n" for t in vocab.terms), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        return Vocabulary(terms=tuple(t for t in lines if t))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def count_matrix(token_lists: Iterable[TokenList], vocab: Vocabulary) -> sp.csr_matrix:
    """One CSR row of raw in-vocabulary term counts per document, indices
    sorted; out-of-vocabulary tokens are ignored.

    >>> count_matrix([["b", "x", "b", "a"], []], Vocabulary(("a", "b"))).toarray()
    array([[1., 2.],
           [0., 0.]])
    """
    index = vocab.index
    indptr, indices = [0], []
    for tokens in token_lists:
        indices += [i for i in map(index.get, tokens) if i is not None]
        indptr.append(len(indices))
    ones = np.ones(len(indices))
    mat = sp.csr_matrix((ones, indices, indptr), shape=(len(indptr) - 1, len(vocab)))
    mat.sum_duplicates()  # one entry per (document, term), indices sorted
    return mat.copy()  # sum_duplicates may leave views of the longer buffers


def presence(token_lists: Iterable[TokenList], terms: Sequence[str]) -> sp.csr_matrix:
    """count_matrix over the distinct terms with every stored value 1.0:
    which document contains which term.

    >>> presence([["b", "x", "b"], ["a", "b"]], ("a", "b", "c")).toarray()
    array([[0., 1., 0.],
           [1., 1., 0.]])
    """
    mat = count_matrix(token_lists, Vocabulary(tuple(terms)))
    mat.data[:] = 1.0
    return mat


@dataclass(frozen=True)
class IdfTable:
    """Smoothed inverse document frequencies aligned with a vocabulary.

    idf(t) = max(0, ln(N / (1 + df(t)))), so a term present in every
    document never gets negative weight.
    """

    vocab: Vocabulary
    values: np.ndarray
    document_count: int

    def __post_init__(self):
        if len(self.values) != len(self.vocab):
            raise ValueError(f"{len(self.values)} values for {len(self.vocab)} terms")
        if not (np.isfinite(self.values) & (self.values >= 0.0)).all():
            raise ValueError("an IDF value is not finite and >= 0")


def build_idf(documents: Iterable[TokenList], vocab: Vocabulary) -> IdfTable:
    """IDF from the document frequencies (presence column counts) of `documents`."""
    present = presence(documents, vocab.terms)
    n_docs = present.shape[0]
    df = np.bincount(present.indices, minlength=len(vocab))
    if n_docs < 1:
        raise ValueError("idf requires at least one document")
    values = np.maximum(0.0, np.log(n_docs / (1.0 + df)))
    return IdfTable(vocab=vocab, values=values, document_count=n_docs)


def _row_sums(mat: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Per-row sums of values aligned with mat.data, added one by one in storage order."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return np.bincount(rows, weights=values, minlength=mat.shape[0])


def tfidf_cosines(head_tokens: Sequence[TokenList], body_tokens: Sequence[TokenList],
                  head_row: Sequence[int], body_row: Sequence[int], idf: IdfTable) -> np.ndarray:
    """Cosine of the TF-IDF vectors of headline head_row[k] and body
    body_row[k] for each k, or 0.0 where either side has zero norm. A TF-IDF
    vector is a count_matrix row over idf.vocab times the IDF values. Its
    squares, and a pair's products, are summed one after another in
    ascending vocabulary order, which fixes every value's bits."""
    heads, bodies = (count_matrix(docs, idf.vocab) for docs in (head_tokens, body_tokens))
    for mat in (heads, bodies):
        mat.data *= idf.values[mat.indices]
    head_norm, body_norm = (np.sqrt(_row_sums(m, m.data * m.data)) for m in (heads, bodies))
    # one headline row per instance; its entries are looked up in the body
    # rows, which are not gathered per instance: that would cost memory
    at = heads[head_row]
    body_of_entry = np.repeat(np.asarray(body_row, dtype=np.intp), np.diff(at.indptr))
    dot = _row_sums(at, at.data * np.asarray(bodies[body_of_entry, at.indices]).ravel())
    norms = head_norm[head_row] * body_norm[body_row]
    return np.divide(dot, norms, out=np.zeros(len(norms)), where=norms != 0.0)


class BlockSlice(NamedTuple):
    """One contiguous named block of columns in a feature matrix row."""

    name: str
    offset: int
    length: int
