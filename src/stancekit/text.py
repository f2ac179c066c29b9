"""Tokenization, frequency-ranked vocabularies, TF counts, term presence,
TF-IDF cosines, and the named column blocks of a feature layout.

The corpus module alone calls tokenize, once per distinct headline and
body, and interns each side's token lists into TermCounts: a CSR count
matrix over the side's sorted terms, so id order is term order. Every other
function here is column arithmetic on it. build_vocabulary ranks column
sums; count_matrix selects and renumbers a vocabulary's columns; presence
reduces those to "document contains term": the one place document
frequencies (IDF, keyword selection) and keyword indicator bits come from.
tfidf_cosines weights the count rows of the distinct headlines and bodies
by IDF once and scores every instance from them. The pipeline
module places these per-document rows into feature matrices, whose columns
it names with BlockSlice. dump_/load_vocabulary and dump_/load_idf own the
sidecar file formats; all else is pure and deterministic. Vocabularies and
IDF tables are immutable once built and safe to share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import reading

#: Lowercase word tokens, in text order.
TokenList = list[str]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> TokenList:
    """Lowercase and split on any non-alphanumeric character.

    >>> tokenize("it's a-b 42")
    ['it', 's', 'a', 'b', '42']
    """
    return _TOKEN_RE.findall(text.lower())


def is_token(term: str) -> bool:
    """Whether tokenize can yield term: lowercase and one match of its pattern.

    >>> [is_token(t) for t in ("fake", "42", "Fake", "fraud word", "can't", "a_b")]
    [True, True, False, False, False, False]
    """
    return term == term.lower() and _TOKEN_RE.fullmatch(term) is not None


@dataclass(frozen=True)
class Vocabulary:
    """Ordered list of distinct terms with a positional index."""

    terms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", dict(zip(self.terms, range(len(self.terms)))))
        if len(self.index) != len(self.terms):
            repeated = next(t for i, t in enumerate(self.terms) if self.index[t] != i)
            raise ValueError(f"vocabulary repeats the term {repeated!r}")

    def __len__(self) -> int:
        return len(self.terms)


class TermCounts(NamedTuple):
    """A document-by-term count matrix: CSR row i counts the tokens of
    document i, column j is the term terms[j]. The terms are sorted, so id
    order is term order."""

    terms: tuple[str, ...]
    matrix: sp.csr_matrix

    def rows(self, rows: Sequence[int]) -> "TermCounts":
        """These counts' rows, in the given order, over the same term table."""
        return TermCounts(self.terms, self.matrix[np.asarray(rows, dtype=np.intp)])


def intern(token_lists: Collection[TokenList]) -> TermCounts:
    """The counts of the documents over their distinct terms, sorted.

    >>> docs = intern([["b", "x", "b"], [], ["a"]])
    >>> docs.terms, docs.matrix.toarray().tolist()
    (('a', 'b', 'x'), [[0.0, 2.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    """
    terms = tuple(sorted(set().union(*token_lists)))
    index = dict(zip(terms, range(len(terms))))
    lengths = [len(tokens) for tokens in token_lists]
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(token_lists)), dtype=np.intp,
                      count=sum(lengths))
    mat = sp.csr_matrix((np.ones(len(ids)), ids, np.cumsum([0] + lengths)),
                        shape=(len(lengths), len(terms)))
    mat.sum_duplicates()  # one entry per (document, term), indices sorted
    return TermCounts(terms, mat)


def build_vocabulary(terms: Sequence[str], totals: np.ndarray, capacity: int,
                     stopwords: frozenset[str] | set[str] = frozenset()) -> Vocabulary:
    """The `capacity` non-stopword terms of a sorted term table with the
    highest totals (one per term, say a column sum of counts), ties in
    table order, so lexicographic; a term with total 0 is left out."""
    if capacity < 1:
        raise ValueError(f"vocabulary capacity must be >= 1, got {capacity}")
    stop = np.fromiter(map(stopwords.__contains__, terms), dtype=bool, count=len(terms))
    ids = np.flatnonzero((totals > 0) & ~stop)
    ranked = ids[np.argsort(-totals[ids], kind="stable")[:capacity]]
    return Vocabulary(terms=tuple(map(terms.__getitem__, ranked.tolist())))


def dump_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One term per line, order significant."""
    Path(path).write_text("".join(t + "\n" for t in vocab.terms), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    with reading(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return Vocabulary(terms=tuple(t for t in lines if t))


def count_matrix(docs: TermCounts, vocab: Vocabulary) -> sp.csr_matrix:
    """The columns of docs' terms that vocab lists, renumbered to vocabulary
    order: one CSR row of raw in-vocabulary term counts per document,
    indices sorted. A vocabulary term that no document holds gives an empty
    column.

    >>> count_matrix(intern([["b", "x", "b", "a"], []]), Vocabulary(("a", "b", "c"))).toarray()
    array([[1., 2., 0.],
           [0., 0., 0.]])
    """
    # each term's vocabulary column, -1 where the vocabulary lacks it
    column = np.fromiter(map(vocab.index.get, docs.terms, repeat(-1)), np.intp, len(docs.terms))
    mat = docs.matrix
    at = column[mat.indices]
    kept = at >= 0
    indptr = np.concatenate(([0], np.cumsum(kept)))[mat.indptr]
    out = sp.csr_matrix((mat.data[kept], at[kept], indptr), shape=(mat.shape[0], len(vocab)))
    out.sort_indices()
    return out


def presence(docs: TermCounts, terms: Sequence[str]) -> sp.csr_matrix:
    """count_matrix over the distinct terms with every stored value 1.0:
    which document contains which term.

    >>> presence(intern([["b", "x", "b"], ["a", "b"]]), ("a", "b", "c")).toarray()
    array([[0., 1., 0.],
           [1., 1., 0.]])
    """
    mat = count_matrix(docs, Vocabulary(tuple(terms)))
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


def build_idf(sides: Iterable[tuple[TermCounts, np.ndarray]], vocab: Vocabulary) -> IdfTable:
    """IDF from the document frequencies of vocab's terms over the rows of
    each (docs, weights) side, row i standing for weights[i] documents."""
    df, n_docs = np.zeros(len(vocab)), 0
    for docs, weights in sides:
        df += weights @ presence(docs, vocab.terms)
        n_docs += int(weights.sum())
    if n_docs < 1:
        raise ValueError("idf requires at least one document")
    values = np.maximum(0.0, np.log(n_docs / (1.0 + df)))
    return IdfTable(vocab=vocab, values=values, document_count=n_docs)


def dump_idf(idf: IdfTable, path: str | Path) -> None:
    """A document_count=N header, then one value per vocabulary term, in order."""
    lines = [f"document_count={idf.document_count}", *(repr(float(v)) for v in idf.values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_idf(path: str | Path, vocab: Vocabulary) -> IdfTable:
    """The IdfTable of vocab that dump_idf wrote to path."""
    with reading(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("document_count="):
            raise ValueError("missing document_count header")
        return IdfTable(vocab=vocab, values=np.array([float(v) for v in lines[1:]]),
                        document_count=int(lines[0].partition("=")[2]))


def _row_sums(mat: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Per-row sums of values aligned with mat.data, added one by one in storage order."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return np.bincount(rows, weights=values, minlength=mat.shape[0])


def tfidf_cosines(head_docs: TermCounts, body_docs: TermCounts, head_row: Sequence[int],
                  body_row: Sequence[int], idf: IdfTable) -> np.ndarray:
    """Cosine of the TF-IDF vectors of headline head_row[k] and body
    body_row[k] for each k, or 0.0 where either side has zero norm. A TF-IDF
    vector is a count_matrix row over idf.vocab times the IDF values. Its
    squares, and a pair's products, are summed one after another in
    ascending vocabulary order, which fixes every value's bits."""
    heads, bodies = (count_matrix(docs, idf.vocab) for docs in (head_docs, body_docs))
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
