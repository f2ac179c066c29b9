"""Tokenization, frequency-ranked vocabularies, TF counts, term presence,
TF-IDF cosines, and the named column blocks of a feature layout.

The corpus module alone calls tokenize, once per distinct headline and body,
and interns each side's token lists into TermCounts, the only form of a
document that is kept: a CSR count matrix over the side's sorted terms, so
id order is term order. Every other function here is column arithmetic on
it. build_vocabulary ranks column sums; count_matrix selects and renumbers a
vocabulary's columns; presence reduces those to "document contains term":
the one place document frequencies (IDF, keyword selection) and keyword
indicator bits come from. tfidf_cosines weights the count rows of the
distinct headlines and bodies by IDF once and scores every instance from
them. A CSR matrix is a Csr, its bare arrays as scipy holds them. The
functions that gather, sort or sum its entries are numpy index arithmetic
that copies or adds whole values, so each result has the bits scipy's would;
no scipy matrix is built. The pipeline module places these per-document rows
into feature matrices, whose columns it names with BlockSlice.
dump_/load_vocabulary and dump_/load_idf own the sidecar file formats; all
else is pure and deterministic. Vocabularies and IDF tables are immutable
once built and safe to share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


def token_lines(lines: Iterable[str]) -> tuple[str, ...]:
    """The non-empty lines of a saved term list; ValueError on one that
    tokenize cannot yield, whose feature would match no column and read 0."""
    terms = tuple(t for t in lines if t)
    for term in terms:
        if not is_token(term):
            raise ValueError(f"{term!r} is not a token")
    return terms


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


class Csr(NamedTuple):
    """The arrays of a CSR matrix as a scipy CSR matrix holds them: row i
    stores data[indptr[i]:indptr[i + 1]] at the columns indices[...], in
    ascending order unless a function says otherwise; indptr and indices
    share one index dtype."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _index_dtype(*sizes: int) -> type:
    """The index dtype scipy gives a CSR matrix whose indices and entry
    count are below these sizes: int32 while they fit it."""
    return np.int32 if max(sizes, default=0) <= np.iinfo(np.int32).max else np.int64


def empty_csr(shape: tuple[int, int]) -> Csr:
    """A CSR matrix of the shape with no entries."""
    return Csr(np.zeros(0), np.zeros(0, np.int32), np.zeros(shape[0] + 1, np.int32), shape)


def entry_rows(mat: Csr) -> np.ndarray:
    """The row of each of mat's entries, in storage order."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


def take_rows(mat: Csr, rows: Sequence[int] | np.ndarray) -> Csr:
    """mat[rows] for integer rows (repeats allowed): the rows in the given
    order, each row's entries copied in storage order."""
    rows = np.asarray(rows, dtype=np.intp)
    first = mat.indptr[rows]
    length = mat.indptr[rows + 1] - first
    indptr = np.zeros(len(rows) + 1, dtype=mat.indptr.dtype)
    np.cumsum(length, out=indptr[1:])
    entries = np.repeat(first - indptr[:-1], length) + np.arange(indptr[-1])
    return Csr(mat.data[entries], mat.indices[entries], indptr, (len(rows), mat.shape[1]))


def column_sums(mat: Csr, weights: np.ndarray) -> np.ndarray:
    """weights @ mat: each column's entries times their rows' weights, added
    in storage order, the order scipy's CSC kernel adds them in."""
    sums = np.bincount(mat.indices, weights=mat.data * weights[entry_rows(mat)],
                       minlength=mat.shape[1])
    return sums.astype(np.float64, copy=False)  # bincount of no entries counts in int64


class TermCounts(NamedTuple):
    """A document-by-term count matrix: CSR row i counts the tokens of
    document i, column j is the term terms[j]. The terms are sorted, so id
    order is term order."""

    terms: tuple[str, ...]
    matrix: Csr

    def rows(self, rows: Sequence[int]) -> "TermCounts":
        """These counts' rows, in the given order, over the same term table."""
        return TermCounts(self.terms, take_rows(self.matrix, rows))


def intern(token_lists: Iterable[TokenList]) -> TermCounts:
    """The counts of the documents over their distinct terms, sorted: one
    entry per (document, term), as scipy's sum_duplicates leaves them.

    >>> docs = intern([["b", "x", "b"], [], ["a"]])
    >>> docs.terms, docs.matrix.data.tolist(), docs.matrix.indices.tolist()
    (('a', 'b', 'x'), [2.0, 1.0, 1.0], [1, 2, 0])
    >>> docs.matrix.indptr.tolist(), docs.matrix.shape
    ([0, 2, 2, 3], (3, 3))
    """
    shared: dict[str, str] = {}  # one string per term: a list costs one pointer per token
    token_lists = [list(map(shared.setdefault, tokens, tokens)) for tokens in token_lists]
    terms = tuple(sorted(shared))
    index = dict(zip(terms, range(len(terms))))
    lengths = [len(tokens) for tokens in token_lists]
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(token_lists)), dtype=np.intp,
                      count=sum(lengths))
    width = len(terms)
    keys, counts = np.unique(np.repeat(np.arange(len(lengths)), lengths) * width + ids,
                             return_counts=True)
    rows, columns = np.divmod(keys, max(width, 1))
    dtype = _index_dtype(len(keys), len(lengths), width)
    indptr = np.zeros(len(lengths) + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=len(lengths)), out=indptr[1:])
    return TermCounts(terms, Csr(counts.astype(np.float64), columns.astype(dtype), indptr,
                                 (len(lengths), width)))


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
        return Vocabulary(terms=token_lines(lines))


def count_matrix(docs: TermCounts, vocab: Vocabulary) -> Csr:
    """The columns of docs' terms that vocab lists, renumbered to vocabulary
    order: one CSR row of raw in-vocabulary term counts per document,
    indices sorted. A vocabulary term that no document holds gives an empty
    column.

    >>> mat = count_matrix(intern([["b", "x", "b", "a"], []]), Vocabulary(("a", "b", "c")))
    >>> mat.data.tolist(), mat.indices.tolist(), mat.indptr.tolist(), mat.shape
    ([1.0, 2.0], [0, 1], [0, 2, 2], (2, 3))
    """
    # each term's vocabulary column, -1 where the vocabulary lacks it
    column = np.fromiter(map(vocab.index.get, docs.terms, repeat(-1)), np.intp, len(docs.terms))
    mat = docs.matrix
    at = column[mat.indices]
    kept = at >= 0
    at = at[kept]
    # by row, then by column: the row-major keys are distinct, so any sort
    # gives this one order
    order = np.argsort(entry_rows(mat)[kept] * len(vocab) + at)
    dtype = _index_dtype(len(at), mat.shape[0], len(vocab))
    indptr = np.concatenate(([0], np.cumsum(kept)))[mat.indptr].astype(dtype)
    return Csr(mat.data[kept][order], at[order].astype(dtype), indptr,
               (mat.shape[0], len(vocab)))


def presence(docs: TermCounts, terms: Sequence[str]) -> Csr:
    """count_matrix over the distinct terms with every stored value 1.0:
    which document contains which term.

    >>> mat = presence(intern([["b", "x", "b"], ["a", "b"]]), ("a", "b", "c"))
    >>> mat.data.tolist(), mat.indices.tolist(), mat.indptr.tolist()
    ([1.0, 1.0, 1.0], [1, 0, 1], [0, 1, 3])
    """
    mat = count_matrix(docs, Vocabulary(tuple(terms)))
    return mat._replace(data=np.ones(len(mat.data)))


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
        if self.document_count < 1:
            raise ValueError("idf requires at least one document")


def build_idf(sides: Iterable[tuple[TermCounts, np.ndarray]], vocab: Vocabulary) -> IdfTable:
    """IDF from the document frequencies of vocab's terms over the rows of
    each (docs, weights) side, row i standing for weights[i] documents."""
    df, n_docs = np.zeros(len(vocab)), 0
    for docs, weights in sides:
        df += column_sums(presence(docs, vocab.terms), weights)
        n_docs += int(weights.sum())
    values = np.log(np.maximum(1.0, n_docs / (1.0 + df)))  # no log(0) when n_docs is 0
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


def _row_sums(mat: Csr, values: np.ndarray) -> np.ndarray:
    """Per-row sums of values aligned with mat.data, added one by one in storage order."""
    return np.bincount(entry_rows(mat), weights=values, minlength=mat.shape[0])


def tfidf_cosines(head_docs: TermCounts, body_docs: TermCounts, head_row: Sequence[int],
                  body_row: Sequence[int], idf: IdfTable) -> np.ndarray:
    """Cosine of the TF-IDF vectors of headline head_row[k] and body
    body_row[k] for each k, or 0.0 where either side has zero norm. A TF-IDF
    vector is a count_matrix row over idf.vocab times the IDF values. Its
    squares, and a pair's products, are summed one after another in
    ascending vocabulary order, which fixes every value's bits."""
    heads, bodies = (m._replace(data=m.data * idf.values[m.indices])
                     for m in (count_matrix(docs, idf.vocab) for docs in (head_docs, body_docs)))
    head_norm, body_norm = (np.sqrt(_row_sums(m, m.data * m.data)) for m in (heads, bodies))
    # one headline row per instance; its entries are looked up in the body
    # rows, which are not gathered per instance: that would cost memory.
    # Row-major keys ascend over the body entries, so a lookup is a search.
    at = take_rows(heads, head_row)
    width = bodies.shape[1]
    keys = entry_rows(bodies) * width + bodies.indices
    wanted = np.repeat(np.asarray(body_row, dtype=np.intp), np.diff(at.indptr)) * width
    wanted += at.indices
    found = np.searchsorted(keys, wanted)
    held = np.append(keys, -1)[found] == wanted
    dot = _row_sums(at, at.data * np.where(held, np.append(bodies.data, 0.0)[found], 0.0))
    norms = head_norm[head_row] * body_norm[body_row]
    return np.divide(dot, norms, out=np.zeros(len(norms)), where=norms != 0.0)


class BlockSlice(NamedTuple):
    """One contiguous named block of columns in a feature matrix row."""

    name: str
    offset: int
    length: int
