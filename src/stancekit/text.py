"""Tokenization, frequency-ranked vocabularies, TF counts, term presence,
TF-IDF cosine, and the named column blocks of a feature layout.

The corpus module alone calls tokenize, once per distinct headline and
body when a Corpus is built; every function here takes those token lists.
A token list is counted or IDF-weighted once, and the cosine combines two
weighted documents. count_matrix stacks the counts of many documents into
one CSR row each, and presence reduces that matrix to "document contains
term": the one place document frequencies (IDF, keyword selection) and
keyword indicator bits come from. The pipeline module places these
per-document rows into feature matrices, whose columns it names with
BlockSlice. All functions are pure and deterministic; vocabularies and IDF
tables are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

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
    return Vocabulary(terms=tuple(t for t in lines if t))


def tf_counts(tokens: TokenList, vocab: Vocabulary) -> dict[int, int]:
    """Sparse raw term counts keyed by vocabulary position; OOV ignored."""
    index = vocab.index
    out: dict[int, int] = {}
    for tok in tokens:
        i = index.get(tok)
        if i is not None:
            out[i] = out.get(i, 0) + 1
    return out


def count_matrix(token_lists: Iterable[TokenList], vocab: Vocabulary) -> sp.csr_matrix:
    """One CSR row of tf_counts per document, indices sorted.

    >>> count_matrix([["b", "x", "b", "a"], []], Vocabulary(("a", "b"))).toarray()
    array([[1., 2.],
           [0., 0.]])
    """
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        row = tf_counts(tokens, vocab)
        indices.extend(row)
        data.extend(row.values())
        indptr.append(len(indices))
    data = np.array(data, dtype=np.float64)
    mat = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, len(vocab)))
    mat.sort_indices()
    return mat


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
    document (or absent from the vocabulary) never gets negative weight.
    """

    vocab: Vocabulary
    values: np.ndarray
    document_count: int

    def idf(self, term: str) -> float:
        i = self.vocab.index.get(term)
        return float(self.values[i]) if i is not None else 0.0


def build_idf(documents: Iterable[TokenList], vocab: Vocabulary) -> IdfTable:
    """IDF from the document frequencies (presence column counts) of `documents`."""
    present = presence(documents, vocab.terms)
    n_docs = present.shape[0]
    df = np.bincount(present.indices, minlength=len(vocab))
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
