"""Word-embedding features: centroid cosine and word mover's distance.

Embeddings load from the whitespace-separated text format (one term plus
its vector per line, optional "count dim" header).

Similarity features are document-level. embed_doc turns one document
into an EmbeddedDoc once: the centroid of its per-occurrence vectors and
its norm, plus, for the WMD modes, its nBOW side: the vectors of its most
frequent embedded terms, their normalized counts apportioned to integer
masses. Every pair kernel (centroid_cosine, wmd_relaxed, wmd_exact) is a function of
two such states and never touches the table, so a body shared by many
headlines, or scored in several similarity modes, is embedded once. A
document without any embedded token has no state (None), and its
similarity() value is 0.0.

WMD is the minimum cost of transporting one nBOW distribution into the
other, with Euclidean ground distance between embeddings. The solver
works on the integer masses, so the optimum is exact for the rounded
problem and reruns are bit-stable. It runs successive shortest paths;
each path search is a Bellman-Ford label correction done in whole-array
numpy steps over the m x n cost matrix, so its Python overhead grows with
the path length, not with the number of edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError

#: Integer mass assigned to each distribution before transport. Weights are
#: apportioned to parts of 1e9 so the rounding error per term stays below
#: 1e-9 and the solved cost matches the real-weight optimum to ~1e-9.
MASS_SCALE = 10**9

#: Documents fed to the transport solver keep only their most frequent
#: terms; beyond this size the cost matrix dominates runtime for no
#: measurable accuracy gain.
WMD_TERM_CAP = 200

CENTROID = "centroid"
WMD_EXACT = "wmd-exact"
WMD_RELAXED = "wmd-relaxed"
SIMILARITY_MODES = (CENTROID, WMD_EXACT, WMD_RELAXED)


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable term -> vector lookup with a dense matrix backing."""

    terms: tuple[str, ...]
    matrix: np.ndarray  # (len(terms), dim)
    skipped_duplicates: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "index", {term: i for i, term in enumerate(self.terms)}
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def __len__(self) -> int:
        return len(self.terms)

    def vector(self, term: str) -> np.ndarray:
        return self.matrix[self.index[term]]


def load_embeddings(
    path: str | Path, restrict_to: Iterable[str] | None = None
) -> EmbeddingTable:
    """Parse a text-format embedding file.

    restrict_to limits loading to the given terms, which keeps memory
    proportional to the working vocabulary instead of the full table; only
    kept lines have their components parsed, but every line's component
    count is checked. Duplicate terms keep the first vector seen.
    """
    keep = None if restrict_to is None else frozenset(restrict_to)
    terms: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    duplicates = 0
    dim: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            parts = raw.rstrip("\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    continue  # "count dim" header
            term, values = parts[0], parts[1:]
            if not values:
                raise DataFormatError(f"{path}:{lineno}: no vector components")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {dim} components, got {len(values)}"
                )
            if term in seen:
                duplicates += 1
                continue
            seen.add(term)
            if keep is not None and term not in keep:
                continue
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from None
            terms.append(term)
            rows.append(vec)
    if not terms:
        raise DataFormatError(f"{path}: no embedding vectors loaded")
    matrix = np.vstack(rows)
    return EmbeddingTable(
        terms=tuple(terms), matrix=matrix, skipped_duplicates=duplicates
    )


class EmbeddedDoc(NamedTuple):
    """Embedding state of one document, built once and shared by every
    pair and similarity mode the document takes part in."""

    centroid: np.ndarray  # (dim,) mean of the per-occurrence vectors
    norm: float  # L2 norm of the centroid
    vectors: np.ndarray | None  # (m, dim) vectors of the WMD_TERM_CAP most frequent terms
    masses: np.ndarray | None  # (m,) int64 nBOW masses of those terms, summing to MASS_SCALE


def embed_doc(
    tokens: Sequence[str], table: EmbeddingTable, nbow: bool = True
) -> EmbeddedDoc | None:
    """Embedding state of a token list; None when no token has a vector.

    The centroid averages one vector per embedded occurrence. The nBOW
    side (vectors and masses None unless nbow) keeps the WMD_TERM_CAP most
    frequent embedded terms (ties lexicographic) and apportions their
    normalized counts to integer masses.
    """
    index = table.index
    embedded = [t for t in tokens if t in index]
    if not embedded:
        return None
    centroid = np.mean(table.matrix[[index[t] for t in embedded]], axis=0)
    doc = EmbeddedDoc(centroid, float(np.linalg.norm(centroid)), None, None)
    if not nbow:
        return doc
    top = sorted(Counter(embedded).items(), key=lambda kv: (-kv[1], kv[0]))[:WMD_TERM_CAP]
    counts = np.array([count for _, count in top], dtype=np.float64)
    return doc._replace(
        vectors=table.matrix[[index[t] for t, _ in top]],
        masses=_apportion(counts / counts.sum()),
    )


def centroid_cosine(a: EmbeddedDoc, b: EmbeddedDoc) -> float:
    """Cosine between the two centroids; 0.0 when either is the zero vector."""
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    return float(np.dot(a.centroid, b.centroid) / (a.norm * b.norm))


def _apportion(weights: np.ndarray, scale: int = MASS_SCALE) -> np.ndarray:
    """Largest-remainder rounding of weights to integers summing to scale."""
    exact = weights * scale
    base = np.floor(exact).astype(np.int64)
    deficit = scale - int(base.sum())
    if deficit:
        remainders = exact - base
        # ties broken toward the lowest index for determinism
        order = np.lexsort((np.arange(len(weights)), -remainders))
        base[order[:deficit]] += 1
    return base


def _cost_matrix(a: EmbeddedDoc, b: EmbeddedDoc) -> np.ndarray:
    """Euclidean ground distances between the two documents' term vectors."""
    diff = a.vectors[:, None, :] - b.vectors[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _transport_min_cost(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> np.ndarray:
    """Exact min-cost transport via successive shortest paths.

    Integer supply and demand must balance. Each round labels the residual
    graph from every source with supply left, alternating whole-array
    relaxations of sinks (forward edges, cost c) and sources (backward
    edges along cells carrying flow, cost -c) until no label improves.
    The cheapest sink with demand left then receives the bottleneck flow
    along its path.
    """
    m, n = cost.shape
    if int(supply.sum()) != int(demand.sum()):
        raise ValueError("supply and demand must balance")
    flow = np.zeros((m, n), dtype=np.int64)
    left = supply.astype(np.int64).copy()
    need = demand.astype(np.int64).copy()
    rows, cols = np.arange(m), np.arange(n)
    # labels improve only by more than this: rounding in a path sum stays
    # far below it at any cost scale, so a zero-cost tie cannot close a
    # parent cycle that would keep the path walk below from ending
    tie = 1e-12 * float(cost.max())
    rounds = 0
    max_rounds = 64 * (m + n) + 256
    while left.any():
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("transport solver exceeded its iteration budget")
        src = np.where(left > 0, 0.0, np.inf)
        src_parent = np.full(m, -1)
        sink = np.full(n, np.inf)
        sink_parent = np.full(n, -1)
        backward = np.where(flow > 0, -cost, np.inf)
        while True:
            via = src[:, None] + cost
            best = via.argmin(axis=0)
            length = via[best, cols]
            better = length < sink - tie
            sink[better] = length[better]
            sink_parent[better] = best[better]
            via = sink + backward
            best = via.argmin(axis=1)
            length = via[rows, best]
            better = length < src - tie
            if not better.any():
                break
            src[better] = length[better]
            src_parent[better] = best[better]

        target = int(np.argmin(np.where(need > 0, sink, np.inf)))
        push = need[target]
        forward_i, forward_j, backward_i, backward_j = [], [], [], []
        j = target
        while True:
            i = sink_parent[j]
            forward_i.append(i)
            forward_j.append(j)
            j = src_parent[i]
            if j < 0:
                break
            backward_i.append(i)
            backward_j.append(j)
            push = min(push, flow[i, j])
        push = min(push, left[i])
        flow[forward_i, forward_j] += push
        flow[backward_i, backward_j] -= push
        left[i] -= push
        need[target] -= push
    return flow


def wmd_exact(a: EmbeddedDoc, b: EmbeddedDoc) -> float:
    """Word mover's distance between the nBOW sides of two documents."""
    cost = _cost_matrix(a, b)
    flow = _transport_min_cost(a.masses, b.masses, cost)
    mass_flow = flow / MASS_SCALE
    return float((mass_flow * cost).sum())


def wmd_relaxed(a: EmbeddedDoc, b: EmbeddedDoc) -> float:
    """Lower bound on wmd_exact: the tighter of the two one-sided relaxations.

    Each relaxation drops one marginal constraint, so all mass moves to its
    nearest counterpart. Both sides use the same integer masses as the
    exact solver, which guarantees relaxed <= exact.
    """
    cost = _cost_matrix(a, b)
    forward = float(a.masses / MASS_SCALE @ cost.min(axis=1))
    backward = float(b.masses / MASS_SCALE @ cost.min(axis=0))
    return max(forward, backward)


def similarity(head: EmbeddedDoc | None, body: EmbeddedDoc | None, mode: str) -> float:
    """Headline/body value of one similarity feature block.

    centroid mode gives the centroid cosine. WMD modes give 1/(1 + d) so
    larger values always mean more similar. A degenerate side (None: no
    embedded token) gives 0.0.
    """
    if mode not in SIMILARITY_MODES:
        raise ValueError(f"unknown similarity mode {mode!r}")
    if head is None or body is None:
        return 0.0
    if mode == CENTROID:
        return centroid_cosine(head, body)
    distance = wmd_exact(head, body) if mode == WMD_EXACT else wmd_relaxed(head, body)
    return 1.0 / (1.0 + distance)
