"""Word-embedding features: centroid cosine and word mover's distance.

Embeddings load from the whitespace-separated text format (one term plus
its vector per line, optional "count dim" header).

embed_doc turns one document into an EmbeddedDoc once: the centroid of
its per-occurrence vectors and its norm, plus, for the WMD modes, its nBOW
side: the vectors of its most frequent embedded terms and their normalized
counts apportioned to integer masses. The pair kernels read two such
states and never the table: centroid_cosine, and _wmd_exact and
_wmd_relaxed, which also read the pair's _cost_matrix.

similarities() scores the similarity columns of a featurization from such
states, embedded once per document, and one cost matrix per distinct pair.

WMD (Kusner et al. 2015) is the least cost of moving one nBOW side onto
the other, with Euclidean ground distances; a transportation simplex
solves it exactly on the integer masses, so reruns are bit-stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, SolverBudgetError, reading

#: Integer mass assigned to each distribution before transport. Weights are
#: apportioned to parts of 1e9 so the rounding error per term stays below
#: 1e-9 and the solved cost matches the real-weight optimum to ~1e-9.
MASS_SCALE = 10**9

#: Documents fed to the transport solver keep only their most frequent
#: terms; beyond this size the cost matrix dominates runtime for no
#: measurable accuracy gain.
WMD_TERM_CAP = 200

#: Pivots per cost-matrix row and column before the solver raises SolverBudgetError.
PIVOTS_PER_LINE = 64

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
        object.__setattr__(self, "index", {term: i for i, term in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)


def load_embeddings(
    path: str | Path, restrict_to: Iterable[str] | None = None
) -> EmbeddingTable:
    """Parse a text-format embedding file.

    restrict_to limits loading to the given terms, which keeps memory
    proportional to the working vocabulary instead of the full table; only
    kept lines have their components parsed and checked to be finite, but
    every line's component count is checked. Duplicate terms keep the first
    vector seen.
    """
    keep = None if restrict_to is None else frozenset(restrict_to)
    terms: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    duplicates = 0
    dim: int | None = None
    with open(path, encoding="utf-8-sig") as handle, reading(path):  # drops a BOM
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
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite vector component")
            terms.append(term)
            rows.append(vec)
    if not terms:
        raise DataFormatError(f"{path}: no embedding vectors loaded")
    return EmbeddingTable(tuple(terms), np.vstack(rows), skipped_duplicates=duplicates)


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


def _transport_min_cost(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Exact min-cost transport plan by the transportation simplex.

    Integer supply and demand must balance. The start takes cells in stable
    cost order, gives each min(left, need) and closes its row if used up and
    not the last open row, else its column: m + n - 1 basic cells, zero-flow
    ones included, that join rows and columns in a tree. Each pivot enters
    the first cell of least c - u - v (u, v: potentials off the tree) while
    that is negative, shifts the least flow of the cycle's minus cells round
    it, drops the first minus cell left empty and rereads the moved subtree.

    >>> _transport_min_cost(np.array([3, 1]), np.array([2, 2]),
    ...                     np.array([[1.0, 2.0], [1.0, 5.0]]))
    array([[1, 2],
           [1, 0]])
    """
    m, n = cost.shape
    if int(supply.sum()) != int(demand.sum()):
        raise ValueError("supply and demand must balance")
    left = supply.tolist() + demand.tolist()  # by node: row i is i, column j is m + j
    is_open, open_rows = [True] * (m + n), m
    basis: dict[tuple[int, int], int] = {}  # (row node, column node) -> flow
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, k = cell // n, m + cell % n
        if is_open[i] and is_open[k]:
            basis[i, k] = q = min(left[i], left[k])
            left[i] -= q
            left[k] -= q
            row_done = left[i] == 0 and open_rows > 1
            is_open[i if row_done else k] = False
            open_rows -= row_done
            if len(basis) == m + n - 1:
                break
    adjacent: list[set[int]] = [set() for _ in range(m + n)]
    toggled = list(basis)  # tree edges to flip: the start basis, then each pivot's two
    costs = cost.tolist()
    tol = -1e-12 * float(cost.max())  # below any rounding of a basic cell's c - u - v
    potential, parent, depth = [0.0] * (m + n), [-1] * (m + n), [0] * (m + n)
    stack = [(0, k) for i, k in basis if i == 0]  # tree edges (a, b): b hangs from a
    for _ in range(PIVOTS_PER_LINE * (m + n) + 1):
        for i, k in toggled:
            adjacent[i] ^= {k}
            adjacent[k] ^= {i}
        while stack:
            a, b = stack.pop()
            parent[b], depth[b] = a, depth[a] + 1
            potential[b] = (costs[a][b - m] if a < m else costs[b][a - m]) - potential[a]
            for x in adjacent[b]:
                if x != a:
                    stack.append((b, x))
        reduced = cost - np.array(potential[:m])[:, None] - np.array(potential[m:])
        enter = int(reduced.argmin())
        if reduced.flat[enter] >= tol:
            break
        # the cycle: entering cell, up from its row to the common ancestor, down to its column
        entering = a, b = enter // n, m + enter % n
        row_path, col_path = [], []
        while a != b:
            if depth[a] >= depth[b]:
                row_path.append((a, parent[a]) if a < m else (parent[a], a))
                a = parent[a]
            else:
                col_path.append((b, parent[b]) if b < m else (parent[b], b))
                b = parent[b]
        cycle = [entering] + row_path + col_path[::-1]  # plus, minus, plus, ...
        leave = min(cycle[1::2], key=basis.__getitem__)
        theta = basis[leave]
        basis[entering] = 0
        for t, cell in enumerate(cycle):
            basis[cell] += -theta if t % 2 else theta
        del basis[leave]
        toggled = [leave, entering]
        # the subtree the leaving edge cuts off hangs from the entering one
        stack = [entering[::-1] if cycle.index(leave) <= len(row_path) else entering]
    else:
        raise SolverBudgetError("transport solver exceeded its iteration budget")
    flow = np.zeros((m, n), dtype=np.int64)
    for (i, k), q in basis.items():
        flow[i, k - m] = q
    return flow


def _wmd_exact(a: EmbeddedDoc, b: EmbeddedDoc, cost: np.ndarray) -> float:
    """Word mover's distance between the nBOW sides of two documents, given
    their _cost_matrix."""
    return float((_transport_min_cost(a.masses, b.masses, cost) / MASS_SCALE * cost).sum())


def _wmd_relaxed(a: EmbeddedDoc, b: EmbeddedDoc, cost: np.ndarray) -> float:
    """Lower bound on _wmd_exact: the tighter of the two one-sided relaxations.

    Each relaxation drops one marginal constraint, so all mass moves to its
    nearest counterpart. Both read the exact solver's integer masses, so
    relaxed <= exact.
    """
    forward = float(a.masses / MASS_SCALE @ cost.min(axis=1))
    backward = float(b.masses / MASS_SCALE @ cost.min(axis=0))
    return max(forward, backward)


_WMD = {WMD_EXACT: _wmd_exact, WMD_RELAXED: _wmd_relaxed}


def similarities(head_tokens: Sequence[Sequence[str]], body_tokens: Sequence[Sequence[str]],
                 head_row: Sequence[int], body_row: Sequence[int], table: EmbeddingTable,
                 modes: Sequence[str]) -> np.ndarray:
    """Column j of row k is the modes[j] similarity of headline head_row[k]
    and body body_row[k]: the centroid cosine, or 1/(1 + d) for a WMD mode's
    distance d, so larger always means more similar; 0.0 where a side has
    no embedded token. Each distinct pair is scored once, and its WMD modes
    read one cost matrix. A body's state lives only while its pairs are."""
    for mode in modes:
        if mode not in SIMILARITY_MODES:
            raise ValueError(f"unknown similarity mode {mode!r}")
    nbow = any(mode in _WMD for mode in modes)  # only WMD modes read the nBOW half
    pairs = sorted(set(zip(body_row, head_row)))  # distinct, grouped by body
    heads = [embed_doc(tokens, table, nbow) for tokens in head_tokens]
    values = np.zeros((len(pairs), len(modes)))
    last = None
    for k, (b, h) in enumerate(pairs):
        if b != last:
            last, body = b, embed_doc(body_tokens[b], table, nbow)
        head = heads[h]
        if head is not None and body is not None:
            cost = _cost_matrix(head, body) if nbow else None
            values[k] = [centroid_cosine(head, body) if mode == CENTROID
                         else 1.0 / (1.0 + _WMD[mode](head, body, cost)) for mode in modes]
    row = {pair: k for k, pair in enumerate(pairs)}
    return values[[row[pair] for pair in zip(body_row, head_row)]]
