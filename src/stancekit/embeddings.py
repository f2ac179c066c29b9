"""Word-embedding features: centroid cosine and word mover's distance.

Embeddings load from the whitespace-separated text format (one term plus
its vector per line, optional "count dim" header). Documents become nBOW
distributions: normalized counts over the terms that have a vector.

WMD is the minimum cost of transporting one nBOW distribution into the
other, with Euclidean ground distance between embeddings. The solver
works on integer masses (largest-remainder apportionment of the weights)
so the optimum is exact for the rounded problem and reruns are bit-stable.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError, EmptyDistributionError

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
    proportional to the working vocabulary instead of the full table.
    Duplicate terms keep the first vector seen.
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
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from None
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {dim} components, got {len(vec)}"
                )
            if term in seen:
                duplicates += 1
                continue
            seen.add(term)
            if keep is not None and term not in keep:
                continue
            terms.append(term)
            rows.append(vec)
    if not terms:
        raise DataFormatError(f"{path}: no embedding vectors loaded")
    matrix = np.vstack(rows)
    return EmbeddingTable(
        terms=tuple(terms), matrix=matrix, skipped_duplicates=duplicates
    )


@dataclass(frozen=True)
class NBowDistribution:
    """Normalized bag of words restricted to embedded terms."""

    terms: tuple[str, ...]
    weights: np.ndarray  # (len(terms),), positive, sums to 1

    def __post_init__(self):
        if len(self.terms) != len(self.weights):
            raise ValueError("terms and weights length mismatch")
        if len(self.terms) == 0:
            raise EmptyDistributionError("empty nBOW distribution")
        if not np.all(self.weights > 0):
            raise ValueError("nBOW weights must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("nBOW weights must sum to 1")


def nbow(
    tokens: Sequence[str], table: EmbeddingTable, max_terms: int | None = None
) -> NBowDistribution:
    """Build the nBOW distribution of tokens that exist in the table.

    max_terms keeps only the most frequent terms (ties lexicographic)
    before normalizing. Raises EmptyDistributionError when no token is
    embedded.
    """
    counts = Counter(t for t in tokens if t in table)
    if not counts:
        raise EmptyDistributionError("no tokens with embeddings")
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_terms is not None:
        items = items[:max_terms]
    terms = tuple(term for term, _ in items)
    raw = np.array([count for _, count in items], dtype=np.float64)
    return NBowDistribution(terms=terms, weights=raw / raw.sum())


def centroid_cosine(
    tokens_a: Sequence[str], tokens_b: Sequence[str], table: EmbeddingTable
) -> float:
    """Cosine between per-occurrence mean vectors; 0.0 when degenerate."""
    vecs_a = [table.vector(t) for t in tokens_a if t in table]
    vecs_b = [table.vector(t) for t in tokens_b if t in table]
    if not vecs_a or not vecs_b:
        return 0.0
    ca = np.mean(vecs_a, axis=0)
    cb = np.mean(vecs_b, axis=0)
    na = float(np.linalg.norm(ca))
    nb = float(np.linalg.norm(cb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(ca, cb) / (na * nb))


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


def _cost_matrix(
    dist_a: NBowDistribution, dist_b: NBowDistribution, table: EmbeddingTable
) -> np.ndarray:
    va = np.vstack([table.vector(t) for t in dist_a.terms])
    vb = np.vstack([table.vector(t) for t in dist_b.terms])
    diff = va[:, None, :] - vb[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@dataclass(frozen=True)
class TransportPlan:
    """Optimal flows in probability-mass units plus the realized cost.

    Row sums match the source weights and column sums the sink weights to
    within the apportionment resolution (1/MASS_SCALE per cell).
    """

    source: NBowDistribution
    sink: NBowDistribution
    flow: np.ndarray  # (m, n), nonnegative
    cost: float


def _transport_min_cost(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> np.ndarray:
    """Exact min-cost transport via successive shortest paths.

    Integer supply and demand must balance. Node potentials keep reduced
    costs nonnegative so each augmentation is one Dijkstra pass over the
    bipartite residual graph.
    """
    m, n = cost.shape
    if int(supply.sum()) != int(demand.sum()):
        raise ValueError("supply and demand must balance")
    flow = np.zeros((m, n), dtype=np.int64)
    left = supply.astype(np.int64).copy()
    need = demand.astype(np.int64).copy()
    pot = np.zeros(m + n)
    guard = 0
    max_rounds = 64 * (m + n) + 256
    while left.any():
        guard += 1
        if guard > max_rounds:
            raise RuntimeError("transport solver exceeded its iteration budget")
        dist = np.full(m + n, np.inf)
        parent = np.full(m + n, -1, dtype=np.int64)
        heap: list[tuple[float, int]] = []
        for i in range(m):
            if left[i] > 0:
                dist[i] = 0.0
                heapq.heappush(heap, (0.0, i))
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node] + 1e-15:
                continue
            if node < m:
                i = node
                reduced = cost[i] + pot[i] - pot[m:]
                for j in range(n):
                    nd = d + max(reduced[j], 0.0)
                    if nd < dist[m + j] - 1e-15:
                        dist[m + j] = nd
                        parent[m + j] = i
                        heapq.heappush(heap, (nd, m + j))
            else:
                j = node - m
                for i in range(m):
                    if flow[i, j] > 0:
                        nd = d + max(-cost[i, j] - pot[i] + pot[m + j], 0.0)
                        if nd < dist[i] - 1e-15:
                            dist[i] = nd
                            parent[i] = m + j
                            heapq.heappush(heap, (nd, i))
        sinks = [m + j for j in range(n) if need[j] > 0 and np.isfinite(dist[m + j])]
        if not sinks:
            raise RuntimeError("transport solver found no augmenting path")
        target = min(sinks, key=lambda node: (dist[node], node))

        bottleneck = need[target - m]
        node = target
        while parent[node] != -1:
            prev = int(parent[node])
            if node >= m:  # forward edge prev -> node
                pass
            else:  # backward edge: undoing flow[node, prev - m]
                bottleneck = min(bottleneck, flow[node, prev - m])
            node = prev
        bottleneck = min(bottleneck, left[node])

        node = target
        while parent[node] != -1:
            prev = int(parent[node])
            if node >= m:
                flow[prev, node - m] += bottleneck
            else:
                flow[node, prev - m] -= bottleneck
            node = prev
        left[node] -= bottleneck
        need[target - m] -= bottleneck
        # unreached nodes take the target distance, keeping reduced costs >= 0
        pot += np.minimum(dist, dist[target])
    return flow


def wmd_exact(
    dist_a: NBowDistribution, dist_b: NBowDistribution, table: EmbeddingTable
) -> tuple[float, TransportPlan]:
    """Word mover's distance and the optimal transport plan."""
    cost = _cost_matrix(dist_a, dist_b, table)
    supply = _apportion(dist_a.weights)
    demand = _apportion(dist_b.weights)
    flow = _transport_min_cost(supply, demand, cost)
    mass_flow = flow / MASS_SCALE
    distance = float((mass_flow * cost).sum())
    plan = TransportPlan(source=dist_a, sink=dist_b, flow=mass_flow, cost=distance)
    return distance, plan


def wmd_relaxed(
    dist_a: NBowDistribution, dist_b: NBowDistribution, table: EmbeddingTable
) -> float:
    """Lower bound on wmd_exact: the tighter of the two one-sided relaxations.

    Each relaxation drops one marginal constraint, so all mass moves to its
    nearest counterpart. Both sides use the same apportioned masses as the
    exact solver, which guarantees relaxed <= exact.
    """
    cost = _cost_matrix(dist_a, dist_b, table)
    supply = _apportion(dist_a.weights) / MASS_SCALE
    demand = _apportion(dist_b.weights) / MASS_SCALE
    forward = float(supply @ cost.min(axis=1))
    backward = float(demand @ cost.min(axis=0))
    return max(forward, backward)


def similarity_block(
    head_tokens: Sequence[str], body_tokens: Sequence[str], table: EmbeddingTable, mode: str
) -> float:
    """Headline/body similarity value of one similarity feature block.

    centroid mode gives the centroid cosine. WMD modes give 1/(1 + d) so
    larger values always mean more similar. Degenerate inputs (no embedded
    token on either side) give 0.0.
    """
    if mode not in SIMILARITY_MODES:
        raise ValueError(f"unknown similarity mode {mode!r}")
    if mode == CENTROID:
        return centroid_cosine(head_tokens, body_tokens, table)
    try:
        da = nbow(head_tokens, table, max_terms=WMD_TERM_CAP)
        db = nbow(body_tokens, table, max_terms=WMD_TERM_CAP)
    except EmptyDistributionError:
        return 0.0
    if mode == WMD_EXACT:
        distance, _ = wmd_exact(da, db, table)
    else:
        distance = wmd_relaxed(da, db, table)
    return 1.0 / (1.0 + distance)
