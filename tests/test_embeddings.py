"""Embedding table loading, nBOW, centroid cosine, and word mover's distance.

The WMD oracle enumerates basic feasible solutions of the transportation
polytope directly: every spanning set of m+n-1 cells whose balance system
has a unique non-negative solution is a vertex, and the LP optimum is the
cheapest vertex. Kept deliberately independent of the shipped solver.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancekit.corpus import Instance, make_corpus
from stancekit.embeddings import (
    CENTROID,
    MASS_SCALE,
    SIMILARITY_MODES,
    WMD_EXACT,
    WMD_RELAXED,
    EmbeddingTable,
    NBowDistribution,
    _apportion,
    centroid_cosine,
    load_embeddings,
    nbow,
    similarity_block,
    wmd_exact,
    wmd_relaxed,
)
from stancekit.errors import DataFormatError, EmptyDistributionError
from stancekit.pipeline import BlockSpec, FittedPipeline, PipelineSpec


def table_from(mapping: dict[str, list[float]]) -> EmbeddingTable:
    terms = tuple(mapping)
    matrix = np.array([mapping[t] for t in terms], dtype=np.float64)
    return EmbeddingTable(terms=terms, matrix=matrix)


def brute_force_transport(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> float:
    """Cheapest basic feasible solution of the balanced transportation LP."""
    m, n = cost.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    n_basic = m + n - 1
    balance = np.zeros((m + n, m * n))
    for k, (i, j) in enumerate(cells):
        balance[i, k] = 1.0
        balance[m + j, k] = 1.0
    rhs = np.concatenate([supply, demand])
    flat_cost = cost.reshape(-1)
    best = math.inf
    for subset in itertools.combinations(range(m * n), n_basic):
        columns = balance[: m + n - 1, subset]
        try:
            x = np.linalg.solve(columns, rhs[: m + n - 1])
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        full = np.zeros(m * n)
        full[list(subset)] = x
        if not np.allclose(balance @ full, rhs, atol=1e-9):
            continue
        best = min(best, float(flat_cost[list(subset)] @ x))
    return best


def random_instance(rng: np.random.Generator, max_side: int = 4):
    """Random pair of nBOW distributions sharing one embedding table."""
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    dim = int(rng.integers(2, 5))
    names = [f"t{k}" for k in range(m + n)]
    vectors = {name: list(rng.normal(0.0, 2.0, size=dim)) for name in names}
    table = table_from(vectors)

    def dist(term_names):
        counts = rng.integers(1, 6, size=len(term_names)).astype(np.float64)
        return NBowDistribution(terms=tuple(term_names), weights=counts / counts.sum())

    return dist(names[:m]), dist(names[m:]), table


class TestLoader:
    def test_header_form(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.dim == 3
        assert list(table.vector("a")) == [1.0, 0.0, 0.0]

    def test_headerless_form(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2 and table.dim == 2

    def test_inconsistent_dim_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 3\na 1 0 0\nb 0 1\nc 0 0 1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vec\.txt:3"):
            load_embeddings(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 oops\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vec\.txt:1"):
            load_embeddings(path)

    def test_restrict_to(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path, restrict_to={"a"})
        assert len(table) == 1
        assert "b" not in table

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\na 9 9\nb 0 1\n", encoding="utf-8")
        table = load_embeddings(path)
        assert list(table.vector("a")) == [1.0, 0.0]
        assert table.skipped_duplicates == 1

    def test_nothing_loaded(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_embeddings(path)

    def test_unknown_term_lookup(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        with pytest.raises(KeyError):
            table.vector("zz")


class TestNbow:
    TABLE = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})

    def test_two_to_one(self):
        dist = nbow(["a", "a", "b"], self.TABLE)
        assert dist.terms == ("a", "b")
        assert list(dist.weights) == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_single_token(self):
        dist = nbow(["a"], self.TABLE)
        assert list(dist.weights) == [1.0]

    def test_all_out_of_table(self):
        with pytest.raises(EmptyDistributionError):
            nbow(["zz", "qq"], self.TABLE)

    def test_max_terms_keeps_most_frequent(self):
        dist = nbow(["c", "b", "b", "a", "a"], self.TABLE, max_terms=2)
        # counts a:2 b:2 c:1; tie a<b lexicographic
        assert dist.terms == ("a", "b")
        assert float(dist.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            NBowDistribution(terms=("a", "b"), weights=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            NBowDistribution(terms=("a",), weights=np.array([1.0, 0.0]))
        with pytest.raises(EmptyDistributionError):
            NBowDistribution(terms=(), weights=np.zeros(0))


class TestCentroid:
    TABLE = table_from({"x": [1.0, 0.0], "y": [0.0, 1.0]})

    def test_same_single_token(self):
        assert centroid_cosine(["x"], ["x"], self.TABLE) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert centroid_cosine(["x"], ["y"], self.TABLE) == pytest.approx(0.0, abs=1e-12)

    def test_hand_mean(self):
        # side B mean = (0.5, 0.5); cos with (1, 0) = 1/sqrt(2)
        got = centroid_cosine(["x"], ["x", "y"], self.TABLE)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_degenerate_sides(self):
        assert centroid_cosine([], ["x"], self.TABLE) == 0.0
        assert centroid_cosine(["unseen"], ["x"], self.TABLE) == 0.0


class TestApportion:
    def test_sums_to_scale(self):
        weights = np.array([1 / 3, 1 / 3, 1 / 3])
        masses = _apportion(weights)
        assert int(masses.sum()) == MASS_SCALE

    def test_remainder_tie_goes_to_lowest_index(self):
        masses = _apportion(np.array([0.5, 0.5]), scale=5)
        assert list(masses) == [3, 2]

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=8),
        st.integers(10, 10_000),
    )
    def test_rounding_error_below_one_unit(self, counts, scale):
        weights = np.array(counts, dtype=np.float64)
        weights /= weights.sum()
        masses = _apportion(weights, scale=scale)
        assert int(masses.sum()) == scale
        assert np.all(np.abs(masses - weights * scale) < 1.0)


class TestWmdExact:
    def test_identity_zero(self):
        table = table_from({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        dist = nbow(["a", "b", "b"], table)
        distance, plan = wmd_exact(dist, dist, table)
        assert distance == 0.0
        assert plan.cost == distance

    def test_single_vs_single_euclidean(self):
        table = table_from({"a": [0.0, 0.0], "b": [1.0, 2.0]})
        da, db = nbow(["a"], table), nbow(["b"], table)
        distance, _ = wmd_exact(da, db, table)
        assert distance == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_three_by_three_toy_matches_enumeration(self):
        table = table_from(
            {
                "p": [0.0, 0.0], "q": [2.0, 0.0], "r": [0.0, 2.0],
                "u": [1.0, 1.0], "v": [3.0, 1.0], "w": [-1.0, 2.0],
            }
        )
        da = NBowDistribution(("p", "q", "r"), np.array([0.5, 0.25, 0.25]))
        db = NBowDistribution(("u", "v", "w"), np.array([0.25, 0.25, 0.5]))
        distance, _ = wmd_exact(da, db, table)
        cost = np.array(
            [
                [np.linalg.norm(table.vector(s) - table.vector(t)) for t in db.terms]
                for s in da.terms
            ]
        )
        want = brute_force_transport(da.weights, db.weights, cost)
        assert distance == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            da, db, table = random_instance(rng)
            distance, _ = wmd_exact(da, db, table)
            cost = np.array(
                [
                    [np.linalg.norm(table.vector(s) - table.vector(t)) for t in db.terms]
                    for s in da.terms
                ]
            )
            want = brute_force_transport(da.weights, db.weights, cost)
            assert distance == pytest.approx(want, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            da, db, table = random_instance(rng)
            forward, _ = wmd_exact(da, db, table)
            backward, _ = wmd_exact(db, da, table)
            assert forward == pytest.approx(backward, abs=1e-9)

    def test_plan_marginals(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            da, db, table = random_instance(rng)
            distance, plan = wmd_exact(da, db, table)
            assert plan.flow.shape == (len(da.terms), len(db.terms))
            assert np.all(plan.flow >= 0.0)
            slack = (plan.flow.size + 1) / MASS_SCALE
            assert np.allclose(plan.flow.sum(axis=1), da.weights, atol=slack)
            assert np.allclose(plan.flow.sum(axis=0), db.weights, atol=slack)
            assert plan.cost == pytest.approx(distance, abs=1e-12)


class TestWmdRelaxed:
    def test_identity_zero(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        dist = nbow(["a", "b"], table)
        assert wmd_relaxed(dist, dist, table) == 0.0

    def test_single_vs_single_equals_exact(self):
        table = table_from({"a": [0.0, 1.0], "b": [1.0, 1.0]})
        da, db = nbow(["a"], table), nbow(["b"], table)
        exact, _ = wmd_exact(da, db, table)
        assert wmd_relaxed(da, db, table) == pytest.approx(exact, abs=1e-12)

    def test_lower_bound_on_100_seeded(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            da, db, table = random_instance(rng)
            exact, _ = wmd_exact(da, db, table)
            relaxed = wmd_relaxed(da, db, table)
            assert relaxed <= exact + 1e-9


class TestSimilarityBlock:
    TABLE = table_from({"near": [0.0, 0.0], "far": [1.0, 0.0], "other": [0.0, 3.0]})

    def test_centroid_identical(self):
        value = similarity_block(["near", "far"], ["near", "far"], self.TABLE, CENTROID)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_wmd_zero_distance_is_one(self):
        value = similarity_block(["near"], ["near"], self.TABLE, WMD_EXACT)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_wmd_unit_distance_is_half(self):
        for mode in (WMD_EXACT, WMD_RELAXED):
            value = similarity_block(["near"], ["far"], self.TABLE, mode)
            assert value == pytest.approx(0.5, abs=1e-9)

    def test_unembedded_side_zero(self):
        for mode in SIMILARITY_MODES:
            assert similarity_block(["zz", "qq"], ["near"], self.TABLE, mode) == 0.0

    def test_block_names_follow_mode(self):
        corpus = make_corpus([Instance("near", 1, None)], {1: "far"})
        fitted = FittedPipeline(
            spec=PipelineSpec(
                name="emb",
                blocks=tuple(BlockSpec(kind="similarity", mode=m) for m in SIMILARITY_MODES),
            ),
            headline_vocab=None, body_vocab=None, shared_vocab=None, idf=None,
            keyword_sets={}, embeddings=self.TABLE,
        )
        assert [b.name for b in fitted.layout] == [
            "emb_centroid", "emb_wmd_exact", "emb_wmd_relaxed"
        ]
        row = fitted.matrix(corpus).matrix.toarray()[0]
        assert row[1:] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown similarity mode"):
            similarity_block(["near"], ["far"], self.TABLE, "manhattan")
