"""Embedding table loading, per-document embedding state, centroid cosine,
and word mover's distance.

The WMD oracle enumerates basic feasible solutions of the transportation
polytope directly: every spanning set of m+n-1 cells whose balance system
has a unique non-negative solution is a vertex, and the LP optimum is the
cheapest vertex. Kept deliberately independent of the shipped solver.
Where enumeration cannot reach (11 x 25 and 11 x 200 pairs), the shipped
transportation simplex is compared with oracles.ssp_transport, a
successive-shortest-path solver.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancekit.corpus import Instance, make_corpus
from stancekit import embeddings
from stancekit.embeddings import (
    CENTROID,
    MASS_SCALE,
    SIMILARITY_MODES,
    WMD_EXACT,
    WMD_RELAXED,
    EmbeddedDoc,
    EmbeddingTable,
    _apportion,
    _cost_matrix,
    _transport_min_cost,
    centroid_cosine,
    embed_doc,
    load_embeddings,
    similarities,
)
from stancekit.errors import DataFormatError, SolverBudgetError
from stancekit.pipeline import BlockSpec, FittedPipeline, PipelineSpec
from stancekit.text import intern

from oracles import embedded, ssp_transport, wmd


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


def doc_state(vectors: np.ndarray, weights: np.ndarray) -> EmbeddedDoc:
    """Document state over the given term vectors and nBOW weights."""
    centroid = weights @ vectors
    return EmbeddedDoc(centroid, float(np.linalg.norm(centroid)), vectors, _apportion(weights))


def counts_state(rng: np.random.Generator, vectors: np.ndarray, high: int) -> EmbeddedDoc:
    """Document state with random term counts in [1, high)."""
    counts = rng.integers(1, high, size=len(vectors)).astype(np.float64)
    return doc_state(vectors, counts / counts.sum())


def random_instance(rng: np.random.Generator, max_side: int = 4):
    """Random pair of document states over Gaussian vectors."""
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    dim = int(rng.integers(2, 5))
    vectors = np.array([rng.normal(0.0, 2.0, size=dim) for _ in range(m + n)])
    return counts_state(rng, vectors[:m], 6), counts_state(rng, vectors[m:], 6)


def random_token_instance(rng: np.random.Generator, max_side: int = 4):
    """random_instance's draws as (table, headline tokens, body tokens):
    each vector is a term of the table, repeated its count times."""
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    dim = int(rng.integers(2, 5))
    vectors = np.array([rng.normal(0.0, 2.0, size=dim) for _ in range(m + n)])
    table = EmbeddingTable(terms=tuple(f"t{i}" for i in range(m + n)), matrix=vectors)
    head, body = (
        [term for term, count in zip(terms, rng.integers(1, 6, size=len(terms)))
         for _ in range(count)]
        for terms in (table.terms[:m], table.terms[m:])
    )
    return table, head, body


def fnc_shaped_instance(seed: int, m: int = 11, n: int = 200, dim: int = 50, shared: int = 5):
    """Headline-by-body shaped pair: m vs n terms, `shared` terms in both."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(0.0, 1.0, size=(m + n, dim))
    return (counts_state(rng, vectors[:m], 12),
            counts_state(rng, vectors[m - shared : m - shared + n], 12))


def tie_instance(rng: np.random.Generator, max_side: int = 3):
    """Random pair over integer-grid vectors: repeated vectors and equal costs."""
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    vectors = np.array([rng.integers(-1, 2, size=2).astype(float) for _ in range(m + n)])
    return counts_state(rng, vectors[:m], 4), counts_state(rng, vectors[m:], 4)


def weights_of(doc: EmbeddedDoc) -> np.ndarray:
    return doc.masses / MASS_SCALE


def cost_of(da: EmbeddedDoc, db: EmbeddedDoc) -> np.ndarray:
    return np.array([[np.linalg.norm(s - t) for t in db.vectors] for s in da.vectors])


def brute_force_wmd(da: EmbeddedDoc, db: EmbeddedDoc) -> float:
    return brute_force_transport(weights_of(da), weights_of(db), cost_of(da, db))


class TestLoader:
    def test_header_form(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.matrix.shape == (2, 3)
        assert list(table.matrix[table.index["a"]]) == [1.0, 0.0, 0.0]

    def test_headerless_form(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2 and table.matrix.shape == (2, 2)

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

    def test_component_count_checked_outside_restrict_to(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0 0\nb 0 1\nc 0 0 1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vec\.txt:2"):
            load_embeddings(path, restrict_to={"a", "c"})

    def test_non_numeric_component_on_kept_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 x\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vec\.txt:2: non-numeric"):
            load_embeddings(path, restrict_to={"b"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_component_on_kept_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1 {value}\nb 0 1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vec\.txt:1: non-finite"):
            load_embeddings(path)
        # a dropped line's components are not parsed, so not checked either
        assert load_embeddings(path, restrict_to={"b"}).terms == ("b",)

    def test_restrict_to(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path, restrict_to={"a"})
        assert len(table) == 1
        assert table.terms == ("a",)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\na 9 9\nb 0 1\n", encoding="utf-8")
        table = load_embeddings(path)
        assert list(table.matrix[table.index["a"]]) == [1.0, 0.0]
        assert table.skipped_duplicates == 1

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("\ufeff2 3\nfoo 1 2 3\nbar 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.terms == ("foo", "bar")
        assert list(table.matrix[table.index["foo"]]) == [1.0, 2.0, 3.0]

    def test_byte_order_mark_before_first_term(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("\ufefffoo 1 2 3\nbar 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.terms == ("foo", "bar")
        assert list(table.matrix[table.index["foo"]]) == [1.0, 2.0, 3.0]

    def test_nothing_loaded(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_embeddings(path)


class TestNbow:
    """The nBOW side of a document's embedding state."""

    TABLE = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})

    def test_two_to_one(self):
        doc = embedded(["a", "a", "b"], self.TABLE)
        assert doc.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert list(weights_of(doc)) == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
        assert np.array_equal(doc.masses, _apportion(np.array([2.0, 1.0]) / 3.0))

    def test_single_token(self):
        doc = embedded(["a"], self.TABLE)
        assert list(doc.masses) == [MASS_SCALE]

    def test_all_out_of_table(self):
        assert embedded(["zz", "qq"], self.TABLE) is None
        assert embedded([], self.TABLE) is None

    def test_max_terms_keeps_most_frequent(self, monkeypatch):
        monkeypatch.setattr(embeddings, "WMD_TERM_CAP", 2)
        doc = embedded(["c", "b", "b", "a", "a"], self.TABLE)
        # counts a:2 b:2 c:1; tie a<b lexicographic
        assert doc.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert int(doc.masses.sum()) == MASS_SCALE
        # the centroid still averages every embedded occurrence, c included
        assert doc.centroid.tolist() == pytest.approx([0.6, 0.6], abs=1e-12)

    def test_rows_in_term_order_not_table_order(self, monkeypatch):
        # a document's rows follow its sorted terms: "a" is table row 1 here,
        # yet it comes first, and wins the tie for the one nBOW slot
        monkeypatch.setattr(embeddings, "WMD_TERM_CAP", 1)
        table = table_from({"b": [0.0, 1.0], "a": [1.0, 0.0]})
        doc = embed_doc(np.array([1, 0]), np.array([2.0, 2.0]), table)
        assert doc.vectors.tolist() == [[1.0, 0.0]]
        assert doc.centroid.tolist() == [0.5, 0.5]
        assert embedded(["b", "a", "b", "a"], table).vectors.tolist() == [[1.0, 0.0]]
        assert embed_doc(np.array([], dtype=np.intp), np.array([]), table) is None

    @given(st.lists(st.sampled_from(["a", "b", "c", "zz"]), min_size=1, max_size=30))
    def test_weights_validation(self, tokens):
        doc = embedded(tokens, self.TABLE)
        if doc is None:
            assert set(tokens) == {"zz"}
            return
        assert doc.masses.dtype == np.int64
        assert np.all(doc.masses > 0)
        assert int(doc.masses.sum()) == MASS_SCALE
        assert len(doc.masses) == len(doc.vectors) == len(set(tokens) - {"zz"})


class TestCentroid:
    TABLE = table_from({"x": [1.0, 0.0], "y": [0.0, 1.0], "o": [0.0, 0.0]})

    def cos(self, tokens_a, tokens_b):
        return centroid_cosine(embedded(tokens_a, self.TABLE), embedded(tokens_b, self.TABLE))

    def test_same_single_token(self):
        assert self.cos(["x"], ["x"]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert self.cos(["x"], ["y"]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_mean(self):
        # side B mean = (0.5, 0.5); cos with (1, 0) = 1/sqrt(2)
        assert self.cos(["x"], ["x", "y"]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_degenerate_sides(self):
        values = similarities(intern([[], ["unseen"]]), intern([["x"]]), [0, 1], [0, 0],
                              self.TABLE, [CENTROID])
        assert values.tolist() == [[0.0], [0.0]]
        assert self.cos(["o"], ["x"]) == 0.0  # zero-vector centroid


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
    #: float.hex distances of earlier solvers on the same integer masses (the
    #: heap-and-potentials one; for the 11 x 25 "embed" rows, successive
    #: shortest paths): the solver changed, the optimum must not.
    RECORDED = (
        ("random", 0, "0x1.3f70b54f3dfd9p+1"),
        ("random", 1, "0x1.d4fb6beb90bb7p+1"),
        ("random", 2, "0x1.45bfbc8236323p+1"),
        ("random", 3, "0x1.c2fe702c46a1cp+1"),
        ("random", 4, "0x1.3c56cc8f623b4p+2"),
        ("random", 5, "0x1.e9a298742173ep+0"),
        ("random", 6, "0x1.b1c722a12dfe4p+1"),
        ("random", 7, "0x1.08184d31fa1c2p+2"),
        ("fnc", 0, "0x1.14e47c9c1ad16p+3"),
        ("fnc", 1, "0x1.0cb506206d6f2p+3"),
        ("embed", 0, "0x1.fcf5dd310a6c0p+2"),
        ("embed", 1, "0x1.d82bbccf588f8p+2"),
        ("embed", 2, "0x1.df21b8f5850e0p+2"),
        ("embed", 3, "0x1.f0895c01b0ce5p+2"),
    )

    def test_identity_zero(self):
        table = table_from({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        doc = embedded(["a", "b", "b"], table)
        assert wmd(doc, doc) == 0.0

    def test_single_vs_single_euclidean(self):
        table = table_from({"a": [0.0, 0.0], "b": [1.0, 2.0]})
        da, db = embedded(["a"], table), embedded(["b"], table)
        assert wmd(da, db) == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_three_by_three_toy_matches_enumeration(self):
        da = doc_state(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
                       np.array([0.5, 0.25, 0.25]))
        db = doc_state(np.array([[1.0, 1.0], [3.0, 1.0], [-1.0, 2.0]]),
                       np.array([0.25, 0.25, 0.5]))
        assert wmd(da, db) == pytest.approx(brute_force_wmd(da, db), abs=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            da, db = random_instance(rng)
            assert wmd(da, db) == pytest.approx(brute_force_wmd(da, db), abs=1e-6)

    @pytest.mark.parametrize("kind, seed, want", RECORDED)
    def test_recorded_distances_bit_for_bit(self, kind, seed, want):
        if kind == "random":
            instance = random_instance(np.random.default_rng(seed), max_side=6)
        elif kind == "embed":
            instance = fnc_shaped_instance(seed, n=25)
        else:
            instance = fnc_shaped_instance(seed)
        assert wmd(*instance).hex() == want

    def test_shared_vectors_and_identical_distributions(self):
        # a, b, c share one vector and d, e another: every optimal plan is
        # tied with several others, and the label search must still end
        table = table_from(
            {
                "a": [1.0, 0.0], "b": [1.0, 0.0], "c": [1.0, 0.0],
                "d": [0.0, 1.0], "e": [0.0, 1.0], "f": [1.0, 1.0],
            }
        )

        def doc(terms, weights):
            return doc_state(table.matrix[[table.index[t] for t in terms]], np.array(weights))

        same_points = (doc("adf", [0.25, 0.25, 0.5]), doc("bef", [0.25, 0.25, 0.5]))
        assert wmd(*same_points) == 0.0
        assert wmd(same_points[0], same_points[0]) == 0.0
        da = doc("abdf", [0.125, 0.375, 0.25, 0.25])
        db = doc("cea", [0.25, 0.5, 0.25])
        assert wmd(da, db) == pytest.approx(brute_force_wmd(da, db), abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_grid_vector_ties_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            da, db = tie_instance(rng)
            assert wmd(da, db) == pytest.approx(brute_force_wmd(da, db), abs=1e-6)

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e9])
    def test_any_cost_scale(self, scale):
        # rounding in path sums grows with the costs; the search must still
        # end (no parent cycle) and find the scaled optimum
        rng = np.random.default_rng(3)
        instances = [random_instance(rng) for _ in range(10)]
        instances += [tie_instance(rng, max_side=5) for _ in range(10)]
        instances.append(fnc_shaped_instance(0, n=40))
        for da, db in instances:
            want = scale * wmd(da, db)
            scaled = [d._replace(vectors=d.vectors * scale) for d in (da, db)]
            assert wmd(*scaled) == pytest.approx(want, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            da, db = random_instance(rng)
            assert wmd(da, db) == pytest.approx(wmd(db, da), abs=1e-9)

    def test_flow_marginals_exact(self):
        rng = np.random.default_rng(7)
        instances = [random_instance(rng) for _ in range(10)]
        instances += [tie_instance(rng) for _ in range(10)]
        instances.append(fnc_shaped_instance(2))
        for da, db in instances:
            flow = _transport_min_cost(da.masses, db.masses, _cost_matrix(da, db))
            assert flow.shape == (len(da.masses), len(db.masses))
            assert flow.dtype.kind == "i"
            assert np.all(flow >= 0)
            assert np.array_equal(flow.sum(axis=1), da.masses)
            assert np.array_equal(flow.sum(axis=0), db.masses)

    def test_unbalanced_masses_rejected(self):
        with pytest.raises(ValueError, match="balance"):
            _transport_min_cost(np.array([2, 1]), np.array([2]), np.zeros((2, 1)))

    @staticmethod
    def solve_both(da, db):
        """(simplex distance, SSP oracle distance), each summed as _wmd_exact
        sums, after checking that the simplex plan is integral and feasible."""
        cost = _cost_matrix(da, db)
        flow = _transport_min_cost(da.masses, db.masses, cost)
        assert flow.dtype == np.int64 and np.all(flow >= 0)
        assert np.array_equal(flow.sum(axis=1), da.masses)
        assert np.array_equal(flow.sum(axis=0), db.masses)
        oracle = ssp_transport(da.masses, db.masses, cost)
        return [float((f / MASS_SCALE * cost).sum()) for f in (flow, oracle)]

    @pytest.mark.parametrize("seed", range(4))
    def test_embed_sim_shape_matches_ssp_bit_for_bit(self, seed):
        # 11 x 25: a headline against a short body, as on the embed-sim workload
        for k in range(10):
            got, want = self.solve_both(*fnc_shaped_instance(10 * seed + k, n=25))
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("seed", range(2, 6))
    def test_fnc_shape_matches_ssp_bit_for_bit(self, seed):
        got, want = self.solve_both(*fnc_shaped_instance(seed))
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("family", ["equal_masses", "permutation", "grid"])
    def test_degenerate_families_match_ssp(self, family):
        # tied optimal plans may differ from the oracle's, and their sums
        # by rounding only
        rng = np.random.default_rng(11)
        for _ in range(60):
            m, n = (int(v) for v in rng.integers(1, 13, size=2))
            if family == "grid":
                vectors = rng.integers(-1, 2, size=(m + n, 2)).astype(float)
                da = counts_state(rng, vectors[:m], 4)
                db = counts_state(rng, vectors[m:], 4)
            elif family == "equal_masses":
                vectors = rng.normal(size=(m + n, 3))
                da = doc_state(vectors[:m], np.full(m, 1.0 / m))
                db = doc_state(vectors[m:], np.full(n, 1.0 / n))
            else:  # m = n equal masses on permuted copies of the same points
                vectors = rng.normal(size=(m, 3))
                da = doc_state(vectors, np.full(m, 1.0 / m))
                db = doc_state(vectors[rng.permutation(m)], np.full(m, 1.0 / m))
            got, want = self.solve_both(da, db)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_pivot_budget_exceeded_raises(self, monkeypatch):
        monkeypatch.setattr(embeddings, "PIVOTS_PER_LINE", 0)
        da, db = fnc_shaped_instance(0, n=25)
        with pytest.raises(SolverBudgetError, match="iteration budget"):
            wmd(da, db)


class TestWmdRelaxed:
    def test_identity_zero(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        doc = embedded(["a", "b"], table)
        assert wmd(doc, doc, WMD_RELAXED) == 0.0

    def test_single_vs_single_equals_exact(self):
        table = table_from({"a": [0.0, 1.0], "b": [1.0, 1.0]})
        da, db = embedded(["a"], table), embedded(["b"], table)
        assert wmd(da, db, WMD_RELAXED) == pytest.approx(wmd(da, db), abs=1e-12)

    def test_lower_bound_on_100_seeded(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            da, db = random_instance(rng)
            assert wmd(da, db, WMD_RELAXED) <= wmd(da, db) + 1e-9


class TestSimilarityBlock:
    TABLE = table_from({"near": [0.0, 0.0], "far": [1.0, 0.0], "other": [0.0, 3.0]})

    def value(self, head, body, mode):
        return similarities(intern([head]), intern([body]), [0], [0], self.TABLE, [mode])[0, 0]

    def test_centroid_identical(self):
        value = self.value(["near", "far"], ["near", "far"], CENTROID)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_wmd_zero_distance_is_one(self):
        assert self.value(["near"], ["near"], WMD_EXACT) == pytest.approx(1.0, abs=1e-12)

    def test_wmd_unit_distance_is_half(self):
        for mode in (WMD_EXACT, WMD_RELAXED):
            assert self.value(["near"], ["far"], mode) == pytest.approx(0.5, abs=1e-9)

    def test_unembedded_side_zero(self):
        for mode in SIMILARITY_MODES:
            assert self.value(["zz", "qq"], ["near"], mode) == 0.0
            assert self.value(["near"], [], mode) == 0.0

    def test_columns_follow_modes_and_instances(self):
        heads, bodies = [["near"], ["zz"]], [["far"], ["near", "far"]]
        head_row, body_row = [0, 1, 0, 0], [0, 0, 1, 0]
        values = similarities(intern(heads), intern(bodies), head_row, body_row, self.TABLE,
                              SIMILARITY_MODES)
        assert values.shape == (4, len(SIMILARITY_MODES))
        for k, (h, b) in enumerate(zip(head_row, body_row)):
            for j, mode in enumerate(SIMILARITY_MODES):
                assert values[k, j] == self.value(heads[h], bodies[b], mode)
        assert values[3].tolist() == values[0].tolist()
        assert values[1].tolist() == [0.0] * len(SIMILARITY_MODES)

    @pytest.mark.parametrize("seed", range(12))
    def test_wmd_columns_are_the_checked_kernels(self, seed):
        # each WMD column is 1/(1 + d) of the distance that the enumeration,
        # SSP and RECORDED checks above read through oracles.wmd
        rng = np.random.default_rng(seed)
        modes = (WMD_EXACT, WMD_RELAXED)
        for _ in range(4):
            table, head, body = random_token_instance(rng)
            values = similarities(intern([head]), intern([body]), [0], [0], table, modes)
            da, db = embedded(head, table), embedded(body, table)
            for j, mode in enumerate(modes):
                assert values[0, j].hex() == (1.0 / (1.0 + wmd(da, db, mode))).hex()

    def test_block_names_follow_mode(self):
        corpus = make_corpus([Instance("near", 1, None)], {1: "far"})
        fitted = FittedPipeline(
            spec=PipelineSpec(
                name="emb",
                blocks=tuple(BlockSpec(kind="similarity", mode=m) for m in SIMILARITY_MODES),
            ),
            headline_vocab=None, body_vocab=None, idf=None,
            keyword_sets={}, embeddings=self.TABLE,
        )
        assert [b.name for b in fitted.layout] == [
            "emb_centroid", "emb_wmd_exact", "emb_wmd_relaxed"
        ]
        row = fitted.matrix(corpus).matrix.toarray()[0]
        assert row[1:] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown similarity mode"):
            self.value(["near"], ["far"], "manhattan")
