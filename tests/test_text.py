"""Tokenization, vocabularies, TF/IDF features, and block layout."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import oracles
from stancekit.corpus import Instance, make_corpus, plan_folds, validation_split
from stancekit.keywords import select_keywords_mi, select_keywords_micc
from stancekit.pipeline import (
    BlockSpec,
    FittedPipeline,
    KeywordSpec,
    PipelineSpec,
    _document_rows,
    _hstack,
    body_documents,
    fit_pipeline,
)
from stancekit.stopwords import ENGLISH_STOPWORDS
from stancekit.text import (
    Csr,
    IdfTable,
    Vocabulary,
    build_idf,
    build_vocabulary,
    column_sums,
    count_matrix,
    dump_vocabulary,
    intern,
    load_vocabulary,
    is_token,
    presence,
    take_rows,
    tfidf_cosines,
    tokenize,
)

from oracles import tfidf_cosine as oracle_tfidf_cosine


def vocabulary_of(token_lists, capacity, stopwords=frozenset()):
    """build_vocabulary over the column sums of the interned token lists."""
    docs = intern(token_lists)
    totals = np.ones(len(token_lists)) @ oracles.scipy_csr(docs.matrix)
    return build_vocabulary(docs.terms, totals, capacity, stopwords)


def idf_of(token_lists, vocab):
    """build_idf over the interned token lists, each one document."""
    return build_idf([(intern(token_lists), np.ones(len(token_lists), dtype=np.int64))], vocab)


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_hyphen_digits(self):
        assert tokenize("it's a-b 42") == ["it", "s", "a", "b", "42"]

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    @given(st.text(max_size=30))
    def test_is_token_is_what_tokenize_yields(self, text):
        assert all(is_token(t) for t in tokenize(text))
        if is_token(text):
            assert tokenize(text) == [text]

    @given(st.text(max_size=80))
    def test_tokens_lowercase_no_punctuation(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tok
            assert not any(ch in tok for ch in " \t\n.,!?-_'")


class TestVocabulary:
    def test_tie_break_lexicographic(self):
        vocab = vocabulary_of([["a", "b", "a"], ["b", "c"]], capacity=2)
        assert vocab.terms == ("a", "b")

    def test_capacity_above_distinct_count(self):
        vocab = vocabulary_of([["x", "y", "z"]], capacity=10)
        assert len(vocab) == 3

    def test_stopwords_removed_regardless_of_frequency(self):
        vocab = vocabulary_of([["a"] * 50 + ["b"]], capacity=5, stopwords=frozenset({"a"}))
        assert vocab.terms == ("b",)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            build_vocabulary(("a",), np.ones(1), capacity=0)

    def test_zero_total_left_out(self):
        # "b" is in the term table but no counted document holds it
        assert build_vocabulary(("a", "b"), np.array([2.0, 0.0]), 5).terms == ("a",)

    def test_dump_load_roundtrip(self, tmp_path):
        vocab = vocabulary_of([["b", "a", "b", "c"]], capacity=3)
        path = tmp_path / "vocab.txt"
        dump_vocabulary(vocab, path)
        back = load_vocabulary(path)
        assert back.terms == vocab.terms
        assert back.index == vocab.index

    @given(
        docs=st.lists(
            st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=1, max_size=6
        )
    )
    def test_doc_order_irrelevant(self, docs):
        forward = vocabulary_of(docs, capacity=4)
        assert vocabulary_of(list(reversed(docs)), capacity=4).terms == forward.terms


class TestTf:
    def test_counts(self):
        vocab = Vocabulary(("a", "b", "c"))
        mat = count_matrix(intern([["a", "a", "b"], ["c", "a"]]), vocab)
        assert mat.indptr.tolist() == [0, 2, 4]
        assert mat.indices.tolist() == [0, 1, 0, 2]
        assert mat.data.tolist() == [2.0, 1.0, 1.0, 1.0]

    def test_empty_and_oov(self):
        vocab = Vocabulary(("a", "b"))
        mat = count_matrix(intern([[], ["zz", "qq"]]), vocab)
        assert mat.shape == (2, 2)
        assert oracles.scipy_csr(mat).nnz == 0


class TestIdf:
    def test_absent_term(self):
        vocab = Vocabulary(("t",))
        table = idf_of([["x"]] * 10, vocab)
        assert table.values[0] == pytest.approx(math.log(10.0), abs=1e-12)

    def test_df_one_of_four(self):
        vocab = Vocabulary(("t",))
        table = idf_of([["t"], ["x"], ["x"], ["x"]], vocab)
        assert table.values[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ubiquitous_term_clamped_to_zero(self):
        vocab = Vocabulary(("t",))
        table = idf_of([["t"]] * 7, vocab)
        assert table.values[0] == 0.0

    def test_out_of_vocabulary_term(self):
        # "x" counts as a document's token but gets no value of its own
        vocab = Vocabulary(("t",))
        table = idf_of([["t"], ["x"]], vocab)
        assert table.values.tolist() == [0.0]

    def test_requires_documents(self):
        with pytest.raises(ValueError, match="at least one document"):
            build_idf([], Vocabulary(("t",)))

    @pytest.mark.parametrize("count", [0, -3])
    def test_table_requires_documents(self, count):
        # the check build_idf and load_idf share
        with pytest.raises(ValueError, match="at least one document"):
            IdfTable(vocab=Vocabulary(("t",)), values=np.ones(1), document_count=count)


def uniform_idf(vocab: Vocabulary) -> IdfTable:
    return IdfTable(vocab=vocab, values=np.ones(len(vocab)), document_count=1)


def cosine(head, body, idf):
    return tfidf_cosines(intern([head]), intern([body]), [0], [0], idf)[0]


class TestTfidfCosine:
    def test_self_similarity(self):
        vocab = Vocabulary(("a", "b"))
        idf = uniform_idf(vocab)
        got = cosine(["a", "b", "b"], ["a", "b", "b"], idf)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_zero(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        idf = uniform_idf(vocab)
        assert cosine(["a", "b"], ["c", "d"], idf) == 0.0

    def test_hand_half(self):
        # [1,1,0] . [1,0,1] / (sqrt2 * sqrt2) = 0.5
        vocab = Vocabulary(("a", "b", "c"))
        idf = uniform_idf(vocab)
        assert cosine(["a", "b"], ["a", "c"], idf) == pytest.approx(0.5, abs=1e-12)

    def test_zero_norm_side(self):
        vocab = Vocabulary(("a",))
        idf = uniform_idf(vocab)
        assert cosine([], ["a"], idf) == 0.0

    def test_document_norm(self):
        # head weights (a, b) = (2, 1), norm sqrt(5); body a = 2, norm 2
        vocab = Vocabulary(("a", "b", "c"))
        idf = IdfTable(vocab=vocab, values=np.array([2.0, 0.5, 1.0]), document_count=4)
        got = cosine(["b", "a", "b", "zz"], ["a"], idf)
        assert got == 4.0 / (math.sqrt(5.0) * 2.0)

    @given(
        head=st.lists(st.sampled_from("abcd"), max_size=6),
        body=st.lists(st.sampled_from("abcd"), max_size=6),
    )
    def test_range_and_symmetry(self, head, body):
        vocab = Vocabulary(("a", "b", "c", "d"))
        idf = uniform_idf(vocab)
        value = cosine(head, body, idf)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(cosine(body, head, idf), abs=1e-12)

    @given(
        head=st.lists(st.sampled_from("abcdef"), max_size=12),
        body=st.lists(st.sampled_from("abcdefg"), max_size=40),
        weights=st.lists(st.floats(0.0, 5.0), min_size=5, max_size=5),
    )
    # the body has fewer distinct terms, and summing the headline's squares
    # in first-occurrence order instead would round differently
    @example(
        head=list("bedacc"), body=list("bcd"), weights=[1.21, 2.59, 2.87, 2.82, 1.59]
    )
    def test_equals_per_pair_oracle(self, head, body, weights):
        vocab = Vocabulary(("a", "b", "c", "d", "e"))
        idf = IdfTable(vocab=vocab, values=np.array(weights), document_count=9)
        want = oracle_tfidf_cosine(head, body, vocab, idf)
        assert cosine(head, body, idf) == want


class TestPinnedCosines:
    """Recorded bits of TF-IDF cosines on a fixed tiny corpus. Every sum
    runs left to right in ascending vocabulary order, so each Python
    version gives these same values."""

    def test_float_hex(self):
        vocab = Vocabulary(tuple("abcde"))
        idf = IdfTable(vocab=vocab, values=np.array([1.21, 2.59, 2.87, 2.82, 1.59]),
                       document_count=9)
        heads = [list("bedacc"), list("edcba"), list("ccee"), ["zz"]]
        bodies = [list("bcd"), list("aabbbe"), list("abcde") * 3]
        # instance 0 is test_equals_per_pair_oracle's example; the last
        # headline has zero norm
        got = tfidf_cosines(intern(heads), intern(bodies), [0, 1, 2, 0, 3], [0, 1, 2, 2, 0], idf)
        assert [float(v).hex() for v in got] == [
            "0x1.cfc1a010de409p-1",
            "0x1.309966cd8f410p-1",
            "0x1.43f480bc592c2p-1",
            "0x1.e2d24a85ff93cp-1",
            "0x0.0p+0",
        ]


BASELINE_ONLY = PipelineSpec(name="plain", blocks=(BlockSpec(kind="baseline"),))


def baseline_row(instance, corpus, headline_vocab, body_vocab, idf):
    """Dense matrix row of one instance under a hand-built baseline
    pipeline, and the pipeline's layout."""
    fitted = FittedPipeline(
        spec=BASELINE_ONLY, headline_vocab=headline_vocab, body_vocab=body_vocab,
        idf=idf, keyword_sets={}, embeddings=None,
    )
    single = make_corpus([instance], {instance.body_id: corpus.bodies[instance.body_id]})
    row = fitted.matrix(single).matrix.toarray()[0]
    return row, fitted.layout


def block(row, layout, name):
    """The values of one named block of a feature row."""
    (piece,) = [b for b in layout if b.name == name]
    return row[piece.offset : piece.offset + piece.length]


class TestBaselineFeatures:
    def _tiny(self):
        instances = [
            Instance("cat sat", 1, None),
            Instance("dog ran far", 2, None),
        ]
        bodies = {1: "cat sat cat", 2: "dog dog"}
        corpus = make_corpus(instances, bodies)
        head_vocab = Vocabulary(("cat", "sat", "dog"))
        body_vocab = Vocabulary(("cat", "dog", "sat"))
        idf = uniform_idf(Vocabulary(("cat", "sat", "dog", "ran")))
        return corpus, head_vocab, body_vocab, idf

    def test_vector_length(self):
        corpus, hv, bv, idf = self._tiny()
        row, layout = baseline_row(corpus.instances[0], corpus, hv, bv, idf)
        assert len(row) == len(hv) + len(bv) + 1
        assert [s.name for s in layout] == ["tf_headline", "tf_body", "tfidf_cos"]

    def test_headline_equals_body_cosine_one(self):
        corpus = make_corpus([Instance("cat sat", 1, None)], {1: "cat sat"})
        vocab = Vocabulary(("cat", "sat"))
        idf = uniform_idf(vocab)
        row, layout = baseline_row(corpus.instances[0], corpus, vocab, vocab, idf)
        assert block(row, layout, "tfidf_cos")[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_vector(self):
        corpus, hv, bv, idf = self._tiny()
        row, layout = baseline_row(corpus.instances[0], corpus, hv, bv, idf)
        # headline "cat sat" over (cat, sat, dog); body "cat sat cat" over (cat, dog, sat)
        assert list(block(row, layout, "tf_headline")) == [1.0, 1.0, 0.0]
        assert list(block(row, layout, "tf_body")) == [2.0, 0.0, 1.0]
        # shared-vocab tfidf: head [1,1,0,0], body [2,1,0,0] -> 3/(sqrt2*sqrt5)
        expected = 3.0 / (math.sqrt(2.0) * math.sqrt(5.0))
        assert block(row, layout, "tfidf_cos")[0] == pytest.approx(expected, abs=1e-12)


# content words, a stopword pair, and words only the featurized corpus holds
CONTENT = ("alpha", "beta", "gamma", "delta", "omega", "sigma")
STOP = ("the", "of")
UNSEEN = ("novel", "unseen")
#: manual keyword terms and MICC themes: one from CONTENT, one no corpus holds
MANUAL = ("beta", "absent")
SPEC = PipelineSpec(name="p", blocks=(BlockSpec(kind="baseline"),
                                      BlockSpec(kind="indicator", keywords="m")))


def texts(words, min_size=0):
    return st.lists(st.sampled_from(words), min_size=min_size, max_size=7).map(" ".join)


@st.composite
def corpora(draw, words=CONTENT + STOP):
    """A corpus with repeated headlines, empty and all-stopword texts, and
    bodies that no stance row references, in a drawn instance order."""
    bodies = draw(st.lists(texts(words), min_size=2, max_size=6))
    referenced = draw(st.integers(2, len(bodies)))
    heads = draw(st.lists(texts(words, min_size=1), min_size=1, max_size=4))
    pairs = [(draw(st.sampled_from(heads)), b) for b in range(referenced)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(heads), st.integers(0, referenced - 1)),
                           max_size=8))
    pairs = draw(st.permutations(pairs))
    return make_corpus([Instance(h, b, None) for h, b in pairs], dict(enumerate(bodies)))


def outcome(select):
    """The selection, or the message of the ValueError it raises."""
    try:
        return select()
    except ValueError as exc:
        return f"ValueError: {exc}"


def same_csr(got, want) -> bool:
    return all(np.array_equal(getattr(got, a), getattr(want, a))
               and getattr(got, a).dtype == getattr(want, a).dtype
               for a in ("indptr", "indices", "data"))


class TestInternedAgainstOracle:
    """Fits and featurizations read interned count matrices; the oracles
    count token lists one token at a time. Both give the same bits."""

    @staticmethod
    def own_rows(corpus):
        """The counts of the corpus's own distinct headlines and bodies, and
        fresh tokenizations of the same documents."""
        heads = dict.fromkeys(i.headline for i in corpus.instances)
        counts = (corpus.headline_counts.rows([corpus.headlines[h] for h in heads]),
                  corpus.body_counts.rows(corpus.body_rows(corpus.bodies)))
        return counts, ([tokenize(h) for h in heads],
                        [tokenize(text) for text in corpus.bodies.values()])

    @settings(derandomize=True, max_examples=150)
    @given(corpus=corpora(), unseen=corpora(CONTENT[:2] + STOP + UNSEEN),
           capacity=st.integers(1, 10), seed=st.integers(0, 50),
           positive=st.sets(st.integers(0, 5)))
    @example(corpus=make_corpus([Instance("the of", 0, None), Instance("the of", 1, None)],
                                {0: "", 1: "of the", 2: "alpha"}),
             unseen=make_corpus([Instance("novel", 0, None)], {0: "unseen beta"}),
             capacity=10, seed=0, positive={1})
    def test_fit_and_featurize_equal_oracle(self, corpus, unseen, capacity, seed, positive):
        kw = {"m": KeywordSpec(name="m", selector="manual", terms=MANUAL)}
        parts = [corpus, *plan_folds(corpus, 2, seed).split(corpus, 0),
                 *validation_split(corpus, 0.5, seed)]
        for part in parts:
            fit = fit_pipeline(SPEC, part, keyword_specs=kw, vocab_capacity=capacity)
            per_instance = [tokenize(i.headline) for i in part.instances]
            bodies = [tokenize(text) for text in part.bodies.values()]
            stop = ENGLISH_STOPWORDS
            assert fit.headline_vocab == oracles.vocabulary(per_instance, capacity, stop)
            assert fit.body_vocab == oracles.vocabulary(bodies, capacity, stop)
            shared = oracles.vocabulary(per_instance + bodies, capacity, stop)
            assert fit.shared_vocab == shared
            values, n_docs = oracles.idf_values(per_instance + bodies, shared)
            assert fit.idf.values.tobytes() == values.tobytes()
            assert fit.idf.document_count == n_docs
            documents, candidates = dict(zip(part.bodies, bodies)), fit.body_vocab.terms
            rows = np.array([b in positive for b in part.bodies], dtype=bool)
            own = body_documents(part)
            mi = outcome(lambda: select_keywords_mi(own, rows, candidates, 3).terms)
            assert mi == outcome(lambda: oracles.select_mi(documents, positive, candidates, 3))
            groups = outcome(lambda: {theme: ks.terms for theme, ks in select_keywords_micc(
                own, MANUAL, candidates, 3).items()})
            assert groups == outcome(lambda: oracles.select_micc(documents, MANUAL, candidates, 3))
            for docs in (part, unseen):
                (heads, bodies), (head_lists, body_lists) = self.own_rows(docs)
                for counts, lists, vocab in ((heads, head_lists, fit.headline_vocab),
                                             (heads, head_lists, fit.shared_vocab),
                                             (bodies, body_lists, fit.body_vocab),
                                             (bodies, body_lists, fit.shared_vocab)):
                    assert same_csr(count_matrix(counts, vocab),
                                    oracles.count_matrix(lists, vocab))
                    assert same_csr(presence(counts, MANUAL), oracles.presence(lists, MANUAL))


def random_csr(seed: int, shape: tuple[int, int]) -> sp.csr_matrix:
    """A random count-like scipy CSR matrix, a third of its rows empty."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 5, size=shape) * (rng.random(shape) < 0.4)
    dense[rng.random(shape[0]) < 1 / 3] = 0
    return sp.csr_matrix(dense.astype(np.float64))


def arrays_of(mat: sp.csr_matrix) -> Csr:
    return Csr(mat.data, mat.indices, mat.indptr, mat.shape)


def same_as_scipy(got: Csr, want: sp.csr_matrix) -> bool:
    """Equal data, indices and indptr, dtypes included, and shapes."""
    return same_csr(got, want) and got.shape == want.shape


#: zero rows, zero columns, one entry, and larger
SHAPES = [(0, 4), (5, 0), (1, 1), (7, 9), (40, 23)]


class TestCsrAgainstScipy:
    """The CSR operations are numpy index arithmetic; scipy's results are
    their oracle, array for array."""

    @given(lists=st.lists(st.lists(st.sampled_from(CONTENT + STOP), max_size=8), max_size=8))
    def test_intern_sums_duplicates(self, lists):
        docs = intern(lists)
        index = {t: i for i, t in enumerate(docs.terms)}
        ids = [index[t] for tokens in lists for t in tokens]
        indptr = np.cumsum([0] + [len(tokens) for tokens in lists])
        want = sp.csr_matrix((np.ones(len(ids)), np.array(ids, dtype=np.intp), indptr),
                             shape=(len(lists), len(docs.terms)))
        want.sum_duplicates()
        assert same_as_scipy(docs.matrix, want)

    @given(lists=st.lists(st.lists(st.sampled_from(CONTENT), max_size=8), max_size=8),
           seed=st.integers(0, 50))
    def test_count_matrix_sorts_indices(self, lists, seed):
        """Selected columns renumbered to a shuffled vocabulary with a term no
        document holds, then sorted as scipy's sort_indices sorts them."""
        docs = intern(lists)
        terms = [(*CONTENT[:5], "absent")[i] for i in np.random.default_rng(seed).permutation(6)]
        vocab = Vocabulary(tuple(terms))
        column = np.array([vocab.index.get(t, -1) for t in docs.terms], dtype=np.intp)
        mat = oracles.scipy_csr(docs.matrix)
        at = column[mat.indices]
        kept = at >= 0
        indptr = np.concatenate(([0], np.cumsum(kept)))[mat.indptr]
        want = sp.csr_matrix((mat.data[kept], at[kept], indptr), shape=(len(lists), len(vocab)))
        want.sort_indices()
        assert same_as_scipy(count_matrix(docs, vocab), want)
        want.data[:] = 1.0
        assert same_as_scipy(presence(docs, terms), want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_take_rows(self, shape):
        mat = random_csr(sum(shape), shape)
        rng = np.random.default_rng(shape[0])
        for rows in ([], rng.integers(0, shape[0], size=3 * shape[0]),
                     rng.permutation(shape[0])):
            rows = np.asarray(rows, dtype=np.intp)
            assert same_as_scipy(take_rows(arrays_of(mat), rows), mat[rows])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_column_sums(self, shape):
        mat = random_csr(sum(shape) + 1, shape)
        weights = np.random.default_rng(2).integers(0, 4, size=shape[0])
        got, want = column_sums(arrays_of(mat), weights), weights @ mat
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_document_rows_stack_sides(self, shape):
        heads, bodies = random_csr(3, shape), random_csr(4, (shape[0] + 2, shape[1]))
        for offsets, stride in (((0, shape[1]), 1), ((0, 1), 2)):
            width = stride * shape[1] + offsets[1] + 1
            want = sp.vstack([sp.csr_matrix((s.data, stride * s.indices + at, s.indptr),
                                            shape=(s.shape[0], width))
                              for s, at in zip((heads, bodies), offsets)], format="csr")
            got = _document_rows([arrays_of(heads), arrays_of(bodies)], offsets, stride, width)
            assert same_as_scipy(got, want)

    @pytest.mark.parametrize("rows", [0, 1, 13])
    def test_hstack_merges_rows(self, rows):
        """Blocks side by side, a zero-width and an entry-less one among them."""
        parts = [random_csr(5, (rows, 6)), random_csr(6, (rows, 0)), random_csr(7, (rows, 4)),
                 sp.csr_matrix((rows, 1)), random_csr(8, (rows, 9))]
        got = _hstack([arrays_of(p) for p in parts])
        assert same_as_scipy(got, sp.hstack(parts, format="csr"))

    @given(corpus=corpora(), unseen=corpora(CONTENT[:2] + STOP + UNSEEN))
    def test_tfidf_cosines_look_up_body_entries(self, corpus, unseen):
        """tfidf_cosines finds a headline entry's body value by a search over
        row-major keys; scipy's element lookup gives the same cosines' bits."""
        fit = fit_pipeline(PipelineSpec(name="p", blocks=(BlockSpec(kind="baseline"),)), corpus,
                           vocab_capacity=6)
        for docs in (corpus, unseen):
            heads = docs.headline_counts
            bodies = docs.body_counts.rows(docs.body_rows(docs.bodies))
            head_row = [docs.headlines[i.headline] for i in docs.instances]
            body_row = docs.body_rows(i.body_id for i in docs.instances)
            got = tfidf_cosines(heads, bodies, head_row, body_row, fit.idf)
            assert got.tobytes() == scipy_tfidf_cosines(heads, bodies, head_row, body_row,
                                                        fit.idf).tobytes()


def scipy_tfidf_cosines(head_docs, body_docs, head_row, body_row, idf):
    """tfidf_cosines through scipy's row gather and element lookup."""
    heads, bodies = (oracles.scipy_csr(count_matrix(d, idf.vocab)) for d in (head_docs, body_docs))
    norms = []
    for mat in (heads, bodies):
        mat.data *= idf.values[mat.indices]
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        norms.append(np.sqrt(np.bincount(rows, weights=mat.data * mat.data,
                                         minlength=mat.shape[0])))
    at = heads[np.asarray(head_row, dtype=np.intp)]
    rows = np.repeat(np.arange(at.shape[0]), np.diff(at.indptr))
    values = np.asarray(bodies[np.asarray(body_row, dtype=np.intp)[rows], at.indices]).ravel()
    dot = np.bincount(rows, weights=at.data * values, minlength=at.shape[0])
    products = norms[0][head_row] * norms[1][body_row]
    return np.divide(dot, products, out=np.zeros(len(products)), where=products != 0.0)
