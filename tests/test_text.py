"""Tokenization, vocabularies, TF/IDF features, and block layout."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stancekit.corpus import Instance, make_corpus
from stancekit.errors import ConfigError
from stancekit.keywords import KeywordSet
from stancekit.pipeline import BlockSpec, FittedPipeline, PipelineSpec
from stancekit.text import (
    BlockSlice,
    FeatureVector,
    IdfTable,
    Vocabulary,
    build_idf,
    build_vocabulary,
    dump_vocabulary,
    load_vocabulary,
    tf_counts,
    tfidf_cosine,
    tfidf_doc,
    tokenize,
)

from oracles import tfidf_cosine as oracle_tfidf_cosine


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_hyphen_digits(self):
        assert tokenize("it's a-b 42") == ["it", "s", "a", "b", "42"]

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    @given(st.text(max_size=80))
    def test_tokens_lowercase_no_punctuation(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tok
            assert not any(ch in tok for ch in " \t\n.,!?-_'")


class TestVocabulary:
    def test_tie_break_lexicographic(self):
        vocab = build_vocabulary([["a", "b", "a"], ["b", "c"]], capacity=2)
        assert vocab.terms == ("a", "b")

    def test_capacity_above_distinct_count(self):
        vocab = build_vocabulary([["x", "y", "z"]], capacity=10)
        assert len(vocab) == 3

    def test_stopwords_removed_regardless_of_frequency(self):
        vocab = build_vocabulary(
            [["a"] * 50 + ["b"]], capacity=5, stopwords=frozenset({"a"})
        )
        assert "a" not in vocab
        assert "b" in vocab

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], capacity=0)

    def test_dump_load_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["b", "a", "b", "c"]], capacity=3, source="body")
        path = tmp_path / "vocab.txt"
        dump_vocabulary(vocab, path)
        back = load_vocabulary(path, source="body")
        assert back.terms == vocab.terms
        assert back.index == vocab.index

    @given(
        docs=st.lists(
            st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=1, max_size=6
        )
    )
    def test_doc_order_irrelevant(self, docs):
        forward = build_vocabulary(docs, capacity=4)
        assert build_vocabulary(list(reversed(docs)), capacity=4).terms == forward.terms


class TestTf:
    def test_counts(self):
        vocab = Vocabulary(("a", "b", "c"))
        assert tf_counts(["a", "a", "b"], vocab) == {0: 2, 1: 1}
        assert tf_counts(["c", "a"], vocab) == {2: 1, 0: 1}

    def test_empty_and_oov(self):
        vocab = Vocabulary(("a", "b"))
        assert tf_counts([], vocab) == {}
        assert tf_counts(["zz", "qq"], vocab) == {}


class TestIdf:
    def test_absent_term(self):
        vocab = Vocabulary(("t",))
        table = build_idf([["x"]] * 10, vocab)
        assert table.idf("t") == pytest.approx(math.log(10.0), abs=1e-12)

    def test_df_one_of_four(self):
        vocab = Vocabulary(("t",))
        table = build_idf([["t"], ["x"], ["x"], ["x"]], vocab)
        assert table.idf("t") == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ubiquitous_term_clamped_to_zero(self):
        vocab = Vocabulary(("t",))
        table = build_idf([["t"]] * 7, vocab)
        assert table.idf("t") == 0.0

    def test_out_of_vocabulary_term(self):
        vocab = Vocabulary(("t",))
        table = build_idf([["t"], ["x"]], vocab)
        assert table.idf("never-seen") == 0.0

    def test_requires_documents(self):
        with pytest.raises(ValueError):
            build_idf([], Vocabulary(("t",)))


def uniform_idf(vocab: Vocabulary) -> IdfTable:
    return IdfTable(vocab=vocab, values=np.ones(len(vocab)), document_count=1)


def cosine(head, body, vocab, idf):
    return tfidf_cosine(tfidf_doc(head, vocab, idf), tfidf_doc(body, vocab, idf))


class TestTfidfCosine:
    def test_self_similarity(self):
        vocab = Vocabulary(("a", "b"))
        idf = uniform_idf(vocab)
        got = cosine(["a", "b", "b"], ["a", "b", "b"], vocab, idf)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_zero(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        idf = uniform_idf(vocab)
        assert cosine(["a", "b"], ["c", "d"], vocab, idf) == 0.0

    def test_hand_half(self):
        # [1,1,0] . [1,0,1] / (sqrt2 * sqrt2) = 0.5
        vocab = Vocabulary(("a", "b", "c"))
        idf = uniform_idf(vocab)
        assert cosine(["a", "b"], ["a", "c"], vocab, idf) == pytest.approx(0.5, abs=1e-12)

    def test_zero_norm_side(self):
        vocab = Vocabulary(("a",))
        idf = uniform_idf(vocab)
        assert cosine([], ["a"], vocab, idf) == 0.0

    def test_document_norm(self):
        vocab = Vocabulary(("a", "b", "c"))
        idf = IdfTable(vocab=vocab, values=np.array([2.0, 0.5, 1.0]), document_count=4)
        doc = tfidf_doc(["b", "a", "b", "zz"], vocab, idf)
        assert list(doc.weights.items()) == [(1, 1.0), (0, 2.0)]
        assert doc.norm == math.sqrt(5.0)

    @given(
        head=st.lists(st.sampled_from("abcd"), max_size=6),
        body=st.lists(st.sampled_from("abcd"), max_size=6),
    )
    def test_range_and_symmetry(self, head, body):
        vocab = Vocabulary(("a", "b", "c", "d"))
        idf = uniform_idf(vocab)
        value = cosine(head, body, vocab, idf)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(cosine(body, head, vocab, idf), abs=1e-12)

    @given(
        head=st.lists(st.sampled_from("abcdef"), max_size=12),
        body=st.lists(st.sampled_from("abcdefg"), max_size=40),
        weights=st.lists(st.floats(0.0, 5.0), min_size=5, max_size=5),
    )
    # the body has fewer distinct terms, and summing in headline order
    # instead would round differently
    @example(
        head=list("bedacc"), body=list("bcd"), weights=[1.21, 2.59, 2.87, 2.82, 1.59]
    )
    def test_equals_per_pair_oracle(self, head, body, weights):
        vocab = Vocabulary(("a", "b", "c", "d", "e"))
        idf = IdfTable(vocab=vocab, values=np.array(weights), document_count=9)
        want = oracle_tfidf_cosine(head, body, vocab, idf)
        assert cosine(head, body, vocab, idf) == want


def two_blocks() -> FeatureVector:
    layout = (BlockSlice("one", 0, 2), BlockSlice("two", 2, 1))
    return FeatureVector(values=np.array([1.0, 2.0, 3.0]), layout=layout)


class TestBlocks:
    def test_concat_layout(self):
        fv = two_blocks()
        assert [s.name for s in fv.layout] == ["one", "two"]
        assert list(fv.values) == [1.0, 2.0, 3.0]
        assert list(fv.block("two")) == [3.0]

    def test_unknown_block(self):
        with pytest.raises(KeyError):
            two_blocks().block("missing")

    def test_duplicate_block_name_rejected(self):
        # two keyword sets may carry the same name under different references
        spec = PipelineSpec(
            name="dup",
            blocks=(
                BlockSpec(kind="indicator", keywords="a"),
                BlockSpec(kind="indicator", keywords="b"),
            ),
        )
        keyword_sets = {ref: KeywordSet(name="dup", terms=("x",)) for ref in ("a", "b")}
        with pytest.raises(ConfigError, match="duplicate block names"):
            FittedPipeline(
                spec=spec, headline_vocab=None, body_vocab=None, shared_vocab=None,
                idf=None, keyword_sets=keyword_sets, embeddings=None,
            )

    def test_layout_length_must_match(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.zeros(3), layout=(BlockSlice("b", 0, 2),))


BASELINE_ONLY = PipelineSpec(name="plain", blocks=(BlockSpec(kind="baseline"),))


def baseline_row(instance, corpus, headline_vocab, body_vocab, shared_vocab, idf):
    """Matrix row of one instance under a hand-built baseline pipeline."""
    fitted = FittedPipeline(
        spec=BASELINE_ONLY, headline_vocab=headline_vocab, body_vocab=body_vocab,
        shared_vocab=shared_vocab, idf=idf, keyword_sets={}, embeddings=None,
    )
    single = make_corpus([instance], {instance.body_id: corpus.body_text(instance.body_id)})
    row = fitted.matrix(single).matrix.toarray()[0]
    return FeatureVector(values=row, layout=fitted.layout)


class TestBaselineFeatures:
    def _tiny(self):
        instances = [
            Instance("cat sat", 1, None),
            Instance("dog ran far", 2, None),
        ]
        bodies = {1: "cat sat cat", 2: "dog dog"}
        corpus = make_corpus(instances, bodies)
        head_vocab = Vocabulary(("cat", "sat", "dog"), source="headline")
        body_vocab = Vocabulary(("cat", "dog", "sat"), source="body")
        shared = Vocabulary(("cat", "sat", "dog", "ran"), source="shared")
        idf = uniform_idf(shared)
        return corpus, head_vocab, body_vocab, shared, idf

    def test_vector_length(self):
        corpus, hv, bv, sv, idf = self._tiny()
        fv = baseline_row(corpus.instances[0], corpus, hv, bv, sv, idf)
        assert len(fv.values) == len(hv) + len(bv) + 1
        assert [s.name for s in fv.layout] == ["tf_headline", "tf_body", "tfidf_cos"]

    def test_headline_equals_body_cosine_one(self):
        corpus = make_corpus([Instance("cat sat", 1, None)], {1: "cat sat"})
        vocab = Vocabulary(("cat", "sat"))
        idf = uniform_idf(vocab)
        fv = baseline_row(corpus.instances[0], corpus, vocab, vocab, vocab, idf)
        assert fv.block("tfidf_cos")[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_vector(self):
        corpus, hv, bv, sv, idf = self._tiny()
        fv = baseline_row(corpus.instances[0], corpus, hv, bv, sv, idf)
        # headline "cat sat" over (cat, sat, dog); body "cat sat cat" over (cat, dog, sat)
        assert list(fv.block("tf_headline")) == [1.0, 1.0, 0.0]
        assert list(fv.block("tf_body")) == [2.0, 0.0, 1.0]
        # shared-vocab tfidf: head [1,1,0,0], body [2,1,0,0] -> 3/(sqrt2*sqrt5)
        expected = 3.0 / (math.sqrt(2.0) * math.sqrt(5.0))
        assert fv.block("tfidf_cos")[0] == pytest.approx(expected, abs=1e-12)
