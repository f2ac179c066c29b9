"""Keyword selection: MI over 2x2 tables, MICC theme partitions, indicators.

The MI oracle here is the entropy identity I(T;C) = H(T) + H(C) - H(T,C),
computed independently of the implementation's cell-sum formula.
"""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from stancekit.corpus import Instance, Stance, make_corpus
from stancekit.errors import DataFormatError
from stancekit.pipeline import BlockSpec, FittedPipeline, PipelineSpec
from stancekit.keywords import (
    DEFAULT_REFUTATION_TERMS,
    ContingencyTable,
    KeywordSet,
    corpus_documents,
    mutual_information,
    partition_by_theme,
    read_keyword_set,
    score_candidates,
    select_keywords_mi,
    select_keywords_micc,
    stance_positive_bodies,
    write_keyword_set,
)


def entropy_identity_mi(n11: int, n10: int, n01: int, n00: int) -> float:
    """I(T;C) = H(T) + H(C) - H(T,C), in bits."""
    n = n11 + n10 + n01 + n00

    def entropy(counts):
        h = 0.0
        for c in counts:
            if c:
                p = c / n
                h -= p * math.log2(p)
        return h

    h_term = entropy((n11 + n10, n01 + n00))
    h_class = entropy((n11 + n01, n10 + n00))
    h_joint = entropy((n11, n10, n01, n00))
    return h_term + h_class - h_joint


class TestMutualInformation:
    def test_perfect_association_one_bit(self):
        table = ContingencyTable("t", n11=5, n10=0, n01=0, n00=5)
        assert mutual_information(table) == pytest.approx(1.0, abs=1e-12)

    def test_independence_zero(self):
        table = ContingencyTable("t", n11=2, n10=2, n01=2, n00=2)
        assert mutual_information(table) == 0.0

    def test_matches_entropy_identity_example(self):
        table = ContingencyTable("t", n11=3, n10=1, n01=1, n00=3)
        assert mutual_information(table) == pytest.approx(
            entropy_identity_mi(3, 1, 1, 3), abs=1e-12
        )

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(ContingencyTable("t", 0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable("t", -1, 0, 0, 2)

    def test_exhaustive_sweep_small_tables(self):
        """Every 2x2 table with N <= 50 against the entropy identity."""
        worst = 0.0
        for n11, n10, n01 in itertools.product(range(51), repeat=3):
            rest = 50 - n11 - n10 - n01
            if rest < 0:
                continue
            for n00 in range(rest + 1):
                if n11 + n10 + n01 + n00 == 0:
                    continue
                got = mutual_information(ContingencyTable("t", n11, n10, n01, n00))
                want = entropy_identity_mi(n11, n10, n01, n00)
                worst = max(worst, abs(got - want))
        assert worst <= 1e-10

    @given(
        n11=st.integers(0, 200),
        n10=st.integers(0, 200),
        n01=st.integers(0, 200),
        n00=st.integers(1, 200),
    )
    def test_nonnegative_and_bounded(self, n11, n10, n01, n00):
        value = mutual_information(ContingencyTable("t", n11, n10, n01, n00))
        assert 0.0 <= value <= 1.0 + 1e-12


DOCS_6 = {
    1: frozenset({"confirm", "alpha"}),
    2: frozenset({"confirm", "beta"}),
    3: frozenset({"confirm", "alpha", "noise"}),
    4: frozenset({"deny", "beta"}),
    5: frozenset({"deny", "noise"}),
    6: frozenset({"deny", "alpha"}),
}
POSITIVE_6 = {1, 2, 3}


class TestSelection:
    def test_perfect_predictor_dominates(self):
        ks = select_keywords_mi(DOCS_6, POSITIVE_6, {"confirm", "noise"}, k=1)
        assert ks.terms == ("confirm",)

    def test_k_above_candidate_count(self):
        ks = select_keywords_mi(DOCS_6, POSITIVE_6, {"alpha", "beta"}, k=10)
        assert set(ks.terms) == {"alpha", "beta"}

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            select_keywords_mi(DOCS_6, POSITIVE_6, {"alpha"}, k=-1)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            select_keywords_mi(DOCS_6, set(DOCS_6), {"alpha"}, k=1)

    def test_top2_matches_brute_force_ranking(self):
        candidates = ["confirm", "deny", "alpha", "beta", "noise"]
        brute = {}
        for term in candidates:
            n11 = sum(1 for d in POSITIVE_6 if term in DOCS_6[d])
            n10 = sum(1 for d in DOCS_6 if d not in POSITIVE_6 and term in DOCS_6[d])
            n01 = len(POSITIVE_6) - n11
            n00 = len(DOCS_6) - len(POSITIVE_6) - n10
            brute[term] = entropy_identity_mi(n11, n10, n01, n00)
        expected = sorted(candidates, key=lambda t: (-brute[t], t))[:2]
        ks = select_keywords_mi(DOCS_6, POSITIVE_6, candidates, k=2)
        assert list(ks.terms) == expected

    def test_score_candidates_values(self):
        scores = score_candidates(DOCS_6, POSITIVE_6, ["confirm", "deny"])
        assert scores["confirm"] == pytest.approx(1.0, abs=1e-12)
        assert scores["deny"] == pytest.approx(1.0, abs=1e-12)


class TestThemePartition:
    def test_single_theme(self):
        docs = {1: {"a", "hoax", "story"}, 2: {"plain"}}
        part = partition_by_theme(docs, ["hoax"])
        assert part.classes["hoax"] == frozenset({1})
        assert part.residual == frozenset({2})

    def test_first_match_wins(self):
        docs = {1: {"a", "b"}}
        part = partition_by_theme(docs, ["a", "b"])
        assert part.classes["a"] == frozenset({1})
        assert part.classes["b"] == frozenset()

    def test_all_residual(self):
        docs = {1: {"x"}, 2: {"y"}}
        part = partition_by_theme(docs, ["theme"])
        assert part.residual == frozenset({1, 2})

    def test_duplicate_themes_rejected(self):
        with pytest.raises(ValueError):
            partition_by_theme({1: {"a"}}, ["a", "a"])

    def test_empty_themes_rejected(self):
        with pytest.raises(ValueError):
            partition_by_theme({1: {"a"}}, [])


class TestMicc:
    # "storm" docs all share (wind, rain); no other term is class-exclusive
    # in either direction, so MI provably peaks at exactly those two
    DOCS = {
        1: frozenset({"storm", "wind", "rain"}),
        2: frozenset({"storm", "wind", "rain", "x"}),
        3: frozenset({"storm", "wind", "rain", "y"}),
        4: frozenset({"goal", "team", "match"}),
        5: frozenset({"goal", "score"}),
        6: frozenset({"team", "match", "z"}),
    }

    def test_signature_terms_rank_first(self):
        candidates = ["wind", "rain", "x", "y", "goal", "team", "storm"]
        groups = select_keywords_micc(self.DOCS, ["storm"], candidates, k=2)
        assert set(groups["storm"].terms) == {"rain", "wind"}

    def test_matches_brute_force(self):
        candidates = ["wind", "rain", "x", "goal", "team"]
        members = {1, 2, 3}
        brute = {}
        for term in candidates:
            n11 = sum(1 for d in members if term in self.DOCS[d])
            n10 = sum(1 for d in self.DOCS if d not in members and term in self.DOCS[d])
            brute[term] = entropy_identity_mi(n11, n10, len(members) - n11, 3 - n10)
        expected = tuple(sorted(candidates, key=lambda t: (-brute[t], t))[:3])
        groups = select_keywords_micc(self.DOCS, ["storm"], candidates, k=3)
        assert groups["storm"].terms == expected

    def test_k_zero_empty_groups(self):
        groups = select_keywords_micc(self.DOCS, ["storm", "goal"], ["wind", "team"], k=0)
        assert groups["storm"].terms == ()
        assert groups["goal"].terms == ()

    def test_theme_word_excluded_from_own_group(self):
        groups = select_keywords_micc(self.DOCS, ["storm"], ["storm", "wind"], k=5)
        assert "storm" not in groups["storm"].terms

    def test_unmatched_theme_gets_empty_group(self):
        groups = select_keywords_micc(self.DOCS, ["storm", "nothere"], ["wind"], k=2)
        assert groups["nothere"].terms == ()

    def test_no_theme_matching_any_doc(self):
        with pytest.raises(ValueError):
            select_keywords_micc(self.DOCS, ["absent"], ["wind"], k=1)

    def test_group_metadata(self):
        groups = select_keywords_micc(self.DOCS, ["storm"], ["wind"], k=1)
        ks = groups["storm"]
        assert ks.provenance == "micc"
        assert dict(ks.params) == {"theme": "storm", "k": "1"}


def indicator_row(headline: str, body: str, terms) -> list[float]:
    """Matrix row of one pair under a single manual-keyword indicator block."""
    corpus = make_corpus([Instance(headline, 1, None)], {1: body})
    fitted = FittedPipeline(
        spec=PipelineSpec(name="kw", blocks=(BlockSpec(kind="indicator", keywords="m"),)),
        headline_vocab=None, body_vocab=None, shared_vocab=None, idf=None,
        keyword_sets={"m": KeywordSet(name="manual", terms=tuple(terms))},
        embeddings=None,
    )
    assert fitted.layout[0].name == "kw_manual"
    return list(fitted.matrix(corpus).matrix.toarray()[0])


class TestIndicators:
    def test_headline_hit(self):
        assert indicator_row("hoax", "none", ["hoax"]) == [1.0, 0.0]

    def test_absent_everywhere(self):
        assert indicator_row("a", "b", ["fake", "deny"]) == [0.0] * 4

    def test_body_hits_interleaved(self):
        assert indicator_row("other", "fake deny", ["fake", "deny"]) == [0.0, 1.0, 0.0, 1.0]

    def test_block_from_instance(self):
        assert indicator_row("Hoax!", "nothing to see", ("hoax", "see")) == [1.0, 0.0, 0.0, 1.0]

    def test_count_does_not_matter(self):
        assert indicator_row("fake fake", "fake fake fake", ["fake"]) == [1.0, 1.0]


class TestCorpusViews:
    def test_corpus_documents_tokenized_sets(self):
        corpus = make_corpus(
            [Instance("h", 1, Stance.AGREE)], {1: "The cat, the CAT!", 2: "dog"}
        )
        docs = corpus_documents(corpus)
        assert docs[1] == ["the", "cat", "the", "cat"]
        assert docs[2] == ["dog"]

    def test_stance_positive_bodies(self):
        corpus = make_corpus(
            [
                Instance("h1", 1, Stance.DISAGREE),
                Instance("h2", 1, Stance.AGREE),
                Instance("h3", 2, Stance.AGREE),
            ],
            {1: "a", 2: "b", 3: "c"},
        )
        assert stance_positive_bodies(corpus, {Stance.DISAGREE}) == {1}
        assert stance_positive_bodies(corpus, {Stance.AGREE}) == {1, 2}


class TestKeywordSetIo:
    def test_roundtrip(self, tmp_path):
        ks = KeywordSet(
            name="mi_disagree",
            terms=("fake", "hoax"),
            provenance="mi",
            params=(("k", "2"),),
        )
        path = tmp_path / "kw.txt"
        write_keyword_set(ks, path)
        back = read_keyword_set(path)
        assert back == ks

    def test_empty_terms_roundtrip(self, tmp_path):
        ks = KeywordSet(name="empty", terms=(), provenance="micc", params=(("k", "0"),))
        path = tmp_path / "kw.txt"
        write_keyword_set(ks, path)
        assert read_keyword_set(path) == ks

    def test_bad_file(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("not a keyword file\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_keyword_set(path)


class TestManualList:
    def test_fifteen_distinct_lowercase_terms(self):
        assert len(DEFAULT_REFUTATION_TERMS) == 15
        assert len(set(DEFAULT_REFUTATION_TERMS)) == 15
        assert all(t == t.lower() for t in DEFAULT_REFUTATION_TERMS)
