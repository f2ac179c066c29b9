"""Corpus loading, integrity checks, and body-level fold planning."""

import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancekit.corpus import (
    STANCES,
    Corpus,
    Instance,
    Stance,
    decisions,
    load_bodies,
    load_corpus,
    load_stances,
    make_corpus,
    plan_folds,
    stance_indices,
    validation_split,
)
from stancekit.errors import ConfigError, DataFormatError, IntegrityError

from conftest import (
    TRICKY_BODY,
    fnc_paths,
    requires_fnc,
    synthetic_corpus,
    write_bodies,
    write_corpus_files,
    write_stances,
)
from oracles import scipy_csr


class TestStance:
    def test_canonical_order(self):
        assert [s.value for s in STANCES] == ["agree", "disagree", "discuss", "unrelated"]
        assert [s.index for s in STANCES] == [0, 1, 2, 3]

    def test_parse_case_insensitive(self):
        assert Stance.parse("AGREE") is Stance.AGREE
        assert Stance.parse("Disagree") is Stance.DISAGREE
        assert Stance.parse(" discuss ") is Stance.DISCUSS

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="maybe"):
            Stance.parse("maybe")

    def test_str_is_wire_name(self):
        assert str(Stance.UNRELATED) == "unrelated"


class TestStanceIndices:
    def test_stances_and_indices_mix(self):
        y = stance_indices([Stance.UNRELATED, 1, Stance.AGREE, np.int32(2)])
        assert y.dtype == np.int64
        assert y.tolist() == [3, 1, 0, 2]

    def test_integer_array_returned_as_is(self):
        y = np.array([0, 3, 2], dtype=np.int64)
        assert stance_indices(y) is y

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_out_of_range_rejected(self, bad, as_array):
        labels = [0, 1, bad]
        want = rf"label {bad} is not a stance index 0..3 \(position 2\)"
        with pytest.raises(ValueError, match=want):
            stance_indices(np.array(labels) if as_array else labels)

    def test_unlabeled_names_its_position(self):
        with pytest.raises(ValueError, match="position 1 is unlabeled"):
            stance_indices([Stance.AGREE, None])

    def test_empty(self):
        assert stance_indices([]).shape == (0,)


class TestDecisions:
    def test_argmax_in_canonical_order(self):
        probs = np.eye(4)[[2, 0, 3, 1]]
        assert decisions(probs) == [Stance.DISCUSS, Stance.AGREE, Stance.UNRELATED,
                                    Stance.DISAGREE]

    def test_tie_goes_to_lowest_index(self):
        assert decisions(np.array([[0.1, 0.4, 0.1, 0.4], [0.25] * 4])) == [
            Stance.DISAGREE, Stance.AGREE]

    def test_no_rows(self):
        assert decisions(np.empty((0, 4))) == []

    def test_round_trip(self):
        stances = [STANCES[i % 4] for i in range(9)]
        assert decisions(np.eye(4)[stance_indices(stances)]) == stances


class TestLoaders:
    def test_load_stances_order_and_fields(self, tmp_path):
        path = tmp_path / "stances.csv"
        write_stances(path, [("some headline", 42, "AGREE"), ("other", 7, "unrelated")])
        instances = load_stances(path)
        assert len(instances) == 2
        assert instances[0] == Instance(headline="some headline", body_id=42, stance=Stance.AGREE)
        assert instances[1].stance is Stance.UNRELATED

    def test_load_stances_unlabeled(self, tmp_path):
        path = tmp_path / "stances.csv"
        write_stances(path, [("h1", 1, None), ("h2", 2, None)], labeled=False)
        instances = load_stances(path)
        assert [i.stance for i in instances] == [None, None]

    def test_load_stances_bad_label_names_row(self, tmp_path):
        path = tmp_path / "stances.csv"
        write_stances(path, [("fine", 1, "agree"), ("broken", 2, "maybe")])
        with pytest.raises(DataFormatError, match="row 3"):
            load_stances(path)

    def test_load_stances_missing_column(self, tmp_path):
        path = tmp_path / "stances.csv"
        path.write_text("Headline,Stance\nh,agree\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="Body ID"):
            load_stances(path)

    def test_load_bodies_roundtrip_with_embedded_newline(self, tmp_path):
        path = tmp_path / "bodies.csv"
        write_bodies(path, {1: "plain text", 3: TRICKY_BODY})
        bodies = load_bodies(path)
        assert bodies == {1: "plain text", 3: TRICKY_BODY}
        assert "\n" in bodies[3] and '"' in bodies[3]

    def test_load_bodies_duplicate_id(self, tmp_path):
        path = tmp_path / "bodies.csv"
        path.write_text('Body ID,articleBody\n1,"a"\n1,"c"\n', encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate body id 1"):
            load_bodies(path)

    def test_load_bodies_field_past_csv_default_limit(self, tmp_path):
        # csv reads at most 131,072 characters a field unless told otherwise
        path = tmp_path / "bodies.csv"
        long_body = ("word " * 40_000)[:200_000]
        write_bodies(path, {1: long_body, 2: "short"})
        assert load_bodies(path) == {1: long_body, 2: "short"}

    @pytest.mark.parametrize("loader,header", [(load_stances, b"Headline,Body ID,Stance\n"),
                                               (load_bodies, b"Body ID,articleBody\n")])
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_bytes_not_utf8_name_the_file(self, tmp_path, loader, header, where):
        path = tmp_path / "data.csv"
        row = b"caf\xe9 latte,1,agree\n" if loader is load_stances else b"1,caf\xe9 latte\n"
        raw = header + row
        path.write_bytes(b"\xff" + raw if where == "header" else raw)
        with pytest.raises(DataFormatError, match=r"data\.csv: not UTF-8 text \(byte 0x(ff|e9)"):
            loader(path)

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path):
        """A spreadsheet that saves "UTF-8 with BOM" puts EF BB BF before
        the header; the first column keeps its name."""
        plain = synthetic_corpus(n_instances=12, n_bodies=4, seed=3)
        loaded = {}
        for kind in ("plain", "bom"):
            stances, bodies = tmp_path / f"{kind}_s.csv", tmp_path / f"{kind}_b.csv"
            write_corpus_files(plain, stances, bodies)
            if kind == "bom":
                for path in (stances, bodies):
                    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            loaded[kind] = load_corpus(stances, bodies)
        assert loaded["bom"].instances == loaded["plain"].instances == plain.instances
        assert loaded["bom"].bodies == loaded["plain"].bodies == plain.bodies

    def test_make_corpus_integrity(self):
        good = make_corpus([Instance("h", 7, None)], {7: "t"})
        assert len(good) == 1
        with pytest.raises(IntegrityError, match=r"\[8\]"):
            make_corpus([Instance("h", 8, None)], {7: "t"})

    def test_load_corpus_pairing(self, tmp_path):
        stances, bodies = tmp_path / "s.csv", tmp_path / "b.csv"
        write_stances(stances, [("headline one", 1, "discuss")])
        write_bodies(bodies, {1: "body one", 2: "spare body"})
        corpus = load_corpus(stances, bodies)
        assert len(corpus) == 1
        assert corpus.bodies == {1: "body one", 2: "spare body"}


class TestTokenLists:
    def test_body_and_headline_token_lists(self):
        corpus = make_corpus(
            [Instance("Cat?", 1, None), Instance("Dog", 2, None), Instance("Cat?", 2, None)],
            {1: "The cat, the CAT!", 2: "dog", 3: ""},
        )
        assert corpus.body_tokens == {1: ["the", "cat", "the", "cat"], 2: ["dog"], 3: []}
        assert list(corpus.headline_tokens.items()) == [("Cat?", ["cat"]), ("Dog", ["dog"])]

    def test_token_strings_interned(self):
        """The token lists share one string per term, and so does each
        side's term table."""
        corpus = Corpus(instances=(Instance("cat nap", 1, None),), bodies={1: "cat", 2: "the cat"})
        cat = corpus.headline_tokens["cat nap"][0]
        assert corpus.tokens_of_body(1)[0] is cat
        assert corpus.tokens_of_body(2)[1] is cat
        for counts in (corpus.headline_counts, corpus.body_counts):
            assert counts.terms[0] is cat
        table, *side_ids = corpus.terms
        assert table == ("cat", "nap", "the")
        assert [ids.tolist() for ids in side_ids] == [[0, 1], [0, 2]]

    def test_counts_rows_follow_token_lists(self):
        corpus = make_corpus(
            [Instance("Cat?", 1, None), Instance("Dog", 2, None), Instance("Cat?", 2, None)],
            {1: "The cat, the CAT!", 2: "dog", 3: ""},
        )
        assert corpus.headlines == {"Cat?": 0, "Dog": 1}
        assert corpus.headline_weights.tolist() == [2, 1]
        assert corpus.body_weights.tolist() == [1, 1, 1]
        heads, bodies = corpus.headline_counts, corpus.body_counts
        assert heads.terms == ("cat", "dog")
        assert scipy_csr(heads.matrix).toarray().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert bodies.terms == ("cat", "dog", "the")
        assert (scipy_csr(bodies.matrix).toarray().tolist()
                == [[2.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0] * 3])
        assert corpus.body_rows([3, 1]) == [2, 0]
        with pytest.raises(IntegrityError, match="body id 4 not in corpus"):
            corpus.body_rows([1, 4])

    def test_tokens_of_body_unknown_id(self, toy_corpus):
        with pytest.raises(IntegrityError, match="10000"):
            toy_corpus.tokens_of_body(10_000)


class TestRestrict:
    def test_restrict_drops_instances_and_bodies(self, toy_corpus):
        keep = set(list(toy_corpus.bodies)[:5])
        sub = toy_corpus.restrict(keep)
        assert set(sub.bodies) == keep
        assert all(i.body_id in keep for i in sub.instances)
        # instance order preserved
        kept = [i for i in toy_corpus.instances if i.body_id in keep]
        assert list(sub.instances) == kept

    @pytest.mark.parametrize("fold", [0, 1, 2])
    def test_fold_holds_only_its_own_token_lists(self, fold):
        """A part holds no token lists or counts of its own: it reads its
        source's, and its weights pick out its own rows of them. Those rows
        count what interning the part afresh counts."""
        corpus = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
        for part in plan_folds(corpus, k=3, seed=4).split(corpus, fold):
            assert part.source is corpus
            for shared in ("headline_tokens", "body_tokens", "headline_counts", "body_counts",
                           "terms", "headlines"):
                assert getattr(part, shared) is getattr(corpus, shared)
            fresh = make_corpus(part.instances, part.bodies)
            own = {"headline": [corpus.headlines[h] for h in fresh.headlines],
                   "body": corpus.body_rows(part.bodies)}
            for side, rows in own.items():
                got, want = getattr(part, f"{side}_counts"), getattr(fresh, f"{side}_counts")
                assert np.flatnonzero(getattr(part, f"{side}_weights")).tolist() == sorted(rows)
                kept, fresh_rows = scipy_csr(got.matrix)[rows], scipy_csr(want.matrix)
                assert kept.nnz == fresh_rows.nnz
                columns = [got.terms.index(t) for t in want.terms]
                assert np.array_equal(kept[:, columns].toarray(), fresh_rows.toarray())
            assert part.headline_weights.sum() == len(part.instances)

    def test_part_of_a_part_reads_the_first_source(self, toy_corpus):
        train, held = validation_split(toy_corpus.restrict(list(toy_corpus.bodies)[:12]), 0.5, 3)
        assert train.source is held.source is toy_corpus


def count_tokenize(monkeypatch) -> list[str]:
    """The text of every tokenize call the corpus module makes from now on."""
    import stancekit.corpus

    texts, real = [], stancekit.corpus.tokenize
    monkeypatch.setattr(stancekit.corpus, "tokenize", lambda text: texts.append(text) or real(text))
    return texts


class TestLaziness:
    """Loading tokenizes nothing; a corpus tokenizes each distinct text once
    on first read, and the parts restrict takes re-tokenize nothing."""

    def test_load_corpus_tokenizes_nothing(self, tmp_path, monkeypatch):
        stances, bodies = tmp_path / "s.csv", tmp_path / "b.csv"
        write_corpus_files(synthetic_corpus(n_instances=12, n_bodies=4, seed=3), stances, bodies)
        texts = count_tokenize(monkeypatch)
        corpus = load_corpus(stances, bodies)
        make_corpus(corpus.instances, corpus.bodies)
        assert texts == []

    @pytest.mark.parametrize("parent_read_first", [False, True])
    def test_parts_retokenize_nothing(self, monkeypatch, parent_read_first):
        corpus = synthetic_corpus(n_instances=96, n_bodies=24, seed=5)
        texts = count_tokenize(monkeypatch)
        if parent_read_first:
            corpus.headline_counts, corpus.body_counts
        parts = [*plan_folds(corpus, k=3, seed=4).split(corpus, 1),
                 *validation_split(corpus, 0.25, seed=2)]
        for part in parts:
            part.headline_counts, part.body_counts, part.headline_tokens, part.body_tokens
            assert part.headline_counts.terms is corpus.headline_counts.terms
            assert part.body_counts.terms is corpus.body_counts.terms
        assert sorted(texts) == sorted([*corpus.headlines, *corpus.bodies.values()])

    def test_body_side_tokenizes_no_headline(self, toy_corpus, monkeypatch):
        corpus = make_corpus(toy_corpus.instances, toy_corpus.bodies)
        texts = count_tokenize(monkeypatch)
        corpus.restrict(list(corpus.bodies)[:5]).body_counts
        assert sorted(texts) == sorted(corpus.bodies.values())


class TestFoldPlanning:
    def test_each_fold_one_body(self):
        corpus = synthetic_corpus(n_instances=20, n_bodies=10)
        plan = plan_folds(corpus, k=10, seed=0)
        for fold in range(10):
            assert len(plan.bodies_in(fold)) == 1

    def test_deterministic(self, toy_corpus):
        a = plan_folds(toy_corpus, k=5, seed=3)
        b = plan_folds(toy_corpus, k=5, seed=3)
        assert a.assignments == b.assignments

    def test_seed_changes_plan(self, toy_corpus):
        a = plan_folds(toy_corpus, k=5, seed=3)
        b = plan_folds(toy_corpus, k=5, seed=4)
        assert a.assignments != b.assignments

    def test_instances_follow_their_body(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=4, seed=1)
        for fold in range(4):
            train, heldout = plan.split(toy_corpus, fold)
            heldout_bodies = plan.bodies_in(fold)
            assert all(i.body_id in heldout_bodies for i in heldout.instances)
            assert all(i.body_id not in heldout_bodies for i in train.instances)

    def test_fold_sizes_balanced(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=5, seed=9)
        sizes = [len(plan.bodies_in(f)) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(toy_corpus.bodies)

    def test_too_few_bodies(self):
        corpus = synthetic_corpus(n_instances=4, n_bodies=3)
        with pytest.raises(ConfigError, match="at least 4 bodies"):
            plan_folds(corpus, k=4, seed=0)

    def test_k_below_two(self, toy_corpus):
        with pytest.raises(ValueError, match=">= 2"):
            plan_folds(toy_corpus, k=1, seed=0)

    @given(n_bodies=st.integers(2, 40), k=st.integers(2, 8), seed=st.integers(0, 99))
    def test_partition_property(self, n_bodies, k, seed):
        if n_bodies < k:
            return
        corpus = synthetic_corpus(n_instances=n_bodies, n_bodies=n_bodies, seed=1)
        plan = plan_folds(corpus, k=k, seed=seed)
        folds = [plan.bodies_in(f) for f in range(k)]
        union = set().union(*folds)
        assert union == set(corpus.bodies)
        assert sum(len(f) for f in folds) == len(corpus.bodies)
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1


def with_unreferenced_bodies(corpus: Corpus, n: int) -> Corpus:
    """corpus plus n bodies that no stance row references."""
    bodies = dict(corpus.bodies)
    bodies.update({1000 + b: f"unreferenced body {b}" for b in range(n)})
    return make_corpus(corpus.instances, bodies)


class TestUnreferencedBodies:
    @given(extra=st.integers(1, 400), k=st.integers(2, 10), seed=st.integers(0, 10_000))
    def test_every_fold_holds_instances_and_training_keeps_unreferenced(self, extra, k, seed):
        base = synthetic_corpus(n_instances=48, n_bodies=24, seed=5)
        corpus = with_unreferenced_bodies(base, extra)
        unreferenced = set(corpus.bodies) - set(base.bodies)
        plan = plan_folds(corpus, k=k, seed=seed)
        assert plan.assignments == plan_folds(base, k=k, seed=seed).assignments
        for fold in range(k):
            train, test = plan.split(corpus, fold)
            assert test.instances and train.instances
            assert unreferenced <= set(train.bodies)
            assert set(train.bodies) | set(test.bodies) == set(corpus.bodies)

    def test_too_few_referenced_bodies(self):
        corpus = with_unreferenced_bodies(synthetic_corpus(n_instances=4, n_bodies=3), 10)
        with pytest.raises(ConfigError, match="at least 4 bodies for 4 folds, have 3"):
            plan_folds(corpus, k=4, seed=0)


class TestValidationSplit:
    def test_disjoint_and_total(self, toy_corpus):
        train, val = validation_split(toy_corpus, fraction=0.25, seed=2)
        assert set(train.bodies) | set(val.bodies) == set(toy_corpus.bodies)
        assert not set(train.bodies) & set(val.bodies)
        assert len(train.instances) + len(val.instances) == len(toy_corpus)

    def test_fraction_respected(self, toy_corpus):
        train, val = validation_split(toy_corpus, fraction=0.25, seed=2)
        assert len(val.bodies) == pytest.approx(len(toy_corpus.bodies) * 0.25, abs=1)

    def test_bad_fraction(self, toy_corpus):
        with pytest.raises(ValueError):
            validation_split(toy_corpus, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            validation_split(toy_corpus, fraction=1.0, seed=0)
        for fraction in (0.6, 0.9):  # each would hold out half the bodies
            with pytest.raises(ValueError, match="at most half"):
                validation_split(toy_corpus, fraction=fraction, seed=0)

    def test_half_held_out(self, toy_corpus):
        train, val = validation_split(toy_corpus, fraction=0.5, seed=2)
        assert len(val.bodies) == pytest.approx(len(toy_corpus.bodies) / 2, abs=1)


@requires_fnc
class TestFullDataset:
    """Row counts cross-checked with a separate csv-module line count."""

    def _count_rows(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return sum(1 for _ in csv.reader(fh)) - 1  # minus header

    def test_train_stances_count(self):
        paths = fnc_paths()
        instances = load_stances(paths["train_stances"])
        assert len(instances) == 49_972
        assert self._count_rows(paths["train_stances"]) == 49_972

    def test_train_bodies_count(self):
        paths = fnc_paths()
        bodies = load_bodies(paths["train_bodies"])
        assert len(bodies) == 1_683
        assert self._count_rows(paths["train_bodies"]) == 1_683

    def test_train_corpus_assembles(self):
        paths = fnc_paths()
        corpus = load_corpus(paths["train_stances"], paths["train_bodies"])
        assert len(corpus) == 49_972
        assert len(corpus.bodies) == 1_683

    def test_fold_plan_on_full_corpus(self):
        paths = fnc_paths()
        corpus = load_corpus(paths["train_stances"], paths["train_bodies"])
        plan = plan_folds(corpus, k=10, seed=0)
        for instance in corpus.instances:
            assert plan.assignments[instance.body_id] in range(10)
        sizes = sorted(len(plan.bodies_in(f)) for f in range(10))
        assert sizes[-1] - sizes[0] <= 1
