"""Feature pipelines: fitting, oracle parity of matrix rows, shared fits,
persistence, ensembles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stancekit.embeddings as embeddings
from stancekit.corpus import Corpus, Instance, Stance, make_corpus, plan_folds
from stancekit.embeddings import (
    CENTROID,
    WMD_EXACT,
    WMD_RELAXED,
    EmbeddingTable,
    load_embeddings,
    similarities,
)
from stancekit.ensemble import SUMMATION, EnsembleMember, EnsembleSpec
from stancekit.errors import ConfigError, IntegrityError
from stancekit.mlp import TrainingConfig, predict_batch, train
from stancekit.pipeline import (
    BlockSpec,
    KeywordSpec,
    PipelineSpec,
    ensemble_predictions,
    fit_keyword_set,
    fit_pipeline,
    load_pipeline,
    member_probabilities,
    save_pipeline,
    stance_labels,
)
from stancekit.text import intern, tokenize

from conftest import all_theme_words, synthetic_corpus, write_vectors
from oracles import PAIR_ATOL, centroid_cosine, feature_row, fuse_summation_row, pair_train

BASELINE_SPEC = PipelineSpec(name="plain", blocks=(BlockSpec(kind="baseline"),))


def small_corpus():
    return synthetic_corpus(n_instances=32, n_bodies=8, seed=3)


def input_width(fitted):
    """Feature columns of a pipeline: the widths of its layout blocks."""
    return sum(b.length for b in fitted.layout)


class TestSpecValidation:
    def test_manual_needs_terms(self):
        with pytest.raises(ConfigError, match="manual"):
            KeywordSpec(name="m", selector="manual")

    def test_micc_needs_themes(self):
        with pytest.raises(ConfigError, match="themes"):
            KeywordSpec(name="t", selector="micc")

    def test_unknown_selector(self):
        with pytest.raises(ConfigError, match="selector"):
            KeywordSpec(name="x", selector="chi2")

    def test_negative_k(self):
        with pytest.raises(ConfigError, match="k must be"):
            KeywordSpec(name="x", selector="mi", k=-2)

    def test_indicator_needs_keywords(self):
        with pytest.raises(ConfigError, match="keyword"):
            BlockSpec(kind="indicator")

    def test_similarity_needs_known_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            BlockSpec(kind="similarity")
        with pytest.raises(ConfigError, match="mode"):
            BlockSpec(kind="similarity", mode="cityblock")

    def test_unknown_block_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            BlockSpec(kind="bm25")

    def test_pipeline_needs_blocks(self):
        with pytest.raises(ConfigError, match="blocks"):
            PipelineSpec(name="p", blocks=())

    def test_pipeline_rejects_repeated_block(self):
        block = BlockSpec(kind="baseline")
        with pytest.raises(ConfigError, match="repeats"):
            PipelineSpec(name="p", blocks=(block, block))


class TestBaselineFit:
    def test_layout_and_dim(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=30)
        names = [b.name for b in fitted.layout]
        assert names == ["tf_headline", "tf_body", "tfidf_cos"]
        assert input_width(fitted) == (
            len(fitted.headline_vocab) + len(fitted.body_vocab) + 1
        )
        assert len(fitted.headline_vocab) <= 30
        assert len(fitted.body_vocab) <= 30

    def test_dense_rows_equal_sparse_matrix(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=25)
        fm = fitted.matrix(corpus)
        dense = fm.matrix.toarray()
        assert fm.shape == (len(corpus), input_width(fitted))
        for row, instance in enumerate(corpus.instances):
            assert np.array_equal(dense[row], feature_row(fitted, instance, corpus))

    def test_vocabulary_sees_only_fit_corpus(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=500)
        unseen = make_corpus(
            [Instance("zyzzyva headline", 1, Stance.UNRELATED)],
            {1: corpus.bodies[1]},
        )
        assert "zyzzyva" not in fitted.headline_vocab.index
        assert "zyzzyva" not in fitted.shared_vocab.index
        # featurizing unseen text still works, oov terms simply drop out
        fm = fitted.matrix(unseen)
        assert fm.shape == (1, input_width(fitted))
        assert np.array_equal(
            fm.matrix.toarray()[0], feature_row(fitted, unseen.instances[0], unseen)
        )

    def test_tf_log1p_compresses_counts(self):
        corpus = small_corpus()
        raw = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=25)
        logged = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=25, tf_log1p=True)
        tf_body = next(b for b in raw.layout if b.name == "tf_body")
        cols = slice(tf_body.offset, tf_body.offset + tf_body.length)
        raw_tf = raw.matrix(corpus).matrix.toarray()[:, cols]
        log_tf = logged.matrix(corpus).matrix.toarray()[:, cols]
        assert raw_tf.max() > 1.0
        assert np.allclose(log_tf, np.log1p(raw_tf), atol=1e-12)


class TestKeywordBlocks:
    def test_manual_indicator_block(self):
        corpus = small_corpus()
        spec = PipelineSpec(
            name="kw",
            blocks=(BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="refute")),
        )
        kw = {"refute": KeywordSpec(name="refute", selector="manual", terms=("fake", "hoax"))}
        fitted = fit_pipeline(spec, corpus, keyword_specs=kw, vocab_capacity=20)
        assert [b.name for b in fitted.layout][-1] == "kw_refute"
        assert input_width(fitted) == len(fitted.headline_vocab) + len(fitted.body_vocab) + 1 + 4

    def test_undefined_keyword_reference(self):
        corpus = small_corpus()
        spec = PipelineSpec(
            name="kw", blocks=(BlockSpec(kind="indicator", keywords="ghost"),)
        )
        with pytest.raises(ConfigError, match="ghost"):
            fit_pipeline(spec, corpus, keyword_specs={})

    def test_mi_selector_uses_corpus_labels(self):
        corpus = small_corpus()
        spec = KeywordSpec(name="auto", selector="mi", k=3, positive=(Stance.DISAGREE,))
        candidates = ["fake", "the", "news", "hoax"]
        ks = fit_keyword_set(spec, corpus, candidates)
        assert ks.provenance == "mi"
        assert len(ks.terms) == 3
        # every disagree headline carries "fake"; bodies with disagree instances
        # are the positive class, so "fake" should be informative but the
        # ranking itself is delegated to the selector oracle tests
        assert set(ks.terms) <= set(candidates)

    def test_micc_flattening_dedupes_in_theme_order(self):
        corpus = small_corpus()
        spec = KeywordSpec(
            name="themed", selector="micc", k=4, themes=("hoax", "vaccine")
        )
        candidates = sorted(
            {t for tokens in corpus.bodies.values() for t in tokens.split()}
        )
        ks = fit_keyword_set(spec, corpus, candidates)
        assert ks.provenance == "micc"
        assert len(set(ks.terms)) == len(ks.terms)
        assert dict(ks.params)["themes"] == "hoax+vaccine"

    def test_dense_sparse_parity_with_indicator(self):
        corpus = small_corpus()
        spec = PipelineSpec(
            name="kw",
            blocks=(BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="refute")),
        )
        kw = {"refute": KeywordSpec(name="refute", selector="manual", terms=("fake",))}
        fitted = fit_pipeline(spec, corpus, keyword_specs=kw, vocab_capacity=20)
        dense = fitted.matrix(corpus).matrix.toarray()
        for row, instance in enumerate(corpus.instances):
            assert np.array_equal(dense[row], feature_row(fitted, instance, corpus))


class TestSimilarityBlocks:
    def _table(self, tmp_path):
        from stancekit.embeddings import load_embeddings

        path = tmp_path / "vec.txt"
        write_vectors(path)
        return load_embeddings(path)

    def test_requires_embeddings(self):
        corpus = small_corpus()
        spec = PipelineSpec(
            name="emb",
            blocks=(BlockSpec(kind="baseline"), BlockSpec(kind="similarity", mode=CENTROID)),
        )
        with pytest.raises(ConfigError, match="embedding"):
            fit_pipeline(spec, corpus)

    def test_replace_requires_embeddings(self):
        fitted = fit_pipeline(BASELINE_SPEC, small_corpus(), vocab_capacity=20)
        spec = PipelineSpec(name="emb", blocks=(BlockSpec(kind="similarity", mode=CENTROID),))
        with pytest.raises(ConfigError, match="embedding"):
            replace(fitted, spec=spec)

    def test_adds_similarity_block(self, tmp_path):
        corpus = small_corpus()
        table = self._table(tmp_path)
        spec = PipelineSpec(
            name="emb",
            blocks=(
                BlockSpec(kind="baseline"),
                BlockSpec(kind="similarity", mode=CENTROID),
                BlockSpec(kind="similarity", mode=WMD_RELAXED),
            ),
        )
        fitted = fit_pipeline(spec, corpus, embeddings=table, vocab_capacity=20)
        names = [b.name for b in fitted.layout]
        assert "emb_centroid" in names and "emb_wmd_relaxed" in names
        dense = fitted.matrix(corpus).matrix.toarray()
        for row, instance in enumerate(corpus.instances):
            assert np.array_equal(dense[row], feature_row(fitted, instance, corpus))


def shared_headline_corpus():
    """Synthetic corpus in which every headline is also paired with a
    second body, as FNC-1 pairs one claim with many bodies. One headline
    has no word with an embedding, so its similarity columns degenerate."""
    base = synthetic_corpus(n_instances=48, n_bodies=12, seed=4)
    first = base.instances + (Instance("zyzzyva quux xyzzy", 1, Stance.UNRELATED),)
    extra = [Instance(i.headline, i.body_id % 12 + 1, Stance.UNRELATED) for i in first]
    return make_corpus(first + tuple(extra), base.bodies)


ORACLE_KEYWORDS = {
    "manual": KeywordSpec(name="manual", selector="manual", terms=("fake", "hoax", "study")),
    "mi": KeywordSpec(name="mi", selector="mi", k=5),
    "micc": KeywordSpec(name="micc", selector="micc", themes=("hoax", "vaccine"), k=4),
}

ORACLE_PIPELINES = {
    "baseline": (BlockSpec(kind="baseline"),),
    "manual": (BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="manual")),
    "mi": (BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="mi")),
    "micc": (BlockSpec(kind="indicator", keywords="micc"), BlockSpec(kind="baseline")),
    "centroid": (BlockSpec(kind="baseline"), BlockSpec(kind="similarity", mode=CENTROID)),
    "wmd_relaxed": (
        BlockSpec(kind="similarity", mode=WMD_RELAXED),
        BlockSpec(kind="indicator", keywords="manual"),
        BlockSpec(kind="baseline"),
    ),
    "wmd_exact": (BlockSpec(kind="baseline"), BlockSpec(kind="similarity", mode=WMD_EXACT)),
    # every similarity mode shares one embedded state per document
    "similarity": (
        BlockSpec(kind="similarity", mode=WMD_EXACT),
        BlockSpec(kind="similarity", mode=CENTROID),
        BlockSpec(kind="similarity", mode=WMD_RELAXED),
    ),
}


class TestOracleParity:
    """matrix() rows equal the per-instance oracle rows exactly."""

    @pytest.mark.parametrize("tf_log1p", [False, True])
    @pytest.mark.parametrize("name", sorted(ORACLE_PIPELINES))
    def test_matrix_rows_equal_oracle(self, name, tf_log1p, vectors_file):
        corpus = shared_headline_corpus()
        spec = PipelineSpec(name=name, blocks=ORACLE_PIPELINES[name])
        fitted = fit_pipeline(
            spec, corpus, keyword_specs=ORACLE_KEYWORDS,
            embeddings=load_embeddings(vectors_file), vocab_capacity=40,
            tf_log1p=tf_log1p,
        )
        unseen = synthetic_corpus(n_instances=20, n_bodies=5, seed=9)
        for part in (corpus, unseen):
            dense = fitted.matrix(part).matrix.toarray()
            assert dense.shape == (len(part), input_width(fitted))
            for row, instance in enumerate(part.instances):
                assert np.array_equal(dense[row], feature_row(fitted, instance, part))

    def test_missing_body_raises_integrity_error(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        broken = Corpus(instances=(Instance("a fake story", 99, None),), bodies=corpus.bodies)
        with pytest.raises(IntegrityError, match="99"):
            fitted.matrix(broken)


#: float64's unit roundoff
UNIT_ROUNDOFF = 2.0**-53


def reorder_drift(vectors: np.ndarray) -> float:
    """Bound on the distance between the sums of the rows of vectors taken
    in two orders, relative to the sum's norm: in any order, a sum of n
    vectors is within (n - 1)u * sum_i |x_i| of the exact one, componentwise."""
    spread = np.linalg.norm(np.abs(vectors).sum(axis=0)) / np.linalg.norm(vectors.sum(axis=0))
    return 2 * (len(vectors) - 1) * UNIT_ROUNDOFF * spread


def centroid_reorder_bound(head, body, table) -> float:
    """How far a centroid cosine may move when each side's occurrences are
    averaged in another order: a vector moved by a fraction e of its norm
    turns by at most asin(e) < 2e, the cosine of two unit vectors moves by
    at most the angles they turn, and 64u covers the rounding of the mean,
    the norms, the dot product and the quotient."""
    sides = [[table.index[t] for t in side if t in table.index] for side in (head, body)]
    if not all(sides):
        return 0.0  # both orders read 0.0
    return 2 * sum(reorder_drift(table.matrix[rows]) for rows in sides) + 64 * UNIT_ROUNDOFF


class TestCentroidTermOrder:
    """The centroid averages a document's occurrences in term order, the
    order of its count row; while the package read token lists it averaged
    them in text order. The two differ by rounding only."""

    @staticmethod
    def assert_within_bound(table, heads, bodies, head_row, body_row):
        got = similarities(intern([tokenize(h) for h in heads]),
                           intern([tokenize(b) for b in bodies]),
                           head_row, body_row, table, [CENTROID])[:, 0]
        for value, h, b in zip(got, head_row, body_row):
            head, body = tokenize(heads[h]), tokenize(bodies[b])
            assert value == centroid_cosine(head, body, table)
            before = centroid_cosine(head, body, table, order=list)
            assert abs(value - before) <= centroid_reorder_bound(head, body, table)

    def test_parity_corpora(self, vectors_file):
        table = load_embeddings(vectors_file)
        for part in (shared_headline_corpus(), synthetic_corpus(n_instances=20, n_bodies=5, seed=9)):
            heads, bodies = list(part.headlines), list(part.bodies.values())
            rows = [(part.headlines[i.headline], part.body_rows([i.body_id])[0])
                    for i in part.instances]
            self.assert_within_bound(table, heads, bodies, *zip(*rows))

    TABLE = EmbeddingTable(tuple(all_theme_words()),
                           np.random.default_rng(3).normal(size=(len(all_theme_words()), 8)))
    LONG_DOCUMENT = st.lists(st.sampled_from([*all_theme_words(), "unseen"]), min_size=1,
                             max_size=400).map(" ".join)

    @given(st.lists(LONG_DOCUMENT, min_size=1, max_size=3),
           st.lists(LONG_DOCUMENT, min_size=1, max_size=3))
    def test_long_repeating_documents(self, heads, bodies):
        pairs = [(h, b) for h in range(len(heads)) for b in range(len(bodies))]
        self.assert_within_bound(self.TABLE, heads, bodies, *zip(*pairs))


# one spec per kind of pipeline a shared fit must reproduce on its own
DERIVED_PIPELINES = {
    "baseline": (BlockSpec(kind="baseline"),),
    "baseline_indicator": (BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="mi")),
    "indicator": (BlockSpec(kind="indicator", keywords="micc"),),
    "similarity": (BlockSpec(kind="similarity", mode=WMD_RELAXED),),
}


def same_csr(a, b) -> bool:
    return (
        np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


class TestSharedFit:
    """A pipeline derived from one fit over the union of several pipelines'
    blocks featurizes and saves exactly as a fit of its own spec."""

    @pytest.mark.parametrize("name", sorted(DERIVED_PIPELINES))
    def test_derived_equals_standalone(self, name, tmp_path, vectors_file):
        corpus = shared_headline_corpus()
        kwargs = dict(
            keyword_specs=ORACLE_KEYWORDS,
            embeddings=load_embeddings(vectors_file),
            vocab_capacity=40,
        )
        union = tuple(dict.fromkeys(b for bs in DERIVED_PIPELINES.values() for b in bs))
        shared = fit_pipeline(PipelineSpec(name="union", blocks=union), corpus, **kwargs)
        spec = PipelineSpec(name=name, blocks=DERIVED_PIPELINES[name])
        derived = replace(shared, spec=spec)
        alone = fit_pipeline(spec, corpus, **kwargs)
        assert derived.layout == alone.layout
        unseen = synthetic_corpus(n_instances=20, n_bodies=5, seed=9)
        for part in (corpus, unseen):
            want = alone.matrix(part).matrix
            assert same_csr(derived.assemble(shared.block_matrices(part)).matrix, want)
            assert same_csr(derived.matrix(part).matrix, want)
        save_pipeline(derived, tmp_path / "derived", name)
        save_pipeline(alone, tmp_path / "alone", name)
        written = sorted(p.name for p in (tmp_path / "alone").iterdir())
        assert sorted(p.name for p in (tmp_path / "derived").iterdir()) == written
        for fname in written:
            assert (tmp_path / "derived" / fname).read_bytes() == (
                tmp_path / "alone" / fname
            ).read_bytes()

    def test_blocks_are_the_layout_slices(self, vectors_file):
        corpus = shared_headline_corpus()
        spec = PipelineSpec(name="all", blocks=ORACLE_PIPELINES["wmd_relaxed"])
        fitted = fit_pipeline(
            spec, corpus, keyword_specs=ORACLE_KEYWORDS,
            embeddings=load_embeddings(vectors_file), vocab_capacity=40,
        )
        full = fitted.matrix(corpus).matrix.toarray()
        blocks = fitted.block_matrices(corpus)
        start = 0
        for block in spec.blocks:
            width = blocks[block].shape[1]
            assert np.array_equal(blocks[block].matrix.toarray(), full[:, start : start + width])
            start += width
        assert start == input_width(fitted)

    def test_centroid_only_builds_no_nbow(self, monkeypatch, vectors_file):
        corpus = shared_headline_corpus()
        centroid = BlockSpec(kind="similarity", mode=CENTROID)
        relaxed = BlockSpec(kind="similarity", mode=WMD_RELAXED)
        spec = PipelineSpec(name="both", blocks=(centroid, relaxed))
        both = fit_pipeline(spec, corpus, embeddings=load_embeddings(vectors_file))
        want = both.block_matrices(corpus)[centroid].matrix

        def refuse(*args, **kwargs):
            raise AssertionError("nBOW masses built for a centroid-only pipeline")

        monkeypatch.setattr(embeddings, "_apportion", refuse)
        only = replace(both, spec=PipelineSpec(name="only", blocks=(centroid,)))
        got = only.matrix(corpus).matrix
        assert same_csr(got, want)
        dense = got.toarray()
        for row, instance in enumerate(corpus.instances):
            assert np.array_equal(dense[row], feature_row(only, instance, corpus))

    def test_wmd_modes_share_one_cost_matrix_per_pair(self, monkeypatch, vectors_file):
        """A fit with both WMD modes builds the ground distances of each
        distinct pair with two embedded sides once, for both blocks."""
        corpus = shared_headline_corpus()
        table = load_embeddings(vectors_file)
        spec = PipelineSpec(name="all", blocks=ORACLE_PIPELINES["similarity"])
        fitted = fit_pipeline(spec, corpus, embeddings=table)
        built = []
        cost_matrix = embeddings._cost_matrix
        monkeypatch.setattr(embeddings, "_cost_matrix",
                            lambda a, b: built.append(1) or cost_matrix(a, b))
        fitted.block_matrices(corpus)
        head = embeddings._embedder(corpus.headline_counts, table, nbow=True)
        body = embeddings._embedder(corpus.body_counts, table, nbow=True)
        scored = {
            (i.headline, i.body_id) for i in corpus.instances
            if head(corpus.headlines[i.headline]) is not None
            and body(*corpus.body_rows([i.body_id])) is not None
        }
        assert 0 < len(scored) < len(corpus)
        assert len(built) == len(scored)


class TestFoldCorpus:
    """A fold's training side, which holds its parent's token lists, fits
    and saves as a freshly built copy of it does."""

    @pytest.mark.parametrize("fold", [0, 1, 2])
    def test_split_fits_as_fresh_copy(self, fold, tmp_path):
        corpus = shared_headline_corpus()
        train = plan_folds(corpus, k=3, seed=4).split(corpus, fold)[0]
        fresh = make_corpus(train.instances, dict(train.bodies))
        spec = PipelineSpec(name="fold", blocks=(
            BlockSpec(kind="baseline"),
            BlockSpec(kind="indicator", keywords="mi"),
            BlockSpec(kind="indicator", keywords="micc"),
        ))
        saved = {}
        for name, part in (("split", train), ("fresh", fresh)):
            fitted = fit_pipeline(spec, part, keyword_specs=ORACLE_KEYWORDS, vocab_capacity=40)
            save_pipeline(fitted, tmp_path / name, "fold")
            saved[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        # three vocabularies, the IDF table with its document count, two keyword sets
        assert len(saved["split"]) == 7
        assert saved["split"] == saved["fresh"]


class TestLabels:
    def test_stance_labels_order(self):
        corpus = small_corpus()
        labels = stance_labels(corpus)
        assert list(labels) == [i.stance.index for i in corpus.instances]

    def test_unlabeled_instance_rejected(self):
        corpus = make_corpus([Instance("h", 1, None)], {1: "b"})
        with pytest.raises(ValueError, match="unlabeled"):
            stance_labels(corpus)


def train_tiny(fitted, corpus, seed=0):
    cfg = TrainingConfig(
        learning_rate=0.05, batch_size=8, epochs=15, dropout_keep=1.0,
        l2_lambda=1e-4, seed=seed,
    )
    return train(fitted.matrix(corpus), stance_labels(corpus), cfg, hidden_dim=6)


class TestModelGlue:
    def test_member_probabilities_shape(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        model = train_tiny(fitted, corpus)
        probs = member_probabilities(model, fitted, corpus)
        assert probs.shape == (len(corpus), 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_layout_mismatch_names_both(self):
        corpus = small_corpus()
        fitted_a = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        fitted_b = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=10)
        model = train_tiny(fitted_a, corpus)
        with pytest.raises(ValueError, match="tf_headline"):
            member_probabilities(model, fitted_b, corpus)

    def test_summation_ensemble_matches_manual_fusion(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        model_a = train_tiny(fitted, corpus, seed=1)
        model_b = train_tiny(fitted, corpus, seed=2)
        spec = EnsembleSpec(
            name="duo",
            members=(
                EnsembleMember(model="a", pipeline="plain"),
                EnsembleMember(model="b", pipeline="plain"),
            ),
            rule=SUMMATION,
        )
        stances, fused = ensemble_predictions(
            spec, {"a": model_a, "b": model_b}, {"plain": fitted}, corpus
        )
        probs_a = member_probabilities(model_a, fitted, corpus)
        probs_b = member_probabilities(model_b, fitted, corpus)
        for row in range(len(corpus)):
            want, decided = fuse_summation_row([probs_a[row], probs_b[row]])
            assert np.array_equal(fused[row], want)
            assert stances[row] is decided

    def test_ensemble_missing_model_name(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        spec = EnsembleSpec(
            name="solo",
            members=(EnsembleMember(model="ghost", pipeline="plain"),),
            rule=SUMMATION,
        )
        with pytest.raises(ConfigError, match="ghost"):
            ensemble_predictions(spec, {}, {"plain": fitted}, corpus)


class TestDocumentRows:
    """Features keep a headline's and a body's columns once per document;
    training and prediction from them match those from the example rows."""

    @pytest.mark.parametrize("keep", [1.0, 0.6])
    @pytest.mark.parametrize("name", sorted(ORACLE_PIPELINES))
    def test_train_and_predict_match_example_rows(self, name, keep, vectors_file):
        corpus = shared_headline_corpus()
        spec = PipelineSpec(name=name, blocks=ORACLE_PIPELINES[name])
        fitted = fit_pipeline(spec, corpus, keyword_specs=ORACLE_KEYWORDS,
                              embeddings=load_embeddings(vectors_file), vocab_capacity=40)
        features = fitted.matrix(corpus)
        documents = {i.headline for i in corpus.instances} | set(corpus.bodies)
        assert features.docs.shape[0] == len(documents)
        cfg = TrainingConfig(learning_rate=0.05, batch_size=8, epochs=5, dropout_keep=keep,
                             l2_lambda=1e-4, seed=3)
        model = train(features, stance_labels(corpus), cfg, hidden_dim=6)
        want, _ = pair_train(features, stance_labels(corpus), cfg, hidden_dim=6)
        for field in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(model, field), getattr(want, field),
                               rtol=0, atol=PAIR_ATOL), field
        unseen = fitted.matrix(synthetic_corpus(n_instances=20, n_bodies=5, seed=9))
        stances, probs = predict_batch(model, unseen)
        from_rows = predict_batch(model, unseen.matrix)
        assert stances == from_rows[0]
        assert np.allclose(probs, from_rows[1], rtol=1e-12, atol=0)


class TestPersistence:
    @pytest.mark.parametrize("tf_log1p", [False, True])
    def test_roundtrip_identical_features(self, tmp_path, tf_log1p):
        corpus = small_corpus()
        spec = PipelineSpec(
            name="kw",
            blocks=(BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="refute")),
        )
        kw = {"refute": KeywordSpec(name="refute", selector="manual", terms=("fake", "hoax"))}
        fitted = fit_pipeline(spec, corpus, keyword_specs=kw, vocab_capacity=20,
                              tf_log1p=tf_log1p)
        written = save_pipeline(fitted, tmp_path / "first", "kw")
        back = load_pipeline(tmp_path / "first", "kw")
        assert back.tf_log1p is tf_log1p
        assert [b.name for b in back.layout] == [b.name for b in fitted.layout]
        a = fitted.matrix(corpus).matrix.toarray()
        b = back.matrix(corpus).matrix.toarray()
        assert np.array_equal(a, b)
        # saving what was loaded writes the same files, byte for byte
        assert save_pipeline(back, tmp_path / "again", "kw") == written
        for fname in written:
            assert (tmp_path / "again" / fname).read_bytes() == \
                (tmp_path / "first" / fname).read_bytes()

    def test_table_attached_at_fit_does_not_poison_manifest(self, tmp_path, vectors_file):
        """A run-wide embedding table may be handed to every pipeline; one
        without similarity blocks must still reload without the table."""
        corpus = small_corpus()
        spec = PipelineSpec(name="plain", blocks=(BlockSpec(kind="baseline"),))
        table = load_embeddings(vectors_file)
        fitted = fit_pipeline(spec, corpus, embeddings=table, vocab_capacity=20)
        save_pipeline(fitted, tmp_path, "plain")
        back = load_pipeline(tmp_path, "plain")
        assert np.array_equal(
            fitted.matrix(corpus).matrix.toarray(), back.matrix(corpus).matrix.toarray()
        )

    def test_missing_pipeline_name(self, tmp_path):
        with pytest.raises(ConfigError, match="ghost"):
            load_pipeline(tmp_path, "ghost")

    def test_similarity_pipeline_needs_embeddings_on_load(self, tmp_path):
        corpus = small_corpus()
        from stancekit.embeddings import load_embeddings

        vec_path = tmp_path / "vec.txt"
        write_vectors(vec_path)
        table = load_embeddings(vec_path)
        spec = PipelineSpec(
            name="emb",
            blocks=(BlockSpec(kind="baseline"), BlockSpec(kind="similarity", mode=CENTROID)),
        )
        fitted = fit_pipeline(spec, corpus, embeddings=table, vocab_capacity=15)
        save_pipeline(fitted, tmp_path, "emb")
        with pytest.raises(ConfigError, match="embedding"):
            load_pipeline(tmp_path, "emb")
        back = load_pipeline(tmp_path, "emb", embeddings=table)
        assert np.array_equal(
            back.matrix(corpus).matrix.toarray(), fitted.matrix(corpus).matrix.toarray()
        )

    def test_trained_model_usable_after_reload(self, tmp_path):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        model = train_tiny(fitted, corpus)
        save_pipeline(fitted, tmp_path, "plain")
        back = load_pipeline(tmp_path, "plain")
        direct = predict_batch(model, fitted.matrix(corpus).matrix)[0]
        reloaded = predict_batch(model, back.matrix(corpus).matrix)[0]
        assert direct == reloaded
