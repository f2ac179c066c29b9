"""Feature pipelines: fitting, oracle parity of matrix rows, persistence, ensembles."""

import numpy as np
import pytest

from stancekit.corpus import Corpus, Instance, Stance, make_corpus
from stancekit.embeddings import CENTROID, WMD_RELAXED, load_embeddings
from stancekit.ensemble import SUMMATION, EnsembleMember, EnsembleSpec
from stancekit.errors import ConfigError, IntegrityError
from stancekit.keywords import corpus_documents
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

from conftest import synthetic_corpus, write_vectors
from oracles import feature_row, fuse_summation_row

BASELINE_SPEC = PipelineSpec(name="plain", blocks=(BlockSpec(kind="baseline"),))


def small_corpus():
    return synthetic_corpus(n_instances=32, n_bodies=8, seed=3)


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
        assert fitted.input_dim == (
            len(fitted.headline_vocab) + len(fitted.body_vocab) + 1
        )
        assert len(fitted.headline_vocab) <= 30
        assert len(fitted.body_vocab) <= 30

    def test_dense_rows_equal_sparse_matrix(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=25)
        fm = fitted.matrix(corpus)
        dense = fm.matrix.toarray()
        assert fm.shape == (len(corpus), fitted.input_dim)
        for row, instance in enumerate(corpus.instances):
            assert np.array_equal(dense[row], feature_row(fitted, instance, corpus))

    def test_vocabulary_sees_only_fit_corpus(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=500)
        unseen = make_corpus(
            [Instance("zyzzyva headline", 1, Stance.UNRELATED)],
            {1: corpus.body_text(1)},
        )
        assert "zyzzyva" not in fitted.headline_vocab
        assert "zyzzyva" not in fitted.shared_vocab
        # featurizing unseen text still works, oov terms simply drop out
        fm = fitted.matrix(unseen)
        assert fm.shape == (1, fitted.input_dim)
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
        assert fitted.input_dim == len(fitted.headline_vocab) + len(fitted.body_vocab) + 1 + 4

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
        ks = fit_keyword_set(spec, corpus, candidates, corpus_documents(corpus))
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
        ks = fit_keyword_set(spec, corpus, candidates, corpus_documents(corpus))
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
    second body, as FNC-1 pairs one claim with many bodies."""
    base = synthetic_corpus(n_instances=48, n_bodies=12, seed=4)
    extra = [
        Instance(i.headline, i.body_id % 12 + 1, Stance.UNRELATED)
        for i in base.instances
    ]
    return make_corpus(base.instances + tuple(extra), base.bodies)


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
            assert dense.shape == (len(part), fitted.input_dim)
            for row, instance in enumerate(part.instances):
                assert np.array_equal(dense[row], feature_row(fitted, instance, part))

    def test_missing_body_raises_integrity_error(self):
        corpus = small_corpus()
        fitted = fit_pipeline(BASELINE_SPEC, corpus, vocab_capacity=20)
        broken = Corpus(instances=(Instance("a fake story", 99, None),), bodies=corpus.bodies)
        with pytest.raises(IntegrityError, match="99"):
            fitted.matrix(broken)


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


class TestPersistence:
    def test_roundtrip_identical_features(self, tmp_path):
        corpus = small_corpus()
        spec = PipelineSpec(
            name="kw",
            blocks=(BlockSpec(kind="baseline"), BlockSpec(kind="indicator", keywords="refute")),
        )
        kw = {"refute": KeywordSpec(name="refute", selector="manual", terms=("fake", "hoax"))}
        fitted = fit_pipeline(spec, corpus, keyword_specs=kw, vocab_capacity=20)
        save_pipeline(fitted, tmp_path, "kw")
        back = load_pipeline(tmp_path, "kw")
        assert [b.name for b in back.layout] == [b.name for b in fitted.layout]
        a = fitted.matrix(corpus).matrix.toarray()
        b = back.matrix(corpus).matrix.toarray()
        assert np.array_equal(a, b)

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
