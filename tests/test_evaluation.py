"""Weighted scoring, confusion metrics, report formats, and the cv harness.

The scorer oracle is a per-pair brute-force recomputation kept textually
independent of score_predictions, whose grade and max_grade are what
evaluate and cv write. Grades are sums of 0.25 steps, which are exact in
binary floating point, so equality checks here are exact on purpose.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancekit.corpus import STANCES, Stance, plan_folds
from stancekit.errors import DataFormatError
from stancekit.evaluation import (
    CrossValidationResult,
    confusion,
    cross_validate,
    metrics,
    parse_delimited,
    read_delimited,
    render_cv_aggregate,
    render_delimited,
    render_heatmap_data,
    render_heatmap_script,
    render_report,
    score_predictions,
)

from conftest import synthetic_corpus

RELATED = (Stance.AGREE, Stance.DISAGREE, Stance.DISCUSS)


def brute_force_grade(pairs):
    """Score one pair at a time, straight from the metric definition."""
    grade = 0.0
    best = 0.0
    for true, pred in pairs:
        true_related = true != Stance.UNRELATED
        pred_related = pred != Stance.UNRELATED
        best += 1.0 if true_related else 0.25
        if true_related == pred_related:
            grade += 0.25
        if true_related and pred_related and true == pred:
            grade += 0.75
    return grade, best


def grades(pairs):
    """(grade, max_grade) of score_predictions' report on the pairs."""
    report = score_predictions(pairs)
    return report.grade, report.max_grade


# label counts of the held-out evaluation split these grades refer to
TEST_COUNTS = {
    Stance.AGREE: 1903,
    Stance.DISAGREE: 697,
    Stance.DISCUSS: 4464,
    Stance.UNRELATED: 18349,
}


def constructed_pairs(unrelated_right: int, related_as_related: int, related_exact: int):
    """Prediction list over the reference label counts hitting a target grade.

    grade = 0.25*unrelated_right + 0.25*related_as_related + 0.75*related_exact
    """
    pairs = []
    exact_left = related_exact
    related_left = related_as_related
    for stance in RELATED:
        for _ in range(TEST_COUNTS[stance]):
            if exact_left > 0:
                pairs.append((stance, stance))
                exact_left -= 1
                related_left -= 1
            elif related_left > 0:
                wrong = Stance.DISCUSS if stance is not Stance.DISCUSS else Stance.AGREE
                pairs.append((stance, wrong))
                related_left -= 1
            else:
                pairs.append((stance, Stance.UNRELATED))
    right_left = unrelated_right
    for _ in range(TEST_COUNTS[Stance.UNRELATED]):
        if right_left > 0:
            pairs.append((Stance.UNRELATED, Stance.UNRELATED))
            right_left -= 1
        else:
            pairs.append((Stance.UNRELATED, Stance.DISCUSS))
    return pairs


class TestFncScore:
    def test_all_correct_hits_max(self):
        pairs = [(s, s) for s in STANCES for _ in range(3)]
        grade, max_grade = grades(pairs)
        assert grade == max_grade == 3 * (1.0 + 1.0 + 1.0 + 0.25)

    def test_relatedness_only_quarter_point(self):
        grade, max_grade = grades([(Stance.AGREE, Stance.DISCUSS)])
        assert (grade, max_grade) == (0.25, 1.0)

    def test_unrelated_correct(self):
        assert grades([(Stance.UNRELATED, Stance.UNRELATED)]) == (0.25, 0.25)

    def test_unrelated_called_related_scores_nothing(self):
        assert grades([(Stance.UNRELATED, Stance.AGREE)]) == (0.0, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grades([])

    def test_permutation_invariant(self):
        rng = random.Random(0)
        pairs = [(rng.choice(STANCES), rng.choice(STANCES)) for _ in range(60)]
        base = grades(pairs)
        rng.shuffle(pairs)
        assert grades(pairs) == base

    def test_thousand_seeded_lists_match_brute_force_exactly(self):
        rng = random.Random(1234)
        for _ in range(1000):
            length = rng.randint(1, 200)
            pairs = [
                (rng.choice(STANCES), rng.choice(STANCES)) for _ in range(length)
            ]
            assert grades(pairs) == brute_force_grade(pairs)

    @given(
        st.lists(
            st.tuples(st.sampled_from(STANCES), st.sampled_from(STANCES)),
            min_size=1,
            max_size=120,
        )
    )
    def test_grade_bounded_by_max(self, pairs):
        grade, max_grade = grades(pairs)
        assert 0.0 <= grade <= max_grade


class TestReferenceMargins:
    """The competition's top grades, rebuilt as synthetic prediction lists."""

    MAX_GRADE = 11651.25

    def test_max_grade_from_label_counts(self):
        perfect = [(s, s) for s, count in TEST_COUNTS.items() for _ in range(count)]
        grade, max_grade = grades(perfect)
        assert max_grade == self.MAX_GRADE
        assert grade == max_grade

    def test_winner_grade(self):
        pairs = constructed_pairs(18348, 7064, 4317)
        grade, max_grade = grades(pairs)
        assert (grade, max_grade) == (9590.75, self.MAX_GRADE)

    def test_runner_up_grade(self):
        pairs = constructed_pairs(18349, 7064, 4271)
        assert grades(pairs) == (9556.5, self.MAX_GRADE)

    def test_winning_margin_exact(self):
        winner, _ = grades(constructed_pairs(18348, 7064, 4317))
        runner_up, _ = grades(constructed_pairs(18349, 7064, 4271))
        assert winner - runner_up == 34.25

    def test_reference_grade_ratio(self):
        grade, max_grade = grades(constructed_pairs(18347, 7064, 4225))
        assert grade == 9521.5
        relative = 100.0 * grade / max_grade
        assert relative == pytest.approx(81.72, abs=0.005)


class TestConfusion:
    def test_single_pair(self):
        cm = confusion([(Stance.AGREE, Stance.AGREE)])
        assert cm[0, 0] == 1 and cm.sum() == 1

    def test_cell_sum_is_pair_count(self):
        rng = random.Random(2)
        pairs = [(rng.choice(STANCES), rng.choice(STANCES)) for _ in range(37)]
        assert confusion(pairs).sum() == 37

    def test_hand_tally(self):
        pairs = [
            (Stance.AGREE, Stance.AGREE),
            (Stance.AGREE, Stance.DISCUSS),
            (Stance.DISAGREE, Stance.UNRELATED),
            (Stance.DISCUSS, Stance.DISCUSS),
            (Stance.UNRELATED, Stance.UNRELATED),
            (Stance.UNRELATED, Stance.UNRELATED),
        ]
        want = np.array(
            [
                [1, 0, 1, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
                [0, 0, 0, 2],
            ]
        )
        assert np.array_equal(confusion(pairs), want)

    def test_rows_are_true_labels(self):
        cm = confusion([(Stance.AGREE, Stance.UNRELATED)])
        assert cm[0, 3] == 1


class TestMetrics:
    def test_perfect_diagonal(self):
        recall, f1 = metrics(np.diag([5, 5, 5, 5]))
        assert list(recall) == [1.0] * 4
        assert f1 == 1.0

    def test_empty_row_zero_by_convention(self):
        cm = np.zeros((4, 4), dtype=np.int64)
        cm[0, 0] = 3
        cm[2, 2] = 2
        recall, f1 = metrics(cm)
        assert recall[1] == 0.0 and recall[3] == 0.0

    def test_undefined_f1_counts_as_zero(self):
        # class 1 never true and never predicted: precision+recall = 0
        cm = np.zeros((4, 4), dtype=np.int64)
        cm[0, 0] = 4
        cm[2, 3] = 1
        cm[3, 3] = 5
        recall, f1 = metrics(cm)
        per_class = []
        for c in range(4):
            tp = cm[c, c]
            prec = tp / cm[:, c].sum() if cm[:, c].sum() else 0.0
            rec = tp / cm[c].sum() if cm[c].sum() else 0.0
            per_class.append(
                2 * prec * rec / (prec + rec) if prec + rec else 0.0
            )
        assert f1 == pytest.approx(sum(per_class) / 4.0, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            metrics(np.zeros((4, 4)))


class TestScoreReport:
    def _pairs(self, seed=3, n=80):
        rng = random.Random(seed)
        return [(rng.choice(STANCES), rng.choice(STANCES)) for _ in range(n)]

    def test_fields_cross_check(self):
        pairs = self._pairs()
        report = score_predictions(pairs)
        grade, max_grade = brute_force_grade(pairs)
        assert report.grade == grade and report.max_grade == max_grade
        assert report.relative_grade == pytest.approx(100.0 * grade / max_grade, abs=1e-9)
        cm = confusion(pairs)
        assert np.array_equal(report.confusion, cm)

    def test_per_class_accuracy_is_row_normalized_diagonal(self):
        report = score_predictions(self._pairs())
        cm = report.confusion
        for c in range(4):
            row = cm[c].sum()
            want = cm[c, c] / row if row else 0.0
            assert report.per_class_accuracy[c] == want

    def test_report_render_headers(self):
        text = render_report(score_predictions(self._pairs()))
        assert "stance evaluation report" in text
        assert "f1_macro is the unweighted mean F1" in text
        assert "per-class accuracy is recall" in text
        for stance in STANCES:
            assert f"accuracy_{stance.value}=" in text

    def test_delimited_roundtrip(self):
        report = score_predictions(self._pairs())
        back = parse_delimited(render_delimited(report))
        assert back.grade == report.grade
        assert back.max_grade == report.max_grade
        assert back.relative_grade == report.relative_grade
        assert back.f1_macro == report.f1_macro
        assert back.per_class_accuracy == report.per_class_accuracy
        assert np.array_equal(back.confusion, report.confusion)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DataFormatError):
            parse_delimited("just some text\n")

    @pytest.mark.parametrize(
        "pattern, bad, reason",
        [
            (r"^grade=.*$", "grade=abc", "'grade=abc'"),
            (r"^grade=.*$", "grade=999.0", "'grade=999.0'"),  # above max_grade
            (r"\d+\n\Z", "x\n", "invalid literal"),  # the last confusion count
            (r"^grade=.*\nmax_grade=.*$", "grade=0.0\nmax_grade=0.0", "'max_grade=0.0'"),
            (r"^grade=.*\nmax_grade=.*$", "grade=inf\nmax_grade=inf", "'max_grade=inf'"),
            (r"^relative_grade=.*$", "relative_grade=nan", "'relative_grade=nan'"),
            (r"^f1_macro=.*$", "f1_macro=nan", "'f1_macro=nan'"),
            (r"^accuracy_agree=.*$", "accuracy_agree=7.5", "'accuracy_agree=7.5'"),
            # equal as a float, but not its repr
            (r"^grade=(.*)$", r"grade=\g<1>0", r"'grade=\d+\.\d+0'"),
            (r"^max_grade=.*\n", "", r"\['max_grade=\d+\.\d+'\] do not match"),
            (r"\n\n", "\nrecall_agree=1.0\n\n", "'recall_agree=1.0'"),
            (r"\n\n", "\nno equals sign\n\n", "'no equals sign'"),
            (r"^\d+", "-5", "non-negative"),  # the first confusion count
            (r"\n\n[\s\S]*\Z", "\n\n" + "0,0,0,0\n" * 4, "at least one count"),
            (r"\d+\n\Z", "1.5\n", "invalid literal"),
        ],
        ids=["grade_not_a_number", "grade_above_max", "count_not_a_number", "max_grade_zero",
             "grades_inf", "relative_grade_nan", "f1_macro_nan", "accuracy_above_one",
             "grade_not_repr", "metric_missing", "metric_unknown", "line_without_equals",
             "count_negative", "counts_all_zero", "count_not_an_integer"],
    )
    def test_parse_rejects_bad_values(self, pattern, bad, reason, tmp_path):
        """Every metric of a score file derives from its confusion counts, so
        a line that the counts contradict, or counts no scoring gives, are
        refused; read_delimited names the file."""
        text = render_delimited(score_predictions(self._pairs()))
        corrupt = re.sub(pattern, bad, text, count=1, flags=re.M)
        assert corrupt != text
        with pytest.raises(DataFormatError, match=reason):
            parse_delimited(corrupt)
        path = tmp_path / "t.scores.txt"
        path.write_text(corrupt, encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"t\.scores\.txt: "):
            read_delimited(path)

    def test_heatmap_triples(self):
        report = score_predictions(self._pairs())
        lines = render_heatmap_data(report.confusion).splitlines()
        triples = [line.split() for line in lines if line.strip()]
        assert len(triples) == 16
        for i, j, value in triples:
            assert report.confusion[int(i), int(j)] == int(value)

    def test_heatmap_script_golden(self):
        assert render_heatmap_script("t") == (
            "# render with: gnuplot -p t.heatmap.gp\n"
            'set title "stance confusion counts (rows=true, cols=predicted)"\n'
            "set palette gray negative\n"
            "set xrange [-0.5:3.5]\n"
            "set yrange [3.5:-0.5]\n"
            'set xtics ("agree" 0, "disagree" 1, "discuss" 2, "unrelated" 3)\n'
            'set ytics ("agree" 0, "disagree" 1, "discuss" 2, "unrelated" 3)\n'
            'plot "t.heatmap.dat" using 2:1:3 with image notitle\n'
        )

    def test_heatmap_script_tics_follow_stances(self):
        lines = render_heatmap_script("t").splitlines()
        for axis in "xy":
            (tics,) = [line for line in lines if line.startswith(f"set {axis}tics ")]
            assert re.findall(r'"(\w+)" (\d+)', tics) == [
                (stance.value, str(i)) for i, stance in enumerate(STANCES)
            ]

    def test_random_predictor_near_expectation(self):
        """Uniform guessing lands near its closed-form expected grade."""
        rng = random.Random(7)
        pairs = []
        for _ in range(4000):
            true = rng.choice(STANCES)
            pairs.append((true, rng.choice(STANCES)))
        grade, max_grade = grades(pairs)
        # per unrelated pair: 0.25/4; per related pair: 0.25*(3/4) + 0.75/4
        expected = 1000 * (0.25 / 4) + 3000 * (0.25 * 0.75 + 0.75 * 0.25)
        spread = 4000 ** 0.5 * 0.5  # generous multiple-sigma envelope
        assert abs(grade - expected) < spread


def honest_runner(train, test, fold):
    """Majority stance of the train fold, applied to every test instance."""
    votes = {}
    for inst in train.instances:
        votes[inst.stance] = votes.get(inst.stance, 0) + 1
    majority = max(STANCES, key=lambda s: votes.get(s, 0))
    return [(inst.stance, majority) for inst in test.instances]


def cheating_runner(train, test, fold):
    """Reads the held-out labels; exists to prove the harness notices."""
    return [(inst.stance, inst.stance) for inst in test.instances]


class TestCrossValidate:
    def test_two_folds_score_only_heldout_bodies(self):
        corpus = synthetic_corpus(n_instances=16, n_bodies=4, seed=1)
        plan = plan_folds(corpus, k=2, seed=0)
        seen = {}

        def recorder(train, test, fold):
            seen[fold] = {i.body_id for i in test.instances}
            return honest_runner(train, test, fold)

        result = cross_validate(corpus, plan, recorder)
        assert len(result.reports) == 2
        assert seen[0] == plan.bodies_in(0) & set(corpus.bodies)
        assert seen[1] == plan.bodies_in(1) & set(corpus.bodies)
        assert not seen[0] & seen[1]

    def test_deterministic_rerun(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=3, seed=5)
        a = cross_validate(toy_corpus, plan, honest_runner)
        b = cross_validate(toy_corpus, plan, honest_runner)
        assert a.relative_mean == b.relative_mean
        assert a.relative_std == b.relative_std

    def test_parallel_matches_serial(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=4, seed=5)
        serial = cross_validate(toy_corpus, plan, honest_runner, jobs=1)
        parallel = cross_validate(toy_corpus, plan, honest_runner, jobs=4)
        assert serial.relative_mean == parallel.relative_mean
        assert [r.grade for r in serial.reports] == [r.grade for r in parallel.reports]

    def test_aggregate_stats(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=3, seed=5)
        result = cross_validate(toy_corpus, plan, honest_runner)
        rels = [r.relative_grade for r in result.reports]
        assert result.relative_mean == pytest.approx(float(np.mean(rels)), abs=1e-12)
        assert result.relative_std == pytest.approx(float(np.std(rels, ddof=1)), abs=1e-12)
        assert min(rels) <= result.relative_mean <= max(rels)

    def test_aggregate_golden(self):
        reports = tuple(score_predictions(pairs) for pairs in (
            [(Stance.AGREE, Stance.AGREE), (Stance.UNRELATED, Stance.UNRELATED)],
            [(Stance.AGREE, Stance.DISCUSS), (Stance.UNRELATED, Stance.UNRELATED)],
            [(Stance.DISAGREE, Stance.UNRELATED), (Stance.DISCUSS, Stance.DISCUSS),
             (Stance.UNRELATED, Stance.AGREE)],
        ))
        result = CrossValidationResult(reports, 61.48148148148149, 33.43195287821261)
        assert render_cv_aggregate("t", result) == (
            "target=t\n"
            "folds=3\n"
            "relative_grade_fold0=100.0\n"
            "relative_grade_fold1=40.0\n"
            "relative_grade_fold2=44.44444444444444\n"
            "relative_mean=61.48148148148149\n"
            "relative_std=33.43195287821261\n"
        )

    def test_wrong_pair_count_rejected(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=2, seed=0)

        def short_runner(train, test, fold):
            return honest_runner(train, test, fold)[:-1]

        with pytest.raises(ValueError, match="pairs"):
            cross_validate(toy_corpus, plan, short_runner)

    def test_leakage_canary(self, toy_corpus):
        """A runner that peeks at held-out labels is flagged by its grade."""
        plan = plan_folds(toy_corpus, k=3, seed=5)
        cheat = cross_validate(toy_corpus, plan, cheating_runner)
        honest = cross_validate(toy_corpus, plan, honest_runner)
        assert cheat.relative_mean == 100.0
        assert all(r.relative_grade == 100.0 for r in cheat.reports)
        assert honest.relative_mean < 100.0

    def test_result_type(self, toy_corpus):
        plan = plan_folds(toy_corpus, k=2, seed=1)
        result = cross_validate(toy_corpus, plan, honest_runner)
        assert isinstance(result, CrossValidationResult)
