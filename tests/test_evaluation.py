import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgraph import (
    Cell,
    EvaluationError,
    Membership,
    MetricsReport,
    Population,
    ReducedParams,
    TheoryVariant,
    auroc_midrank,
    build_toy_population,
    classification_accuracy,
    detection_metrics,
    evaluate,
    fit_knn_detector,
    fit_linear_probe,
    knn_scores,
    metrics_report,
    predict,
    probing_error,
    run_toy_pipeline,
    separability,
)
from wildgraph.evaluation import _quantile


class TestLinearProbe:
    def test_one_hot_embeddings_reproduce_labels(self):
        z = np.eye(4)[[0, 1, 2, 3, 1, 2]]
        labels = [0, 1, 2, 3, 1, 2]
        probe = fit_linear_probe(z, labels)
        np.testing.assert_array_equal(predict(probe, z), labels)

    def test_least_squares_residual_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        probe = fit_linear_probe(z, labels)
        onehot = (labels[:, None] == np.arange(3)[None, :]).astype(float)
        direct, *_ = np.linalg.lstsq(z, onehot, rcond=None)
        np.testing.assert_allclose(probe.M, direct, atol=1e-8)

    def test_duplicate_rows_match_ridge_limit(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((3, 4))
        z = np.repeat(base, 2, axis=0)
        labels = [0, 0, 1, 1, 2, 2]
        probe = fit_linear_probe(z, labels)
        onehot = (np.array(labels)[:, None] == np.arange(3)[None, :]).astype(float)
        # small enough to approximate the limit, large enough not to amplify
        # rounding noise in the rank-deficient directions
        lam = 1e-8
        ridge = np.linalg.solve(z.T @ z + lam * np.eye(4), z.T @ onehot)
        np.testing.assert_allclose(probe.M, ridge, atol=1e-6)

    def test_closed_form_covariate_scores_are_scaled_identity(self):
        # Healthy-regime reference embeddings: the covariate score matrix is
        # (1 - b' - 1.5 a') / (1 - b' - 0.75 a') times the identity.
        ap, bp = 0.04, 0.02
        c_hat = 7 + 12 * bp + 12 * ap
        spread = math.sqrt(1 - 4 * bp)
        z_id = (1 - bp - 0.75 * ap) * math.sqrt(c_hat) / math.sqrt(6) * np.array(
            [[1.0, 0.0, -spread], [1.0, 0.0, spread]]
        )
        z_cov = (1 - bp - 1.5 * ap) * math.sqrt(c_hat) / math.sqrt(6) * np.array(
            [[1.0, 0.0, -spread], [1.0, 0.0, spread]]
        )
        probe = fit_linear_probe(z_id, [0, 1])
        scores = z_cov @ probe.M
        ratio = (1 - bp - 1.5 * ap) / (1 - bp - 0.75 * ap)
        np.testing.assert_allclose(scores, ratio * np.eye(2), atol=1e-10)

    def test_missing_class_rejected(self):
        with pytest.raises(EvaluationError):
            fit_linear_probe(np.eye(2), [0, 0], classes=[0, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_row_gram_matches_the_dimension_gram(self, seed, rows, dims, rank):
        # (A^t A)^+ A^t = A^t (A A^t)^+ with the same cutoff, also when A is
        # rank-deficient, as collapsed embeddings are.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((3, rows, min(rank, dims))) @ rng.standard_normal(
            (min(rank, dims), dims)
        )
        labels = np.arange(rows) % 2
        counts = rng.integers(1, 6, size=rows)
        root = np.sqrt(counts)[:, None]
        onehot = (labels[:, None] == np.arange(2)).astype(float)
        a = z * root
        at = np.swapaxes(a, -1, -2)
        expected = np.linalg.pinv(at @ a, rcond=1e-10, hermitian=True) @ at @ (onehot * root)
        m = fit_linear_probe(z, labels, counts=counts).M
        np.testing.assert_allclose(m, expected, rtol=0, atol=1e-9 * max(1.0, np.abs(expected).max()))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_either_gram_gives_the_least_squares_head(self, seed, rows, dims, rank):
        # Rows at most dims invert the rows x rows Gram, more rows the dims x
        # dims one; each gives the minimum-norm least-squares solution.
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, dims)
        z = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, dims))
        labels = np.arange(rows) % 2
        counts = rng.integers(1, 6, size=rows)
        root = np.sqrt(counts)[:, None]
        onehot = (labels[:, None] == np.arange(2)).astype(float)
        expected, *_ = np.linalg.lstsq(z * root, onehot * root, rcond=None)
        m = fit_linear_probe(z, labels, counts=counts).M
        np.testing.assert_allclose(m, expected, rtol=0, atol=1e-8 * max(1.0, np.abs(expected).max()))

    @pytest.mark.parametrize(
        "shape, gram",
        [((1, 1), (1, 1)), ((2, 3), (2, 2)), ((3, 3), (3, 3)), ((4, 3), (3, 3)),
         ((40, 4), (4, 4)), ((5, 2, 3), (5, 2, 2)), ((5, 96, 4), (5, 4, 4))],
    )
    def test_the_smaller_gram_is_inverted(self, monkeypatch, shape, gram):
        seen = []
        pinv = np.linalg.pinv

        def spy(m, *args, **kwargs):
            seen.append(m.shape)
            return pinv(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        z = np.random.default_rng(0).standard_normal(shape)
        fit_linear_probe(z, np.arange(shape[-2]) % 2)
        assert seen == [gram]

    def test_empty_labels_rejected(self):
        with pytest.raises(EvaluationError):
            fit_linear_probe(np.zeros((0, 2)), [])


class TestProbingError:
    def test_generalizing_regime_zero_errors(self):
        result = run_toy_pipeline(TheoryVariant.CASE_A, ReducedParams(0.04, 0.02, 1e-6))
        assert result.probing.count == 0
        assert result.probing.rate == 0.0

    def test_collapsed_regime_counts_both_examples(self):
        result = run_toy_pipeline(TheoryVariant.CASE_A, ReducedParams(0.01, 0.04, 1e-6))
        assert result.probing.count == 2
        assert result.probing.rate == 1.0

    def test_identical_embeddings_tie_break_and_strict_count(self):
        z = np.ones((4, 3))
        probe = fit_linear_probe(np.ones((2, 3)), [0, 1])
        result = probing_error(z, [0, 1, 0, 1], probe)
        # ties resolve to the lowest class id for the plain predictions,
        # but a tied decision is never a strict win, so all four count
        assert predict(probe, z).tolist() == [0, 0, 0, 0]
        assert result.count == 4
        assert result.rate == 1.0

    def test_clear_margins_count_only_true_mistakes(self):
        z_id = np.array([[1.0, 0.0], [0.0, 1.0]])
        probe = fit_linear_probe(z_id, [0, 1])
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        result = probing_error(z, [0, 1], probe)
        assert result.count == 1
        assert predict(probe, z).tolist() == [0, 0]

    def test_stack_scores_each_embedding_on_its_own_scale(self):
        # The first embedding's row 0 wins by 2e-8 of its own score scale,
        # a strict win; next to a 1e6 times larger embedding in the same
        # stack it must stay one.
        probe = fit_linear_probe(np.eye(2), [0, 1])
        stack = np.array([[[1.0, 1.0 - 2e-8], [0.0, 1.0]], [[1e6, 0.0], [0.0, 1e6]]])
        stacked = probing_error(stack, [0, 1], probe)
        for i, z in enumerate(stack):
            one = probing_error(z, [0, 1], probe)
            assert (stacked.count[i], stacked.rate[i]) == (one.count, one.rate)
            np.testing.assert_array_equal(predict(probe, stack)[i], predict(probe, z))
        assert stacked.count.tolist() == [0, 0]


class TestClassificationAccuracy:
    def test_perfect_embeddings(self):
        z = np.eye(3)
        probe = fit_linear_probe(z, [0, 1, 2])
        assert classification_accuracy(z, [0, 1, 2], probe) == 1.0

    def test_toy_generalizing_regime_is_perfect(self):
        population, _ = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.04, 0.02, 1e-6)
        result = run_toy_pipeline(TheoryVariant.CASE_A, ReducedParams(0.04, 0.02, 1e-6))
        ev = evaluate(population, result.embedding.Z)
        assert ev.id_accuracy == 1.0
        assert ev.covariate_accuracy == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(99)
        z = rng.standard_normal((1000, 5))
        labels = rng.integers(0, 2, size=1000)
        probe = fit_linear_probe(z, labels)
        shuffled = rng.permutation(labels)
        acc = classification_accuracy(z, shuffled, probe)
        assert abs(acc - 0.5) <= 0.05


class TestSeparability:
    def test_identical_rows_zero(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert separability(z, z) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        base = separability(a, b)
        assert separability(3.0 * a, 3.0 * b) == pytest.approx(9.0 * base, rel=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(EvaluationError):
            separability(np.zeros((0, 2)), np.ones((2, 2)))

    def test_matches_pair_loop(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        brute = np.mean([np.sum((x - y) ** 2) for x in a for y in b])
        assert separability(a, b) == pytest.approx(brute, rel=1e-12)


class TestKnnDetector:
    def test_reference_flagged_fraction_tracks_percentile(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal((200, 3))
        detector = fit_knn_detector(ref, k_neighbors=5, percentile=0.95)
        flagged = np.mean(detector.reference_scores > detector.threshold)
        assert abs(flagged - 0.05) <= 1.0 / 200 + 1e-12

    def test_distant_blob_always_flagged(self):
        rng = np.random.default_rng(1)
        blob_1 = rng.standard_normal((100, 3))
        blob_2 = rng.standard_normal((50, 3)) + 100.0
        detector = fit_knn_detector(blob_1, k_neighbors=3, percentile=0.95)
        assert np.all(knn_scores(detector, blob_2) > detector.threshold)

    def test_k_equal_to_reference_count_rejected(self):
        with pytest.raises(EvaluationError):
            fit_knn_detector(np.zeros((4, 2)), k_neighbors=4)

    def test_self_distance_excluded(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        detector = fit_knn_detector(ref, k_neighbors=1, percentile=0.5)
        np.testing.assert_allclose(detector.reference_scores, [1.0, 1.0, 4.0])

    def test_query_equal_to_a_reference_row_scores_exactly_zero(self):
        # At |z| = 17 the expansion |q|^2 + |r|^2 - 2 q.r leaves one of these
        # rows 3.4e-7 from itself; the difference form leaves exactly 0.
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((6, 3))
        ref *= 17.0 / np.linalg.norm(ref, axis=1, keepdims=True)
        detector = fit_knn_detector(ref, k_neighbors=1, percentile=0.5)
        np.testing.assert_array_equal(knn_scores(detector, ref.copy()), np.zeros(6))

    def test_threshold_is_interpolated_percentile(self):
        rng = np.random.default_rng(7)
        ref = rng.standard_normal((60, 2))
        detector = fit_knn_detector(ref, k_neighbors=4, percentile=0.9)
        expected = float(np.quantile(detector.reference_scores, 0.9, method="linear"))
        assert detector.threshold == expected


class TestDetectionMetrics:
    def _detector(self):
        rng = np.random.default_rng(2)
        return fit_knn_detector(rng.standard_normal((50, 2)), k_neighbors=3)

    def test_identical_scores_give_half_auroc(self):
        scores = np.linspace(0.0, 1.0, 40)
        metrics = detection_metrics(scores, scores, self._detector())
        assert metrics.auroc == pytest.approx(0.5, abs=1e-12)

    def test_perfect_separation(self):
        metrics = detection_metrics(
            np.linspace(0.0, 1.0, 30), np.linspace(5.0, 6.0, 30), self._detector()
        )
        assert metrics.auroc == 1.0
        assert metrics.fpr95 == 0.0

    def test_gaussian_auroc_matches_closed_form(self):
        rng = np.random.default_rng(1234)
        scores_id = rng.standard_normal(1000)
        scores_ood = rng.standard_normal(1000) + 2.0
        metrics = detection_metrics(scores_id, scores_ood, self._detector())
        expected = 0.5 * (1.0 + math.erf((2.0 / math.sqrt(2.0)) / math.sqrt(2.0)))
        assert abs(metrics.auroc - expected) <= 0.02

    def test_fpr95_equals_fpr_at_threshold_on_reference_scores(self):
        detector = self._detector()
        rng = np.random.default_rng(3)
        ood = rng.standard_normal(100) + 1.0
        metrics = detection_metrics(detector.reference_scores, ood, detector)
        assert metrics.fpr95 == metrics.fpr_at_threshold

    def test_fpr_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        ood = rng.standard_normal(200)
        fractions = [np.mean(ood <= t) for t in np.linspace(-2, 2, 9)]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.1, max_value=3.0))
    def test_auroc_invariant_under_increasing_transform(self, seed, rate):
        rng = np.random.default_rng(seed)
        s_id = rng.standard_normal(30)
        s_ood = rng.standard_normal(25) + 0.5
        base = auroc_midrank(s_id, s_ood)
        transformed = auroc_midrank(np.exp(rate * s_id), np.exp(rate * s_ood))
        assert transformed == pytest.approx(base, abs=1e-12)

    def test_empty_scores_rejected(self):
        with pytest.raises(EvaluationError):
            detection_metrics(np.array([]), np.array([1.0]), self._detector())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_auroc_is_the_pair_count_correctly_rounded(self, data):
        # Every weighted ID x OOD pair counted in integers, a tie one half,
        # and divided once: at counts up to 2**62 the result stays in [0, 1].
        scores = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 2**62)), min_size=1,
                          max_size=6)
        ids, oods = data.draw(scores), data.draw(scores)
        pairs = sum(ci * co * (2 * (so > si) + (so == si)) for si, ci in ids for so, co in oods)
        total = 2 * sum(c for _, c in ids) * sum(c for _, c in oods)
        (s_id, c_id), (s_ood, c_ood) = (map(np.array, zip(*side)) for side in (ids, oods))
        auroc = auroc_midrank(s_id / 4.0, s_ood / 4.0, c_id, c_ood)
        assert auroc == pairs / total
        assert 0.0 <= auroc <= 1.0


class TestOrthogonalInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_probe_predictions_invariant(self, seed):
        rng = np.random.default_rng(seed)
        z_id = rng.standard_normal((12, 4))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]
        z_eval = rng.standard_normal((8, 4))
        eval_labels = rng.integers(0, 3, size=8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))

        probe = fit_linear_probe(z_id, labels)
        probe_rot = fit_linear_probe(z_id @ q, labels)
        np.testing.assert_array_equal(predict(probe, z_eval), predict(probe_rot, z_eval @ q))
        assert classification_accuracy(z_eval, eval_labels, probe) == classification_accuracy(
            z_eval @ q, eval_labels, probe_rot
        )
        base = probing_error(z_eval, eval_labels, probe)
        rotated = probing_error(z_eval @ q, eval_labels, probe_rot)
        assert base.count == rotated.count


class TestCounts:
    """A row with count c scores as c copies of that row."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_counts_equal_repeated_rows(self, seed):
        rng = np.random.default_rng(seed)
        # Small integer coordinates, so that copies of one row are exactly
        # zero apart in both forms.
        z_id = rng.integers(-3, 4, size=(7, 3)).astype(float)
        labels = np.array([0, 1, 2, 0, 1, 2, 0])
        n_id = rng.integers(1, 5, size=7)
        z_eval = rng.integers(-3, 4, size=(5, 3)).astype(float)
        eval_labels = rng.integers(0, 3, size=5)
        n_eval = rng.integers(1, 5, size=5)
        rep_id, rep_labels = np.repeat(z_id, n_id, axis=0), np.repeat(labels, n_id)
        rep_eval, rep_eval_labels = np.repeat(z_eval, n_eval, axis=0), np.repeat(eval_labels, n_eval)

        probe = fit_linear_probe(z_id, labels, counts=n_id)
        np.testing.assert_allclose(probe.M, fit_linear_probe(rep_id, rep_labels).M, atol=1e-12)
        assert classification_accuracy(z_eval, eval_labels, probe, n_eval) == pytest.approx(
            classification_accuracy(rep_eval, rep_eval_labels, probe), abs=1e-15
        )
        weighted = probing_error(z_eval, eval_labels, probe, counts=n_eval)
        repeated = probing_error(rep_eval, rep_eval_labels, probe)
        assert weighted.count == repeated.count
        assert weighted.rate == pytest.approx(repeated.rate, abs=1e-15)
        assert separability(z_id, z_eval, n_id, n_eval) == pytest.approx(
            separability(rep_id, rep_eval), rel=1e-12
        )

        k = int(rng.integers(1, n_id.sum()))
        detector = fit_knn_detector(z_id, k, counts=n_id)
        reference = fit_knn_detector(rep_id, k)
        np.testing.assert_array_equal(
            np.repeat(detector.reference_scores, n_id), reference.reference_scores
        )
        assert detector.threshold == reference.threshold
        np.testing.assert_array_equal(
            np.repeat(knn_scores(detector, z_eval), n_eval), knn_scores(reference, rep_eval)
        )

    def test_examples_of_one_row_are_zero_apart(self):
        # Their distance is exactly zero, not the rounding left over by the
        # expanded |x|^2 + |y|^2 - 2 x.y of a row with itself.
        ref = np.random.default_rng(5).standard_normal((6, 4)) * 3.7
        detector = fit_knn_detector(ref, k_neighbors=2, counts=[3] * 6)
        np.testing.assert_array_equal(np.repeat(detector.reference_scores, 3), np.zeros(18))
        assert detector.threshold == 0.0

    def test_mismatched_counts_rejected(self):
        with pytest.raises(EvaluationError, match="counts"):
            separability(np.zeros((3, 2)), np.ones((2, 2)), counts_id=[1, 2])

    def test_evaluate_needs_one_row_per_cell(self):
        # One row per example, or none at all, is refused by name.
        population = Population(classes=(0,), domains=(0, 1), cells=(
            Cell(0, 0, Membership.LABELED_ID, 2), Cell(0, 1, Membership.WILD_COVARIATE, 3),
            Cell(1, 1, Membership.WILD_SEMANTIC, 1),
        ))
        for z in (np.zeros((len(population), 2)), np.zeros(3)):
            with pytest.raises(EvaluationError, match="for 3 cells"):
                evaluate(population, z)

    def test_negative_counts_rejected(self):
        # A repeated score list cannot hold a score a negative number of times.
        with pytest.raises(EvaluationError, match="nonnegative"):
            fit_knn_detector(np.eye(3), 1, counts=[2, -1, 3])
        detector = fit_knn_detector(np.eye(3), 1)
        with pytest.raises(EvaluationError, match="nonnegative"):
            detection_metrics(np.ones(2), np.ones(2), detector, [1, 1], [2, -1])


class TestMetricsReport:
    VALID = dict(id_acc=1.0, ood_acc=0.5, probing_error_rate=0.5, probing_error_count=3,
                 separability=2.0, fpr95=0.0, auroc=1.0, fpr_at_threshold=0.0)

    @pytest.mark.parametrize("name, value", [
        *((name, math.nan) for name in ("id_acc", "ood_acc", "probing_error_rate", "separability",
                                        "fpr95", "auroc", "fpr_at_threshold")),
        ("separability", -1e-300), ("auroc", 1.5),
    ])
    def test_nan_or_out_of_range_value_refused(self, name, value):
        # NaN compares false both ways, so it must fail the range checks too
        with pytest.raises(EvaluationError, match=f"{name} must"):
            MetricsReport(**dict(self.VALID, **{name: value}))
        MetricsReport(**self.VALID)

    @staticmethod
    def composed_by_hand(population, z, held_out, semantic):
        # each side scored on its own, against the labeled rows 0 and 1
        n = population.counts()
        labeled = [0, 1]
        ev = evaluate(population, z)
        detector = fit_knn_detector(z[labeled], 2, 0.9, n[labeled])
        if held_out:
            scores_id, n_id = knn_scores(detector, z[held_out]), n[held_out]
        else:
            scores_id, n_id = detector.reference_scores, detector.counts
        detection = detection_metrics(scores_id, knn_scores(detector, z[semantic]), detector,
                                      n_id, n[semantic])
        return dict(
            id_acc=ev.id_accuracy, ood_acc=ev.covariate_accuracy,
            probing_error_rate=ev.probing.rate, probing_error_count=ev.probing.count,
            separability=ev.separability, fpr95=detection.fpr95, auroc=detection.auroc,
            fpr_at_threshold=detection.fpr_at_threshold,
        )

    @pytest.mark.parametrize("wild_id", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_metrics_composed_by_hand(self, wild_id, seed):
        # The held-out ID side is the wild-ID rows, or else the labeled
        # rows' self-excluded reference scores.
        cells = [Cell(0, 0, Membership.LABELED_ID, 4), Cell(1, 0, Membership.LABELED_ID, 3),
                 Cell(0, 1, Membership.WILD_COVARIATE, 2), Cell(1, 1, Membership.WILD_COVARIATE, 5),
                 Cell(2, 1, Membership.WILD_SEMANTIC, 3)]
        if wild_id:
            cells.insert(2, Cell(1, 0, Membership.WILD_ID, 6))
        population = Population(classes=(0, 1), domains=(0, 1), cells=tuple(cells))
        z = np.random.default_rng(seed).standard_normal((len(cells), 3))
        report = metrics_report(population, z, 2, 0.9)
        expected = self.composed_by_hand(population, z, [2] if wild_id else [], [len(cells) - 1])
        assert vars(report) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_several_wild_id_and_semantic_cells_composed_by_hand(self, seed):
        # wild-ID and semantic rows are scored in one pass and split again
        cells = (
            Cell(0, 0, Membership.LABELED_ID, 4), Cell(1, 0, Membership.LABELED_ID, 3),
            Cell(1, 0, Membership.WILD_ID, 6), Cell(2, 1, Membership.WILD_SEMANTIC, 3),
            Cell(0, 1, Membership.WILD_COVARIATE, 2), Cell(0, 0, Membership.WILD_ID, 1),
            Cell(3, 0, Membership.WILD_SEMANTIC, 5), Cell(1, 1, Membership.WILD_COVARIATE, 5),
            Cell(1, 0, Membership.WILD_ID, 2), Cell(2, 0, Membership.WILD_SEMANTIC, 4),
        )
        population = Population(classes=(0, 1), domains=(0, 1), cells=cells)
        z = np.random.default_rng(seed).standard_normal((len(cells), 3))
        report = metrics_report(population, z, 2, 0.9)
        assert vars(report) == self.composed_by_hand(population, z, [2, 5, 8], [3, 6, 9])

    def test_needs_one_row_per_cell_and_every_split(self):
        population = Population(classes=(0,), domains=(0, 1), cells=(
            Cell(0, 0, Membership.LABELED_ID, 2), Cell(0, 1, Membership.WILD_COVARIATE, 3),
            Cell(1, 1, Membership.WILD_SEMANTIC, 1),
        ))
        with pytest.raises(EvaluationError, match="for 3 cells"):
            metrics_report(population, np.zeros((6, 2)), 1, 0.95)
        no_semantic = Population(classes=(0,), domains=(0, 1), cells=population.cells[:2])
        with pytest.raises(EvaluationError, match="lacks required membership kinds: wild_semantic"):
            metrics_report(no_semantic, np.zeros((2, 2)), 1, 0.95)


def _repeated_auroc(s_id: np.ndarray, s_ood: np.ndarray) -> float:
    """AUROC over every ID x OOD example pair, a tie counting one half."""
    above = s_ood[None, :] > s_id[:, None]
    tied = s_ood[None, :] == s_id[:, None]
    return int(np.sum(2 * above + tied)) / (2 * s_id.size * s_ood.size)


class TestCountWeightedDetection:
    """One score per row with its count gives what the repeated list gives, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_threshold_fprs_and_auroc_equal_the_repeated_lists(self, data):
        # A few distinct values, so that scores tie within and across sides.
        values = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=4, unique=True)
        )

        def rows():
            size = data.draw(st.integers(min_value=1, max_value=8))
            scores = data.draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
            counts = data.draw(
                st.lists(st.integers(min_value=1, max_value=50), min_size=size, max_size=size)
            )
            return np.array(scores), np.array(counts)

        (s_id, n_id), (s_ood, n_ood) = rows(), rows()
        rep_id, rep_ood = np.repeat(s_id, n_id), np.repeat(s_ood, n_ood)
        last = rep_id.size - 1
        # Either any percentile, or one whose virtual index p (N - 1) is an
        # order statistic's, so that the threshold ties with a score.
        p = data.draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=0, max_value=last).map(lambda i: i / max(last, 1)),
            )
        )
        threshold = _quantile(s_id, n_id, p)
        assert threshold.hex() == float(np.quantile(rep_id, p, method="linear")).hex()

        rng = np.random.default_rng(2)
        detector = dataclasses.replace(
            fit_knn_detector(rng.standard_normal((4, 2)), k_neighbors=1), threshold=threshold
        )
        metrics = detection_metrics(s_id, s_ood, detector, n_id, n_ood)
        q95 = np.quantile(rep_id, 0.95, method="linear")
        assert metrics.fpr_at_threshold.hex() == float(np.mean(rep_ood <= threshold)).hex()
        assert metrics.fpr95.hex() == float(np.mean(rep_ood <= q95)).hex()
        assert metrics.auroc.hex() == _repeated_auroc(rep_id, rep_ood).hex()
        assert detection_metrics(rep_id, rep_ood, detector) == metrics

    def test_threshold_equals_numpy_on_a_seeded_sample(self):
        # numpy interpolates from b when t >= 0.5, which changes the last bit
        # only between distinct neighbouring order statistics: too rarely for
        # the property's draws alone.
        rng = np.random.default_rng(22)
        for draw in range(4000):
            rows = int(rng.integers(1, 9))
            scores = rng.choice(rng.uniform(0.0, 1e3, size=4), size=rows)
            counts = rng.integers(1, 51 if draw % 2 else 4, size=rows)
            p = float(rng.uniform())
            expected = float(np.quantile(np.repeat(scores, counts), p, method="linear"))
            assert _quantile(scores, counts, p).hex() == expected.hex(), (scores, counts, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_group_scores_equal_a_vertex_level_search(self, seed):
        # Small integer coordinates: both distance formulas are exact.
        rng = np.random.default_rng(seed)
        ref = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), 2)).astype(float)
        n_ref = rng.integers(1, 5, size=ref.shape[0])
        n_ref[0] += 1
        queries = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), 2)).astype(float)
        n_q = rng.integers(1, 5, size=queries.shape[0])
        k = int(rng.integers(1, n_ref.sum()))
        p = float(rng.uniform(0.05, 0.95))

        vertices = np.repeat(ref, n_ref, axis=0)

        def kth(point, others):
            return np.sort(np.linalg.norm(others - point, axis=1))[k - 1]

        brute_ref = np.array([kth(v, np.delete(vertices, i, axis=0)) for i, v in enumerate(vertices)])
        brute_q = np.array([kth(q, vertices) for q in np.repeat(queries, n_q, axis=0)])

        detector = fit_knn_detector(ref, k, p, n_ref)
        scores = knn_scores(detector, queries)
        np.testing.assert_array_equal(np.repeat(detector.reference_scores, n_ref), brute_ref)
        np.testing.assert_array_equal(np.repeat(scores, n_q), brute_q)
        assert detector.threshold == np.quantile(brute_ref, p, method="linear")
        metrics = detection_metrics(detector.reference_scores, scores, detector, n_ref, n_q)
        assert metrics.fpr_at_threshold == np.mean(brute_q <= detector.threshold)
        assert metrics.fpr95 == np.mean(brute_q <= np.quantile(brute_ref, 0.95, method="linear"))
        assert metrics.auroc == _repeated_auroc(brute_ref, brute_q)

    def test_no_array_grows_with_the_example_count(self):
        # 1.05 million examples in six rows: one float per example would be 8 MB.
        rng = np.random.default_rng(9)
        ref, queries = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        n_ref, n_q = np.full(3, 200_000), np.full(3, 150_000)
        tracemalloc.start()
        try:
            detector = fit_knn_detector(ref, 5, 0.95, n_ref)
            scores = knn_scores(detector, queries)
            detection_metrics(detector.reference_scores, scores, detector, n_ref, n_q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert detector.reference_scores.shape == (3,)
        assert scores.shape == (3,)
        assert peak < 100_000
