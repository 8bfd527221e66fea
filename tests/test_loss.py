import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgraph import (
    Cell,
    Membership,
    ParametricAugmentation,
    PopulationSpec,
    TheoryVariant,
    build_graph,
    build_toy_population,
    embed,
    enumerate_population,
    equivalence_gap,
    matrix_loss,
    surrogate_loss_from_parts,
)
from conftest import STANDARD_WEIGHTS, toy_bundle
from vertex_level import surrogate_loss


@pytest.fixture(scope="module")
def toy_setup():
    population, model = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.03, 0.01, 1e-6)
    bundle, _ = toy_bundle(TheoryVariant.CASE_A)
    return population, model, bundle


@pytest.fixture(scope="module")
def grouped_bundle():
    """Two known classes and a novel one in cells of 2-5 interchangeable examples."""
    cells = (
        Cell(0, 0, Membership.LABELED_ID, 4), Cell(1, 0, Membership.LABELED_ID, 3),
        Cell(0, 1, Membership.WILD_COVARIATE, 5), Cell(1, 1, Membership.WILD_COVARIATE, 2),
        Cell(2, 1, Membership.WILD_SEMANTIC, 3),
    )
    spec = PopulationSpec(classes=(0, 1), domains=(0, 1), cells=cells)
    params = ParametricAugmentation(rho=1.0, alpha=0.05, beta=0.02, gamma=0.01)
    return build_graph(params, enumerate_population(spec), STANDARD_WEIGHTS)


class TestSurrogateLoss:
    def test_zero_features_zero_terms(self, toy_setup):
        population, model, bundle = toy_setup
        breakdown = surrogate_loss(np.zeros((5, 3)), model, population, bundle.weights)
        assert (breakdown.L1, breakdown.L2, breakdown.L3, breakdown.L4, breakdown.L5) == (
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
        )
        assert breakdown.total == 0.0

    def test_negative_pair_terms_nonnegative(self, toy_setup):
        population, model, bundle = toy_setup
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, 3))
        breakdown = surrogate_loss(f, model, population, bundle.weights)
        assert breakdown.L3 >= 0 and breakdown.L4 >= 0 and breakdown.L5 >= 0

    def test_closed_form_features_satisfy_offset_identity(self, toy_setup):
        population, model, bundle = toy_setup
        emb = embed(bundle, 3)
        f_rows = emb.Z
        scaled = np.sqrt(bundle.D_g)[:, None] * f_rows
        breakdown = surrogate_loss(f_rows, model, population, bundle.weights)
        lhs = breakdown.total
        rhs = matrix_loss(scaled, bundle.A_tilde) - float(np.sum(bundle.A_tilde**2))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_pairwise_expansion(self, toy_setup):
        population, model, bundle = toy_setup
        rng = np.random.default_rng(7)
        f = rng.standard_normal((5, 2))
        breakdown = surrogate_loss(f, model, population, bundle.weights)
        w_pair = bundle.A_g
        w_deg = bundle.D_g
        total = 0.0
        for x in range(5):
            for y in range(5):
                inner = float(f[x] @ f[y])
                total += -2.0 * w_pair[x, y] * inner + w_deg[x] * w_deg[y] * inner**2
        assert breakdown.total == pytest.approx(total, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_invariant_under_right_rotation(self, toy_setup, seed):
        population, model, bundle = toy_setup
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((5, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = surrogate_loss(f, model, population, bundle.weights)
        b = surrogate_loss(f @ q, model, population, bundle.weights)
        assert a.total == pytest.approx(b.total, rel=1e-10, abs=1e-12)

    def test_dimension_mismatch_rejected(self, toy_setup):
        population, model, bundle = toy_setup
        with pytest.raises(ValueError):
            surrogate_loss(np.zeros((4, 2)), model, population, bundle.weights)


class TestMatrixLoss:
    def test_exact_factorization_zero(self):
        f = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        assert matrix_loss(f, f @ f.T) == 0.0

    def test_zero_factor_gives_entry_power(self, toy_setup):
        _, _, bundle = toy_setup
        expected = float(np.sum(bundle.A_tilde**2))
        assert matrix_loss(np.zeros((5, 3)), bundle.A_tilde) == pytest.approx(expected, abs=1e-15)

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(21)
        f = rng.standard_normal((6, 2))
        m = rng.standard_normal((6, 6))
        m = 0.5 * (m + m.T)
        brute = 0.0
        for x in range(6):
            for y in range(6):
                brute += (m[x, y] - float(f[x] @ f[y])) ** 2
        assert matrix_loss(f, m) == pytest.approx(brute, rel=1e-12)


class TestEquivalenceGap:
    def test_constant_offset_case_a(self, case_a_bundle):
        bundle, _ = case_a_bundle
        report = equivalence_gap(10, seed=42, bundle=bundle, k=3)
        assert report.relative_spread <= 1e-9
        assert report.max_constant_error <= 1e-9 * (1 + abs(report.constant))

    def test_constant_offset_case_b(self, case_b_bundle):
        bundle, _ = case_b_bundle
        report = equivalence_gap(10, seed=43, bundle=bundle, k=3)
        assert report.relative_spread <= 1e-9

    def test_constant_equals_squared_entry_sum(self, case_a_bundle):
        bundle, _ = case_a_bundle
        report = equivalence_gap(5, seed=1, bundle=bundle, k=2)
        assert report.constant == pytest.approx(float(np.sum(bundle.A_tilde**2)), abs=1e-15)
        for gap in report.gaps:
            assert gap == pytest.approx(report.constant, rel=1e-10)

    def test_identical_factors_give_identical_gaps(self, case_a_bundle):
        bundle, _ = case_a_bundle
        rng = np.random.default_rng(5)
        F = rng.standard_normal((5, 3))
        f_rows = F / np.sqrt(bundle.D_g)[:, None]
        gaps = []
        for _ in range(2):
            total = surrogate_loss_from_parts(f_rows, bundle.A_u_g, bundle.A_l_g, bundle.weights).total
            gaps.append(matrix_loss(F, bundle.A_tilde) - total)
        assert gaps[0] == gaps[1]

    def test_gaps_match_per_trial_evaluation_bit_for_bit(self, case_b_bundle):
        # equivalence_gap computes C and the degrees once; each trial must
        # still give exactly what a stand-alone evaluation gives
        bundle, _ = case_b_bundle
        report = equivalence_gap(4, seed=9, bundle=bundle, k=3)
        rng = np.random.default_rng(9)
        for gap in report.gaps:
            F = rng.standard_normal((5, 3)) / np.sqrt(15)
            f_rows = F / np.sqrt(bundle.D_g)[:, None]
            total = surrogate_loss_from_parts(f_rows, bundle.A_u_g, bundle.A_l_g, bundle.weights).total
            assert gap == matrix_loss(F, bundle.A_tilde) - total

    def test_grouped_gaps_match_per_trial_evaluation_bit_for_bit(self, grouped_bundle):
        # On a grouped bundle the trials are drawn over the groups, and the
        # stacked surrogate evaluation gives each trial's stand-alone bits
        bundle = grouped_bundle
        counts = bundle.counts
        g = counts.shape[0]
        assert g < counts.sum()
        report = equivalence_gap(4, seed=9, bundle=bundle, k=3)
        rng = np.random.default_rng(9)
        for gap in report.gaps:
            H = rng.standard_normal((g, 3)) / np.sqrt(3 * g)
            f_rows = H / np.sqrt(counts * bundle.D_g)[:, None]
            total = surrogate_loss_from_parts(
                f_rows, bundle.A_u_g, bundle.A_l_g, bundle.weights, counts
            ).total
            assert gap == matrix_loss(H, bundle.Q) - total
        assert report.constant == pytest.approx(float(np.sum(bundle.A_tilde**2)), rel=1e-14)

    def test_minimum_trials_enforced(self, case_a_bundle):
        bundle, _ = case_a_bundle
        with pytest.raises(ValueError):
            equivalence_gap(1, seed=0, bundle=bundle, k=2)
