import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wildgraph import (
    DegenerateRegimeError,
    ReducedParams,
    TheoryVariant,
    build_graph,
    build_toy_population,
    closed_form,
    embed,
    evaluate,
    run_toy_pipeline,
    transformation_matrix,
    verify_against_pipeline,
)
from wildgraph.theory import (
    EIGENVALUE_TIE,
    THEORY_WEIGHTS,
    _case_b_eigenvalues,
    _case_b_coeffs,
    _square,
    boundary_margin,
)


def first_order_matrix(variant: str, ap: float, bp: float) -> np.ndarray:
    """Degree-normalized adjacency with second-order terms dropped."""
    s = 3.0 / math.sqrt(2.0)
    if variant == "a":
        return np.array(
            [
                [1 - 2 * bp - 1.5 * ap, 2 * bp, s * ap, 0, 0],
                [2 * bp, 1 - 2 * bp - 1.5 * ap, 0, s * ap, 0],
                [s * ap, 0, 1 - 2 * bp - 3 * ap, 2 * bp, 0],
                [0, s * ap, 2 * bp, 1 - 2 * bp - 3 * ap, 0],
                [0, 0, 0, 0, 1.0],
            ]
        )
    if variant == "b":
        return np.array(
            [
                [1 - 2 * bp - 1.5 * ap, 2 * bp, s * ap, 0, 0],
                [2 * bp, 1 - 2 * bp - 1.5 * ap, 0, s * ap, 0],
                [s * ap, 0, 1 - 4 * bp - 3 * ap, 2 * bp, 2 * bp],
                [0, s * ap, 2 * bp, 1 - 4 * bp - 3 * ap, 2 * bp],
                [0, 0, 2 * bp, 2 * bp, 1 - 4 * bp],
            ]
        )
    return np.array(
        [
            [1 - 2 * bp - 2 * ap, 2 * bp, 2 * ap, 0, 0],
            [2 * bp, 1 - 2 * bp - 2 * ap, 0, 2 * ap, 0],
            [2 * ap, 0, 1 - 2 * bp - 2 * ap, 2 * bp, 0],
            [0, 2 * ap, 2 * bp, 1 - 2 * bp - 2 * ap, 0],
            [0, 0, 0, 0, 1.0],
        ]
    )


GRID = [round(v, 4) for v in np.linspace(0.01, 0.1, 7)]


def _signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda t: -t[1] if t[0] else t[1])


# What the closed forms square (ratios of the sweep box and sums of them),
# and the rest of the range where a square is finite: subnormals, values
# near 1e-150 (whose squares are subnormal) and near 1e150.
SQUARE_INPUTS = st.one_of(
    st.floats(-2.0, 2.0),
    _signed(st.floats(0.0, np.finfo(float).tiny)),
    _signed(st.floats(1e-151, 1e-149)),
    _signed(st.floats(1e149, 1e151)),
    st.floats(-1e154, 1e154),
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestSquare:
    @settings(max_examples=100)
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=8),
                  elements=SQUARE_INPUTS))
    def test_matches_python_pow_bit_for_bit(self, x):
        want = np.reshape([v**2 for v in np.ravel(x).tolist()], x.shape)
        got = np.asarray(_square(x))
        assert got.shape == x.shape and got.dtype == np.float64
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @given(SQUARE_INPUTS)
    def test_python_float_matches_python_pow(self, v):
        assert _bits(_square(v)) == _bits(v**2)

    def test_seeded_sample_matches_python_pow(self):
        # x * x differs from pow for about one input in a thousand, too rare
        # for the property's draws to meet every time; this sample meets it.
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.uniform(0.0, 0.5, 50_000),
            np.exp(rng.uniform(math.log(1e-160), math.log(1e154), 50_000)),
            rng.uniform(-np.finfo(float).tiny, np.finfo(float).tiny, 5_000),
        ])
        np.testing.assert_array_equal(_bits(_square(x)), _bits([v**2 for v in x.tolist()]))


class TestReducedParams:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            ReducedParams(0.0, 0.1)
        with pytest.raises(ValueError):
            ReducedParams(0.1, 1.0)

    def test_margins(self):
        p = ReducedParams(0.04, 0.02)
        assert p.case_a_margin == pytest.approx(1.125 * 0.04 - 0.02)
        assert p.unsup_margin == pytest.approx(0.02)


class TestCaseA:
    def test_error_count_branches(self):
        assert closed_form(TheoryVariant.CASE_A, ReducedParams(0.04, 0.02)).probing_error_count == 0
        assert closed_form(TheoryVariant.CASE_A, ReducedParams(0.01, 0.04)).probing_error_count == 2

    def test_separability_formula_value(self):
        ap, bp = 0.04, 0.02
        pred = closed_form(TheoryVariant.CASE_A, ReducedParams(ap, bp))
        expected = (7 + 0.24 + 0.48) * ((1 - 0.04) / 3 * (1 - 0.02 - 0.03) ** 2 + 1)
        assert pred.separability == pytest.approx(expected, rel=1e-12)

    def test_eigensystem_exact_on_first_order_matrix(self):
        for ap, bp in [(0.04, 0.02), (0.01, 0.08), (0.1, 0.1)]:
            pred = closed_form(TheoryVariant.CASE_A, ReducedParams(ap, bp))
            m = first_order_matrix("a", ap, bp)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            np.testing.assert_allclose(pred.eigenvalues, ref, atol=1e-12)
            residual = m @ pred.eigenbasis - pred.eigenbasis * pred.eigenvalues[:3]
            assert np.max(np.abs(residual)) <= 1e-12

    def test_boundary_raises(self):
        with pytest.raises(DegenerateRegimeError):
            closed_form(TheoryVariant.CASE_A, ReducedParams(0.04, 0.045))

    def test_projectors_idempotent_and_symmetric(self):
        pred = closed_form(TheoryVariant.CASE_A, ReducedParams(0.03, 0.01))
        for proj in (pred.top_pair_projector, pred.third_projector):
            np.testing.assert_allclose(proj, proj.T, atol=1e-12)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)

    def test_eigenbasis_orthonormal_for_all_layouts(self):
        params = ReducedParams(0.04, 0.03)
        for pred in (
            closed_form(TheoryVariant.CASE_A, params),
            closed_form(TheoryVariant.CASE_B, params),
            closed_form(TheoryVariant.UNSUPERVISED, params),
        ):
            gram = pred.eigenbasis.T @ pred.eigenbasis
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_separability_cross_checked_against_pipeline(self):
        ap, bp = 0.04, 0.02
        pred = closed_form(TheoryVariant.CASE_A, ReducedParams(ap, bp))
        numeric = run_toy_pipeline(TheoryVariant.CASE_A, ReducedParams(ap, bp, 1e-6))
        assert numeric.separability == pytest.approx(pred.separability, rel=0.05)

    def test_id_feature_rows_shape_in_generalizing_regime(self):
        # ID rows of the closed-form embedding are proportional to
        # [1, 0, -sqrt(1 - 4b')] and [1, 0, +sqrt(1 - 4b')]
        ap, bp = 0.04, 0.02
        pred = closed_form(TheoryVariant.CASE_A, ReducedParams(ap, bp))
        z_id = pred.eigenbasis[:2] * np.sqrt(np.clip(pred.eigenvalues[:3], 0, None))
        spread = math.sqrt(1 - 4 * bp)
        for row, sign in ((0, -1.0), (1, 1.0)):
            direction = np.array([1.0, 0.0, sign * spread])
            scale = z_id[row, 0]
            np.testing.assert_allclose(z_id[row], scale * direction, atol=1e-12)


class TestCaseB:
    def test_error_count_always_zero(self):
        for ap in GRID:
            for bp in GRID:
                pred = closed_form(TheoryVariant.CASE_B, ReducedParams(ap, bp))
                assert pred.probing_error_count == 0

    def test_leading_eigenvector(self):
        pred = closed_form(TheoryVariant.CASE_B, ReducedParams(0.03, 0.02))
        s2, s7 = math.sqrt(2), math.sqrt(7)
        np.testing.assert_allclose(
            pred.eigenbasis[:, 0], np.array([s2, s2, 1, 1, 1]) / s7, atol=1e-12
        )

    def test_eigensystem_exact_on_first_order_matrix(self):
        # The eigenvalue quadratics and the coefficient functions evaluated at
        # those eigenvalues reproduce the first-order matrix's spectrum and
        # eigenvectors to machine precision.
        for ap, bp in [(0.02, 0.02), (0.05, 0.03), (0.1, 0.1), (0.01, 0.1)]:
            pred = closed_form(TheoryVariant.CASE_B, ReducedParams(ap, bp))
            m = first_order_matrix("b", ap, bp)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            np.testing.assert_allclose(pred.eigenvalues, ref, atol=1e-12)
            residual = m @ pred.eigenbasis - pred.eigenbasis * pred.eigenvalues[:3]
            assert np.max(np.abs(residual)) <= 1e-10

    def test_eigenvalues_ordered_descending(self):
        for ap, bp in [(0.02, 0.02), (0.1, 0.01), (0.01, 0.1)]:
            lam = _case_b_eigenvalues(ap, bp)
            assert np.all(np.diff(lam) < 0)

    def test_eigenvalues_track_exact_pipeline(self):
        for ap, bp in [(0.02, 0.02), (0.05, 0.05), (0.1, 0.1)]:
            pred = closed_form(TheoryVariant.CASE_B, ReducedParams(ap, bp))
            numeric = run_toy_pipeline(TheoryVariant.CASE_B, ReducedParams(ap, bp, 1e-6))
            envelope = 20 * ((ap + bp) ** 2 + 1e-6)
            np.testing.assert_allclose(
                pred.eigenvalues, numeric.embedding.eigenvalues, atol=envelope
            )

    def test_separability_tracks_exact_pipeline(self):
        ap, bp = 0.03, 0.02
        pred = closed_form(TheoryVariant.CASE_B, ReducedParams(ap, bp))
        numeric = run_toy_pipeline(TheoryVariant.CASE_B, ReducedParams(ap, bp, 1e-6))
        assert numeric.separability == pytest.approx(pred.separability, rel=0.05)

    def test_coefficient_functions_satisfy_eigen_equations(self):
        ap, bp = 0.04, 0.03
        m = first_order_matrix("b", ap, bp)
        lam = _case_b_eigenvalues(ap, bp)
        a2, b2, _ = _case_b_coeffs(ap, bp, float(lam[1]))
        vec = np.array([a2, a2, b2, b2, 1.0])
        np.testing.assert_allclose(m @ vec, lam[1] * vec, atol=1e-12)


class TestUnsupervised:
    def test_error_count_branches(self):
        unsup = TheoryVariant.UNSUPERVISED
        assert closed_form(unsup, ReducedParams(0.03, 0.02)).probing_error_count == 0
        assert closed_form(unsup, ReducedParams(0.02, 0.03)).probing_error_count == 2

    def test_leading_eigenvector(self):
        pred = closed_form(TheoryVariant.UNSUPERVISED, ReducedParams(0.03, 0.02))
        np.testing.assert_allclose(
            pred.eigenbasis[:, 0], np.array([1, 1, 1, 1, 0]) / 2.0, atol=1e-12
        )

    def test_eigensystem_exact_on_first_order_matrix(self):
        for ap, bp in [(0.03, 0.02), (0.02, 0.08)]:
            pred = closed_form(TheoryVariant.UNSUPERVISED, ReducedParams(ap, bp))
            m = first_order_matrix("unsup", ap, bp)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            np.testing.assert_allclose(pred.eigenvalues, ref, atol=1e-12)

    def test_boundary_raises(self):
        with pytest.raises(DegenerateRegimeError):
            closed_form(TheoryVariant.UNSUPERVISED, ReducedParams(0.05, 0.05))

    def test_basis_matches_pipeline_projectors_exactly(self):
        # Without supervised edges the five-example graph has enough symmetry
        # that the eigenvectors are parameter-independent.
        pred = closed_form(TheoryVariant.UNSUPERVISED, ReducedParams(0.03, 0.02))
        numeric = run_toy_pipeline(TheoryVariant.UNSUPERVISED, ReducedParams(0.03, 0.02, 1e-6))
        v = numeric.embedding.V_k
        pair = np.linalg.norm(v[:, :2] @ v[:, :2].T - pred.top_pair_projector)
        third = np.linalg.norm(np.outer(v[:, 2], v[:, 2]) - pred.third_projector)
        assert max(pair, third) <= 1e-6

    def test_separability_tracks_exact_pipeline(self):
        worst = 0.0
        for ap, bp in [(0.03, 0.02), (0.06, 0.02), (0.02, 0.09), (0.1, 0.04)]:
            pred = closed_form(TheoryVariant.UNSUPERVISED, ReducedParams(ap, bp))
            numeric = run_toy_pipeline(
                TheoryVariant.UNSUPERVISED, ReducedParams(ap, bp, 1e-6)
            )
            worst = max(worst, abs(numeric.separability - pred.separability) / pred.separability)
        assert worst <= 0.06


def closed_gaps(ap: float, bp: float) -> tuple[float, float, float, float]:
    """Closed-form separability of case a and of the unsupervised layout, gap_ab and gap_label."""
    s_a, s_b, s_u = (closed_form(v, ReducedParams(ap, bp)).separability for v in TheoryVariant)
    return s_a, s_u, s_a - s_b, s_a - s_u


class TestSeparabilityGap:
    def test_label_benefit_positive_on_grid(self):
        for ap in GRID:
            for bp in GRID:
                if abs(ap - bp) <= 0.005 or abs(1.125 * ap - bp) <= 0.005:
                    continue
                assert closed_gaps(ap, bp)[3] > 0

    def test_placement_gap_changes_sign(self):
        signs = set()
        for ap in np.linspace(0.01, 0.2, 9):
            for bp in np.linspace(0.01, 0.2, 9):
                if abs(ap - bp) <= 0.005 or abs(1.125 * ap - bp) <= 0.005:
                    continue
                signs.add(closed_gaps(float(ap), float(bp))[2] > 0)
        assert signs == {True, False}

    def test_small_ratio_limits(self):
        eps = 1e-6
        s_case_a, s_unsup, _, gap_label = closed_gaps(2 * eps, eps)
        assert s_case_a == pytest.approx(7 * (1 / 3 + 1), abs=1e-4)
        assert s_unsup == pytest.approx(5 * (1 / 2 + 1), abs=1e-4)
        assert gap_label == pytest.approx(7 * 4 / 3 - 7.5, abs=1e-3)


class TestVerifyAgainstPipeline:
    def test_case_a_reference_point(self):
        report = verify_against_pipeline(
            TheoryVariant.CASE_A, ReducedParams(0.03, 0.01, 1e-6)
        )
        assert report.passed
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["eigenvalue_1"].abs_dev <= 0.01
        assert by_name["eigenvalue_3"].abs_dev <= 0.01
        assert by_name["probing_error_count"].abs_dev == 0
        assert by_name["separability"].rel_dev <= 0.05

    def test_case_b_equal_ratios(self):
        report = verify_against_pipeline(
            TheoryVariant.CASE_B, ReducedParams(0.05, 0.05, 1e-6)
        )
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["probing_error_count"].numeric == 0
        assert by_name["probing_error_count"].closed == 0

    def test_unsupervised_collapsed_branch(self):
        report = verify_against_pipeline(
            TheoryVariant.UNSUPERVISED, ReducedParams(0.02, 0.03, 1e-6)
        )
        by_name = {c.name: c for c in report.comparisons}
        assert by_name["probing_error_count"].numeric == 2
        assert by_name["probing_error_count"].closed == 2
        assert report.passed

    def test_requires_connected_graph(self):
        with pytest.raises(ValueError):
            verify_against_pipeline(TheoryVariant.CASE_A, ReducedParams(0.03, 0.01, 0.0))


class TestRegimeDichotomy:
    def test_counts_match_branch_on_sample_grid(self):
        for ap in GRID:
            for bp in GRID:
                if abs(1.125 * ap - bp) <= 0.005:
                    continue
                numeric = run_toy_pipeline(TheoryVariant.CASE_A, ReducedParams(ap, bp, 1e-6))
                expected = 0 if 1.125 * ap > bp else 2
                assert numeric.probing.count == expected, (ap, bp)

    def test_eigenvalue_deviation_envelope(self):
        # Exact eigenvalues drift away from the first-order values
        # quadratically in the ratios; the constant stays below 10 when
        # measured against the summed ratios.
        for ap in GRID:
            for bp in GRID:
                numeric = run_toy_pipeline(TheoryVariant.CASE_A, ReducedParams(ap, bp, 1e-6))
                closed = np.sort([1 - 4 * bp, 1 - 4.5 * ap, 1 - 4 * bp - 4.5 * ap])[::-1]
                dev = np.max(np.abs(numeric.embedding.eigenvalues[2:] - closed))
                assert dev <= 10 * ((ap + bp) ** 2 + 1e-6), (ap, bp, dev)


@pytest.mark.parametrize("variant", ["a", "b", "unsup"])
def test_string_variant_matches_enum(variant):
    """Every public entry point reads the plain string as its enum member."""
    member = TheoryVariant(variant)
    params = ReducedParams(0.03, 0.01, 1e-6)

    pop_s, model_s = build_toy_population(variant, 1.0, 0.03, 0.01, 1e-6)
    pop_e, model_e = build_toy_population(member, 1.0, 0.03, 0.01, 1e-6)
    assert pop_s == pop_e
    np.testing.assert_array_equal(
        transformation_matrix(model_s, pop_s), transformation_matrix(model_e, pop_e)
    )

    assert boundary_margin(variant, params) == boundary_margin(member, params)

    closed_s, closed_e = closed_form(variant, params), closed_form(member, params)
    np.testing.assert_array_equal(closed_s.eigenvalues, closed_e.eigenvalues)
    assert closed_s.separability == closed_e.separability
    assert closed_s.probing_error_count == closed_e.probing_error_count

    run_s, run_e = run_toy_pipeline(variant, params), run_toy_pipeline(member, params)
    np.testing.assert_array_equal(run_s.embedding.Z, run_e.embedding.Z)
    assert run_s.separability == run_e.separability
    assert run_s.probing.count == run_e.probing.count

    report = verify_against_pipeline(variant, params)
    assert report.variant is member
    assert report.comparisons == verify_against_pipeline(member, params).comparisons


# Sweep boxes for the grid property: a random box, one whose grid lies on
# the unsupervised boundary a' = b' (exact eigenvalue ties) along its
# diagonal, and one whose grid lies on case a's boundary b' = 9/8 a'.
_ratio = st.floats(0.005, 0.2)


@st.composite
def sweep_grids(draw):
    kind = draw(st.sampled_from(["random", "unsup-boundary", "case-a-boundary"]))
    lo, hi = sorted((draw(_ratio), draw(_ratio)))
    if kind == "random":
        b_lo, b_hi = sorted((draw(_ratio), draw(_ratio)))
    elif kind == "unsup-boundary":
        b_lo, b_hi = lo, hi
    else:
        b_lo, b_hi = 1.125 * lo, 1.125 * hi
    resolution = draw(st.integers(1, 6))
    alphas, betas = np.linspace(lo, hi, resolution), np.linspace(b_lo, b_hi, resolution)
    return (
        draw(st.sampled_from(list(TheoryVariant))),
        np.repeat(alphas, resolution),
        np.tile(betas, resolution),
        draw(st.floats(1e-7, 1e-3)),
        draw(st.one_of(st.just(1.0), st.floats(0.3, 4.0))),
    )


def _row(value, i):
    """Entry i of a stacked report field; a gate or closed value shared by all points is a number."""
    return value if value is None or np.ndim(value) == 0 else value[i]


class TestVerifyStacked:
    @settings(max_examples=40, deadline=None)
    @given(sweep_grids())
    def test_rows_match_single_points_and_the_general_chain(self, grid):
        variant, ap, bp, gamma, rho = grid
        rows = verify_against_pipeline(variant, ReducedParams(ap, bp, gamma), rho=rho)
        stacked = run_toy_pipeline(variant, ReducedParams(ap, bp, gamma), rho=rho)
        by_name = {c.name: c for c in rows.comparisons}
        unsup = variant is TheoryVariant.UNSUPERVISED
        weights = THEORY_WEIGHTS["unsupervised" if unsup else "supervised"]
        for i in range(ap.size):
            # the one-point call, as toy-verify makes it, bit for bit
            one = verify_against_pipeline(
                variant, ReducedParams(float(ap[i]), float(bp[i]), gamma), rho=rho
            )
            assert [c.name for c in one.comparisons] == list(by_name)
            for c in one.comparisons:
                for field in ("closed", "numeric", "abs_dev", "rel_dev", "tolerance"):
                    value = getattr(c, field)
                    assert value is None or isinstance(value, float)
                    np.testing.assert_array_equal(_row(getattr(by_name[c.name], field), i), value)
            for field in dataclasses.fields(one.gaps):
                value = getattr(one.gaps, field.name)
                assert isinstance(value, float)
                np.testing.assert_array_equal(getattr(rows.gaps, field.name)[i], value)
            # the general chain on the same point
            population, model = build_toy_population(
                variant, rho, ap[i] * rho, bp[i] * rho, gamma * rho
            )
            bundle = build_graph(model, population, weights)
            ev = evaluate(population, embed(bundle, 3).Z)
            a = bundle.A_tilde
            v, lam = stacked.embedding.V_k[i], stacked.embedding.eigenvalues[i]
            count, sep = by_name["probing_error_count"], by_name["separability"]
            if abs(lam[2] - lam[3]) <= EIGENVALUE_TIE:
                # k = 3 cuts a tied pair: the numeric values are marked and fail
                assert np.isnan(count.numeric[i]) and np.isnan(sep.numeric[i])
                assert not (one.passed or count.passed or sep.passed)
            else:
                assert count.numeric[i] == ev.probing.count
                assert sep.numeric[i] == pytest.approx(ev.separability, rel=1e-12)
            assert np.linalg.norm(a @ v - v * lam[:3]) <= 1e-8 * np.linalg.norm(a)
            np.testing.assert_allclose(lam, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-12)

    def test_degenerate_points_are_marked(self):
        # (0.08, 0.09) lies on case a's boundary, (0.1, 0.1) on the unsupervised one.
        params = ReducedParams(np.array([0.08, 0.1, 0.05]), np.array([0.09, 0.1, 0.02]), 1e-6)
        expected = {"a": [False, True, True], "unsup": [True, False, True], "b": [True] * 3}
        for variant, own in expected.items():
            report = verify_against_pipeline(variant, params)
            by_name = {c.name: c for c in report.comparisons}
            for c in report.comparisons[:-1]:  # the projector's closed value is 0 throughout
                assert list(np.isfinite(c.closed)) == own, c.name
            assert list(np.isfinite(by_name["projector_deviation"].numeric)) == own
            for field in dataclasses.fields(report.gaps):
                assert list(np.isfinite(getattr(report.gaps, field.name))) == [False, False, True]
            # only the unsupervised layout ties lambda_3 and lambda_4 at (0.1, 0.1)
            numeric = [True, variant != "unsup", True]
            assert list(np.isfinite(by_name["probing_error_count"].numeric)) == numeric
            assert list(np.isfinite(by_name["separability"].numeric)) == numeric
            # a marked point fails its gates
            for i in range(3):
                if not (own[i] and numeric[i]):
                    one = verify_against_pipeline(
                        variant, ReducedParams(params.alpha_prime[i], params.beta_prime[i], 1e-6)
                    )
                    assert not one.passed

    def test_tied_cut_fails_the_single_point(self):
        # Case a at this point has lambda_3 - lambda_4 = 2.8e-16, outside
        # toy-verify's boundary band: k = 3 cuts the tied pair.
        report = verify_against_pipeline("a", ReducedParams(0.2, 0.21539648446668805, 1e-6))
        count = {c.name: c for c in report.comparisons}["probing_error_count"]
        assert math.isnan(count.numeric) and count.closed == 0
        assert not count.passed and not report.passed
