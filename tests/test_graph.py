import math
import warnings

import numpy as np
import pytest

from wildgraph import (
    ExplicitAugmentation,
    GraphError,
    GraphWeights,
    IsolatedVertexError,
    Membership,
    ParametricAugmentation,
    TheoryVariant,
    build_graph,
    build_toy_population,
    combine_and_normalize,
    self_supervised_adjacency,
    supervised_adjacency,
    transformation_matrix,
)
from conftest import STANDARD_WEIGHTS, parametric_50_node, random_symmetric, toy_bundle
from vertex_level import build_parametric_population, indicator, split

RHO, ALPHA, BETA, GAMMA = 1.0, 0.2, 0.1, 0.05


@pytest.fixture(scope="module")
def toy_a():
    return build_toy_population(TheoryVariant.CASE_A, RHO, ALPHA, BETA, GAMMA)


class TestSelfSupervisedAdjacency:
    def test_toy_diagonal(self, toy_a):
        population, model = toy_a
        a_u = self_supervised_adjacency(model, population)
        expected = RHO**2 + BETA**2 + ALPHA**2 + 2 * GAMMA**2
        np.testing.assert_allclose(5 * a_u[0, 0], expected, rtol=1e-14)
        np.testing.assert_allclose(np.diag(5 * a_u)[:4], expected, rtol=1e-14)

    def test_identity_transformation(self):
        population, _ = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.0, 0.0, 0.0)
        a_u = self_supervised_adjacency(ExplicitAugmentation(np.eye(5)), population)
        np.testing.assert_allclose(a_u, np.eye(5) / 5)

    def test_random_matrix_against_triple_loop(self):
        rng = np.random.default_rng(42)
        t = rng.uniform(0.0, 1.0, size=(7, 7))
        from wildgraph import Cell, PopulationSpec

        spec = PopulationSpec(
            classes=(0,),
            domains=(0, 1),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 3),
                Cell(0, 1, Membership.WILD_COVARIATE, 3),
                Cell(9, 1, Membership.WILD_SEMANTIC, 1),
            ),
        )
        population7, _ = build_parametric_population(spec, ParametricAugmentation(1, 0, 0, 0))
        a_u = self_supervised_adjacency(ExplicitAugmentation(t), population7)
        brute = np.zeros((7, 7))
        for x in range(7):
            for y in range(7):
                for src in range(7):
                    brute[x, y] += t[src, x] * t[src, y] / 7
        np.testing.assert_allclose(a_u, brute, atol=1e-14)

    def test_dimension_mismatch_rejected(self, toy_a):
        from wildgraph import PopulationError

        population, _ = toy_a
        with pytest.raises(PopulationError):
            self_supervised_adjacency(ExplicitAugmentation(np.ones((3, 3))), population)

    def test_non_square_transformation_refused(self):
        # The views are the examples themselves, so a matrix with more view
        # columns than source rows is refused by name, not by broadcasting.
        from wildgraph import Cell, PopulationError, PopulationSpec, enumerate_population

        spec = PopulationSpec(
            classes=(0, 1),
            domains=(0,),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 1),
                Cell(1, 0, Membership.LABELED_ID, 1),
                Cell(0, 0, Membership.WILD_ID, 1),
            ),
        )
        population = enumerate_population(spec)
        rng = np.random.default_rng(2)
        model = ExplicitAugmentation(rng.uniform(0.1, 1.0, size=(3, 7)))
        for build in (self_supervised_adjacency, supervised_adjacency):
            with pytest.raises(PopulationError, match="7 view columns for 3 source rows"):
                build(model, population)
        with pytest.raises(PopulationError, match="must be square"):
            build_graph(model, population, GraphWeights(5.0, 1.0))


class TestSupervisedAdjacency:
    def test_unequal_labeled_cells_weigh_by_count(self):
        # Two labeled cells of one class, counts 1 and 3: the class mean is
        # the mean over its four labeled examples, not over its two cells.
        from wildgraph import Cell, Population

        cells = (
            Cell(0, 0, Membership.LABELED_ID, 1), Cell(0, 1, Membership.WILD_COVARIATE, 2),
            Cell(0, 0, Membership.LABELED_ID, 3),
        )
        population = Population(classes=(0,), domains=(0, 1), cells=cells)
        t = np.array([[1.0, 0.2, 0.5], [0.3, 1.0, 0.1], [0.4, 0.6, 1.0]])
        mu = (t[0] + 3 * t[2]) / 4
        np.testing.assert_allclose(supervised_adjacency(t, population), np.outer(mu, mu), atol=1e-15)

    def test_toy_off_diagonal_pair_weight(self, toy_a):
        population, model = toy_a
        a_l = supervised_adjacency(model, population)
        np.testing.assert_allclose(a_l[0, 1], 2 * RHO * BETA, rtol=1e-14)

    def test_no_labeled_examples_gives_zero(self):
        from wildgraph import Cell, PopulationSpec

        spec = PopulationSpec(
            classes=(0,),
            domains=(0,),
            cells=(Cell(0, 0, Membership.WILD_ID, 4),),
        )
        population, model = build_parametric_population(spec, ParametricAugmentation(1, 0.1, 0.1, 0.1))
        np.testing.assert_array_equal(supervised_adjacency(model, population), np.zeros((4, 4)))

    def test_two_labeled_per_class_against_pair_loop(self):
        from wildgraph import Cell, PopulationSpec, enumerate_population

        spec = PopulationSpec(
            classes=(0, 1),
            domains=(0, 1),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 2),
                Cell(1, 0, Membership.LABELED_ID, 2),
                Cell(0, 1, Membership.WILD_COVARIATE, 2),
            ),
        )
        population, model = build_parametric_population(
            spec, ParametricAugmentation(1.0, 0.3, 0.2, 0.05)
        )
        t = model.matrix
        n = t.shape[0]
        brute = np.zeros((n, n))
        by_class: dict[int, list[int]] = {}
        for i, cell in enumerate(population.cells):
            if cell.membership is Membership.LABELED_ID:
                by_class.setdefault(cell.class_label, []).append(i)
        for rows in by_class.values():
            n_i = len(rows)
            for x in range(n):
                for y in range(n):
                    for src_a in rows:
                        for src_b in rows:
                            brute[x, y] += t[src_a, x] * t[src_b, y] / n_i**2
        np.testing.assert_allclose(supervised_adjacency(model, population), brute, atol=1e-13)
        # Over the unsplit cells (counts 2, 2, 2) the rule gives one row per
        # cell, holding the weight between two single examples of the cells.
        cells = enumerate_population(spec)
        a_l = supervised_adjacency(ParametricAugmentation(1.0, 0.3, 0.2, 0.05), cells)
        e = np.repeat(np.eye(3), 2, axis=0)  # examples by cells
        np.testing.assert_allclose(e @ a_l @ e.T, brute, atol=1e-13)


class TestCombineAndNormalize:
    def test_first_order_structure_at_small_ratios(self):
        ap, bp = 1e-3, 5e-4
        bundle, _ = toy_bundle(TheoryVariant.CASE_A, 1.0, ap, bp, 1e-9)
        c_hat = 7 + 12 * bp + 12 * ap
        first_row = np.array([2.0, 4 * bp, 3 * ap, 0.0, 0.0])
        np.testing.assert_allclose(c_hat * bundle.A_g[0], first_row, atol=5e-6)

    def test_entry_sum_is_one(self, case_a_bundle):
        bundle, _ = case_a_bundle
        assert abs(bundle.A_g.sum() - 1.0) <= 1e-12

    def test_zero_supervised_part_leaves_direction(self, toy_a):
        population, model = toy_a
        a_u = self_supervised_adjacency(model, population)
        bundle = combine_and_normalize(a_u, np.zeros_like(a_u), GraphWeights(2.0, 3.0))
        np.testing.assert_allclose(bundle.A_g, a_u / a_u.sum(), atol=1e-15)

    def test_random_symmetric_normalization_oracle(self):
        m = np.abs(random_symmetric(9, seed=5)) + 0.01
        bundle = combine_and_normalize(m, np.zeros_like(m), GraphWeights(1.0, 0.0))
        np.testing.assert_allclose(bundle.A_g.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(bundle.D_g, bundle.A_g.sum(axis=1), atol=1e-15)
        lam = np.linalg.eigvalsh(bundle.A_tilde)
        assert lam.min() >= -1.0 - 1e-10
        assert lam.max() <= 1.0 + 1e-10

    def test_weight_rescaling_is_absorbed(self, toy_a):
        population, model = toy_a
        a_u = self_supervised_adjacency(model, population)
        a_l = supervised_adjacency(model, population)
        base = combine_and_normalize(a_u, a_l, GraphWeights(5.0, 1.0))
        scaled = combine_and_normalize(a_u, a_l, GraphWeights(35.0, 7.0))
        np.testing.assert_allclose(scaled.A_g, base.A_g, atol=1e-14)
        np.testing.assert_allclose(scaled.D_g, base.D_g, atol=1e-14)
        np.testing.assert_allclose(scaled.A_tilde, base.A_tilde, atol=1e-14)

    def test_normalized_adjacency_ignores_global_scale(self, toy_a):
        population, model = toy_a
        a_u = self_supervised_adjacency(model, population)
        a_l = supervised_adjacency(model, population)
        base = combine_and_normalize(a_u, a_l, GraphWeights(5.0, 1.0))
        rescaled = combine_and_normalize(13.0 * a_u, 13.0 * a_l, GraphWeights(5.0, 1.0))
        assert rescaled.C == pytest.approx(13.0 * base.C, rel=1e-14)
        np.testing.assert_allclose(rescaled.A_tilde, base.A_tilde, atol=1e-13)

    def test_unit_eigenvalue_on_connected_graph(self, case_a_bundle):
        bundle, _ = case_a_bundle
        lam = np.linalg.eigvalsh(bundle.A_tilde)
        assert abs(lam.max() - 1.0) <= 1e-8
        sqrt_d = np.sqrt(bundle.D_g)
        np.testing.assert_allclose(bundle.A_tilde @ sqrt_d, sqrt_d, atol=1e-12)

    def test_positive_degrees_with_positive_gamma(self):
        bundle, _ = toy_bundle(TheoryVariant.CASE_A, 1.0, 0.02, 0.02, 1e-8)
        assert np.all(bundle.D_g > 0)

    def test_isolated_vertex_named(self):
        t = np.eye(5)
        t[:, 2] = 0.0
        t[2, :] = 0.0
        a = 0.5 * (t + t.T)
        with pytest.raises(IsolatedVertexError, match="vertex 2"):
            combine_and_normalize(a, np.zeros_like(a), GraphWeights(1.0, 0.0))

    def test_asymmetric_input_rejected(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(GraphError, match="symmetric"):
            combine_and_normalize(m, np.zeros_like(m), GraphWeights(1.0, 0.0))

    # an infinite entry, finite entries whose total overflows, and a
    # subnormal degree whose square underflows to zero
    @pytest.mark.parametrize(
        "a, message",
        [
            (np.full((3, 3), np.inf), "total weight overflows float64"),
            (np.full((3, 3), 1e308), "total weight overflows float64"),
            (np.diag([1.0, 1e-320]), "normalized adjacency has non-finite entries"),
        ],
    )
    def test_overflow_named_without_numpy_warnings(self, a, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=message):
                combine_and_normalize(a, np.zeros_like(a), GraphWeights(5.0, 1.0))

    def test_weights_validated(self):
        with pytest.raises(GraphError):
            GraphWeights(0.0, 0.0)
        with pytest.raises(GraphError):
            GraphWeights(-1.0, 2.0)
        # a weight that is not finite is named, not passed on to overflow C
        for weights, name in (((math.nan, 1.0), "eta_u"), ((5.0, math.inf), "eta_l")):
            with pytest.raises(GraphError, match=f"{name} must be finite"):
                GraphWeights(*weights)



class TestBuildGraph:
    def test_parametric_model_is_expanded_once(self, toy_a, monkeypatch):
        import wildgraph.graph as graph_module

        population, explicit = toy_a
        expansions = []
        real = graph_module.transformation_matrix

        def counting(model, pop):
            expansions.append(isinstance(model, ParametricAugmentation))
            return real(model, pop)

        monkeypatch.setattr(graph_module, "transformation_matrix", counting)
        weights = GraphWeights(5.0, 1.0)
        bundle = build_graph(ParametricAugmentation(RHO, ALPHA, BETA, GAMMA), population, weights)
        assert expansions.count(True) == 1
        reference = build_graph(explicit, population, weights)
        np.testing.assert_array_equal(bundle.A_tilde, reference.A_tilde)

    def test_isolated_cell_names_its_first_example(self):
        # With rho = beta = gamma = 0 the novel class, alone in its domain,
        # has no edge.  Its two cells merge into one row, and the error names
        # the row's first example in the population's vertex order.
        from wildgraph import Cell, Population

        cells = (
            Cell(0, 0, Membership.LABELED_ID, 2), Cell(2, 1, Membership.WILD_SEMANTIC, 1),
            Cell(0, 1, Membership.WILD_COVARIATE, 3), Cell(2, 1, Membership.WILD_SEMANTIC, 2),
        )
        population = Population(classes=(0,), domains=(0, 1), cells=cells)
        with pytest.raises(IsolatedVertexError, match="^vertex 2 has zero degree$"):
            build_graph(ParametricAugmentation(0.0, 0.1, 0.0, 0.0), population, STANDARD_WEIGHTS)

    def test_stack_of_models_matches_each_model(self, toy_a):
        # Array-valued parameters build one graph per entry, each equal to
        # the graph of that entry's own model.
        population, _ = toy_a
        alphas, betas = np.array([0.05, 0.2, 0.1]), np.array([0.1, 0.1, 0.02])
        weights = GraphWeights(5.0, 1.0)
        stack = build_graph(ParametricAugmentation(RHO, alphas, betas, GAMMA), population, weights)
        assert stack.A_tilde.shape == (3, 5, 5) and stack.C.shape == (3,)
        for i, (a, b) in enumerate(zip(alphas, betas)):
            one = build_graph(ParametricAugmentation(RHO, a, b, GAMMA), population, weights)
            for name in ("A_u_g", "A_l_g", "A_g", "D_g", "A_tilde_g", "A_tilde"):
                np.testing.assert_array_equal(getattr(stack, name)[i], getattr(one, name))
            assert stack.C[i] == one.C


class TestVertexView:
    """``A_tilde`` is E A_tilde_g E^t, read-only, with E the vertices-by-groups indicator."""

    @staticmethod
    def assert_expands_the_groups(bundle, vertices):
        a = bundle.A_tilde
        assert not a.flags.writeable
        assert a.shape == bundle.A_tilde_g.shape[:-2] + (vertices, vertices)
        e = indicator(bundle)
        expected = e @ bundle.A_tilde_g @ e.T
        assert a.dtype == expected.dtype and a.tobytes() == expected.tobytes()

    def test_grouped_bundle(self):
        population, _ = parametric_50_node()
        model = ParametricAugmentation(1.0, 0.05, 0.02, 0.01)
        bundle = build_graph(model, population, STANDARD_WEIGHTS)
        assert bundle.counts.shape[0] < len(population)
        self.assert_expands_the_groups(bundle, len(population))

    def test_vertex_order_is_the_population_s(self):
        # A cell key listed twice merges into one row, but the view keeps
        # every example where the population put it.
        from wildgraph import Cell, Population

        cells = (
            Cell(0, 0, Membership.LABELED_ID, 2), Cell(1, 1, Membership.WILD_COVARIATE, 1),
            Cell(0, 0, Membership.LABELED_ID, 1), Cell(2, 1, Membership.WILD_SEMANTIC, 2),
        )
        population = Population(classes=(0, 1), domains=(0, 1), cells=cells)
        model = ParametricAugmentation(1.0, 0.05, 0.02, 0.01)
        bundle = build_graph(model, population, STANDARD_WEIGHTS)
        assert bundle.vertex_rows().tolist() == [0, 0, 1, 0, 2, 2]
        self.assert_expands_the_groups(bundle, 6)
        examples = split(population)
        dense = build_graph(ExplicitAugmentation(transformation_matrix(model, examples)), examples,
                            STANDARD_WEIGHTS)
        np.testing.assert_allclose(bundle.A_tilde, dense.A_tilde, rtol=0, atol=1e-15)

    def test_stack_of_toy_bundles(self, toy_a):
        population, _ = toy_a
        alphas, betas = np.array([0.05, 0.2, 0.1]), np.array([0.1, 0.1, 0.02])
        stack = build_graph(ParametricAugmentation(RHO, alphas, betas, GAMMA), population, STANDARD_WEIGHTS)
        self.assert_expands_the_groups(stack, len(population))
