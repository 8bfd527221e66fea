import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgraph import (
    Cell,
    ExplicitAugmentation,
    GraphError,
    GraphWeights,
    IsolatedVertexError,
    Membership,
    ParametricAugmentation,
    Population,
    PopulationError,
    TheoryVariant,
    build_graph,
    build_toy_population,
    load_population_config,
    self_supervised_adjacency,
    supervised_adjacency,
    transformation_matrix,
)
from conftest import STANDARD_WEIGHTS, combined_adjacency, parametric_50_node, toy_bundle
from test_golden import HUGE_MATRIX_CONFIG, isolated_class_config, matrix_config
from vertex_level import build_parametric_population, indicator, split, supervised_per_class

RHO, ALPHA, BETA, GAMMA = 1.0, 0.2, 0.1, 0.05


def readme_matrix() -> tuple[Population, np.ndarray]:
    """The README's examples, one count-1 cell each, and a copy of their explicit matrix."""
    population, model, _ = load_population_config(matrix_config())
    return population.examples(), model.matrix.copy()


def subnormal_degree() -> np.ndarray:
    """The README matrix with wild example 33 reached only from itself, by 1e-155."""
    _, t = readme_matrix()
    t[33, :] = t[:, 33] = 0.0
    t[33, 33] = 1e-155
    return t


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
        population = Population(
            classes=(0,),
            domains=(0, 1),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 3),
                Cell(0, 1, Membership.WILD_COVARIATE, 3),
                Cell(9, 1, Membership.WILD_SEMANTIC, 1),
            ),
        )
        population7, _ = build_parametric_population(population, ParametricAugmentation(1, 0, 0, 0))
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

    def test_explicit_matrix_needs_count_1_cells(self):
        # A row per example, over three examples in two cells: refused by
        # name, not by broadcasting.  build_graph expands the cells itself.
        population = Population(classes=(0,), domains=(0,), cells=(
            Cell(0, 0, Membership.LABELED_ID, 2), Cell(0, 0, Membership.WILD_ID, 1),
        ))
        model = ExplicitAugmentation(np.eye(3))
        for build in (transformation_matrix, self_supervised_adjacency, supervised_adjacency):
            with pytest.raises(PopulationError, match="3 examples in 2 cells"):
                build(model, population)
        assert build_graph(model, population, STANDARD_WEIGHTS).groups == population.examples()

    def test_non_square_transformation_refused(self):
        # The views are the examples themselves, so a matrix with more view
        # columns than source rows is refused by name, not by broadcasting.
        population = Population(
            classes=(0, 1),
            domains=(0,),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 1),
                Cell(1, 0, Membership.LABELED_ID, 1),
                Cell(0, 0, Membership.WILD_ID, 1),
            ),
        )
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
        population = Population(
            classes=(0,),
            domains=(0,),
            cells=(Cell(0, 0, Membership.WILD_ID, 4),),
        )
        population, model = build_parametric_population(population, ParametricAugmentation(1, 0.1, 0.1, 0.1))
        np.testing.assert_array_equal(supervised_adjacency(model, population), np.zeros((4, 4)))

    def test_two_labeled_per_class_against_pair_loop(self):
        cells = Population(
            classes=(0, 1),
            domains=(0, 1),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 2),
                Cell(1, 0, Membership.LABELED_ID, 2),
                Cell(0, 1, Membership.WILD_COVARIATE, 2),
            ),
        )
        population, model = build_parametric_population(
            cells, ParametricAugmentation(1.0, 0.3, 0.2, 0.05)
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
        a_l = supervised_adjacency(ParametricAugmentation(1.0, 0.3, 0.2, 0.05), cells)
        e = np.repeat(np.eye(3), 2, axis=0)  # examples by cells
        np.testing.assert_allclose(e @ a_l @ e.T, brute, atol=1e-13)


class TestCombineAndNormalize:
    """``build_graph``'s combination and normalization, on explicit matrices."""

    def test_first_order_structure_at_small_ratios(self):
        ap, bp = 1e-3, 5e-4
        bundle, _ = toy_bundle(TheoryVariant.CASE_A, 1.0, ap, bp, 1e-9)
        c_hat = 7 + 12 * bp + 12 * ap
        first_row = np.array([2.0, 4 * bp, 3 * ap, 0.0, 0.0])
        np.testing.assert_allclose(c_hat * combined_adjacency(bundle)[0], first_row, atol=5e-6)

    def test_entry_sum_is_one(self, case_a_bundle):
        # the vertex expansion's entries sum to one, and so do its degrees
        bundle, _ = case_a_bundle
        assert abs(combined_adjacency(bundle).sum() - 1.0) <= 1e-12
        assert abs(np.sum(bundle.counts * bundle.D_g) - 1.0) <= 1e-12

    def test_zero_supervised_part_leaves_direction(self):
        # Without labeled examples A_l is zero, whatever its weight.
        population = Population(classes=(0,), domains=(0, 1), cells=(
            Cell(0, 0, Membership.WILD_ID, 3), Cell(0, 1, Membership.WILD_COVARIATE, 2),
            Cell(1, 1, Membership.WILD_SEMANTIC, 1),
        ))
        model = ExplicitAugmentation(np.random.default_rng(3).uniform(0.0, 1.0, size=(6, 6)))
        a_u = self_supervised_adjacency(model, population.examples())
        bundle = build_graph(model, population, GraphWeights(2.0, 3.0))
        np.testing.assert_allclose(combined_adjacency(bundle), a_u / a_u.sum(), atol=1e-15)

    def test_random_symmetric_normalization_oracle(self):
        population, _ = readme_matrix()
        t = np.random.default_rng(5).uniform(0.01, 1.0, size=(len(population),) * 2)
        bundle = build_graph(ExplicitAugmentation(t), population, GraphWeights(1.0, 0.0))
        np.testing.assert_allclose(np.sum(bundle.counts * bundle.D_g), 1.0, atol=1e-12)
        np.testing.assert_allclose(bundle.D_g, combined_adjacency(bundle).sum(axis=1), atol=1e-15)
        lam = np.linalg.eigvalsh(bundle.A_tilde)
        assert lam.min() >= -1.0 - 1e-10
        assert lam.max() <= 1.0 + 1e-10

    def test_weight_rescaling_is_absorbed(self, toy_a):
        population, model = toy_a
        explicit = ExplicitAugmentation(transformation_matrix(model, population))
        base = build_graph(explicit, population, GraphWeights(5.0, 1.0))
        scaled = build_graph(explicit, population, GraphWeights(35.0, 7.0))
        np.testing.assert_allclose(combined_adjacency(scaled), combined_adjacency(base), atol=1e-14)
        np.testing.assert_allclose(scaled.D_g, base.D_g, atol=1e-14)
        np.testing.assert_allclose(scaled.A_tilde, base.A_tilde, atol=1e-14)

    def test_normalized_adjacency_ignores_global_scale(self, toy_a):
        # T scaled by sqrt(13) scales both adjacencies by 13.
        population, model = toy_a
        t = transformation_matrix(model, population)
        weights = GraphWeights(5.0, 1.0)
        base = build_graph(ExplicitAugmentation(t), population, weights)
        rescaled = build_graph(ExplicitAugmentation(math.sqrt(13.0) * t), population, weights)
        np.testing.assert_allclose(rescaled.A_u_g, 13.0 * base.A_u_g, rtol=1e-14)
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
        # A view no source reaches has no edge at all.
        population, t = readme_matrix()
        t[:, 9] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IsolatedVertexError, match="^vertex 9 has zero degree$"):
                build_graph(ExplicitAugmentation(t), population, GraphWeights(5.0, 1.0))

    # a transformation matrix over the README's examples: products that
    # overflow; finite adjacencies whose total overflows; and a subnormal
    # degree whose square underflows to zero
    @pytest.mark.parametrize(
        "a, message",
        [
            (np.full((34, 34), 1e200), "total weight overflows float64"),
            (np.full((34, 34), 1e153), "total weight overflows float64"),
            (subnormal_degree(), "normalized adjacency has non-finite entries"),
        ],
    )
    def test_overflow_named_without_numpy_warnings(self, a, message):
        population, _ = readme_matrix()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=message):
                build_graph(ExplicitAugmentation(a), population, GraphWeights(5.0, 1.0))

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

        population, parametric = toy_a
        expansions = []
        real = graph_module.transformation_matrix

        def counting(model, pop):
            expansions.append(isinstance(model, ParametricAugmentation))
            return real(model, pop)

        monkeypatch.setattr(graph_module, "transformation_matrix", counting)
        weights = GraphWeights(5.0, 1.0)
        bundle = build_graph(ParametricAugmentation(RHO, ALPHA, BETA, GAMMA), population, weights)
        assert expansions.count(True) == 1
        explicit = ExplicitAugmentation(transformation_matrix(parametric, population))
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

    def test_huge_populations_refused_without_a_row_per_example(self):
        # Expanding 2**40 examples, or mapping each to its row, would not fit
        # in memory: the matrix's size is checked first, and the isolated
        # vertex is found by walking the cells.
        population, model, _ = load_population_config(HUGE_MATRIX_CONFIG)
        with pytest.raises(PopulationError, match="^transformation matrix has 4 source rows for a "
                           "population of 1099511627779 examples$"):
            build_graph(model, population, STANDARD_WEIGHTS)
        population, model, _ = load_population_config(isolated_class_config(2**40))
        with pytest.raises(IsolatedVertexError, match="^vertex 1099511627776 has zero degree$"):
            build_graph(model, population, STANDARD_WEIGHTS)

    def test_stack_of_models_matches_each_model(self, toy_a):
        # Array-valued parameters build one graph per entry, each equal to
        # the graph of that entry's own model.
        population, _ = toy_a
        alphas, betas = np.array([0.05, 0.2, 0.1]), np.array([0.1, 0.1, 0.02])
        weights = GraphWeights(5.0, 1.0)
        stack = build_graph(ParametricAugmentation(RHO, alphas, betas, GAMMA), population, weights)
        assert stack.A_tilde.shape == (3, 5, 5)
        for i, (a, b) in enumerate(zip(alphas, betas)):
            one = build_graph(ParametricAugmentation(RHO, a, b, GAMMA), population, weights)
            for name in ("A_u_g", "A_l_g", "D_g", "A_tilde_g", "A_tilde"):
                np.testing.assert_array_equal(getattr(stack, name)[i], getattr(one, name))
            np.testing.assert_array_equal(combined_adjacency(stack)[i], combined_adjacency(one))


KEYS = (
    (0, 0, Membership.LABELED_ID), (1, 0, Membership.LABELED_ID), (0, 0, Membership.WILD_ID),
    (0, 1, Membership.WILD_COVARIATE), (1, 1, Membership.WILD_COVARIATE),
    (2, 1, Membership.WILD_SEMANTIC),
)
RATES = st.floats(0.01, 1.0)


@st.composite
def graph_inputs(draw):
    """A population of up to 96 examples, its first cell labeled, and a model over it.

    The model is an explicit matrix, a parametric model or a stack of three.
    """
    keys = [KEYS[0]] + draw(st.lists(st.sampled_from(KEYS), max_size=7))
    cells = tuple(Cell(*key, draw(st.integers(1, 12))) for key in keys)
    population = Population(classes=(0, 1), domains=(0, 1), cells=cells)
    kind = draw(st.sampled_from(["explicit", "parametric", "stacked"]))
    if kind == "explicit":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return population, ExplicitAugmentation(rng.uniform(0.01, 1.0, size=(len(population),) * 2))
    rates = RATES if kind == "parametric" else st.lists(RATES, min_size=3, max_size=3).map(np.array)
    return population, ParametricAugmentation(*(draw(rates) for _ in range(4)))


class TestExactSymmetry:
    @settings(max_examples=150, deadline=None)
    @given(graph_inputs())
    def test_adjacencies_equal_their_transposes_bit_for_bit(self, inputs):
        # By construction, with no symmetrization: A_u = (sqrt n T)^t (sqrt n T),
        # A_l a sum of outer products, and each normalization divides (i, j)
        # and (j, i) by one product.
        population, model = inputs
        bundle = build_graph(model, population, STANDARD_WEIGHTS)
        arrays = {name: getattr(bundle, name) for name in ("A_u_g", "A_l_g", "A_tilde_g")}
        arrays["combined"] = combined_adjacency(bundle)
        for name, a in arrays.items():
            assert a.tobytes() == np.swapaxes(a, -1, -2).tobytes(), name


class TestSupervisedClassAxis:
    @settings(max_examples=150, deadline=None)
    @given(graph_inputs())
    def test_equals_the_per_class_loop(self, inputs):
        # Bit for bit: over merged cells, where each class has one labeled
        # row, and over unmerged cells and examples, where a class has
        # several labeled rows weighed by their counts.
        population, model = inputs
        if isinstance(model, ExplicitAugmentation):
            layouts = [population.examples()]
        else:
            layouts = [population, population.groups()]
        for rows in layouts:
            t = transformation_matrix(model, rows)
            a_l = supervised_adjacency(t, rows)
            assert a_l.tobytes() == supervised_per_class(t, rows).tobytes()


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
