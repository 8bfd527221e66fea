import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgraph import (
    Cell,
    Membership,
    ParametricAugmentation,
    Population,
    PopulationError,
    PopulationSpec,
    TheoryVariant,
    build_graph,
    build_toy_population,
    enumerate_population,
    load_population_config,
    sample_wild_mixture,
    transformation_matrix,
)
import wildgraph
from wildgraph.population import mixture_counts
from conftest import STANDARD_WEIGHTS
from vertex_level import build_parametric_population, split


class TestToyPopulation:
    def test_case_a_first_row(self):
        rho, alpha, beta, gamma = 0.9, 0.2, 0.1, 0.05
        _, model = build_toy_population(TheoryVariant.CASE_A, rho, alpha, beta, gamma)
        np.testing.assert_allclose(model.matrix[0], [rho, beta, alpha, gamma, gamma])

    def test_case_b_third_row(self):
        rho, alpha, beta, gamma = 0.9, 0.2, 0.1, 0.05
        _, model = build_toy_population(TheoryVariant.CASE_B, rho, alpha, beta, gamma)
        np.testing.assert_allclose(model.matrix[2], [alpha, gamma, rho, beta, beta])

    def test_all_cross_probabilities_zero_gives_diagonal(self):
        _, model = build_toy_population(TheoryVariant.CASE_A, 0.7, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(model.matrix, 0.7 * np.eye(5))

    def test_ordering_and_memberships(self):
        population, _ = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.1, 0.1, 0.01)
        assert [cell.count for cell in population.cells] == [1] * 5
        kinds = [cell.membership for cell in population.cells]
        assert kinds == [
            Membership.LABELED_ID,
            Membership.LABELED_ID,
            Membership.WILD_COVARIATE,
            Membership.WILD_COVARIATE,
            Membership.WILD_SEMANTIC,
        ]
        assert population.cells[4].class_label not in population.classes

    def test_case_b_shares_covariate_domain(self):
        pop_a, _ = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.1, 0.1, 0.01)
        pop_b, _ = build_toy_population(TheoryVariant.CASE_B, 1.0, 0.1, 0.1, 0.01)
        assert pop_a.cells[4].domain_label not in (0, 1)
        assert pop_b.cells[4].domain_label == pop_b.cells[2].domain_label


TOY_SPEC = PopulationSpec(
    classes=(0, 1),
    domains=(0, 1, 2),
    cells=(
        Cell(0, 0, Membership.LABELED_ID, 1),
        Cell(1, 0, Membership.LABELED_ID, 1),
        Cell(0, 1, Membership.WILD_COVARIATE, 1),
        Cell(1, 1, Membership.WILD_COVARIATE, 1),
        Cell(2, 2, Membership.WILD_SEMANTIC, 1),
    ),
)


class TestParametricPopulation:
    def test_reduces_to_toy(self):
        params = ParametricAugmentation(1.0, 0.3, 0.2, 0.1)
        _, model = build_parametric_population(TOY_SPEC, params)
        _, toy_model = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.3, 0.2, 0.1)
        np.testing.assert_array_equal(model.matrix, toy_model.matrix)

    def test_13_node_grid_against_entrywise_rule(self):
        cells = []
        for cls in (0, 1):
            for dom in (0, 1):
                member = Membership.LABELED_ID if dom == 0 else Membership.WILD_COVARIATE
                cells.append(Cell(cls, dom, member, 3))
        cells.append(Cell(5, 2, Membership.WILD_SEMANTIC, 1))
        spec = PopulationSpec(classes=(0, 1), domains=(0, 1, 2), cells=tuple(cells))
        params = ParametricAugmentation(1.0, 0.25, 0.15, 0.05)
        population, model = build_parametric_population(spec, params)
        assert model.matrix.shape == (13, 13)
        cls = [cell.class_label for cell in population.cells]
        dom = [cell.domain_label for cell in population.cells]
        for i in range(13):
            for j in range(13):
                if cls[i] == cls[j] and dom[i] == dom[j]:
                    expected = params.rho
                elif cls[i] == cls[j]:
                    expected = params.alpha
                elif dom[i] == dom[j]:
                    expected = params.beta
                else:
                    expected = params.gamma
                assert model.matrix[i, j] == expected

    def test_empty_classes_rejected(self):
        with pytest.raises(PopulationError):
            PopulationSpec(classes=(), domains=(0,), cells=())

    def test_empty_domains_rejected(self):
        with pytest.raises(PopulationError):
            PopulationSpec(classes=(0,), domains=(), cells=())

    def test_matrix_symmetric_and_four_valued(self):
        params = ParametricAugmentation(0.8, 0.3, 0.2, 0.1)
        _, model = build_parametric_population(TOY_SPEC, params)
        np.testing.assert_array_equal(model.matrix, model.matrix.T)
        assert set(np.unique(model.matrix)) <= {0.8, 0.3, 0.2, 0.1}


class TestAugmentationValidation:
    def test_negative_parameter_rejected(self):
        with pytest.raises(PopulationError):
            ParametricAugmentation(1.0, -0.1, 0.05, 0.0)

    def test_lax_mode_allows_any_nonnegative(self):
        ParametricAugmentation(0.1, 0.5, 0.9, 0.2)


def one_cell(class_label, domain_label, membership, count=1):
    cell = Cell(class_label, domain_label, membership, count)
    return dict(classes=(0,), domains=(0, 1), cells=(cell,))


# The remaining rules of the one cell validator, each broken once.
BROKEN_LAYOUTS = {
    "wild_id_outside_id_domain": one_cell(0, 1, Membership.WILD_ID),
    "unknown_domain": one_cell(0, 5, Membership.WILD_COVARIATE),
    "zero_count": one_cell(0, 0, Membership.LABELED_ID, count=0),
    "negative_count": one_cell(0, 0, Membership.LABELED_ID, count=-2),
    "no_cells": dict(classes=(0,), domains=(0,), cells=()),
    "no_classes": dict(classes=(), domains=(0,), cells=(Cell(0, 0, Membership.LABELED_ID, 1),)),
    "no_domains": dict(classes=(0,), domains=(), cells=(Cell(0, 0, Membership.LABELED_ID, 1),)),
    "duplicate_classes": dict(
        classes=(0, 0), domains=(0,), cells=(Cell(0, 0, Membership.LABELED_ID, 1),)
    ),
    "duplicate_domains": dict(
        classes=(0,), domains=(0, 0), cells=(Cell(0, 0, Membership.LABELED_ID, 1),)
    ),
}


def assert_rejected_by_population_and_spec(layout):
    for kind in (Population, PopulationSpec):
        with pytest.raises(PopulationError):
            kind(**layout)


class TestPopulationInvariants:
    def test_semantic_must_be_novel(self):
        assert_rejected_by_population_and_spec(one_cell(0, 0, Membership.WILD_SEMANTIC))

    def test_novel_must_be_semantic(self):
        assert_rejected_by_population_and_spec(one_cell(7, 0, Membership.WILD_ID))

    def test_labeled_must_live_in_id_domain(self):
        assert_rejected_by_population_and_spec(one_cell(0, 1, Membership.LABELED_ID))

    @pytest.mark.parametrize("layout", list(BROKEN_LAYOUTS))
    def test_population_and_spec_share_one_rule_set(self, layout):
        assert_rejected_by_population_and_spec(BROKEN_LAYOUTS[layout])

    def test_vertices_are_numbered_by_position(self):
        population = Population(
            classes=(0,),
            domains=(0, 1),
            cells=(Cell(0, 1, Membership.WILD_COVARIATE, 2), Cell(0, 0, Membership.LABELED_ID, 1)),
        )
        assert len(population) == 3
        # a row per example, in vertex order, or a row per cell with its count
        for rows, cells, counts in ((3, [0, 0, 1], [1, 1, 1]), (2, [0, 1], [2, 1])):
            assert [a.tolist() for a in population.rows(rows)] == [cells, counts]
        with pytest.raises(PopulationError, match="4 matrix rows"):
            population.rows(4)

    def test_population_keeps_no_per_example_array(self):
        # Each count is stored once, on its cell: the three fields are all
        # a population holds, and they cannot be rebound.
        population, _ = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.1, 0.1, 0.01)
        assert vars(population).keys() == {"classes", "domains", "cells"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            population.cells = ()


KINDS = list(Membership)


@st.composite
def valid_layouts(draw):
    """Random cells that obey the rule set, as (classes, domains, cells)."""
    classes = tuple(range(draw(st.integers(1, 3))))
    domains = tuple(range(draw(st.integers(1, 3))))
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(KINDS))
        if kind is Membership.WILD_SEMANTIC:
            cls = draw(st.integers(len(classes), len(classes) + 2))
        else:
            cls = draw(st.sampled_from(classes))
        if kind in (Membership.LABELED_ID, Membership.WILD_ID):
            dom = domains[0]
        else:
            dom = draw(st.sampled_from(domains))
        cells.append(Cell(cls, dom, kind, draw(st.integers(1, 4))))
    return classes, domains, tuple(cells)


class TestCellExpansion:
    @settings(max_examples=150, deadline=None)
    @given(valid_layouts())
    def test_vertex_arrays_match_per_example_expansion(self, layout):
        classes, domains, cells = layout
        population = Population(classes=classes, domains=domains, cells=cells)
        expanded = [
            (cell.class_label, cell.domain_label, cell.membership)
            for cell in cells
            for _ in range(cell.count)
        ]
        n = len(expanded)
        assert len(population) == n
        # one row per example: the example's cell, standing for one
        cell, counts = population.rows(n)
        key = lambda c: (c.class_label, c.domain_label, c.membership)  # noqa: E731
        assert [key(population.cells[i]) for i in cell] == expanded
        assert counts.tolist() == [1] * n
        assert [key(c) for c in split(population).cells] == expanded
        if n != len(cells):  # one row per cell, standing for its count
            cell, counts = population.rows(len(cells))
            assert cell.tolist() == list(range(len(cells)))
            assert counts.tolist() == [c.count for c in cells]
        assert enumerate_population(PopulationSpec(classes, domains, cells)) == population


WILD_SPEC = PopulationSpec(
    classes=(0, 1),
    domains=(0, 1),
    cells=(
        Cell(0, 0, Membership.LABELED_ID, 4),
        Cell(1, 0, Membership.LABELED_ID, 4),
        Cell(0, 0, Membership.WILD_ID, 100),
    ),
    pi_c=0.5,
    pi_s=0.1,
)


class TestWildMixture:
    def test_reference_mixture_counts(self):
        population = sample_wild_mixture(WILD_SPEC, seed=3)
        wild = population.cells[2:]
        assert len(wild) == 100
        assert all(cell.count == 1 for cell in wild)
        counts = {
            kind: sum(1 for cell in wild if cell.membership is kind)
            for kind in (Membership.WILD_COVARIATE, Membership.WILD_SEMANTIC, Membership.WILD_ID)
        }
        assert counts[Membership.WILD_COVARIATE] == 50
        assert counts[Membership.WILD_SEMANTIC] == 10
        assert counts[Membership.WILD_ID] == 40

    def test_seeded_sequences_are_pinned(self):
        # Recorded before populations were stored as cells; any change to the
        # order of the sampler's RNG calls changes these strings.
        population = split(sample_wild_mixture(WILD_SPEC, seed=3))
        letter = {
            Membership.LABELED_ID: "L",
            Membership.WILD_ID: "I",
            Membership.WILD_COVARIATE: "C",
            Membership.WILD_SEMANTIC: "S",
        }
        memberships = [letter[cell.membership] for cell in population.cells]
        assert "".join(str(cell.class_label) for cell in population.cells) == (
            "000011111101101000001011000000012111102011111002110010112101011000120210"
            "111100101100011010010020012000200201"
        )
        assert "".join(str(cell.domain_label) for cell in population.cells) == (
            "000000000111110100100101111011011011001011100111011011001010111000111101"
            "000000010111000100111110111111110111"
        )
        assert "".join(memberships) == (
            "LLLLLLLLICCCCCICIICIICICCCCICCICSICCIISICCCIICCSICCICCIISICICCCIIICSCSIC"
            "IIIIIIICICCCIIICIICCCCSICCSCCCSCISCC"
        )

    def test_zero_fractions_give_all_wild_id(self):
        spec = PopulationSpec(
            classes=(0,),
            domains=(0,),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 2),
                Cell(0, 0, Membership.WILD_ID, 30),
            ),
        )
        population = split(sample_wild_mixture(spec, seed=0))
        wild_id = [i for i, c in enumerate(population.cells) if c.membership is Membership.WILD_ID]
        assert wild_id == list(range(2, 32))

    def test_same_seed_reproduces_population(self):
        assert sample_wild_mixture(WILD_SPEC, seed=11) == sample_wild_mixture(WILD_SPEC, seed=11)

    def test_different_seed_changes_population(self):
        assert sample_wild_mixture(WILD_SPEC, seed=1) != sample_wild_mixture(WILD_SPEC, seed=2)

    def test_overflowing_fractions_rejected(self):
        with pytest.raises(PopulationError):
            PopulationSpec(
                classes=(0,),
                domains=(0, 1),
                cells=(Cell(0, 0, Membership.WILD_ID, 10),),
                pi_c=0.7,
                pi_s=0.4,
            )

    @pytest.mark.parametrize("m", [1, 3, 7, 10, 33, 101])
    def test_fractions_within_one_example(self, m):
        m_c, m_s, m_id = mixture_counts(m, 0.5, 0.1)
        assert abs(m_c - 0.5 * m) <= 0.5
        assert abs(m_s - 0.1 * m) <= 0.5
        assert m_c + m_s + m_id == m

    def test_half_tie_goes_to_covariate(self):
        # 0.5 * 3 = 1.5 rounds up for covariate, 0.5 * 3 = 1.5 rounds down for semantic
        m_c, m_s, _ = mixture_counts(3, 0.5, 0.5)
        assert (m_c, m_s) == (2, 1)


class TestGroups:
    @settings(max_examples=150, deadline=None)
    @given(valid_layouts())
    def test_groups_merge_equal_cells_in_order_of_first_appearance(self, layout):
        classes, domains, cells = layout
        population = Population(classes=classes, domains=domains, cells=cells)
        groups = population.groups()
        keys = [(c.class_label, c.domain_label, c.membership) for c in cells]
        distinct = list(dict.fromkeys(keys))
        merged = groups.cells
        assert [(c.class_label, c.domain_label, c.membership) for c in merged] == distinct
        # the merged cells carry the summed counts
        assert [c.count for c in merged] == [
            sum(c.count for c, key in zip(cells, keys) if key == want) for want in distinct
        ]
        assert len(groups) == len(population)
        assert groups.classes == classes and groups.domains == domains
        assert groups.groups() == groups

    def test_sampled_mixture_cells_merge(self):
        population = sample_wild_mixture(WILD_SPEC, seed=3)
        groups = population.groups()
        # two labeled cells, wild-ID of two classes, covariate of two classes, one semantic
        assert len(groups.cells) == 7
        assert len(groups) == len(population)
        # the graph's rows are the merged cells, and each example maps to its own
        bundle = build_graph(ParametricAugmentation(1.0, 0.1, 0.05, 0.01), population, STANDARD_WEIGHTS)
        assert bundle.groups == groups
        row_class = np.array([c.class_label for c in groups.cells])
        np.testing.assert_array_equal(
            row_class[bundle.vertex_rows()], [c.class_label for c in split(population).cells]
        )


class TestConfigLoading:
    CONFIG = {
        "classes": [0, 1],
        "domains": [0, 1, 2],
        "cells": [
            {"class": 0, "domain": 0, "membership": "labeled_id", "count": 1},
            {"class": 1, "domain": 0, "membership": "labeled_id", "count": 1},
            {"class": 0, "domain": 1, "membership": "wild_covariate", "count": 1},
            {"class": 1, "domain": 1, "membership": "wild_covariate", "count": 1},
            {"class": 2, "domain": 2, "membership": "wild_semantic", "count": 1},
        ],
        "augmentation": {"rho": 1.0, "alpha": 0.3, "beta": 0.2, "gamma": 0.1},
        "pi_c": 0.0,
        "pi_s": 0.0,
    }

    def test_round_trip_matches_toy(self, tmp_path):
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(self.CONFIG))
        spec, model = load_population_config(path)
        population, explicit = build_parametric_population(spec, model)
        _, toy_model = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.3, 0.2, 0.1)
        np.testing.assert_array_equal(explicit.matrix, toy_model.matrix)

    def test_explicit_matrix_alternative(self):
        config = dict(self.CONFIG)
        del config["augmentation"]
        config["augmentation_matrix"] = np.eye(5).tolist()
        _, model = load_population_config(config)
        np.testing.assert_array_equal(model.matrix, np.eye(5))

    def test_missing_key_names_offender(self):
        config = {k: v for k, v in self.CONFIG.items() if k != "cells"}
        with pytest.raises(PopulationError, match="cells"):
            load_population_config(config)

    def test_bad_membership_rejected(self):
        config = json.loads(json.dumps(self.CONFIG))
        config["cells"][0]["membership"] = "mystery"
        with pytest.raises(PopulationError):
            load_population_config(config)

    def test_explicit_matrix_must_match_population(self):
        config = dict(self.CONFIG)
        del config["augmentation"]
        config["augmentation_matrix"] = np.eye(4).tolist()
        spec, model = load_population_config(config)
        with pytest.raises(PopulationError):
            transformation_matrix(model, enumerate_population(spec))


# A module-level ``typing.Union[...]`` alias is memoised in typing's LRU
# cache, which then holds the module's classes, and through them every
# function and the module dict of each earlier import of the package.
# Names of theory and loss load on first use; one is touched first, so that
# neither the loader nor the module it imported pins the old package.
REIMPORT_SCRIPT = """
import gc, sys, weakref
import wildgraph
ref = weakref.ref(wildgraph.population.Population)
lazy_ref = weakref.ref(wildgraph.ReducedParams)
for name in [n for n in sys.modules if n == "wildgraph" or n.startswith("wildgraph.")]:
    del sys.modules[name]
import wildgraph
gc.collect()
sys.exit(0 if ref() is None and lazy_ref() is None else 1)
"""


def test_reimport_releases_the_old_module():
    src = str(Path(wildgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", REIMPORT_SCRIPT], env=env, timeout=120)
    assert done.returncode == 0, "an earlier import of wildgraph stays reachable after re-import"
