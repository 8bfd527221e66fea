import dataclasses
import functools
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildgraph import (
    Cell,
    Membership,
    ParametricAugmentation,
    Population,
    PopulationError,
    TheoryVariant,
    build_graph,
    build_toy_population,
    load_population_config,
    sample_wild_mixture,
    transformation_matrix,
)
import wildgraph
from wildgraph.population import mixture_counts
from conftest import STANDARD_WEIGHTS
from test_golden import CASE_A_MIXTURE_CONFIG
from vertex_level import build_parametric_population, sample_per_example, split


class TestToyPopulation:
    def test_case_a_first_row(self):
        rho, alpha, beta, gamma = 0.9, 0.2, 0.1, 0.05
        population, model = build_toy_population(TheoryVariant.CASE_A, rho, alpha, beta, gamma)
        t = transformation_matrix(model, population)
        np.testing.assert_allclose(t[0], [rho, beta, alpha, gamma, gamma])

    def test_case_b_third_row(self):
        rho, alpha, beta, gamma = 0.9, 0.2, 0.1, 0.05
        population, model = build_toy_population(TheoryVariant.CASE_B, rho, alpha, beta, gamma)
        t = transformation_matrix(model, population)
        np.testing.assert_allclose(t[2], [alpha, gamma, rho, beta, beta])

    def test_all_cross_probabilities_zero_gives_diagonal(self):
        population, model = build_toy_population(TheoryVariant.CASE_A, 0.7, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(transformation_matrix(model, population), 0.7 * np.eye(5))

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


TOY_CELLS = Population(
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
        _, model = build_parametric_population(TOY_CELLS, params)
        toy, toy_model = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.3, 0.2, 0.1)
        np.testing.assert_array_equal(model.matrix, transformation_matrix(toy_model, toy))

    def test_13_node_grid_against_entrywise_rule(self):
        cells = []
        for cls in (0, 1):
            for dom in (0, 1):
                member = Membership.LABELED_ID if dom == 0 else Membership.WILD_COVARIATE
                cells.append(Cell(cls, dom, member, 3))
        cells.append(Cell(5, 2, Membership.WILD_SEMANTIC, 1))
        population = Population(classes=(0, 1), domains=(0, 1, 2), cells=tuple(cells))
        params = ParametricAugmentation(1.0, 0.25, 0.15, 0.05)
        population, model = build_parametric_population(population, params)
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
            Population(classes=(), domains=(0,), cells=())

    def test_empty_domains_rejected(self):
        with pytest.raises(PopulationError):
            Population(classes=(0,), domains=(), cells=())

    def test_matrix_symmetric_and_four_valued(self):
        params = ParametricAugmentation(0.8, 0.3, 0.2, 0.1)
        _, model = build_parametric_population(TOY_CELLS, params)
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


def config_of(classes, domains, cells, **fields) -> dict:
    """A JSON population config with these cells under a parametric model."""
    return {
        "classes": list(classes),
        "domains": list(domains),
        "cells": [{"class": c.class_label, "domain": c.domain_label,
                   "membership": c.membership.value, "count": c.count} for c in cells],
        "augmentation": {"rho": 1.0, "alpha": 0.1, "beta": 0.05, "gamma": 0.01},
        **fields,
    }


def assert_rejected_by_population_and_spec(layout):
    # A config (the spec of a population) is loaded through the same rules.
    with pytest.raises(PopulationError):
        Population(**layout)
    with pytest.raises(PopulationError):
        load_population_config(config_of(**layout))


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
        # a count per cell, or a count-1 cell per example, in vertex order
        assert population.counts().tolist() == [2, 1]
        covariate, labeled = Cell(0, 1, Membership.WILD_COVARIATE, 1), Cell(0, 0, Membership.LABELED_ID, 1)
        assert population.examples().cells == (covariate, covariate, labeled)

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
        assert len(population) == len(expanded)
        # one count-1 cell per example, in vertex order, as the reference splits it
        examples = population.examples()
        assert examples == split(population)
        assert [(c.class_label, c.domain_label, c.membership) for c in examples.cells] == expanded
        assert examples.counts().tolist() == [1] * len(expanded)
        assert population.counts().tolist() == [c.count for c in cells]
        loaded, _, fractions = load_population_config(config_of(classes, domains, cells))
        assert loaded == population and fractions == (0.0, 0.0)


# Unequal counts in every wild membership, so that the draws show the
# config's own law: probabilities proportional to the counts.
WILD_CELLS = Population(
    classes=(0, 1),
    domains=(0, 1),
    cells=(
        Cell(0, 0, Membership.LABELED_ID, 4),
        Cell(1, 0, Membership.LABELED_ID, 4),
        Cell(0, 0, Membership.WILD_ID, 20),
        Cell(1, 0, Membership.WILD_ID, 40),
        Cell(0, 1, Membership.WILD_COVARIATE, 10),
        Cell(1, 1, Membership.WILD_COVARIATE, 20),
        Cell(2, 1, Membership.WILD_SEMANTIC, 10),
    ),
)
WILD_FRACTIONS = (0.5, 0.1)


def membership_totals(cells) -> tuple[int, int, int]:
    """The (covariate, semantic, wild-ID) example counts of ``cells``, as ``mixture_counts`` orders them."""
    kinds = (Membership.WILD_COVARIATE, Membership.WILD_SEMANTIC, Membership.WILD_ID)
    return tuple(sum(c.count for c in cells if c.membership is kind) for kind in kinds)


class TestWildMixture:
    def test_reference_mixture_counts(self):
        population = sample_wild_mixture(WILD_CELLS, *WILD_FRACTIONS, seed=3)
        assert population.cells[:2] == WILD_CELLS.cells[:2]
        assert membership_totals(population.cells[2:]) == (50, 10, 40)

    def test_seeded_sequences_are_pinned(self):
        # Recorded when the sampler switched to drawing from the config's own
        # cells; any change to the order of its RNG calls changes them.
        population = sample_wild_mixture(WILD_CELLS, *WILD_FRACTIONS, seed=3)
        assert [(c.class_label, c.domain_label, c.membership.value, c.count)
                for c in population.cells] == [
            (0, 0, "labeled_id", 4), (1, 0, "labeled_id", 4),
            (0, 0, "wild_id", 9), (1, 0, "wild_id", 31),
            (0, 1, "wild_covariate", 14), (1, 1, "wild_covariate", 36),
            (2, 1, "wild_semantic", 10),
        ]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_case_a_draws_stay_in_their_config_domains(self, seed):
        population, _, fractions = load_population_config(CASE_A_MIXTURE_CONFIG)
        sample = sample_wild_mixture(population, *fractions, seed)
        domains = {kind: {c.domain_label for c in sample.cells if c.membership is kind}
                   for kind in Membership}
        assert domains[Membership.WILD_COVARIATE] == {1}
        assert domains[Membership.WILD_SEMANTIC] == {2}
        assert domains[Membership.WILD_ID] == {0}
        assert membership_totals(sample.cells) == (5, 4, 9)

    def test_sampled_cells_keep_the_config_s_novel_classes(self):
        population = Population(
            classes=(0, 1),
            domains=(0, 1, 2),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 3),
                Cell(0, 1, Membership.WILD_COVARIATE, 1),
                Cell(5, 1, Membership.WILD_SEMANTIC, 20),
                Cell(7, 2, Membership.WILD_SEMANTIC, 19),
            ),
        )
        sample = sample_wild_mixture(population, 0.2, 0.6, seed=0)
        semantic = [c for c in sample.cells if c.membership is Membership.WILD_SEMANTIC]
        assert sorted((c.class_label, c.domain_label) for c in semantic) == [(5, 1), (7, 2)]
        assert sum(c.count for c in semantic) == 24

    @pytest.mark.parametrize(
        "cells, pi_c, pi_s, kind",
        [
            ((Cell(0, 0, Membership.LABELED_ID, 2), Cell(0, 0, Membership.WILD_ID, 10)),
             0.3, 0.0, "wild_covariate"),
            ((Cell(0, 0, Membership.LABELED_ID, 2), Cell(0, 1, Membership.WILD_COVARIATE, 10)),
             0.3, 0.2, "wild_semantic"),
            ((Cell(0, 1, Membership.WILD_COVARIATE, 6), Cell(3, 1, Membership.WILD_SEMANTIC, 4)),
             0.3, 0.2, "wild_id"),
        ],
        ids=["no-covariate-cell", "no-semantic-cell", "no-id-cell"],
    )
    def test_a_membership_without_cells_is_refused_by_name(self, cells, pi_c, pi_s, kind):
        population = Population(classes=(0,), domains=(0, 1), cells=cells)
        with pytest.raises(PopulationError, match=f"no {kind} cell"):
            sample_wild_mixture(population, pi_c, pi_s, seed=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
        st.lists(st.integers(1, 40), min_size=1, max_size=4),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    def test_membership_totals_are_the_mixture_counts(
        self, n_classes, n_domains, n_novel, wild, pi_c, pi_s, seed
    ):
        pi_s = min(pi_s, 1.0 - pi_c)
        classes, domains = tuple(range(n_classes)), tuple(range(n_domains))
        cells = [Cell(0, 0, Membership.LABELED_ID, 2)] + [
            Cell(0, 0, Membership.WILD_ID, count) for count in wild
        ]
        shifted = domains[1:]
        cells += [Cell(c, d, Membership.WILD_COVARIATE, 1) for c in classes for d in shifted]
        cells += [Cell(n_classes + j, d, Membership.WILD_SEMANTIC, 1)
                  for j in range(n_novel) for d in shifted]
        total = sum(c.count for c in cells[1:])
        m_c, m_s, m_id = mixture_counts(total, pi_c, pi_s)
        assume(m_c == 0 or shifted)
        assume(m_s == 0 or (shifted and n_novel))
        population = sample_wild_mixture(Population(classes, domains, tuple(cells)), pi_c, pi_s, seed)
        assert population.cells[0] == cells[0]
        assert membership_totals(population.cells[1:]) == (m_c, m_s, m_id)
        # one cell at most per merged config cell, and only where the config has one
        keys = {(c.class_label, c.domain_label, c.membership) for c in cells}
        assert {(c.class_label, c.domain_label, c.membership) for c in population.cells} <= keys
        assert len(population.groups().cells) == len(population.cells)

    def test_zero_fractions_give_all_wild_id(self):
        population = Population(
            classes=(0,),
            domains=(0,),
            cells=(
                Cell(0, 0, Membership.LABELED_ID, 2),
                Cell(0, 0, Membership.WILD_ID, 30),
            ),
        )
        population = split(sample_wild_mixture(population, 0.0, 0.0, seed=0))
        wild_id = [i for i, c in enumerate(population.cells) if c.membership is Membership.WILD_ID]
        assert wild_id == list(range(2, 32))

    def test_same_seed_reproduces_population(self):
        draw = functools.partial(sample_wild_mixture, WILD_CELLS, *WILD_FRACTIONS)
        assert draw(seed=11) == draw(seed=11)

    def test_different_seed_changes_population(self):
        draw = functools.partial(sample_wild_mixture, WILD_CELLS, *WILD_FRACTIONS)
        assert draw(seed=1) != draw(seed=2)

    def test_overflowing_fractions_rejected(self):
        # The sampler and the loader run one fraction check.
        population = Population(classes=(0,), domains=(0, 1), cells=(Cell(0, 0, Membership.WILD_ID, 10),))
        with pytest.raises(PopulationError, match="sum to"):
            sample_wild_mixture(population, 0.7, 0.4, seed=0)
        with pytest.raises(PopulationError, match="sum to"):
            load_population_config(config_of(**vars(population), pi_c=0.7, pi_s=0.4))

    @pytest.mark.parametrize("pi_c, pi_s", [(-0.1, 0.0), (0.0, 1.5), (float("nan"), 0.0)])
    def test_fractions_outside_the_unit_interval_rejected(self, pi_c, pi_s):
        with pytest.raises(PopulationError, match=r"must lie in \[0, 1\]"):
            sample_wild_mixture(WILD_CELLS, pi_c, pi_s, seed=0)

    @pytest.mark.parametrize("m", [1, 3, 7, 10, 33, 101])
    def test_fractions_within_one_example(self, m):
        m_c, m_s, m_id = mixture_counts(m, 0.5, 0.1)
        assert abs(m_c - 0.5 * m) <= 0.5
        assert abs(m_s - 0.1 * m) <= 0.5
        assert m_c + m_s + m_id == m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**62), st.integers(0, 100))
    def test_fractions_summing_to_one_never_refuse(self, m, hundredths):
        # pi_c m and pi_s m, each rounded, may overshoot m: 0.45 and 0.55 of
        # 700 510 do by one, 0.1 and 0.9 of 2**62 by 128.
        pi_c, pi_s = hundredths / 100, (100 - hundredths) / 100
        m_c, m_s, m_id = mixture_counts(m, pi_c, pi_s)
        assert min(m_c, m_s, m_id) >= 0
        assert m_c + m_s + m_id == m

    @pytest.mark.parametrize("m, pi_c, pi_s, m_c", [
        (700_510, 0.45, 0.55, 315_230),  # 0.45 m is 315 229.5, rounded up
        (2**62, 0.1, 0.9, 461_168_601_842_738_816),  # 0.1 as a float, times m
    ])
    def test_overshooting_fractions_cap_semantic(self, m, pi_c, pi_s, m_c):
        # covariate keeps its rounded count, and semantic takes the rest
        assert mixture_counts(m, pi_c, pi_s) == (m_c, m - m_c, 0)

    def test_half_tie_goes_to_covariate(self):
        # 0.5 * 3 = 1.5 rounds up for covariate, 0.5 * 3 = 1.5 rounds down for semantic
        m_c, m_s, _ = mixture_counts(3, 0.5, 0.5)
        assert (m_c, m_s) == (2, 1)


# Unequal cells over three shifted domains, so that the class and domain
# laws both show; no wild-ID cell, so wild-ID draws from the labeled cells.
LAW_CELLS = Population(
    classes=(0, 1),
    domains=(0, 1, 2, 3),
    cells=(
        Cell(0, 0, Membership.LABELED_ID, 2), Cell(1, 0, Membership.LABELED_ID, 6),
        Cell(0, 1, Membership.WILD_COVARIATE, 16), Cell(1, 2, Membership.WILD_COVARIATE, 8),
        Cell(0, 3, Membership.WILD_COVARIATE, 4), Cell(1, 1, Membership.WILD_COVARIATE, 12),
        Cell(2, 3, Membership.WILD_SEMANTIC, 12), Cell(3, 2, Membership.WILD_SEMANTIC, 8),
    ),
)
LAW_FRACTIONS = (0.5, 0.2)
LAW_SEEDS = range(200)
# Over 200 seeds of 60 wild examples the two samplers' key frequencies lie
# 0.010 apart in total variation, against 0.008 on average between two
# independent runs of 200 seeds of one sampler; piling every covariate
# example on one key moves them 0.27 apart.
LAW_TV_BOUND = 0.03


def law_distance(sampler) -> float:
    """Total variation between ``sampler``'s and the per-example sampler's key frequencies."""
    def frequencies(draw):
        tally: Counter = Counter()
        for seed in LAW_SEEDS:
            for c in draw(LAW_CELLS, *LAW_FRACTIONS, seed).cells:
                tally[c.class_label, c.domain_label, c.membership] += c.count
        total = sum(tally.values())
        return {key: n / total for key, n in tally.items()}

    have, want = frequencies(sampler), frequencies(sample_per_example)
    return 0.5 * sum(abs(have.get(key, 0.0) - want.get(key, 0.0)) for key in have.keys() | want.keys())


def one_covariate_key(population, pi_c, pi_s, seed):
    """A wrong sampler: every covariate example on the first covariate key."""
    cells = sample_wild_mixture(population, pi_c, pi_s, seed).cells
    covariate = [c for c in cells if c.membership is Membership.WILD_COVARIATE]
    others = tuple(c for c in cells if c.membership is not Membership.WILD_COVARIATE)
    piled = (replace(covariate[0], count=sum(c.count for c in covariate)),) if covariate else ()
    return Population(population.classes, population.domains, others + piled)


class TestMixtureLaw:
    def test_counts_follow_the_per_example_law(self):
        assert law_distance(sample_wild_mixture) <= LAW_TV_BOUND

    def test_bound_catches_a_misplaced_membership(self):
        assert law_distance(one_covariate_key) > LAW_TV_BOUND


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
        # nothing merges twice, and a population without a repeated key is its own groups
        assert groups.groups() is groups
        assert (groups is population) == (len(distinct) == len(keys))

    def test_sampled_mixture_cells_merge(self):
        population = sample_wild_mixture(WILD_CELLS, *WILD_FRACTIONS, seed=3)
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
        population, model, _ = load_population_config(path)
        population, explicit = build_parametric_population(population, model)
        toy, toy_model = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.3, 0.2, 0.1)
        np.testing.assert_array_equal(explicit.matrix, transformation_matrix(toy_model, toy))

    def test_explicit_matrix_alternative(self):
        config = dict(self.CONFIG)
        del config["augmentation"]
        config["augmentation_matrix"] = np.eye(5).tolist()
        _, model, _ = load_population_config(config)
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

    def test_explicit_matrix_under_a_mixture_refused(self):
        # A mixture redraws the wild cells, which a fixed matrix's rows cannot follow.
        config = {k: v for k, v in self.CONFIG.items() if k != "augmentation"}
        config.update(augmentation_matrix=np.eye(5).tolist(), pi_c=0.3)
        with pytest.raises(PopulationError, match="need a parametric augmentation block"):
            load_population_config(config)

    def test_explicit_matrix_must_match_population(self):
        config = dict(self.CONFIG)
        del config["augmentation"]
        config["augmentation_matrix"] = np.eye(4).tolist()
        population, model, _ = load_population_config(config)
        with pytest.raises(PopulationError):
            transformation_matrix(model, population)


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
