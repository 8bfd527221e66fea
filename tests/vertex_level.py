"""Vertex-level references for the tests: one count-1 cell per example.

The program keeps every count on its cell and reads one row per cell,
weighed by the cell's count.  These references first split a population
into one count-1 cell per example, in vertex order, and then build the
per-example objects that the cell-level engine must agree with.  The wild
mixture's reference draws each wild example on its own.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from wildgraph import (
    Cell,
    ExplicitAugmentation,
    Membership,
    ParametricAugmentation,
    Population,
    PopulationSpec,
    enumerate_population,
    self_supervised_adjacency,
    supervised_adjacency,
    surrogate_loss_from_parts,
    transformation_matrix,
)
from wildgraph.population import mixture_counts


def split(population: Population) -> Population:
    """The same examples as count-1 cells, in vertex order."""
    cells = tuple(one for c in population.cells for one in (replace(c, count=1),) * c.count)
    return Population(population.classes, population.domains, cells)


def build_parametric_population(
    spec: PopulationSpec, params: ParametricAugmentation
) -> tuple[Population, ExplicitAugmentation]:
    """The spec's examples as count-1 cells, with the four-parameter rule expanded over them."""
    population = split(enumerate_population(spec))
    return population, ExplicitAugmentation(transformation_matrix(params, population))


def surrogate_loss(f_rows, model, population, weights):
    """The five sums over one feature row per example, from per-example adjacencies."""
    population = split(population)
    return surrogate_loss_from_parts(
        f_rows,
        self_supervised_adjacency(model, population),
        supervised_adjacency(model, population),
        weights,
    )


def indicator(bundle) -> np.ndarray:
    """The vertices-by-rows indicator E of a bundle, in vertex order."""
    return np.eye(bundle.A_tilde_g.shape[-1])[bundle.vertex_rows()]


def sample_per_example(spec: PopulationSpec, seed: int) -> Population:
    """The wild mixture drawn one example at a time, as a count-1 cell each.

    The memberships fixed by ``mixture_counts`` are shuffled, and each
    example then draws a uniform known class (the one novel class
    ``max(classes) + 1`` if semantic) and, off the ID domain, a uniform
    non-ID domain.
    """
    rng = np.random.default_rng(seed)
    total_wild = sum(c.count for c in spec.cells if c.membership is not Membership.LABELED_ID)
    m_c, m_s, m_id = mixture_counts(total_wild, spec.pi_c, spec.pi_s)
    shifted = spec.domains[1:]
    memberships = (
        [Membership.WILD_COVARIATE] * m_c
        + [Membership.WILD_SEMANTIC] * m_s
        + [Membership.WILD_ID] * m_id
    )
    cells = [c for c in spec.cells if c.membership is Membership.LABELED_ID]
    for pos in rng.permutation(total_wild):
        kind = memberships[pos]
        if kind is Membership.WILD_ID:
            cls, dom = int(rng.choice(spec.classes)), spec.domains[0]
        elif kind is Membership.WILD_COVARIATE:
            cls, dom = int(rng.choice(spec.classes)), int(rng.choice(shifted))
        else:
            cls, dom = max(spec.classes) + 1, int(rng.choice(shifted))
        cells.append(Cell(cls, dom, kind, 1))
    return Population(spec.classes, spec.domains, tuple(cells))
