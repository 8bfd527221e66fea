"""Vertex-level references for the tests: one count-1 cell per example.

The program keeps every count on its cell and reads one row per cell,
weighed by the cell's count.  These references first split a population
into one count-1 cell per example, in vertex order, and then build the
per-example objects that the cell-level engine must agree with.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from wildgraph import (
    ExplicitAugmentation,
    ParametricAugmentation,
    Population,
    PopulationSpec,
    enumerate_population,
    self_supervised_adjacency,
    supervised_adjacency,
    surrogate_loss_from_parts,
    transformation_matrix,
)


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
