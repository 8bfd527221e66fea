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
    self_supervised_adjacency,
    supervised_adjacency,
    surrogate_loss_from_parts,
    transformation_matrix,
)
from wildgraph.population import mixture_counts


def supervised_per_class(t: np.ndarray, population: Population) -> np.ndarray:
    """A_l over ``population``'s rows of T, one class at a time.

    Each known class with labeled examples adds the outer product of its
    count-weighted mean row to an accumulator, in class order.
    """
    n = population.counts()
    labeled = np.array([c.membership is Membership.LABELED_ID for c in population.cells])
    label = np.array([c.class_label for c in population.cells])
    out = np.zeros(t.shape[:-2] + (t.shape[-1], t.shape[-1]))
    for cls in sorted(set(label[labeled].tolist())):
        rows = np.flatnonzero(labeled & (label == cls))
        w = n[rows] // np.gcd.reduce(n[rows])
        mu = (t[..., rows, :] * w[:, None]).sum(axis=-2) / w.sum()
        out += mu[..., :, None] * mu[..., None, :]
    return out


def split(population: Population) -> Population:
    """The same examples as count-1 cells, in vertex order."""
    cells = tuple(one for c in population.cells for one in (replace(c, count=1),) * c.count)
    return Population(population.classes, population.domains, cells)


def build_parametric_population(
    population: Population, params: ParametricAugmentation
) -> tuple[Population, ExplicitAugmentation]:
    """The population's examples as count-1 cells, with the four-parameter rule expanded over them."""
    population = split(population)
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


def sample_per_example(population: Population, pi_c: float, pi_s: float, seed: int) -> Population:
    """The wild mixture drawn one example at a time, as a count-1 cell each.

    The memberships fixed by ``mixture_counts`` are shuffled, and each
    example then takes the class and domain of one of the population's
    cells of its membership, drawn with probability proportional to the
    cell's count; wild-ID examples draw from the labeled cells when there
    is no wild-ID cell.
    """
    rng = np.random.default_rng(seed)
    laws = {kind: [c for c in population.cells if c.membership is kind] for kind in Membership}
    laws[Membership.WILD_ID] = laws[Membership.WILD_ID] or laws[Membership.LABELED_ID]
    total_wild = sum(c.count for c in population.cells if c.membership is not Membership.LABELED_ID)
    m_c, m_s, m_id = mixture_counts(total_wild, pi_c, pi_s)
    memberships = (
        [Membership.WILD_COVARIATE] * m_c
        + [Membership.WILD_SEMANTIC] * m_s
        + [Membership.WILD_ID] * m_id
    )
    cells = list(laws[Membership.LABELED_ID])
    for pos in rng.permutation(total_wild):
        kind = memberships[pos]
        counts = np.array([c.count for c in laws[kind]])
        law = laws[kind][rng.choice(counts.size, p=counts / counts.sum())]
        cells.append(Cell(law.class_label, law.domain_label, kind, 1))
    return Population(population.classes, population.domains, tuple(cells))
