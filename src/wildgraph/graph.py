"""Adjacency assembly: self-supervised, supervised, combined, normalized.

Edge weights come from two sources.  The self-supervised weight of a view
pair is the chance that both views were produced by one natural example
drawn uniformly from the population.  The supervised weight couples views
produced by labeled examples of the same known class, with each class
contributing through the empirical mean of its labeled rows.  The combined
adjacency is scaled by a single global constant so its entries sum to one,
degrees are its row sums, and the normalized adjacency divides each entry
by the square root of both endpoint degrees.

Under the four-parameter rule, examples that share a class, a domain and a
membership have identical rows in every adjacency, so the graph is built
over the merged cells (:meth:`Population.groups`), one row per cell.  With
the cells' counts n and T expanded over one example per cell,
A_u = T^t diag(n) T / N, each labeled class is one cell whose row is its
mean, C = n^t raw n and D = raw n / C; no array grows with the number of
examples.  An explicit matrix's rows are arbitrary, so it keeps one row
per example (:meth:`Population.rows`) and the same code runs with n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .population import (
    AugmentationModel,
    Membership,
    ParametricAugmentation,
    Population,
    transformation_matrix,
)

__all__ = [
    "GraphWeights",
    "GraphBundle",
    "GraphError",
    "IsolatedVertexError",
    "self_supervised_adjacency",
    "supervised_adjacency",
    "combine_and_normalize",
    "build_graph",
]


class GraphError(ValueError):
    pass


class IsolatedVertexError(GraphError):
    """A vertex has zero degree, so degree normalization is undefined."""


@dataclass(frozen=True)
class GraphWeights:
    """Relative importance of the self-supervised and supervised edges."""

    eta_u: float
    eta_l: float

    def __post_init__(self) -> None:
        for name in ("eta_u", "eta_l"):
            if not math.isfinite(getattr(self, name)):
                raise GraphError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta_u < 0 or self.eta_l < 0:
            raise GraphError(f"edge weights must be nonnegative, got {(self.eta_u, self.eta_l)}")
        if self.eta_u + self.eta_l <= 0:
            raise GraphError("at least one of eta_u, eta_l must be positive")


@dataclass(frozen=True)
class GraphBundle:
    """All adjacency views of one population graph, held over its rows.

    ``population`` is the population the graph was built on, ``None`` for
    bare adjacency matrices.  Under the four-parameter rule the rows are
    the cells of ``groups``, its merged cells, each standing for its count
    of interchangeable vertices; under an explicit matrix they are its
    examples, and ``groups`` is ``population`` itself (:meth:`Population.rows`).
    Every array ending in ``_g`` has one row (and column) per row: the
    weight between two single vertices of those rows, or a vertex's
    degree.  ``A_g`` is globally normalized, so that the entries of its
    vertex expansion sum to one, with ``C`` the raw total that was divided
    out.  ``D_g`` holds the degrees and ``A_tilde_g`` the degree-normalized
    adjacency, which is invariant to both ``C`` and any common rescaling of
    the two edge weights.  ``Q`` is the quotient the graph is solved and
    factorized on.  ``A_tilde`` is the one vertex-level view, built on
    first use.  A bundle built from a stack of models carries the same
    leading axes on every array, ``C`` included.
    """

    A_u_g: np.ndarray
    A_l_g: np.ndarray
    A_g: np.ndarray
    C: float | np.ndarray
    D_g: np.ndarray
    A_tilde_g: np.ndarray
    weights: GraphWeights
    population: Optional[Population]
    groups: Optional[Population]

    def __post_init__(self) -> None:
        for name in ("A_u_g", "A_l_g", "A_g", "D_g", "A_tilde_g"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def counts(self) -> np.ndarray:
        """The vertices each row stands for, read off ``groups``; read-only."""
        rows = self.A_tilde_g.shape[-1]
        counts = np.ones(rows, dtype=int) if self.groups is None else self.groups.rows(rows)[1]
        counts.setflags(write=False)
        return counts

    def vertex_rows(self) -> np.ndarray:
        """The row of each vertex of ``population``, in vertex order.

        An array as long as the population: it serves the vertex-level
        views only.
        """
        rows = self.A_tilde_g.shape[-1]
        if self.population is None or rows == len(self.population):
            return np.arange(rows)
        row_of = {
            (c.class_label, c.domain_label, c.membership): a for a, c in enumerate(self.groups.cells)
        }
        cells = self.population.cells
        return np.repeat(
            [row_of[c.class_label, c.domain_label, c.membership] for c in cells],
            [c.count for c in cells],
        )

    @cached_property
    def A_tilde(self) -> np.ndarray:
        """E A_tilde_g E^t over the vertices, E the vertices-by-rows indicator; read-only."""
        index = self.vertex_rows()
        a_tilde = self.A_tilde_g[..., index[:, None], index]
        a_tilde.setflags(write=False)
        return a_tilde

    @cached_property
    def Q(self) -> np.ndarray:
        """The quotient diag(sqrt n) A_tilde_g diag(sqrt n), n the rows' counts.

        With E the vertices-by-rows indicator, A_tilde = E A_tilde_g E^t,
        and W = E diag(n)^-1/2 has orthonormal columns, so A_tilde = W Q W^t:
        Q has A_tilde's nonzero spectrum, each eigenvector u lifts to W u,
        and F = W H has ||A_tilde - F F^t||_F = ||Q - H H^t||_F.  With
        rows of one vertex each, Q is ``A_tilde_g`` itself.
        """
        counts = self.counts
        if counts.sum() == counts.size:
            return self.A_tilde_g
        root = np.sqrt(counts)
        q = root[:, None] * self.A_tilde_g * root
        q.setflags(write=False)
        return q


def _expanded(model: AugmentationModel | np.ndarray, population: Population) -> np.ndarray:
    """T over ``population``: a model's transformation matrix, or T itself if already expanded."""
    return model if isinstance(model, np.ndarray) else transformation_matrix(model, population)


def self_supervised_adjacency(
    model: AugmentationModel | np.ndarray, population: Population
) -> np.ndarray:
    """Positive-pair weights under a uniform draw of the source example.

    Returns the views-by-views matrix (1/N) T^t diag(n) T, where T is the
    transformation matrix of ``model`` over ``population`` (or ``model``
    itself, if it is that matrix), source row a stands for n[a] natural
    examples (:meth:`Population.rows`) and N is their total; a stack of
    models gives a stack of matrices.
    """
    t = _expanded(model, population)
    _, n = population.rows(t.shape[-2])
    # As (sqrt(n) T)^t (sqrt(n) T): one operand and its transpose, which
    # matmul evaluates as a symmetric product.
    root_t = t * np.sqrt(n)[:, None]
    return np.swapaxes(root_t, -1, -2) @ root_t / n.sum()


def supervised_adjacency(
    model: AugmentationModel | np.ndarray, population: Population
) -> np.ndarray:
    """Same-class positive-pair weights from the labeled examples.

    Each known class with labeled examples contributes the outer product of
    the mean of its labeled examples' rows of T (the empirical per-class
    view distribution), a row weighed by the examples it stands for; T is
    taken as in :func:`self_supervised_adjacency`.  Without any labeled
    examples the matrix is zero.  Labeled examples live in the ID domain,
    so over merged cells a class's mean is its one labeled cell's row.
    """
    t = _expanded(model, population)
    cell, n = population.rows(t.shape[-2])
    labeled = np.array([c.membership is Membership.LABELED_ID for c in population.cells])[cell]
    label = np.array([c.class_label for c in population.cells])[cell]
    out = np.zeros(t.shape[:-2] + (t.shape[-1], t.shape[-1]))
    for cls in sorted(set(label[labeled].tolist())):
        rows = np.flatnonzero(labeled & (label == cls))
        # weights in lowest terms, so that equal ones give the plain mean bit for bit
        w = n[rows] // np.gcd.reduce(n[rows])
        mu = (t[..., rows, :] * w[:, None]).sum(axis=-2) / w.sum()
        out += mu[..., :, None] * mu[..., None, :]
    return out


def combine_and_normalize(
    A_u: np.ndarray, A_l: np.ndarray, weights: GraphWeights
) -> GraphBundle:
    """Combine the two adjacencies, normalize globally, and derive degrees.

    Every vertex is a row of its own.  Raises
    :class:`IsolatedVertexError` if any vertex ends up with zero degree;
    silently dropping it would desynchronize vertex indices.
    """
    A_u = np.asarray(A_u, dtype=float)
    A_l = np.asarray(A_l, dtype=float)
    if A_u.shape != A_l.shape or A_u.ndim != 2 or A_u.shape[0] != A_u.shape[1]:
        raise GraphError(f"adjacency shapes {A_u.shape} and {A_l.shape} are incompatible")
    return _normalize(A_u.copy(), A_l.copy(), weights, None, None)


# Overflow is refused by name, so numpy's floating-point warnings are silenced.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _normalize(
    A_u: np.ndarray,
    A_l: np.ndarray,
    weights: GraphWeights,
    population: Optional[Population],
    groups: Optional[Population],
) -> GraphBundle:
    """:func:`combine_and_normalize` over the rows of ``groups`` and any leading batch axes.

    A row stands for its count of vertices (:meth:`Population.rows`), so
    every sum over vertices weighs it by that count.  Weights that
    overflow float64, here or in the adjacencies passed in, raise
    :class:`GraphError`.
    """
    for name, m in (("A_u", A_u), ("A_l", A_l)):
        if np.max(np.abs(m - np.swapaxes(m, -1, -2)), initial=0.0) > 1e-10:
            raise GraphError(f"{name} is not symmetric")
    rows = A_u.shape[-1]
    n = (np.ones(rows) if groups is None else groups.rows(rows)[1]).astype(float)
    raw = weights.eta_u * A_u + weights.eta_l * A_l
    C = (raw * np.outer(n, n)).sum(axis=(-2, -1))
    # a non-finite entry of either part makes C non-finite too
    if not np.isfinite(C).all():
        raise GraphError("the combined adjacency's total weight overflows float64")
    if np.any(C <= 0):
        raise GraphError("combined adjacency has nonpositive total weight")
    A = raw / C[..., None, None]
    D = (A * n).sum(axis=-1)
    # The check above lets caller matrices be symmetric only to 1e-10, so
    # A_tilde is made exactly symmetric here.
    A_tilde = A / np.sqrt(D[..., :, None] * D[..., None, :])
    A_tilde = 0.5 * (A_tilde + np.swapaxes(A_tilde, -1, -2))
    bundle = GraphBundle(
        A_u_g=A_u, A_l_g=A_l, A_g=A, C=C, D_g=D, A_tilde_g=A_tilde, weights=weights,
        population=population, groups=groups,
    )
    zero = np.argwhere(D <= 0)
    if zero.size:
        vertex = np.argmax(bundle.vertex_rows() == zero[0, -1])
        raise IsolatedVertexError(f"vertex {vertex} has zero degree")
    if not np.isfinite(A_tilde).all():
        raise GraphError("the normalized adjacency has non-finite entries: the weights leave float64's range")
    return bundle


def build_graph(
    model: AugmentationModel, population: Population, weights: GraphWeights
) -> GraphBundle:
    """Full assembly from an augmentation model and a population."""
    return _build_graph(model, population, weights)


# An overflow in T's products is refused by _normalize, by name.
@np.errstate(over="ignore", invalid="ignore")
def _build_graph(
    model: AugmentationModel, population: Population, weights: GraphWeights
) -> GraphBundle:
    """:func:`build_graph` for a model or a stack of models.

    Under a parametric model the population's merged cells
    (:meth:`Population.groups`) are interchangeable, and T is expanded
    once, over one example per merged cell, so no array grows with the
    number of examples.  An explicit matrix's rows are arbitrary: it keeps
    one row per example.
    """
    groups = population.groups() if isinstance(model, ParametricAugmentation) else population
    t = transformation_matrix(model, groups)
    return _normalize(
        self_supervised_adjacency(t, groups),
        supervised_adjacency(t, groups),
        weights,
        population,
        groups,
    )
