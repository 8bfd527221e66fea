"""Adjacency assembly: self-supervised, supervised, combined, normalized.

Edge weights come from two sources.  The self-supervised weight of a view
pair is the chance that both views were produced by one natural example
drawn uniformly from the population.  The supervised weight couples views
produced by labeled examples of the same known class, with each class
contributing through the empirical mean of its labeled rows.  The combined
adjacency is scaled by a single global constant so its entries sum to one,
degrees are its row sums, and the normalized adjacency divides each entry
by the square root of both endpoint degrees.

Every graph is built over cells, one row per cell, weighed by its count:
under the four-parameter rule the merged cells (:meth:`Population.groups`),
whose examples have identical rows in every adjacency, and under an
explicit matrix, whose rows are arbitrary, one count-1 cell per example
(:meth:`Population.examples`).  With the cells' counts n and T expanded
over one example per cell, A_u = T^t diag(n) T / N, each labeled class is
one cell whose row is its mean, C = n^t raw n and D = raw n / C.  Every
array is exactly symmetric by construction: A_u is (sqrt(n) T)^t
(sqrt(n) T), A_l a sum of outer products, and each normalization divides
entries (i, j) and (j, i) by one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .population import (
    AugmentationModel,
    Membership,
    ParametricAugmentation,
    Population,
    _check_source_rows,
    transformation_matrix,
)

__all__ = [
    "GraphWeights",
    "GraphBundle",
    "GraphError",
    "IsolatedVertexError",
    "self_supervised_adjacency",
    "supervised_adjacency",
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
    """All adjacency views of one population graph, held over its cells.

    ``population`` is the population the graph was built on, and the rows
    are the cells of ``groups``, each standing for its count of
    interchangeable vertices: under the four-parameter rule its merged
    cells (:meth:`Population.groups`), under an explicit matrix its
    examples, one count-1 cell each (:meth:`Population.examples`).
    Every array ending in ``_g`` has one row (and column) per cell: the
    weight between two single vertices of those cells, or a vertex's
    degree.  ``D_g`` holds the degrees, scaled to sum to one over the
    vertices, and ``A_tilde_g`` the degree-normalized adjacency, which is
    invariant to that scale and to any common rescaling of the two edge
    weights.  ``Q`` is the quotient the graph is solved and factorized on.
    ``A_tilde`` is the one vertex-level view, built on first use.  A bundle
    built from a stack of models carries the same leading axes on every
    array.
    """

    A_u_g: np.ndarray
    A_l_g: np.ndarray
    D_g: np.ndarray
    A_tilde_g: np.ndarray
    weights: GraphWeights
    population: Population
    groups: Population

    def __post_init__(self) -> None:
        for name in ("A_u_g", "A_l_g", "D_g", "A_tilde_g"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def counts(self) -> np.ndarray:
        """The vertices each row stands for, read off ``groups``; read-only."""
        counts = self.groups.counts()
        counts.setflags(write=False)
        return counts

    def vertex_rows(self) -> np.ndarray:
        """The row of each vertex of ``population``, in vertex order.

        An array as long as the population: it serves the vertex-level
        views only.
        """
        rows = self.A_tilde_g.shape[-1]
        if rows == len(self.population):
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
    itself, if it is that matrix), source row a stands for the n[a]
    natural examples of cell a and N is their total; a stack of models
    gives a stack of matrices.
    """
    t = _expanded(model, population)
    n = population.counts()
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
    taken as in :func:`self_supervised_adjacency`.  All class means M are
    taken at once, from a classes-by-slots table of each class's labeled
    rows and their weights, and A_l = sum_c M_c M_c^t is one sum over the
    class axis, in class order.  Without any labeled examples the matrix is
    zero.  Labeled examples live in the ID domain, so over merged cells a
    class's mean is its one labeled cell's row.
    """
    t = _expanded(model, population)
    cells = population.cells
    by_class: dict[int, list[int]] = {}
    for r, c in enumerate(cells):
        if c.membership is Membership.LABELED_ID:
            by_class.setdefault(c.class_label, []).append(r)
    # each class's labeled rows and counts, padded to one width by row 0 at weight 0
    width = max(map(len, by_class.values()), default=0)
    table = [(by_class[cls], [0] * (width - len(by_class[cls]))) for cls in sorted(by_class)]
    shape = (len(table), width)
    rows = np.array([own + pad for own, pad in table], dtype=np.intp).reshape(shape)
    w = np.array([[cells[r].count for r in own] + pad for own, pad in table], dtype=np.int64).reshape(shape)
    # weights in lowest terms, so that equal ones give the plain mean bit for bit
    w //= np.gcd.reduce(w, axis=-1, keepdims=True)
    # summed over each class's rows in order, as a per-class sum is; a BLAS
    # product over all rows reorders the sum and moves the last digits
    mu = (t[..., rows, :] * w[:, :, None]).sum(axis=-2) / w.sum(axis=-1)[:, None]
    # each term, and so the sum, is exactly symmetric
    return (mu[..., :, :, None] * mu[..., :, None, :]).sum(axis=-3)


def build_graph(
    model: AugmentationModel, population: Population, weights: GraphWeights
) -> GraphBundle:
    """Full assembly from an augmentation model and a population."""
    return _build_graph(model, population, weights)


# Overflow is refused by name, so numpy's floating-point warnings are silenced.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _build_graph(
    model: AugmentationModel, population: Population, weights: GraphWeights
) -> GraphBundle:
    """:func:`build_graph` for a model or a stack of models.

    Under a parametric model the population's merged cells
    (:meth:`Population.groups`) are interchangeable, and T is expanded
    once, over one example per merged cell, so no array grows with the
    number of examples.  An explicit matrix's rows are arbitrary: it is
    solved on :meth:`Population.examples`, one count-1 cell per example.
    The two adjacencies are combined and normalized globally, and the
    degrees derived, with every sum over vertices weighing a row by its
    cell's count.  Raises :class:`IsolatedVertexError` if any vertex ends
    up with zero degree, and :class:`GraphError` for weights that overflow
    float64.
    """
    if isinstance(model, ParametricAugmentation):
        groups = population.groups()
    else:
        _check_source_rows(model, population)  # before examples() expands every count
        groups = population.examples()
    t = transformation_matrix(model, groups)
    A_u, A_l = self_supervised_adjacency(t, groups), supervised_adjacency(t, groups)
    n = groups.counts().astype(float)
    raw = weights.eta_u * A_u + weights.eta_l * A_l
    C = (raw * np.outer(n, n)).sum(axis=(-2, -1))
    # a non-finite entry of either part makes C non-finite too
    if not np.isfinite(C).all():
        raise GraphError("the combined adjacency's total weight overflows float64")
    if np.any(C <= 0):
        raise GraphError("combined adjacency has nonpositive total weight")
    A = raw / C[..., None, None]
    D = (A * n).sum(axis=-1)
    A_tilde = A / np.sqrt(D[..., :, None] * D[..., None, :])
    zero = np.argwhere(D <= 0)
    if zero.size:
        raise IsolatedVertexError(f"vertex {_first_vertex(population, groups, zero[0, -1])} has zero degree")
    if not np.isfinite(A_tilde).all():
        raise GraphError("the normalized adjacency has non-finite entries: the weights leave float64's range")
    return GraphBundle(
        A_u_g=A_u, A_l_g=A_l, D_g=D, A_tilde_g=A_tilde, weights=weights, population=population,
        groups=groups,
    )


def _first_vertex(population: Population, groups: Population, row: int) -> int:
    """The first vertex of ``population`` on row ``row`` of its ``groups``, found in O(cells)."""
    if len(groups.cells) == len(population):  # one vertex per row, in vertex order
        return row
    want = groups.cells[row]
    vertex = 0
    for cell in population.cells:
        if (cell.class_label, cell.domain_label, cell.membership) == (
            want.class_label, want.domain_label, want.membership
        ):
            return vertex
        vertex += cell.count
