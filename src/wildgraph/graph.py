"""Adjacency assembly: self-supervised, supervised, combined, normalized.

Edge weights come from two sources.  The self-supervised weight of a view
pair is the chance that both views were produced by one natural example
drawn uniformly from the population.  The supervised weight couples views
produced by labeled examples of the same known class, with each class
contributing through the empirical mean of its labeled rows.  The combined
adjacency is scaled by a single global constant so its entries sum to one,
degrees are its row sums, and the normalized adjacency divides each entry
by the square root of both endpoint degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import (
    AugmentationModel,
    ExplicitAugmentation,
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
        if self.eta_u < 0 or self.eta_l < 0:
            raise GraphError(f"edge weights must be nonnegative, got {(self.eta_u, self.eta_l)}")
        if self.eta_u + self.eta_l <= 0:
            raise GraphError("at least one of eta_u, eta_l must be positive")


@dataclass(frozen=True)
class GraphBundle:
    """All adjacency views of one population graph.

    ``A`` is globally normalized: its entries sum to one, with ``C`` the raw
    total that was divided out.  ``D`` holds the degrees (row sums of ``A``)
    and ``A_tilde`` the degree-normalized adjacency, which is invariant to
    both ``C`` and any common rescaling of the two edge weights.  A bundle
    built from a stack of models carries the same leading axes on every
    array, ``C`` included.
    """

    A_u: np.ndarray
    A_l: np.ndarray
    A: np.ndarray
    C: float | np.ndarray
    D: np.ndarray
    A_tilde: np.ndarray
    weights: GraphWeights

    def __post_init__(self) -> None:
        for name in ("A_u", "A_l", "A", "D", "A_tilde"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def self_supervised_adjacency(model: AugmentationModel, population: Population) -> np.ndarray:
    """Positive-pair weights under a uniform draw of the source example.

    Returns the views-by-views matrix (1/n) T^t T, where T is the
    transformation matrix of ``model`` over ``population`` and n the number
    of natural examples; a stack of models gives a stack of matrices.
    """
    t = transformation_matrix(model, population)
    return np.swapaxes(t, -1, -2) @ t / t.shape[-2]


def supervised_adjacency(model: AugmentationModel, population: Population) -> np.ndarray:
    """Same-class positive-pair weights from the labeled examples.

    Each known class with labeled examples contributes the outer product of
    the mean of its labeled rows of T (the empirical per-class view
    distribution).  Without any labeled examples the matrix is zero.
    """
    t = transformation_matrix(model, population)
    out = np.zeros(t.shape[:-2] + (t.shape[-1], t.shape[-1]))
    for _, rows in sorted(population.labeled_indices_by_class().items()):
        mu = t[..., rows, :].mean(axis=-2)
        out += mu[..., :, None] * mu[..., None, :]
    return out


def combine_and_normalize(
    A_u: np.ndarray, A_l: np.ndarray, weights: GraphWeights
) -> GraphBundle:
    """Combine the two adjacencies, normalize globally, and derive degrees.

    Raises :class:`IsolatedVertexError` if any vertex ends up with zero
    degree; silently dropping it would desynchronize vertex indices.
    """
    A_u = np.asarray(A_u, dtype=float)
    A_l = np.asarray(A_l, dtype=float)
    if A_u.shape != A_l.shape or A_u.ndim != 2 or A_u.shape[0] != A_u.shape[1]:
        raise GraphError(f"adjacency shapes {A_u.shape} and {A_l.shape} are incompatible")
    return _normalize(A_u, A_l, weights)


def _normalize(A_u: np.ndarray, A_l: np.ndarray, weights: GraphWeights) -> GraphBundle:
    """:func:`combine_and_normalize` over any leading batch axes."""
    for name, m in (("A_u", A_u), ("A_l", A_l)):
        if np.max(np.abs(m - np.swapaxes(m, -1, -2)), initial=0.0) > 1e-10:
            raise GraphError(f"{name} is not symmetric")
    raw = weights.eta_u * A_u + weights.eta_l * A_l
    C = raw.sum(axis=(-2, -1))
    if np.any(C <= 0):
        raise GraphError("combined adjacency has nonpositive total weight")
    A = raw / C[..., None, None]
    D = A.sum(axis=-1)
    zero = np.argwhere(D <= 0)
    if zero.size:
        raise IsolatedVertexError(f"vertex {int(zero[0, -1])} has zero degree")
    # The check above lets caller matrices be symmetric only to 1e-10, so
    # A_tilde is made exactly symmetric here.
    A_tilde = A / np.sqrt(D[..., :, None] * D[..., None, :])
    A_tilde = 0.5 * (A_tilde + np.swapaxes(A_tilde, -1, -2))
    return GraphBundle(
        A_u=A_u.copy(), A_l=A_l.copy(), A=A, C=C, D=D, A_tilde=A_tilde, weights=weights
    )


def build_graph(
    model: AugmentationModel, population: Population, weights: GraphWeights
) -> GraphBundle:
    """Full assembly from an augmentation model and a population."""
    return _build_graph(model, population, weights)


def _build_graph(
    model: AugmentationModel, population: Population, weights: GraphWeights
) -> GraphBundle:
    """:func:`build_graph` for a model or a stack of models.

    A parametric model is expanded once, and both adjacencies are built
    from that one matrix.
    """
    if isinstance(model, ParametricAugmentation):
        model = ExplicitAugmentation(transformation_matrix(model, population))
    return _normalize(
        self_supervised_adjacency(model, population),
        supervised_adjacency(model, population),
        weights,
    )
