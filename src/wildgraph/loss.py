"""Surrogate contrastive loss and its matrix-factorization counterpart.

The surrogate loss evaluates five exact finite sums over view pairs:

    L1  labeled positive pairs (same known class, weighted by A_l)
    L2  self-supervised positive pairs (same source, weighted by A_u)
    L3  negative pairs drawn from two labeled marginals
    L4  negative pairs mixing a labeled and an unlabeled marginal
    L5  negative pairs drawn from two unlabeled marginals

    total = -2 eta_l L1 - 2 eta_u L2
            + eta_l^2 L3 + 2 eta_l eta_u L4 + eta_u^2 L5

with all sums sharing the graph's single global normalization constant.
Attaching eta_l to the labeled terms (L1, L3) and eta_u to the unlabeled
ones (L2, L5) is forced by the expansion of the factorization residual:

    ||A_tilde - F F^t||_F^2 = sum(A_tilde^2) + total(f),  f_x = F_x / sqrt(D_x)

so the two objectives differ by the constant sum(A_tilde^2) for every F.
:func:`equivalence_gap` measures that constancy directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphBundle, GraphWeights, self_supervised_adjacency, supervised_adjacency
from .population import AugmentationModel, Population

__all__ = [
    "LossBreakdown",
    "EquivalenceReport",
    "surrogate_loss",
    "surrogate_loss_from_parts",
    "matrix_loss",
    "equivalence_gap",
]


@dataclass(frozen=True)
class LossBreakdown:
    L1: float
    L2: float
    L3: float
    L4: float
    L5: float
    total: float
    weights: GraphWeights

    def to_json_dict(self) -> dict:
        return {
            "L1": self.L1,
            "L2": self.L2,
            "L3": self.L3,
            "L4": self.L4,
            "L5": self.L5,
            "total": self.total,
        }


def _normalizers(
    A_u: np.ndarray, A_l: np.ndarray, weights: GraphWeights
) -> tuple[float, np.ndarray, np.ndarray]:
    """The global constant C and the labeled and unlabeled degree vectors."""
    C = float((weights.eta_u * A_u + weights.eta_l * A_l).sum())
    return C, A_l.sum(axis=1), A_u.sum(axis=1)


def surrogate_loss_from_parts(
    f_rows: np.ndarray,
    A_u: np.ndarray,
    A_l: np.ndarray,
    weights: GraphWeights,
    *,
    normalizers: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> LossBreakdown:
    """Evaluate the five terms from prebuilt adjacency parts.

    ``normalizers`` takes :func:`_normalizers` of the same parts, from a
    caller that evaluates many feature maps over them; they do not depend
    on ``f_rows``.
    """
    f = np.asarray(f_rows, dtype=float)
    if f.ndim != 2 or f.shape[0] != A_u.shape[0]:
        raise ValueError(
            f"feature rows have shape {f.shape}, expected ({A_u.shape[0]}, k)"
        )
    C, deg_l, deg_u = normalizers or _normalizers(A_u, A_l, weights)
    gram = f @ f.T
    gram_sq = gram * gram
    L1 = float(np.sum(A_l * gram)) / C
    L2 = float(np.sum(A_u * gram)) / C
    L3 = float(deg_l @ gram_sq @ deg_l) / C**2
    L4 = float(deg_l @ gram_sq @ deg_u) / C**2
    L5 = float(deg_u @ gram_sq @ deg_u) / C**2
    eta_u, eta_l = weights.eta_u, weights.eta_l
    total = (
        -2.0 * eta_l * L1
        - 2.0 * eta_u * L2
        + eta_l**2 * L3
        + 2.0 * eta_l * eta_u * L4
        + eta_u**2 * L5
    )
    return LossBreakdown(L1=L1, L2=L2, L3=L3, L4=L4, L5=L5, total=total, weights=weights)


def surrogate_loss(
    f_rows: np.ndarray,
    model: AugmentationModel,
    population: Population,
    weights: GraphWeights,
) -> LossBreakdown:
    """Exact surrogate loss of the feature map ``f_rows`` over a population."""
    A_u = self_supervised_adjacency(model, population)
    A_l = supervised_adjacency(model, population)
    return surrogate_loss_from_parts(f_rows, A_u, A_l, weights)


def matrix_loss(F: np.ndarray, A_tilde: np.ndarray) -> float:
    """Squared Frobenius residual ||A_tilde - F F^t||_F^2."""
    F = np.asarray(F, dtype=float)
    A_tilde = np.asarray(A_tilde, dtype=float)
    if F.ndim != 2 or F.shape[0] != A_tilde.shape[0]:
        raise ValueError(f"shapes {F.shape} and {A_tilde.shape} are incompatible")
    r = A_tilde - F @ F.T
    return float(np.sum(r * r))


@dataclass(frozen=True)
class EquivalenceReport:
    """Offsets between the two objectives over random factor matrices.

    ``gaps[t]`` is matrix_loss(F_t) - surrogate total(f_t); a zero spread
    certifies the constant offset, and the offset itself must equal
    ``constant`` (the squared entry sum of the normalized adjacency).
    """

    gaps: tuple[float, ...]
    spread: float
    constant: float

    @property
    def relative_spread(self) -> float:
        return self.spread / (1.0 + abs(self.gaps[0]))

    @property
    def max_constant_error(self) -> float:
        return max(abs(g - self.constant) for g in self.gaps)


def equivalence_gap(
    trials: int, seed: int, bundle: GraphBundle, k: int
) -> EquivalenceReport:
    """Check the constant-offset identity on ``trials`` random factor matrices."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    n = bundle.A_tilde.shape[0]
    rng = np.random.default_rng(seed)
    sqrt_deg = np.sqrt(bundle.D)
    A_u, A_l, weights = bundle.A_u, bundle.A_l, bundle.weights
    normalizers = _normalizers(A_u, A_l, weights)
    gaps = []
    for _ in range(trials):
        F = rng.standard_normal((n, k)) / np.sqrt(n * k)
        f_rows = F / sqrt_deg[:, None]
        breakdown = surrogate_loss_from_parts(f_rows, A_u, A_l, weights, normalizers=normalizers)
        gaps.append(matrix_loss(F, bundle.A_tilde) - breakdown.total)
    constant = float(np.sum(bundle.A_tilde**2))
    return EquivalenceReport(
        gaps=tuple(gaps), spread=max(gaps) - min(gaps), constant=constant
    )
