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
:func:`equivalence_gap` measures that constancy directly.  Both sides are
evaluated over the graph's rows: the sums weigh each row by the views it
stands for, and the residual is taken on the graph's g x g quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphBundle, GraphWeights
from .spectral import _residual

__all__ = [
    "LossBreakdown",
    "EquivalenceReport",
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


def surrogate_loss_from_parts(
    f_rows: np.ndarray,
    A_u: np.ndarray,
    A_l: np.ndarray,
    weights: GraphWeights,
    counts: np.ndarray | None = None,
) -> LossBreakdown:
    """Evaluate the five terms from prebuilt adjacency parts.

    Row a of ``f_rows`` and of both parts stands for ``counts[a]`` views
    (one each by default), so every sum over views weighs it by that
    count.  With N = diag(counts), L1 = <N A_l N f, f> / C and L2 likewise
    with A_u.  As sum_xy d_x d_y <f_x, f_y>^2 = ||f^t diag(d) f||_F^2, L3,
    L4 and L5 are <G_l, G_l>, <G_l, G_u> and <G_u, G_u> over C^2, with the
    k x k G_l = f^t N diag(A_l n) f; no Gram of f over rows is formed.
    ``f_rows`` may carry leading batch axes, which the terms then carry.
    """
    f = np.asarray(f_rows, dtype=float)
    rows = A_u.shape[-1]
    if f.ndim < 2 or f.shape[-2] != rows:
        raise ValueError(f"feature rows have shape {f.shape}, expected (..., {rows}, k)")
    n = np.ones(rows) if counts is None else np.asarray(counts, dtype=float)
    # a row's degree in each part, over the views it is paired with
    deg_l, deg_u = A_l @ n, A_u @ n
    C = weights.eta_u * float(deg_u @ n) + weights.eta_l * float(deg_l @ n)
    nf = f * n[:, None]
    nft = np.swapaxes(nf, -1, -2)
    gram_l, gram_u = (nft * deg_l) @ f, (nft * deg_u) @ f
    terms = [
        np.sum((A_l @ nf) * nf, axis=(-2, -1)) / C,
        np.sum((A_u @ nf) * nf, axis=(-2, -1)) / C,
        np.sum(gram_l * gram_l, axis=(-2, -1)) / C**2,
        np.sum(gram_l * gram_u, axis=(-2, -1)) / C**2,
        np.sum(gram_u * gram_u, axis=(-2, -1)) / C**2,
    ]
    L1, L2, L3, L4, L5 = (float(t) if t.ndim == 0 else t for t in terms)
    eta_u, eta_l = weights.eta_u, weights.eta_l
    total = (
        -2.0 * eta_l * L1
        - 2.0 * eta_u * L2
        + eta_l**2 * L3
        + 2.0 * eta_l * eta_u * L4
        + eta_u**2 * L5
    )
    return LossBreakdown(L1=L1, L2=L2, L3=L3, L4=L4, L5=L5, total=total)


def matrix_loss(F: np.ndarray, A_tilde: np.ndarray) -> float:
    """Squared Frobenius residual ||A_tilde - F F^t||_F^2."""
    F = np.asarray(F, dtype=float)
    A_tilde = np.asarray(A_tilde, dtype=float)
    if F.ndim != 2 or F.shape[0] != A_tilde.shape[0]:
        raise ValueError(f"shapes {F.shape} and {A_tilde.shape} are incompatible")
    return _residual(F, A_tilde)[1]


@dataclass(frozen=True)
class EquivalenceReport:
    """Offsets between the two objectives over random factor matrices.

    ``breakdowns[t]`` holds the surrogate terms of trial t's feature rows
    f_t and ``matrix_losses[t]`` the matrix loss of its factor F_t.
    ``gaps[t]`` is matrix_loss(F_t) - surrogate total(f_t); a zero spread
    certifies the constant offset, and the offset itself must equal
    ``constant`` (the squared entry sum of the normalized adjacency).
    """

    breakdowns: tuple[LossBreakdown, ...]
    matrix_losses: tuple[float, ...]
    constant: float

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(m - b.total for m, b in zip(self.matrix_losses, self.breakdowns))

    @property
    def spread(self) -> float:
        return max(self.gaps) - min(self.gaps)

    @property
    def relative_spread(self) -> float:
        return self.spread / (1.0 + abs(self.gaps[0]))

    @property
    def max_constant_error(self) -> float:
        return max(abs(g - self.constant) for g in self.gaps)


def equivalence_gap(
    trials: int, seed: int, bundle: GraphBundle, k: int
) -> EquivalenceReport:
    """Check the constant-offset identity on ``trials`` random factor matrices.

    Trial t draws a seeded g x k factor H_t over the bundle's rows, the
    t-th of one (trials, g, k) draw.  H_t lifts to the vertices
    (:attr:`GraphBundle.Q`) with the matrix loss ||Q - H_t H_t^t||_F^2, and
    its feature rows are H_t[a] / sqrt(n[a] D_g[a]) on row a.  One stacked
    evaluation gives every trial's surrogate side; the matrix side is taken
    one trial at a time, holding one g x g residual.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    g = bundle.Q.shape[0]
    h = np.random.default_rng(seed).standard_normal((trials, g, k)) / np.sqrt(g * k)
    f_rows = h / np.sqrt(bundle.counts * bundle.D_g)[:, None]
    stacked = surrogate_loss_from_parts(
        f_rows, bundle.A_u_g, bundle.A_l_g, bundle.weights, bundle.counts
    )
    breakdowns = zip(*(terms.tolist() for terms in vars(stacked).values()))
    return EquivalenceReport(
        breakdowns=tuple(LossBreakdown(*terms) for terms in breakdowns),
        matrix_losses=tuple(matrix_loss(factor, bundle.Q) for factor in h),
        constant=float(np.sum(bundle.Q**2)),
    )
