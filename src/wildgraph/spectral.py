"""Spectral embeddings: dense eigendecomposition and low-rank factorization.

The eigensolver is LAPACK's symmetric ``eigh``.  Eigenvalues are returned in
descending order with a deterministic sign convention (each eigenvector's
largest-magnitude entry is positive, ties resolved at the lowest index);
exactly equal eigenvalues are ordered by comparing the sign-fixed vectors
lexicographically.  The same input on the same machine gives identical
bytes; across BLAS/LAPACK builds the low-order digits may differ.

:func:`embed` solves a graph on its quotient over groups of
interchangeable vertices: a g x g eigenproblem whatever the number of
vertices, whose eigenvectors lift back to the vertex-level ones.  It
returns them with the degree-scaled feature rows
Z = D^-1/2 V_k Lambda_k^1/2, one per group, and refuses a k past the
graph's numerical rank, so every kept eigenvalue is positive.  A graph
given by an explicit matrix has groups of one, where the quotient is the
normalized adjacency itself, so one path serves every graph.

The factorizer minimizes the squared Frobenius residual between the
normalized adjacency and F F^t by nonlinear conjugate gradient, with each
gradient scaled by the k x k metric (F^t F + ||R||_F / sqrt(n) I)^-1 and an
exact line search; no eigendecomposition enters it, only a k x k inverse per
step.  Its optimum is the sum of squared trailing eigenvalues (with the
negative ones among the leading k also left over), which the embedding
side computes independently; the two routes cross-check each other
through :func:`reconstruction_gap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .graph import GraphBundle

__all__ = [
    "SpectralEmbedding",
    "FactorizerOptions",
    "FactorizationState",
    "ReconstructionGap",
    "SpectralError",
    "AsymmetricMatrixError",
    "EigensolverError",
    "FactorizationError",
    "eigendecompose",
    "embed",
    "lowrank_factorize",
    "reconstruction_gap",
    "write_trace_csv",
]

ASYMMETRY_TOLERANCE = 1e-10
DEGENERACY_TOLERANCE = 1e-8  # reconstruction_gap: lambda_k and lambda_{k+1} this close tie
# embed's k may not pass the count of eigenvalues above this fraction of the
# largest; null directions of a 34-vertex graph come near 1e-16.
RANK_TOLERANCE = 1e-10


class SpectralError(ValueError):
    pass


class AsymmetricMatrixError(SpectralError):
    pass


class EigensolverError(SpectralError):
    """LAPACK's ``eigh`` (also inside the probe's pinv) did not converge: not bad input."""


class FactorizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SpectralEmbedding:
    """Top-k eigenpairs plus the degree-scaled feature rows.

    ``eigenvalues`` holds the full descending spectrum and ``V_k`` the
    leading orthonormal eigenvectors.  ``Z``, the feature rows, needs the
    degrees, so only :func:`embed` fills it in.  From
    :func:`embed` the rows are the bundle's groups, each shared by every
    vertex of its group, so ``V_k``'s columns are orthonormal once each row
    is counted as often as its group has vertices.  An embedding of a stack of graphs
    carries the stack's leading axes on every array.
    """

    eigenvalues: np.ndarray
    V_k: np.ndarray
    k: int
    Z: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "V_k", "Z"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    def trailing_power(self) -> float:
        """Sum of squared eigenvalues beyond the leading k (the factorization optimum)."""
        return float(np.sum(self.eigenvalues[self.k :] ** 2))


def eigendecompose(A_tilde: np.ndarray, k: int) -> SpectralEmbedding:
    """Full symmetric eigendecomposition, keeping the top-k pairs.

    Rejects non-finite matrices and matrices whose asymmetry exceeds
    ``ASYMMETRY_TOLERANCE``, then solves the symmetrized copy with LAPACK
    ``eigh``.  Output ordering and signs follow the deterministic convention
    in the module docstring.
    """
    m = np.asarray(A_tilde, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {m.shape}")
    return _decompose(m, k)


def _decompose(m: np.ndarray, k: int) -> SpectralEmbedding:
    """:func:`eigendecompose` over any leading batch axes, with one ``eigh`` call.

    Only matrices with exactly tied eigenvalues go through the per-matrix
    lexicographic ordering.
    """
    n = m.shape[-1]
    if not 1 <= k <= n:
        raise SpectralError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if not np.all(np.isfinite(m)):
        raise SpectralError("input matrix has non-finite entries")
    mt = np.swapaxes(m, -1, -2)
    asymmetry = np.max(np.abs(m - mt), initial=0.0)
    if asymmetry > ASYMMETRY_TOLERANCE:
        raise AsymmetricMatrixError("input matrix is not symmetric")
    try:
        # 0.5 (m + m) is m bit for bit, so an exactly symmetric m goes in as is
        lam, v = np.linalg.eigh(0.5 * (m + mt) if asymmetry else m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed: {exc}") from exc
    # eigh's eigenvalues ascend, so reversed they descend
    lam, v = np.ascontiguousarray(lam[..., ::-1]), _fix_signs(v[..., ::-1])
    tied = np.any(np.diff(lam, axis=-1) == 0.0, axis=-1)
    if tied.any():
        for i in map(tuple, np.argwhere(tied)):
            # exactly equal eigenvalues are ordered by their sign-fixed vectors,
            # compared entry by entry (lexsort's last key is the primary one)
            order = np.lexsort(np.vstack([v[i][::-1], -lam[i]]))
            lam[i], v[i] = lam[i][order], v[i][:, order]
    return SpectralEmbedding(eigenvalues=lam, V_k=np.ascontiguousarray(v[..., :k]), k=k)


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Columns flipped so that each one's first largest-magnitude entry is positive."""
    pivot = np.argmax(np.abs(v), axis=-2)
    return np.where(np.take_along_axis(v, pivot[..., None, :], axis=-2) < 0, -v, v)


def _require_rank(k: int, eigenvalues: np.ndarray) -> None:
    """Refuse a k past the graph's numerical rank, whose extra columns are null directions.

    The rank counts the eigenvalues above ``RANK_TOLERANCE`` times the
    largest; over a stack of spectra it is the smallest such count.
    """
    above = eigenvalues > RANK_TOLERANCE * eigenvalues[..., :1]
    rank = int(np.min(np.sum(above, axis=-1)))
    if k > rank:
        raise SpectralError(
            f"k={k} exceeds the graph's rank {rank}: only {rank} eigenvalues exceed "
            f"{RANK_TOLERANCE:g} times the largest"
        )


def embed(bundle: GraphBundle, k: int) -> SpectralEmbedding:
    """Spectral embedding of the bundle's graph, solved on its quotient.

    With the rows' counts n, the g x g quotient ``bundle.Q`` has the
    nonzero spectrum of the vertex-level A_tilde, and each eigenvector u of
    Q lifts to the unit eigenvector of A_tilde whose entries are
    u[a] / sqrt(n[a]) on the vertices of row a (Godsil & Royle, *Algebraic
    Graph Theory*, ch. 9).  ``V_k`` and ``Z`` hold one row per bundle row,
    the lifted signs follow the module's convention, and ``eigenvalues`` is
    Q's spectrum.  A bundle of one graph goes through
    :func:`eigendecompose`; a stack of graphs through the same code with
    its batch axes.

    A k past the graph's numerical rank (``RANK_TOLERANCE``), and so past
    its number of rows, raises :class:`SpectralError`: its extra columns
    would be an arbitrary basis of null directions.  Every kept eigenvalue
    is then positive, and the feature rows are
    Z[a, :] = V_k[a, :] * sqrt(eigenvalues[:k]) / sqrt(D_g[a]).  The
    spectrum, the lifted ``V_k`` and ``Z`` are returned in one record, built
    once.
    """
    # With rows of one vertex each (every explicit matrix), Q is A_tilde_g
    # and the lift is the identity, which is skipped.
    decompose = eigendecompose if bundle.Q.ndim == 2 else _decompose
    solved = decompose(bundle.Q, min(k, bundle.Q.shape[-1]))
    lam, v = solved.eigenvalues, solved.V_k
    _require_rank(k, lam)
    if bundle.Q is not bundle.A_tilde_g:
        v = _fix_signs(v / np.sqrt(bundle.counts)[:, None])
    z = v * np.sqrt(lam[..., None, :k]) / np.sqrt(bundle.D_g)[..., :, None]
    return SpectralEmbedding(eigenvalues=lam, V_k=v, k=k, Z=z)


@dataclass(frozen=True)
class FactorizerOptions:
    max_iters: int = 10000
    tol: float = 1e-14
    seed: int = 0


@dataclass(frozen=True)
class FactorizationState:
    F: np.ndarray
    loss_trace: tuple[tuple[int, float], ...]
    converged: bool

    def __post_init__(self) -> None:
        self.F.setflags(write=False)

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1][1]

    @property
    def iterations(self) -> int:
        return self.loss_trace[-1][0]


def _residual(F: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    r = F @ F.T
    r -= target
    return r, float(np.vdot(r, r))


def _exact_step(R: np.ndarray, F: np.ndarray, d: np.ndarray, q1: float, gram: np.ndarray) -> float:
    """The t minimizing ||R + t (F d^t + d F^t) + t^2 d d^t||^2, with R = F F^t - A.

    ``q1`` is the slope <4 R F, d> and ``gram`` is F^t F.  The other
    coefficients are k x k Gram products and R d; NaN if one is not finite.
    """
    m = F.T @ d
    dd = d.T @ d
    q4 = float(np.vdot(dd, dd))
    q3 = 4.0 * float(np.vdot(m, dd))
    q2 = 2.0 * float(np.vdot(gram, dd) + np.vdot(m, m.T) + np.vdot(d, R @ d))
    if not all(map(math.isfinite, (q4, q3, q2, q1))):
        return math.nan  # the caller reports the non-finite loss
    return _quartic_argmin(q4, q3, q2, q1)


def _quartic_argmin(q4: float, q3: float, q2: float, q1: float) -> float:
    """The t minimizing q4 t^4 + q3 t^3 + q2 t^2 + q1 t (0 unless q4 > 0).

    That is the derivative cubic's real root of lowest value (a complex root's
    real part never beats it), found trigonometrically when all three roots
    are real, else by Cardano with the cube root's sign chosen against
    cancellation (Numerical Recipes, section 5.6), then one Newton step.
    """
    if not q4 > 0.0:
        return 0.0
    # t^3 + a t^2 + b t + c, with t = s u and u's coefficients at most 1
    a, b, c = 0.75 * q3 / q4, 0.5 * q2 / q4, 0.25 * q1 / q4
    s = max(abs(a), math.sqrt(abs(b)), abs(c) ** (1.0 / 3.0)) or 1.0
    a, b, c = a / s, b / s / s, c / s / s / s
    q, r = (a * a - 3.0 * b) / 9.0, (a * (2.0 * a * a - 9.0 * b) + 27.0 * c) / 54.0
    if r * r < q * q * q:  # the middle of three real roots is the quartic's local maximum
        theta = math.acos(max(-1.0, min(1.0, r / (q * math.sqrt(q)))))
        roots = [-2.0 * math.sqrt(q) * math.cos((theta + turn) / 3.0) - a / 3.0
                 for turn in (0.0, 2.0 * math.pi)]
    else:
        big = -math.copysign((abs(r) + math.sqrt(r * r - q * q * q)) ** (1.0 / 3.0), r)
        roots = [big + (q / big if big else 0.0) - a / 3.0]
    best_t = best = 0.0
    for u in roots:
        slope = (3.0 * u + 2.0 * a) * u + b
        t = s * (u - (((u + a) * u + b) * u + c) / slope if slope else u)
        value = (((q4 * t + q3) * t + q2) * t + q1) * t
        if value < best:
            best_t, best = t, value
    return best_t


def lowrank_factorize(
    A_tilde: np.ndarray, k: int, opts: FactorizerOptions = FactorizerOptions()
) -> FactorizationState:
    """Scaled nonlinear conjugate gradient on ||A_tilde - F F^t||_F^2.

    The gradient is g = 4 R F with R = F F^t - A_tilde, and it is scaled by
    the k x k metric to p = g (F^t F + sigma I)^-1, which removes the
    descent's dependence on F's conditioning (Tong, Ma & Chi, JMLR 2021).
    The damping sigma = ||R||_F / sqrt(n), the n x n residual's
    root-mean-square eigenvalue, keeps the metric invertible when F loses
    rank, as it must at an optimum past the target's rank or past its
    positive eigenvalues.  Unlike ||R||_F (Zhang, Fattahi & Zhang, NeurIPS
    2021), it stays within ||R||_2 where R is left at the trailing spectrum,
    so the scaling holds near the optimum.  Directions follow Polak-Ribiere+
    in the scaled inner products, beta = <p, g - g_old> / <p_old, g_old>,
    and restart at -p whenever they are not descent directions; each step
    goes to the exact minimizer along the direction (Nocedal & Wright,
    ch. 5).  A step is kept only if the residual loss strictly decreases, so
    the recorded trace is strictly decreasing.
    Stops, converged, when the relative loss decrease falls below ``opts.tol``,
    when the loss falls below eps^2 times the first (an exact fit; a zero
    target's loss falls geometrically and never meets tol) or when no
    decreasing step exists (numerical optimum); unconverged at ``opts.max_iters``.
    """
    m = np.asarray(A_tilde, dtype=float)
    if np.max(np.abs(m - m.T), initial=0.0) > ASYMMETRY_TOLERANCE:
        raise AsymmetricMatrixError("input matrix is not symmetric")
    n = m.shape[0]
    rng = np.random.default_rng(opts.seed)
    F = rng.standard_normal((n, k)) / np.sqrt(n * k)
    eye = np.eye(k)
    # overflow propagates to inf and is reported as FactorizationError
    with np.errstate(over="ignore", invalid="ignore"):
        R, loss = _residual(F, m)
        if not math.isfinite(loss):
            raise FactorizationError("non-finite loss at iteration 0")
        floor = np.finfo(float).eps ** 2 * loss  # F F^t is the target to rounding
        trace = [(0, loss)]
        converged = False
        g_old = p_old = d = None
        for it in range(1, opts.max_iters + 1):
            if loss <= floor:
                converged = True
                break
            g = 4.0 * (R @ F)
            gram = F.T @ F
            p = g @ np.linalg.inv(gram + math.sqrt(loss / n) * eye)
            if d is not None:
                beta = max(0.0, float(np.vdot(p, g - g_old) / np.vdot(p_old, g_old)))
                d = beta * d - p
            if d is None or (slope := float(np.vdot(g, d))) >= 0.0:
                d = -p
                slope = float(np.vdot(g, d))
            candidate = F + _exact_step(R, F, d, slope, gram) * d
            R_new, new_loss = _residual(candidate, m)
            if not math.isfinite(new_loss):
                raise FactorizationError(f"non-finite loss at iteration {it}")
            if not new_loss < loss:
                converged = True
                break
            relative_drop = (loss - new_loss) / loss  # loss > floor >= 0
            F, R, loss, g_old, p_old = candidate, R_new, new_loss, g, p
            trace.append((it, loss))
            if relative_drop < opts.tol:
                converged = True
                break
    return FactorizationState(F=F.copy(), loss_trace=tuple(trace), converged=converged)


@dataclass(frozen=True)
class ReconstructionGap:
    loss_gap: float
    subspace_gap: float
    degenerate: bool


def reconstruction_gap(
    state: FactorizationState, embedding: SpectralEmbedding
) -> ReconstructionGap:
    """Distance of a factorization from the spectral optimum.

    ``loss_gap`` compares the final loss against the sum of squared trailing
    eigenvalues.  ``subspace_gap`` is the Frobenius distance between the
    orthogonal projectors onto the column spans of F and V_k; when the k-th
    and (k+1)-th eigenvalues coincide (within ``DEGENERACY_TOLERANCE``) the
    optimal subspace is not unique, so the gap is still reported but
    flagged degenerate.
    """
    k = embedding.k
    if state.F.shape[1] != k:
        raise SpectralError(f"factorization rank {state.F.shape[1]} != embedding k {k}")
    loss_gap = state.final_loss - embedding.trailing_power()
    q, _ = np.linalg.qr(state.F)
    p_f = q @ q.T
    p_v = embedding.V_k @ embedding.V_k.T
    subspace_gap = float(np.linalg.norm(p_f - p_v))
    lam = embedding.eigenvalues
    degenerate = bool(k < lam.shape[0] and abs(lam[k - 1] - lam[k]) <= DEGENERACY_TOLERANCE)
    return ReconstructionGap(loss_gap=float(loss_gap), subspace_gap=subspace_gap, degenerate=degenerate)


def write_trace_csv(path: Union[str, Path], state: FactorizationState, header: str = "") -> None:
    """Convergence trace as ``iter,loss`` rows in scientific notation."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("iter,loss\n")
        for it, loss in state.loss_trace:
            fh.write(f"{it},{loss:.17e}\n")
