"""Closed-form predictions for the five-example populations.

Everything here is written in the reduced ratios a' = alpha/rho and
b' = beta/rho, with the cross probability treated as exactly zero and
second-order terms dropped.  The supervised layouts fix the edge weights at
eta_u = 5, eta_l = 1.  :func:`closed_form` takes the layout as a
:class:`TheoryVariant` and covers three of them:

* case a: the novel-class example sits in its own domain.  Eigenvalues
  {1, 1, 1 - 4b', 1 - 4.5a', 1 - 4b' - 4.5a'}; probing error count 0 when
  (9/8) a' > b' and 2 when the inequality flips (embeddings of each class
  pair collapse); separability has one closed branch per regime.
* case b: the novel-class example shares the covariate domain.  The top
  eigenvalue is simple, the next two come from explicit quadratics, and the
  probing error count is 0 whenever both ratios are positive.
* unsupervised: case a's layout with only self-supervised edges.
  Eigenvalues {1, 1, 1 - 4b', 1 - 4a', 1 - 4a' - 4b'} and the dichotomy
  boundary moves to a' = b'.

The two eigenvalues at 1 span a degenerate subspace, so all comparisons
against the numeric pipeline go through projectors: the top pair jointly,
the third vector on its own.  Nothing here refuses an ill-posed point; it
reads NaN instead.  :func:`closed_form` marks the points on its regime
boundary, where the eigenbasis switches.  :func:`verify_against_pipeline`
runs the full numeric chain at finite parameters and reports per-quantity
deviations against fixed gates, which only its ``tolerance_scale`` widens.
It is the one engine behind both ``toy-verify`` and ``sweep``: it also
marks the points where k cuts a tied eigenspace, and a NaN fails its gate.

The ratios in :class:`ReducedParams` may be arrays.  The closed forms,
:func:`run_toy_pipeline` and :func:`verify_against_pipeline` then return
one value per point along the arrays' shape, computed by the same code as
for a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import ProbingResult, _unstacked, evaluate
from .graph import GraphWeights, _build_graph
from .population import TheoryVariant, build_toy_population
from .spectral import SpectralEmbedding, embed

__all__ = [
    "TheoryVariant",
    "ReducedParams",
    "ClosedFormPrediction",
    "SeparabilityGap",
    "QuantityComparison",
    "VerificationReport",
    "BOUNDARY_BAND",
    "THEORY_WEIGHTS",
    "closed_form",
    "boundary_margin",
    "run_toy_pipeline",
    "verify_against_pipeline",
]

BOUNDARY_BAND = 0.005
DEGENERACY_EPS = 1e-9
EIGENVALUE_TIE = 1e-9  # lambda_k and lambda_{k+1} closer than this cut a tied eigenspace
# verify_against_pipeline's gates: separability relative to the closed
# form, and the Frobenius distance between closed and numeric projectors
SEPARABILITY_TOLERANCE = 0.05
PROJECTOR_TOLERANCE = 0.25
THEORY_WEIGHTS = {"supervised": GraphWeights(5.0, 1.0), "unsupervised": GraphWeights(5.0, 0.0)}


@dataclass(frozen=True)
class ReducedParams:
    """The ratios a' = alpha/rho, b' = beta/rho and gamma/rho.

    Each is a number or an array; arrays broadcast against each other and
    describe one point per entry.
    """

    alpha_prime: float | np.ndarray
    beta_prime: float | np.ndarray
    gamma_ratio: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        ap, bp = np.asarray(self.alpha_prime), np.asarray(self.beta_prime)
        if not (np.all((0.0 < ap) & (ap < 1.0)) and np.all((0.0 < bp) & (bp < 1.0))):
            raise ValueError(
                f"reduced ratios must lie in (0, 1), got "
                f"({self.alpha_prime}, {self.beta_prime})"
            )
        if np.any(np.asarray(self.gamma_ratio) < 0):
            raise ValueError(f"gamma_ratio must be nonnegative, got {self.gamma_ratio}")

    @property
    def case_a_margin(self) -> float | np.ndarray:
        """Signed distance to the case-a regime boundary (9/8) a' = b'."""
        return 1.125 * self.alpha_prime - self.beta_prime

    @property
    def unsup_margin(self) -> float | np.ndarray:
        """Signed distance to the unsupervised regime boundary a' = b'."""
        return self.alpha_prime - self.beta_prime


@dataclass(frozen=True)
class ClosedFormPrediction:
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    probing_error_count: int | np.ndarray
    separability: float | np.ndarray
    degenerate_pair: bool

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "eigenbasis"):
            getattr(self, name).setflags(write=False)

    @property
    def top_pair_projector(self) -> np.ndarray:
        return self.eigenbasis[..., :2] @ np.swapaxes(self.eigenbasis[..., :2], -1, -2)

    @property
    def third_projector(self) -> np.ndarray:
        return self.eigenbasis[..., :, 2, None] * self.eigenbasis[..., None, :, 2]


def boundary_margin(variant: TheoryVariant | str, params: ReducedParams) -> float | np.ndarray:
    variant = TheoryVariant(variant)
    if variant is TheoryVariant.CASE_A:
        return params.case_a_margin
    if variant is TheoryVariant.UNSUPERVISED:
        return params.unsup_margin
    return math.inf


def _square(x: float | np.ndarray) -> float | np.ndarray:
    """``x ** 2`` of each entry through C ``pow``, as Python squares a float.

    ``np.float_power`` calls ``pow`` per entry.  ``np.square`` and
    ``np.power(x, 2.0)`` compute ``x * x``, and ``np.power`` with an array
    exponent a vectorised ``pow``; each rounds differently for about one
    input in a thousand, and the gaps, differences of nearly equal closed
    forms, magnify a last-bit change up to twentyfold.
    """
    return np.float_power(x, 2.0)


def _last_axis(*values) -> np.ndarray:
    """Stack numbers, vectors or their grids along a new last axis."""
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def _case_a(params: ReducedParams) -> tuple:
    ap, bp = params.alpha_prime, params.beta_prime
    generalizes = np.asarray(params.case_a_margin > 0)
    normalization = 7.0 + 12.0 * bp + 12.0 * ap
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    v1 = np.array([s2, s2, 1.0, 1.0, 0.0]) / s6
    v2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    v3 = np.where(
        generalizes[..., None],
        np.array([-s2, s2, -1.0, 1.0, 0.0]) / s6,
        np.array([-1.0, -1.0, s2, s2, 0.0]) / s6,
    )
    weight = np.where(generalizes, (1.0 - 2.0 * bp) / 3.0, (2.0 - 3.0 * ap) / 8.0)
    sep = normalization * (weight * _square(1.0 - bp - 0.75 * ap) + 1.0)
    eigenvalues = _last_axis(
        1.0,
        1.0,
        np.where(generalizes, 1.0 - 4.0 * bp, 1.0 - 4.5 * ap),
        np.minimum(1.0 - 4.0 * bp, 1.0 - 4.5 * ap),
        1.0 - 4.0 * bp - 4.5 * ap,
    )
    return eigenvalues, _last_axis(v1, v2, v3), np.where(generalizes, 0, 2), sep, True


def _case_b_eigenvalues(ap: float | np.ndarray, bp: float | np.ndarray) -> np.ndarray:
    root_inner = math.sqrt(3.0) * np.sqrt(
        27.0 * _square(ap) - 40.0 * ap * bp + 48.0 * _square(bp)
    )
    root_outer = np.sqrt(81.0 * _square(ap) + 24.0 * ap * bp + 16.0 * _square(bp))
    lam2 = 1.0 - 3.0 * bp + (root_inner - 9.0 * ap) / 4.0
    lam3 = 1.0 - 5.0 * bp + (root_outer - 9.0 * ap) / 4.0
    lam4 = 1.0 - 3.0 * bp - (root_inner + 9.0 * ap) / 4.0
    lam5 = 1.0 - 5.0 * bp - (root_outer + 9.0 * ap) / 4.0
    return _last_axis(1.0, lam2, lam3, lam4, lam5)


def _case_b_coeffs(
    ap: float | np.ndarray, bp: float | np.ndarray, lam: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    a = math.sqrt(2.0) * (1.0 - 6.0 * bp - lam) / (8.0 * bp)
    b = (4.0 * bp - 1.0 + lam) / (4.0 * bp)
    c = math.sqrt(2.0) * (1.0 - 3.0 * ap - 6.0 * bp - lam) / (3.0 * ap)
    return a, b, c


def _case_b(params: ReducedParams) -> tuple:
    ap, bp = params.alpha_prime, params.beta_prime
    normalization = 7.0 + 20.0 * bp + 12.0 * ap
    eigenvalues = _case_b_eigenvalues(ap, bp)
    lam2, lam3 = eigenvalues[..., 1], eigenvalues[..., 2]
    a2, b2, _ = _case_b_coeffs(ap, bp, lam2)
    _, _, c3 = _case_b_coeffs(ap, bp, lam3)
    s2, s7 = math.sqrt(2.0), math.sqrt(7.0)
    norm2 = np.sqrt(2.0 * _square(a2) + 2.0 * _square(b2) + 1.0)
    norm3 = np.sqrt(2.0 * _square(c3) + 2.0)
    v1 = np.array([s2, s2, 1.0, 1.0, 1.0]) / s7
    v2 = _last_axis(a2, a2, b2, b2, 1.0) / norm2[..., None]
    v3 = _last_axis(c3, -c3, -1.0, 1.0, 0.0) / norm3[..., None]

    # Feature rows of one ID example and the novel-class example; the other
    # ID row only flips the third component, which the novel row lacks.
    root2, root3 = np.sqrt(np.maximum(lam2, 0.0)), np.sqrt(np.maximum(lam3, 0.0))
    scale_id = (1.0 - bp - 0.75 * ap) * np.sqrt(normalization) / s2
    z_id = scale_id[..., None] * _last_axis(s2 / s7, a2 * root2 / norm2, c3 * root3 / norm3)
    z_sem = ((1.0 - 2.0 * bp) * np.sqrt(normalization))[..., None] * _last_axis(
        1.0 / s7, root2 / norm2, 0.0
    )
    sep = np.sum(np.square(z_id - z_sem), axis=-1)
    return eigenvalues, _last_axis(v1, v2, v3), np.zeros(sep.shape, dtype=int), sep, False


def _unsupervised(params: ReducedParams) -> tuple:
    ap, bp = params.alpha_prime, params.beta_prime
    generalizes = np.asarray(params.unsup_margin > 0)
    normalization = 5.0 + 8.0 * bp + 8.0 * ap
    v1 = np.array([1.0, 1.0, 1.0, 1.0, 0.0]) / 2.0
    v2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    v3 = np.where(
        generalizes[..., None],
        np.array([-1.0, 1.0, -1.0, 1.0, 0.0]) / 2.0,
        np.array([-1.0, -1.0, 1.0, 1.0, 0.0]) / 2.0,
    )
    weight = np.where(generalizes, 1.0 - 2.0 * bp, 1.0 - 2.0 * ap)
    sep = normalization * (_square(1.0 - ap - bp) * weight / 2.0 + 1.0)
    eigenvalues = _last_axis(
        1.0,
        1.0,
        np.where(generalizes, 1.0 - 4.0 * bp, 1.0 - 4.0 * ap),
        np.minimum(1.0 - 4.0 * bp, 1.0 - 4.0 * ap),
        1.0 - 4.0 * ap - 4.0 * bp,
    )
    return eigenvalues, _last_axis(v1, v2, v3), np.where(generalizes, 0, 2), sep, True


# Each layout's eigenvalues, eigenbasis, probing error count, separability
# and degenerate_pair flag at every point, the regime picked by the sign of
# its boundary margin; closed_form marks the points on the boundary NaN.
# The gaps take the layouts in this order.
_CLOSED_FORMS = {
    TheoryVariant.CASE_A: _case_a,
    TheoryVariant.CASE_B: _case_b,
    TheoryVariant.UNSUPERVISED: _unsupervised,
}


def closed_form(variant: TheoryVariant | str, params: ReducedParams) -> ClosedFormPrediction:
    """The variant's closed form at each point, marked on its regime boundary.

    Within ``DEGENERACY_EPS`` of the boundary the eigenbasis switches, so
    the eigenvalues, eigenbasis, count and separability are NaN there.  A
    marked count is a float, since NaN cannot be cast to ``int``.
    """
    variant = TheoryVariant(variant)
    eigenvalues, basis, count, sep, degenerate_pair = _CLOSED_FORMS[variant](params)
    on_boundary = np.asarray(np.abs(boundary_margin(variant, params)) <= DEGENERACY_EPS)
    cast = int
    if on_boundary.any():
        eigenvalues = np.where(on_boundary[..., None], np.nan, eigenvalues)
        basis = np.where(on_boundary[..., None, None], np.nan, basis)
        count, sep = np.where(on_boundary, np.nan, count), np.where(on_boundary, np.nan, sep)
        cast = float
    return ClosedFormPrediction(
        eigenvalues=eigenvalues,
        eigenbasis=basis,
        probing_error_count=_unstacked(count, cast),
        separability=_unstacked(sep),
        degenerate_pair=degenerate_pair,
    )


@dataclass(frozen=True)
class SeparabilityGap:
    """Gaps between the layouts' closed-form separabilities: gap_ab = a - b, gap_label = a - unsup."""

    gap_ab: float | np.ndarray
    gap_label: float | np.ndarray


@dataclass(frozen=True)
class ToyPipelineResult:
    embedding: SpectralEmbedding
    probing: ProbingResult
    separability: float | np.ndarray


def run_toy_pipeline(
    variant: TheoryVariant | str, params: ReducedParams, rho: float = 1.0, k: int = 3
) -> ToyPipelineResult:
    """Exact numeric chain at finite parameters: graph, spectrum, probe, metrics.

    Arrays of ratios run the chain once over the stack of their graphs.
    """
    variant = TheoryVariant(variant)
    weights = (
        THEORY_WEIGHTS["unsupervised"]
        if variant is TheoryVariant.UNSUPERVISED
        else THEORY_WEIGHTS["supervised"]
    )
    population, model = build_toy_population(
        variant,
        rho=rho,
        alpha=params.alpha_prime * rho,
        beta=params.beta_prime * rho,
        gamma=params.gamma_ratio * rho,
    )
    embedding = embed(_build_graph(model, population, weights), k)
    ev = evaluate(population, embedding.Z)
    return ToyPipelineResult(embedding=embedding, probing=ev.probing, separability=ev.separability)


@dataclass(frozen=True)
class QuantityComparison:
    name: str
    closed: float | np.ndarray
    numeric: float | np.ndarray
    abs_dev: float | np.ndarray
    rel_dev: float | np.ndarray
    tolerance: Optional[float | np.ndarray]

    @property
    def passed(self) -> bool:
        if self.tolerance is None:
            return True
        return bool(np.all(self.abs_dev <= self.tolerance))


@dataclass(frozen=True)
class VerificationReport:
    variant: TheoryVariant
    comparisons: tuple[QuantityComparison, ...]
    gaps: SeparabilityGap

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)


def _compare(
    name: str, closed, numeric, tolerance, relative: bool = True
) -> QuantityComparison:
    dev = np.abs(np.subtract(closed, numeric, dtype=float))
    rel = dev / np.maximum(np.abs(closed), 1e-300) if relative else dev
    return QuantityComparison(
        name=name,
        closed=_unstacked(closed),
        numeric=_unstacked(numeric),
        abs_dev=_unstacked(dev),
        rel_dev=_unstacked(rel),
        tolerance=None if tolerance is None else _unstacked(tolerance),
    )


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each trailing matrix, as ``np.linalg.norm`` sums it."""
    f = x.reshape(x.shape[:-2] + (1, -1))
    return np.sqrt(f @ np.swapaxes(f, -1, -2))[..., 0, 0]


def _projector_deviation(
    closed: ClosedFormPrediction, embedding: SpectralEmbedding
) -> float | np.ndarray:
    v, b = embedding.V_k, closed.eigenbasis

    def outer(m, i):
        return m[..., :, i, None] * m[..., None, :, i]

    if closed.degenerate_pair:
        pair = _frobenius(v[..., :2] @ np.swapaxes(v[..., :2], -1, -2) - closed.top_pair_projector)
        third = _frobenius(outer(v, 2) - closed.third_projector)
        return _unstacked(np.maximum(pair, third))
    devs = [_frobenius(outer(v, i) - outer(b, i)) for i in range(3)]
    return _unstacked(np.max(devs, axis=0))


def _require_connected(params: ReducedParams) -> None:
    if np.any(np.asarray(params.gamma_ratio) <= 0):
        raise ValueError("pipeline comparison needs gamma_ratio > 0 to keep the graph connected")


def verify_against_pipeline(
    variant: TheoryVariant | str,
    params: ReducedParams,
    rho: float = 1.0,
    tolerance_scale: float = 1.0,
) -> VerificationReport:
    """Compare closed-form predictions against the exact numeric chain.

    Eigenvalue gates cover the leading three values (the ones the embedding
    keeps); the trailing two are reported without a gate because the
    first-order formulas degrade quadratically in the ratios.  The
    eigenvalue gate follows the measured second-order envelope,
    20 ((a' + b')^2 + g), floored at 0.01 for small ratios.  Separability
    is gated at ``SEPARABILITY_TOLERANCE`` of the closed form and the
    projectors at ``PROJECTOR_TOLERANCE``; these three gates are multiplied
    by ``tolerance_scale``.  The probing error count must match exactly.

    Arrays of ratios run the numeric chain once over the stack of graphs,
    and :func:`closed_form` is called once per layout, for both the
    comparisons and ``gaps``.  Ill-posed points are marked, not refused:
    where the closed form is NaN on its regime boundary, so are the closed
    values and the projector deviation; where k cuts a tied
    eigenspace (numeric lambda_k and lambda_{k+1} within
    ``EIGENVALUE_TIE``) the numeric count and separability are NaN; a NaN
    fails its gate.  The gaps are NaN wherever case a or the unsupervised
    layout is degenerate.  Each entry depends on its own point alone, not
    on the other points in ``params``.
    """
    variant = TheoryVariant(variant)
    _require_connected(params)
    forms = {v: closed_form(v, params) for v in _CLOSED_FORMS}
    closed = forms[variant]
    numeric = run_toy_pipeline(variant, params, rho=rho)
    lam, k = numeric.embedding.eigenvalues, numeric.embedding.k
    untied = np.abs(lam[..., k - 1] - lam[..., k]) > EIGENVALUE_TIE
    envelope = _square(params.alpha_prime + params.beta_prime) + params.gamma_ratio
    eig_gate = np.maximum(0.01, 20.0 * envelope)
    sep_c = closed.separability
    comparisons = [
        _compare(f"eigenvalue_{i + 1}", closed.eigenvalues[..., i],
                 lam[..., i], eig_gate * tolerance_scale if i < 3 else None)
        for i in range(5)
    ] + [
        _compare("probing_error_count", closed.probing_error_count,
                 np.where(untied, numeric.probing.count, np.nan), 0.0, relative=False),
        _compare("separability", sep_c, np.where(untied, numeric.separability, np.nan),
                 SEPARABILITY_TOLERANCE * tolerance_scale * np.maximum(np.abs(sep_c), 1e-300)),
        _compare("projector_deviation", 0.0, _projector_deviation(closed, numeric.embedding),
                 PROJECTOR_TOLERANCE * tolerance_scale, relative=False),
    ]
    # case b has no boundary, so its gap to case a is masked where unsup is degenerate too
    s_a, s_b, s_u = (form.separability for form in forms.values())
    gap_label = np.subtract(s_a, s_u)
    gap_ab = np.where(np.isnan(gap_label), np.nan, np.subtract(s_a, s_b))
    gaps = SeparabilityGap(gap_ab=_unstacked(gap_ab), gap_label=_unstacked(gap_label))
    return VerificationReport(variant=variant, comparisons=tuple(comparisons), gaps=gaps)
