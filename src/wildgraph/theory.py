"""Closed-form predictions for the five-example populations.

Everything here is written in the reduced ratios a' = alpha/rho and
b' = beta/rho, with the cross probability treated as exactly zero and
second-order terms dropped.  The supervised layouts fix the edge weights at
eta_u = 5, eta_l = 1.  Three oracles are provided:

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
the third vector on its own.  :func:`verify_against_pipeline` runs the full
numeric chain at finite parameters and reports per-quantity deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import ProbingResult, evaluate
from .graph import GraphWeights, build_graph
from .population import TheoryVariant, build_toy_population
from .spectral import SpectralEmbedding, embed

__all__ = [
    "TheoryVariant",
    "ReducedParams",
    "ClosedFormPrediction",
    "SeparabilityGap",
    "QuantityComparison",
    "VerificationReport",
    "DegenerateRegimeError",
    "BOUNDARY_BAND",
    "THEORY_WEIGHTS",
    "closed_form_case_a",
    "closed_form_case_b",
    "closed_form_unsupervised",
    "closed_form",
    "separability_gap",
    "boundary_margin",
    "run_toy_pipeline",
    "verify_against_pipeline",
]

BOUNDARY_BAND = 0.005
DEGENERACY_EPS = 1e-9
THEORY_WEIGHTS = {"supervised": GraphWeights(5.0, 1.0), "unsupervised": GraphWeights(5.0, 0.0)}


class DegenerateRegimeError(ValueError):
    """Parameters sit on a regime boundary where the eigenbasis switches."""


@dataclass(frozen=True)
class ReducedParams:
    alpha_prime: float
    beta_prime: float
    gamma_ratio: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha_prime < 1.0 and 0.0 < self.beta_prime < 1.0):
            raise ValueError(
                f"reduced ratios must lie in (0, 1), got "
                f"({self.alpha_prime}, {self.beta_prime})"
            )
        if self.gamma_ratio < 0:
            raise ValueError(f"gamma_ratio must be nonnegative, got {self.gamma_ratio}")

    @property
    def case_a_margin(self) -> float:
        """Signed distance to the case-a regime boundary (9/8) a' = b'."""
        return 1.125 * self.alpha_prime - self.beta_prime

    @property
    def unsup_margin(self) -> float:
        """Signed distance to the unsupervised regime boundary a' = b'."""
        return self.alpha_prime - self.beta_prime


@dataclass(frozen=True)
class ClosedFormPrediction:
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    top_pair_projector: np.ndarray
    third_projector: np.ndarray
    probing_error_count: int
    separability: float
    degenerate_pair: bool

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "eigenbasis", "top_pair_projector", "third_projector"):
            getattr(self, name).setflags(write=False)


def boundary_margin(variant: TheoryVariant | str, params: ReducedParams) -> float:
    variant = TheoryVariant(variant)
    if variant is TheoryVariant.CASE_A:
        return params.case_a_margin
    if variant is TheoryVariant.UNSUPERVISED:
        return params.unsup_margin
    return math.inf


def _prediction(
    eigenvalues: np.ndarray,
    basis: np.ndarray,
    count: int,
    sep: float,
    degenerate_pair: bool,
) -> ClosedFormPrediction:
    pair = basis[:, :2] @ basis[:, :2].T
    third = np.outer(basis[:, 2], basis[:, 2])
    return ClosedFormPrediction(
        eigenvalues=eigenvalues,
        eigenbasis=basis,
        top_pair_projector=pair,
        third_projector=third,
        probing_error_count=count,
        separability=sep,
        degenerate_pair=degenerate_pair,
    )


def closed_form_case_a(params: ReducedParams) -> ClosedFormPrediction:
    ap, bp = params.alpha_prime, params.beta_prime
    if abs(params.case_a_margin) <= DEGENERACY_EPS:
        raise DegenerateRegimeError(
            f"degenerate regime: (9/8) alpha' = {1.125 * ap} coincides with beta' = {bp}"
        )
    normalization = 7.0 + 12.0 * bp + 12.0 * ap
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    v1 = np.array([s2, s2, 1.0, 1.0, 0.0]) / s6
    v2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    generalizes = params.case_a_margin > 0
    if generalizes:
        v3 = np.array([-s2, s2, -1.0, 1.0, 0.0]) / s6
        count = 0
        sep = normalization * ((1.0 - 2.0 * bp) / 3.0 * (1.0 - bp - 0.75 * ap) ** 2 + 1.0)
        third_value = 1.0 - 4.0 * bp
    else:
        v3 = np.array([-1.0, -1.0, s2, s2, 0.0]) / s6
        count = 2
        sep = normalization * ((2.0 - 3.0 * ap) / 8.0 * (1.0 - bp - 0.75 * ap) ** 2 + 1.0)
        third_value = 1.0 - 4.5 * ap
    eigenvalues = np.array(
        [1.0, 1.0, third_value, min(1.0 - 4.0 * bp, 1.0 - 4.5 * ap), 1.0 - 4.0 * bp - 4.5 * ap]
    )
    return _prediction(
        eigenvalues, np.column_stack([v1, v2, v3]), count, sep, True
    )


def _case_b_eigenvalues(ap: float, bp: float) -> np.ndarray:
    root_inner = math.sqrt(3.0) * math.sqrt(27.0 * ap**2 - 40.0 * ap * bp + 48.0 * bp**2)
    root_outer = math.sqrt(81.0 * ap**2 + 24.0 * ap * bp + 16.0 * bp**2)
    lam2 = 1.0 - 3.0 * bp + (root_inner - 9.0 * ap) / 4.0
    lam3 = 1.0 - 5.0 * bp + (root_outer - 9.0 * ap) / 4.0
    lam4 = 1.0 - 3.0 * bp - (root_inner + 9.0 * ap) / 4.0
    lam5 = 1.0 - 5.0 * bp - (root_outer + 9.0 * ap) / 4.0
    return np.array([1.0, lam2, lam3, lam4, lam5])


def _case_b_coeffs(ap: float, bp: float, lam: float) -> tuple[float, float, float]:
    a = math.sqrt(2.0) * (1.0 - 6.0 * bp - lam) / (8.0 * bp)
    b = (4.0 * bp - 1.0 + lam) / (4.0 * bp)
    c = math.sqrt(2.0) * (1.0 - 3.0 * ap - 6.0 * bp - lam) / (3.0 * ap)
    return a, b, c


def closed_form_case_b(params: ReducedParams) -> ClosedFormPrediction:
    ap, bp = params.alpha_prime, params.beta_prime
    normalization = 7.0 + 20.0 * bp + 12.0 * ap
    eigenvalues = _case_b_eigenvalues(ap, bp)
    lam2, lam3 = float(eigenvalues[1]), float(eigenvalues[2])
    a2, b2, _ = _case_b_coeffs(ap, bp, lam2)
    _, _, c3 = _case_b_coeffs(ap, bp, lam3)
    s2, s7 = math.sqrt(2.0), math.sqrt(7.0)
    norm2 = math.sqrt(2.0 * a2**2 + 2.0 * b2**2 + 1.0)
    norm3 = math.sqrt(2.0 * c3**2 + 2.0)
    v1 = np.array([s2, s2, 1.0, 1.0, 1.0]) / s7
    v2 = np.array([a2, a2, b2, b2, 1.0]) / norm2
    v3 = np.array([c3, -c3, -1.0, 1.0, 0.0]) / norm3

    # Feature rows of one ID example and the novel-class example; the other
    # ID row only flips the third component, which the novel row lacks.
    scale_id = (1.0 - bp - 0.75 * ap) * math.sqrt(normalization) / s2
    z_id = scale_id * np.array(
        [s2 / s7, a2 * math.sqrt(max(lam2, 0.0)) / norm2, c3 * math.sqrt(max(lam3, 0.0)) / norm3]
    )
    z_sem = (1.0 - 2.0 * bp) * math.sqrt(normalization) * np.array(
        [1.0 / s7, math.sqrt(max(lam2, 0.0)) / norm2, 0.0]
    )
    sep = float(np.sum((z_id - z_sem) ** 2))
    return _prediction(eigenvalues, np.column_stack([v1, v2, v3]), 0, sep, False)


def closed_form_unsupervised(params: ReducedParams) -> ClosedFormPrediction:
    ap, bp = params.alpha_prime, params.beta_prime
    if abs(params.unsup_margin) <= DEGENERACY_EPS:
        raise DegenerateRegimeError(
            f"degenerate regime: alpha' = beta' = {ap} without label information"
        )
    normalization = 5.0 + 8.0 * bp + 8.0 * ap
    v1 = np.array([1.0, 1.0, 1.0, 1.0, 0.0]) / 2.0
    v2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    generalizes = params.unsup_margin > 0
    if generalizes:
        v3 = np.array([-1.0, 1.0, -1.0, 1.0, 0.0]) / 2.0
        count = 0
        third_value = 1.0 - 4.0 * bp
        sep = normalization * ((1.0 - ap - bp) ** 2 * (1.0 - 2.0 * bp) / 2.0 + 1.0)
    else:
        v3 = np.array([-1.0, -1.0, 1.0, 1.0, 0.0]) / 2.0
        count = 2
        third_value = 1.0 - 4.0 * ap
        sep = normalization * ((1.0 - ap - bp) ** 2 * (1.0 - 2.0 * ap) / 2.0 + 1.0)
    eigenvalues = np.array(
        [1.0, 1.0, third_value, min(1.0 - 4.0 * bp, 1.0 - 4.0 * ap), 1.0 - 4.0 * ap - 4.0 * bp]
    )
    return _prediction(
        eigenvalues, np.column_stack([v1, v2, v3]), count, sep, True
    )


def closed_form(variant: TheoryVariant | str, params: ReducedParams) -> ClosedFormPrediction:
    variant = TheoryVariant(variant)
    if variant is TheoryVariant.CASE_A:
        return closed_form_case_a(params)
    if variant is TheoryVariant.CASE_B:
        return closed_form_case_b(params)
    return closed_form_unsupervised(params)


@dataclass(frozen=True)
class SeparabilityGap:
    s_case_a: float
    s_case_b: float
    s_unsup: float
    gap_ab: float
    gap_label: float


def separability_gap(params: ReducedParams) -> SeparabilityGap:
    """Closed-form separabilities of all three layouts and their differences.

    ``gap_ab`` contrasts the two novel-class placements; its sign flips
    across the ratio plane.  ``gap_label`` contrasts supervised against
    unsupervised edges on the same layout and stays positive whenever both
    ratios are positive.
    """
    s_a = closed_form_case_a(params).separability
    s_b = closed_form_case_b(params).separability
    s_u = closed_form_unsupervised(params).separability
    return SeparabilityGap(
        s_case_a=s_a, s_case_b=s_b, s_unsup=s_u, gap_ab=s_a - s_b, gap_label=s_a - s_u
    )


@dataclass(frozen=True)
class ToyPipelineResult:
    embedding: SpectralEmbedding
    probing: ProbingResult
    separability: float
    id_accuracy: float
    covariate_accuracy: float


def run_toy_pipeline(
    variant: TheoryVariant | str, params: ReducedParams, rho: float = 1.0, k: int = 3
) -> ToyPipelineResult:
    """Exact numeric chain at finite parameters: graph, spectrum, probe, metrics."""
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
    embedding = embed(build_graph(model, population, weights), k)
    ev = evaluate(population, embedding.Z)
    return ToyPipelineResult(
        embedding=embedding,
        probing=ev.probing,
        separability=ev.separability,
        id_accuracy=ev.id_accuracy,
        covariate_accuracy=ev.covariate_accuracy,
    )


@dataclass(frozen=True)
class QuantityComparison:
    name: str
    closed: float
    numeric: float
    abs_dev: float
    rel_dev: float
    tolerance: Optional[float]

    @property
    def passed(self) -> bool:
        if self.tolerance is None:
            return True
        return self.abs_dev <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    variant: TheoryVariant
    params: ReducedParams
    comparisons: tuple[QuantityComparison, ...]
    eig_dev_max: float
    projector_dev: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)


def _projector_deviation(
    closed: ClosedFormPrediction, embedding: SpectralEmbedding
) -> float:
    v = embedding.V_k
    if closed.degenerate_pair:
        pair = np.linalg.norm(v[:, :2] @ v[:, :2].T - closed.top_pair_projector)
        third = np.linalg.norm(np.outer(v[:, 2], v[:, 2]) - closed.third_projector)
        return float(max(pair, third))
    devs = [
        np.linalg.norm(np.outer(v[:, i], v[:, i]) - np.outer(closed.eigenbasis[:, i], closed.eigenbasis[:, i]))
        for i in range(3)
    ]
    return float(max(devs))


def verify_against_pipeline(
    variant: TheoryVariant | str,
    params: ReducedParams,
    rho: float = 1.0,
    tolerance_scale: float = 1.0,
    eig_tolerance: Optional[float] = None,
    sep_rel_tolerance: float = 0.05,
    projector_tolerance: float = 0.25,
) -> VerificationReport:
    """Compare closed-form predictions against the exact numeric chain.

    Eigenvalue gates cover the leading three values (the ones the embedding
    keeps); the trailing two are reported without a gate because the
    first-order formulas degrade quadratically in the ratios.  The default
    eigenvalue gate follows the measured second-order envelope,
    20 ((a' + b')^2 + g), floored at 0.01 for small ratios.  The probing
    error count must match exactly.
    """
    variant = TheoryVariant(variant)
    if params.gamma_ratio <= 0:
        raise ValueError("pipeline comparison needs gamma_ratio > 0 to keep the graph connected")
    if eig_tolerance is None:
        envelope = (params.alpha_prime + params.beta_prime) ** 2 + params.gamma_ratio
        eig_tolerance = max(0.01, 20.0 * envelope)
    closed = closed_form(variant, params)
    numeric = run_toy_pipeline(variant, params, rho=rho)
    lam = numeric.embedding.eigenvalues

    comparisons = []
    for i in range(5):
        gate = eig_tolerance * tolerance_scale if i < 3 else None
        c, n = float(closed.eigenvalues[i]), float(lam[i])
        comparisons.append(
            QuantityComparison(
                name=f"eigenvalue_{i + 1}",
                closed=c,
                numeric=n,
                abs_dev=abs(c - n),
                rel_dev=abs(c - n) / max(abs(c), 1e-300),
                tolerance=gate,
            )
        )
    count_c, count_n = closed.probing_error_count, numeric.probing.count
    comparisons.append(
        QuantityComparison(
            name="probing_error_count",
            closed=float(count_c),
            numeric=float(count_n),
            abs_dev=float(abs(count_c - count_n)),
            rel_dev=float(abs(count_c - count_n)),
            tolerance=0.0,
        )
    )
    sep_c, sep_n = closed.separability, numeric.separability
    comparisons.append(
        QuantityComparison(
            name="separability",
            closed=sep_c,
            numeric=sep_n,
            abs_dev=abs(sep_c - sep_n),
            rel_dev=abs(sep_c - sep_n) / max(abs(sep_c), 1e-300),
            tolerance=sep_rel_tolerance * tolerance_scale * max(abs(sep_c), 1e-300),
        )
    )
    projector_dev = _projector_deviation(closed, numeric.embedding)
    comparisons.append(
        QuantityComparison(
            name="projector_deviation",
            closed=0.0,
            numeric=projector_dev,
            abs_dev=projector_dev,
            rel_dev=projector_dev,
            tolerance=projector_tolerance * tolerance_scale,
        )
    )
    eig_dev_max = float(max(abs(closed.eigenvalues[i] - lam[i]) for i in range(3)))
    return VerificationReport(
        variant=variant,
        params=params,
        comparisons=tuple(comparisons),
        eig_dev_max=eig_dev_max,
        projector_dev=projector_dev,
    )
