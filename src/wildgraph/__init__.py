"""Augmentation-graph spectral embeddings and shift diagnostics.

Build a positive-pair graph over an exactly enumerable population of
labeled, wild in-distribution, covariate-shifted, and novel-class examples;
embed it spectrally two independent ways; and evaluate linear probing,
embedding separability, and KNN-distance detection, with closed-form
oracles for the five-example reference populations.

``theory`` (the closed-form toy checks) and ``loss`` (the contrastive-loss
identity) are imported on first use of one of their names (PEP 562), so a
process that only detects or embeds never loads them.
"""

import importlib

from .population import (
    AugmentationModel,
    Cell,
    ExplicitAugmentation,
    Membership,
    ParametricAugmentation,
    Population,
    PopulationError,
    PopulationSpec,
    TheoryVariant,
    build_toy_population,
    enumerate_population,
    load_population_config,
    sample_wild_mixture,
    transformation_matrix,
)
from .graph import (
    GraphBundle,
    GraphError,
    GraphWeights,
    IsolatedVertexError,
    build_graph,
    self_supervised_adjacency,
    supervised_adjacency,
)
from .spectral import (
    AsymmetricMatrixError,
    EigensolverError,
    FactorizationState,
    FactorizerOptions,
    ReconstructionGap,
    SpectralEmbedding,
    SpectralError,
    closed_form_embedding,
    eigendecompose,
    embed,
    lowrank_factorize,
    reconstruction_gap,
)
from .evaluation import (
    DetectionMetrics,
    Evaluation,
    EvaluationError,
    KnnDetector,
    LinearProbe,
    MetricsReport,
    ProbingResult,
    auroc_midrank,
    classification_accuracy,
    detection_metrics,
    evaluate,
    fit_knn_detector,
    fit_linear_probe,
    knn_scores,
    predict,
    probing_error,
    separability,
)

# Re-exported names of the verification layers -> the module that owns them.
_LAZY = {
    **dict.fromkeys(
        (
            "EquivalenceReport",
            "LossBreakdown",
            "equivalence_gap",
            "matrix_loss",
            "random_factors",
            "surrogate_loss_from_parts",
        ),
        "loss",
    ),
    **dict.fromkeys(
        (
            "BOUNDARY_BAND",
            "ClosedFormPrediction",
            "DegenerateRegimeError",
            "ReducedParams",
            "SeparabilityGap",
            "VerificationReport",
            "closed_form",
            "run_toy_pipeline",
            "verify_against_pipeline",
        ),
        "theory",
    ),
}

__all__ = [
    "AugmentationModel",
    "Cell",
    "ExplicitAugmentation",
    "Membership",
    "ParametricAugmentation",
    "Population",
    "PopulationError",
    "PopulationSpec",
    "TheoryVariant",
    "build_toy_population",
    "enumerate_population",
    "load_population_config",
    "sample_wild_mixture",
    "transformation_matrix",
    "GraphBundle",
    "GraphError",
    "GraphWeights",
    "IsolatedVertexError",
    "build_graph",
    "self_supervised_adjacency",
    "supervised_adjacency",
    "AsymmetricMatrixError",
    "EigensolverError",
    "FactorizationState",
    "FactorizerOptions",
    "ReconstructionGap",
    "SpectralEmbedding",
    "SpectralError",
    "closed_form_embedding",
    "eigendecompose",
    "embed",
    "lowrank_factorize",
    "reconstruction_gap",
    "DetectionMetrics",
    "Evaluation",
    "EvaluationError",
    "KnnDetector",
    "LinearProbe",
    "MetricsReport",
    "ProbingResult",
    "auroc_midrank",
    "classification_accuracy",
    "detection_metrics",
    "evaluate",
    "fit_knn_detector",
    "fit_linear_probe",
    "knn_scores",
    "predict",
    "probing_error",
    "separability",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``theory`` or ``loss`` when one of its names is first asked for."""
    if name in ("loss", "theory"):
        return importlib.import_module(f"{__name__}.{name}")  # binds the submodule here
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, "loss", "theory"})
