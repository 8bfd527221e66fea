"""Augmentation-graph spectral embeddings and shift diagnostics.

Build a positive-pair graph over an exactly enumerable population of
labeled, wild in-distribution, covariate-shifted, and novel-class examples;
embed it spectrally two independent ways; and evaluate linear probing,
embedding separability, and KNN-distance detection, with closed-form
oracles for the five-example reference populations.
"""

from .population import (
    AugmentationModel,
    Cell,
    ExplicitAugmentation,
    Groups,
    Membership,
    ParametricAugmentation,
    Population,
    PopulationError,
    PopulationSpec,
    TheoryVariant,
    build_parametric_population,
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
    combine_and_normalize,
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
from .loss import (
    EquivalenceReport,
    LossBreakdown,
    equivalence_gap,
    matrix_loss,
    random_factors,
    surrogate_loss,
    surrogate_loss_from_parts,
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
from .theory import (
    BOUNDARY_BAND,
    ClosedFormPrediction,
    DegenerateRegimeError,
    ReducedParams,
    SeparabilityGap,
    VerificationReport,
    closed_form,
    run_toy_pipeline,
    separability_gap,
    verify_against_pipeline,
)

__version__ = "0.1.0"
