"""Augmentation-graph spectral embeddings and shift diagnostics.

Build a positive-pair graph over an exactly enumerable population of
labeled, wild in-distribution, covariate-shifted, and novel-class examples;
embed it spectrally two independent ways; and evaluate linear probing,
embedding separability, and KNN-distance detection, with closed-form
oracles for the five-example reference populations.

Each submodule's ``__all__`` is the one list of its public names, and the
package re-exports exactly those.  ``theory`` (the closed-form toy checks)
and ``loss`` (the contrastive-loss identity) are imported on first use of
one of their names (PEP 562), so a process that only detects or embeds
never loads them; their names are therefore also listed in ``_LAZY``,
which ``tests/test_imports.py`` keeps equal to their ``__all__``.
"""

import importlib

from .population import *
from .graph import *
from .spectral import *
from .evaluation import *

# Public names of the verification layers -> the module that owns them.
_LAZY = {
    **dict.fromkeys(
        (
            "LossBreakdown",
            "EquivalenceReport",
            "surrogate_loss_from_parts",
            "matrix_loss",
            "equivalence_gap",
        ),
        "loss",
    ),
    **dict.fromkeys(
        (
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
        ),
        "theory",
    ),
}

__all__ = [*population.__all__, *graph.__all__, *spectral.__all__, *evaluation.__all__, *_LAZY]

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
