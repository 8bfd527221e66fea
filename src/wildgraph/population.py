"""Finite populations of natural examples and their augmentation models.

A population is an exactly enumerable set of "natural" examples, each
carrying a class label, a domain label, and a membership tag saying which
split it belongs to (labeled in-distribution, wild in-distribution, wild
covariate-shifted, wild semantic-shifted).  An augmentation model assigns
every (source, view) pair a nonnegative transformation probability, either
through an explicit matrix or through the four-parameter rule

    rho    same class, same domain
    alpha  same class, different domain
    beta   different class, same domain
    gamma  different class, different domain

Novel (semantic) classes are encoded as integer class ids outside the known
class list, so the class-match rule above applies uniformly with no special
cases.  Rows of a transformation matrix are raw probabilities and are not
normalized here; all normalization happens once, globally, when the graph
is assembled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Membership",
    "NaturalExample",
    "Population",
    "Cell",
    "PopulationSpec",
    "ParametricAugmentation",
    "ExplicitAugmentation",
    "AugmentationModel",
    "TheoryVariant",
    "PopulationError",
    "transformation_matrix",
    "enumerate_population",
    "build_toy_population",
    "build_parametric_population",
    "sample_wild_mixture",
    "load_population_config",
]


class PopulationError(ValueError):
    """A population, spec, or augmentation model violates its contract."""


class Membership(str, Enum):
    LABELED_ID = "labeled_id"
    WILD_ID = "wild_id"
    WILD_COVARIATE = "wild_covariate"
    WILD_SEMANTIC = "wild_semantic"


class TheoryVariant(str, Enum):
    """One of the paper's three five-example cases.

    CASE_A places the novel-class example in a domain of its own; CASE_B
    places it in the same domain as the covariate-shifted examples;
    UNSUPERVISED is case a's layout without labeled edges.
    """

    CASE_A = "a"
    CASE_B = "b"
    UNSUPERVISED = "unsup"


@dataclass(frozen=True)
class NaturalExample:
    index: int
    class_label: int
    domain_label: int
    membership: Membership


@dataclass(frozen=True)
class Population:
    """Immutable collection of natural examples.

    ``classes`` lists the known class ids; any example whose class id falls
    outside this list is a novel-class example and must be tagged
    WILD_SEMANTIC (and vice versa).  Labeled and wild in-distribution
    examples must live in ``id_domain``.
    """

    examples: tuple[NaturalExample, ...]
    classes: tuple[int, ...]
    domains: tuple[int, ...]
    id_domain: int

    def __post_init__(self) -> None:
        if not self.examples:
            raise PopulationError("population has no examples")
        if not self.classes:
            raise PopulationError("population has no known classes")
        known = set(self.classes)
        for ex in self.examples:
            novel = ex.class_label not in known
            semantic = ex.membership is Membership.WILD_SEMANTIC
            if novel != semantic:
                raise PopulationError(
                    f"example {ex.index}: novel class ids and WILD_SEMANTIC "
                    f"membership must coincide (class={ex.class_label}, "
                    f"membership={ex.membership.value})"
                )
            if ex.membership in (Membership.LABELED_ID, Membership.WILD_ID):
                if ex.domain_label != self.id_domain:
                    raise PopulationError(
                        f"example {ex.index}: {ex.membership.value} example "
                        f"must live in the ID domain {self.id_domain}, got "
                        f"domain {ex.domain_label}"
                    )

    def __len__(self) -> int:
        return len(self.examples)

    def indices(self, *memberships: Membership) -> list[int]:
        wanted = set(memberships)
        return [ex.index for ex in self.examples if ex.membership in wanted]

    def class_labels(self) -> np.ndarray:
        return np.array([ex.class_label for ex in self.examples], dtype=int)

    def domain_labels(self) -> np.ndarray:
        return np.array([ex.domain_label for ex in self.examples], dtype=int)

    def labeled_indices_by_class(self) -> dict[int, list[int]]:
        """Known classes mapped to their labeled example indices (present ones only)."""
        out: dict[int, list[int]] = {}
        for ex in self.examples:
            if ex.membership is Membership.LABELED_ID:
                out.setdefault(ex.class_label, []).append(ex.index)
        return out


@dataclass(frozen=True)
class ParametricAugmentation:
    """Four-parameter transformation rule; see the module docstring."""

    rho: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        vals = (self.rho, self.alpha, self.beta, self.gamma)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise PopulationError(
                f"augmentation parameters must be finite and nonnegative, got {vals}"
            )


@dataclass(frozen=True)
class ExplicitAugmentation:
    """Explicit nonnegative transformation matrix, sources by views."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise PopulationError(f"transformation matrix must be 2-D, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise PopulationError("transformation matrix entries must be finite and nonnegative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


# A types.UnionType: unlike typing.Union[...], it is not memoised in a
# process-wide cache that would keep this module alive after a re-import.
AugmentationModel = ParametricAugmentation | ExplicitAugmentation


def transformation_matrix(model: AugmentationModel, population: Population) -> np.ndarray:
    """Expand ``model`` into an explicit matrix aligned with ``population``.

    For a parametric model the result is square (views are the natural
    examples themselves) and every entry is one of rho, alpha, beta, gamma
    as selected by class/domain agreement.  An explicit model is checked for
    a matching source count and returned as-is.
    """
    if isinstance(model, ExplicitAugmentation):
        if model.matrix.shape[0] != len(population):
            raise PopulationError(
                f"transformation matrix has {model.matrix.shape[0]} source rows "
                f"for a population of {len(population)} examples"
            )
        return model.matrix
    cls = population.class_labels()
    dom = population.domain_labels()
    class_match = cls[:, None] == cls[None, :]
    domain_match = dom[:, None] == dom[None, :]
    t = np.where(
        class_match,
        np.where(domain_match, model.rho, model.alpha),
        np.where(domain_match, model.beta, model.gamma),
    ).astype(float)
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class Cell:
    class_label: int
    domain_label: int
    membership: Membership
    count: int


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative layout: known classes, domains, and per-cell counts.

    ``pi_c`` and ``pi_s`` are the covariate and semantic fractions used only
    by :func:`sample_wild_mixture`; exact enumerations ignore them.  The
    first listed domain is the ID domain.
    """

    classes: tuple[int, ...]
    domains: tuple[int, ...]
    cells: tuple[Cell, ...]
    pi_c: float = 0.0
    pi_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise PopulationError("spec has an empty class list")
        if not self.domains:
            raise PopulationError("spec has an empty domain list")
        if len(set(self.classes)) != len(self.classes):
            raise PopulationError("duplicate class ids in spec")
        if len(set(self.domains)) != len(self.domains):
            raise PopulationError("duplicate domain ids in spec")
        for cell in self.cells:
            if cell.count <= 0:
                raise PopulationError(f"cell {cell} has nonpositive count")
            known = cell.class_label in self.classes
            if cell.membership is Membership.WILD_SEMANTIC and known:
                raise PopulationError(
                    f"semantic cell {cell} must use a class id outside the known classes"
                )
            if cell.membership is not Membership.WILD_SEMANTIC and not known:
                raise PopulationError(f"cell {cell} uses unknown class id")
            if cell.domain_label not in self.domains:
                raise PopulationError(f"cell {cell} uses unknown domain id")
        if not (0.0 <= self.pi_c <= 1.0 and 0.0 <= self.pi_s <= 1.0):
            raise PopulationError("mixture fractions must lie in [0, 1]")
        if self.pi_c + self.pi_s > 1.0 + 1e-12:
            raise PopulationError(
                f"mixture fractions sum to {self.pi_c + self.pi_s}, must be <= 1"
            )

    @property
    def id_domain(self) -> int:
        return self.domains[0]


def _toy_examples(variant: TheoryVariant) -> Population:
    # Five examples in fixed order: two labeled ID in the ID domain, two
    # covariate-shifted ones in a second domain, one novel-class example.
    # The unsupervised case shares case a's layout.
    own_domain = variant is not TheoryVariant.CASE_B
    semantic_domain = 2 if own_domain else 1
    domains = (0, 1, 2) if own_domain else (0, 1)
    examples = (
        NaturalExample(0, 0, 0, Membership.LABELED_ID),
        NaturalExample(1, 1, 0, Membership.LABELED_ID),
        NaturalExample(2, 0, 1, Membership.WILD_COVARIATE),
        NaturalExample(3, 1, 1, Membership.WILD_COVARIATE),
        NaturalExample(4, 2, semantic_domain, Membership.WILD_SEMANTIC),
    )
    return Population(examples=examples, classes=(0, 1), domains=domains, id_domain=0)


def build_toy_population(
    variant: TheoryVariant | str,
    rho: float,
    alpha: float,
    beta: float,
    gamma: float,
) -> tuple[Population, ExplicitAugmentation]:
    """Five-example population with its 5x5 transformation matrix."""
    population = _toy_examples(TheoryVariant(variant))
    params = ParametricAugmentation(rho, alpha, beta, gamma)
    t = transformation_matrix(params, population)
    return population, ExplicitAugmentation(t)


def enumerate_population(spec: PopulationSpec) -> Population:
    """Exact enumeration of the spec's cells, in cell order."""
    examples = []
    index = 0
    for cell in spec.cells:
        for _ in range(cell.count):
            examples.append(
                NaturalExample(index, cell.class_label, cell.domain_label, cell.membership)
            )
            index += 1
    return Population(
        examples=tuple(examples),
        classes=spec.classes,
        domains=spec.domains,
        id_domain=spec.id_domain,
    )


def build_parametric_population(
    spec: PopulationSpec, params: ParametricAugmentation
) -> tuple[Population, ExplicitAugmentation]:
    """Enumerate ``spec`` exactly and expand the four-parameter rule over it."""
    population = enumerate_population(spec)
    t = transformation_matrix(params, population)
    return population, ExplicitAugmentation(t)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _round_half_down(x: float) -> int:
    return int(math.ceil(x - 0.5))


def mixture_counts(total_wild: int, pi_c: float, pi_s: float) -> tuple[int, int, int]:
    """Split ``total_wild`` into (covariate, semantic, wild-ID) counts.

    Counts round pi*m to the nearest integer; exact halves go to covariate
    (half-up) and away from semantic (half-down), so a contested example
    lands on the covariate side.
    """
    m_c = _round_half_up(pi_c * total_wild)
    m_s = _round_half_down(pi_s * total_wild)
    m_id = total_wild - m_c - m_s
    if m_id < 0:
        raise PopulationError(
            f"mixture fractions pi_c={pi_c}, pi_s={pi_s} overflow {total_wild} wild examples"
        )
    return m_c, m_s, m_id


def sample_wild_mixture(spec: PopulationSpec, seed: int) -> Population:
    """Random population whose wild part follows the spec's mixture fractions.

    Labeled cells are enumerated exactly.  The wild cells only size the wild
    pool; each wild example is then assigned a membership so that the
    covariate/semantic fractions match pi_c and pi_s (see
    :func:`mixture_counts`), a uniformly random known class (novel class for
    semantic examples), and a uniformly random non-ID domain where the
    membership requires one.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    wild_kinds = (Membership.WILD_ID, Membership.WILD_COVARIATE, Membership.WILD_SEMANTIC)
    total_wild = sum(c.count for c in spec.cells if c.membership in wild_kinds)
    m_c, m_s, m_id = mixture_counts(total_wild, spec.pi_c, spec.pi_s)

    shifted_domains = [d for d in spec.domains if d != spec.id_domain]
    if (m_c or m_s) and not shifted_domains:
        raise PopulationError("covariate or semantic examples need a non-ID domain")
    novel_class = max(spec.classes) + 1

    examples = []
    index = 0
    for cell in spec.cells:
        if cell.membership is Membership.LABELED_ID:
            for _ in range(cell.count):
                examples.append(
                    NaturalExample(index, cell.class_label, cell.domain_label, cell.membership)
                )
                index += 1

    memberships = (
        [Membership.WILD_COVARIATE] * m_c
        + [Membership.WILD_SEMANTIC] * m_s
        + [Membership.WILD_ID] * m_id
    )
    order = rng.permutation(total_wild)
    for pos in order:
        kind = memberships[pos]
        if kind is Membership.WILD_ID:
            cls = int(rng.choice(spec.classes))
            dom = spec.id_domain
        elif kind is Membership.WILD_COVARIATE:
            cls = int(rng.choice(spec.classes))
            dom = int(rng.choice(shifted_domains))
        else:
            cls = novel_class
            dom = int(rng.choice(shifted_domains))
        examples.append(NaturalExample(index, cls, dom, kind))
        index += 1

    return Population(
        examples=tuple(examples),
        classes=spec.classes,
        domains=spec.domains,
        id_domain=spec.id_domain,
    )


def load_population_config(source: str | Path | dict) -> tuple[PopulationSpec, AugmentationModel]:
    """Parse the JSON population config.

    Expected shape::

        {"classes": [...], "domains": [...],
         "cells": [{"class": int, "domain": int,
                    "membership": "labeled_id|wild_id|wild_covariate|wild_semantic",
                    "count": int}, ...],
         "augmentation": {"rho": f, "alpha": f, "beta": f, "gamma": f},
         "pi_c": f, "pi_s": f}

    An explicit matrix may replace the parametric block via
    ``{"augmentation_matrix": [[...], ...]}``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = source
    if not isinstance(raw, dict):
        raise PopulationError("population config must be a JSON object")

    def require(key: str):
        if key not in raw:
            raise PopulationError(f"population config is missing '{key}'")
        return raw[key]

    classes = tuple(int(c) for c in require("classes"))
    domains = tuple(int(d) for d in require("domains"))
    cells = []
    for i, entry in enumerate(require("cells")):
        try:
            cells.append(
                Cell(
                    class_label=int(entry["class"]),
                    domain_label=int(entry["domain"]),
                    membership=Membership(entry["membership"]),
                    count=int(entry["count"]),
                )
            )
        except (KeyError, ValueError) as exc:
            raise PopulationError(f"cells[{i}] is malformed: {exc}") from exc
    spec = PopulationSpec(
        classes=classes,
        domains=domains,
        cells=tuple(cells),
        pi_c=float(raw.get("pi_c", 0.0)),
        pi_s=float(raw.get("pi_s", 0.0)),
    )

    if "augmentation_matrix" in raw:
        model: AugmentationModel = ExplicitAugmentation(
            np.array(raw["augmentation_matrix"], dtype=float)
        )
    else:
        aug = require("augmentation")
        try:
            model = ParametricAugmentation(
                rho=float(aug["rho"]),
                alpha=float(aug["alpha"]),
                beta=float(aug["beta"]),
                gamma=float(aug["gamma"]),
            )
        except (KeyError, TypeError) as exc:
            raise PopulationError(f"augmentation block is malformed: {exc}") from exc
    return spec, model
