"""Finite populations of natural examples, stored as cells, and their augmentation models.

A population is an exactly enumerable set of "natural" examples, each
carrying a class label, a domain label, and a membership tag saying which
split it belongs to (labeled in-distribution, wild in-distribution, wild
covariate-shifted, wild semantic-shifted).  It is stored as a list of
cells: a cell is a run of ``count`` examples that share all three tags,
and vertex i of the graph is the i-th example when the runs are laid end
to end.  An enumerated config keeps its cells as written; a sampled wild
mixture is its labeled cells followed by one count-1 cell per drawn wild
example; a toy layout is five count-1 cells.  One rule set
(:func:`_check_cells`) covers all of them.  Each count is stored once, on
its cell, and no array is kept per example.  Examples that share all three
tags are interchangeable under the four-parameter rule below, so
:meth:`Population.groups` merges such cells, summing their counts; the
graph is then solved on one row per merged cell, weighed by its count.  An
augmentation model assigns every (source, view) pair a nonnegative
transformation probability, either through an explicit matrix over the
examples or through the four-parameter rule

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
class Cell:
    """A run of ``count`` examples sharing a class, a domain and a membership."""

    class_label: int
    domain_label: int
    membership: Membership
    count: int


def _check_cells(
    classes: tuple[int, ...], domains: tuple[int, ...], cells: tuple[Cell, ...]
) -> None:
    """The one rule set for the cells of every spec and population; domains[0] is the ID domain."""
    if not classes:
        raise PopulationError("population has no known classes")
    if not domains:
        raise PopulationError("population has no domains")
    if len(set(classes)) != len(classes):
        raise PopulationError(f"duplicate class ids in {classes}")
    if len(set(domains)) != len(domains):
        raise PopulationError(f"duplicate domain ids in {domains}")
    if not cells:
        raise PopulationError("population has no cells")
    for i, cell in enumerate(cells):
        if cell.count <= 0:
            raise PopulationError(f"cell {i} has nonpositive count {cell.count}")
        if (cell.class_label not in classes) != (cell.membership is Membership.WILD_SEMANTIC):
            raise PopulationError(
                f"cell {i}: novel class ids and WILD_SEMANTIC membership must "
                f"coincide (class={cell.class_label}, membership={cell.membership.value})"
            )
        if cell.domain_label not in domains:
            raise PopulationError(f"cell {i} uses unknown domain id {cell.domain_label}")
        in_distribution = cell.membership in (Membership.LABELED_ID, Membership.WILD_ID)
        if in_distribution and cell.domain_label != domains[0]:
            raise PopulationError(
                f"cell {i}: {cell.membership.value} examples must live in the "
                f"ID domain {domains[0]}, got domain {cell.domain_label}"
            )


@dataclass(frozen=True)
class Population:
    """Immutable population: known classes, domains, and cells in vertex order.

    ``classes`` lists the known class ids; ``domains`` lists the domain ids,
    the first being the ID domain.  Vertex i is the i-th example of the
    cells' runs laid end to end, and the cells obey :func:`_check_cells`.
    """

    classes: tuple[int, ...]
    domains: tuple[int, ...]
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        _check_cells(self.classes, self.domains, self.cells)

    def __len__(self) -> int:
        return sum(cell.count for cell in self.cells)

    def groups(self) -> Population:
        """Cells with equal (class, domain, membership) merged, their counts summed.

        The merged cells follow the order of their first cell.
        """
        counts: dict[tuple, int] = {}
        for c in self.cells:
            key = (c.class_label, c.domain_label, c.membership)
            counts[key] = counts.get(key, 0) + c.count
        return Population(
            self.classes, self.domains, tuple(Cell(*key, n) for key, n in counts.items())
        )

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The cell of each of ``n`` matrix rows, and the examples each row stands for.

        A matrix over the cells has one row per cell, standing for its
        count.  An explicit matrix has one row per example, in vertex order,
        standing for one; the two agree when every count is 1.
        """
        counts = np.array([cell.count for cell in self.cells])
        if n == counts.size:
            return np.arange(n), counts
        if n != counts.sum():
            raise PopulationError(
                f"{n} matrix rows fit neither the {counts.size} cells nor the "
                f"{counts.sum()} examples of the population"
            )
        return np.repeat(np.arange(counts.size), counts), np.ones(n, dtype=int)


@dataclass(frozen=True)
class ParametricAugmentation:
    """Four-parameter transformation rule; see the module docstring.

    Each parameter is a number or an array of them; arrays broadcast
    against each other and describe a stack of models, one per entry.
    """

    rho: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("rho", "alpha", "beta", "gamma"):
            v = np.asarray(getattr(self, name), dtype=float)
            bad = ~(np.isfinite(v) & (v >= 0))
            if np.any(bad):
                raise PopulationError(
                    f"augmentation parameter {name} must be finite and nonnegative, "
                    f"got {v[bad].flat[0]}"
                )


@dataclass(frozen=True)
class ExplicitAugmentation:
    """Explicit nonnegative transformation matrix, sources by views.

    Leading axes, if any, stack one matrix per model.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim < 2:
            raise PopulationError(
                f"transformation matrix must have at least two axes, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise PopulationError("transformation matrix entries must be finite and nonnegative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


# A types.UnionType: unlike typing.Union[...], it is not memoised in a
# process-wide cache that would keep this module alive after a re-import.
AugmentationModel = ParametricAugmentation | ExplicitAugmentation


def transformation_matrix(model: AugmentationModel, population: Population) -> np.ndarray:
    """Expand ``model`` into a matrix aligned with ``population``.

    A parametric model gives one row and one column per cell, each entry
    one of rho, alpha, beta, gamma as selected by class/domain agreement;
    array-valued parameters give a stack of such matrices along their
    leading axes.  An explicit model has one row and one column per
    example; it is checked for that shape and returned as-is.
    """
    if isinstance(model, ExplicitAugmentation):
        rows, columns = model.matrix.shape[-2:]
        if rows != len(population):
            raise PopulationError(
                f"transformation matrix has {rows} source rows "
                f"for a population of {len(population)} examples"
            )
        if columns != rows:
            raise PopulationError(
                f"transformation matrix has {columns} view columns for {rows} source rows: "
                f"the views are the examples, so it must be square"
            )
        return model.matrix
    cls = np.array([cell.class_label for cell in population.cells])
    dom = np.array([cell.domain_label for cell in population.cells])
    class_match = cls[:, None] == cls[None, :]
    domain_match = dom[:, None] == dom[None, :]
    rho, alpha, beta, gamma = (
        np.asarray(v, dtype=float)[..., None, None]
        for v in (model.rho, model.alpha, model.beta, model.gamma)
    )
    t = np.where(
        class_match,
        np.where(domain_match, rho, alpha),
        np.where(domain_match, beta, gamma),
    )
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative layout: known classes, domains, cells and mixture fractions.

    The cells obey the same rules as a :class:`Population`'s.  ``pi_c`` and
    ``pi_s`` are the covariate and semantic fractions used only by
    :func:`sample_wild_mixture`; exact enumerations ignore them.
    """

    classes: tuple[int, ...]
    domains: tuple[int, ...]
    cells: tuple[Cell, ...]
    pi_c: float = 0.0
    pi_s: float = 0.0

    def __post_init__(self) -> None:
        _check_cells(self.classes, self.domains, self.cells)
        if not (0.0 <= self.pi_c <= 1.0 and 0.0 <= self.pi_s <= 1.0):
            raise PopulationError("mixture fractions must lie in [0, 1]")
        if self.pi_c + self.pi_s > 1.0 + 1e-12:
            raise PopulationError(
                f"mixture fractions sum to {self.pi_c + self.pi_s}, must be <= 1"
            )


def _toy_examples(variant: TheoryVariant) -> Population:
    # Five examples in fixed order: two labeled ID in the ID domain, two
    # covariate-shifted ones in a second domain, one novel-class example.
    # The unsupervised case shares case a's layout.
    own_domain = variant is not TheoryVariant.CASE_B
    semantic_domain = 2 if own_domain else 1
    domains = (0, 1, 2) if own_domain else (0, 1)
    cells = (
        Cell(0, 0, Membership.LABELED_ID, 1),
        Cell(1, 0, Membership.LABELED_ID, 1),
        Cell(0, 1, Membership.WILD_COVARIATE, 1),
        Cell(1, 1, Membership.WILD_COVARIATE, 1),
        Cell(2, semantic_domain, Membership.WILD_SEMANTIC, 1),
    )
    return Population(classes=(0, 1), domains=domains, cells=cells)


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
    """Exact enumeration of the spec: its cells, in cell order."""
    return Population(classes=spec.classes, domains=spec.domains, cells=spec.cells)


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

    Labeled cells are kept as they are.  The wild cells only size the wild
    pool; each wild example is then assigned a membership so that the
    covariate/semantic fractions match pi_c and pi_s (see
    :func:`mixture_counts`), a uniformly random known class (novel class for
    semantic examples), and a uniformly random non-ID domain where the
    membership requires one, and appended as a count-1 cell.  Deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    wild_kinds = (Membership.WILD_ID, Membership.WILD_COVARIATE, Membership.WILD_SEMANTIC)
    total_wild = sum(c.count for c in spec.cells if c.membership in wild_kinds)
    m_c, m_s, m_id = mixture_counts(total_wild, spec.pi_c, spec.pi_s)

    id_domain = spec.domains[0]
    shifted_domains = [d for d in spec.domains if d != id_domain]
    if (m_c or m_s) and not shifted_domains:
        raise PopulationError("covariate or semantic examples need a non-ID domain")
    novel_class = max(spec.classes) + 1

    cells = [cell for cell in spec.cells if cell.membership is Membership.LABELED_ID]
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
            dom = id_domain
        elif kind is Membership.WILD_COVARIATE:
            cls = int(rng.choice(spec.classes))
            dom = int(rng.choice(shifted_domains))
        else:
            cls = novel_class
            dom = int(rng.choice(shifted_domains))
        cells.append(Cell(cls, dom, kind, 1))
    return Population(classes=spec.classes, domains=spec.domains, cells=tuple(cells))


def _integer(value: object, key: str) -> int:
    # JSON has one number type: 6.7 or true must not pass for a count or an id.
    if isinstance(value, bool) or not isinstance(value, int):
        raise PopulationError(f"'{key}' must be an integer, got {json.dumps(value)}")
    return value


def _number(value: object, key: str) -> float:
    # float("0.1") and float(True) must not pass for a rate or a fraction.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PopulationError(f"'{key}' must be a number, got {json.dumps(value)}")
    return float(value)


def load_population_config(source: str | Path | dict) -> tuple[PopulationSpec, AugmentationModel]:
    """Parse the JSON population config.

    Expected shape::

        {"classes": [...], "domains": [...],
         "cells": [{"class": int, "domain": int,
                    "membership": "labeled_id|wild_id|wild_covariate|wild_semantic",
                    "count": int}, ...],
         "augmentation": {"rho": f, "alpha": f, "beta": f, "gamma": f},
         "pi_c": f, "pi_s": f}

    Ids and counts must be JSON integers, and the augmentation parameters
    and fractions JSON numbers.  An explicit matrix may replace the
    parametric block via ``{"augmentation_matrix": [[...], ...]}``.
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

    def require_list(key: str) -> list:
        value = require(key)
        if not isinstance(value, list):
            raise PopulationError(f"'{key}' must be a list, got {json.dumps(value)}")
        return value

    classes = tuple(_integer(c, "classes") for c in require_list("classes"))
    domains = tuple(_integer(d, "domains") for d in require_list("domains"))
    cells = []
    for i, entry in enumerate(require_list("cells")):
        try:
            if not isinstance(entry, dict):
                raise PopulationError(f"expected an object, got {json.dumps(entry)}")
            cells.append(
                Cell(
                    class_label=_integer(entry["class"], "class"),
                    domain_label=_integer(entry["domain"], "domain"),
                    membership=Membership(entry["membership"]),
                    count=_integer(entry["count"], "count"),
                )
            )
        except (KeyError, ValueError) as exc:
            raise PopulationError(f"cells[{i}] is malformed: {exc}") from exc
    spec = PopulationSpec(
        classes=classes,
        domains=domains,
        cells=tuple(cells),
        pi_c=_number(raw.get("pi_c", 0.0), "pi_c"),
        pi_s=_number(raw.get("pi_s", 0.0), "pi_s"),
    )

    if "augmentation_matrix" in raw:
        rows = raw["augmentation_matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise PopulationError(
                f"augmentation_matrix must be a list of rows, got {json.dumps(rows)[:80]}"
            )
        # One set of entry types, so the common all-number case costs one pass.
        if not {type(v) for row in rows for v in row} <= {int, float}:
            for row in rows:
                for v in row:
                    _number(v, "augmentation_matrix")
        try:
            matrix = np.array(rows, dtype=float)
        except ValueError as exc:
            raise PopulationError(f"augmentation_matrix is malformed: {exc}") from exc
        model: AugmentationModel = ExplicitAugmentation(matrix)
    else:
        aug = require("augmentation")
        try:
            model = ParametricAugmentation(
                **{key: _number(aug[key], key) for key in ("rho", "alpha", "beta", "gamma")}
            )
        except (KeyError, TypeError) as exc:
            raise PopulationError(f"augmentation block is malformed: {exc}") from exc
    return spec, model
