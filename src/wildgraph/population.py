"""Finite populations of natural examples, stored as cells, and their augmentation models.

A population is an exactly enumerable set of "natural" examples, each
carrying a class label, a domain label, and a membership tag saying which
split it belongs to (labeled in-distribution, wild in-distribution, wild
covariate-shifted, wild semantic-shifted).  It is stored as a list of
cells: a cell is a run of ``count`` examples that share all three tags,
and vertex i of the graph is the i-th example when the runs are laid end
to end.  A config loads as the population of its cells as written, plus
the two fractions of the wild mixture; a sampled mixture keeps the labeled
cells and redraws each wild count from the config's own cells of that
membership; a toy layout is five count-1 cells.  One rule set
(:func:`_check_cells`) covers all of them.  Each count is stored
once, on its cell, and no array is kept per example.  Examples that share
all three tags are interchangeable under the four-parameter rule below, so
:meth:`Population.groups` merges such cells, summing their counts; the
graph is then solved on one row per merged cell, weighed by its count.  An
explicit matrix's rows are arbitrary, so it is solved on
:meth:`Population.examples`, one count-1 cell per example.  An
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
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Membership",
    "Population",
    "Cell",
    "ParametricAugmentation",
    "ExplicitAugmentation",
    "AugmentationModel",
    "TheoryVariant",
    "PopulationError",
    "transformation_matrix",
    "build_toy_population",
    "sample_wild_mixture",
    "load_population_config",
]


class PopulationError(ValueError):
    """A population, config, or augmentation model violates its contract."""


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
    """The one rule set for the cells of every population; domains[0] is the ID domain."""
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
    total = sum(cell.count for cell in cells)
    if total > sys.maxsize:
        raise PopulationError(
            f"population has {total} examples, more than the {sys.maxsize} "
            f"(sys.maxsize) that an int64 count can hold"
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

        The merged cells follow the order of their first cell.  When no two
        cells share a key, nothing merges and the population itself is
        returned.
        """
        counts: dict[tuple, int] = {}
        for c in self.cells:
            key = (c.class_label, c.domain_label, c.membership)
            counts[key] = counts.get(key, 0) + c.count
        if len(counts) == len(self.cells):
            return self
        return Population(
            self.classes, self.domains, tuple(Cell(*key, n) for key, n in counts.items())
        )

    def examples(self) -> Population:
        """Each example as its own count-1 cell, in vertex order."""
        cells = tuple(one for c in self.cells for one in (replace(c, count=1),) * c.count)
        return Population(self.classes, self.domains, cells)

    def counts(self) -> np.ndarray:
        """The examples each cell stands for, in cell order."""
        return np.array([cell.count for cell in self.cells])


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
    """Explicit nonnegative transformation matrix, sources by views."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise PopulationError(
                f"transformation matrix must have two axes, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise PopulationError("transformation matrix entries must be finite and nonnegative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


# A types.UnionType: unlike typing.Union[...], it is not memoised in a
# process-wide cache that would keep this module alive after a re-import.
AugmentationModel = ParametricAugmentation | ExplicitAugmentation


def _check_source_rows(model: ExplicitAugmentation, population: Population) -> None:
    """Refuse an explicit matrix without one source row per example, in O(cells)."""
    rows = model.matrix.shape[0]
    if rows != len(population):
        raise PopulationError(
            f"transformation matrix has {rows} source rows "
            f"for a population of {len(population)} examples"
        )


def transformation_matrix(model: AugmentationModel, population: Population) -> np.ndarray:
    """Expand ``model`` into a matrix aligned with ``population``.

    A parametric model gives one row and one column per cell, each entry
    one of rho, alpha, beta, gamma as selected by class/domain agreement;
    array-valued parameters give a stack of such matrices along their
    leading axes.  An explicit model has one row and one column per
    example, so it needs a population of count-1 cells
    (:meth:`Population.examples`); it is checked for that shape and
    returned as-is.
    """
    if isinstance(model, ExplicitAugmentation):
        _check_source_rows(model, population)
        rows, columns = model.matrix.shape
        if rows != len(population.cells):
            raise PopulationError(
                f"an explicit matrix needs one count-1 cell per example (Population.examples()), "
                f"got {rows} examples in {len(population.cells)} cells"
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
    rho: float | np.ndarray,
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
    gamma: float | np.ndarray,
) -> tuple[Population, ParametricAugmentation]:
    """Five-example population with its four-parameter model (a stack, for arrays)."""
    return _toy_examples(TheoryVariant(variant)), ParametricAugmentation(rho, alpha, beta, gamma)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _round_half_down(x: float) -> int:
    return int(math.ceil(x - 0.5))


def mixture_counts(total_wild: int, pi_c: float, pi_s: float) -> tuple[int, int, int]:
    """Split ``total_wild`` into (covariate, semantic, wild-ID) counts.

    Counts round pi*m to the nearest integer; exact halves go to covariate
    (half-up) and away from semantic (half-down), so a contested example
    lands on the covariate side.  Rounding, and the float product at large
    m, can overshoot the pool when the fractions sum to one: covariate is
    capped at the pool, and semantic at what covariate leaves.
    """
    m_c = min(_round_half_up(pi_c * total_wild), total_wild)
    m_s = min(_round_half_down(pi_s * total_wild), total_wild - m_c)
    return m_c, m_s, total_wild - m_c - m_s


def _check_fractions(pi_c: float, pi_s: float) -> None:
    if not (0.0 <= pi_c <= 1.0 and 0.0 <= pi_s <= 1.0):
        raise PopulationError("mixture fractions must lie in [0, 1]")
    if pi_c + pi_s > 1.0 + 1e-12:
        raise PopulationError(f"mixture fractions sum to {pi_c + pi_s}, must be <= 1")


def sample_wild_mixture(population: Population, pi_c: float, pi_s: float, seed: int) -> Population:
    """Random population whose wild part is the mixture with fractions ``pi_c`` and ``pi_s``.

    Labeled cells are kept as they are.  The wild cells size the wild
    pool, which :func:`mixture_counts` splits into wild-ID, covariate and
    semantic totals.  Each total is spread by one multinomial draw over
    the population's merged cells of that membership, with probabilities
    proportional to their counts; wild-ID falls back on the labeled cells
    when there is no wild-ID cell.  A nonzero total with no cell to draw
    from is refused.  The drawn cells follow the labeled ones, wild-ID,
    covariate and semantic in turn, at most one per merged cell.
    Deterministic for a fixed seed.
    """
    _check_fractions(pi_c, pi_s)
    rng = np.random.default_rng(seed)
    merged = population.groups().cells
    by_kind = {kind: [c for c in merged if c.membership is kind] for kind in Membership}
    m_c, m_s, m_id = mixture_counts(
        sum(c.count for c in merged if c.membership is not Membership.LABELED_ID), pi_c, pi_s
    )
    cells = [c for c in population.cells if c.membership is Membership.LABELED_ID]
    for kind, total, laws in (
        (Membership.WILD_ID, m_id, by_kind[Membership.WILD_ID] or by_kind[Membership.LABELED_ID]),
        (Membership.WILD_COVARIATE, m_c, by_kind[Membership.WILD_COVARIATE]),
        (Membership.WILD_SEMANTIC, m_s, by_kind[Membership.WILD_SEMANTIC]),
    ):
        if not total:
            continue
        if not laws:
            raise PopulationError(
                f"the mixture draws {total} {kind.value} examples, "
                f"but the config has no {kind.value} cell to draw them from"
            )
        weights = np.array([c.count for c in laws])
        drawn = rng.multinomial(total, weights / weights.sum())
        cells += [Cell(c.class_label, c.domain_label, kind, int(n)) for c, n in zip(laws, drawn) if n]
    return Population(population.classes, population.domains, tuple(cells))


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


def load_population_config(
    source: str | Path | dict,
) -> tuple[Population, AugmentationModel, tuple[float, float]]:
    """Parse the JSON population config into its cells, its model and ``(pi_c, pi_s)``.

    Expected shape::

        {"classes": [...], "domains": [...],
         "cells": [{"class": int, "domain": int,
                    "membership": "labeled_id|wild_id|wild_covariate|wild_semantic",
                    "count": int}, ...],
         "augmentation": {"rho": f, "alpha": f, "beta": f, "gamma": f},
         "pi_c": f, "pi_s": f}

    Ids and counts must be JSON integers, and the augmentation parameters
    and fractions JSON numbers.  An explicit matrix may replace the
    parametric block via ``{"augmentation_matrix": [[...], ...]}``, but not
    under a mixture (nonzero fractions), whose drawn cells the matrix's
    rows could not follow.
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
    fractions = (_number(raw.get("pi_c", 0.0), "pi_c"), _number(raw.get("pi_s", 0.0), "pi_s"))
    population = Population(classes=classes, domains=domains, cells=tuple(cells))
    _check_fractions(*fractions)

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
        if any(fractions):
            raise PopulationError("sampled populations need a parametric augmentation block")
    else:
        aug = require("augmentation")
        try:
            model = ParametricAugmentation(
                **{key: _number(aug[key], key) for key in ("rho", "alpha", "beta", "gamma")}
            )
        except (KeyError, TypeError) as exc:
            raise PopulationError(f"augmentation block is malformed: {exc}") from exc
    return population, model, fractions
