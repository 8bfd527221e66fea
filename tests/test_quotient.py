"""Metamorphic checks of the cell-quotient engine.

``detect`` solves a parametric population on its g x g quotient over
groups of interchangeable examples and weighs every metric by the groups'
sizes.  The same cells under their expanded ``augmentation_matrix`` have
no groups to merge, so that run is the dense per-example computation.
Over random layouts of 2-4 classes with counts 1-6:

(a) the quotient agrees with the dense run;
(b) multiplying every count by m leaves rates and distances unchanged and
    multiplies the example count by m;
(c) permuting the cells leaves every metric unchanged;
(d) the lifted eigenvectors are eigenvectors of the expanded A_tilde;
(e) scaling eta_u and eta_l by a common factor leaves every metric
    unchanged, within 1e-12 relative;
(f) permuting the examples of a noisy explicit matrix within their cells
    leaves the spectrum, every metric and factorize's spectral optimum;
(g) on small blow-ups (counts 1-4), the matrix loss, its gradient and the
    five surrogate sums on the quotient equal the vertex-level ones
    through an explicit expansion, and a descent on the quotient reaches
    the vertex-level spectral optimum;
(h) multiplying every count by m leaves factorize's and loss-check's
    seeded reports unchanged, since both draw over the groups.

Rates and distances are compared within 1e-9 relative, counts exactly.
Labeled counts differ between classes, so that no class permutation is a
symmetry of the graph (which could tie eigenvalues at k or the class
scores of the plain argmax), and layouts whose eigengap at k is not clear
of rounding are skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildgraph import (
    ExplicitAugmentation,
    FactorizerOptions,
    GraphWeights,
    build_graph,
    embed,
    enumerate_population,
    load_population_config,
    lowrank_factorize,
    matrix_loss,
    surrogate_loss_from_parts,
    transformation_matrix,
)
from wildgraph.cli import main
from vertex_level import indicator, split

REL = 1e-9
WEIGHTS = GraphWeights(5.0, 1.0)


@st.composite
def layouts(draw):
    """A parametric detect config: labeled, wild-ID, covariate and semantic cells."""
    n_classes = draw(st.integers(2, 4))
    shifted = draw(st.integers(1, 2))
    counts = st.integers(1, 6)
    labeled = draw(st.permutations(range(1, 7)))[:n_classes]
    cells = [(c, 0, "labeled_id", labeled[c]) for c in range(n_classes)]
    for c in range(n_classes):
        if draw(st.booleans()):
            cells.append((c, 0, "wild_id", draw(counts)))
        cells.append((c, draw(st.integers(1, shifted)), "wild_covariate", draw(counts)))
    cells.append((n_classes, draw(st.integers(1, shifted)), "wild_semantic", draw(counts)))
    rho = draw(st.floats(0.5, 2.0))
    return {
        "classes": list(range(n_classes)),
        "domains": list(range(shifted + 1)),
        "cells": [{"class": c, "domain": d, "membership": m, "count": n} for c, d, m, n in cells],
        "augmentation": {
            "rho": rho,
            "alpha": rho * draw(st.floats(0.01, 0.3)),
            "beta": rho * draw(st.floats(0.01, 0.3)),
            "gamma": rho * draw(st.floats(1e-3, 0.05)),
        },
    }


def _spectrum(config: dict, weights: GraphWeights = WEIGHTS) -> np.ndarray:
    """The descending spectrum of the config's quotient."""
    spec, model = load_population_config(config)
    bundle = build_graph(model, enumerate_population(spec), weights)
    root = np.sqrt(bundle.counts)
    return np.linalg.eigvalsh(root[:, None] * bundle.A_tilde_g * root)[::-1]


def _well_posed(config: dict, weights: GraphWeights = WEIGHTS) -> bool:
    """Rank at least k = C + 1, and a clear eigengap at k."""
    k = len(config["classes"]) + 1
    lam = _spectrum(config, weights)
    return lam.size > k and lam[k - 1] > 1e-6 and lam[k - 1] - lam[k] > 1e-6


def _run(command: str, config: dict, *flags: str) -> dict:
    """The command's JSON report on the config, without its config record."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), *flags, "--out", str(out)])
        assert code == 0
        report = out / "gaps.json" if command == "factorize" else out
        report = json.loads(report.read_text(encoding="utf-8"))
    del report["config"]
    return report


def _detect(config: dict, k_neighbors: int = 1, *flags: str) -> dict:
    return _run("detect", config, "--k-neighbors", str(k_neighbors), *flags)


def _assert_same(have: dict, want: dict, count_factor: int = 1, rel: float = REL) -> None:
    assert have.keys() == want.keys()
    for key, value in want.items():
        if key == "probing_error_count":
            assert have[key] == count_factor * value
        else:
            assert have[key] == pytest.approx(value, rel=rel, abs=1e-300), key


def _expanded(config: dict) -> dict:
    """The same cells under their parametric matrix, written out per example."""
    spec, model = load_population_config(config)
    matrix = transformation_matrix(model, split(enumerate_population(spec)))
    return dict({k: v for k, v in config.items() if k != "augmentation"},
                augmentation_matrix=matrix.tolist())


@settings(max_examples=40, deadline=None)
@given(layouts(), st.integers(1, 3))
def test_quotient_agrees_with_the_dense_run(config, k_neighbors):
    assume(_well_posed(config))
    labeled = sum(c["count"] for c in config["cells"] if c["membership"] == "labeled_id")
    assume(k_neighbors < labeled)
    _assert_same(_detect(config, k_neighbors), _detect(_expanded(config), k_neighbors))


@settings(max_examples=40, deadline=None)
@given(layouts(), st.sampled_from([2, 3, 7]))
def test_blow_up_leaves_rates_and_distances(config, m):
    # With one neighbour and at least two examples per labeled group, every
    # reference score is zero at both sizes and every query scores its
    # nearest reference group, so detection is size-free as well.
    config = dict(config, cells=[
        dict(c, count=c["count"] + 1) if c["membership"] == "labeled_id" else c
        for c in config["cells"]
    ])
    assume(_well_posed(config))
    grown = dict(config, cells=[dict(c, count=m * c["count"]) for c in config["cells"]])
    _assert_same(_detect(grown), _detect(config), count_factor=m)


@settings(max_examples=40, deadline=None)
@given(layouts(), st.randoms(use_true_random=False))
def test_cell_order_leaves_every_metric(config, random):
    assume(_well_posed(config))
    cells = list(config["cells"])
    random.shuffle(cells)
    _assert_same(_detect(dict(config, cells=cells)), _detect(config))


@settings(max_examples=40, deadline=None)
@given(layouts())
def test_lifted_vectors_are_eigenvectors_of_the_expanded_graph(config):
    assume(_well_posed(config))
    spec, model = load_population_config(config)
    population = enumerate_population(spec)
    bundle = build_graph(model, population, WEIGHTS)
    k = len(spec.classes) + 1
    embedding = embed(bundle, k)
    v = embedding.V_k[bundle.vertex_rows()]
    a = bundle.A_tilde
    residual = np.linalg.norm(a @ v - v * embedding.eigenvalues[:k])
    assert residual <= 1e-10 * np.linalg.norm(a)
    np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-10)
    # The expansion is the graph of the per-example matrix.
    examples = split(population)
    dense = build_graph(
        ExplicitAugmentation(transformation_matrix(model, examples)), examples, WEIGHTS
    )
    np.testing.assert_allclose(a, dense.A_tilde, rtol=0.0, atol=1e-14)



@settings(max_examples=40, deadline=None)
@given(layouts(), st.floats(0.5, 10.0), st.floats(0.1, 5.0), st.floats(1e-3, 1e3))
def test_common_edge_weight_scale_leaves_every_metric(config, eta_u, eta_l, scale):
    # A_tilde = D^-1/2 A D^-1/2 with A = (eta_u A_u + eta_l A_l) / C, and C
    # carries the common factor.
    assume(_well_posed(config, GraphWeights(eta_u, eta_l)))
    base = _detect(config, 1, "--eta-u", repr(eta_u), "--eta-l", repr(eta_l))
    scaled = _detect(config, 1, "--eta-u", repr(scale * eta_u), "--eta-l", repr(scale * eta_l))
    _assert_same(scaled, base, rel=1e-12)


def _noisy_explicit(config: dict, seed: int) -> dict:
    """The expanded matrix with seeded entrywise noise: no interchangeable examples."""
    expanded = _expanded(config)
    matrix = np.array(expanded["augmentation_matrix"])
    noise = np.random.default_rng(seed).uniform(-0.2, 0.2, matrix.shape)
    return dict(expanded, augmentation_matrix=(matrix * (1.0 + noise)).tolist())


def _within_cells(config: dict, random) -> np.ndarray:
    """A permutation of the examples that keeps each one among its cell's rows."""
    order, start = [], 0
    for cell in config["cells"]:
        block = list(range(start, start + cell["count"]))
        random.shuffle(block)
        order += block
        start += cell["count"]
    return np.array(order)


@settings(max_examples=25, deadline=None)
@given(layouts(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_vertex_order_within_cells_leaves_an_explicit_matrix(config, seed, random):
    explicit = _noisy_explicit(config, seed)
    assume(_well_posed(explicit))
    order = _within_cells(config, random)
    matrix = np.array(explicit["augmentation_matrix"])
    permuted = dict(explicit, augmentation_matrix=matrix[np.ix_(order, order)].tolist())
    np.testing.assert_allclose(_spectrum(permuted), _spectrum(explicit), rtol=0, atol=1e-12)
    _assert_same(_detect(permuted), _detect(explicit))
    k = str(len(config["classes"]) + 1)
    optimum = [_run("factorize", c, "--k", k)["spectral_optimum"] for c in (permuted, explicit)]
    assert optimum[0] == pytest.approx(optimum[1], rel=REL)


@st.composite
def small_blow_ups(draw):
    """A layout whose cells hold 1-4 examples each."""
    config = draw(layouts())
    return dict(config, cells=[dict(c, count=draw(st.integers(1, 4))) for c in config["cells"]])


def _expansion(config: dict):
    """The config's bundle, its vertices-by-rows indicator E and the lift E diag(n)^-1/2."""
    spec, model = load_population_config(config)
    bundle = build_graph(model, enumerate_population(spec), WEIGHTS)
    e = indicator(bundle)
    return bundle, e, e / np.sqrt(bundle.counts)


@settings(max_examples=40, deadline=None)
@given(small_blow_ups(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_quotient_loss_gradient_and_sums_equal_the_expanded_ones(config, k, seed):
    bundle, e, lift = _expansion(config)
    a_tilde, a_u, a_l = (e @ m @ e.T for m in (bundle.A_tilde_g, bundle.A_u_g, bundle.A_l_g))
    h = np.random.default_rng(seed).standard_normal((e.shape[1], k))
    F = lift @ h
    assert matrix_loss(h, bundle.Q) == pytest.approx(matrix_loss(F, a_tilde), rel=1e-12)
    grad = 4.0 * (F @ F.T - a_tilde) @ F
    np.testing.assert_allclose(
        lift @ (4.0 * (h @ h.T - bundle.Q) @ h), grad, rtol=0, atol=1e-12 * np.abs(grad).max()
    )
    counts = bundle.counts
    have = surrogate_loss_from_parts(
        h / np.sqrt(counts * bundle.D_g)[:, None], bundle.A_u_g, bundle.A_l_g, WEIGHTS, counts
    )
    # The vertex-level sums through the N x N Gram of the lifted feature rows
    f = F / np.sqrt(e @ bundle.D_g)[:, None]
    gram, C = f @ f.T, float((WEIGHTS.eta_u * a_u + WEIGHTS.eta_l * a_l).sum())
    deg_l, deg_u = a_l.sum(axis=1), a_u.sum(axis=1)
    want = {
        "L1": float(np.sum(a_l * gram)) / C,
        "L2": float(np.sum(a_u * gram)) / C,
        "L3": float(deg_l @ gram**2 @ deg_l) / C**2,
        "L4": float(deg_l @ gram**2 @ deg_u) / C**2,
        "L5": float(deg_u @ gram**2 @ deg_u) / C**2,
    }
    for name, value in want.items():
        assert getattr(have, name) == pytest.approx(value, rel=1e-12, abs=1e-300), name


@settings(max_examples=25, deadline=None)
@given(small_blow_ups(), st.integers(0, 2**32 - 1))
def test_quotient_descent_reaches_the_vertex_level_optimum(config, seed):
    assume(_well_posed(config))
    bundle, e, lift = _expansion(config)
    k = len(config["classes"]) + 1
    a_tilde = e @ bundle.A_tilde_g @ e.T
    optimum = float(np.sum(np.linalg.eigvalsh(a_tilde)[::-1][k:] ** 2))
    state = lowrank_factorize(bundle.Q, k, FactorizerOptions(seed=seed))
    assert state.converged
    assert abs(state.final_loss - optimum) <= 1e-12
    assert abs(matrix_loss(lift @ state.F, a_tilde) - state.final_loss) <= 1e-12


LOSS_FIELDS = ("L1", "L2", "L3", "L4", "L5", "total", "matrix_loss", "constant")


@settings(max_examples=20, deadline=None)
@given(layouts(), st.sampled_from([2, 5]), st.integers(0, 100))
def test_blow_up_leaves_factorize_and_loss_check(config, m, seed):
    assume(_well_posed(config))
    grown = dict(config, cells=[dict(c, count=m * c["count"]) for c in config["cells"]])
    flags = ("--k", str(len(config["classes"]) + 1), "--seed", str(seed))
    have, want = _run("factorize", grown, *flags), _run("factorize", config, *flags)
    for key in ("final_loss", "spectral_optimum", "equivalence_constant"):
        assert have[key] == pytest.approx(want[key], rel=REL), key
    have, want = _run("loss-check", grown, *flags), _run("loss-check", config, *flags)
    for key in LOSS_FIELDS:
        assert have[key] == pytest.approx(want[key], rel=REL, abs=1e-300), key
