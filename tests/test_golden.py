"""Golden corpus: CLI results recorded with the cyclic Jacobi eigensolver.

The corpus pins what the commands report, as numbers, so that a change of
eigensolver (or of any engine below the CLI) shows up as a changed result
rather than only as changed bytes.  It was written once from the Jacobi
implementation with

    PYTHONPATH=src python tests/test_golden.py --write

and must not be rewritten to make a later change pass; a deliberate change
of these numbers needs its own CHANGES.md entry.  ``--write`` adds only the
cases the corpus lacks: ``detect`` on a sampled mixture and on an explicit
matrix were added that way from the LAPACK ``eigh`` engine, before ``detect``
moved to the cell quotient, and ``factorize`` on explicit matrices of seeds 3
and 4 from the unscaled conjugate gradient, before the descent's gradients
were scaled by the k x k metric, and ``factorize`` and ``loss-check`` on the
README and three-class configs from the vertex-level factorizer and loss
sums, before both commands moved to the cell quotient.  ``detect`` on the
sampled mixture was recorded again, from the cell quotient, when the
sampler switched from one draw per wild example to one multinomial draw
per membership: the law is the same, the seeded sample is not.

Comparison: metrics within GOLDEN_RTOL relative, spectra elementwise within
SPECTRUM_ATOL times the largest eigenvalue, counts, flags and exit codes
exactly.  A toy point's projector deviation is compared within GOLDEN_RTOL
absolute: a projector has unit scale, and where the closed form is exact
(unsupervised layout) the deviation itself is rounding noise.  A
factorization's final loss is compared with the recorded spectral optimum,
the value any converged factorizer must reach, and not with the point where
the recorded run happened to stop.  Every case keeps k at an eigengap (no
tied eigenspace is cut), so the results are defined by whole eigenspaces and
not by the solver's basis.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from wildgraph import GraphWeights, build_graph, eigendecompose
from wildgraph.cli import _population_from_config, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "jacobi.json"
GOLDEN_RTOL = 1e-10
SPECTRUM_ATOL = 1e-12

README_CONFIG = {
    "classes": [0, 1],
    "domains": [0, 1],
    "cells": [
        {"class": 0, "domain": 0, "membership": "labeled_id", "count": 8},
        {"class": 1, "domain": 0, "membership": "labeled_id", "count": 8},
        {"class": 0, "domain": 1, "membership": "wild_covariate", "count": 6},
        {"class": 1, "domain": 1, "membership": "wild_covariate", "count": 6},
        {"class": 2, "domain": 1, "membership": "wild_semantic", "count": 6},
    ],
    "augmentation": {"rho": 1.0, "alpha": 0.1, "beta": 1e-4, "gamma": 1e-4},
    "pi_c": 0.0,
    "pi_s": 0.0,
}

# Three known classes with unequal counts over two shifted domains, with
# beta above alpha so that part of the covariate examples is misprobed.
THREE_CLASS_CONFIG = {
    "classes": [0, 1, 2],
    "domains": [0, 1, 2],
    "cells": [
        {"class": c, "domain": d, "membership": m, "count": n}
        for c, d, m, n in [
            (0, 0, "labeled_id", 7), (1, 0, "labeled_id", 4), (2, 0, "labeled_id", 9),
            (0, 0, "wild_id", 3), (2, 0, "wild_id", 5),
            (0, 1, "wild_covariate", 6), (1, 2, "wild_covariate", 2), (2, 1, "wild_covariate", 4),
            (3, 2, "wild_semantic", 5),
        ]
    ],
    "augmentation": {"rho": 1.0, "alpha": 0.03, "beta": 0.12, "gamma": 0.004},
}

# The README's cells resampled: its 18 wild examples become 5 covariate,
# 4 semantic and 9 wild-ID draws.
MIXTURE_CONFIG = dict(README_CONFIG, pi_c=0.3, pi_s=0.2)

# The same mixture over the paper's case a: the novel class alone in a
# domain of its own, so each shifted membership has a domain of its own.
CASE_A_MIXTURE_CONFIG = dict(
    MIXTURE_CONFIG,
    domains=[0, 1, 2],
    cells=README_CONFIG["cells"][:4] + [dict(README_CONFIG["cells"][4], domain=2)],
)

# The README mixture at 2**50 examples per cell, whose perfectly separated
# detection scores must give an AUROC of exactly 1.
MIXTURE_2P50_CONFIG = dict(
    MIXTURE_CONFIG, cells=[dict(c, count=2**50) for c in MIXTURE_CONFIG["cells"]]
)

# The README's cells with a wild pool of 700 510 split by fractions summing
# to 1, where pi_c m and pi_s m, each rounded, overshoot the pool by one.
WHOLE_POOL_CONFIG = dict(
    README_CONFIG,
    pi_c=0.45,
    pi_s=0.55,
    cells=[dict(c, count=n) for c, n in zip(README_CONFIG["cells"], [8, 8, 350_000, 350_000, 510])],
)

# The README's cells at counts that total more than sys.maxsize, which
# every command refuses.
OVERSIZED_CONFIGS = {
    name: dict(README_CONFIG, cells=[dict(c, count=n) for c, n in zip(README_CONFIG["cells"], counts)])
    for name, counts in (
        ("oversized-one-2p63", [2**63, 8, 6, 6, 6]),
        ("oversized-five-2p61", [2**61] * 5),
        ("oversized-five-2p62", [2**62] * 5),
    )
}

# An explicit 4 x 4 matrix over cells that hold 2**40 + 3 examples: refused
# by its size before a single example is expanded.
HUGE_MATRIX_CONFIG = {
    "classes": [0],
    "domains": [0, 1],
    "cells": [
        {"class": 0, "domain": 0, "membership": "labeled_id", "count": 2**40},
        {"class": 0, "domain": 0, "membership": "wild_id", "count": 1},
        {"class": 0, "domain": 1, "membership": "wild_covariate", "count": 1},
        {"class": 1, "domain": 1, "membership": "wild_semantic", "count": 1},
    ],
    "augmentation_matrix": [[1.0 if i == j else 0.1 for j in range(4)] for i in range(4)],
}


def isolated_class_config(count: int) -> dict:
    """Class 1 only in the ID domain, where alpha is the only positive rate.

    Class 1's cell has no edge at all, so its first example, vertex
    ``count``, has zero degree.
    """
    cells = [(0, 0, "labeled_id"), (1, 0, "labeled_id"), (0, 1, "wild_covariate"),
             (2, 1, "wild_semantic")]
    return {
        "classes": [0, 1],
        "domains": [0, 1],
        "cells": [{"class": c, "domain": d, "membership": m, "count": count} for c, d, m in cells],
        "augmentation": {"rho": 0.0, "alpha": 0.1, "beta": 0.0, "gamma": 0.0},
    }


def matrix_config() -> dict:
    """The README's cells under an explicit, slightly asymmetric matrix."""
    cells = README_CONFIG["cells"]
    vertices = [(c["class"], c["domain"]) for c in cells for _ in range(c["count"])]
    matrix = [
        [(1.0 if cs == ct else 0.1) * (1.0 if ds == dt else 0.2) + 0.001 * ((i + 2 * j) % 3)
         for j, (ct, dt) in enumerate(vertices)]
        for i, (cs, ds) in enumerate(vertices)
    ]
    config = {k: v for k, v in README_CONFIG.items() if k != "augmentation"}
    return dict(config, augmentation_matrix=matrix)


# (case name, config, seed) of the detect cases.  The mixture's wild
# examples are drawn as counts, one cell per (class, domain, membership)
# key; the explicit matrix has no interchangeable vertices at all.
DETECT_CASES = [
    ("detect-readme", README_CONFIG, None),
    ("detect-mixture-seed1", MIXTURE_CONFIG, 1),
    ("detect-matrix", matrix_config(), None),
]

# (variant, alpha', beta'): each side of the case-a boundary b' = 9/8 a' and
# of the unsupervised boundary a' = b', at small and at larger ratios.  The
# last case-a point lies outside the excluded band but past the exact flip,
# so the closed and numeric probing counts disagree and the command exits 1.
TOY_POINTS = [
    (variant, ap, bp)
    for variant in ("a", "b", "unsup")
    for ap, bp in ((0.03, 0.01), (0.01, 0.03), (0.12, 0.08), (0.08, 0.12))
] + [("a", 0.2, 0.2175)]

# (seed, vertices, k) of the explicit-matrix factorize cases.
FACTORIZE_CASES = [(1, 24, 4), (2, 30, 5), (3, 36, 6), (4, 42, 3)]
# Metrics held to another recorded metric: the final loss to the optimum.
REFERENCE_KEY = {"final_loss": "spectral_optimum"}
# (name, config) of the factorize and loss-check cases on grouped configs,
# each at k = 3 and seed 1; both configs have a clear eigengap at 3.
CONFIG_CASES = [("readme", README_CONFIG), ("three-class", THREE_CLASS_CONFIG)]
FACTORIZE_CELLS = (
    (0, 0, "wild_id"), (1, 0, "wild_id"),
    (0, 1, "wild_covariate"), (1, 1, "wild_covariate"),
    (2, 1, "wild_semantic"),
)


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _spectrum(config_path: Path, seed: int = 0) -> list[float]:
    population, explicit, _ = _population_from_config(str(config_path), seed)
    bundle = build_graph(explicit, population, GraphWeights(5.0, 1.0))
    return eigendecompose(bundle.A_tilde, 1).eigenvalues.tolist()


def _explicit_config(seed: int, n: int) -> dict:
    """Positive symmetric transformation matrix with seeded entries, no twins."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, n))
    t = 0.5 * (x + x.T) + np.diag(rng.uniform(0.5, 1.5, size=n))
    counts = rng.multinomial(n - len(FACTORIZE_CELLS), np.full(len(FACTORIZE_CELLS), 0.2)) + 1
    cells = [
        {"class": c, "domain": d, "membership": m, "count": int(count)}
        for (c, d, m), count in zip(FACTORIZE_CELLS, counts)
    ]
    return {"classes": [0, 1], "domains": [0, 1], "cells": cells, "augmentation_matrix": t.tolist()}


def compute_corpus(work: Path) -> dict:
    """Run every corpus command in ``work`` and collect its reported numbers."""
    cases = {}

    for name, payload, seed in DETECT_CASES:
        config = work / f"{name}.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        out = work / f"{name}-out.json"
        seed_args = [] if seed is None else ["--seed", str(seed)]
        rc = _run(["detect", "--config", str(config), *seed_args, "--k-neighbors", "5",
                   "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        cases[name] = {
            "exit": rc,
            "metrics": {k: v for k, v in report.items() if k != "config" and isinstance(v, float)},
            "counts": {k: v for k, v in report.items() if isinstance(v, int)},
            "spectrum": _spectrum(config, seed or 0),
        }

    for variant, ap, bp in TOY_POINTS:
        out = work / f"toy-{variant}-{ap}-{bp}.json"
        rc = _run(["toy-verify", "--variant", variant, "--alpha-prime", repr(ap),
                   "--beta-prime", repr(bp), "--out", str(out)])
        by_name = {c["name"]: c for c in json.loads(out.read_text(encoding="utf-8"))["comparisons"]}
        cases[f"toy-verify-{variant}-{ap}-{bp}"] = {
            "exit": rc,
            "metrics": {f"separability_{side}": by_name["separability"][side]
                        for side in ("closed", "numeric")},
            "projector_deviation": by_name["projector_deviation"]["numeric"],
            "counts": {f"probing_error_count_{side}": int(by_name["probing_error_count"][side])
                       for side in ("closed", "numeric")},
            "spectrum": [by_name[f"eigenvalue_{i}"]["numeric"] for i in range(1, 6)],
        }

    for seed, n, k in FACTORIZE_CASES:
        config = work / f"explicit-{seed}.json"
        config.write_text(json.dumps(_explicit_config(seed, n)), encoding="utf-8")
        out = work / f"factorize-{seed}"
        rc = _run(["factorize", "--config", str(config), "--k", str(k), "--seed", str(seed),
                   "--max-iters", "100000", "--out", str(out)])
        gaps = json.loads((out / "gaps.json").read_text(encoding="utf-8"))
        cases[f"factorize-explicit-{seed}"] = {
            "exit": rc,
            "metrics": {"final_loss": gaps["final_loss"], "spectral_optimum": gaps["spectral_optimum"]},
            "counts": {"converged": gaps["converged"]},
            "spectrum": _spectrum(config),
        }

    for name, payload in CONFIG_CASES:
        config = work / f"{name}.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        out = work / f"factorize-{name}"
        rc = _run(["factorize", "--config", str(config), "--k", "3", "--seed", "1",
                   "--max-iters", "100000", "--out", str(out)])
        gaps = json.loads((out / "gaps.json").read_text(encoding="utf-8"))
        cases[f"factorize-{name}"] = {
            "exit": rc,
            "metrics": {"final_loss": gaps["final_loss"], "spectral_optimum": gaps["spectral_optimum"]},
            "counts": {"converged": gaps["converged"]},
            "spectrum": _spectrum(config),
        }
        out = work / f"loss-check-{name}.json"
        rc = _run(["loss-check", "--config", str(config), "--k", "3", "--seed", "1",
                   "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        cases[f"loss-check-{name}"] = {
            "exit": rc,
            "metrics": {"constant": report["constant"]},
            "counts": {"passed": report["passed"]},
            "spectrum": _spectrum(config),
        }
    return cases


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return compute_corpus(tmp_path_factory.mktemp("golden"))


CASE_NAMES = (
    [name for name, _, _ in DETECT_CASES]
    + [f"toy-verify-{variant}-{ap}-{bp}" for variant, ap, bp in TOY_POINTS]
    + [f"factorize-explicit-{seed}" for seed, _, _ in FACTORIZE_CASES]
    + [f"{command}-{name}" for name, _ in CONFIG_CASES for command in ("factorize", "loss-check")]
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_matches_jacobi_corpus(corpus, golden, name):
    want, have = golden[name], corpus[name]
    assert have["exit"] == want["exit"]
    assert have["counts"] == want["counts"]
    assert have["metrics"].keys() == want["metrics"].keys()
    for key in want["metrics"]:
        value = want["metrics"][REFERENCE_KEY.get(key, key)]
        assert have["metrics"][key] == pytest.approx(value, rel=GOLDEN_RTOL, abs=0.0), key
    if "projector_deviation" in want:
        assert abs(have["projector_deviation"] - want["projector_deviation"]) <= GOLDEN_RTOL
    spectrum = np.array(want["spectrum"])
    np.testing.assert_allclose(
        have["spectrum"], spectrum, rtol=0.0, atol=SPECTRUM_ATOL * np.max(np.abs(spectrum))
    )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = compute_corpus(Path(tmp))
    assert sorted(cases) == sorted(CASE_NAMES)
    # Only cases the corpus lacks are written; recorded ones stay as they are.
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(dict(cases, **recorded), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
