#!/usr/bin/env python3
"""Count the factorizer's descent steps on three fixed sets of targets.

    PYTHONPATH=src python scripts/factorizer_steps.py

* ``draws``: the 100 ``factorize-explicit`` benchmark configs of seeds 1-4,
  each run through ``wildgraph factorize`` at the program's default step
  cap (the benchmark itself raises the cap).  Reports the total and the
  longest descent, how many converged, and the worst ``loss_gap``.
* ``random``: 600 seeded random symmetric matrices, n = 2-40 and any k <= n,
  with PSD, indefinite, rank-deficient and geometrically decaying spectra.
* ``hard``: n = 50, 100, 200 and 400, each with a rank-2 block target at
  k = 3 and 5, an indefinite target with three positive eigenvalues at
  k = 6 and a rank-3 PSD target at k = 6.

For the last two the optimum is sum of min(lam_i, 0)^2 over the leading k
plus sum of lam_i^2 past them, and the gap is reported relative to
sum of lam_i^2.  Prints one JSON object.  Run it from two checkouts to
compare two versions of the factorizer on the same targets.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import factorize_commands  # noqa: E402
from wildgraph import FactorizerOptions, lowrank_factorize  # noqa: E402
from wildgraph.cli import main as cli_main  # noqa: E402


def benchmark_draws() -> dict:
    steps, converged, worst = [], 0, -np.inf
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3, 4):
            work = Path(tmp) / f"seed{seed}"
            work.mkdir()
            commands, _ = factorize_commands(seed, work)
            for cmd in commands:
                argv = list(cmd.argv)
                cap = argv.index("--max-iters")
                del argv[cap : cap + 2]
                with contextlib.redirect_stdout(io.StringIO()):
                    cli_main(argv)
                gaps = json.loads((cmd.out / "gaps.json").read_text(encoding="utf-8"))
                steps.append(gaps["iterations"])
                converged += gaps["converged"] is True
                worst = max(worst, gaps["loss_gap"])
    return {"draws": len(steps), "converged": converged, "total_steps": sum(steps),
            "longest": max(steps), "worst_loss_gap": worst}


def descend(lam: np.ndarray, k: int, rng: np.random.Generator, seed: int) -> tuple[int, bool, float]:
    """Steps, convergence and relative gap to the optimum on a random rotation of ``lam``."""
    lam = np.sort(lam)[::-1]
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    m = (q * lam) @ q.T
    m = 0.5 * (m + m.T)
    optimum = float(np.sum(np.minimum(lam[:k], 0.0) ** 2) + np.sum(lam[k:] ** 2))
    state = lowrank_factorize(m, k, FactorizerOptions(seed=seed))
    return state.iterations, state.converged, abs(state.final_loss - optimum) / float(np.sum(lam**2))


def summary(runs: list[tuple[int, bool, float]]) -> dict:
    steps = [s for s, _, _ in runs]
    return {"targets": len(runs), "converged": sum(c for _, c, _ in runs), "total_steps": sum(steps),
            "mean_steps": sum(steps) / len(steps), "min_steps": min(steps), "max_steps": max(steps),
            "worst_relative_gap": max(g for _, _, g in runs)}


def random_spectra() -> dict:
    rng = np.random.default_rng(123)
    runs = []
    for i in range(600):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(1, n + 1))
        kind = i % 4
        if kind == 0:
            lam = rng.uniform(0.0, 1.0, n)
        elif kind == 1:
            lam = rng.uniform(-1.0, 1.0, n)
        elif kind == 2:
            lam = np.where(np.arange(n) < rng.integers(1, n + 1), rng.uniform(0.1, 1.0, n), 0.0)
        else:
            lam = rng.uniform(0.3, 0.9) ** np.arange(n)
        runs.append(descend(lam, k, rng, seed=i))
    return summary(runs)


def hard_targets() -> dict:
    rng = np.random.default_rng(7)
    runs = []
    for n in (50, 100, 200, 400):
        rank2 = np.repeat([1.0, 1.0, 0.0], [1, 1, n - 2])
        indefinite = np.concatenate([[1.5, 0.9, 0.4], -np.linspace(0.1, 1.7, n - 3)])
        rank3 = np.concatenate([[1.0, 0.7, 0.4], np.zeros(n - 3)])
        for lam, k in ((rank2, 3), (rank2, 5), (indefinite, 6), (rank3, 6)):
            runs.append(descend(lam, k, rng, seed=n + k))
    return summary(runs)


if __name__ == "__main__":
    print(json.dumps({"draws": benchmark_draws(), "random": random_spectra(), "hard": hard_targets()}, indent=1))
