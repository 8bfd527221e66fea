"""Self-test of the benchmark: python3 -m pytest perfbench -q

Tiny runs must emit every declared metric with its unit, and perturbed
outputs must be counted as failures by the same checks the timed runs use.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from wildgraph import cli, spectral  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# A run is at least one whole cycle (about 25 s untraced, 50 s traced), so
# the traced entry point runs once; test_tracer_covers_every_layer drives
# the tracer through all three commands in process.
@pytest.mark.parametrize(
    "workload,trace",
    [("detect-grouped", 0), ("sweep-grid", 0), ("factorize-explicit", 0), ("factorize-explicit", 1)],
)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs_and_other_seed_same_shape(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        runs = []
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            work = tmp_path / name / sub
            (work / "out").mkdir(parents=True)
            commands, references = make(seed, work)
            argvs = [c.argv for c in commands] + [argv for argv, _ in references]
            argvs = [[a.replace(str(work), "") for a in argv] for argv in argvs]
            files = {p.name: p.read_bytes() for p in sorted(work.glob("*.json"))}
            runs.append((argvs, files, sorted(c.points for c in commands), len(references)))
        assert runs[0][:2] == runs[1][:2], name
        assert runs[0][:2] != runs[2][:2], name
        assert runs[0][2:] == runs[2][2:], name


def test_tail_does_not_depend_on_the_number_of_cycles():
    cycle = [0.3, 2.0, 0.9, 1.1, 0.4, 1.5, 0.7, 1.2, 0.8, 1.0, 0.5, 0.6]
    one = run._tail([cycle])
    assert one == (0.4, 100.0 * 2 / 12)
    assert run._tail([cycle, cycle]) == one
    assert run._tail([cycle, [2 * x for x in cycle], [x / 2 for x in cycle]]) == one
    assert run._tail([cycle[:5]]) == (2.0, 100.0)


def test_scaling_to_reference_speed_touches_times_and_rates_only():
    metrics = {"latency_s": 2.0, "ops": 4.0, "rss": 5.0, "calls": 3.0}
    units = {"latency_s": "s", "ops": "1/s", "rss": "MB", "calls": "count"}
    scaled = run.at_reference_speed(metrics, units, 0.5)
    assert scaled == {"latency_s": 1.0, "ops": 8.0, "rss": 5.0, "calls": 3.0}


def _grouped_config() -> dict:
    """Ten cells whose counts share the factor 3."""
    return {
        "classes": [0, 1, 2], "domains": [0, 1, 2],
        "cells": [
            {"class": c, "domain": d, "membership": m, "count": 3 * n}
            for c, d, m, n in [
                (0, 0, "labeled_id", 3), (1, 0, "labeled_id", 4), (2, 0, "labeled_id", 3),
                (0, 0, "wild_id", 1), (1, 0, "wild_id", 2), (2, 0, "wild_id", 1),
                (0, 1, "wild_covariate", 2), (1, 2, "wild_covariate", 1),
                (2, 1, "wild_covariate", 1), (3, 2, "wild_semantic", 2),
            ]
        ],
        "augmentation": {"rho": 1.0, "alpha": 0.05, "beta": 0.12, "gamma": 1e-3},
    }


def test_detect_check_flags_a_shifted_metric(tmp_path):
    config = _grouped_config()
    shrunk, growth = workloads.shrink(config)
    assert growth == 3
    reports = []
    for name, payload in (("big", config), ("small", shrunk)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        rc, _ = _main(["detect", "--config", str(path), "--k-neighbors", "2", "--out", str(tmp_path / f"{name}-out.json")])
        assert rc == 0
        reports.append(json.loads((tmp_path / f"{name}-out.json").read_text()))
    big, small = reports
    assert workloads.compare_detect(big, small, growth) == []
    assert workloads.compare_detect(dict(big, separability=big["separability"] * (1 + 1e-6)), small, growth)
    assert workloads.compare_detect(dict(big, probing_error_count=big["probing_error_count"] + 1), small, growth)
    assert workloads.compare_detect({k: v for k, v in big.items() if k != "auroc"}, small, growth)


def test_sweep_check_flags_a_dropped_or_changed_row(tmp_path):
    box = ["--alpha-min", "0.02", "--alpha-max", "0.2", "--beta-min", "0.01", "--beta-max", "0.15"]
    rc, _ = _main(["sweep", "--variant", "b", "--resolution", "3", "--out", str(tmp_path / "grid.csv"), *box])
    assert rc == 0
    header, rows = workloads.read_sweep(tmp_path / "grid.csv")
    references = []
    for i, row in enumerate(rows[:2]):
        out = tmp_path / f"rerun-{i}.csv"
        rc, _ = _main(workloads._sweep_argv("b", 2.5, (row[0], row[0]), (row[1], row[1]), 1, out))
        assert rc == 0
        ref_header, ref_rows = workloads.read_sweep(out)
        references.append((ref_header, ref_rows[0]))
    assert workloads.compare_sweep(header, rows, 3, references) == []
    assert workloads.compare_sweep(header, rows[1:], 3, references)
    sep = header.index("separability_numeric")
    changed = [list(r) for r in rows]
    changed[1][sep] = repr(float(changed[1][sep]) * (1 + 1e-6))
    assert workloads.compare_sweep(header, changed, 3, references)


def test_factorize_check_flags_failed_or_unconverged_runs(tmp_path):
    rc, stdout = _main(["factorize", "--out", str(tmp_path)])
    assert rc == 0
    gaps = json.loads((tmp_path / "gaps.json").read_text())
    assert workloads.compare_factorize(stdout, gaps) == []
    assert workloads.compare_factorize(stdout.replace("RESULT: pass", "RESULT: FAIL"), gaps)
    assert workloads.compare_factorize(stdout, dict(gaps, converged=False))


def test_tracer_covers_every_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.shrink(_grouped_config())[0]))
    tracer = Tracer()
    for argv in (
        ["detect", "--config", str(config), "--k-neighbors", "2", "--out", str(tmp_path / "d.json")],
        ["sweep", "--resolution", "2", "--out", str(tmp_path / "s.csv")],
        ["factorize", "--out", str(tmp_path / "f")],
    ):
        tracer.install()
        try:
            rc, _ = _main(argv)
        finally:
            tracer.uninstall()
        assert rc == 0
        assert tracer.finish_command(1) == []
    metrics = tracer.metrics(0.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("population.load_s", "graph.adjacency_s", "spectral.eig_s", "spectral.factorize_s",
                 "loss.equivalence_s", "evaluation.knn_s", "theory.closed_form_s", "cli.self_s"):
        assert metrics[name] > 0, name
    for name in ("spectral.eig_calls", "spectral.factorize_iters", "loss.surrogate_calls", "theory.points"):
        assert metrics[name] > 0, name
    assert 0 < metrics["evaluation.knn_tie_frac"] <= 1
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_residual_gate_flags_a_wrong_eigenpair():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6))
    matrix = x + x.T
    embedding = spectral.eigendecompose(matrix, 3)
    tracer = Tracer()
    tracer._on_eig((matrix, 3), {}, embedding)
    assert tracer.finish_command(0) == []
    wrong = replace(embedding, eigenvalues=embedding.eigenvalues + 1e-6)
    tracer._on_eig((matrix, 3), {}, wrong)
    assert tracer.finish_command(0)
    assert tracer.residual_max > 1e-7
