import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_golden import README_CONFIG
from wildgraph import cli, spectral
from wildgraph.cli import main
from wildgraph.theory import ReducedParams, verify_against_pipeline

TOY_A_CONFIG = {
    "classes": [0, 1],
    "domains": [0, 1, 2],
    "cells": [
        {"class": 0, "domain": 0, "membership": "labeled_id", "count": 1},
        {"class": 1, "domain": 0, "membership": "labeled_id", "count": 1},
        {"class": 0, "domain": 1, "membership": "wild_covariate", "count": 1},
        {"class": 1, "domain": 1, "membership": "wild_covariate", "count": 1},
        {"class": 2, "domain": 2, "membership": "wild_semantic", "count": 1},
    ],
    "augmentation": {"rho": 1.0, "alpha": 0.03, "beta": 0.01, "gamma": 1e-6},
}

SEPARATED_CONFIG = {
    "classes": [0, 1],
    "domains": [0, 1],
    "cells": [
        {"class": 0, "domain": 0, "membership": "labeled_id", "count": 8},
        {"class": 1, "domain": 0, "membership": "labeled_id", "count": 8},
        {"class": 0, "domain": 0, "membership": "wild_id", "count": 6},
        {"class": 1, "domain": 0, "membership": "wild_id", "count": 6},
        {"class": 0, "domain": 1, "membership": "wild_covariate", "count": 6},
        {"class": 1, "domain": 1, "membership": "wild_covariate", "count": 6},
        {"class": 2, "domain": 1, "membership": "wild_semantic", "count": 6},
    ],
    "augmentation": {"rho": 1.0, "alpha": 0.1, "beta": 1e-4, "gamma": 1e-4},
}


# three cells of two examples, for explicit matrices over six vertices
RANK_TWO_CELLS = {
    "classes": [0, 1],
    "domains": [0, 1, 2],
    "cells": [
        {"class": 0, "domain": 0, "membership": "wild_id", "count": 2},
        {"class": 1, "domain": 1, "membership": "wild_covariate", "count": 2},
        {"class": 2, "domain": 2, "membership": "wild_semantic", "count": 2},
    ],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_overflow_refused(tmp_path, capsys, argv):
    """A 1e300 diagonal overflows A_u: a config error naming it, and no numpy warning."""
    matrix = [[1e300 if i == j else 0.5 for j in range(4)] for i in range(4)]
    cells = [dict(c, count=1) for c in RANK_TWO_CELLS["cells"]]
    cells.append({"class": 1, "domain": 0, "membership": "wild_id", "count": 1})
    config = write_config(tmp_path, {**RANK_TWO_CELLS, "cells": cells,
                                     "augmentation_matrix": matrix})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--config", config, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG == 2
    assert capsys.readouterr().err == (
        "config error: the combined adjacency's total weight overflows float64\n"
    )
    assert not (tmp_path / "out").exists()


class TestToyVerify:
    def test_reference_point_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "toy-verify",
                "--variant", "a",
                "--alpha-prime", "0.03",
                "--beta-prime", "0.01",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["config"]["alpha_prime"] == 0.03
        assert "RESULT: pass" in capsys.readouterr().out

    def test_negative_closed_form_eigenvalue_still_reports(self, tmp_path):
        # Closed-form lambda3 = 1 - 4 b' < 0: the check runs and fails on
        # separability, it is not refused as a rank error.
        out = tmp_path / "report.json"
        code = main(
            ["toy-verify", "--variant", "a", "--alpha-prime", "0.3", "--beta-prime", "0.26",
             "--out", str(out)]
        )
        assert code == 1
        assert json.loads(out.read_text())["passed"] is False

    def test_boundary_band_is_config_error(self, capsys):
        code = main(
            ["toy-verify", "--variant", "a", "--alpha-prime", "0.027", "--beta-prime", "0.030"]
        )
        assert code == 2
        assert "degenerate regime" in capsys.readouterr().err

    def test_unsupervised_collapsed_branch(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "toy-verify",
                "--variant", "unsup",
                "--alpha-prime", "0.02",
                "--beta-prime", "0.03",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        counts = [c for c in report["comparisons"] if c["name"] == "probing_error_count"][0]
        assert counts["closed"] == 2.0
        assert counts["numeric"] == 2.0


class TestSweep:
    def test_small_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--variant", "a",
                "--alpha-min", "0.02", "--alpha-max", "0.05",
                "--beta-min", "0.02", "--beta-max", "0.05",
                "--resolution", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1].startswith("alpha_prime,beta_prime,case,")
        assert len(lines) == 2 + 9

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main(
            [
                "sweep",
                "--alpha-min", "0.03", "--alpha-max", "0.03",
                "--beta-min", "0.01", "--beta-max", "0.01",
                "--resolution", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_oversized_resolution_rejected(self, capsys):
        assert main(["sweep", "--resolution", "1000"]) == 2

    def test_out_of_range_bounds_rejected(self):
        assert main(["sweep", "--alpha-max", "0.5"]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma-ratio", "0"), ("--gamma-ratio", "-1"), ("--gamma-ratio", "nan"),
         ("--rho", "0"), ("--rho", "-1"), ("--rho", "nan"), ("--rho", "inf")],
    )
    def test_ill_posed_chain_is_config_error(self, tmp_path, capsys, flag, value):
        # gamma_ratio <= 0 disconnects the graph; a rho that is not finite and
        # positive gives no valid augmentation, or no edges at all.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--resolution", "3", flag, value, "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_rows_do_not_depend_on_the_block(self, tmp_path, monkeypatch):
        argv = ["sweep", "--variant", "unsup", "--resolution", "9", "--alpha-min", "0.02",
                "--alpha-max", "0.2", "--beta-min", "0.02", "--beta-max", "0.2"]
        assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
        assert main(argv + ["--out", str(tmp_path / "blocks.csv")]) == 0
        one = (tmp_path / "one.csv").read_text().splitlines()[1:]
        assert one == (tmp_path / "blocks.csv").read_text().splitlines()[1:]
        assert len(one) == 1 + 81

    @pytest.mark.parametrize("variant", ["a", "b", "unsup"])
    def test_rows_match_a_per_field_reference(self, tmp_path, monkeypatch, variant):
        # The box's grid holds the unsupervised diagonal a' = b' (tied
        # eigenvalues: numeric -1 and nan) and case a's boundary b' = 9/8 a'
        # at (0.08, 0.09) and (0.16, 0.18) (closed -1 and nan); 361 points
        # in blocks of 50 span eight blocks.
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 50)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--variant", variant, "--alpha-min", "0.02", "--alpha-max", "0.2",
                     "--beta-min", "0.02", "--beta-max", "0.2", "--resolution", "19",
                     "--out", str(out)]) == 0
        axis = np.linspace(0.02, 0.2, 19)
        ap, bp = np.repeat(axis, 19), np.tile(axis, 19)
        report = verify_against_pipeline(variant, ReducedParams(ap, bp, 1e-6))
        c = {q.name: q for q in report.comparisons}
        count, sep = c["probing_error_count"], c["separability"]
        eig_dev_max = np.max([c[f"eigenvalue_{j}"].abs_dev for j in (1, 2, 3)], axis=0)
        floats = (sep.numeric, sep.closed, report.gaps.gap_ab, report.gaps.gap_label,
                  eig_dev_max, c["projector_deviation"].numeric)

        def written(n):
            return "-1" if math.isnan(n) else f"{int(n):d}"

        expected = [
            ",".join([f"{ap[i]:.17g}", f"{bp[i]:.17g}", variant, written(count.numeric[i]),
                      written(count.closed[i])] + [f"{f[i]:.17g}" for f in floats])
            for i in range(ap.size)
        ]
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == cli.SWEEP_COLUMNS
        assert lines[2:] == expected
        # the marks the box was chosen for are in the reference
        assert np.isnan(report.gaps.gap_ab).sum() == 19 + 2
        assert np.isnan(count.closed).sum() == {"a": 2, "b": 0, "unsup": 19}[variant]
        assert np.isnan(count.numeric).sum() == (19 if variant == "unsup" else 0)

    def test_label_benefit_column_positive(self, tmp_path):
        out = tmp_path / "gaps.csv"
        code = main(
            [
                "sweep",
                "--variant", "a",
                "--alpha-min", "0.01", "--alpha-max", "0.2",
                "--beta-min", "0.01", "--beta-max", "0.2",
                "--resolution", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        gap_label = np.array([float(r[8]) for r in rows])
        assert np.all(gap_label[np.isfinite(gap_label)] > 0)

    @pytest.mark.parametrize("rho", ["1", "2.5"])
    def test_tied_eigenspace_marks_numeric_columns(self, tmp_path, rho):
        # On the unsupervised diagonal a' = b', lambda_3 = lambda_4 and k = 3
        # keeps whichever vector of the pair the solver returns first.
        out = tmp_path / "unsup.csv"
        code = main(["sweep", "--variant", "unsup", "--rho", rho, "--alpha-min", "0.02",
                     "--alpha-max", "0.2", "--beta-min", "0.02", "--beta-max", "0.2",
                     "--resolution", "19", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        diagonal = [r for r in rows if r[0] == r[1]]
        assert len(diagonal) == 19
        assert all(r[3] == "-1" and r[5] == "nan" for r in diagonal)
        assert all(r[3] != "-1" and r[5] != "nan" for r in rows if r[0] != r[1])


def test_tied_cut_reads_the_same_in_toy_verify_and_sweep(tmp_path):
    # Case a at this point has lambda_3 - lambda_4 = 2.8e-16 with a boundary
    # margin of 0.0096, outside toy-verify's band: k = 3 cuts a tied pair.
    point = ["--variant", "a"]
    report = tmp_path / "report.json"
    code = main(["toy-verify", *point, "--alpha-prime", "0.2", "--beta-prime",
                 "0.21539648446668805", "--out", str(report)])
    assert code == cli.EXIT_CHECK_FAILED
    document = json.loads(report.read_text())
    count = [c for c in document["comparisons"] if c["name"] == "probing_error_count"][0]
    assert math.isnan(count["numeric"]) and count["passed"] is False
    assert document["passed"] is False
    assert "NaN" in report.read_text()  # the token Python's json writes
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *point, "--alpha-min", "0.2", "--alpha-max", "0.2", "--beta-min",
                 "0.21539648446668805", "--beta-max", "0.21539648446668805",
                 "--resolution", "1", "--out", str(out)]) == 0
    (row,) = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert row[3] == "-1" and row[5] == "nan"


class TestFactorize:
    def test_toy_case_a_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "fact"
        code = main(
            ["factorize", "--variant", "a", "--k", "3", "--seed", "7", "--out", str(out_dir)]
        )
        assert code == 0
        gaps = json.loads((out_dir / "gaps.json").read_text())
        assert gaps["loss_gap"] <= 1e-4
        assert gaps["equivalence_relative_spread"] <= 1e-9
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[1] == "iter,loss"

    def test_full_rank_reaches_tiny_loss(self, tmp_path):
        out_dir = tmp_path / "full"
        code = main(
            ["factorize", "--variant", "a", "--k", "5", "--seed", "7", "--out", str(out_dir)]
        )
        assert code == 0
        gaps = json.loads((out_dir / "gaps.json").read_text())
        assert gaps["final_loss"] <= 1e-10

    @pytest.mark.parametrize("variant", ["a", "b"])
    @pytest.mark.parametrize("seed", ["7", "8", "9"])
    def test_readme_loop_converges_in_few_iterations(self, tmp_path, variant, seed):
        out_dir = tmp_path / "fact"
        code = main(["factorize", "--variant", variant, "--k", "3", "--seed", seed,
                     "--out", str(out_dir)])
        assert code == 0
        gaps = json.loads((out_dir / "gaps.json").read_text())
        assert gaps["converged"] is True
        assert gaps["iterations"] <= 200

    def test_k_past_the_rank_is_config_error(self, tmp_path, capsys):
        # two constant blocks over six vertices: rank 2
        block = [[1.0 if (i < 3) == (j < 3) else 0.0 for j in range(6)] for i in range(6)]
        config = write_config(tmp_path, {**RANK_TWO_CELLS, "augmentation_matrix": block})
        argv = ["factorize", "--config", config, "--out", str(tmp_path / "fact")]
        assert main(argv + ["--k", "4"]) == 2
        assert "k=4 exceeds the graph's rank 2" in capsys.readouterr().err
        assert not (tmp_path / "fact").exists()
        assert main(argv + ["--k", "2"]) == 0

    def test_k_past_the_group_count_is_refused_by_rank(self, tmp_path, capsys):
        # The README config has five groups, so its quotient has rank 5.
        config = write_config(tmp_path, README_CONFIG)
        out = tmp_path / "fact"
        assert main(["factorize", "--config", config, "--k", "6", "--out", str(out)]) == 2
        assert "k=6 exceeds the graph's rank 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["factorize", "loss-check"])
    def test_large_groups_allocate_no_example_square(self, tmp_path, command):
        # The README cells a hundredfold: 3400 examples in five groups, where
        # one 3400 x 3400 float array would be 92 MB.  Both reports equal the
        # README config's, whose factors are drawn over the same five groups.
        reports = []
        for factor in (1, 100):
            cells = [dict(c, count=factor * c["count"]) for c in README_CONFIG["cells"]]
            config = write_config(tmp_path, dict(README_CONFIG, cells=cells))
            out = tmp_path / f"{command}-{factor}"
            tracemalloc.start()
            try:
                assert main([command, "--config", config, "--k", "3", "--out", str(out)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5e6
            report = json.loads((out / "gaps.json" if command == "factorize" else out).read_text())
            reports.append(report)
        key = "final_loss" if command == "factorize" else "matrix_loss"
        assert reports[1][key] == pytest.approx(reports[0][key], rel=1e-12)

    def test_factorization_error_is_numerical_exit(self, tmp_path, capsys, monkeypatch):
        # A normalized adjacency's entries lie in [0, 1], so the descent is
        # driven to overflow on a matrix of its own.
        def overflowing(a, k, opts):
            return spectral.lowrank_factorize(np.full_like(a, 1e200), k, opts)

        monkeypatch.setattr(cli, "lowrank_factorize", overflowing)
        code = main(["factorize", "--out", str(tmp_path / "fact")])
        assert code == cli.EXIT_NUMERICAL == 3
        assert capsys.readouterr().err == "numerical error: non-finite loss at iteration 0\n"

    def test_overflowing_config_is_refused_without_traceback(self, tmp_path, capsys):
        assert_overflow_refused(tmp_path, capsys, ["factorize", "--k", "2"])

    @pytest.mark.parametrize("command", [["factorize"], ["detect", "--config"], ["sweep"],
                                         ["toy-verify"]])
    def test_failed_eigensolve_is_numerical_exit(self, tmp_path, capsys, monkeypatch, command):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        if command[-1] == "--config":
            command = command + [write_config(tmp_path, README_CONFIG)]
        out = tmp_path / "out"
        assert main(command + ["--out", str(out)]) == cli.EXIT_NUMERICAL == 3
        assert capsys.readouterr().err == (
            "numerical error: eigh failed: Eigenvalues did not converge\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [["detect", "--config"], ["sweep"], ["toy-verify"]])
    def test_failed_probe_pinv_is_numerical_exit(self, tmp_path, capsys, monkeypatch, command):
        def failing_pinv(a, rcond=None, hermitian=False):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
        if command[-1] == "--config":
            command = command + [write_config(tmp_path, README_CONFIG)]
        out = tmp_path / "out"
        assert main(command + ["--out", str(out)]) == cli.EXIT_NUMERICAL == 3
        assert capsys.readouterr().err == (
            "numerical error: probe pinv failed: SVD did not converge\n"
        )
        assert not out.exists()

    def test_single_iteration_fails(self, tmp_path):
        out_dir = tmp_path / "short"
        code = main(
            [
                "factorize",
                "--variant", "a",
                "--k", "3",
                "--seed", "7",
                "--max-iters", "1",
                "--out", str(out_dir),
            ]
        )
        assert code == 1
        gaps = json.loads((out_dir / "gaps.json").read_text())
        assert gaps["converged"] is False


class TestLossCheck:
    def test_overflowing_config_is_refused(self, tmp_path, capsys):
        assert_overflow_refused(tmp_path, capsys, ["loss-check", "--k", "2"])

    def test_toy_passes_and_reports_terms(self, tmp_path):
        out = tmp_path / "loss.json"
        code = main(["loss-check", "--variant", "b", "--k", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("L1", "L2", "L3", "L4", "L5", "total", "gap_spread", "constant"):
            assert key in payload


class TestDetect:
    def test_overflowing_config_is_refused(self, tmp_path, capsys):
        assert_overflow_refused(tmp_path, capsys, ["detect"])

    def test_well_separated_semantic_class(self, tmp_path):
        config = write_config(tmp_path, SEPARATED_CONFIG)
        out = tmp_path / "metrics.json"
        code = main(
            ["detect", "--config", config, "--k-neighbors", "3", "--out", str(out)]
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert metrics["fpr95"] == 0.0
        assert abs(metrics["auroc"] - 1.0) <= 1e-6
        assert metrics["ood_acc"] == 1.0

    def test_missing_semantic_split_is_config_error(self, tmp_path, capsys):
        config_payload = {
            "classes": [0],
            "domains": [0, 1],
            "cells": [
                {"class": 0, "domain": 0, "membership": "labeled_id", "count": 4},
                {"class": 0, "domain": 0, "membership": "wild_id", "count": 20},
            ],
            "augmentation": {"rho": 1.0, "alpha": 0.1, "beta": 0.01, "gamma": 0.01},
            "pi_c": 0.5,
            "pi_s": 0.0,
        }
        config = write_config(tmp_path, config_payload)
        code = main(["detect", "--config", config, "--k-neighbors", "2"])
        assert code == 2
        assert "wild_semantic" in capsys.readouterr().err

    def test_toy_separability_matches_toy_verify(self, tmp_path):
        config = write_config(tmp_path, TOY_A_CONFIG)
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["detect", "--config", config, "--k-neighbors", "1", "--k", "3",
             "--out", str(metrics_path)]
        ) == 0
        report_path = tmp_path / "verify.json"
        assert main(
            ["toy-verify", "--variant", "a", "--alpha-prime", "0.03",
             "--beta-prime", "0.01", "--out", str(report_path)]
        ) == 0
        metrics = json.loads(metrics_path.read_text())
        verify = json.loads(report_path.read_text())
        numeric = {c["name"]: c["numeric"] for c in verify["comparisons"]}
        assert metrics["separability"] == pytest.approx(numeric["separability"], rel=1e-12)
        assert metrics["probing_error_count"] == numeric["probing_error_count"]

    def test_k_neighbors_at_labeled_count_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SEPARATED_CONFIG)
        code = main(["detect", "--config", config, "--k-neighbors", "16"])
        assert code == 2
        assert "k_neighbors=16 must be < reference count 16" in capsys.readouterr().err

    # The README config: five cells, so its graph has rank 5.
    @pytest.mark.parametrize("k,code", [(5, 0), (6, 2), (10, 2)])
    def test_k_beyond_the_rank_is_config_error(self, tmp_path, capsys, k, code):
        config = write_config(tmp_path, README_CONFIG)
        out = tmp_path / "metrics.json"
        assert main(["detect", "--config", config, "--k", str(k), "--out", str(out)]) == code
        if code:
            assert f"k={k} exceeds the graph's rank 5" in capsys.readouterr().err
            assert not out.exists()

    def test_large_groups_allocate_no_example_square(self, tmp_path):
        # The README cells a hundredfold: 3400 examples in five groups.  One
        # 3400 x 3400 float array would be 92 MB.
        cells = [dict(c, count=100 * c["count"]) for c in README_CONFIG["cells"]]
        config = write_config(tmp_path, dict(README_CONFIG, cells=cells))
        out = tmp_path / "metrics.json"
        tracemalloc.start()
        try:
            assert main(["detect", "--config", config, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert json.loads(out.read_text())["separability"] == pytest.approx(15.828078419019425)

    def test_seed_on_an_enumerated_config_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SEPARATED_CONFIG)
        out = tmp_path / "metrics.json"
        assert main(["detect", "--config", config, "--seed", "1", "--out", str(out)]) == 2
        assert "--seed applies only to a sampled mixture" in capsys.readouterr().err
        assert not out.exists()
        assert main(["detect", "--config", config, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] is None

    def test_sampled_mixture_records_its_seed(self, tmp_path):
        config = write_config(tmp_path, dict(SEPARATED_CONFIG, pi_c=0.3, pi_s=0.2))
        reports = []
        for seed_args in ([], ["--seed", "0"], ["--seed", "3"]):
            out = tmp_path / "metrics.json"
            assert main(["detect", "--config", config, *seed_args, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert [r["config"]["seed"] for r in reports] == [0, 0, 3]
        assert reports[0] == reports[1]


def edited(path, value, drop=None):
    """SEPARATED_CONFIG with the entry at ``path`` (a key, or a key and a cell) set to ``value``."""
    config = json.loads(json.dumps(SEPARATED_CONFIG))
    config.pop(drop, None)
    *outer, last = path
    target = config
    for key in outer:
        target = target[key]
    target[last] = value
    return config


# A well-shaped matrix for SEPARATED_CONFIG's 46 examples, but one entry is
# a JSON boolean, which np.array(..., dtype=float) would read as 1.0.
MATRIX_WITH_A_BOOL = np.eye(46).tolist()
MATRIX_WITH_A_BOOL[3][7] = True


class TestConfigValidation:
    # Each is a PopulationError naming the offending key: exit 2, never a
    # silent coercion (int(6.7) == 6, int(True) == 1) or a TypeError traceback.
    @pytest.mark.parametrize(
        "payload, key",
        [
            (edited(("cells", 0, "count"), 6.7), "count"),
            (edited(("cells", 0, "count"), True), "count"),
            (edited(("cells", 6, "class"), 2.9), "class"),
            (edited(("cells", 4, "domain"), 1.0), "domain"),
            (edited(("classes", 1), 1.0), "classes"),
            (edited(("domains", 1), True), "domains"),
            (edited(("classes",), 5), "classes"),
            (edited(("cells",), 5), "cells"),
            (edited(("cells", 0), [0, 0, "labeled_id", 8]), "cells[0]"),
            (edited(("pi_c",), [0.5]), "pi_c"),
            (edited(("pi_c",), True), "pi_c"),
            (edited(("pi_s",), "0.2"), "pi_s"),
            (edited(("augmentation", "rho"), True), "rho"),
            (edited(("augmentation", "alpha"), "0.1"), "alpha"),
            (edited(("augmentation_matrix",), {"rows": 1}, drop="augmentation"),
             "augmentation_matrix"),
            (edited(("augmentation_matrix",), [["0.5", True], [1, "2"]], drop="augmentation"),
             "augmentation_matrix"),
            (edited(("augmentation_matrix",), MATRIX_WITH_A_BOOL, drop="augmentation"),
             "augmentation_matrix"),
        ],
        ids=["count-float", "count-bool", "class-float", "domain-float", "classes-float",
             "domains-bool", "classes-scalar", "cells-scalar", "cell-list", "pi_c-list",
             "pi_c-bool", "pi_s-string", "rho-bool", "alpha-string", "matrix-object",
             "matrix-entries", "matrix-bool-entry"],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, payload, key):
        config = write_config(tmp_path, payload)
        assert main(["detect", "--config", config, "--k-neighbors", "3"]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["detect", "factorize", "loss-check"])
    def test_non_square_matrix_is_config_error(self, tmp_path, capsys, command):
        # Six examples but eight view columns: refused by name, where numpy
        # used to fail to broadcast.
        matrix = [[1.0 if i == j else 0.1 for j in range(8)] for i in range(6)]
        config = write_config(tmp_path, {**RANK_TWO_CELLS, "augmentation_matrix": matrix})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: transformation matrix has 8 view columns for 6 source rows: "
            "the views are the examples, so it must be square\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("pi_c, pi_s", [(0.0, 0.0), (0.3, 0.1)])
    def test_wild_id_outside_id_domain_is_config_error(self, tmp_path, capsys, pi_c, pi_s):
        # Enumerated and sampled configs obey one rule set.
        payload = edited(("cells", 2, "domain"), 1)
        payload.update(pi_c=pi_c, pi_s=pi_s)
        config = write_config(tmp_path, payload)
        assert main(["detect", "--config", config, "--k-neighbors", "3"]) == 2
        assert "ID domain" in capsys.readouterr().err


class TestFlags:
    # Flags the command does not read: each is a usage error, never ignored.
    @pytest.mark.parametrize(
        "argv",
        [
            ["toy-verify", "--config", "missing.json"],
            ["toy-verify", "--seed", "3"],
            ["sweep", "--resolution", "1", "--config", "missing.json"],
            ["sweep", "--resolution", "1", "--seed", "3"],
            ["sweep", "--resolution", "1", "--tolerance-scale", "1e9"],
            ["detect", "--config", "{config}", "--tolerance-scale", "1e9"],
            ["factorize", "--alpha", "0.03"],
            ["factorize", "--beta", "0.01"],
            ["factorize", "--gamma", "1e-6"],
            ["loss-check", "--alpha", "0.03"],
            ["loss-check", "--beta", "0.01"],
            ["loss-check", "--gamma", "1e-6"],
            ["factorize", "--step", "0.5"],
            ["factorize", "--tolerance-scale", "1e9"],
            ["loss-check", "--tolerance-scale", "1e9"],
        ],
    )
    def test_dropped_flag_is_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # where a command that did run writes its default outputs
        config = write_config(tmp_path, SEPARATED_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(config=config) for arg in argv])
        assert exc.value.code == 2

    # Ranks, step counts and trial counts below their least meaningful value,
    # and tolerances that are negative or not finite: refused by the parser,
    # before any work, where each used to run (or fail after the work).
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("factorize", "--k", "0"),
            ("loss-check", "--k", "0"),
            ("loss-check", "--k", "-2"),
            ("detect", "--k", "-1"),
            ("factorize", "--max-iters", "0"),
            ("factorize", "--max-iters", "-5"),
            ("factorize", "--trials", "1"),
            ("loss-check", "--trials", "1"),
            ("factorize", "--tol", "nan"),
            ("factorize", "--tol", "-1"),
            ("factorize", "--spread-tol", "inf"),
            ("loss-check", "--spread-tol", "-1"),
            ("factorize", "--loss-gap-tol", "nan"),
            ("toy-verify", "--tolerance-scale", "-1"),
            ("toy-verify", "--tolerance-scale", "nan"),
        ],
    )
    def test_ill_posed_number_is_usage_error(self, tmp_path, command, flag, value):
        out = tmp_path / "out"
        argv = [command, flag, value, "--out", str(out)]
        if command == "detect":
            argv += ["--config", write_config(tmp_path, README_CONFIG)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "factorize", "loss-check"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        # A sampled mixture reads the seed; a negative one is refused before
        # the population is drawn, not by numpy's generator afterwards.
        config = write_config(tmp_path, dict(SEPARATED_CONFIG, pi_c=0.3, pi_s=0.2))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config, "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: -1 is not a finite value >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["factorize", "loss-check"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--variant", "a"), ("--rho", "1.0"), ("--alpha-prime", "0.03"),
         ("--beta-prime", "0.01"), ("--gamma-ratio", "1e-6")],
    )
    def test_toy_flag_with_config_is_config_error(self, tmp_path, capsys, command, flag, value):
        # With --config the toy case is not built, so a toy flag would be ignored.
        config = write_config(tmp_path, SEPARATED_CONFIG)
        argv = [command, "--config", config, flag, value, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_detect_requires_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_reduced_ratios_scale_with_rho(self, tmp_path):
        # alpha = alpha' * rho: the same ratios at another rho give the
        # same normalized graph, so the same equivalence constant.
        constants = []
        for rho in ("1.0", "2.0"):
            out = tmp_path / f"loss-{rho}.json"
            argv = ["loss-check", "--variant", "b", "--rho", rho, "--alpha-prime", "0.05",
                    "--beta-prime", "0.02", "--out", str(out)]
            assert main(argv) == 0
            payload = json.loads(out.read_text())
            assert payload["config"]["alpha_prime"] == 0.05
            constants.append(payload["constant"])
        assert constants[0] == pytest.approx(constants[1], rel=1e-12)


    @pytest.mark.parametrize("command", ["detect", "factorize"])
    @pytest.mark.parametrize("flag", ["--eta-u", "--eta-l"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_edge_weight_not_finite_is_config_error(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, README_CONFIG), flag, value,
                "--out", str(out)]
        assert main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {flag[2:].replace('-', '_')} must be finite, got {value}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "factorize", "loss-check"])
def test_readme_cells_a_hundred_thousandfold(tmp_path, command):
    # 3.4 million examples in five cells.  No array as long as the population
    # is built: one int64 per example would take 27 MB.  Each report equals
    # the README config's, as under the blow-ups of test_quotient.py: counts
    # scale, rates and distances do not.
    factor = 100_000
    reports = []
    for m in (1, factor):
        cells = [dict(c, count=m * c["count"]) for c in README_CONFIG["cells"]]
        config = write_config(tmp_path, dict(README_CONFIG, cells=cells), name=f"x{m}.json")
        out = tmp_path / f"{command}-x{m}"
        flags = [] if command == "detect" else ["--k", "3"]
        tracemalloc.start()
        try:
            assert main([command, "--config", config, *flags, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        report = json.loads((out / "gaps.json" if command == "factorize" else out).read_text())
        del report["config"]
        reports.append(report)
    small, large = reports
    keys = {
        "detect": small.keys(),
        "factorize": ("final_loss", "spectral_optimum", "equivalence_constant"),
        "loss-check": ("L1", "L2", "L3", "L4", "L5", "total", "matrix_loss", "constant"),
    }[command]
    for key in keys:
        if key == "probing_error_count":
            assert large[key] == factor * small[key]
        else:
            assert large[key] == pytest.approx(small[key], rel=1e-9, abs=1e-300), key


class TestIoErrors:
    def test_missing_config_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["detect", "--config", str(missing)]) == cli.EXIT_IO == 4
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and str(missing) in err

    def test_out_under_a_regular_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "fact"
        assert main(["factorize", "--out", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("io error: ")
        assert blocker.read_text() == ""


class TestDeterminism:
    def test_identical_command_lines_identical_bytes(self, tmp_path):
        # A sampled mixture, so that detect's --seed seeds its sampling.
        config = write_config(tmp_path, dict(SEPARATED_CONFIG, pi_c=0.3, pi_s=0.2))
        commands = [
            ["toy-verify", "--variant", "a", "--alpha-prime", "0.03", "--beta-prime", "0.01",
             "--out", str(tmp_path / "verify.json")],
            ["sweep", "--variant", "a", "--alpha-min", "0.02", "--alpha-max", "0.06",
             "--beta-min", "0.02", "--beta-max", "0.06", "--resolution", "3",
             "--out", str(tmp_path / "sweep.csv")],
            ["factorize", "--variant", "a", "--k", "3", "--seed", "7",
             "--out", str(tmp_path / "fact")],
            ["loss-check", "--variant", "b", "--k", "2", "--seed", "5",
             "--out", str(tmp_path / "loss.json")],
            ["detect", "--config", config, "--k-neighbors", "3", "--seed", "11",
             "--out", str(tmp_path / "metrics.json")],
        ]
        names = ["verify.json", "sweep.csv", "fact/gaps.json", "fact/trace.csv",
                 "loss.json", "metrics.json"]

        for command in commands:
            assert main(command) == 0
        first = {name: (tmp_path / name).read_bytes() for name in names}
        for command in commands:
            assert main(command) == 0
        for name in names:
            assert (tmp_path / name).read_bytes() == first[name], name


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        # The parser is built once per process.  Toy defaults that factorize
        # fills in, and the seed detect gives a sampled mixture, must not
        # reach the next call: factorize --config refuses toy flags, and
        # detect refuses --seed on an enumerated config.  theory and loss
        # are imported by the first command that needs them, inside this
        # process, and must give what a fresh process gives.
        assert cli.build_parser() is cli.build_parser()
        sampled = write_config(tmp_path, dict(SEPARATED_CONFIG, pi_c=0.3, pi_s=0.2), "sampled.json")
        enumerated = write_config(tmp_path, SEPARATED_CONFIG, "enumerated.json")
        commands = [
            (["factorize", "--k", "3"], "toy"),
            (["factorize", "--config", enumerated, "--k", "3"], "config"),
            (["detect", "--config", sampled], "sampled-metrics.json"),
            (["detect", "--config", enumerated], "enumerated-metrics.json"),
            (["toy-verify"], "verify.json"),
            (["sweep", "--resolution", "3"], "sweep.csv"),
            (["loss-check"], "loss.json"),
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv, out in commands:
            argv = argv + ["--out", str(tmp_path / out)]
            assert main(argv) == 0
            stdout = capsys.readouterr().out
            written = _outputs(tmp_path / out)
            fresh = subprocess.run([sys.executable, "-m", "wildgraph.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert fresh.returncode == 0, fresh.stderr
            assert fresh.stdout == stdout
            assert _outputs(tmp_path / out) == written


def _outputs(path):
    """The bytes of a command's output file, or of each file in its output directory."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()
