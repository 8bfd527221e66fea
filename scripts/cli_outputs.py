#!/usr/bin/env python3
"""Run a fixed matrix of CLI commands in process and keep every output.

    PYTHONPATH=src python scripts/cli_outputs.py OUT_DIR [--drop-config]

The matrix is the README's commands plus the golden corpus's toy points
(``tests/test_golden.py``), with a few neighbours across all five
subcommands, a case-a point where k = 3 cuts a tied eigenspace (as a
``toy-verify`` run and a one-point sweep), sweeps of every variant over
three boxes (one of them on both regime boundaries), at one point and over
more than one block, and
``detect`` and ``factorize`` on population configs: the README's
enumerated config (also at ranks 5 and 6, the second past the graph's
rank), the same cells resampled as a wild mixture at two seeds, under an
explicit matrix, and blown up twentyfold and a hundred-thousandfold
(3.4 million examples), and a three-class layout with unequal counts; and
``factorize`` and ``loss-check`` on the README config, both of its
blow-ups, the three-class layout and the explicit matrix.
Every tolerance flag is also set away from its default once: toy-verify's
``--tolerance-scale`` and factorize's ``--loss-gap-tol`` and ``--spread-tol``.
Each command runs from inside OUT_DIR with relative paths, so two
checkouts give comparable trees; ``OUT_DIR/commands.txt`` records every
command line, its exit code and what it printed.  Run the script from two
checkouts into two directories and compare them with ``diff -r``.  With ``--drop-config`` the
resolved-configuration record (the ``#`` line of a CSV, the ``config`` key
of a JSON report) is removed after each run, so the diff shows only
changed results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_golden import (  # noqa: E402
    MIXTURE_CONFIG, README_CONFIG, THREE_CLASS_CONFIG, TOY_POINTS, matrix_config,
)
from wildgraph.cli import main as cli_main  # noqa: E402


def blown_up(config: dict, factor: int) -> dict:
    """The same cells with every count multiplied by ``factor``."""
    cells = [dict(c, count=c["count"] * factor) for c in config["cells"]]
    return dict(config, cells=cells)


# (file suffix, alpha' bounds, beta' bounds, resolution).  The third box's
# grid lies on the unsupervised boundary a' = b' along its diagonal, where
# the eigenvalues tie exactly, and on case a's boundary b' = 9/8 a' at
# (0.08, 0.09) and (0.16, 0.18).  The last two are a single point and a
# grid of 4225 points, more than one block of cli.SWEEP_BLOCK.
SWEEP_BOXES = (
    ("", ("0.01", "0.2"), ("0.01", "0.2"), "50"),
    ("-wide", ("0.005", "0.25"), ("0.005", "0.25"), "40"),
    ("-boundaries", ("0.02", "0.2"), ("0.02", "0.2"), "19"),
    ("-point", ("0.03", "0.03"), ("0.01", "0.01"), "1"),
    ("-blocks", ("0.01", "0.25"), ("0.01", "0.25"), "65"),
)

CONFIGS = {
    "readme.json": README_CONFIG,
    "mixture.json": MIXTURE_CONFIG,
    "matrix.json": matrix_config(),
    "readme-x20.json": blown_up(README_CONFIG, 20),
    "readme-x100000.json": blown_up(README_CONFIG, 100_000),
    "three-class.json": THREE_CLASS_CONFIG,
}


def commands() -> list[list[str]]:
    out = []
    for variant, ap, bp in TOY_POINTS:
        out.append(["toy-verify", "--variant", variant, "--alpha-prime", repr(ap),
                    "--beta-prime", repr(bp), "--out", f"toy-verify-{variant}-{ap}-{bp}.json"])
    for variant in ("a", "b", "unsup"):
        for name, alpha, beta, resolution in SWEEP_BOXES:
            bounds = ["--alpha-min", alpha[0], "--alpha-max", alpha[1],
                      "--beta-min", beta[0], "--beta-max", beta[1]]
            out.append(["sweep", "--variant", variant, *bounds, "--resolution", resolution,
                        "--out", f"sweep-{variant}{name}.csv"])
    # case a where lambda_3 and lambda_4 tie outside the boundary band: k = 3
    # cuts the tied pair, which toy-verify and a one-point sweep both mark
    tie = ("0.2", "0.21539648446668805")
    out.append(["toy-verify", "--variant", "a", "--alpha-prime", tie[0], "--beta-prime", tie[1],
                "--out", f"toy-verify-a-{tie[0]}-{tie[1]}-tie.json"])
    out.append(["sweep", "--variant", "a", "--alpha-min", tie[0], "--alpha-max", tie[0],
                "--beta-min", tie[1], "--beta-max", tie[1], "--resolution", "1",
                "--out", "sweep-a-tie.csv"])
    # toy-verify's tolerance scale at one passing and one failing point
    for variant, ap, bp in (("a", "0.03", "0.01"), ("b", "0.08", "0.12")):
        out.append(["toy-verify", "--variant", variant, "--alpha-prime", ap, "--beta-prime", bp,
                    "--tolerance-scale", "2", "--out", f"toy-verify-{variant}-{ap}-{bp}-scale2.json"])
    for variant in ("a", "b"):
        for seed in (7, 8, 9):
            out.append(["factorize", "--variant", variant, "--k", "3", "--seed", str(seed),
                        "--out", f"factorize-{variant}-seed{seed}"])
        for k in (1, 2, 3):
            out.append(["loss-check", "--variant", variant, "--k", str(k),
                        "--out", f"loss-check-{variant}-k{k}.json"])
    # factorize's two gates away from their defaults: both fail, then both pass
    for loss_gap, spread in (("1e-20", "1e-20"), ("1", "1")):
        out.append(["factorize", "--variant", "a", "--k", "3", "--seed", "7",
                    "--loss-gap-tol", loss_gap, "--spread-tol", spread,
                    "--out", f"factorize-a-seed7-tol{loss_gap}"])
    for neighbors in (1, 3, 5):
        out.append(["detect", "--config", "readme.json", "--k-neighbors", str(neighbors),
                    "--out", f"detect-readme-k{neighbors}.json"])
    for seed in (1, 5):
        out.append(["detect", "--config", "mixture.json", "--seed", str(seed), "--k-neighbors", "3",
                    "--out", f"detect-mixture-seed{seed}.json"])
    out.append(["detect", "--config", "matrix.json", "--k-neighbors", "3",
                "--out", "detect-matrix.json"])
    for name in ("readme-x20", "readme-x100000", "three-class"):
        out.append(["detect", "--config", f"{name}.json", "--k-neighbors", "3",
                    "--out", f"detect-{name}.json"])
    for k in (5, 6):  # the README graph has rank 5
        out.append(["detect", "--config", "readme.json", "--k", str(k), "--k-neighbors", "3",
                    "--out", f"detect-readme-rank-k{k}.json"])
    for name in ("readme", "readme-x20", "readme-x100000", "three-class", "matrix"):
        out.append(["factorize", "--config", f"{name}.json", "--k", "3", "--seed", "7",
                    "--out", f"factorize-{name}-seed7"])
        out.append(["loss-check", "--config", f"{name}.json", "--k", "3", "--seed", "7",
                    "--out", f"loss-check-{name}.json"])
    return out


def drop_config(path: Path) -> None:
    if path.suffix == ".csv":
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("# ")), encoding="utf-8")
    elif path.suffix == ".json":
        document = json.loads(path.read_text(encoding="utf-8"))
        document.pop("config", None)
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--drop-config", action="store_true",
                        help="remove the resolved-configuration record from every output")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    for name, config in CONFIGS.items():
        Path(name).write_text(json.dumps(config), encoding="utf-8")
    log = []
    for argv in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        log.append(f"$ wildgraph {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
        target = Path(argv[argv.index("--out") + 1])
        if args.drop_config and target.exists():
            for path in sorted(target.iterdir()) if target.is_dir() else [target]:
                drop_config(path)
    Path("commands.txt").write_text("\n".join(log), encoding="utf-8")
    print(f"cli_outputs: ran {len(log)} commands into {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
