#!/usr/bin/env python3
"""Run a fixed matrix of CLI commands in process and keep every output.

    PYTHONPATH=src python scripts/cli_outputs.py OUT_DIR [--drop-config]

The matrix is the README's commands plus the golden corpus's toy points
(``tests/test_golden.py``), with a few neighbours across all five
subcommands, sweeps of every variant over three boxes (one of them on
both regime boundaries), and ``detect`` and ``factorize`` on population
configs: the README's enumerated config, the same cells resampled as a
wild mixture at two seeds, and the same cells under an explicit matrix.
Each command runs
from inside OUT_DIR with relative paths, so two checkouts give comparable
trees; ``OUT_DIR/commands.txt`` records every command line, its exit code
and what it printed.  Run the script from two checkouts into two
directories and compare them with ``diff -r``.  With ``--drop-config`` the
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

from test_golden import README_CONFIG, TOY_POINTS  # noqa: E402
from wildgraph.cli import main as cli_main  # noqa: E402


# The README's cells resampled: its 18 wild examples become 5 covariate,
# 4 semantic and 9 wild-ID draws.
MIXTURE_CONFIG = dict(README_CONFIG, pi_c=0.3, pi_s=0.2)


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


# (file suffix, square box, resolution).  The last box's grid lies on the
# unsupervised boundary a' = b' along its diagonal, where the eigenvalues
# tie exactly, and on case a's boundary b' = 9/8 a' at (0.08, 0.09) and
# (0.16, 0.18).
SWEEP_BOXES = (
    ("", ("0.01", "0.2"), "50"),
    ("-wide", ("0.005", "0.25"), "40"),
    ("-boundaries", ("0.02", "0.2"), "19"),
)

CONFIGS = {
    "readme.json": README_CONFIG,
    "mixture.json": MIXTURE_CONFIG,
    "matrix.json": matrix_config(),
}


def commands() -> list[list[str]]:
    out = []
    for variant, ap, bp in TOY_POINTS:
        out.append(["toy-verify", "--variant", variant, "--alpha-prime", repr(ap),
                    "--beta-prime", repr(bp), "--out", f"toy-verify-{variant}-{ap}-{bp}.json"])
    for variant in ("a", "b", "unsup"):
        for name, box, resolution in SWEEP_BOXES:
            bounds = ["--alpha-min", box[0], "--alpha-max", box[1],
                      "--beta-min", box[0], "--beta-max", box[1]]
            out.append(["sweep", "--variant", variant, *bounds, "--resolution", resolution,
                        "--out", f"sweep-{variant}{name}.csv"])
    for variant in ("a", "b"):
        for seed in (7, 8, 9):
            out.append(["factorize", "--variant", variant, "--k", "3", "--seed", str(seed),
                        "--out", f"factorize-{variant}-seed{seed}"])
        for k in (2, 3):
            out.append(["loss-check", "--variant", variant, "--k", str(k),
                        "--out", f"loss-check-{variant}-k{k}.json"])
    for neighbors in (1, 3, 5):
        out.append(["detect", "--config", "readme.json", "--k-neighbors", str(neighbors),
                    "--out", f"detect-readme-k{neighbors}.json"])
    for seed in (1, 5):
        out.append(["detect", "--config", "mixture.json", "--seed", str(seed), "--k-neighbors", "3",
                    "--out", f"detect-mixture-seed{seed}.json"])
    out.append(["detect", "--config", "matrix.json", "--k-neighbors", "3",
                "--out", "detect-matrix.json"])
    out.append(["factorize", "--config", "readme.json", "--k", "3", "--seed", "7",
                "--out", "factorize-readme-seed7"])
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
