#!/usr/bin/env python3
"""wildgraph benchmark: real CLI commands in a closed loop, outputs checked.

    python3 perfbench/run.py --workload detect-grouped --seed 1 --seconds 30 --trace 0

One caller runs ``wildgraph.cli.main(argv)`` in process; each command starts
after the previous one returns.  The loop repeats whole cycles of the
workload's commands (see ``workloads.py``) while another cycle is expected
to end within ``--seconds``; the first cycle always runs.  Every output is
checked outside the timed region, and a command fails on a non-zero exit, a
failed check or an exception.

Times are reported at a reference host speed.  On a shared host the speed
of one process drifts by up to 2x over seconds to minutes, so the same
commands measured minutes apart differ by far more than any bound.  Before
each command and after each set-up round the run times a fixed kernel of
plane rotations on a 48 x 48 array (``HostProbe``), which no program change
can alter.  Every time is multiplied, and every rate divided, by
PROBE_REFERENCE_S over the run's mean kernel time; on a host that runs the
kernel in PROBE_REFERENCE_S they are plain wall-clock figures.  Set-up
time is scaled by the kernel times taken between its own rounds.  The
scale factors and the unscaled figures are printed in the details line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
command twice, untraced and traced in alternating order, and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead.

The program is imported from ``src/`` next to this directory, with BLAS
pinned to one thread; the run refuses to start otherwise.  The second to
last stdout line is a JSON record of the environment and sample counts; the
last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 21
# About the fastest the kernel ran on a 2-vCPU 2.1 GHz Xeon VM; the median
# there was 17 ms.
PROBE_REFERENCE_S = 0.010
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _pin_threads() -> None:
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread pin was set")
    for name in PIN_VARS:
        os.environ[name] = "1"


def _environment(workload: str, seed: int) -> dict:
    import numpy as np

    np.dot(np.ones((64, 64)), np.ones((64, 64)))  # let BLAS start its threads, if any
    pins = {name: os.environ.get(name) for name in PIN_VARS}
    task_dir = Path("/proc/self/task")
    threads = len(list(task_dir.iterdir())) if task_dir.is_dir() else None
    if any(v != "1" for v in pins.values()) or threads not in (None, 1):
        raise BenchError(f"BLAS is not pinned to one thread: {pins}, {threads} threads")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "thread_pins": pins,
        "threads": threads,
    }


def _fresh_cli():
    """Import the program from src/, dropping any earlier import of it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "wildgraph" or n.startswith("wildgraph.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("wildgraph.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import wildgraph from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"wildgraph was imported from {cli.__file__}, not from {SRC}")
    return cli


class HostProbe:
    """Times a fixed, program-independent kernel to track the host's speed."""

    def __init__(self) -> None:
        import numpy as np

        x = np.random.default_rng(0).standard_normal((48, 48))
        self.matrix = x + x.T
        self.times: list[float] = []

    def sample(self) -> None:
        w = self.matrix.copy()
        n = w.shape[0]
        c, s = 0.8, 0.6
        start = time.perf_counter()
        for p in range(n - 1):
            for q in range(p + 1, n):
                col_p, col_q = w[:, p].copy(), w[:, q].copy()
                w[:, p] = c * col_p - s * col_q
                w[:, q] = s * col_p + c * col_q
                row_p, row_q = w[p, :].copy(), w[q, :].copy()
                w[p, :] = c * row_p - s * row_q
                w[q, :] = s * row_p + c * row_q
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return PROBE_REFERENCE_S / statistics.fmean(self.times)


def at_reference_speed(metrics: dict, units: dict[str, str], scale: float) -> dict:
    """Times multiplied and rates divided by the host-speed scale factor."""
    factor = {"s": scale, "1/s": 1.0 / scale}
    return {name: value * factor.get(units[name], 1.0) for name, value in metrics.items()}


def _setup(workload: str, seed: int, work: Path, probe: HostProbe):
    """Import plus input generation, repeated; returns the last result and the median time."""
    from workloads import WORKLOADS

    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        gc.collect()  # each round starts from the same heap, not the last round's garbage
        start = time.perf_counter()
        cli = _fresh_cli()
        commands, references = WORKLOADS[workload](seed, work)
        times.append(time.perf_counter() - start)
        probe.sample()
    return cli, commands, references, statistics.median(times)


class Runner:
    """Executes commands in process, times them and checks their outputs."""

    def __init__(self, cli, work: Path, probe: HostProbe) -> None:
        self.cli = cli
        self.probe = probe
        self.out_dir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()  # start each command from a collected heap, as a fresh process would
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                rc = -1
                stderr.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        return rc, stdout.getvalue() + stderr.getvalue(), elapsed

    def execute(self, cmd, tracer=None) -> float:
        for path in self.out_dir.rglob("*"):
            if path.is_file():
                path.unlink()
        self.probe.sample()
        if tracer is not None:
            tracer.install()
        try:
            rc, output, elapsed = self.call(cmd.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors = [] if rc == 0 else [f"exit {rc}: {output.strip()[-300:]}"]
        if rc == 0:
            try:
                errors += cmd.check(cmd, output)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"output unreadable: {type(exc).__name__}: {exc}")
        if tracer is not None:
            written = sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())
            errors += tracer.finish_command(written)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{' '.join(cmd.argv[:1])}: {'; '.join(errors)}")
        return elapsed


def _cycles(commands, seconds: float, run_cycle) -> list[float]:
    """Run one cycle, then more while another one would end within the budget."""
    start = time.perf_counter()
    ends = []
    while True:
        run_cycle(commands)
        ends.append(time.perf_counter() - start)
        if ends[-1] + ends[-1] / len(ends) > seconds:
            return [b - a for a, b in zip([0.0] + ends, ends)]


def _tail(cycles: list[list[float]]) -> tuple[float, float]:
    """The tail latency and its percentile within a cycle.

    In every cycle this takes the order statistic with TAIL_BEYOND of the
    cycle's commands above it (the maximum in a shorter cycle) and reports
    its median over cycles.  The rank depends on the cycle alone, never on
    how many cycles fit into a run, so a faster program is compared at
    the same commands.
    """
    n = len(cycles[0])
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    tail = statistics.median(sorted(cycle)[rank] for cycle in cycles)
    return tail, 100.0 * (rank + 1) / n


def measure(runner: Runner, commands, seconds: float) -> tuple[dict, dict]:
    cycles, points = [], 0

    def run_cycle(cycle):
        nonlocal points
        cycles.append([runner.execute(cmd) for cmd in cycle])
        points += sum(cmd.points for cmd in cycle)

    cycle_s = _cycles(commands, seconds, run_cycle)
    latencies = [x for cycle in cycles for x in cycle]
    busy = sum(latencies)
    tail, tail_pct = _tail(cycles)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "ops_per_s": len(latencies) / busy,
        "points_per_s": points / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"samples": len(latencies), "tail_percentile": tail_pct, "cycle_s": cycle_s,
               "latency_s": [round(x, 4) for x in latencies]}
    return metrics, details


def measure_traced(runner: Runner, commands, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    parity = 0

    def run_cycle(cycle):
        nonlocal parity
        for cmd in cycle:
            if parity % 2:
                traced.append(runner.execute(cmd, tracer))
                plain.append(runner.execute(cmd))
            else:
                plain.append(runner.execute(cmd))
                traced.append(runner.execute(cmd, tracer))
            parity += 1

    cycle_s = _cycles(commands, seconds, run_cycle)
    overhead = sum(traced) / sum(plain) - 1.0
    return tracer.metrics(overhead), {"samples": len(traced), "cycle_s": cycle_s}


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        units: dict[str, str]) -> tuple[dict, dict]:
    """One run; times and rates in the result are at the reference host speed."""
    env = _environment(workload, seed)
    work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    try:
        setup_probe, probe = HostProbe(), HostProbe()
        cli, commands, references, setup_s = _setup(workload, seed, work, setup_probe)
        runner = Runner(cli, work, probe)
        for argv, _ in references:  # also warms up lazy imports before timing
            runner.call(argv)
        if trace:
            measured, details = measure_traced(runner, commands, seconds)
        else:
            measured, details = measure(runner, commands, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()
    details.update(
        env=env,
        commands_per_cycle=len(commands),
        reference_runs=len(references),
        fail_frac=runner.failed / runner.attempted,
        host={"probes": len(probe.times), "probe_mean_s": statistics.fmean(probe.times),
              "scale": probe.scale(), "setup_scale": setup_probe.scale()},
        unscaled=dict(measured, setup_s=setup_s) if not trace else measured,
        errors=runner.errors[:10],
    )
    metrics = at_reference_speed(measured, units, probe.scale())
    if not trace:  # set-up is scaled by the kernel times taken between its own rounds
        metrics["setup_s"] = setup_s * setup_probe.scale()
    return metrics, {"attempted": runner.attempted, "failed": runner.failed, "details": details}


def main(argv=None) -> int:
    try:
        _pin_threads()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = _declared(bool(args.trace))
        metrics, outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), units)
        if metrics.keys() != units.keys():
            raise BenchError(
                f"measured metrics {sorted(metrics)} differ from the declared {sorted(units)}"
            )
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome["details"], sort_keys=True))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
