"""Command-line entry points for reproducible desk-scale experiments.

Subcommands
-----------
toy-verify   closed-form predictions vs the exact numeric chain
sweep        grid of verifications over the reduced ratios, as CSV
factorize    conjugate-gradient factorization plus both gap checks
detect       full pipeline with KNN detection metrics on a population config
loss-check   constant-offset identity between the two objectives

Exit codes: 0 all checks passed, 1 a tolerance or assertion failed,
2 configuration error, 3 numerical failure (a non-finite factorizer loss, or
an eigensolve or probe pseudoinverse that does not converge), 4 I/O error (a
config that cannot be read or an output that cannot be written).
Every CSV starts with a comment line carrying the resolved configuration;
JSON reports carry it as their first key.  Output bytes depend only on the
command line and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .evaluation import (
    MetricsReport,
    detection_metrics,
    evaluate,
    fit_knn_detector,
    knn_scores,
)
from .graph import GraphError, GraphWeights, build_graph
from .population import (
    AugmentationModel,
    ParametricAugmentation,
    Population,
    PopulationError,
    PopulationSpec,
    TheoryVariant,
    build_toy_population,
    enumerate_population,
    load_population_config,
    sample_wild_mixture,
)
from .spectral import (
    EigensolverError,
    FactorizationError,
    FactorizerOptions,
    embed,
    eigendecompose,
    lowrank_factorize,
    reconstruction_gap,
    write_trace_csv,
)

# theory and loss are imported inside the commands that run them, so that
# detect loads neither; see the package docstring.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# The five-example case's parameters; see add_toy_params.
TOY_DEFAULTS = {"variant": "a", "rho": 1.0, "alpha_prime": 0.03, "beta_prime": 0.01,
                "gamma_ratio": 1e-6}

# detect's and factorize's k may not pass the count of eigenvalues above this
# fraction of the largest; null directions of a 34-vertex graph come near 1e-16.
RANK_TOLERANCE = 1e-10

# Grid points evaluated as one batch: at the largest grid (200 x 200) this
# keeps the stacked arrays to a few megabytes.
SWEEP_BLOCK = 4096
SWEEP_COLUMNS = (
    "alpha_prime,beta_prime,case,probing_error_count_numeric,probing_error_count_closed,"
    "separability_numeric,separability_closed,gap_ab,gap_label,eig_dev_max,projector_dev"
)


class ConfigError(ValueError):
    pass


def _config_line(args: argparse.Namespace) -> str:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return json.dumps(resolved, default=str)


def _write_json(path: Optional[str], payload: dict, args: argparse.Namespace) -> None:
    if path is None:
        return
    document = {"config": json.loads(_config_line(args))}
    document.update(payload)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def cmd_toy_verify(args: argparse.Namespace) -> int:
    from .theory import BOUNDARY_BAND, ReducedParams, boundary_margin, verify_against_pipeline

    params = ReducedParams(args.alpha_prime, args.beta_prime, args.gamma_ratio)
    variant = TheoryVariant(args.variant)
    margin = boundary_margin(variant, params)
    if abs(margin) <= BOUNDARY_BAND:
        raise ConfigError(
            f"degenerate regime: boundary margin {margin:+.4f} is within the "
            f"excluded band +/-{BOUNDARY_BAND}"
        )
    report = verify_against_pipeline(
        variant, params, rho=args.rho, tolerance_scale=args.tolerance_scale
    )
    print(f"toy-verify variant={variant.value} alpha'={params.alpha_prime} "
          f"beta'={params.beta_prime} gamma_ratio={params.gamma_ratio}")
    print(f"{'quantity':<22}{'closed':>16}{'numeric':>16}{'abs_dev':>12}{'tol':>12}  status")
    for c in report.comparisons:
        tol = "-" if c.tolerance is None else f"{c.tolerance:.3g}"
        status = "pass" if c.passed else "FAIL"
        if c.tolerance is None:
            status = "info"
        print(f"{c.name:<22}{c.closed:>16.8f}{c.numeric:>16.8f}{c.abs_dev:>12.3e}{tol:>12}  {status}")
    _write_json(
        args.out,
        {
            "variant": variant.value,
            "comparisons": [dict(vars(c), passed=c.passed) for c in report.comparisons],
            "passed": report.passed,
        },
        args,
    )
    print("RESULT: " + ("pass" if report.passed else "FAIL"))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _count_column(count: np.ndarray) -> np.ndarray:
    """A report's counts as ``sweep`` writes them: -1 where the count is NaN."""
    return np.where(np.isnan(count), -1, count).astype(int)


def cmd_sweep(args: argparse.Namespace) -> int:
    from .theory import ReducedParams, verify_against_pipeline

    if not (0.0 < args.alpha_min <= args.alpha_max <= 0.25):
        raise ConfigError(f"alpha bounds ({args.alpha_min}, {args.alpha_max}) must lie in (0, 0.25]")
    if not (0.0 < args.beta_min <= args.beta_max <= 0.25):
        raise ConfigError(f"beta bounds ({args.beta_min}, {args.beta_max}) must lie in (0, 0.25]")
    if not (1 <= args.resolution <= 200):
        raise ConfigError(f"resolution {args.resolution} must lie in [1, 200]")
    variant = TheoryVariant(args.variant)
    n = args.resolution
    alphas = np.linspace(args.alpha_min, args.alpha_max, n)
    betas = np.linspace(args.beta_min, args.beta_max, n)
    # Each axis value is formatted once; "%.17g" formats as _fmt does.
    alpha_text, beta_text = [_fmt(a) for a in alphas.tolist()], [_fmt(b) for b in betas.tolist()]
    row = "%s,%s," + variant.value + ",%d,%d" + ",%.17g" * 6
    lines = [f"# {_config_line(args)}", SWEEP_COLUMNS]
    # Rows run over beta' within each alpha'; blocks of rows bound the memory.
    for start in range(0, n * n, SWEEP_BLOCK):
        point = np.arange(start, min(start + SWEEP_BLOCK, n * n))
        params = ReducedParams(alphas[point // n], betas[point % n], args.gamma_ratio)
        report = verify_against_pipeline(variant, params, rho=args.rho)
        c = {q.name: q for q in report.comparisons}
        count, sep = c["probing_error_count"], c["separability"]
        # the largest deviation among the three kept eigenvalues
        eig_dev_max = np.max([c[f"eigenvalue_{i}"].abs_dev for i in (1, 2, 3)], axis=0)
        columns = (
            _count_column(count.numeric), _count_column(count.closed), sep.numeric, sep.closed,
            report.gaps.gap_ab, report.gaps.gap_label, eig_dev_max,
            c["projector_deviation"].numeric,
        )
        lines.extend(
            row % (alpha_text[i // n], beta_text[i % n], *values)
            for i, values in enumerate(zip(*(c.tolist() for c in columns)), start)
        )
    out = args.out or "sweep.csv"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"sweep: wrote {len(lines) - 2} rows to {out}")
    return EXIT_OK


def _sampled(spec: PopulationSpec) -> bool:
    return spec.pi_c > 0 or spec.pi_s > 0


def _population(spec: PopulationSpec, model: AugmentationModel, seed: int) -> Population:
    """The config's population: seeded samples of a mixture, or its cells as written."""
    if not _sampled(spec):
        return enumerate_population(spec)
    if not isinstance(model, ParametricAugmentation):
        raise ConfigError("sampled populations need a parametric augmentation block")
    return sample_wild_mixture(spec, seed)


def _population_from_config(config_path: str, seed: int) -> tuple[Population, AugmentationModel]:
    """Population plus augmentation model from a config file.

    Configs with nonzero mixture fractions go through the seeded sampler;
    otherwise the cells are enumerated exactly.
    """
    spec, model = load_population_config(config_path)
    return _population(spec, model, seed), model


def _bundle_from_args(args: argparse.Namespace):
    """The toy case, or the config's population when --config is given.

    The toy flags default to None here, so that one given next to --config,
    which would be ignored, is refused; the toy case fills in the defaults.
    """
    weights = GraphWeights(args.eta_u, args.eta_l)
    if args.config:
        for name in TOY_DEFAULTS:
            if getattr(args, name) is not None:
                raise ConfigError(f"--{name.replace('_', '-')} does not apply with --config")
        population, model = _population_from_config(args.config, args.seed)
        return build_graph(model, population, weights), population
    for name, default in TOY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    population, model = build_toy_population(
        args.variant,
        rho=args.rho,
        alpha=args.alpha_prime * args.rho,
        beta=args.beta_prime * args.rho,
        gamma=args.gamma_ratio * args.rho,
    )
    return build_graph(model, population, weights), population


def _require_rank(k: int, eigenvalues: np.ndarray) -> None:
    """Refuse a k past the graph's numerical rank, whose extra columns are null directions."""
    rank = int(np.sum(eigenvalues > RANK_TOLERANCE * eigenvalues[0]))
    if k > rank:
        raise ConfigError(
            f"k={k} exceeds the graph's rank {rank}: only {rank} eigenvalues exceed "
            f"{RANK_TOLERANCE:g} times the largest"
        )


def cmd_factorize(args: argparse.Namespace) -> int:
    from .loss import equivalence_gap

    bundle, _ = _bundle_from_args(args)
    k = args.k
    # Lifted to the vertices, factors on Q keep the loss and the projector
    # distances (GraphBundle.Q), so both checks run on Q.
    q = bundle.Q
    embedding = eigendecompose(q, min(k, q.shape[0]))
    _require_rank(k, embedding.eigenvalues)
    opts = FactorizerOptions(max_iters=args.max_iters, tol=args.tol, seed=args.seed)
    state = lowrank_factorize(q, k, opts)
    gaps = reconstruction_gap(state, embedding)
    equivalence = equivalence_gap(args.trials, args.seed, bundle, k)

    out_dir = Path(args.out or "factorize-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", state, header=_config_line(args))

    loss_ok = gaps.loss_gap <= args.loss_gap_tol
    spread_ok = equivalence.relative_spread <= args.spread_tol
    passed = loss_ok and spread_ok
    _write_json(
        str(out_dir / "gaps.json"),
        {
            "final_loss": state.final_loss,
            "iterations": state.iterations,
            "converged": state.converged,
            "spectral_optimum": embedding.trailing_power(),
            "loss_gap": gaps.loss_gap,
            "subspace_gap": gaps.subspace_gap,
            "degenerate_subspace": gaps.degenerate,
            "equivalence_spread": equivalence.spread,
            "equivalence_relative_spread": equivalence.relative_spread,
            "equivalence_constant": equivalence.constant,
            "passed": passed,
        },
        args,
    )
    print(f"factorize: k={k} final_loss={state.final_loss:.6e} "
          f"optimum={embedding.trailing_power():.6e} loss_gap={gaps.loss_gap:.3e} "
          f"({'pass' if loss_ok else 'FAIL'})")
    print(f"factorize: converged={state.converged} iterations={state.iterations}")
    print(f"factorize: equivalence relative spread={equivalence.relative_spread:.3e} "
          f"({'pass' if spread_ok else 'FAIL'})")
    print("RESULT: " + ("pass" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_loss_check(args: argparse.Namespace) -> int:
    from .loss import equivalence_gap, matrix_loss, random_factors, surrogate_loss_from_parts

    bundle, _ = _bundle_from_args(args)
    equivalence = equivalence_gap(args.trials, args.seed, bundle, args.k)
    # one seeded draw: the first of equivalence_gap's trials
    (H,), (f_rows,) = random_factors(bundle, args.k, args.seed, 1)
    breakdown = surrogate_loss_from_parts(
        f_rows, bundle.A_u_g, bundle.A_l_g, bundle.weights, bundle.counts
    )
    constant_err = equivalence.max_constant_error / (1.0 + abs(equivalence.constant))
    passed = equivalence.relative_spread <= args.spread_tol and constant_err <= args.spread_tol
    payload = breakdown.to_json_dict()
    payload.update(
        {
            "gap_spread": equivalence.spread,
            "constant": equivalence.constant,
            "relative_spread": equivalence.relative_spread,
            "constant_relative_error": constant_err,
            "matrix_loss": matrix_loss(H, bundle.Q),
            "passed": passed,
        }
    )
    _write_json(args.out, payload, args)
    print(f"loss-check: relative spread={equivalence.relative_spread:.3e} "
          f"constant={equivalence.constant:.12f} "
          f"constant_rel_err={constant_err:.3e}")
    print("RESULT: " + ("pass" if passed else "FAIL"))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_detect(args: argparse.Namespace) -> int:
    spec, model = load_population_config(args.config)
    if args.seed is None:
        args.seed = 0 if _sampled(spec) else None
    elif not _sampled(spec):
        raise ConfigError(
            "--seed applies only to a sampled mixture (nonzero pi_c or pi_s); "
            "this config's cells are enumerated exactly"
        )
    population = _population(spec, model, args.seed)
    bundle = build_graph(model, population, GraphWeights(args.eta_u, args.eta_l))
    k = args.k if args.k else len(population.classes) + 1
    n = bundle.counts
    embedding = embed(bundle, min(k, len(n)))
    _require_rank(k, embedding.eigenvalues)
    z = embedding.Z
    ev = evaluate(bundle.groups, z)

    labeled, wild_id, semantic = ev.labeled_rows, ev.wild_id_rows, ev.semantic_rows
    detector = fit_knn_detector(z[labeled], args.k_neighbors, args.percentile, n[labeled])
    # Wild-ID examples are the held-out ID side; without any, the
    # self-excluded reference scores stand in.
    if wild_id:
        scores_id, n_id = knn_scores(detector, z[wild_id]), n[wild_id]
    else:
        scores_id, n_id = detector.reference_scores, detector.counts
    scores_sem = knn_scores(detector, z[semantic])
    detection = detection_metrics(scores_id, scores_sem, detector, n_id, n[semantic])

    report = MetricsReport(
        id_acc=ev.id_accuracy,
        ood_acc=ev.covariate_accuracy,
        probing_error_rate=ev.probing.rate,
        probing_error_count=ev.probing.count,
        separability=ev.separability,
        fpr_at_threshold=detection.fpr_at_threshold,
        fpr95=detection.fpr95,
        auroc=detection.auroc,
    )
    _write_json(args.out, report.to_json_dict(), args)
    for key, value in report.to_json_dict().items():
        print(f"detect: {key}={value}")
    return EXIT_OK


def _at_least(low, convert=int):
    """An argparse type: ``convert(text)``, refused unless it is finite and at least ``low``."""

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"{text} is not a finite value >= {low}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names the type
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; each ``parse_args`` call still returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="wildgraph",
        description="Augmentation-graph spectral embeddings and shift diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_text) -> argparse.ArgumentParser:
        # No prefix matching: --alpha is a usage error, not --alpha-prime,
        # which is a ratio to rho rather than a probability.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", type=str, default=None, help="output path")
        p.set_defaults(func=func)
        return p

    def add_toy_params(p, variants=tuple(v.value for v in TheoryVariant), point=True,
                       defaults=TOY_DEFAULTS) -> None:
        """The five-example case: its layout, rho and the reduced ratios."""
        p.add_argument("--variant", type=str, default=defaults["variant"], choices=variants)
        p.add_argument("--rho", type=float, default=defaults["rho"])
        if point:
            p.add_argument("--alpha-prime", type=float, default=defaults["alpha_prime"])
            p.add_argument("--beta-prime", type=float, default=defaults["beta_prime"])
        p.add_argument("--gamma-ratio", type=float, default=defaults["gamma_ratio"])

    def add_graph_params(p, config_required=False, seed_default=0) -> None:
        """A population config (sampled with --seed) and the edge weights."""
        p.add_argument("--config", type=str, default=None, required=config_required,
                       help="population config JSON")
        p.add_argument("--seed", type=_at_least(0), default=seed_default)
        p.add_argument("--eta-u", type=float, default=5.0)
        p.add_argument("--eta-l", type=float, default=1.0)

    def add_gap_params(p) -> None:
        """factorize and loss-check: the toy case or a config, the rank, the identity check."""
        add_toy_params(p, variants=("a", "b"), defaults=dict.fromkeys(TOY_DEFAULTS))
        add_graph_params(p)
        p.add_argument("--k", type=_at_least(1), default=3)
        p.add_argument("--trials", type=_at_least(2), default=10)
        p.add_argument("--spread-tol", type=_at_least(0.0, float), default=1e-9)

    p_verify = add_command("toy-verify", cmd_toy_verify, "closed forms vs the numeric chain")
    add_toy_params(p_verify)
    p_verify.add_argument("--tolerance-scale", type=_at_least(0.0, float), default=1.0)

    p_sweep = add_command("sweep", cmd_sweep, "verification grid over the reduced ratios")
    add_toy_params(p_sweep, point=False)
    p_sweep.add_argument("--alpha-min", type=float, default=0.01)
    p_sweep.add_argument("--alpha-max", type=float, default=0.2)
    p_sweep.add_argument("--beta-min", type=float, default=0.01)
    p_sweep.add_argument("--beta-max", type=float, default=0.2)
    p_sweep.add_argument("--resolution", type=int, default=20)

    p_fact = add_command("factorize", cmd_factorize, "conjugate-gradient factorization with gap checks")
    add_gap_params(p_fact)
    p_fact.add_argument("--max-iters", type=_at_least(1), default=10000)
    p_fact.add_argument("--tol", type=_at_least(0.0, float), default=1e-14)
    p_fact.add_argument("--loss-gap-tol", type=_at_least(0.0, float), default=1e-4)

    p_loss = add_command("loss-check", cmd_loss_check, "constant-offset identity check")
    add_gap_params(p_loss)

    p_detect = add_command("detect", cmd_detect, "full pipeline with KNN detection metrics")
    # --seed only seeds a mixture's sampling here, so it is refused on an
    # enumerated config rather than recorded and ignored.
    add_graph_params(p_detect, config_required=True, seed_default=None)
    p_detect.add_argument("--k", type=_at_least(0), default=0,
                          help="embedding rank; 0 = classes + 1")
    p_detect.add_argument("--k-neighbors", type=int, default=5)
    p_detect.add_argument("--percentile", type=float, default=0.95)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FactorizationError, EigensolverError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, PopulationError, GraphError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
