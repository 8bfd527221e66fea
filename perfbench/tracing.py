"""Per-layer self times and counts, recorded from outside the program.

The tracer wraps the public functions of each wildgraph module and installs
the wrappers at every module attribute that names them, because callers
look functions up in their own module namespace (``from .spectral import
eigendecompose`` binds ``wildgraph.evaluation.eigendecompose``).  Each
wrapper is a span: its self time is its duration minus the duration of the
spans it caused, and it is charged to one per-layer metric.  Counts are
taken from the arguments and results at the same boundaries.

Nothing under ``src/`` is changed; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("population", "graph", "spectral", "loss", "evaluation", "theory", "cli")

# Public function -> metric charged with its self time.  A public function
# missing here is charged to its layer's default metric below.
SELF_METRIC = {
    "load_population_config": "population.load_s",
    "transformation_matrix": "population.expand_s",
    "self_supervised_adjacency": "graph.adjacency_s",
    "supervised_adjacency": "graph.adjacency_s",
    "eigendecompose": "spectral.eig_s",
    "lowrank_factorize": "spectral.factorize_s",
    "reconstruction_gap": "spectral.gap_check_s",
    "write_trace_csv": "spectral.trace_csv_s",
    "fit_linear_probe": "evaluation.probe_s",
    "probe_scores": "evaluation.probe_s",
    "predict": "evaluation.probe_s",
    "classification_accuracy": "evaluation.probe_s",
    "probing_error": "evaluation.probing_s",
    "separability": "evaluation.separability_s",
    "fit_knn_detector": "evaluation.knn_s",
    "knn_scores": "evaluation.knn_s",
    "run_toy_pipeline": "theory.pipeline_s",
    "verify_against_pipeline": "theory.pipeline_s",
}
LAYER_DEFAULT = {
    "population": "population.build_s",
    "graph": "graph.normalize_s",
    "spectral": "spectral.embed_s",
    "loss": "loss.equivalence_s",
    "evaluation": "evaluation.metrics_s",
    "theory": "theory.closed_form_s",
    "cli": "cli.self_s",
}
TIME_METRICS = tuple(sorted(set(SELF_METRIC.values()) | set(LAYER_DEFAULT.values())))
# Counts summed over a command, reported per command.
SUM_COUNTS = (
    "population.examples",
    "spectral.eig_calls",
    "spectral.factorize_iters",
    "loss.surrogate_calls",
    "theory.points",
    "cli.bytes_written",
)
RESIDUAL_GATE = 1e-8  # relative to the Frobenius norm of the decomposed matrix


def _public_functions(layer: str, module) -> list[str]:
    names = ["main"] if layer == "cli" else list(getattr(module, "__all__", ()))
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Self-time and count accumulator for one traced run."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(SUM_COUNTS, 0)
        self.vertices_max = 0
        self.dense_bytes = 0
        self.eig_n_max = 0
        self.knn_scores = 0
        self.knn_tied = 0
        self.residual_max = 0.0
        self.eigengap_min = float("inf")
        self.commands = 0
        self._stack: list[float] = []
        self._decompositions: list[tuple[np.ndarray, object]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "eigendecompose": self._on_eig,
            "lowrank_factorize": self._on_factorize,
            "surrogate_loss_from_parts": self._on_surrogate,
            "fit_knn_detector": self._on_knn,
            "run_toy_pipeline": self._on_point,
            "combine_and_normalize": self._on_bundle,
            "build_graph": self._on_bundle,
            "enumerate_population": self._on_population,
            "sample_wild_mixture": self._on_population,
            "build_toy_population": self._on_population,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Swap every module attribute bound to a public function for its span."""
        modules = {layer: importlib.import_module(f"wildgraph.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name in _public_functions(layer, module):
                fn = getattr(module, name)
                metric = SELF_METRIC.get(name, LAYER_DEFAULT[layer])
                wrappers[id(fn)] = self._wrap(fn, metric, self._hooks.get(name))
        targets = [m for n, m in sys.modules.items() if n == "wildgraph" or n.startswith("wildgraph.")]
        for module in targets:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, metric: str, hook):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    # -- hooks: counts at the layer boundaries ----------------------------

    def _on_eig(self, args, kwargs, result) -> None:
        matrix = np.asarray(args[0] if args else kwargs["A_tilde"], dtype=float)
        self.counts["spectral.eig_calls"] += 1
        self.eig_n_max = max(self.eig_n_max, matrix.shape[0])
        self._decompositions.append((matrix, result))

    def _on_factorize(self, args, kwargs, result) -> None:
        self.counts["spectral.factorize_iters"] += result.iterations

    def _on_surrogate(self, args, kwargs, result) -> None:
        self.counts["loss.surrogate_calls"] += 1

    def _on_knn(self, args, kwargs, result) -> None:
        _, counts = np.unique(result.reference_scores, return_counts=True)
        self.knn_scores += int(counts.sum())
        self.knn_tied += int(counts[counts > 1].sum())

    def _on_point(self, args, kwargs, result) -> None:
        self.counts["theory.points"] += 1

    def _on_bundle(self, args, kwargs, result) -> None:
        n = result.A_tilde.shape[0]
        square = sum(
            1
            for f in dataclasses.fields(result)
            if getattr(getattr(result, f.name), "shape", None) == (n, n)
        )
        self.vertices_max = max(self.vertices_max, n)
        self.dense_bytes = max(self.dense_bytes, 8 * n * n * square)

    def _on_population(self, args, kwargs, result) -> None:
        population = result[0] if isinstance(result, tuple) else result
        self.counts["population.examples"] += len(population)

    # -- per-command bookkeeping ------------------------------------------

    def finish_command(self, bytes_written: int) -> list[str]:
        """Close one traced command; return its spectral check failures.

        Residuals and eigengaps are computed here, after the command's
        timed region, from the matrices and embeddings the spans kept.
        """
        self.commands += 1
        self.counts["cli.bytes_written"] += bytes_written
        errors = []
        for matrix, embedding in self._decompositions:
            sym = 0.5 * (matrix + matrix.T)
            k = embedding.k
            lam = embedding.eigenvalues
            v = embedding.V_k
            residual = float(np.linalg.norm(sym @ v - v * lam[:k]))
            scale = float(np.linalg.norm(sym))
            self.residual_max = max(self.residual_max, residual)
            if residual > RESIDUAL_GATE * scale:
                errors.append(
                    f"eigendecompose residual {residual:.3e} exceeds "
                    f"{RESIDUAL_GATE:g} * |A| = {RESIDUAL_GATE * scale:.3e} (n={sym.shape[0]}, k={k})"
                )
            if k < lam.shape[0]:
                self.eigengap_min = min(self.eigengap_min, float(lam[k - 1] - lam[k]))
        self._decompositions.clear()
        return errors

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        per = max(self.commands, 1)
        out = {name: value / per for name, value in self.self_s.items()}
        out.update({name: value / per for name, value in self.counts.items()})
        out.update(
            {
                "graph.vertices_max": self.vertices_max,
                "graph.dense_bytes": self.dense_bytes,
                "spectral.eig_n_max": self.eig_n_max,
                "spectral.residual_max": self.residual_max,
                "spectral.eigengap_min": self.eigengap_min if self.eigengap_min != float("inf") else 0.0,
                "evaluation.knn_tie_frac": self.knn_tied / self.knn_scores if self.knn_scores else 0.0,
                "trace.overhead_frac": overhead_frac,
            }
        )
        return out
