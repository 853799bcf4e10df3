"""Outside-in per-layer tracing of qsep, installed from the benchmark's own files.

``installed(tracer)`` replaces each traced function with a timing wrapper in
every qsep namespace that binds it: the defining module, each module that did
``from .x import f``, and dispatch tables such as ``criteria._SPECTRUM_FN``.
The originals are restored on exit, so untraced passes run unwrapped code.

Spans nest through one stack. A span's self time is its duration minus the
time of the spans it called, so the self times of all spans, plus that of the
root span ``other`` (time covered by no qsep span), add up to the traced pass.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# span name -> (module, functions it covers)
SPANS = {
    "states.build": ("states", ("build",)),
    "linalg.eigvals_hermitian": ("linalg", ("eigvals_hermitian",)),
    "linalg.eig_hermitian": ("linalg", ("eig_hermitian",)),
    "linalg.partial_trace_first": ("linalg", ("partial_trace_first",)),
    "linalg.partial_transpose_first": ("linalg", ("partial_transpose_first",)),
    "linalg.power_on_support": ("linalg", ("power_on_support",)),
    "entropy.sandwiched_matrix": ("entropy", ("sandwiched_matrix",)),
    "entropy.cstre": ("entropy", ("cstre",)),
    "entropy.ar_conditional": ("entropy", ("ar_conditional",)),
    "entropy.von_neumann_conditional": ("entropy", ("von_neumann_conditional",)),
    "entropy.ppt_margin": ("entropy", ("ppt_margin",)),
    "entropy.cstre_infinity_margin": ("entropy", ("cstre_infinity_margin",)),
    "entropy.ar_infinity_margin": ("entropy", ("ar_infinity_margin",)),
    "entropy._log_power_sum": ("entropy", ("_log_power_sum",)),
    "criteria.margin": ("criteria", ("margin",)),
    "criteria.locate_sign_change": ("criteria", ("locate_sign_change",)),
    "criteria.threshold": ("criteria", ("threshold",)),
    "analytic.sandwich_eigs": (
        "analytic",
        ("pp_w_sandwich_eigs", "pp_ghz_sandwich_eigs", "wl_w_sandwich_eigs",
         "wl_ghz_sandwich_eigs"),
    ),
    "analytic.bounds": (
        "analytic",
        ("bound_pp_w", "bound_pp_ghz", "bound_wl_w", "bound_wl_ghz", "vidal_tarrach_pp",
         "vidal_tarrach_wl", "schmidt_coeffs"),
    ),
    "cli.main": ("cli", ("main",)),
}
ROOT_SPAN = "other"


def eig_cost(n: int, vectors: bool) -> tuple[float, float]:
    """Computed (real flops, bytes) of a dense complex Hermitian eigensolve of order n.

    Flops: Householder tridiagonalisation, 4/3 n^3 complex multiply-adds of 4
    real flops each, plus 2 n^3 more to accumulate eigenvectors. Bytes: the
    complex128 input, the float64 eigenvalues and the complex128 vectors.
    """
    flops = 16.0 / 3.0 * n**3 + (8.0 * n**3 if vectors else 0.0)
    moved = 16.0 * n * n + 8.0 * n + (16.0 * n * n if vectors else 0.0)
    return flops, moved


class Tracer:
    """Aggregated spans plus the counters measured at span boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.eig_flops = 0.0
        self.eig_bytes = 0.0
        self.margin_xs: list[float] = []
        self.evals_per_threshold: list[int] = []
        self.useful_evals: list[int] = []
        self._stack: list[list] = []  # [name, start, child seconds, margin count at entry]
        self._hooks = {
            "linalg.eigvals_hermitian": self._on_eig(vectors=False),
            "linalg.eig_hermitian": self._on_eig(vectors=True),
            "criteria.margin": self._on_margin,
            "criteria.threshold": self._on_threshold,
        }

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0, len(self.margin_xs)]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(frame, args, result)
                return result
            finally:
                duration = perf_counter() - frame[1]
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration

        return traced

    def run(self, fn):
        """Run ``fn`` as the root span; returns its result."""
        return self.wrap(ROOT_SPAN, fn)()

    def _on_eig(self, vectors: bool):
        def hook(frame, args, result):
            flops, moved = eig_cost(np.shape(args[0])[0], vectors)
            self.eig_flops += flops
            self.eig_bytes += moved

        return hook

    def _on_margin(self, frame, args, result):
        self.margin_xs.append(args[0].x)

    def _on_threshold(self, frame, args, result):
        xs = self.margin_xs[frame[3]:]
        lo, hi = result.bracket
        self.evals_per_threshold.append(len(xs))
        self.useful_evals.append(sum(1 for x in xs if lo <= x <= hi))


@contextmanager
def installed(tracer: Tracer):
    """Swap every binding of each traced function for its wrapper, then restore."""
    wrappers = {}  # id(original) -> wrapper
    for name, (module_name, functions) in SPANS.items():
        module = sys.modules[f"qsep.{module_name}"]
        for function in functions:
            original = getattr(module, function)
            wrappers[id(original)] = tracer.wrap(name, original)
    restore = []
    modules = [m for key, m in sys.modules.items() if key == "qsep" or key.startswith("qsep.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in wrappers:
                restore.append((vars(module), key, value))
            elif isinstance(value, dict):
                restore.extend((value, k, v) for k, v in value.items() if id(v) in wrappers)
    for namespace, key, original in restore:
        namespace[key] = wrappers[id(original)]
    try:
        yield tracer
    finally:
        for namespace, key, original in restore:
            namespace[key] = original


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as name -> (value, unit)."""
    metrics = {}
    for name in (*SPANS, ROOT_SPAN):
        if name != ROOT_SPAN:
            metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    evals = tracer.evals_per_threshold
    metrics["linalg.eig_flops_computed"] = (tracer.eig_flops, "flop")
    metrics["linalg.eig_bytes_computed"] = (tracer.eig_bytes, "B")
    metrics["criteria.evals_per_threshold"] = (
        sum(evals) / len(evals) if evals else 0.0, "count")
    metrics["criteria.useful_eval_ratio"] = (
        sum(tracer.useful_evals) / sum(evals) if evals else 0.0, "ratio")
    return metrics
