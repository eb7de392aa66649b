"""Per-layer spans and exact work counts, installed from outside the program.

The package imports functions by name (``from .wavelets import analyze``), so
one function object is bound in several module namespaces. The tracer wraps
each public module-level function of a layer once, rebinds every attribute of
every ``czframe.*`` module that refers to the original, and wraps the values
of ``reporting._DIAGNOSTICS`` to get one span per diagnostic. Leaving the
``with`` block restores every binding.

Timing: a layer's ``busy_s`` sums its outermost spans (those with no
enclosing span of the same layer); its ``self_s`` sums, over its spans, the
duration minus the direct child spans, so the self times of all layers
partition the time spent inside any span. Counts come from return values only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "operators",
    "wavelets",
    "localization",
    "compactness",
    "carleson",
    "paraproducts",
    "reporting",
)

# Fixed here, not read from czframe, so the printed metric names stay the
# per-layer list declared in BENCHMARK.json.
DIAGNOSTIC_NAMES = (
    "frame",
    "pv",
    "decay",
    "schur",
    "weak_compactness",
    "rk_tail",
    "carleson",
    "paraproduct",
    "decomposition",
)

# Work counts taken from return values, keyed by the wrapped function.
# Byte counts are computed from array sizes, not measured traffic.
COUNTERS = {
    "operators.kernel_matrix": lambda K: {"operators.kernel_matrix.bytes": K.nbytes},
    "wavelets.analyze": lambda field: {"wavelets.analyze.nodes": field.values.size},
    "compactness.rk_tail": lambda res: {
        "compactness.power_iterations": res.iterations,
        "compactness.converged_solves": int(res.converged),
    },
    "paraproducts.paraproduct_matrix": lambda A: {"paraproducts.dense_bytes": A.nbytes},
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Context manager that traces every layer of an imported ``czframe``."""

    def __init__(self):
        self.fn_calls: Counter = Counter()
        self.fn_time: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        import czframe.cli  # noqa: F401  (loads every czframe.* module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"czframe.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        modules = [m for n, m in sys.modules.items() if n == "czframe" or n.startswith("czframe.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._undo.append(functools.partial(setattr, module, name, obj))
        table = sys.modules["czframe.reporting"]._DIAGNOSTICS
        for name, fn in list(table.items()):
            table[name] = self._wrap("reporting", f"reporting.diag.{name}", fn)
            self._undo.append(functools.partial(table.__setitem__, name, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer: str, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = depth[layer] == 0
            depth[layer] += 1
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                self.self_time[layer] += dt - children[0]
                self.fn_calls[qualname] += 1
                self.fn_time[qualname] += dt
                if outermost:
                    self.layer_calls[layer] += 1
                    self.busy[layer] += dt
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return span

    def metrics(self, suite_s: float, untraced_s: float, alloc_peak_mb: float, cpu_s: float) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``; absent work reads 0.

        ``suite_s`` is the traced suite's wall time and ``untraced_s`` that of
        the same suite untraced.
        """
        c, t, n = self.fn_calls, self.fn_time, self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        solves = c["compactness.rk_tail"]
        out.update({
            "operators.kernel_matrix.calls": (c["operators.kernel_matrix"], "count"),
            "operators.kernel_matrix.s": (t["operators.kernel_matrix"], "s"),
            "operators.kernel_matrix.bytes": (n["operators.kernel_matrix.bytes"], "B"),
            "operators.apply_kernel.calls": (c["operators.apply_kernel"], "count"),
            "operators.compute_T1.s": (t["operators.compute_T1"], "s"),
            "wavelets.analyze.calls": (c["wavelets.analyze"], "count"),
            "wavelets.analyze.s": (t["wavelets.analyze"], "s"),
            "wavelets.analyze.nodes": (n["wavelets.analyze.nodes"], "count"),
            "wavelets.synthesize.calls": (c["wavelets.synthesize"], "count"),
            "wavelets.synthesize.s": (t["wavelets.synthesize"], "s"),
            "wavelets.frame_element.calls": (c["wavelets.frame_element"], "count"),
            "compactness.rk_tail.calls": (solves, "count"),
            "compactness.rk_tail.s": (t["compactness.rk_tail"], "s"),
            "compactness.power_iterations": (n["compactness.power_iterations"], "count"),
            "compactness.converged_solves": (n["compactness.converged_solves"], "count"),
            "compactness.converged_ratio": (
                n["compactness.converged_solves"] / solves if solves else 0.0, "ratio"),
            "compactness.analysis_operator.s": (t["compactness.analysis_operator"], "s"),
            "compactness.singular_spectrum.calls": (c["compactness.singular_spectrum"], "count"),
            "compactness.singular_spectrum.s": (t["compactness.singular_spectrum"], "s"),
            "localization.weak_compactness_profile.s": (t["localization.weak_compactness_profile"], "s"),
            "localization.coefficient_field.s": (t["localization.coefficient_field"], "s"),
            "localization.origin_tail.s": (t["localization.origin_tail"], "s"),
            "localization.verify_decay.s": (t["localization.verify_decay"], "s"),
            "carleson.coefficient_measure.s": (t["carleson.coefficient_measure"], "s"),
            "carleson.tent_masses.calls": (c["carleson.tent_masses"], "count"),
            "carleson.tent_masses.s": (t["carleson.tent_masses"], "s"),
            "carleson.stein_inequality_check.s": (t["carleson.stein_inequality_check"], "s"),
            "paraproducts.paraproduct_matrix.s": (t["paraproducts.paraproduct_matrix"], "s"),
            "paraproducts.dense_bytes": (n["paraproducts.dense_bytes"], "B"),
            "paraproducts.paraproduct_compactness.s": (t["paraproducts.paraproduct_compactness"], "s"),
            "paraproducts.apply.calls": (
                c["paraproducts.paraproduct_apply"] + c["paraproducts.paraproduct_adjoint_apply"], "count"),
            "paraproducts.decompose.s": (t["paraproducts.decompose"], "s"),
        })
        for name in DIAGNOSTIC_NAMES:
            out[f"reporting.diag.{name}.s"] = (t[f"reporting.diag.{name}"], "s")
        out["reporting.emit.s"] = (t["reporting.emit"], "s")
        out["reporting.diag_coverage"] = (self.diag_coverage(suite_s), "ratio")
        out["trace.suite_s"] = (suite_s, "s")
        out["trace.overhead_s"] = (suite_s - untraced_s, "s")
        out["suite.alloc_peak_mb"] = (alloc_peak_mb, "MB")
        out["process.cpu_s"] = (cpu_s, "s")
        return out

    def diag_coverage(self, suite_s: float) -> float:
        """Share of the suite's wall time covered by the per-diagnostic spans."""
        return sum(t for name, t in self.fn_time.items() if name.startswith("reporting.diag.")) / suite_s
