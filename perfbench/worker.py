"""One benchmark process: set-up, then closed-loop suites through the CLI.

run.py starts this script in a fresh interpreter and reads the JSON it writes
to ``--result``. Set-up is timed from ``--t0``, the parent's
``time.monotonic()`` taken just before it started this interpreter, until
``import czframe`` and ``make_mother_wavelet()`` have returned. With
``--setup-only`` that is all it does.

Otherwise it runs the workload's suite with ``czframe.cli.main`` (one client,
one suite at a time) until ``--seconds`` of suite time have passed, at least
once, and checks every suite's output against the stored reference. With
``--trace 1`` it then runs the first suite's seed again under the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_STRIDE = 1 << 20


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (NumPy and SciPy bundle one each)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
    }


def run_workload(args) -> dict:
    import resource
    import shutil

    from czframe import cli

    import reference
    import workloads

    expected = reference.load_reference(args.workload)
    work = Path(args.work)
    config = work / "config.json"
    config.write_text(json.dumps(workloads.WORKLOADS[args.workload]))
    suites = []

    def one_suite(seed: int) -> dict:
        out = work / f"suite{len(suites)}"
        cpu0, t0 = time.process_time(), time.perf_counter()
        rc = cli.main(["--config", str(config), "--out", str(out), "--seed", str(seed)])
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        passed, problems = reference.check(out, rc, seed, expected)
        shutil.rmtree(out, ignore_errors=True)
        suites.append({"suite_s": wall, "cpu_s": cpu, "records_passed": passed, "problems": problems})
        return suites[-1]

    # Suite k runs with CLI seed ``seed + k * SEED_STRIDE``: how many power
    # iterations rk_tail needs depends on its random start vector, so each
    # extra suite in a run samples another one instead of repeating it.
    measured = 0.0
    while measured < args.seconds:
        measured += one_suite(args.seed + len(suites) * SEED_STRIDE)["suite_s"]
    result = {"suites": suites, "environment": environment()}
    if args.trace:
        # Traced at the first suite's seed, so the overhead compares equal work.
        result["layers"] = traced_suite(args.workload, lambda: one_suite(args.seed), suites[0]["suite_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def traced_suite(workload: str, one_suite, untraced_s: float) -> dict:
    """Run one suite under the tracer; add its check failures to that suite."""
    import tracemalloc

    import workloads
    from tracer import Tracer

    tracemalloc.start()  # after set-up, so the peak is the suite's own
    with Tracer() as tracer:
        suite = one_suite()
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    coverage = tracer.diag_coverage(suite["suite_s"])
    if abs(coverage - 1.0) > 0.05:
        suite["problems"].append(f"diagnostic spans cover {coverage:.3f} of the traced suite")
    diags = [f"reporting.diag.{d}" for d in workloads.WORKLOADS[workload]["diagnostics"]]
    for name in (*workloads.EXPECTED_CALLS[workload], *diags):
        if tracer.fn_calls[name] == 0:
            suite["problems"].append(f"traced run recorded no call to {name}")

    metrics = tracer.metrics(suite["suite_s"], untraced_s, alloc_peak / 2**20, suite["cpu_s"])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work")
    args = p.parse_args()

    import czframe

    czframe.make_mother_wavelet()
    setup_s = time.monotonic() - args.t0

    source = Path(czframe.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"czframe imported from {source}, not from {ROOT / 'src'}")
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_workload(args))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
