"""czframe benchmark: one measured run of one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload {tail_solve,paraproduct,frame_local} \
        --seed N --seconds S --trace {0,1}

Each run starts fresh interpreters (worker.py) that import czframe from this
checkout's ``src/`` and drive the real user path, ``czframe.cli.main``, on the
workload's config; the first suite gets ``--seed N``, later ones seeds derived
from it. BLAS threads are pinned to the number of usable cores. Every suite's
output is checked against the reference stored in ``perfbench/reference/``.

``--trace 0`` prints the end-to-end metrics: ``suite_s`` (median wall time of
the suites run in ``S`` seconds, at least one), ``setup_s`` (median over three
fresh interpreters of the time until ``import czframe`` and
``make_mother_wavelet()`` return), ``peak_rss_mb`` (the suite process's
``ru_maxrss``) and ``records_passed`` (records that PASS and match the
reference, in the worst suite). ``--trace 1`` runs the same suites, then the
first one again under the tracer, and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. Exits 2 without a result when the czframe sources
are missing, and 1 when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS  # perfbench/ is sys.path[0] when run as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # whole run, so it ends within the 180 s a run may take


def spawn(worker_args: list[str], env: dict, result: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return the JSON it wrote."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result), *worker_args]
    t0 = time.monotonic()
    with subprocess.Popen([*cmd, "--t0", repr(t0)], env=env, stdout=sys.stderr) as proc:
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker ran out of time") from None
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads(result.read_text())


def main() -> int:
    p = argparse.ArgumentParser(description="czframe benchmark run")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "czframe" / "__init__.py").is_file():
        print(f"error: no czframe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {
        **os.environ,
        "PYTHONPATH": pythonpath,
        "OPENBLAS_NUM_THREADS": str(nproc),
        "OMP_NUM_THREADS": str(nproc),
    }
    seed = args.seed % 2**32  # the CLI takes a nonnegative seed

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        # One set-up probe on each side of the suites, so that setup_s samples
        # the whole run; the suite process's own set-up is the third sample.
        setups = []
        if not args.trace:
            setups.append(spawn(["--setup-only"], env, work / "setup0.json", deadline)["setup_s"])
        run = spawn(
            [
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work", str(work),
            ],
            env, work / "run.json", deadline,
        )
        if not args.trace:
            setups.append(spawn(["--setup-only"], env, work / "setup1.json", deadline)["setup_s"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    suites = run["suites"]
    for i, suite in enumerate(suites):
        for problem in suite["problems"]:
            print(f"suite {i}: check failed: {problem}", file=sys.stderr)
    failed = sum(1 for suite in suites if suite["problems"])
    if args.trace:
        metrics = run["layers"]
    else:
        setups.append(run["setup_s"])
        metrics = {
            "suite_s": {"value": statistics.median(s["suite_s"] for s in suites), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "records_passed": {"value": min(s["records_passed"] for s in suites), "unit": "count"},
        }
    print("environment: " + json.dumps({**run["environment"], "seed": seed}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(suites),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
