"""Structural check of one suite's output against a stored reference.

The check compares the shape of a report, never its values: unconverged
Hilbert iterates and random-probe gaps change with the seed. It pins what a
faster program may not quietly drop (ROADMAP aim 1): every record's
``(name, operator, grid)``, the config echo, and each CSV profile's header and
row count. Every record must also PASS and the CLI must exit 0.

Write a reference from a trusted output directory with
``python3 perfbench/reference.py <workload> <out_dir>``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _csv_shape(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    return {"header": header, "rows": rows}


def summarize(out_dir: str | Path) -> dict:
    """The seed-independent structure of an emitted report directory."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    config = dict(report["config"])
    config.pop("seed", None)
    return {
        "config": config,
        "records": [[r["name"], r["operator"], r["grid"]] for r in report["records"]],
        "profiles": {p.name: _csv_shape(p) for p in sorted(out_dir.glob("*.csv"))},
    }


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check(out_dir: str | Path, exit_code: int, seed: int, reference: dict) -> tuple[int, list[str]]:
    """Return ``(records_passed, mismatches)`` for one suite's output.

    ``records_passed`` counts records that PASS and match the reference at
    their position; any mismatch makes the suite a failed operation.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads((Path(out_dir) / "report.json").read_text())
        got = summarize(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return 0, problems + [f"unreadable report: {exc}"]
    if report.get("seed") != seed or report["config"].get("seed") != seed:
        problems.append(f"seed echo {report.get('seed')!r} != {seed}")
    if got["config"] != reference["config"]:
        problems.append("config echo differs from the reference")
    want = reference["records"]
    if len(got["records"]) != len(want):
        problems.append(f"{len(got['records'])} records, reference has {len(want)}")
    passed = 0
    for i, (rec, key) in enumerate(zip(report["records"], got["records"])):
        if i < len(want) and key != want[i]:
            problems.append(f"record {i} is {key[:2]} on {key[2]}, reference {want[i][:2]} on {want[i][2]}")
        elif rec.get("verdict") != "PASS":
            problems.append(f"record {i} {key[:2]} is {rec.get('verdict')}")
        elif i < len(want):
            passed += 1
    for name in sorted(set(got["profiles"]) | set(reference["profiles"])):
        g, w = got["profiles"].get(name), reference["profiles"].get(name)
        if g != w:
            problems.append(f"profile {name}: {g} != reference {w}")
    return passed, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: reference.py <workload> <out_dir>", file=sys.stderr)
        return 2
    workload, out_dir = argv
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(summarize(out_dir), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
