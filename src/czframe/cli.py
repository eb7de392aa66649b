"""Command line entry point.

Usage: czframe --config suite.json --out results/ [--seed N] [--list-operators]

Exit codes: 0 when the suite verdict is PASS, 1 when any diagnostic fails,
2 on configuration or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .operators import model_zoo
from .config import ConfigError, SuiteConfig
from .reporting import emit, run_suite


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="czframe",
        description=(
            "Run the singular-integral compactness diagnostic suite on a "
            "continuous wavelet frame and emit JSON/CSV reports."
        ),
    )
    p.add_argument("--config", help="path to the JSON suite configuration")
    p.add_argument("--out", help="output directory for report files")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--list-operators",
        action="store_true",
        help="print the model operator labels and exit",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_operators:
        for label, model in sorted(model_zoo().items()):
            print(f"{label}: {model.description}")
        return 0
    if not args.config or not args.out:
        print("error: --config and --out are required", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or encoding
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.seed is not None:
            if not isinstance(raw, dict):
                raise ConfigError("config root must be a JSON object")
            raw = {**raw, "seed": args.seed}
        cfg = SuiteConfig.from_dict(raw)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    report = run_suite(cfg)
    try:
        emit(report, args.out)
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"suite verdict: {report.verdict} ({len(report.records)} records)")
    return 0 if report.verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
