"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload snapshot_level --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list the same figures for people. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Workload name -> the perfbench module that runs it.
WORKLOADS = {
    "snapshot_level": "snapshot",
    "campaign_write": "campaign",
    "serve_zipf": "serving",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    # The script's own directory would shadow the standard library.
    sys.path[0:1] = [str(src), str(ROOT)]
    from perfbench import common

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    if args.trace:
        common.OUT_DIR.mkdir(exist_ok=True)
        result = module.run_traced(args.seed, args.seconds)
    else:
        result = module.run(args.seed, args.seconds)

    for name, (value, unit) in {**result.metrics, **result.notes}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} ops = {result.attempted}, failed_ops = {result.failed}")
    for problem in result.problems:
        print(f"{args.workload} check failed: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
