"""``python -m bench``: run the benchmark.

Driver form (one workload, one JSON object on the last line of stdout)::

    python3 -m bench --workload online_b1 --seed 3 --seconds 12 --trace 0

Human form (every workload, a table, optionally a result file)::

    PYTHONPATH=src python -m bench [--seed N] [--workloads a,b] [--traced] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from bench import REPO_ROOT


def _host() -> dict:
    import os

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload and print the driver's JSON line")
    parser.add_argument("--workloads", help="comma-separated subset for the human form")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="write the full results (metrics and detail) to this JSON file")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found beside bench/; nothing to measure", file=sys.stderr)
        return 2
    from bench import spec
    from bench.harness import run_workload

    traced = bool(args.trace or args.traced)
    seconds = args.seconds if args.seconds is not None else spec.run_seconds()
    if args.workload:
        names = [args.workload]
    elif args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    else:
        names = spec.workload_names()

    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, traced)
        results.append(result)
        print(f"== {name} (seed {args.seed}, {seconds:g} s, {'traced' if traced else 'untraced'}): "
              f"attempted {result.attempted}, failed {result.failed}"
              + (f", LEAKS {result.detail['leaks']}" if result.detail.get("leaks") else ""))
        for metric, entry in result.metrics.items():
            print(f"  {metric:<36s} {entry['value']:>16.6g} {entry['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(
                {
                    "schema": 1,
                    "host": _host(),
                    "traced": traced,
                    "results": [r.to_dict() for r in results],
                },
                f,
                indent=1,
            )
    if args.workload:
        # the driver reads the verdict from the JSON line, not the exit code
        print(json.dumps(results[0].contract()))
        return 0
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
