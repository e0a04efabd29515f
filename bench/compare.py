"""``python -m bench.compare A.json B.json``: is B worse than A?

A and B are result files written by ``python -m bench --out``. Bounds and
directions come from ``BENCHMARK.json``. One row per (metric, workload)
pair; an end-to-end metric is

* ``REGRESSION`` when B is worse than A by more than the metric's bound
  (or B failed more responses than A),
* ``unresolved`` when either run's own slice spread is wider than the
  bound, so the comparison cannot tell a change from noise,
* ``ok`` otherwise.

Per-layer metrics (traced result files) have no bound and are listed for
information. The exit code is 1 when any end-to-end metric regressed.
A file may hold several results of one workload (several seeds); their
median is compared.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench import spec

#: units whose metrics are timings (subject to the noise check)
TIMING_UNITS = {"s", "us", "ms", "1/s"}


def load_results(path: str) -> dict[str, list[dict]]:
    with open(path) as f:
        doc = json.load(f)
    by_workload: dict[str, list[dict]] = {}
    for result in doc["results"]:
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def _median(results: list[dict], metric: str) -> float | None:
    values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
    return statistics.median(values) if values else None


def _spread(results: list[dict]) -> float:
    spreads = [r["detail"].get("slice_spread") for r in results]
    spreads = [s for s in spreads if isinstance(s, (int, float)) and s == s]
    return max(spreads, default=0.0)


def worsening(a: float, b: float, better: str) -> float:
    """By what share of A is B worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]]) -> tuple[list[dict], bool]:
    declared = {**spec.metrics(False), **spec.metrics(True)}
    rows, regressed = [], False
    for workload in spec.workload_names():
        if workload not in a or workload not in b:
            continue
        failed_a = sum(r["failed"] for r in a[workload])
        failed_b = sum(r["failed"] for r in b[workload])
        if failed_b > failed_a:
            regressed = True
            rows.append(
                {"metric": "failed", "workload": workload, "a": failed_a, "b": failed_b,
                 "change": float("inf"), "verdict": "REGRESSION"}
            )
        noise = max(_spread(a[workload]), _spread(b[workload]))
        for metric, meta in declared.items():
            va, vb = _median(a[workload], metric), _median(b[workload], metric)
            if va is None or vb is None:
                continue
            change = worsening(va, vb, meta["better"])
            bound = meta.get("bound")
            if bound is None:
                verdict = "info"
            elif change > bound:
                verdict, regressed = "REGRESSION", True
            elif meta["unit"] in TIMING_UNITS and noise > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {"metric": metric, "workload": workload, "unit": meta["unit"],
                 "a": va, "b": vb, "change": change, "bound": bound, "verdict": verdict}
            )
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows, regressed = compare(load_results(argv[0]), load_results(argv[1]))
    print(f"{'metric':<36s} {'workload':<14s} {'A':>14s} {'B':>14s} {'worse by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        bound = f"{row['bound']:.3f}" if row.get("bound") is not None else "-"
        print(
            f"{row['metric']:<36s} {row['workload']:<14s} {row['a']:>14.6g} {row['b']:>14.6g} "
            f"{row['change'] * 100:>8.2f}% {bound:>6s}  {row['verdict']}"
        )
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} rows, {unresolved} unresolved, "
          + ("REGRESSION" if regressed else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
