"""The benchmark's declaration, read from ``BENCHMARK.json``.

Workload names, metric names, units, directions and bounds are declared
once, there; the harness and ``bench.compare`` read them from here.
"""

from __future__ import annotations

import json
from functools import lru_cache

from bench import REPO_ROOT


@lru_cache(maxsize=1)
def load() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names() -> list[str]:
    return [w["name"] for w in load()["workloads"]]


def metrics(traced: bool) -> dict[str, dict]:
    """Declared metrics of one run kind, by name."""
    return {m["name"]: m for m in load()["per_layer" if traced else "end_to_end"]}


def run_seconds() -> int:
    return int(load()["run_seconds"])
