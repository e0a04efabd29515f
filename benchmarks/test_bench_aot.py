"""PR6 bench: AOT artifact load vs cold compile.

The point of AOT artifacts is cold-start elimination: any compiled
predictor exports, and a warm worker should reconstitute a ready executor
from the artifact directory in a small fraction of the time a full
HIR→MIR→LIR→codegen compile costs.

This bench compiles one trained benchmark model cold (JIT code cache
cleared before every round, so each round pays the whole pipeline), then
loads its exported artifact equally cold, verifies bitwise-equal
predictions, and emits ``BENCH_PR6.json`` at the repo root.

The acceptance gate for the PR: artifact load is at least 5x faster than
the cold compile.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from conftest import run_benchmark
from repro.api import compile_model
from repro.backend import jit
from repro.backend.aot import export_artifact, load_artifact
from repro.config import Schedule

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"

BATCH = 512
ROUNDS = 15
#: the gate: artifact load must beat a cold compile by at least this factor
MIN_SPEEDUP = 5.0


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_artifact_load_beats_cold_compile(benchmark, tmp_path, abalone_model):
    forest, rows = abalone_model
    rows = np.ascontiguousarray(rows[:BATCH], dtype=np.float64)
    schedule = Schedule()

    artifact = export_artifact(forest, tmp_path / "artifact", schedule)
    reference = compile_model(forest, schedule).raw_predict(rows)

    def cold_compile():
        jit.clear_cache()
        return compile_model(forest, schedule)

    def cold_load():
        jit.clear_cache()
        return load_artifact(artifact)

    # Equivalence first: the loaded executor must be bit-identical.
    np.testing.assert_array_equal(cold_load().raw_predict(rows), reference)

    compile_s = _best_of(cold_compile)
    load_s = _best_of(cold_load)
    # Warm load: the stored source is already byte-compiled in-process, so
    # only buffer reads and namespace rebuild remain.
    warm_load_s = _best_of(lambda: load_artifact(artifact))

    run_benchmark(benchmark, cold_load)

    speedup = compile_s / load_s
    payload = {
        "benchmark": "AOT artifact load vs cold compile (PR6)",
        "forest": {"trees": forest.num_trees, "features": forest.num_features},
        "batch": BATCH,
        "schedule": schedule.to_dict(),
        "rounds": ROUNDS,
        "cold_compile_ms": round(compile_s * 1e3, 3),
        "cold_artifact_load_ms": round(load_s * 1e3, 3),
        "warm_artifact_load_ms": round(warm_load_s * 1e3, 3),
        "speedup": round(speedup, 2),
        "min_speedup_gate": MIN_SPEEDUP,
        "bitwise_equal": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"artifact load ({load_s * 1e3:.2f} ms) is only {speedup:.1f}x faster "
        f"than a cold compile ({compile_s * 1e3:.2f} ms); gate is {MIN_SPEEDUP}x"
    )
