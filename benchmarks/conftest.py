"""Shared fixtures for the pytest-benchmark harness.

Each ``test_bench_*`` module regenerates one table/figure of the paper at a
reduced-but-representative scale (models cached under ``.bench_cache``) and
benchmarks the kernel that experiment measures. Run with::

    pytest benchmarks/ --benchmark-only

The full-size tables are produced by the experiment CLIs
(``python -m repro.experiments.run_all``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import compile_model
from repro.config import Schedule
from repro.datasets.registry import fresh_rows, load_benchmark_model

#: scale for benchmark models: small enough to train in seconds, large
#: enough that kernels dominate measurement
BENCH_SCALE = 0.05
BATCH = 512
#: rows used when timing per-row (pure Python) systems
SLOW_ROWS = 32


def _model(name: str):
    forest, _ = load_benchmark_model(name, scale=BENCH_SCALE, seed=0)
    rows = fresh_rows(name, BATCH, seed=4242)
    return forest, rows


@pytest.fixture(scope="session")
def abalone_model():
    return _model("abalone")


@pytest.fixture(scope="session")
def airline_model():
    return _model("airline")


@pytest.fixture(scope="session")
def higgs_model():
    return _model("higgs")


@pytest.fixture(scope="session")
def year_model():
    return _model("year")


@pytest.fixture(scope="session")
def optimized_schedule() -> Schedule:
    return Schedule(
        tile_size=8, tiling="hybrid", pad_and_unroll=True, interleave=32, layout="sparse"
    )


@pytest.fixture(scope="session")
def scalar_schedule() -> Schedule:
    return Schedule.scalar_baseline()


#: The figure and table benches compare schedule knobs (interleave, peel,
#: pad-and-unroll) that the generic native walker ignores: they measure the
#: emitter those knobs shape, the one EXPERIMENTS.md reports.
PAPER_BACKEND = "numpy_jit"


def compile_cached(forest, schedule):
    """Compile on ``PAPER_BACKEND`` without tiling re-validation (already
    covered by tests)."""
    return compile_model(
        forest, schedule.with_(backend=PAPER_BACKEND), validate_tiling=False
    )


def run_benchmark(benchmark, fn, rounds: int = 5):
    """Uniform pedantic benchmarking: bounded rounds, warmed up."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)
