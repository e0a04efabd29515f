"""PR5 bench: budgeted best-first tuning vs the exhaustive Table-II walk.

Runs the exhaustive grid search (the paper's methodology) on one trained
benchmark model, then re-runs the same search with the cost-model ranking
under a candidate budget of half the grid with patience-based early exit,
and emits ``BENCH_PR5.json`` at the repo root.

The acceptance gate for the PR: the budgeted winner is within 10% of the
exhaustive winner's per-row latency while compiling at most half the grid.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from conftest import run_benchmark
from repro.autotune import ScheduleCache, autotune
from repro.autotune.space import TuningSpace

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR5.json"

BATCH = 256
REPEATS = 2
MIN_TIME_S = 0.01

#: a representative multi-axis slice of Table II — 48 candidates, large
#: enough that exploring half of it is a real saving
SPACE = TuningSpace(
    tile_sizes=(1, 2, 4, 8),
    tilings=("basic", "hybrid"),
    alphas=(0.075,),
    pad_and_unroll=(True, False),
    interleaves=(4, 8, 16),
    layouts=("sparse",),
    # the cost model this bench scores prices NumPy dispatch amortisation
    backends=("numpy_jit",),
)


def test_budgeted_tuning_matches_exhaustive(benchmark, abalone_model):
    forest, rows = abalone_model
    rows = np.ascontiguousarray(rows[:BATCH], dtype=np.float64)

    exhaustive = autotune(
        forest, rows, space=SPACE, repeats=REPEATS, min_time_s=MIN_TIME_S
    )
    assert exhaustive.explored == exhaustive.grid_size

    budget = exhaustive.grid_size // 2
    budgeted = autotune(
        forest,
        rows,
        space=SPACE,
        repeats=REPEATS,
        min_time_s=MIN_TIME_S,
        max_configs=budget,
        patience=6,
    )
    assert budgeted.explored <= budget

    # Re-time both winners with interleaved rounds so machine drift hits
    # both equally and cannot fake (or mask) a latency gap.
    import time

    def once(predictor) -> float:
        start = time.perf_counter()
        predictor.raw_predict(rows)
        return time.perf_counter() - start

    exhaustive.best_predictor.raw_predict(rows)
    budgeted.best_predictor.raw_predict(rows)
    exhaustive_s = min(once(exhaustive.best_predictor) for _ in range(9))
    budgeted_s = float("inf")
    for _ in range(9):
        budgeted_s = min(budgeted_s, once(budgeted.best_predictor))
        exhaustive_s = min(exhaustive_s, once(exhaustive.best_predictor))
    exhaustive_us = exhaustive_s / rows.shape[0] * 1e6
    budgeted_us = budgeted_s / rows.shape[0] * 1e6
    same_winner = budgeted.best_schedule == exhaustive.best_schedule
    gap = 1.0 if same_winner else budgeted_us / exhaustive_us

    run_benchmark(benchmark, lambda: budgeted.best_predictor.raw_predict(rows))

    result = {
        "benchmark": "budget-aware autotuning (PR5)",
        "forest": {"trees": forest.num_trees, "features": forest.num_features},
        "batch": BATCH,
        "grid_size": exhaustive.grid_size,
        "exhaustive": {
            "explored": exhaustive.explored,
            "per_row_us": round(exhaustive_us, 3),
            "schedule": exhaustive.best_schedule.to_dict(),
        },
        "budgeted": {
            "explored": budgeted.explored,
            "stopped_by": budgeted.stopped_by,
            "per_row_us": round(budgeted_us, 3),
            "rank_correlation": (
                round(budgeted.rank_correlation, 3)
                if budgeted.rank_correlation is not None
                else None
            ),
            "schedule": budgeted.best_schedule.to_dict(),
        },
        "explored_fraction": round(budgeted.explored / exhaustive.grid_size, 3),
        "same_winner": same_winner,
        "latency_gap": round(gap, 3),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\nPR5 bench: exhaustive {exhaustive.explored}/{exhaustive.grid_size} "
        f"-> {exhaustive_us:.2f} us/row; budgeted {budgeted.explored}/"
        f"{exhaustive.grid_size} -> {budgeted_us:.2f} us/row "
        f"(gap {gap:.3f}x)"
    )
    # Acceptance: within 10% of the exhaustive winner on at most half the grid.
    assert budgeted.explored <= exhaustive.grid_size // 2
    assert gap <= 1.10


def test_warm_start_skips_the_search(tmp_path, abalone_model):
    """A persisted winner turns the whole search into one compile."""
    forest, rows = abalone_model
    rows = np.ascontiguousarray(rows[:BATCH], dtype=np.float64)
    cache = ScheduleCache(str(tmp_path / "schedules.json"))

    cold = autotune(
        forest, rows, space=SPACE, repeats=1, min_time_s=MIN_TIME_S,
        max_configs=8, cache=cache,
    )
    warm = autotune(
        forest, rows, space=SPACE, repeats=1, min_time_s=MIN_TIME_S,
        max_configs=8, cache=cache,
    )
    assert not cold.from_cache
    assert warm.from_cache and warm.explored == 0
    assert warm.best_schedule == cold.best_schedule
