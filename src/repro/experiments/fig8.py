"""Figure 8: Treebeard vs XGBoost(-style) and Treelite(-style).

Per benchmark at batch size 1024: the best Treebeard configuration against
the one-tree-at-a-time XGBoost-v1.5-style predictor and the if-else
Treelite-style predictor. (a) single core; (b) with ``--multicore``, all
three systems under the 16-core row-partitioned simulation.
"""

from __future__ import annotations

import sys

from repro.baselines import TreelitePredictor, XGBoostV15Predictor
from repro.datasets.registry import BENCHMARKS
from repro.experiments.harness import (
    BASELINE_SAMPLE_ROWS,
    ExperimentConfig,
    benchmark_model,
    record_schedule_trace,
    time_per_row,
)
from repro.experiments.speedups import simulated_parallel_us, tuned_predictor
from repro.reporting import format_table, geomean

CORES = 16


def run(
    config: ExperimentConfig | None = None,
    names: list[str] | None = None,
    multicore: bool = False,
    tune: bool = True,
) -> list[dict]:
    """Figure-8 rows: speedup of Treebeard relative to each system."""
    config = config or ExperimentConfig()
    out = []
    for name in names or list(BENCHMARKS):
        forest, rows, scale = benchmark_model(name, config)
        xgb = XGBoostV15Predictor(forest)
        treelite = TreelitePredictor(forest)
        predictor, tb_us, _ = tuned_predictor(forest, rows, config, tune=tune)
        record_schedule_trace(config, name, "tuned", predictor)
        xgb_us = time_per_row(xgb.raw_predict, rows, repeats=config.repeats)
        tl_us = time_per_row(
            treelite.raw_predict, rows, repeats=config.repeats, sample=BASELINE_SAMPLE_ROWS
        )
        entry = {
            "dataset": name,
            "scale": scale,
            "xgboost us/row": round(xgb_us, 2),
            "treelite us/row": round(tl_us, 1),
            "treebeard us/row": round(tb_us, 2),
            "speedup vs xgboost": round(xgb_us / tb_us, 2),
            "speedup vs treelite": round(tl_us / tb_us, 1),
        }
        if multicore:
            tb_par = simulated_parallel_us(predictor.raw_predict, rows, CORES, config.repeats)
            xgb_par = simulated_parallel_us(xgb.raw_predict, rows, CORES, config.repeats)
            tl_par = simulated_parallel_us(
                treelite.raw_predict, rows[:BASELINE_SAMPLE_ROWS * 4], CORES, config.repeats
            )
            entry["speedup vs xgboost (16c)"] = round(xgb_par / tb_par, 2)
            entry["speedup vs treelite (16c)"] = round(tl_par / tb_par, 1)
        out.append(entry)
    summary = {
        "dataset": "GEOMEAN",
        "speedup vs xgboost": round(geomean(r["speedup vs xgboost"] for r in out), 2),
        "speedup vs treelite": round(geomean(r["speedup vs treelite"] for r in out), 1),
    }
    if multicore:
        summary["speedup vs xgboost (16c)"] = round(
            geomean(r["speedup vs xgboost (16c)"] for r in out), 2
        )
        summary["speedup vs treelite (16c)"] = round(
            geomean(r["speedup vs treelite (16c)"] for r in out), 1
        )
    out.append(summary)
    return out


def main() -> None:
    multicore = "--multicore" in sys.argv
    title = "Figure 8b (16 simulated cores)" if multicore else "Figure 8a (single core)"
    print(f"{title}: Treebeard vs XGBoost-style and Treelite-style, batch 1024")
    print(format_table(run(multicore=multicore)))


if __name__ == "__main__":
    main()
