"""Figure 7: speedup of optimized Treebeard code over the scalar baseline.

(a) single core: per benchmark, the best Table-II configuration against the
unoptimized scalar baseline, on the host plus the two modeled machines
(Intel-like / AMD-like, via the simpipe cost model — reproducing the paper's
observation that speedups and best parameters differ across CPUs).
(b) multi-core (``--multicore``): 16 simulated cores against the single-core
scalar baseline (paper reports near-linear scaling).
"""

from __future__ import annotations

import sys

from repro.datasets.registry import BENCHMARKS, mixed_rows
from repro.experiments.harness import (
    ExperimentConfig,
    benchmark_model,
    record_schedule_trace,
)
from repro.experiments.speedups import best_simulated_us, scalar_baseline_us, tuned_predictor
from repro.perf.machine import AMD_RYZEN_LIKE, INTEL_ROCKET_LAKE_LIKE
from repro.perf.simpipe import stall_breakdown, trace_variant
from repro.reporting import format_table, geomean

CORES = 16
#: rows traced per benchmark by the machine cost model
TRACE_ROWS = 64


def _modeled_speedup(forest, name: str, machine) -> float:
    """Cost-model speedup: scalar OneRow cycles vs tiled+interleaved cycles."""
    rows = mixed_rows(name, TRACE_ROWS, prototype_fraction=0.5)
    base = stall_breakdown(trace_variant("OneRow", forest, rows, machine), machine)
    opt = stall_breakdown(
        trace_variant("Interleaved", forest, rows, machine), machine
    )
    return base.cycles_per_row / opt.cycles_per_row


def run(
    config: ExperimentConfig | None = None,
    names: list[str] | None = None,
    multicore: bool = False,
    machine_models: bool = True,
    tune: bool = True,
) -> list[dict]:
    """Figure-7 rows: per-benchmark speedups over the scalar baseline."""
    config = config or ExperimentConfig()
    rows_out = []
    for name in names or list(BENCHMARKS):
        forest, rows, scale = benchmark_model(name, config)
        base_us = scalar_baseline_us(forest, rows, repeats=config.repeats)
        predictor, best_us, schedule = tuned_predictor(forest, rows, config, tune=tune)
        record_schedule_trace(config, name, "tuned", predictor)
        entry = {
            "dataset": name,
            "scale": scale,
            "baseline us/row": round(base_us, 1),
            "best us/row": round(best_us, 2),
            "speedup (host)": round(base_us / best_us, 2),
            "best config": (
                f"nt={schedule.tile_size},{schedule.tiling},il={schedule.interleave}"
            ),
        }
        if machine_models:
            entry["model speedup (intel-like)"] = round(
                _modeled_speedup(forest, name, INTEL_ROCKET_LAKE_LIKE), 2
            )
            entry["model speedup (amd-like)"] = round(
                _modeled_speedup(forest, name, AMD_RYZEN_LIKE), 2
            )
        if multicore:
            simulate = predictor.predict_simulated_parallel
            par_us = best_simulated_us(simulate, rows, CORES, config.repeats)
            entry[f"speedup ({CORES}-core sim)"] = round(base_us / par_us, 1)
        rows_out.append(entry)
    speedups = [r["speedup (host)"] for r in rows_out]
    summary = {"dataset": "GEOMEAN", "speedup (host)": round(geomean(speedups), 2)}
    if machine_models:
        summary["model speedup (intel-like)"] = round(
            geomean(r["model speedup (intel-like)"] for r in rows_out), 2
        )
        summary["model speedup (amd-like)"] = round(
            geomean(r["model speedup (amd-like)"] for r in rows_out), 2
        )
    if multicore:
        summary[f"speedup ({CORES}-core sim)"] = round(
            geomean(r[f"speedup ({CORES}-core sim)"] for r in rows_out), 1
        )
    rows_out.append(summary)
    return rows_out


def main() -> None:
    multicore = "--multicore" in sys.argv
    title = "Figure 7b (16 simulated cores)" if multicore else "Figure 7a (single core)"
    print(f"{title}: Treebeard optimized vs scalar baseline")
    print(format_table(run(multicore=multicore)))


if __name__ == "__main__":
    main()
