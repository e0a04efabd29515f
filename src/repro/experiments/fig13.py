"""Figure 13: scaling of optimized code with the number of cores.

Speedup over the single-core scalar baseline at 1, 2, 4, 8, 16 cores under
the deterministic multicore model (the host has too few cores to measure
this directly; the naive row-partitioned strategy is embarrassingly parallel
so near-linear shape is expected, as the paper reports).
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentConfig, benchmark_model
from repro.experiments.speedups import best_simulated_us, scalar_baseline_us, tuned_predictor
from repro.reporting import format_table, geomean

CORE_COUNTS = (1, 2, 4, 8, 16)
DEFAULT_NAMES = ("abalone", "airline", "higgs", "letter")


def run(
    config: ExperimentConfig | None = None,
    names: tuple[str, ...] = DEFAULT_NAMES,
    core_counts: tuple[int, ...] = CORE_COUNTS,
    tune: bool = False,
) -> list[dict]:
    """One row per benchmark: speedup over scalar baseline per core count."""
    config = config or ExperimentConfig()
    out = []
    for name in names:
        forest, rows, scale = benchmark_model(name, config)
        base_us = scalar_baseline_us(forest, rows, repeats=config.repeats)
        predictor, _, _ = tuned_predictor(forest, rows, config, tune=tune)
        entry = {"dataset": name, "scale": scale}
        for cores in core_counts:
            simulate = predictor.predict_simulated_parallel
            us = best_simulated_us(simulate, rows, cores, config.repeats)
            entry[f"{cores} core"] = round(base_us / us, 1)
        out.append(entry)
    summary = {"dataset": "GEOMEAN"}
    for cores in core_counts:
        summary[f"{cores} core"] = round(geomean(r[f"{cores} core"] for r in out), 1)
    out.append(summary)
    return out


def main() -> None:
    print("Figure 13: speedup over single-core scalar baseline vs simulated cores")
    print(format_table(run()))


if __name__ == "__main__":
    main()
