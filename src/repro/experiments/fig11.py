"""Figure 11: impact of individual optimizations.

(a) Tiling algorithms: basic tiling vs the hybrid policy (probability-based
tiling on leaf-biased trees) — MIR optimizations disabled, low-level ones on,
exactly the paper's setup. Leaf-biased benchmarks gain; unbiased ones don't.
(b) Walk interleaving + padding/unrolling on top of basic tiling.
Both report speedup over the scalar baseline.

The three variants are close in cost, so they are measured in alternating
rounds (:func:`~repro.experiments.harness.paired_per_row_us`) to cancel the
host's scheduling drift.
"""

from __future__ import annotations

from repro.api import compile_model
from repro.config import Schedule
from repro.datasets.registry import BENCHMARKS
from repro.experiments.harness import (
    PAPER_BACKEND,
    ExperimentConfig,
    benchmark_model,
    paired_per_row_us,
)
from repro.experiments.speedups import scalar_baseline_us
from repro.reporting import format_table, geomean

TILE_SIZE = 8
ALPHA, BETA = 0.075, 0.9

#: tiling only (Figure 11a): MIR opts off
TILING_ONLY = dict(
    tile_size=TILE_SIZE, pad_and_unroll=False, peel_walk=False,
    interleave=1, layout="sparse", alpha=ALPHA, beta=BETA, row_block=1024,
    backend=PAPER_BACKEND,
)
#: tiling + walk interleaving + padding/unrolling (Figure 11b)
TILING_PLUS_WALK_OPTS = dict(
    tile_size=TILE_SIZE, pad_and_unroll=True, peel_walk=True,
    interleave=32, layout="sparse", alpha=ALPHA, beta=BETA, row_block=1024,
    backend=PAPER_BACKEND,
)


def run(
    config: ExperimentConfig | None = None, names: list[str] | None = None
) -> list[dict]:
    """Figure-11 rows: speedups over scalar baseline per variant."""
    config = config or ExperimentConfig()
    out = []
    for name in names or list(BENCHMARKS):
        forest, rows, scale = benchmark_model(name, config)
        base_us = scalar_baseline_us(forest, rows, repeats=config.repeats)
        variants = {
            "basic": compile_model(
                forest, Schedule(tiling="basic", **TILING_ONLY), validate_tiling=False
            ),
            "hybrid": compile_model(
                forest, Schedule(tiling="hybrid", **TILING_ONLY), validate_tiling=False
            ),
            "walk-opts": compile_model(
                forest, Schedule(tiling="basic", **TILING_PLUS_WALK_OPTS),
                validate_tiling=False,
            ),
        }
        times = paired_per_row_us(
            {label: p.raw_predict for label, p in variants.items()},
            rows,
            rounds=max(config.repeats, 4),
        )
        basic = base_us / times["basic"]
        hybrid = base_us / times["hybrid"]
        with_walk_opts = base_us / times["walk-opts"]
        out.append(
            {
                "dataset": name,
                "scale": scale,
                "basic tiling": round(basic, 2),
                "hybrid (prob.) tiling": round(hybrid, 2),
                "prob. gain": round(hybrid / basic, 2),
                "tiling + interleave/unroll": round(with_walk_opts, 2),
                "walk-opt gain": round(with_walk_opts / basic, 2),
            }
        )
    out.append(
        {
            "dataset": "GEOMEAN",
            "basic tiling": round(geomean(r["basic tiling"] for r in out), 2),
            "hybrid (prob.) tiling": round(
                geomean(r["hybrid (prob.) tiling"] for r in out), 2
            ),
            "tiling + interleave/unroll": round(
                geomean(r["tiling + interleave/unroll"] for r in out), 2
            ),
        }
    )
    return out


def main() -> None:
    print("Figure 11: impact of individual optimizations (speedup over scalar baseline)")
    print("(a) basic vs probability-based tiling; (b) + interleaving and unrolling")
    print(format_table(run()))


if __name__ == "__main__":
    main()
