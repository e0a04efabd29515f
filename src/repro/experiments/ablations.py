"""Ablations of the backend's design choices (beyond the paper's figures).

DESIGN.md calls out four NumPy-lowering decisions; each is ablated here on
a representative benchmark:

* **walk compaction** — compacted guarded loops vs masked loops that run to
  the slowest lane (matters exactly when traffic is skewed);
* **in-memory layout** — sparse vs array execution time (Section V-B gives
  the footprints; this gives the runtime effect);
* **row blocking** — cache blocking of the batch loop;
* **interleave width** — the unroll-and-jam factor, including widths beyond
  the paper's grid (the Python backend amortizes per-step dispatch over
  wider jams than native code needs).
"""

from __future__ import annotations

from repro.api import compile_model
from repro.config import Schedule
from repro.experiments.harness import (
    PAPER_BACKEND,
    ExperimentConfig,
    benchmark_model,
    time_per_row,
)
from repro.reporting import format_table

BASE = Schedule(
    tile_size=8, tiling="hybrid", pad_and_unroll=False, peel_walk=True,
    interleave=32, layout="sparse", row_block=1024, backend=PAPER_BACKEND,
)


def run(config: ExperimentConfig | None = None, name: str = "abalone") -> list[dict]:
    """One row per ablation point: per-row time and relative slowdown."""
    config = config or ExperimentConfig()
    forest, rows, scale = benchmark_model(name, config)

    def us(schedule: Schedule) -> float:
        predictor = compile_model(forest, schedule, validate_tiling=False)
        return time_per_row(predictor.raw_predict, rows, repeats=config.repeats)

    base_us = us(BASE)
    points = [
        ("base (compact, sparse, rb=1024, il=32)", BASE),
        ("no walk compaction", BASE.with_(compact_walks=False)),
        ("array layout", BASE.with_(layout="array")),
        ("unrolled walks (pad, no early exit)", BASE.with_(pad_and_unroll=True)),
        ("no row blocking", BASE.with_(row_block=0)),
        ("interleave 8 (paper grid max)", BASE.with_(interleave=8)),
        ("interleave 1 (no jam)", BASE.with_(interleave=1)),
        ("no peeling", BASE.with_(peel_walk=False)),
    ]
    out = []
    for label, schedule in points:
        t = base_us if schedule is BASE else us(schedule)
        out.append(
            {
                "ablation": label,
                "dataset": name,
                "scale": scale,
                "us/row": round(t, 2),
                "vs base": round(t / base_us, 2),
            }
        )
    return out


def main() -> None:
    print("Ablations of backend design choices (slowdown relative to base config)")
    print(format_table(run()))


if __name__ == "__main__":
    main()
