"""Shared infrastructure for the experiment modules."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.config import Schedule
from repro.datasets.registry import (
    DatasetSpec,
    fresh_rows,
    get_benchmark,
    load_benchmark_model,
)
from repro.forest.ensemble import Forest
from repro.perf.timer import measure

#: rows used to time per-row (pure Python) baselines; their cost is linear
#: in the row count, so a subsample estimates per-row time accurately
BASELINE_SAMPLE_ROWS = 48


def default_scale(spec: DatasetSpec) -> float:
    """Default model scale: REPRO_SCALE env, else size-dependent."""
    env = os.environ.get("REPRO_SCALE")
    if env:
        return float(env)
    return 0.1 if spec.num_trees >= 800 else 0.3


@dataclass
class ExperimentConfig:
    """Common knobs for experiment runs."""

    batch_size: int = 1024
    repeats: int = 3
    seed: int = 0
    scale: float | None = None  # None -> default_scale per benchmark
    use_cache: bool = True
    #: when set, per-schedule compilation traces are written as
    #: ``<trace_dir>/<benchmark>-<label>.trace.json`` (see
    #: :func:`record_schedule_trace`); also enabled by REPRO_TRACE_DIR
    record_traces: bool = False
    trace_dir: str | None = None

    def scale_for(self, spec: DatasetSpec) -> float:
        return self.scale if self.scale is not None else default_scale(spec)

    def resolved_trace_dir(self) -> str | None:
        """Directory to write traces into, or None when tracing is off."""
        env = os.environ.get("REPRO_TRACE_DIR")
        if env:
            return env
        if self.record_traces:
            return self.trace_dir or "traces"
        return None


def record_schedule_trace(
    config: ExperimentConfig, benchmark: str, label: str, predictor
) -> str | None:
    """Persist ``predictor``'s compilation trace for offline inspection.

    Experiment modules call this for each (benchmark, schedule) pair they
    compile; with tracing off it is a no-op. Returns the written path. The
    trace JSON mirrors ``CompilationTrace.to_dict()`` — per-pass wall time
    plus the IR statistics each pass attached.
    """
    trace_dir = config.resolved_trace_dir()
    trace = getattr(predictor, "trace", None)
    if trace_dir is None or trace is None:
        return None
    os.makedirs(trace_dir, exist_ok=True)
    safe_label = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    path = os.path.join(trace_dir, f"{benchmark}-{safe_label}.trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_json(indent=2))
    return path


def benchmark_model(
    name: str, config: ExperimentConfig
) -> tuple[Forest, np.ndarray, float]:
    """Load (or train) a benchmark model and an inference batch.

    Returns ``(forest, rows, scale)``.
    """
    spec = get_benchmark(name)
    scale = config.scale_for(spec)
    forest, _ = load_benchmark_model(
        name, scale=scale, seed=config.seed, use_cache=config.use_cache
    )
    rows = fresh_rows(spec, config.batch_size, seed=config.seed + 77_000)
    return forest, rows, scale


#: minimum wall-clock per timing repeat; short kernels loop to this floor so
#: shared-vCPU scheduling noise cannot dominate the estimate
MIN_TIME_S = 0.05


def time_per_row(
    predict_fn,
    rows: np.ndarray,
    repeats: int = 5,
    sample: int | None = None,
    min_time_s: float | None = None,
) -> float:
    """Best-of-``repeats`` microseconds per row for a raw-predict callable.

    ``sample`` limits the measured rows (for per-row Python baselines whose
    cost per row is constant; the estimate is then scaled, not the cost).
    """
    used = rows if sample is None else rows[: min(sample, rows.shape[0])]
    result = measure(
        lambda: predict_fn(used), rows=used.shape[0], repeats=repeats,
        min_time_s=MIN_TIME_S if min_time_s is None else min_time_s,
    )
    return result.per_row_us


def paired_per_row_us(
    fns: dict,
    rows: np.ndarray,
    rounds: int = 5,
    min_time_s: float = 0.08,
) -> dict:
    """Per-row time of several callables measured in alternating rounds.

    Sequential measurements on a shared vCPU drift (throttling windows land
    on one variant and not the other); interleaving the variants round-robin
    and taking each one's best round cancels the drift. ``fns`` maps label
    to a raw-predict callable; returns label -> microseconds/row.
    """
    import time

    best: dict = {label: float("inf") for label in fns}
    for fn in fns.values():
        fn(rows)  # warm compile/caches outside the timed region
    for _ in range(max(1, rounds)):
        for label, fn in fns.items():
            count = 0
            start = time.perf_counter()
            while True:
                fn(rows)
                count += 1
                elapsed = time.perf_counter() - start
                if elapsed >= min_time_s:
                    break
            best[label] = min(best[label], elapsed / count / rows.shape[0] * 1e6)
    return best


#: The backend every figure and table of EXPERIMENTS.md is measured on. The
#: experiments compare schedule knobs — interleave, peel, pad-and-unroll,
#: walk compaction — that the generic native walker deliberately ignores, so
#: they name the emitter those knobs still shape.
PAPER_BACKEND = "numpy_jit"

#: the strong default schedule used when a full grid search is too slow
STRONG_SCHEDULE = Schedule(
    tile_size=8, tiling="hybrid", pad_and_unroll=True, interleave=32, layout="sparse",
    row_block=1024, backend=PAPER_BACKEND,
)

#: reduced tuning grid for experiment-time autotuning
def quick_space():
    """A reduced Table-II grid that tunes in seconds, not minutes."""
    from repro.autotune.space import TuningSpace

    return TuningSpace(
        tile_sizes=(1, 4, 8),
        tilings=("basic", "hybrid"),
        pad_and_unroll=(True,),
        interleaves=(8, 32),
        alphas=(0.075,),
        layouts=("sparse",),
    )
