"""Shared measurement helpers for the performance figures (7-13)."""

from __future__ import annotations

import numpy as np

from repro.api import compile_model
from repro.autotune.search import TuneResult, autotune
from repro.backend.parallel import MulticoreSimulator
from repro.backend.predictor import Predictor
from repro.config import Schedule
from repro.experiments.harness import (
    BASELINE_SAMPLE_ROWS,
    PAPER_BACKEND,
    ExperimentConfig,
    STRONG_SCHEDULE,
    quick_space,
    time_per_row,
)
from repro.forest.ensemble import Forest


def scalar_baseline_us(forest: Forest, rows: np.ndarray, repeats: int = 3) -> float:
    """Per-row time of the unoptimized Treebeard scalar baseline.

    Measured on a row subsample: the baseline is a per-row interpreter, so
    per-row cost is batch-size independent.
    """
    predictor = compile_model(
        forest, Schedule.scalar_baseline().with_(backend=PAPER_BACKEND), validate_tiling=False
    )
    return time_per_row(
        predictor.raw_predict, rows, repeats=repeats, sample=BASELINE_SAMPLE_ROWS
    )


def tuned_predictor(
    forest: Forest,
    rows: np.ndarray,
    config: ExperimentConfig,
    tune: bool = True,
) -> tuple[Predictor, float, Schedule]:
    """Best compiled configuration and its per-row time.

    ``tune=True`` explores the reduced Table-II grid; otherwise the strong
    default schedule is used (much faster, slightly suboptimal).
    """
    if tune:
        result: TuneResult = autotune(
            forest, rows, space=quick_space(), repeats=config.repeats,
            base=Schedule(row_block=1024, backend=PAPER_BACKEND),
        )
        return result.best_predictor, result.best_per_row_us, result.best_schedule
    predictor = compile_model(forest, STRONG_SCHEDULE, validate_tiling=False)
    us = time_per_row(predictor.raw_predict, rows, repeats=config.repeats)
    return predictor, us, STRONG_SCHEDULE


def best_simulated_us(simulate, rows: np.ndarray, cores: int, repeats: int) -> float:
    """Per-row µs of the fastest of ``repeats`` simulated-parallel runs.

    ``simulate(rows, cores)`` runs once and returns ``(output, seconds)``.
    The multicore model reports the slowest block, so one preempted block
    decides a single sample; every figure takes the best of ``repeats``,
    like the host figures it is compared with.
    """
    return min(simulate(rows, cores)[1] for _ in range(repeats)) / rows.shape[0] * 1e6


def simulated_parallel_us(
    predict_blocks, rows: np.ndarray, cores: int, repeats: int
) -> float:
    """:func:`best_simulated_us` of a row-partitionable kernel.

    ``predict_blocks(rows_chunk)`` must be self-contained (output ignored).
    """
    sim = MulticoreSimulator()
    out = np.zeros((rows.shape[0], 1))

    def kernel(chunk, out_chunk):
        predict_blocks(chunk)

    return best_simulated_us(
        lambda rows, cores: sim.run(kernel, rows, out, cores), rows, cores, repeats
    )
