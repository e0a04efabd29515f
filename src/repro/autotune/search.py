"""Budget-aware best-first search over compilation schedules.

The paper explores the Table-II grid per benchmark and batch size and
reports the best combination (Section VI). The original ``autotune`` here
reproduced that as a blocking exhaustive walk; this version keeps the same
grid but makes the search production-usable:

* candidates are **ranked by the static cost model**
  (:mod:`repro.autotune.cost`) and explored best-first, so a tight budget
  still sees the likely winners;
* each **distinct kernel is measured once**: a candidate that differs
  from an earlier one only in fields its backend's kernel ignores
  (``Backend.ignored_fields``) is skipped before it compiles, and one
  whose compiled image (source and buffers) was already timed — say, two
  leaf-bias thresholds that pick the same trees on this forest — takes
  that time instead of a measurement;
* exploration stops at a **budget** — ``max_configs`` candidates, a
  ``time_budget_s`` wall-clock ceiling, or ``patience`` consecutive
  non-improving candidates (early exit);
* winners **persist** across processes via
  :class:`~repro.autotune.persist.ScheduleCache`: a warm start compiles
  only the stored winner and skips the search entirely;
* loser predictors are **dropped eagerly** — only ``(schedule, per-row
  µs)`` pairs stay in the log, so peak memory is one candidate plus the
  incumbent, regardless of grid size.

Every run records a compilation trace (ranking, exploration, persistence
spans, including the predicted-vs-measured rank correlation that scores
the cost model) into the process-wide observability registry.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import compile_model
from repro.autotune.cost import predict_cost, rank_correlation, rank_schedules
from repro.autotune.persist import CacheEntry, ScheduleCache, machine_id
from repro.autotune.space import TuningSpace, default_space, schedule_grid
from repro.backend.codegen import model_buffers
from repro.backend.jit import model_fingerprint
from repro.backend.predictor import Predictor
from repro.backend.registry import kernel_backend
from repro.config import Schedule
from repro.errors import CompilerError, ModelError, ReproError
from repro.forest.ensemble import Forest
from repro.observe import events as flight
from repro.observe import registry as observe_registry
from repro.observe.trace import CompilationTrace
from repro.perf.machine import INTEL_ROCKET_LAKE_LIKE, MachineProfile
from repro.perf.timer import measure

#: default timing floor per repeat — overridable since a serving tuner
#: under a tight budget wants a smaller floor than an offline benchmark
DEFAULT_MIN_TIME_S = 0.03


@dataclass
class TuneResult:
    """Outcome of a (possibly budget-limited) schedule search."""

    best_schedule: Schedule
    best_predictor: Predictor
    best_per_row_us: float
    #: every (schedule, per-row-us) pair explored, in exploration order;
    #: failed compilations carry ``math.inf``, a candidate whose image was
    #: already timed carries that time. Predictors are NOT retained.
    log: list[tuple[Schedule, float]] = field(default_factory=list)
    #: cost-model prediction for each log entry (same order)
    predicted: list[float] = field(default_factory=list)
    #: total candidates in the grid (≥ ``explored`` under a budget)
    grid_size: int = 0
    #: candidates compiled, failures included (field repeats are skipped)
    explored: int = 0
    #: True when the winner came from the persistent cache (no search ran)
    from_cache: bool = False
    #: Spearman correlation between predicted and measured cost over the
    #: explored candidates; None when fewer than three were measured
    rank_correlation: float | None = None
    #: which budget stopped the search ("max_configs" | "time" |
    #: "patience"), or None when the grid was exhausted
    stopped_by: str | None = None

    def top(self, k: int = 5) -> list[tuple[Schedule, float]]:
        """The ``k`` fastest explored configurations."""
        return sorted(self.log, key=lambda item: item[1])[:k]


def _kernel(schedule: Schedule, base: Schedule) -> Schedule:
    """``schedule`` as the kernel it builds: resolved to the backend that
    would serve it (:func:`~repro.backend.registry.kernel_backend`) with that
    backend's :attr:`~repro.backend.registry.Backend.ignored_fields` reset to
    ``base``. Equal kernels build the same image."""
    backend = kernel_backend(schedule)
    return schedule.with_(
        backend=backend.name,
        **{name: getattr(base, name) for name in backend.ignored_fields},
    )


def _image_digest(predictor: Predictor) -> str:
    """sha256 of a compiled kernel's source and model buffers: equal
    digests run the same kernel on the same data."""
    digest = hashlib.sha256(predictor.source.encode())
    for name, array in sorted(model_buffers(predictor.lir).items()):
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def autotune(
    forest: Forest,
    rows: np.ndarray,
    space: TuningSpace | None = None,
    base: Schedule | None = None,
    repeats: int = 3,
    max_configs: int | None = None,
    *,
    min_time_s: float = DEFAULT_MIN_TIME_S,
    time_budget_s: float | None = None,
    patience: int | None = None,
    cost_model: bool = True,
    machine: MachineProfile | None = None,
    cache: ScheduleCache | None = None,
) -> TuneResult:
    """Search the schedule grid for the fastest configuration on ``rows``.

    Parameters
    ----------
    forest, rows:
        The model and a representative sample batch; the batch size is part
        of the tuning key (the paper tunes per batch size).
    space, base:
        Grid axes and the schedule supplying non-searched fields.
    repeats, min_time_s:
        Timing discipline per candidate (best of ``repeats``, each repeat
        extended to at least ``min_time_s``).
    max_configs, time_budget_s, patience:
        The budget: candidate count, wall-clock seconds, and early-exit
        after ``patience`` consecutive non-improving candidates (one whose
        image was already timed is not counted). All
        ``None`` = exhaustive (the paper's search). ``max_configs=0`` is an
        empty budget and raises :class:`CompilerError` unless the
        persistent cache already holds a winner.
    cost_model:
        Rank candidates best-first with :mod:`repro.autotune.cost` before
        spending budget; ``False`` keeps grid enumeration order.
    machine:
        Cost-model machine profile (also part of the persistence key).
    cache:
        A :class:`ScheduleCache` for warm starts; ``None`` disables
        persistence. On a hit only the stored winner is compiled.

    Candidates that fail to compile (e.g. array layout exceeding its slot
    budget on a deep model) are recorded with infinite cost and skipped,
    mirroring how a production tuner tolerates invalid points.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ModelError(f"sample rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] == 0:
        raise ModelError("autotune needs a non-empty sample batch to time")
    machine = machine or INTEL_ROCKET_LAKE_LIKE
    base = base or Schedule()
    batch_size = rows.shape[0]
    fingerprint = model_fingerprint(forest)
    machine_key = machine_id(machine.name)

    trace = CompilationTrace(
        label=f"autotune trees={forest.num_trees} batch={batch_size}"
    )

    # ------------------------------------------------------------------
    # Warm start: a persisted winner skips the search entirely.
    # ------------------------------------------------------------------
    if cache is not None:
        entry = cache.lookup(fingerprint, machine_key, batch_size)
        if entry is not None:
            with trace.span("warm-start") as span:
                span.stats["fingerprint"] = fingerprint[:12]
                span.stats["machine"] = machine_key
                try:
                    predictor = compile_model(
                        forest, entry.schedule, validate_tiling=False
                    )
                except ReproError:
                    # Entry no longer compiles (changed environment):
                    # drop it and fall through to a fresh search.
                    cache.invalidate(fingerprint, machine_key)
                    span.stats["stale"] = True
                else:
                    span.stats["per_row_us"] = entry.per_row_us
                    result = TuneResult(
                        best_schedule=entry.schedule,
                        best_predictor=predictor,
                        best_per_row_us=entry.per_row_us,
                        log=[(entry.schedule, entry.per_row_us)],
                        predicted=[
                            predict_cost(
                                forest, entry.schedule, batch_size, machine
                            )
                        ],
                        grid_size=0,
                        explored=0,
                        from_cache=True,
                        rank_correlation=entry.rank_correlation,
                    )
                    _record(trace, result)
                    return result

    # ------------------------------------------------------------------
    # Rank the grid (cost model) and explore best-first under the budget.
    # ------------------------------------------------------------------
    with trace.span("rank") as span:
        grid = list(schedule_grid(space or default_space(), base))
        if cost_model:
            ranked = rank_schedules(forest, grid, batch_size, machine)
        else:
            ranked = [
                (predict_cost(forest, s, batch_size, machine), s) for s in grid
            ]
        span.stats["grid_size"] = len(grid)
        span.stats["cost_model"] = cost_model

    best: tuple[float, Schedule, Predictor] | None = None
    log: list[tuple[Schedule, float]] = []
    predicted: list[float] = []
    stopped_by: str | None = None
    stale = 0
    deduped = same_image = 0
    # kernels already met (ignored fields reset), and each timed image's
    # per-row µs: each distinct kernel is measured once
    kernels: set[Schedule] = set()
    measured: dict[str, float] = {}
    started = time.perf_counter()
    with trace.span("search") as span:
        for predicted_cost, schedule in ranked:
            if max_configs is not None and len(log) >= max_configs:
                stopped_by = "max_configs"
                break
            if (
                time_budget_s is not None
                and log
                and time.perf_counter() - started >= time_budget_s
            ):
                stopped_by = "time"
                break
            if patience is not None and stale >= patience and best is not None:
                stopped_by = "patience"
                break
            kernel = _kernel(schedule, base)
            if kernel in kernels:
                deduped += 1
                continue
            kernels.add(kernel)
            predictor = None
            try:
                predictor = compile_model(forest, schedule, validate_tiling=False)
                image = _image_digest(predictor)
                reused = image in measured
                if not reused:
                    measured[image] = measure(
                        lambda: predictor.raw_predict(rows),
                        rows=batch_size,
                        repeats=repeats,
                        min_time_s=min_time_s,
                    ).per_row_us
            except ReproError:
                log.append((schedule, math.inf))
                predicted.append(predicted_cost)
                stale += 1
                del predictor
                continue
            cost = measured[image]
            log.append((schedule, cost))
            predicted.append(predicted_cost)
            if reused:
                # no new measurement, so neither a win nor a stale step
                same_image += 1
            elif best is None or cost < best[0]:
                best = (cost, schedule, predictor)
                stale = 0
            else:
                stale += 1
            # Eager drop: losers (and their arenas/buffers) must not stay
            # alive until the next loop iteration rebinds the local.
            del predictor
        span.stats["explored"] = len(log)
        span.stats["deduped"] = deduped
        span.stats["same_image"] = same_image
        span.stats["stopped_by"] = stopped_by
        span.stats["elapsed_s"] = round(time.perf_counter() - started, 6)

    if best is None:
        if max_configs == 0:
            raise CompilerError(
                "tuning budget allowed no candidates (max_configs=0 and no "
                "persisted winner)"
            )
        raise CompilerError("no schedule in the grid compiled successfully")

    correlation = rank_correlation(predicted, [c for _, c in log])
    result = TuneResult(
        best_schedule=best[1],
        best_predictor=best[2],
        best_per_row_us=best[0],
        log=log,
        predicted=predicted,
        grid_size=len(grid),
        explored=len(log),
        from_cache=False,
        rank_correlation=correlation,
        stopped_by=stopped_by,
    )

    if cache is not None:
        with trace.span("persist") as span:
            cache.store(
                fingerprint,
                machine_key,
                batch_size,
                CacheEntry(
                    schedule=result.best_schedule,
                    per_row_us=result.best_per_row_us,
                    explored=result.explored,
                    rank_correlation=correlation,
                ),
            )
            span.stats["fingerprint"] = fingerprint[:12]
            span.stats["machine"] = machine_key

    _record(trace, result)
    return result


def _record(trace: CompilationTrace, result: TuneResult) -> None:
    """Finish the trace and publish the run to the observability registry."""
    trace.root.stats.update(
        {
            "best_per_row_us": result.best_per_row_us,
            "explored": result.explored,
            "grid_size": result.grid_size,
            "from_cache": result.from_cache,
            "rank_correlation": result.rank_correlation,
            "stopped_by": result.stopped_by,
        }
    )
    trace.finish()
    observe_registry.record_trace(trace)
    observe_registry.record_tune(
        {
            "best_schedule": result.best_schedule.to_dict(),
            "best_per_row_us": result.best_per_row_us,
            "explored": result.explored,
            "grid_size": result.grid_size,
            "from_cache": result.from_cache,
            "rank_correlation": result.rank_correlation,
            "stopped_by": result.stopped_by,
        }
    )
    flight.record(
        "tune",
        best_per_row_us=round(result.best_per_row_us, 4),
        explored=result.explored,
        grid_size=result.grid_size,
        from_cache=result.from_cache,
        stopped_by=result.stopped_by,
    )
