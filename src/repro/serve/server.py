"""Multi-model serving front end.

A :class:`ModelServer` owns one shared :class:`~repro.serve.cache.PredictorCache`
and one :class:`~repro.serve.metrics.ServingMetrics` across every registered
model, so isomorphic models registered under different names share their
compiled predictor and the whole deployment is observable from one snapshot.
Sessions are addressed by name; ``predict(name, rows)`` is the request path
many concurrent clients hammer.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, wait as futures_wait
from dataclasses import dataclass, field

import numpy as np

from repro.autotune.persist import ScheduleCache, default_cache_path
from repro.autotune.search import autotune
from repro.autotune.space import TuningSpace
from repro.backend.parallel import get_pool, pool_stats, set_task_timing
from repro.config import Schedule
from repro.errors import ServingError
from repro.forest.ensemble import Forest
from repro.observe import events as flight
from repro.observe import registry as observe_registry
from repro.observe.spans import RequestTracer
from repro.perf.timer import measure
from repro.serve.batching import BatchingPolicy
from repro.serve.cache import DEFAULT_PREDICTOR_CACHE_CAP, PredictorCache
from repro.serve.metrics import ServingMetrics
from repro.serve.session import InferenceSession

_server_ids = itertools.count(1)

#: sentinel: resolve the schedule cache path from the environment/home dir
DEFAULT_TUNE_CACHE = "default"

#: a tuned predictor must beat the incumbent by this factor to be swapped
#: in — re-compiling for sub-noise wins churns the predictor cache for
#: nothing.
SWAP_THRESHOLD = 0.98


@dataclass(frozen=True)
class ServerConfig:
    """Deployment-wide policy for a :class:`ModelServer`.

    Attributes
    ----------
    cache_capacity:
        Bound on resident compiled predictors across all registrations.
    batching:
        Default micro-batching policy applied to every session
        (``None`` disables coalescing).
    threads:
        Default per-batch fan-out through row blocking.
    allow_fallback:
        Degrade to the interpreter on compile failure instead of raising.
    validate_inputs:
        Reject NaN rows at predict time.
    tune_cache_path:
        Backing file for the persistent schedule cache used by
        ``register(..., tune=True)``. The default sentinel resolves to
        ``$REPRO_TUNE_CACHE`` or the per-user cache dir; ``None`` keeps
        tuning winners in memory only (tests, ephemeral deployments).
    tune_max_configs, tune_time_budget_s, tune_patience:
        Budget for each background tune: candidate cap, wall-clock ceiling
        and early-exit patience (see :func:`repro.autotune.autotune`).
    tune_repeats, tune_min_time_s:
        Timing discipline per candidate during background tuning — looser
        than offline benchmarking on purpose: the tuner shares the machine
        with live traffic.
    trace_sample:
        Fraction of ``predict`` calls recorded as request span trees in
        :data:`repro.observe.spans.RING` (deterministic stride sampling,
        no RNG on the request path). ``0.0`` (the default) wires no
        tracer at all — the request path pays one ``is None`` test and
        compiled kernels are byte-identical to an untraced server.
        ``1.0`` traces every request.
    slow_request_s:
        Requests slower than this (seconds) are logged to the flight
        recorder as ``slow_request`` events; ``None`` disables.
    flight_log:
        Path of a JSON-lines file mirroring every flight-recorder event
        (``python -m repro.observe tail --follow`` reads it live);
        ``None`` keeps events in memory only.
    pgo_interval_s:
        How often a ``register(..., pgo=True)`` session re-reads its live
        profile and considers recompiling with a measured hot-depth
        cutoff (see :mod:`repro.pgo`).
    pgo_min_rows:
        Profiled rows a session must have served before its first PGO
        recompile — a cold profile's mean walk depth is noise.
    """

    cache_capacity: int = DEFAULT_PREDICTOR_CACHE_CAP
    batching: BatchingPolicy | None = None
    threads: int | None = None
    allow_fallback: bool = True
    validate_inputs: bool = True
    tune_cache_path: str | None = DEFAULT_TUNE_CACHE
    tune_max_configs: int | None = 24
    tune_time_budget_s: float | None = 10.0
    tune_patience: int | None = 8
    tune_repeats: int = 1
    tune_min_time_s: float = 0.005
    trace_sample: float = 0.0
    slow_request_s: float | None = 0.25
    flight_log: str | None = None
    pgo_interval_s: float = 30.0
    pgo_min_rows: int = 2048


class ModelServer:
    """Registry of named :class:`InferenceSession`\\ s over one shared cache."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        if not 0.0 <= self.config.trace_sample <= 1.0:
            raise ServingError(
                f"trace_sample must be in [0, 1], got {self.config.trace_sample}"
            )
        # trace_sample == 0 wires *no* tracer: sessions then pay a single
        # ``is None`` test per request and nothing trace-related is ever
        # constructed — the zero-overhead-when-off guarantee.
        self.tracer = (
            RequestTracer(self.config.trace_sample)
            if self.config.trace_sample > 0.0
            else None
        )
        if self.tracer is not None:
            # Opting into request tracing also opts the shared kernel pool
            # into per-task wall-clock accounting (surfaced by the
            # OpenMetrics exporter); both stay off on untraced deployments.
            set_task_timing(True)
        if self.config.flight_log is not None:
            flight.recorder.attach_file(self.config.flight_log)
        self.metrics = ServingMetrics()
        self.cache = PredictorCache(
            capacity=self.config.cache_capacity, metrics=self.metrics
        )
        self._sessions: dict[str, InferenceSession] = {}
        # Sharded (multi-process) predictors own live resources — worker
        # processes and shared-memory segments — so the server tracks them
        # by name and closes them on unregister/re-register/close; the
        # predictor cache never holds them.
        self._sharded: dict[str, object] = {}
        self._slos: dict[str, object] = {}
        self._lock = threading.Lock()
        self._closed = False
        path = self.config.tune_cache_path
        if path == DEFAULT_TUNE_CACHE:
            path = default_cache_path()
        self.schedule_cache = ScheduleCache(path)
        self._tunes: list[Future] = []
        self._pgo_timers: dict[str, threading.Timer] = {}
        # Runtime gauges: the shared kernel pool plus the footprints of
        # every resident predictor (model buffers + per-thread scratch
        # arenas), read at snapshot time.
        self.metrics.register_gauge("kernel_pool", pool_stats)
        self.metrics.register_gauge("scratch_bytes", self._scratch_bytes)
        self.metrics.register_gauge("model_bytes", self._model_bytes)
        self.metrics.register_gauge(
            "bytes_by_precision", self._bytes_by_precision
        )
        self.metrics.register_gauge("pgo", self._pgo_gauge)
        self.metrics.register_gauge("workers", self._workers_gauge)
        # Report into the process-wide observability registry under a
        # unique name so several servers coexist in one snapshot;
        # close() withdraws the registration.
        self._registry_name = f"server-{next(_server_ids)}"
        observe_registry.register_serving(
            self._registry_name, self.metrics_snapshot
        )

    def _scratch_bytes(self) -> int:
        return sum(
            p.scratch_nbytes()
            for p in self.cache.values()
            if hasattr(p, "scratch_nbytes")
        )

    def _model_bytes(self) -> int:
        return sum(
            p.memory_bytes()
            for p in self.cache.values()
            if hasattr(p, "memory_bytes")
        )

    def _bytes_by_precision(self) -> dict:
        """Model/scratch footprints split by schedule precision.

        Makes quantized deployments legible in one snapshot: an int8
        model next to its float64 twin shows the buffer savings directly.
        ``param_bytes`` counts only the threshold/leaf buffers — the ones
        precision narrows — so it compares like for like across
        precisions; ``model_bytes`` is each predictor's own total
        footprint accounting.
        """
        out: dict[str, dict[str, int]] = {}
        for p in self.cache.values():
            precision = getattr(
                getattr(p, "schedule", None), "precision", "unknown"
            )
            slot = out.setdefault(
                precision,
                {
                    "predictors": 0,
                    "model_bytes": 0,
                    "param_bytes": 0,
                    "scratch_bytes": 0,
                },
            )
            slot["predictors"] += 1
            if hasattr(p, "memory_bytes"):
                slot["model_bytes"] += int(p.memory_bytes())
            if getattr(p, "lir", None) is not None:
                from repro.lir.memory import quantized_param_nbytes

                thr, leaves = quantized_param_nbytes(p.lir)
                slot["param_bytes"] += thr + leaves
            if hasattr(p, "scratch_nbytes"):
                slot["scratch_bytes"] += int(p.scratch_nbytes())
        return out

    def _pgo_gauge(self) -> dict:
        """Per-model hot/cold split state for PGO-scheduled sessions.

        For every live session whose schedule carries ``pgo``, reports the
        realized cutoff and the prefix-buffer shrink (see
        :func:`repro.pgo.prefix_bytes`) — the gauge CI asserts on after a
        forced recompile.
        """
        from repro.pgo import prefix_bytes

        out: dict[str, dict] = {}
        with self._lock:
            sessions = dict(self._sessions)
        for name, session in sessions.items():
            if session.schedule.pgo is None:
                continue
            lir = getattr(session.predictor, "lir", None)
            info = {"pgo": session.schedule.pgo}
            if lir is not None:
                info.update(prefix_bytes(lir))
            out[name] = info
        return out

    def _workers_gauge(self) -> dict:
        """Per-model, per-worker liveness/shard/dispatch stats for every
        sharded registration (empty dict when none)."""
        with self._lock:
            sharded = dict(self._sharded)
        return {name: predictor.worker_stats() for name, predictor in sharded.items()}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        forest: Forest | None = None,
        schedule: Schedule | None = None,
        *,
        artifact: str | None = None,
        batching: BatchingPolicy | None | str = "inherit",
        threads: int | None | str = "inherit",
        tune: bool = False,
        tune_rows: np.ndarray | None = None,
        tune_space: TuningSpace | None = None,
        pgo: bool = False,
        workers: int | None = None,
        shards: int | None = None,
        combiner: str = "sum",
        slo=None,
    ) -> InferenceSession:
        """Compile (or cache-hit) ``forest`` and serve it as ``name``.

        Re-registering an existing name replaces its session; registering a
        fingerprint-identical model (under any name) reuses the cached
        predictor without recompiling.

        ``artifact`` serves a pre-compiled AOT artifact directory (see
        :func:`repro.backend.aot.export_artifact`) instead of compiling:
        the kernel, buffers, and schedule are loaded from disk, so a warm
        worker skips the compiler entirely. Mutually exclusive with
        ``forest`` and ``tune`` — tuning needs the model structure, which
        an artifact does not carry. A fingerprint-identical artifact
        already resident in the cache is served from memory without even
        reloading the buffers.

        With ``tune=True`` the session serves immediately on the cheap
        default (or given) schedule while a budget-aware autotune runs on
        the shared kernel pool in the background; when a faster schedule
        wins, the session's predictor is hot-swapped atomically.
        ``tune_rows`` should be a representative sample batch (its size is
        part of the tuning key); synthetic normal rows are used when
        omitted. Winners persist to the server's schedule cache, so a
        restart warm-starts without searching.

        With ``pgo=True`` the session compiles with live profiling
        enabled (``Schedule(profile=True)``) and a periodic job re-reads
        the accumulated walk-depth profile every ``pgo_interval_s``
        seconds: once ``pgo_min_rows`` rows have been profiled it derives
        a hot-depth cutoff (:func:`repro.pgo.measured_hot_depth`),
        recompiles with ``Schedule(pgo=cutoff)``, and atomically
        hot-swaps when the split measures faster — recording a
        ``pgo_swap`` flight event. :meth:`force_pgo_recompile` runs one
        cycle synchronously.

        With ``workers >= 1`` the model is served by the multi-process
        sharded tier (:mod:`repro.serve.workers`): the forest is split
        into ``shards`` tree ranges (default: one per worker, sized by
        :func:`repro.autotune.shards.recommend_shard_count` when
        ``shards`` is omitted), compiled once, exported to shared memory
        and executed by forked workers whose partial sums are folded by
        ``combiner`` (``"sum"``/``"mean"``/``"max_margin"``/``"top<k>"``).
        Mutually exclusive with ``artifact``/``tune``/``pgo`` — the
        sharded predictor owns processes, not a recompilable kernel.

        ``slo`` (an :class:`repro.serve.workers.SLOPolicy`) records the
        model's admission targets for an :class:`AsyncModelFrontend`;
        re-registering without it clears them.
        """
        if self._closed:
            raise ServingError("server is closed")
        if workers is not None:
            if forest is None:
                raise ServingError("sharded serving (workers=...) needs a forest")
            if artifact is not None:
                raise ServingError(
                    "register() takes workers=... or an artifact, not both"
                )
            if tune or pgo:
                raise ServingError(
                    "tune/pgo hot-swap a single in-process kernel; the "
                    "sharded tier owns worker processes — register without "
                    "workers= to tune"
                )
            from repro.autotune.shards import recommend_shard_count
            from repro.serve.workers import build_sharded_predictor

            if shards is None and workers >= 1:
                shards = recommend_shard_count(forest, workers)
            predictor = build_sharded_predictor(
                forest,
                schedule,
                num_workers=workers,
                num_shards=shards,
                combiner=combiner,
                validate_inputs=self.config.validate_inputs,
                name=f"repro-shard-{name}",
            )
            return self._install(
                name, forest, batching, threads, slo,
                sharded=predictor, predictor=predictor,
            )
        if shards is not None:
            raise ServingError("shards=... requires workers=...")
        if artifact is not None:
            if forest is not None:
                raise ServingError(
                    "register() takes a forest or an artifact, not both"
                )
            if tune:
                raise ServingError(
                    "tune=True needs the forest structure; artifacts carry "
                    "only the compiled kernel — register the forest to tune"
                )
            if pgo:
                raise ServingError(
                    "pgo=True recompiles from the forest structure; "
                    "artifacts carry only the compiled kernel"
                )
            from repro.backend.aot import artifact_fingerprint, load_artifact

            # Only the manifest is read before the lookup: a resident
            # executor of this fingerprint, compiled or loaded, is served
            # without touching the buffers.
            predictor, hit = self.cache.get_or_compile(
                artifact_fingerprint(artifact),
                lambda: load_artifact(
                    artifact, validate_inputs=self.config.validate_inputs
                ),
            )
            return self._install(
                name, None, batching, threads, slo,
                predictor=predictor, cache_hit=hit,
            )
        if forest is None:
            raise ServingError("register() needs a forest or an artifact")
        if pgo:
            # The profile recorder is what the periodic job reads; PGO
            # without it would never see a measured walk depth.
            schedule = (schedule or Schedule()).with_(profile=True)
        session = self._install(
            name, forest, batching, threads, slo, schedule=schedule
        )
        if pgo:
            self._arm_pgo_timer(name, session)
        if tune:
            if tune_rows is None:
                rng = np.random.default_rng(0)
                tune_rows = rng.normal(size=(64, forest.num_features))
            else:
                tune_rows = np.ascontiguousarray(tune_rows, dtype=np.float64)
            self._start_tune(name, session, tune_rows, tune_space)
        return session

    def _install(
        self, name: str, forest, batching, threads, slo, *, sharded=None,
        **session_args,
    ) -> InferenceSession:
        """Build ``name``'s session and swap it in for whatever it replaces.

        The replaced session, any sharded predictor the name owned and a
        stale PGO timer are retired outside the lock; ``sharded`` (the new
        session's own sharded predictor) is recorded as the name's, and
        ``slo`` replaces (``None``: clears) the name's admission policy in
        the same critical section, so a registration that raises changes
        no policy.
        """
        session = InferenceSession(
            forest,
            cache=self.cache,
            metrics=self.metrics,
            batching=self.config.batching if batching == "inherit" else batching,
            threads=self.config.threads if threads == "inherit" else threads,
            allow_fallback=self.config.allow_fallback,
            validate_inputs=self.config.validate_inputs,
            name=name,
            tracer=self.tracer,
            slow_request_s=self.config.slow_request_s,
            **session_args,
        )
        with self._lock:
            old = self._sessions.get(name)
            self._sessions[name] = session
            old_sharded = self._sharded.pop(name, None)
            if sharded is not None:
                self._sharded[name] = sharded
            if slo is None:
                self._slos.pop(name, None)
            else:
                self._slos[name] = slo
            stale_timer = self._pgo_timers.pop(name, None)
        if stale_timer is not None:
            stale_timer.cancel()
        if old is not None:
            old.close()
        if old_sharded is not None:
            old_sharded.close()
        return session

    # ------------------------------------------------------------------
    # Background tuning
    # ------------------------------------------------------------------
    def _start_tune(
        self,
        name: str,
        session: InferenceSession,
        rows: np.ndarray,
        space: TuningSpace | None,
    ) -> Future:
        self.metrics.count("tuning.started")
        future = get_pool().submit(self._tune_job, name, session, rows, space)
        with self._lock:
            self._tunes = [f for f in self._tunes if not f.done()]
            self._tunes.append(future)
        return future

    def _tune_job(
        self,
        name: str,
        session: InferenceSession,
        rows: np.ndarray,
        space: TuningSpace | None,
    ) -> dict:
        """Runs on the shared kernel pool; must never raise (pool hygiene).

        Tuning compiles/times serial candidates (the searched grid keeps
        ``parallel=1`` from the base schedule), so the job is a leaf task
        and cannot deadlock the pool it runs on.
        """
        cfg = self.config
        try:
            result = autotune(
                session.forest,
                rows,
                space=space,
                base=session.schedule,
                repeats=cfg.tune_repeats,
                max_configs=cfg.tune_max_configs,
                min_time_s=cfg.tune_min_time_s,
                time_budget_s=cfg.tune_time_budget_s,
                patience=cfg.tune_patience,
                cache=self.schedule_cache,
            )
            info = self._maybe_swap(name, session, rows, result)
            self.metrics.record_tune_completed(info)
            return info
        except Exception as exc:  # noqa: BLE001 - a tune failure must never
            # poison the pool worker or take the serving path down; the
            # session keeps serving on its registration-time predictor.
            self.metrics.count("tuning.failed")
            flight.record("tune_failed", model=name, error=str(exc))
            return {"name": name, "error": str(exc), "swapped": False}

    def _maybe_swap(self, name, session, rows, result) -> dict:
        """Swap the session onto the tuned predictor if it measures faster."""
        baseline_us, tuned_us = self._measure_pair(
            session, result.best_predictor, rows
        )
        info = {
            "name": name,
            "explored": result.explored,
            "grid_size": result.grid_size,
            "from_cache": result.from_cache,
            "rank_correlation": result.rank_correlation,
            "stopped_by": result.stopped_by,
            "baseline_per_row_us": baseline_us,
            "tuned_per_row_us": tuned_us,
            "swapped": False,
        }
        if tuned_us >= baseline_us * SWAP_THRESHOLD:
            return info
        if not self._swap_in(
            name, session, result.best_predictor, result.best_schedule
        ):
            return info
        info["swapped"] = True
        flight.record(
            "hot_swap",
            model=name,
            baseline_per_row_us=round(baseline_us, 4),
            tuned_per_row_us=round(tuned_us, 4),
            schedule=result.best_schedule.to_dict(),
        )
        return info

    def _measure_pair(self, session, candidate, rows) -> tuple[float, float]:
        """Per-row µs of the session's current predictor, then of
        ``candidate``, over ``rows`` — the measurement every swap decides on."""
        cfg = self.config

        def per_row_us(predictor) -> float:
            return measure(
                lambda: predictor.raw_predict(rows),
                rows=rows.shape[0],
                repeats=cfg.tune_repeats,
                min_time_s=cfg.tune_min_time_s,
            ).per_row_us

        return per_row_us(session.predictor), per_row_us(candidate)

    def _swap_in(self, name, session, candidate, schedule) -> bool:
        """Serve ``name`` from ``candidate`` (compiled under ``schedule``)
        if ``session`` is still current; returns whether it swapped.

        The candidate enters the cache under its own fingerprint. The
        currency check and the swap share ONE lock hold: checking, then
        swapping after release, lets a concurrent unregister/close slip
        between them and receive a swap onto a session it already closed.
        """
        fingerprint = candidate.fingerprint  # hashed outside the lock
        with self._lock:
            if self._sessions.get(name) is not session or self._closed:
                return False
            self.cache.put(fingerprint, candidate)
            session.swap_predictor(candidate, schedule)
            return True

    # ------------------------------------------------------------------
    # Profile-guided recompilation
    # ------------------------------------------------------------------
    def _arm_pgo_timer(self, name: str, session: InferenceSession) -> None:
        """(Re)schedule the next profile check for ``name``.

        One timer per registration name; re-registering or unregistering
        cancels it. The timer thread runs the whole cycle — compile and
        measurement included — which is fine: it is a daemon thread and
        the cycle is bounded by one compile plus two short measurements.
        """
        timer = threading.Timer(
            self.config.pgo_interval_s, self._pgo_tick, args=(name, session)
        )
        timer.daemon = True
        with self._lock:
            if self._closed or self._sessions.get(name) is not session:
                return
            previous = self._pgo_timers.get(name)
            self._pgo_timers[name] = timer
        if previous is not None:
            previous.cancel()
        timer.start()

    def _pgo_tick(self, name: str, session: InferenceSession) -> None:
        """Timer callback: one PGO cycle, then re-arm while still current."""
        self._pgo_job(name, session)
        self._arm_pgo_timer(name, session)

    def _pgo_job(
        self, name: str, session: InferenceSession, *, force: bool = False
    ) -> dict:
        """One profile-guided recompile cycle; must never raise.

        Reads the session's live profile aggregate, derives the measured
        hot-depth cutoff, recompiles with ``Schedule(pgo=cutoff)`` (the
        profile stays on, so later cycles keep adapting), and hot-swaps
        when the split beats the incumbent by :data:`SWAP_THRESHOLD`.
        ``force`` skips the warm-up row gate and the threshold — the
        operator (or CI) asked for the swap, not a maybe.
        """
        from repro.pgo import measured_hot_depth, prefix_bytes, walking_trees

        cfg = self.config
        info = {"name": name, "swapped": False, "reason": None}
        try:
            predictor = session.predictor
            lir = getattr(predictor, "lir", None)
            if getattr(predictor, "profile_recorder", None) is None or lir is None:
                info["reason"] = "no_profile"
                return info
            counters = predictor.profile_counters()
            if not force and counters.get("rows", 0) < cfg.pgo_min_rows:
                info["reason"] = "cold_profile"
                return info
            cutoff, mean = measured_hot_depth(counters, walking_trees(lir))
            if cutoff is None:
                info["reason"] = "empty_profile"
                return info
            info["cutoff"] = cutoff
            info["mean_steps"] = round(mean, 3)
            if session.schedule.pgo == cutoff:
                info["reason"] = "stable"
                return info
            tuned_schedule = session.schedule.with_(pgo=cutoff)
            from repro.api import compile_model

            tuned = compile_model(
                session.forest,
                tuned_schedule,
                validate_inputs=cfg.validate_inputs,
            )
            rng = np.random.default_rng(0)
            rows = rng.normal(size=(256, session.forest.num_features))
            baseline_us, tuned_us = self._measure_pair(session, tuned, rows)
            info["baseline_per_row_us"] = round(baseline_us, 4)
            info["tuned_per_row_us"] = round(tuned_us, 4)
            faster = tuned_us < baseline_us * SWAP_THRESHOLD
            if not (faster or force):
                info["reason"] = "slower"
                return info
            if not self._swap_in(name, session, tuned, tuned_schedule):
                info["reason"] = "superseded"
                return info
            info["swapped"] = True
            info["prefix"] = prefix_bytes(tuned.lir)
            flight.record(
                "pgo_swap",
                model=name,
                cutoff=cutoff,
                mean_steps=info["mean_steps"],
                baseline_per_row_us=info["baseline_per_row_us"],
                tuned_per_row_us=info["tuned_per_row_us"],
                forced=force,
                **info["prefix"],
            )
            return info
        except Exception as exc:  # noqa: BLE001 - a PGO failure must never
            # take the timer thread (or a force_pgo_recompile caller) down;
            # the session keeps serving on its current predictor.
            info["reason"] = "error"
            info["error"] = str(exc)
            flight.record("pgo_failed", model=name, error=str(exc))
            return info

    def force_pgo_recompile(self, name: str) -> dict:
        """Run one PGO cycle for ``name`` synchronously, swapping even
        when the measured win is inside the noise threshold.

        Returns the cycle's info dict (``swapped``/``cutoff``/timings or a
        ``reason`` explaining why nothing changed). Tests and CI use this
        instead of waiting out ``pgo_interval_s``.
        """
        return self._pgo_job(name, self.session(name), force=True)

    def wait_for_tunes(self, timeout: float | None = None) -> bool:
        """Block until every background tune launched so far settles.

        Returns False when ``timeout`` expired with tunes still running.
        """
        with self._lock:
            pending = list(self._tunes)
        done, not_done = futures_wait(pending, timeout=timeout)
        return not not_done

    def unregister(self, name: str) -> None:
        with self._lock:
            session = self._sessions.pop(name, None)
            sharded = self._sharded.pop(name, None)
            timer = self._pgo_timers.pop(name, None)
            self._slos.pop(name, None)
        if timer is not None:
            timer.cancel()
        if session is None:
            raise ServingError(f"no model registered as {name!r}")
        session.close()
        if sharded is not None:
            sharded.close()

    def slo_policy(self, name: str):
        """The model's registered admission policy, or ``None``."""
        with self._lock:
            return self._slos.get(name)

    def session(self, name: str) -> InferenceSession:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise ServingError(f"no model registered as {name!r}")
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def predict(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Objective-transformed predictions from the named model."""
        return self.session(name).predict(rows)

    def raw_predict(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Raw margins from the named model."""
        return self.session(name).raw_predict(rows)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """All counters plus registry/cache occupancy, read atomically."""
        snap = self.metrics.snapshot()
        snap["models_registered"] = len(self.names())
        snap["predictors_resident"] = len(self.cache)
        return snap

    def close(self) -> None:
        observe_registry.unregister(self._registry_name)
        # The flight recorder is process-wide; only withdraw the mirror
        # file if it is still the one this server attached.
        if (
            self.config.flight_log is not None
            and flight.recorder.file_path == self.config.flight_log
        ):
            flight.recorder.detach_file()
        with self._lock:
            sessions, self._sessions = list(self._sessions.values()), {}
            sharded, self._sharded = list(self._sharded.values()), {}
            self._slos = {}
            self._closed = True
            tunes, self._tunes = list(self._tunes), []
            pgo_timers, self._pgo_timers = list(self._pgo_timers.values()), {}
        for timer in pgo_timers:
            timer.cancel()
        for future in tunes:
            future.cancel()
        # Running tunes are bounded by the tuning budget; wait them out so
        # no background compile outlives the server (their swaps are
        # already disarmed by _closed).
        futures_wait([f for f in tunes if not f.cancelled()])
        for session in sessions:
            session.close()
        for predictor in sharded:
            predictor.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ModelServer(models={len(self.names())}, "
            f"cache={len(self.cache)}/{self.cache.capacity})"
        )
