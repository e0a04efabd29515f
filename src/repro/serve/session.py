"""One served model: compile-once, predict-many, degrade-gracefully.

An :class:`InferenceSession` is the serving wrapper around one registered
forest. It compiles through a shared :class:`~repro.serve.cache.PredictorCache`
(so fingerprint-identical registrations are cache hits), optionally coalesces
concurrent ``predict`` calls through a :class:`~repro.serve.batching.MicroBatcher`,
and — when compilation fails with a :class:`~repro.errors.CompilerError` —
falls back to the interpreter (or, if even lowering failed, the reference
``Forest`` traversal) instead of crashing, recording the event in metrics.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np

from repro.api import compile_model
from repro.backend.jit import model_fingerprint
from repro.config import Schedule
from repro.errors import CompilerError, ServingError
from repro.forest.ensemble import Forest, apply_objective
from repro.observe import events as flight
from repro.serve.batching import BatchingPolicy, MicroBatcher
from repro.serve.cache import PredictorCache
from repro.serve.fallback import InterpreterPredictor, ReferencePredictor
from repro.serve.metrics import ServingMetrics


def _lower_only(forest: Forest, schedule: Schedule):
    """Run the pipeline up to LIR (no codegen); used by the fallback path."""
    from repro.hir.ir import build_hir
    from repro.lir.lowering import lower_mir_to_lir
    from repro.mir.lowering import lower_hir_to_mir
    from repro.mir.passes import run_mir_pipeline

    hir = build_hir(forest, schedule)
    return lower_mir_to_lir(run_mir_pipeline(lower_hir_to_mir(hir), hir), hir)


class InferenceSession:
    """Serving handle for one model + schedule.

    Parameters
    ----------
    forest, schedule:
        The model and its compilation schedule (``None`` = paper default).
    predictor, cache_hit:
        A pre-built executor to serve instead of compiling ``forest``, and
        whether the caller found it resident in ``cache``.
    cache:
        Shared predictor cache; a private one is created when omitted.
    metrics:
        Shared metrics sink; a private one is created when omitted.
    batching:
        A :class:`BatchingPolicy` to coalesce concurrent ``predict`` calls
        into micro-batches, or ``None`` (default) for direct execution.
    threads:
        Per-batch fan-out through ``parallel_predict`` row blocking;
        ``None`` defers to the schedule's ``parallel`` field.
    allow_fallback:
        Degrade to the interpreter/reference path on compile failure
        instead of raising.
    validate_inputs:
        Reject NaN rows at predict time.
    name:
        The registration name (used to label request spans and flight
        events); defaults to a fingerprint prefix.
    tracer:
        A :class:`repro.observe.spans.RequestTracer` sampling requests
        into span trees, or ``None`` (default) for no tracing — the
        request path then pays exactly one ``is None`` test.
    slow_request_s:
        Latency threshold above which a request is logged to the flight
        recorder as a ``slow_request`` event; ``None`` disables.
    """

    def __init__(
        self,
        forest: Forest | None,
        schedule: Schedule | None = None,
        *,
        predictor=None,
        cache_hit: bool = False,
        cache: PredictorCache | None = None,
        metrics: ServingMetrics | None = None,
        batching: BatchingPolicy | None = None,
        threads: int | None = None,
        allow_fallback: bool = True,
        validate_inputs: bool = True,
        name: str | None = None,
        tracer=None,
        slow_request_s: float | None = None,
    ) -> None:
        if forest is None and predictor is None:
            raise ServingError("a session needs a forest or a preloaded predictor")
        self.forest = forest
        self.name = name
        self._tracer = tracer
        self._slow_request_s = slow_request_s
        self.metrics = metrics if metrics is not None else ServingMetrics()
        # NB: `cache or ...` would be wrong — an *empty* cache is falsy.
        self.cache = cache if cache is not None else PredictorCache(metrics=self.metrics)
        self.threads = threads
        self.allow_fallback = allow_fallback
        self.validate_inputs = validate_inputs
        self.fallback_error: CompilerError | None = None
        if predictor is not None:
            # Never invoke the compiler: the server resolved this executor
            # already — an AOT artifact it looked up in (or loaded into) the
            # shared cache, or a sharded predictor, whose worker processes
            # belong to exactly one registration and never enter the cache.
            self.schedule = predictor.schedule
            self.objective = getattr(predictor, "objective", "regression")
            self.fingerprint = predictor.fingerprint
            self.predictor, self.cache_hit = predictor, cache_hit
        else:
            self.schedule = schedule or Schedule()
            self.objective = forest.objective
            self.fingerprint = model_fingerprint(forest, self.schedule)
            self.predictor, self.cache_hit = self.cache.get_or_compile(
                self.fingerprint, self._compile
            )
        if self.name is None:
            self.name = self.fingerprint[:12]
        self._batcher: MicroBatcher | None = None
        if batching is not None:
            self._batcher = MicroBatcher(
                self._run_raw, policy=batching, metrics=self.metrics,
                name=f"repro-batcher-{self.fingerprint[:8]}",
            )

    # ------------------------------------------------------------------
    # Compilation (invoked at most once per fingerprint via the cache)
    # ------------------------------------------------------------------
    def _compile(self):
        self.metrics.count("compiles")
        label = self.name or self.fingerprint[:12]
        try:
            predictor = compile_model(
                self.forest, self.schedule, validate_inputs=self.validate_inputs
            )
        except CompilerError as exc:
            if not self.allow_fallback:
                raise
            self.fallback_error = exc
            self.metrics.count("fallbacks")
            flight.record(
                "fallback",
                model=label,
                fingerprint=self.fingerprint[:12],
                error=str(exc),
            )
            try:
                lir = _lower_only(self.forest, self.schedule)
                return InterpreterPredictor(self.forest, lir, self.validate_inputs)
            except CompilerError:
                # Even lowering failed: serve the reference semantics.
                return ReferencePredictor(self.forest, self.schedule, self.validate_inputs)
        trace = getattr(predictor, "trace", None)
        flight.record(
            "compile",
            model=label,
            fingerprint=self.fingerprint[:12],
            backend=getattr(predictor, "backend_name", self.schedule.backend),
            precision=self.schedule.precision,
            duration_ms=(
                round(trace.total_seconds * 1e3, 3) if trace is not None else None
            ),
        )
        return predictor

    @property
    def used_fallback(self) -> bool:
        """Whether this session serves through a degraded executor."""
        return getattr(self.predictor, "is_fallback", False)

    # ------------------------------------------------------------------
    # Hot swap (background tuning)
    # ------------------------------------------------------------------
    def swap_predictor(self, predictor, schedule: Schedule | None = None):
        """Atomically switch this session to ``predictor``; returns the old one.

        The swap is one attribute rebind: requests already inside
        ``raw_predict`` finish on the predictor they captured, later
        requests see the new one — no request is dropped or served by a
        half-updated session. ``schedule`` (when given) is the one
        ``predictor`` was compiled under: the session's schedule and
        fingerprint follow it. The swap is counted in metrics.
        """
        old = self.predictor
        if schedule is not None:
            if self.forest is None:
                raise ServingError(
                    "cannot re-schedule an artifact-backed session (no forest)"
                )
            self.schedule = schedule
            self.fingerprint = predictor.fingerprint
        self.predictor = predictor
        self.fallback_error = None
        self.metrics.count("tuning.hot_swaps")
        return old

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _run_raw(self, rows: np.ndarray) -> np.ndarray:
        """Execute one (possibly coalesced) batch of raw margins."""
        start = time.perf_counter()
        out = self.predictor.raw_predict(rows, threads=self.threads)
        self.metrics.record_kernel_time(time.perf_counter() - start)
        return out

    def raw_predict(self, rows: np.ndarray) -> np.ndarray:
        """Raw margins, through the micro-batcher when one is configured.

        Every request is accounted here — counters, latency, ``error`` and
        ``slow_request`` flight events — a refused one (deque full,
        batcher closed) included. When this session has a tracer and the
        request is sampled, the whole call is covered by a span tree:
        ``admission`` (input coercion), then either
        ``queue_wait``/``assemble``/``kernel`` (batched, recorded by the
        batch's holder) or ``kernel`` (direct), then ``aggregate``
        (wake-up/bookkeeping). The stages are contiguous marks, and one
        clock read closes the tree and the latency sample, so their
        durations sum exactly to the recorded request latency.
        """
        start = time.perf_counter()
        trace = (
            self._tracer.maybe_trace(self.name, started_s=start)
            if self._tracer is not None
            else None
        )
        rows = np.asarray(rows)
        num_rows = rows.shape[0] if rows.ndim == 2 else 0
        if trace is not None:
            trace.rows = num_rows
            trace.stage("admission")
        try:
            if self._batcher is not None:
                out = self._batcher.predict(rows, trace=trace)
            else:
                out = self._run_raw(rows)
                if trace is not None:
                    trace.stage("kernel")
        except BaseException as exc:
            self.metrics.count("errors")
            flight.record("error", model=self.name, rows=num_rows, error=str(exc))
            if trace is not None:
                self._tracer.record(trace.finish(error=str(exc)))
            raise
        now = time.perf_counter()
        elapsed = now - start
        self.metrics.record_request(num_rows, elapsed)
        if trace is not None:
            trace.stage("aggregate", now=now)
            self._tracer.record(trace.finish())
        if self._slow_request_s is not None and elapsed >= self._slow_request_s:
            flight.record(
                "slow_request",
                model=self.name,
                rows=num_rows,
                latency_ms=round(elapsed * 1e3, 3),
                trace_id=trace.trace_id if trace is not None else None,
            )
        return out

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Objective-transformed predictions (probabilities for classifiers)."""
        return apply_objective(self.objective, self.raw_predict(rows))

    def submit(self, rows: np.ndarray) -> Future:
        """``raw_predict`` with its outcome held in a resolved future;
        requires a batching policy.

        The call blocks until the request has resolved (the micro-batcher
        has no thread of its own) and returns a done future holding the
        margins or the request's error, refusals included. Accounting is
        ``raw_predict``'s.
        """
        if self._batcher is None:
            raise ServingError("session was created without a batching policy")
        future: Future = Future()
        try:
            future.set_result(self.raw_predict(rows))
        except Exception as exc:
            future.set_exception(exc)
        return future

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the micro-batcher; it stays attached, so a closed batching
        session refuses every request with a ``ServingError``."""
        if self._batcher is not None:
            self._batcher.close()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = type(self.predictor).__name__
        return (
            f"InferenceSession(fingerprint={self.fingerprint[:12]}, "
            f"executor={kind}, cache_hit={self.cache_hit}, "
            f"fallback={self.used_fallback})"
        )
