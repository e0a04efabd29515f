"""Request coalescing: micro-batching for the serving layer.

The compiler's entire premise is that batch inference amortizes per-call
overhead (Section II) — so the server should never run a compiled kernel on
one row if ten requests are waiting. :class:`MicroBatcher` owns a bounded
queue and a worker thread that is *work-conserving*: it blocks only for the
first request of a batch, takes whatever else is already queued (up to
``max_batch_rows``) without waiting, stacks the rows into one contiguous
batch, runs the kernel once, and scatters the per-request slices back
through futures. Whatever arrives while that kernel runs forms the next
batch, so the kernel's own service time is the coalescing window: a lone
request pays one thread hop plus the kernel, and a busy server batches as
much as its load queues up. ``BatchingPolicy(max_delay_s=...)`` adds an
explicit linger on top for deployments that trade latency for CPU.

Requests never interleave rows: each request's rows occupy one contiguous
slice of the batch, so per-row results are identical to a solo run (the
kernels are row-parallel). When a coalesced batch raises, its requests are
re-run one at a time, so each future gets exactly what it would have got
alone — one malformed request cannot fail its batch-mates. Death of the
worker thread itself fails every pending and future request with
:class:`~repro.errors.ServingError` rather than stranding their futures.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ServingError
from repro.observe import events as flight
from repro.serve.metrics import ServingMetrics


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs for the micro-batcher.

    Attributes
    ----------
    max_batch_rows:
        Stop coalescing once the assembled batch reaches this many rows.
        The batch may exceed it by the final request's rows (requests are
        never split).
    max_delay_s:
        Extra time the worker lingers for companions after the first
        request of a batch. The default ``0.0`` is work-conserving: take
        what is queued and run. Set it only to buy larger batches (less
        CPU per row) with latency — every request then pays up to this
        much even on an idle server.
    queue_depth:
        Bound on queued (not yet batched) requests; backpressure beyond it.
    submit_timeout_s:
        How long ``submit`` blocks on a full queue before raising
        :class:`~repro.errors.ServingError`.
    """

    max_batch_rows: int = 1024
    max_delay_s: float = 0.0
    queue_depth: int = 1024
    submit_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch_rows < 1:
            raise ServingError("max_batch_rows must be >= 1")
        if self.max_delay_s < 0:
            raise ServingError("max_delay_s must be >= 0")
        if self.queue_depth < 1:
            raise ServingError("queue_depth must be >= 1")
        # ``not (x >= 0)`` also rejects NaN, which queue.put would
        # otherwise turn into an opaque ValueError on every submit.
        if not (self.submit_timeout_s >= 0):
            raise ServingError("submit_timeout_s must be >= 0")


class _Request:
    __slots__ = ("rows", "num_rows", "future", "enqueued_s", "trace")

    def __init__(self, rows: np.ndarray, future: Future, trace=None) -> None:
        self.rows = rows
        # A malformed (non-2-D) request claims no rows; it still reaches
        # ``run_batch``, whose typed error is what its future receives.
        self.num_rows = rows.shape[0] if rows.ndim == 2 else 0
        self.future = future
        # Enqueue timestamp feeds the queue-wait histogram (always) and the
        # request trace's queue_wait stage (when the request is sampled).
        self.enqueued_s = time.perf_counter()
        self.trace = trace


_STOP = object()


class MicroBatcher:
    """Coalesce concurrent predict calls into micro-batches.

    ``run_batch`` receives one 2-D float64 row block and returns the
    per-row result array (1-D or 2-D); it runs only on the single worker
    thread, so it needs no internal locking.
    """

    def __init__(
        self,
        run_batch: Callable[[np.ndarray], np.ndarray],
        policy: BatchingPolicy | None = None,
        metrics: ServingMetrics | None = None,
        name: str = "repro-batcher",
    ) -> None:
        self.run_batch = run_batch
        self.policy = policy or BatchingPolicy()
        self.metrics = metrics or ServingMetrics()
        self.name = name
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=self.policy.queue_depth)
        self._closed = threading.Event()
        # Written once by the worker thread on death, read by submitters;
        # non-None means every pending/future request must fail with it.
        self._death: ServingError | None = None
        self._worker = threading.Thread(target=self._loop, name=name, daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, rows: np.ndarray, trace=None) -> Future:
        """Enqueue ``rows``; the future resolves to their result slice.

        ``trace`` (a :class:`repro.observe.spans.RequestTrace`, when the
        request is sampled) rides along with the request: the worker
        records its ``queue_wait``/``assemble``/``kernel`` stages, and the
        caller — synchronized by the future — finishes the tree.
        """
        if self._closed.is_set():
            raise ServingError("micro-batcher is closed")
        self._check_alive()
        future: Future = Future()
        rows = np.asarray(rows)
        # Empty batches go through the queue like everything else:
        # ``run_batch`` is contractually worker-thread-only (it may touch
        # thread-local scratch arenas and unlocked state), so resolving
        # inline on the caller thread would violate that contract.
        try:
            self._queue.put(
                _Request(rows, future, trace), timeout=self.policy.submit_timeout_s
            )
        except queue.Full:
            raise ServingError(
                f"micro-batch queue full ({self.policy.queue_depth} pending); "
                "backpressure exceeded submit_timeout_s"
            ) from None
        # The worker may have died between the liveness check and the put,
        # in which case nothing will ever drain this request — fail the
        # stragglers (including ours) from here instead of stranding them.
        if self._death is not None or not self._worker.is_alive():
            self._fail_pending(self._death_error())
        return future

    def predict(self, rows: np.ndarray, trace=None) -> np.ndarray:
        """Blocking convenience: ``submit`` + wait."""
        return self.submit(rows, trace=trace).result()

    def _check_alive(self) -> None:
        if self._death is not None or not self._worker.is_alive():
            raise self._death_error()

    def _death_error(self) -> ServingError:
        return self._death or ServingError(f"micro-batch worker {self.name!r} is dead")

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        # ``inflight`` is the batch currently being assembled/executed; it
        # must be visible to the except handler because requests already
        # dequeued are no longer reachable through ``_fail_pending``.
        inflight: list[_Request] = []
        try:
            while True:
                item = self._queue.get()
                if item is _STOP:
                    break
                inflight = [item]
                num_rows = item.num_rows
                # Work-conserving: past the (default zero) linger the worker
                # only takes what is already queued, never waits for more.
                deadline = time.monotonic() + self.policy.max_delay_s
                stop_after = False
                while num_rows < self.policy.max_batch_rows:
                    remaining = deadline - time.monotonic()
                    try:
                        nxt = self._queue.get(timeout=remaining) if remaining > 0 \
                            else self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stop_after = True
                        break
                    inflight.append(nxt)
                    num_rows += nxt.num_rows
                self._execute(inflight, num_rows)
                inflight = []
                if stop_after:
                    break
        except BaseException as exc:
            # _execute delivers per-batch failures through futures; anything
            # that still escapes (a raising metrics hook, a corrupted queue)
            # would previously kill this thread silently and strand every
            # queued and future request. Record the death and fail them all.
            self._death = ServingError(f"micro-batch worker {self.name!r} died: {exc!r}")
            self._death.__cause__ = exc
            flight.record("worker_dead", component="micro_batcher", name=self.name, error=repr(exc))
            self._fail(inflight, self._death)
            self._fail_pending(self._death)
            return
        self._fail_pending(ServingError("micro-batcher closed"))

    def _execute(self, batch: list[_Request], num_rows: int) -> None:
        # Everything is guarded: metrics hooks and trace stages can raise
        # (they take locks and call user-visible code), and an escape here
        # must fail this batch's futures, not the worker.
        try:
            started = time.perf_counter()
            for req in batch:
                self.metrics.record_queue_wait(started - req.enqueued_s)
                if req.trace is not None:
                    req.trace.stage("queue_wait", now=started)
            self._run(batch, num_rows)
        except BaseException as exc:
            if len(batch) == 1 or not isinstance(exc, Exception):
                self._fail(batch, exc)
                return
            # Who shares a batch depends on load, so one malformed request
            # (wrong width, NaN) must not fail its batch-mates: re-run each
            # alone and give it exactly what it would have got alone.
            for req in batch:
                try:
                    self._run([req], req.num_rows)
                except BaseException as alone:
                    self._fail([req], alone)

    def _run(self, batch: list[_Request], num_rows: int) -> None:
        """One kernel call for ``batch``; raises before resolving any future."""
        self.metrics.record_batch(num_rows, len(batch))
        if len(batch) == 1:
            stacked = batch[0].rows
        else:
            stacked = np.concatenate([req.rows for req in batch], axis=0)
        assembled = time.perf_counter()
        results = self.run_batch(stacked)
        finished = time.perf_counter()
        if len(results) != num_rows:
            raise ServingError(
                f"run_batch returned {len(results)} rows for a batch of {num_rows}"
            )
        slices, offset = [], 0
        for req in batch:
            slices.append(results[offset : offset + req.num_rows])
            offset += req.num_rows
            if req.trace is not None:
                req.trace.stage("assemble", now=assembled)
                req.trace.stage("kernel", now=finished)
        for req, part in zip(batch, slices):
            if req.future.set_running_or_notify_cancel():
                req.future.set_result(part)

    @staticmethod
    def _fail(batch: list[_Request], exc: BaseException) -> None:
        for req in batch:
            if req.future.set_running_or_notify_cancel():
                req.future.set_exception(exc)

    def _fail_pending(self, exc: ServingError) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                self._fail([item], exc)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 5.0) -> None:
        """Stop the worker; pending requests fail with ``ServingError``."""
        if self._closed.is_set():
            return
        self._closed.set()
        # The queue is bounded, so a blocking put would hang forever if the
        # worker is dead or wedged inside run_batch with a full queue.
        # Alternate non-blocking puts with draining: every Full drains one
        # pending request (failed, not dropped), so the loop always makes
        # progress toward inserting _STOP.
        while True:
            try:
                self._queue.put_nowait(_STOP)
                break
            except queue.Full:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    continue  # the worker drained between our two calls; retry
                if item is not _STOP:
                    self._fail([item], ServingError("micro-batcher closed"))
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():
            # Worker is wedged (e.g. run_batch never returns): requests
            # queued behind it would strand, and its own drain will never
            # run. Queue.get hands each item to exactly one caller, so
            # draining from here cannot double-resolve a future.
            self._fail_pending(ServingError("micro-batcher closed"))
            # The drain may have consumed the _STOP sentinel; replace it so
            # a worker that eventually unwedges exits instead of blocking
            # forever on the now-empty queue (an extra _STOP is harmless).
            try:
                self._queue.put_nowait(_STOP)
            except queue.Full:
                pass

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
