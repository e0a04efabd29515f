"""Request coalescing: micro-batching for the serving layer.

The compiler's entire premise is that batch inference amortizes per-call
overhead (Section II) — so the server should never run a compiled kernel on
one row if ten requests are waiting. :class:`MicroBatcher` coalesces them
by *flat combining* (Hendler, Incze, Shavit and Tzafrir, SPAA 2010) and has
no thread of its own: ``predict`` appends its request to a bounded pending
deque and waits for it to resolve, and whenever the batch lock is free
during that wait, the caller takes it and becomes the *holder*. The holder
takes whatever is pending (up to ``max_batch_rows``, in arrival order)
without waiting, stacks the rows into one contiguous batch, runs the kernel
once, and stores each request's slice (or error) on the request itself;
each caller returns its own slice or raises its own error.
Whatever arrives while that kernel runs forms the next batch, so the
kernel's own service time is the coalescing window: a lone request runs on
its own thread with no hand-off at all, and a busy server batches as much as
its load queues up. ``BatchingPolicy(max_delay_s=...)`` adds an explicit
linger inside the holder for deployments that trade latency for CPU.

A holder runs the batch holding its own request plus at most one more, then
releases the lock to a waiter whose request is still pending. Every pending
request has a live caller waiting on it, so none can be stranded.

Requests never interleave rows: each request's rows occupy one contiguous
slice of the batch, so per-row results are identical to a solo run (the
kernels are row-parallel). When a coalesced batch raises, its requests are
re-run one at a time, so each request gets exactly what it would have got
alone — one malformed request cannot fail its batch-mates. An exception
that escapes even that fails the batch's requests with
:class:`~repro.errors.ServingError`; the lock is released and later
requests still serve. An interrupt (a ``BaseException`` such as
``KeyboardInterrupt``) raised in the holder fails its batch's requests with
``ServingError`` too, and is re-raised to the holder's own caller only.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import ServingError
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
        Extra time the holder lingers for companions before it takes a
        batch. The default ``0.0`` is work-conserving: take what is
        pending and run. Set it only to buy larger batches (less CPU per
        row) with latency — every request then pays up to this much even
        on an idle server.
    queue_depth:
        Bound on pending (not yet batched) requests; backpressure beyond it.
    submit_timeout_s:
        How long ``predict`` blocks on a full deque before raising
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
        # ``not (x >= 0)`` also rejects NaN, which a timed wait would
        # otherwise turn into an opaque error on every request.
        if not (self.submit_timeout_s >= 0):
            raise ServingError("submit_timeout_s must be >= 0")


class _Request:
    __slots__ = ("rows", "num_rows", "enqueued_s", "trace", "done", "result", "error")

    def __init__(self, rows: np.ndarray, trace=None) -> None:
        self.rows = rows
        # A malformed (non-2-D) request claims no rows; it still reaches
        # ``run_batch``, whose typed error is what its caller receives.
        self.num_rows = rows.shape[0] if rows.ndim == 2 else 0
        # Enqueue timestamp feeds the queue-wait histogram (always) and the
        # request trace's queue_wait stage (when the request is sampled).
        self.enqueued_s = time.perf_counter()
        self.trace = trace
        # set before ``done``, which waiters read under the batcher's condition
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.done = False

    def outcome(self) -> np.ndarray:
        if self.error is not None:
            raise self.error
        return self.result


class MicroBatcher:
    """Coalesce concurrent predict calls into micro-batches.

    ``run_batch`` receives one 2-D float64 row block and returns the
    per-row result array (1-D or 2-D). It runs on whichever submitting
    thread holds the batch lock and never concurrently with itself, so it
    needs no internal locking; thread-local state it keeps (the
    predictors' scratch arenas) is per holder thread.
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
        # One condition guards the deque and the flags below. Its waiters
        # are submitters (for their request, or for the lock to free up,
        # or for room in a full deque) and a lingering holder.
        self._cond = threading.Condition(threading.Lock())
        self._pending: deque[_Request] = deque()
        self._holding = False
        self._lingering = False
        self._closed = False

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def predict(self, rows: np.ndarray, trace=None) -> np.ndarray:
        """Run ``rows`` in a micro-batch; returns their result slice.

        The call returns once the request has resolved: in a concurrent
        holder's batch, or in one this thread ran itself after finding the
        batch lock free. It raises the request's own error, or
        :class:`~repro.errors.ServingError` when the deque stays full for
        ``submit_timeout_s`` or the batcher is closed. ``trace`` (a
        :class:`repro.observe.spans.RequestTrace`, when the request is
        sampled) rides along with the request: the holder records its
        ``queue_wait``/``assemble``/``kernel`` stages, and the caller
        finishes the tree.
        """
        req = _Request(np.asarray(rows), trace)
        policy = self.policy
        with self._cond:
            if len(self._pending) >= policy.queue_depth and not self._cond.wait_for(
                self._has_room, policy.submit_timeout_s
            ):
                raise ServingError(
                    f"micro-batch queue full ({policy.queue_depth} pending); "
                    "backpressure exceeded submit_timeout_s"
                )
            if self._closed:
                raise ServingError("micro-batcher is closed")
            self._pending.append(req)
            if self._lingering:
                self._cond.notify_all()
            while self._holding:
                self._cond.wait()
                if req.done:
                    return req.outcome()
            self._holding = True
        self._hold(req)
        return req.outcome()

    def _has_room(self) -> bool:
        return self._closed or len(self._pending) < self.policy.queue_depth

    # ------------------------------------------------------------------
    # Holder side
    # ------------------------------------------------------------------
    def _hold(self, own: _Request) -> None:
        """Take and run batches until ``own`` has resolved, plus at most
        one more, then release the batch lock to the next holder, if any."""
        batch, last = [], False
        try:
            while True:
                with self._cond:
                    batch, num_rows = ([], 0) if last else self._take()
                    self._holding = bool(batch)
                    # the last batch's submitters and, on release, the
                    # waiters that may take the lock (and close())
                    self._cond.notify_all()
                    if not batch:
                        return
                last = own.done
                try:
                    self._execute(batch, num_rows)
                except Exception as exc:
                    # _execute stores per-batch failures on the requests;
                    # an exception escaping it must still resolve this batch.
                    error = ServingError(f"micro-batcher {self.name!r} failed a batch: {exc!r}")
                    error.__cause__ = exc
                    self._fail(batch, error)
        except BaseException as exc:
            self._fail(batch, ServingError(f"micro-batcher {self.name!r} interrupted: {exc!r}"))
            with self._cond:
                self._holding = False
                self._cond.notify_all()
            raise

    def _take(self) -> tuple[list[_Request], int]:
        """Pop the next batch (lock held): pending requests in arrival
        order up to ``max_batch_rows`` rows, after the policy's linger."""
        pending, limit = self._pending, self.policy.max_batch_rows
        if self.policy.max_delay_s > 0 and pending:
            self._cond.notify_all()  # the last batch's submitters go first
            deadline = time.monotonic() + self.policy.max_delay_s
            self._lingering = True
            while not self._closed and sum(r.num_rows for r in pending) < limit:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            self._lingering = False
        if len(pending) >= self.policy.queue_depth:
            self._cond.notify_all()  # submitters waiting for room
        batch, num_rows = [], 0
        while pending and num_rows < limit:
            req = pending.popleft()
            batch.append(req)
            num_rows += req.num_rows
        return batch, num_rows

    def _execute(self, batch: list[_Request], num_rows: int) -> None:
        # Everything is guarded: metrics hooks and trace stages can raise
        # (they take locks and call user-visible code), and each failure
        # belongs to this batch's requests, not to the holder's caller. An
        # interrupt is the holder's own: it reaches ``_hold``'s handler.
        try:
            started = time.perf_counter()
            for req in batch:
                self.metrics.record_queue_wait(started - req.enqueued_s)
                if req.trace is not None:
                    req.trace.stage("queue_wait", now=started)
            self._run(batch, num_rows)
        except Exception as exc:
            if len(batch) == 1:
                self._fail(batch, exc)
                return
            # Who shares a batch depends on load, so one malformed request
            # (wrong width, NaN) must not fail its batch-mates: re-run each
            # alone and give it exactly what it would have got alone.
            for req in batch:
                try:
                    self._run([req], req.num_rows)
                except Exception as alone:
                    self._fail([req], alone)

    def _run(self, batch: list[_Request], num_rows: int) -> None:
        """One kernel call for ``batch``; raises before resolving any request."""
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
        for req in batch:
            if req.trace is not None:
                req.trace.stage("assemble", now=assembled)
                req.trace.stage("kernel", now=finished)
        offset = 0
        for req in batch:
            req.result, req.done = results[offset : offset + req.num_rows], True
            offset += req.num_rows

    @staticmethod
    def _fail(batch: Iterable[_Request], exc: BaseException) -> None:
        for req in batch:
            if not req.done:
                req.error, req.done = exc, True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 5.0) -> None:
        """Refuse new requests and fail pending ones with ``ServingError``.

        A batch already taken by a holder still completes; ``close`` waits
        up to ``timeout`` for it, so the caller can then release what
        ``run_batch`` uses.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._fail(self._pending, ServingError("micro-batcher closed"))
            self._pending.clear()
            self._cond.notify_all()
            self._cond.wait_for(lambda: not self._holding, timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
