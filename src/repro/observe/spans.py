"""Request-level tracing for the serving layer.

Compilation traces (:mod:`repro.observe.trace`) answer *why is this model
slow to build*; request spans answer *where does each request spend its
time once the model is serving*. Every sampled ``ModelServer.predict``
(and open-loop ``InferenceSession.submit``) gets a :class:`RequestTrace` —
one root span with a contiguous sequence of stage spans covering the whole
request path:

``admission``
    input coercion + NaN validation on the caller thread.
``queue_wait``
    from micro-batch enqueue until a holder (the calling thread that
    runs the batch) takes the request up (absent on unbatched sessions).
``assemble``
    stacking the coalesced requests into one contiguous batch (absent on
    unbatched sessions).
``kernel``
    the compiled kernel (or fallback executor) running the batch.
``aggregate``
    wake-up and serving bookkeeping back on the caller thread, up to
    the clock read that also records the request's latency.

Stages are recorded as *marks*: each stage ends exactly where the next
one begins, so the stage durations sum to the root span's duration by
construction — a span tree can never silently lose request time to an
uninstrumented gap.

Sampling and overhead
---------------------
Tracing is opt-in per server via ``ServerConfig(trace_sample=...)``.
:class:`RequestTracer` samples deterministically (every request at 1.0,
an evenly spaced stride below it), so a rate of ``0.01`` traces one
request in a hundred regardless of traffic shape. With ``trace_sample=0``
the server wires **no tracer at all** into its sessions — the request
path pays a single ``is None`` test and the compiled kernels are
byte-identical (tracing never touches the compiler), which is the
zero-overhead-when-off guarantee ``benchmarks/test_bench_observe.py``
pins.

Completed traces land in a process-wide bounded :class:`SpanRing`
(:data:`RING`) that the observability registry snapshots under the
``spans`` key; the ring holds plain dicts, so recording is one short
lock-guarded append per *sampled* request.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

from repro.observe.trace import jsonable

#: completed request traces kept for the snapshot
SPAN_RING_CAPACITY = 256

_trace_ids = itertools.count(1)


def new_trace_id() -> str:
    """A short process-unique request id (monotonic, cheap to mint)."""
    return f"req-{next(_trace_ids):08x}"


class RequestTrace:
    """The span tree of one serving request.

    The root span starts at construction (or the caller-supplied
    ``started_s`` so it aligns with the latency the serving metrics
    record) and every :meth:`stage` call closes the stage running since
    the previous mark. Stage order is the order of the marks; stages are
    contiguous by construction.

    A trace is touched by at most one thread at a time (caller → the
    batch's holder → caller, each hand-off synchronized by the batcher's
    lock and the request future), so it needs no lock of its own.
    """

    __slots__ = (
        "trace_id",
        "model",
        "rows",
        "started_s",
        "wall_time",
        "duration_s",
        "error",
        "stages",
        "_mark",
    )

    def __init__(
        self, model: str | None = None, rows: int = 0, started_s: float | None = None
    ) -> None:
        self.trace_id = new_trace_id()
        self.model = model
        self.rows = int(rows)
        self.started_s = time.perf_counter() if started_s is None else started_s
        self.wall_time = time.time()
        self.duration_s = 0.0
        self.error: str | None = None
        #: list of (name, start offset seconds, duration seconds)
        self.stages: list[tuple[str, float, float]] = []
        self._mark = self.started_s

    def stage(self, name: str, now: float | None = None) -> None:
        """Close the stage running since the previous mark as ``name``."""
        if now is None:
            now = time.perf_counter()
        self.stages.append((name, self._mark - self.started_s, now - self._mark))
        self._mark = now

    def finish(self, error: str | None = None) -> "RequestTrace":
        """Seal the root span; its duration is the last mark (or now).

        Using the last stage's end rather than a fresh clock read keeps
        the invariant exact: ``sum(stage durations) == duration_s``
        whenever at least one stage was recorded.
        """
        end = self._mark if self.stages else time.perf_counter()
        self.duration_s = end - self.started_s
        self.error = error
        return self

    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per stage name (stages may repeat)."""
        out: dict[str, float] = {}
        for name, _start, duration in self.stages:
            out[name] = out.get(name, 0.0) + duration
        return out

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "model": self.model,
            "rows": self.rows,
            "ts": self.wall_time,
            "duration_ms": round(self.duration_s * 1e3, 6),
            "error": self.error,
            "stages": [
                {
                    "name": name,
                    "start_ms": round(start * 1e3, 6),
                    "duration_ms": round(duration * 1e3, 6),
                }
                for name, start, duration in self.stages
            ],
        }

    def __repr__(self) -> str:
        names = "→".join(name for name, _s, _d in self.stages) or "<no stages>"
        return (
            f"RequestTrace({self.trace_id}, model={self.model!r}, "
            f"rows={self.rows}, {self.duration_s * 1e3:.3f}ms, {names})"
        )


class SpanRing:
    """Bounded, lock-cheap ring of completed request traces (as dicts)."""

    def __init__(self, capacity: int = SPAN_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("span ring capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._recorded = 0

    def record(self, trace: RequestTrace) -> None:
        snapshot = jsonable(trace.to_dict())
        with self._lock:
            self._ring.append(snapshot)
            self._recorded += 1

    def snapshot(self) -> dict:
        with self._lock:
            recent = list(self._ring)
            recorded = self._recorded
        return {"recorded": recorded, "kept": len(recent), "recent": recent}

    def recent(self, n: int | None = None) -> list[dict]:
        with self._lock:
            items = list(self._ring)
        return items if n is None else items[-n:]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SpanRing(kept={len(self._ring)}/{self.capacity}, "
                f"recorded={self._recorded})"
            )


#: the process-wide ring the observability registry snapshots
RING = SpanRing()


class RequestTracer:
    """Per-server sampling policy over one span ring.

    ``sample`` is the fraction of requests traced. Sampling is a
    deterministic stride over a request counter — ``int((i + 1) * s) >
    int(i * s)`` — so the traced subset is evenly spaced (no RNG on the
    request path, reproducible in tests). ``sample=1.0`` traces every
    request; servers with ``sample=0`` should not construct a tracer at
    all (the zero-overhead contract).
    """

    def __init__(
        self, sample: float, ring: SpanRing | None = None
    ) -> None:
        if not (0.0 < sample <= 1.0):
            raise ValueError(
                f"trace sample rate must be in (0, 1], got {sample!r}"
            )
        self.sample = float(sample)
        self.ring = ring if ring is not None else RING
        self._seen = itertools.count()
        self._sampled = 0
        self._lock = threading.Lock()

    def maybe_trace(
        self, model: str | None = None, started_s: float | None = None
    ) -> RequestTrace | None:
        """A new :class:`RequestTrace` when this request is sampled."""
        i = next(self._seen)  # itertools.count is atomic under the GIL
        if self.sample < 1.0 and not (
            int((i + 1) * self.sample) > int(i * self.sample)
        ):
            return None
        with self._lock:
            self._sampled += 1
        return RequestTrace(model=model, started_s=started_s)

    def record(self, trace: RequestTrace) -> None:
        """Push a finished trace into the ring."""
        self.ring.record(trace)

    def stats(self) -> dict:
        with self._lock:
            sampled = self._sampled
        return {"sample": self.sample, "sampled": sampled}

    def __repr__(self) -> str:
        return f"RequestTracer(sample={self.sample}, {self.stats()['sampled']} sampled)"
