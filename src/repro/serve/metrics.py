"""Observability for the serving layer.

A :class:`ServingMetrics` instance is shared by the predictor cache, the
micro-batcher and every session attached to a server. All counters are
guarded by one lock (updates are tiny relative to inference), and
:meth:`snapshot` returns plain Python containers so tests, examples and
monitoring endpoints can read the whole surface atomically.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import Counter
from typing import Callable

from repro.observe.export import SERVING_COUNTERS, SERVING_HISTOGRAMS

#: bucket upper bounds (seconds) for every ``*_seconds`` histogram —
#: Prometheus-style sub-millisecond to multi-second coverage
TIME_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: bucket upper bounds for every other (count-valued) histogram
ROWS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class Histogram:
    """Fixed-bound histogram with an implicit ``+Inf`` overflow bucket.

    Counts are stored per bucket (non-cumulative); :meth:`snapshot`
    renders them cumulatively in the OpenMetrics convention —
    ``buckets[le]`` is the number of observations ``<= le``, ending with
    ``"+Inf"`` — alongside ``sum`` and ``count``, which is exactly what
    :mod:`repro.observe.export` needs to emit ``_bucket``/``_sum``/
    ``_count`` samples. Not internally locked: every caller in this
    module records under the owning :class:`ServingMetrics` lock.
    """

    __slots__ = ("bounds", "_counts", "sum", "count")

    def __init__(self, bounds) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def record(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        buckets: dict[str, int] = {}
        cumulative = 0
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            buckets[repr(bound)] = cumulative
        buckets["+Inf"] = self.count
        return {"buckets": buckets, "sum": self.sum, "count": self.count}

    def clear(self) -> None:
        self._counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6f})"


class LatencyWindow:
    """Bounded sliding window of request latencies with percentile queries.

    Keeps the most recent ``capacity`` observations; percentiles are exact
    over the window (nearest-rank), which is plenty for a test/metrics
    surface and avoids any sketch dependencies.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: list[float] = []
        self._next = 0
        # Sorted view of the ring, rebuilt at most once per batch of
        # percentile queries: a snapshot asks for four percentiles, and
        # re-sorting the full window for each was the dominant cost of
        # reading metrics on a busy server.
        self._sorted: list[float] | None = None

    def record(self, seconds: float) -> None:
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.capacity
        self._sorted = None

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self._next = 0
        self._sorted = None

    def _ordered(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._ring)
        return self._sorted

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile (``p`` in [0, 100]); None when empty.

        Uses the standard nearest-rank definition: the smallest sample
        whose cumulative frequency reaches ``p``% — index
        ``ceil(p/100 * n) - 1`` in the sorted window (0-indexed), clamped
        to ``[0, n-1]``. No interpolation is performed: every value
        returned is an actually observed latency. For windows smaller
        than the requested rank resolution the query saturates at the
        window extremes — e.g. p99.9 of a 100-sample window is the
        largest sample, and any ``p > 0`` over a single-sample window is
        that sample. ``p = 0`` returns the window minimum.
        """
        if not self._ring:
            return None
        ordered = self._ordered()
        rank = math.ceil((p / 100.0) * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, rank))]

    def max(self) -> float | None:
        """Largest latency currently inside the window; None when empty."""
        if not self._ring:
            return None
        return self._ordered()[-1]


class ServingMetrics:
    """Thread-safe counters + histograms for one server (or session).

    The counters are :data:`repro.observe.export.SERVING_COUNTERS` — the
    serving rows of the exported metric table, each named by its dotted
    path into :meth:`snapshot` (``"compiles"``, ``"tuning.hot_swaps"``) and
    bumped with :meth:`count`; the histograms are its
    :data:`~repro.observe.export.SERVING_HISTOGRAMS`. Beside them the snapshot carries
    ``batch_requests_hist`` ({requests per executed batch: count}; rows per
    batch are the ``batch_rows`` histogram), ``latency`` (nearest-rank
    percentiles and ``window_max`` over the sliding window, see
    :meth:`LatencyWindow.percentile`; ``all_time_max`` and its legacy alias
    ``max`` since construction/reset), ``histograms`` (fixed buckets in the
    OpenMetrics convention, see :class:`Histogram`), ``tuning.last`` (the
    most recent background tune's summary) and ``runtime`` (registered
    gauges, read at snapshot time).
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._gauges: dict[str, Callable[[], object]] = {}
        self._counters = dict.fromkeys(SERVING_COUNTERS, 0)
        self.batch_requests_hist: Counter[int] = Counter()
        self._latency = LatencyWindow(latency_window)
        self._max_latency = 0.0
        self._histograms = {
            name: Histogram(TIME_BUCKETS if name.endswith("_seconds") else ROWS_BUCKETS)
            for name in SERVING_HISTOGRAMS
        }
        self._last_tune: dict | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to one declared counter; an undeclared name raises
        ``KeyError``."""
        with self._lock:
            self._counters[name] += n

    def record_request(self, num_rows: int, seconds: float) -> None:
        with self._lock:
            self._counters["requests"] += 1
            self._counters["rows"] += int(num_rows)
            self._latency.record(seconds)
            self._histograms["latency_seconds"].record(seconds)
            if seconds > self._max_latency:
                self._max_latency = seconds

    def record_queue_wait(self, seconds: float) -> None:
        """One request's micro-batch queue wait (enqueue → batch start)."""
        with self._lock:
            self._histograms["queue_wait_seconds"].record(seconds)

    def record_kernel_time(self, seconds: float) -> None:
        """One executed batch's kernel (or fallback executor) wall time."""
        with self._lock:
            self._histograms["kernel_seconds"].record(seconds)

    def record_tune_completed(self, info: dict | None = None) -> None:
        """One background tune finished; ``info`` summarizes the run
        (explored count, best per-row µs, rank correlation, swap outcome)."""
        with self._lock:
            self._counters["tuning.completed"] += 1
            if info is not None:
                self._last_tune = dict(info)
                if info.get("from_cache"):
                    self._counters["tuning.cache_hits"] += 1

    def record_batch(self, num_rows: int, num_requests: int) -> None:
        with self._lock:
            self._counters["batches"] += 1
            self.batch_requests_hist[int(num_requests)] += 1
            self._histograms["batch_rows"].record(num_rows)

    def register_gauge(self, name: str, fn: Callable[[], object]) -> None:
        """Attach a point-in-time gauge evaluated on every snapshot.

        Gauges surface runtime state that is owned elsewhere (shared kernel
        pool, per-thread scratch arenas) without the metrics object holding
        references into the execution path. A gauge that raises reports the
        error string instead of poisoning the snapshot.
        """
        with self._lock:
            self._gauges[name] = fn

    def _read_gauges(self) -> dict:
        with self._lock:
            gauges = dict(self._gauges)
        values: dict[str, object] = {}
        for name, fn in gauges.items():
            try:
                values[name] = fn()
            except Exception as exc:  # pragma: no cover - defensive
                values[name] = f"<gauge error: {exc}>"
        return values

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latency_percentiles(self) -> dict[str, float | None]:
        with self._lock:
            return self._latency_dict()

    def _latency_dict(self) -> dict[str, float | None]:
        # Caller holds self._lock. ``max`` is kept as an alias of
        # ``all_time_max`` for pre-existing dashboards; it is NOT the
        # window max — after the ring rotates past a spike the two differ.
        any_seen = self._counters["requests"] > 0 or len(self._latency) > 0
        return {
            "count": len(self._latency),
            "p50": self._latency.percentile(50),
            "p90": self._latency.percentile(90),
            "p99": self._latency.percentile(99),
            "p999": self._latency.percentile(99.9),
            "window_max": self._latency.max(),
            "all_time_max": self._max_latency if any_seen else None,
            "max": self._max_latency if any_seen else None,
        }

    def reset(self) -> None:
        """Zero every counter, histogram and latency record (gauges stay).

        For before/after measurements on a long-lived server: registered
        gauges read live state elsewhere and are left wired up.
        """
        with self._lock:
            self._counters = dict.fromkeys(self._counters, 0)
            self.batch_requests_hist.clear()
            self._latency.clear()
            self._max_latency = 0.0
            for histogram in self._histograms.values():
                histogram.clear()
            self._last_tune = None

    def snapshot(self) -> dict:
        """Atomic copy of every counter and histogram (plus gauge reads)."""
        runtime = self._read_gauges()
        with self._lock:
            snap: dict = {}
            for name, value in self._counters.items():
                *parents, leaf = name.split(".")
                node = snap
                for key in parents:
                    node = node.setdefault(key, {})
                node[leaf] = value
            snap["tuning"]["last"] = (
                dict(self._last_tune) if self._last_tune else None
            )
            snap.update(
                batch_requests_hist=dict(self.batch_requests_hist),
                latency=self._latency_dict(),
                histograms={
                    name: hist.snapshot()
                    for name, hist in self._histograms.items()
                },
                runtime=runtime,
            )
            return snap

    def __repr__(self) -> str:
        s = self.snapshot()
        return (
            f"ServingMetrics(requests={s['requests']}, rows={s['rows']}, "
            f"compiles={s['compiles']}, hits={s['cache_hits']}, "
            f"misses={s['cache_misses']}, fallbacks={s['fallbacks']})"
        )
