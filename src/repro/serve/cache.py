"""Compiled-predictor cache for the serving layer.

The JIT already shares *code objects* across models that lower to identical
source (:mod:`repro.backend.jit`); this cache extends sharing one level up:
whole compiled executors are keyed by
:func:`~repro.backend.jit.model_fingerprint` (a hash of the forest's node
arrays plus the whole schedule, backend included), so re-registering an
isomorphic model skips the entire HIR→MIR→LIR pipeline, while the same
model compiled under two backends keeps two distinct slots. An AOT
artifact's manifest records the fingerprint of the compile it came from,
so a warm worker that both compiled a model and loaded its artifact holds
one copy, not two.

Concurrency contract: the cache is safe to use from many threads, and a
compile for a given key runs at most once — concurrent requesters for the
same key block on the leader's in-flight compile and then share its result
(counted as cache hits, since they paid no compile). Distinct keys compile
in parallel; the map lock is never held during a compile.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.serve.metrics import ServingMetrics

#: Default bound on resident compiled predictors.
DEFAULT_PREDICTOR_CACHE_CAP = 64


class _InFlight:
    """One leader compiles; followers wait on the event and share the result."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class PredictorCache:
    """Bounded, thread-safe LRU of compiled predictors keyed by fingerprint."""

    def __init__(
        self,
        capacity: int = DEFAULT_PREDICTOR_CACHE_CAP,
        metrics: ServingMetrics | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics or ServingMetrics()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._inflight: dict[str, _InFlight] = {}

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def get_or_compile(self, key: str, compile_fn: Callable[[], object]) -> tuple[object, bool]:
        """Return ``(predictor, was_hit)`` for ``key``, compiling at most once.

        ``compile_fn`` is only invoked by the thread that wins the race for
        an absent key; every other concurrent caller blocks until the
        leader finishes and then shares the same object (or re-raises the
        leader's exception).
        """
        while True:
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self.metrics.count("cache_hits")
                    return value, True
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                break
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            # The leader's result may already have been evicted under
            # pathological capacity pressure; loop to re-check the map.
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self.metrics.count("cache_hits")
                    return value, True
            # Entry evicted between the leader's insert and our lookup:
            # fall through and compete to compile it again.

        try:
            value = compile_fn()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self._inflight.pop(key, None)
        # Wake followers the moment the map is consistent; metrics recording
        # stays off the critical path so a slow (or throwing) metrics sink
        # cannot extend how long followers block on the event.
        flight.event.set()
        self.metrics.count("cache_misses")
        if evicted:
            self.metrics.count("cache_evictions", evicted)
        return value, False

    # ------------------------------------------------------------------
    # Introspection / management
    # ------------------------------------------------------------------
    def get(self, key: str) -> object | None:
        """Peek without compiling (still refreshes recency on hit)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: str, value: object) -> None:
        """Insert an already-compiled predictor (background tuning winners).

        Applies the same LRU bound as :meth:`get_or_compile`; evictions are
        counted in metrics. Waiters coalesced on an in-flight compile for
        the same key are unaffected — they share the leader's result.
        """
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.metrics.count("cache_evictions", evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def values(self) -> list[object]:
        """Resident predictors (for footprint accounting; no recency bump)."""
        with self._lock:
            return list(self._entries.values())

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return f"PredictorCache(size={len(self)}, capacity={self.capacity})"
