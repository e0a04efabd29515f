"""The unified observability registry.

One process-wide :class:`Registry` (:data:`registry`) aggregates every
observability surface behind a single ``snapshot()`` / ``export_json()``:

* ``kernel_pool``  — lifetime gauges of the shared kernel thread pool
* ``traces``       — the most recent compilation traces (bounded ring)
* ``profiles``     — aggregated kernel profiling counters of every live
  ``Schedule(profile=True)`` predictor
* ``tunes``        — the most recent autotuning runs (bounded ring):
  winner schedule, budget outcome, cost-model rank correlation
* ``backends``     — per-backend lifetime counters (compiles, artifact
  exports/loads, artifact code-cache hits) recorded by the backend
  registry dispatch and the AOT loader, plus ``native``'s ``isa``: the
  tile compare its loaded walker was built with
* ``serving``      — the metrics snapshot of every live ``ModelServer``
  (servers register on construction, unregister on close)
* ``spans``        — the most recent sampled request span trees
  (:data:`repro.observe.spans.RING`, populated by servers running with
  ``ServerConfig(trace_sample > 0)``)
* ``events``       — the flight recorder: compiles, hot swaps, tune
  outcomes, fallbacks, errors, slow requests
  (:data:`repro.observe.events.recorder`)
* ``gauges``       — ad-hoc point-in-time providers registered by anyone

The snapshot's *top-level keys are a stable schema* (``SNAPSHOT_KEYS``,
checked in CI): dashboards and tests may rely on them existing in every
version. Values under ``serving``/``gauges`` are namespaced by registration
name. A provider that raises contributes an ``"<error: ...>"`` string
instead of poisoning the snapshot.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Callable

from repro.observe import events as _events
from repro.observe import profile as _profile
from repro.observe import spans as _spans
from repro.observe.trace import CompilationTrace, jsonable

#: stable top-level snapshot schema (guarded by tests + CI)
SNAPSHOT_KEYS = (
    "schema_version",
    "kernel_pool",
    "traces",
    "profiles",
    "tunes",
    "backends",
    "serving",
    "spans",
    "events",
    "gauges",
)

#: v5: two new top-level keys — ``spans`` (sampled request span trees from
#: the serving layer) and ``events`` (the flight recorder) — plus serving
#: snapshots gained ``histograms`` (queue wait / kernel time / latency /
#: batch size buckets) and the kernel pool gained task timing counters.
SCHEMA_VERSION = 5

#: recent compilation traces kept for the snapshot
TRACE_RING_CAPACITY = 32

#: recent autotuning runs kept for the snapshot
TUNE_RING_CAPACITY = 32


class Registry:
    """Thread-safe aggregation point for all observability providers."""

    def __init__(self, trace_capacity: int = TRACE_RING_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._serving: dict[str, Callable[[], dict]] = {}
        self._gauges: dict[str, Callable[[], object]] = {}
        self._traces: deque[dict] = deque(maxlen=trace_capacity)
        self._traces_recorded = 0
        self._tunes: deque[dict] = deque(maxlen=TUNE_RING_CAPACITY)
        self._tunes_recorded = 0
        self._backend_events: dict[str, dict[str, int | str]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_serving(self, name: str, provider: Callable[[], dict]) -> None:
        """Attach a serving-metrics snapshot provider under ``name``."""
        with self._lock:
            self._serving[name] = provider

    def register_gauge(self, name: str, provider: Callable[[], object]) -> None:
        """Attach an ad-hoc point-in-time gauge under ``name``."""
        with self._lock:
            self._gauges[name] = provider

    def unregister(self, name: str) -> None:
        """Remove a serving provider or gauge (missing names are a no-op)."""
        with self._lock:
            self._serving.pop(name, None)
            self._gauges.pop(name, None)

    def record_trace(self, trace: CompilationTrace) -> None:
        """Push one finished compilation trace into the bounded ring."""
        snapshot = trace.to_dict()
        with self._lock:
            self._traces.append(snapshot)
            self._traces_recorded += 1

    def record_tune(self, event: dict) -> None:
        """Push one finished autotuning run into the bounded ring."""
        with self._lock:
            self._tunes.append(jsonable(event))
            self._tunes_recorded += 1

    def record_backend_event(self, backend: str, event: str, n: int = 1) -> None:
        """Bump a lifetime counter for one backend (``compiles``,
        ``artifact_loads``, ``artifact_exports``, ...)."""
        with self._lock:
            counters = self._backend_events.setdefault(backend, {})
            counters[event] = counters.get(event, 0) + int(n)

    def record_backend_info(self, backend: str, key: str, value: str) -> None:
        """Set a descriptive, non-numeric entry beside one backend's counters
        (``native``'s ``isa``); the OpenMetrics export skips it."""
        with self._lock:
            self._backend_events.setdefault(backend, {})[key] = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One coherent view of every registered surface (stable keys)."""
        from repro.backend.parallel import pool_stats

        with self._lock:
            serving = dict(self._serving)
            gauges = dict(self._gauges)
            traces = list(self._traces)
            recorded = self._traces_recorded
            tunes = list(self._tunes)
            tunes_recorded = self._tunes_recorded
            backends = {
                name: dict(counters)
                for name, counters in self._backend_events.items()
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "kernel_pool": _call_safe(pool_stats),
            "traces": {
                "recorded": recorded,
                "kept": len(traces),
                "recent": traces,
            },
            "profiles": _profile.aggregate_all(),
            "tunes": {
                "recorded": tunes_recorded,
                "kept": len(tunes),
                "recent": tunes,
            },
            "backends": backends,
            "serving": {name: _call_safe(fn) for name, fn in serving.items()},
            # The span ring and flight recorder are process-wide singletons
            # (servers write into them directly); the registry reads them at
            # snapshot time like any other provider.
            "spans": _call_safe(_spans.RING.snapshot),
            "events": _call_safe(_events.recorder.snapshot),
            "gauges": {name: _call_safe(fn) for name, fn in gauges.items()},
        }

    def export_json(self, indent: int | None = None) -> str:
        """The snapshot as a JSON document (always serializable)."""
        return json.dumps(jsonable(self.snapshot()), indent=indent)

    def clear(self) -> None:
        """Drop every registration and recorded trace (test hygiene)."""
        with self._lock:
            self._serving.clear()
            self._gauges.clear()
            self._traces.clear()
            self._traces_recorded = 0
            self._tunes.clear()
            self._tunes_recorded = 0
            self._backend_events.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Registry(serving={len(self._serving)}, gauges={len(self._gauges)}, "
                f"traces={len(self._traces)})"
            )


def _call_safe(fn: Callable[[], object]) -> object:
    try:
        return fn()
    except Exception as exc:
        return f"<error: {exc}>"


#: the process-wide registry every subsystem reports into
registry = Registry()
