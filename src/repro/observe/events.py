"""The serving flight recorder: a bounded structured event log.

Metrics answer *how much*, spans answer *where* — the flight recorder
answers *what happened*: a process-wide, bounded, append-only log of the
discrete events that explain a deployment's behaviour after the fact:

``compile``       a predictor was actually compiled (cache misses only)
``fallback``      a compile failed and the session degraded to the
                  interpreter / reference executor
``backend_fallback``  the default backend resolved to ``numpy_jit`` because
                  ``native`` could not build the schedule (reason attached:
                  no C compiler, uncovered precision, profiling, ...)
``hot_swap``      a session atomically switched to a tuned predictor
``tune``          an autotune run finished (winner, budget outcome)
``tune_failed``   a background tune died without poisoning serving
``pgo_swap``      a profile-guided recompile swapped in a hot/cold split
                  kernel (measured cutoff, timings, prefix-buffer shrink)
``pgo_failed``    a PGO cycle died without touching the serving path
``error``         a predict request raised
``slow_request``  a request exceeded the server's latency threshold
                  (``ServerConfig(slow_request_s=...)``)
``shard_plan``    a forest was split for the multi-process sharded tier
                  (shard boundaries, worker count)
``worker_spawn``  a shard worker process started (initial spawn or
                  respawn after death)
``worker_exit``   a shard worker exited during pool shutdown
``worker_dead``   a shard worker was found dead at dispatch time
``admission_reject``  the SLO front end shed a request before queueing
                  (``max_inflight`` or live p99 over target)

Every event is a plain dict — ``{"seq", "ts", "kind", ...fields}`` — kept
in a bounded deque (old events fall off; ``recorded`` keeps the lifetime
count honest). Recording is one lock-guarded append; events are rare
(compiles, swaps, failures) or threshold-gated (slow requests), so the
recorder costs nothing on the healthy hot path.

For live debugging the recorder can mirror every event to a JSON-lines
file (:meth:`FlightRecorder.attach_file`, or
``ServerConfig(flight_log=...)``); ``python -m repro.observe tail
--follow <file>`` tails it like a flight-deck console. The observability
registry snapshots the recorder under the ``events`` top-level key.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import IO, Iterable

from repro.observe.trace import jsonable

#: recent events kept in memory for the snapshot
EVENT_RING_CAPACITY = 512

#: environment variable naming a default JSONL mirror file
FLIGHT_LOG_ENV = "REPRO_FLIGHT_LOG"


class FlightRecorder:
    """Bounded structured event log with an optional JSONL mirror file."""

    def __init__(self, capacity: int = EVENT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._recorded = 0
        self._seq = itertools.count(1)
        self._file: IO[str] | None = None
        self._file_path: str | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the recorded dict (already jsonable)."""
        event = {
            "seq": next(self._seq),
            "ts": round(time.time(), 6),
            "kind": str(kind),
            **jsonable(fields),
        }
        with self._lock:
            self._ring.append(event)
            self._recorded += 1
            fh = self._file
            if fh is not None:
                try:
                    fh.write(json.dumps(event) + "\n")
                    fh.flush()
                except OSError:
                    # A torn mirror file must never take recording down;
                    # drop the sink and keep the in-memory ring authoritative.
                    self._file = None
                    self._file_path = None
        return event

    # ------------------------------------------------------------------
    # JSONL mirror
    # ------------------------------------------------------------------
    def attach_file(self, path: str) -> None:
        """Mirror every subsequent event to ``path`` (JSON lines, append)."""
        fh = open(path, "a", encoding="utf-8")
        with self._lock:
            old, self._file = self._file, fh
            self._file_path = path
        if old is not None:
            old.close()

    def detach_file(self) -> None:
        with self._lock:
            fh, self._file = self._file, None
            self._file_path = None
        if fh is not None:
            fh.close()

    @property
    def file_path(self) -> str | None:
        with self._lock:
            return self._file_path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def tail(self, n: int = 20, kind: str | None = None) -> list[dict]:
        """The most recent ``n`` events (optionally of one kind)."""
        with self._lock:
            events: Iterable[dict] = list(self._ring)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        return list(events)[-n:]

    def counts(self) -> dict[str, int]:
        """Events currently in the ring, bucketed by kind."""
        with self._lock:
            events = list(self._ring)
        out: dict[str, int] = {}
        for event in events:
            out[event["kind"]] = out.get(event["kind"], 0) + 1
        return out

    def snapshot(self) -> dict:
        with self._lock:
            recent = list(self._ring)
            recorded = self._recorded
            path = self._file_path
        counts: dict[str, int] = {}
        for event in recent:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return {
            "recorded": recorded,
            "kept": len(recent),
            "by_kind": counts,
            "file": path,
            "recent": recent,
        }

    def dump_jsonl(self, target) -> int:
        """Write every kept event to ``target`` (path or file object);
        returns the number of lines written."""
        with self._lock:
            events = list(self._ring)
        if hasattr(target, "write"):
            for event in events:
                target.write(json.dumps(event) + "\n")
        else:
            with open(target, "w", encoding="utf-8") as fh:
                for event in events:
                    fh.write(json.dumps(event) + "\n")
        return len(events)

    def clear(self) -> None:
        """Drop kept events and lifetime counters (mirror file stays)."""
        with self._lock:
            self._ring.clear()
            self._recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"FlightRecorder(kept={snap['kept']}/{self.capacity}, "
            f"recorded={snap['recorded']}, file={snap['file']!r})"
        )


#: the process-wide recorder every subsystem reports into
recorder = FlightRecorder()


def record(kind: str, **fields) -> dict:
    """Record one event into the process-wide :data:`recorder`."""
    return recorder.record(kind, **fields)


def format_event(event: dict) -> str:
    """One human-readable line per event (the ``tail`` CLI rendering)."""
    ts = time.strftime("%H:%M:%S", time.localtime(event.get("ts", 0.0)))
    kind = event.get("kind", "?")
    extras = " ".join(
        f"{key}={value}"
        for key, value in event.items()
        if key not in ("seq", "ts", "kind")
    )
    return f"{ts} #{event.get('seq', '?'):>5} {kind:<14s} {extras}"
