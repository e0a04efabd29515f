"""In-memory spans recorded by the benchmark around public calls.

The traced run wraps each call into a layer in ``recorder.span(name)``.
Spans nest by a per-thread stack; a layer's *self time* is its span's
duration minus the part its child spans cover. Nothing is written while the
benchmark measures: spans stay in a list and :meth:`SpanRecorder.dump`
writes them when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1, trace id]
        self.spans: list[list] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, trace_id: int = 0):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, trace_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def self_seconds(self, first: int = 0) -> dict[str, list[float]]:
        """Self time of every span from index ``first`` on, grouped by span
        name, in record order."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _tid in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _parent, _tid), child_s in zip(
            self.spans[first:], covered[first:]
        ):
            out.setdefault(name, []).append(end - start - child_s)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": n, "start_s": s, "end_s": e, "parent": p, "trace": t}
                    for n, s, e, p, t in self.spans
                ],
                f,
            )
