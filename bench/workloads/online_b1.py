"""``online_b1``: one closed-loop client, 1-row requests, no batching.

Path: ``ModelServer.predict`` on higgs (100 trees, depth 9), default
``Schedule``, cycling a pool of 64 row sets. The kernel is
NumPy-dispatch-bound here and the serve wrappers are at their largest share
of a request, so a native backend must move this cell and a serving refactor
must not.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.serve import ModelServer

from bench.harness import (
    WARMUP_SHARE,
    TracedRequests,
    closed_loop,
    cold_compiles,
    cold_setups,
    repeats_for,
    slice_detail,
    warm_up,
)
from bench.timing import SHORT_PROBE, SliceTimer

MODELS = {"higgs": (64, 1)}
PRIMARY = "higgs"
SLICE_S = 0.05
PROBE = SHORT_PROBE


class Session(TracedRequests):
    """Fresh server -> registered higgs -> first verified response."""

    def __init__(self, inputs, oracle) -> None:
        self.rows = inputs.rows["higgs"]
        self.want = inputs.predicted["higgs"]
        self.oracle = oracle
        self.server = ModelServer()
        self.server.register("m", inputs.forests["higgs"])
        oracle.check(self.server.predict("m", self.rows[0]), self.want[0])

    def request(self, i: int):
        return self.server.predict("m", self.rows[i & 63])

    def verify(self, first: int, outputs) -> None:
        good = [(first + k) & 63 for k, out in enumerate(outputs) if out is not None]
        self.oracle.fail(len(outputs) - len(good))
        if good:
            self.oracle.check(
                np.concatenate([out for out in outputs if out is not None]),
                np.concatenate([self.want[j] for j in good]),
                responses=len(good),
            )

    def model_bytes(self) -> int:
        return int(self.server.metrics_snapshot()["runtime"]["model_bytes"])

    def close(self) -> None:
        self.server.close()


def run(inputs, seconds, oracle):
    repeats = repeats_for(seconds, 5)
    session, setups = cold_setups(lambda: Session(inputs, oracle), repeats)
    compiles, _ = cold_compiles(inputs.forests["higgs"], repeats)
    timer = SliceTimer(PROBE)
    try:
        warm_up(session.request, WARMUP_SHARE * seconds)
        closed_loop(
            session.request, 0, timer, (1 - WARMUP_SHARE) * seconds, SLICE_S, session.verify
        )
        model_bytes = session.model_bytes()
    finally:
        session.close()
    r = timer.result
    values = {
        "setup_s": statistics.median(setups),
        "compile_s": statistics.median(compiles),
        "latency_p50_us": r.p50(),
        "latency_p95_us": r.tail(0.95),
        "rows_per_s": r.per_second(1),
        "model_bytes": model_bytes,
    }
    detail = {"setup_s_samples": setups, "compile_s_samples": compiles, **slice_detail(timer)}
    return values, detail
