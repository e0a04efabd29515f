"""``sharded_b2048``: closed loop, 2048-row batches through the
multi-process tier, ``register(workers=2, shards=2)`` on abalone.

Same forest and rows as the abalone row of ``offline_b2048``, and the only
workload crossing the process boundary (shared memory, queues, combiner).
Turns alternate with the in-process twin (``compile_model(...).predict`` on
the same rows), so the detail block holds a *measured* 2-worker speed-up
where BENCH_PR10 had a modelled one.
"""

from __future__ import annotations

import statistics
import time

from repro.serve import ModelServer

from bench.harness import (
    WARMUP_SHARE,
    BatchRequests,
    closed_loop,
    cold_compiles,
    cold_setups,
    repeats_for,
    slice_detail,
    warm_up,
)
from bench.timing import LONG_PROBE, SliceTimer

BATCH = 2048
MODELS = {"abalone": (2, BATCH)}
PRIMARY = "abalone"
#: every batch is a slice of its own, between two long probes
SLICE_S = 0.0
PROBE = LONG_PROBE
WORKERS = SHARDS = 2
#: seconds of sharded requests, then of the in-process twin, per turn
SHARDED_TURN_S, TWIN_TURN_S = 0.5, 0.25


class Session(BatchRequests):
    """Fresh server -> abalone sharded over 2 forked workers -> first
    verified response (worker start-up and shm export included)."""

    def __init__(self, inputs, oracle) -> None:
        self.rows = inputs.rows["abalone"]
        self.want = inputs.predicted["abalone"]
        self.oracle = oracle
        self.server = ModelServer()
        try:
            self.server.register(
                "m", inputs.forests["abalone"], workers=WORKERS, shards=SHARDS
            )
            oracle.check(self.request(0), self.want[0], responses=BATCH)
        except BaseException:
            self.server.close()
            raise

    def request(self, i: int):
        return self.server.predict("m", self.rows[i & 1])

    def model_bytes(self) -> int:
        """Bytes of the shared-memory copy of the shard buffers."""
        return int(self.server.session("m").predictor.memory_bytes())

    def close(self) -> None:
        self.server.close()


def run(inputs, seconds, oracle):
    repeats = repeats_for(seconds, 4)
    session, setups = cold_setups(lambda: Session(inputs, oracle), repeats)
    try:
        compiles, local = cold_compiles(inputs.forests["abalone"], repeats)
        sharded_timer, local_timer = SliceTimer(PROBE), SliceTimer(PROBE)
        sent = twin_sent = 0
        warm_up(session.request, WARMUP_SHARE * seconds)
        end = time.perf_counter() + (1 - WARMUP_SHARE) * seconds
        while time.perf_counter() < end:
            sent = closed_loop(
                session.request, sent, sharded_timer, SHARDED_TURN_S, SLICE_S, session.verify
            )
            twin_sent = closed_loop(
                lambda i: local.predict(session.rows[i & 1]),
                twin_sent, local_timer, TWIN_TURN_S, SLICE_S, session.verify,
            )
        model_bytes = session.model_bytes()
    finally:
        session.close()
    r, twin = sharded_timer.result, local_timer.result
    values = {
        "setup_s": statistics.median(setups),
        "compile_s": statistics.median(compiles),
        "latency_p50_us": r.p50(),
        "latency_p95_us": r.tail(0.95),
        "rows_per_s": r.per_second(BATCH),
        "model_bytes": model_bytes,
    }
    detail = {
        **slice_detail(sharded_timer),
        "workers": WORKERS,
        "shards": SHARDS,
        "local_twin": {
            "latency_p50_us": twin.p50(),
            "rows_per_s": twin.per_second(BATCH),
            "model_bytes": local.memory_bytes(),
            **slice_detail(local_timer),
        },
        "measured_speedup": r.per_second(BATCH) / twin.per_second(BATCH),
        "setup_s_samples": setups,
        "compile_s_samples": compiles,
    }
    return values, detail
