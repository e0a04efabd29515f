"""``offline_b2048``: closed loop, 2048-row batches, straight through
``compile_model(...).predict`` on three forests.

abalone s0.25 (250 trees, leaf-biased), letter s0.1 (260 trees, 26 classes)
and year s0.5 (90 features). The kernel is data-bound and ``repro.serve`` is
bypassed entirely: a serving change predicts no change here, and a
batch-1-oriented kernel change that hurts large batches shows up here. Each
forest has its own row in the detail block; headline values are geometric
means over the forests.
"""

from __future__ import annotations

import statistics
import time

from repro import compile_model
from repro.backend import jit

from bench.harness import (
    WARMUP_SHARE,
    BatchRequests,
    closed_loop,
    geomean,
    repeats_for,
    slice_detail,
    warm_up,
)
from bench.timing import LONG_PROBE, SliceTimer, timed_once

FORESTS = ("abalone", "letter", "year")
BATCH = 2048
MODELS = {key: (2, BATCH) for key in FORESTS}
PRIMARY = "year"
#: every batch is a slice of its own, between two long probes
SLICE_S = 0.0
PROBE = LONG_PROBE
#: seconds spent on one forest before the loop moves to the next
TURN_S = 0.25


class Session(BatchRequests):
    """One forest compiled cold, first batch verified; times its compile."""

    def __init__(self, inputs, oracle, key: str = PRIMARY) -> None:
        self.rows = inputs.rows[key]
        self.want = inputs.predicted[key]
        self.oracle = oracle
        jit.clear_cache()
        self.predictor, self.compile_s, _ = timed_once(
            lambda: compile_model(inputs.forests[key])
        )
        out, self.first_predict_s, _ = timed_once(
            lambda: self.predictor.predict(self.rows[0])
        )
        oracle.check(out, self.want[0], responses=BATCH)

    def request(self, i: int):
        return self.predictor.predict(self.rows[i & 1])

    def close(self) -> None:
        pass


def run(inputs, seconds, oracle):
    setups, compiles, sessions = [], [], {}
    for _ in range(repeats_for(seconds, 3)):
        sessions = {key: Session(inputs, oracle, key) for key in FORESTS}
        compiles.append(sum(s.compile_s for s in sessions.values()))
        setups.append(compiles[-1] + sum(s.first_predict_s for s in sessions.values()))
    timers = {key: SliceTimer(PROBE) for key in FORESTS}
    counts = dict.fromkeys(FORESTS, 0)
    for key in FORESTS:
        warm_up(sessions[key].request, WARMUP_SHARE * seconds / len(FORESTS))
    end = time.perf_counter() + (1 - WARMUP_SHARE) * seconds
    while time.perf_counter() < end:
        # a short turn per forest, so that a change of machine state lands
        # on all three alike
        for key in FORESTS:
            counts[key] = closed_loop(
                sessions[key].request, counts[key], timers[key], TURN_S, SLICE_S,
                sessions[key].verify,
            )
    rows = {
        key: {
            "latency_p50_us": timers[key].result.p50(),
            "latency_p95_us": timers[key].result.tail(0.95),
            "rows_per_s": timers[key].result.per_second(BATCH),
            "model_bytes": sessions[key].predictor.memory_bytes(),
            **slice_detail(timers[key]),
        }
        for key in FORESTS
    }
    values = {
        "setup_s": statistics.median(setups),
        "compile_s": statistics.median(compiles),
        "latency_p50_us": geomean(r["latency_p50_us"] for r in rows.values()),
        "latency_p95_us": geomean(r["latency_p95_us"] for r in rows.values()),
        "rows_per_s": geomean(r["rows_per_s"] for r in rows.values()),
        "model_bytes": sum(r["model_bytes"] for r in rows.values()),
    }
    detail = {
        "forests": rows,
        "setup_s_samples": setups,
        "compile_s_samples": compiles,
        "slices_discarded": sum(r["slices_discarded"] for r in rows.values()),
        "slice_spread": max(r["slice_spread"] for r in rows.values()),
    }
    return values, detail
