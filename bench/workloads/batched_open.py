"""``batched_open``: open loop, seeded Poisson arrivals of 1-row requests
offered at 500, 1000 and 2000 req/s, through the micro-batcher.

Path: ``ModelServer.session(name).submit`` on higgs with the default
``BatchingPolicy()``. The only workload where requests queue and coalesce
(a few requests per batch, about 3 ms median of which 2 ms is the coalescing
window), so batcher, window and scatter changes show here and nowhere else.
Latency runs from the instant a request was *due*, so a stall is charged to
every request it delays; how late the generator itself ran is reported.
A probe between requests would take the GIL from the batcher, so each rate
runs as quarter-second sub-steps with a probe between them, and only the part of
a latency above the 2 ms coalescing window is scaled to the reference speed:
the wait for the window is wall-clock time whatever the machine's speed. The
headline p50 and p95 are those of a quiet sub-step at 2000 req/s (lower
quartile over sub-steps); each step's raw p50 and p95 over all its requests
are in the detail block.
"""

from __future__ import annotations

import statistics
import time
from functools import partial

import numpy as np

from repro.serve import BatchingPolicy, ModelServer, ServerConfig

from bench.harness import TracedRequests, cold_compiles, cold_setups, repeats_for
from bench.timing import PROBE_REF_US, SHORT_PROBE, probe_us, quantile

MODELS = {"higgs": (64, 1)}
PRIMARY = "higgs"
RATES = (500, 1000, 2000)
#: the traced run's bare/traced comparison sends blocking submits, one at a
#: time, in dense slices
SLICE_S = 0.05
PROBE = SHORT_PROBE
#: a response later than this from its due time missed the latency limit
LATE_S = 0.010
#: each offered rate runs as open-loop sub-steps of this length with a long
#: probe between them (the queue is empty then, so the probe delays nothing)
SUBSTEP_S = 0.25


def poisson_offsets(rate: float, seconds: float, rng) -> np.ndarray:
    """Due times (seconds from the step's start) of a Poisson process."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.2) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def _mark(done: list, i: int, _future) -> None:
    done[i] = time.perf_counter()


def open_loop(submit, offsets, on_span=None):
    """Send request ``i`` at ``offsets[i]`` whatever the system does.

    The generator only ever sleeps (a spinning Python thread would hold the
    GIL against the batcher). Returns ``(due, sent, done, futures)`` with
    absolute ``perf_counter`` times; ``done[i]`` is stamped by a callback
    the moment the future resolves.
    """
    clock, sleep = time.perf_counter, time.sleep
    n = len(offsets)
    sent, done, futures = [0.0] * n, [0.0] * n, [None] * n
    base = clock() + 0.01
    due = [base + float(o) for o in offsets]
    for i in range(n):
        wait = due[i] - clock()
        if wait > 0:
            sleep(wait)
        sent[i] = clock()
        try:
            future = submit(i)
        except Exception:  # noqa: BLE001 - refused (queue full): counted
            continue
        future.add_done_callback(partial(_mark, done, i))
        futures[i] = future
    return due, sent, done, futures


def batch_stats(snapshot: dict) -> dict:
    """Mean batch shape and stage times from a ``metrics_snapshot()``."""
    batches = max(1, snapshot["batches"])
    hist = snapshot["histograms"]
    return {
        "requests_per_batch": sum(
            int(k) * v for k, v in snapshot["batch_requests_hist"].items()
        ) / batches,
        "rows_per_batch": hist["batch_rows"]["sum"] / batches,
        "queue_wait_us": 1e6 * hist["queue_wait_seconds"]["sum"]
        / max(1, hist["queue_wait_seconds"]["count"]),
        "kernel_us": 1e6 * hist["kernel_seconds"]["sum"]
        / max(1, hist["kernel_seconds"]["count"]),
    }


class Session(TracedRequests):
    """Fresh batching server -> registered higgs -> first verified response."""

    def __init__(self, inputs, oracle) -> None:
        self.rows = inputs.rows["higgs"]
        self.want = inputs.raw["higgs"]
        self.oracle = oracle
        self.server = ModelServer(ServerConfig(batching=BatchingPolicy()))
        self.server.register("m", inputs.forests["higgs"])
        self.session = self.server.session("m")
        oracle.check(self.session.submit(self.rows[0]).result(timeout=5), self.want[0])

    def submit(self, i: int):
        return self.session.submit(self.rows[i & 63])

    def request(self, i: int):
        """One blocking submit (pays the whole coalescing window alone)."""
        return self.submit(i).result(timeout=5)

    def verify(self, first: int, outputs) -> None:
        for k, out in enumerate(outputs):
            if out is None:
                self.oracle.fail()
            else:
                self.oracle.check(out, self.want[(first + k) & 63])

    def step(self, rate: float, seconds: float, rng) -> dict:
        """One open-loop segment at ``rate``; latencies in µs from due time."""
        due, sent, done, futures = open_loop(self.submit, poisson_offsets(rate, seconds, rng))
        outputs, wants, latencies = [], [], []
        for i, future in enumerate(futures):
            try:
                out = future.result(timeout=5) if future is not None else None
            except Exception:  # noqa: BLE001 - raised or timed out: counted
                out = None
            if out is None:
                self.oracle.fail()
                continue
            outputs.append(out)
            wants.append(self.want[i & 63])
            latencies.append((done[i] - due[i]) * 1e6)
        bad = self.oracle.check(
            np.concatenate(outputs), np.concatenate(wants), responses=len(outputs)
        )
        lag = [(s - d) * 1e6 for s, d in zip(sent, due)]
        return {
            "sent": len(futures),
            "verified": len(outputs) - bad,
            "latencies_us": latencies,
            "verified_per_s": (len(outputs) - bad) / (max(done) - due[0]),
            "generator_lag_p95_us": quantile(lag, 0.95),
        }

    def model_bytes(self) -> int:
        return int(self.server.metrics_snapshot()["runtime"]["model_bytes"])

    def close(self) -> None:
        self.server.close()


def scale_above_window(latencies_us, window_us: float, scale: float) -> np.ndarray:
    """Scale to the reference machine speed only what the machine's speed
    changes: the wait for the coalescing window is wall-clock time, the
    queueing and compute above it are not."""
    lat = np.asarray(latencies_us, dtype=np.float64)
    return np.where(lat > window_us, window_us + (lat - window_us) * scale, lat)


def run(inputs, seconds, oracle):
    repeats = repeats_for(seconds, 5)
    session, setups = cold_setups(lambda: Session(inputs, oracle), repeats)
    compiles, _ = cold_compiles(inputs.forests["higgs"], repeats)
    rng = np.random.default_rng(inputs.seed)
    window_us = BatchingPolicy().max_delay_s * 1e6
    substeps = max(1, round(seconds / len(RATES) / SUBSTEP_S))
    steps = []
    try:
        for rate in RATES:
            parts, scaled = [], []
            opened = probe_us()
            for _ in range(substeps):
                part = session.step(rate, SUBSTEP_S, rng)
                closed = probe_us()
                scaled.append(
                    scale_above_window(
                        part["latencies_us"], window_us, PROBE_REF_US / (0.5 * (opened + closed))
                    )
                )
                parts.append(part)
                opened = closed
            steps.append((rate, parts, scaled))
        batch = batch_stats(session.server.metrics_snapshot())
        model_bytes = session.model_bytes()
    finally:
        session.close()
    table = []
    for rate, parts, scaled in steps:
        raw = [x for part in parts for x in part["latencies_us"]]
        p50s = [float(np.median(part)) for part in scaled]
        table.append(
            {
                "offered_per_s": rate,
                "sent": sum(part["sent"] for part in parts),
                "verified": sum(part["verified"] for part in parts),
                # a quiet sub-step, above-window part scaled: the headline rule
                "latency_p50_us": quantile(p50s, 0.25),
                "latency_p95_us": quantile([quantile(part, 0.95) for part in scaled], 0.25),
                # every request of the step, as measured
                "raw_p50_us": statistics.median(raw),
                "raw_p95_us": quantile(raw, 0.95),
                "verified_per_s": statistics.median(part["verified_per_s"] for part in parts),
                "late_share": sum(x > LATE_S * 1e6 for x in raw) / max(1, len(raw)),
                "generator_lag_p95_us": max(part["generator_lag_p95_us"] for part in parts),
                "substep_p50_spread": (max(p50s) - min(p50s)) / statistics.median(p50s),
            }
        )
    top = table[-1]
    p50s = [float(np.median(part)) for part in steps[-1][2]]
    q1, q2, q3 = statistics.quantiles(p50s, n=4) if len(p50s) >= 4 else (0, 1, 0)
    values = {
        "setup_s": statistics.median(setups),
        "compile_s": statistics.median(compiles),
        "latency_p50_us": top["latency_p50_us"],
        "latency_p95_us": top["latency_p95_us"],
        "rows_per_s": top["verified_per_s"],
        "model_bytes": model_bytes,
    }
    detail = {
        "steps": table,
        "samples": top["sent"],
        "slice_spread": (q3 - q1) / q2,
        "slices_discarded": 0,
        "batcher": batch,
        "setup_s_samples": setups,
        "compile_s_samples": compiles,
    }
    return values, detail
