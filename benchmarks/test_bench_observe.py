"""PR8 bench: request-tracing overhead on the serving hot path.

Pins the two observability guarantees the serving layer advertises:

* **zero-overhead-when-off** — a server with ``trace_sample=0`` wires no
  tracer at all; its compiled kernel must be byte-identical (same
  generated source, same fingerprint) to a traced server's, because
  tracing never touches the compiler.
* **cheap-when-sampled** — at a production-style sample rate (1%) the
  end-to-end predict throughput must stay within 2% of tracing-off.

Throughput is measured with the interleaved best-of-N discipline used by
the quantization bench: the timing loops run round-robin (alternating
direction) so machine-load drift hits every config identically, and
best-of-N discards it. All servers serve the *same* compiled predictor
object, so only the request-path wrapper differs. Two independent
tracing-off servers act as an A/A control: the spread between them is the
methodology's noise floor, reported alongside the overheads so the 2%
gate stays honest. Emits ``BENCH_PR8.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from conftest import run_benchmark
from repro.config import Schedule
from repro.observe.spans import RING
from repro.serve import ModelServer, ServerConfig
from repro.training.gbdt import GBDTParams, train_gbdt

NUM_FEATURES = 24
BATCH = 256
REQUESTS_PER_ROUND = 16
REPEATS = 50
SAMPLE_RATE = 0.01

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"

SCHEDULE = Schedule(tile_size=8, tiling="hybrid", layout="sparse")


def _trained_forest():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(2048, NUM_FEATURES))
    y = (
        2.0 * X[:, 0]
        + np.sin(3.0 * X[:, 1])
        + (X[:, 2] > 0) * X[:, 3]
        + 0.1 * rng.normal(size=2048)
    )
    return train_gbdt(
        X, y, GBDTParams(num_rounds=60, max_depth=6, seed=1)
    )


def _interleaved_rps(servers: dict, rows: np.ndarray) -> dict:
    """Best-of-N serving throughput per config, timing loops interleaved.

    The visit order alternates each round so no config systematically
    rides first (or last) through frequency/thermal drift.
    """
    for server in servers.values():  # warm the kernel + caches
        server.predict("m", rows)
    best = {name: float("inf") for name in servers}
    order = list(servers.items())
    for round_no in range(REPEATS):
        visit = order if round_no % 2 == 0 else list(reversed(order))
        for name, server in visit:
            start = time.perf_counter()
            for _ in range(REQUESTS_PER_ROUND):
                server.predict("m", rows)
            best[name] = min(best[name], time.perf_counter() - start)
    return {
        name: REQUESTS_PER_ROUND * rows.shape[0] / b
        for name, b in best.items()
    }


def test_tracing_overhead(benchmark):
    forest = _trained_forest()
    rng = np.random.default_rng(4242)
    rows = rng.normal(size=(BATCH, NUM_FEATURES))

    servers = {
        "off": ModelServer(ServerConfig(trace_sample=0.0, slow_request_s=None)),
        "off_control": ModelServer(
            ServerConfig(trace_sample=0.0, slow_request_s=None)
        ),
        "sampled": ModelServer(
            ServerConfig(trace_sample=SAMPLE_RATE, slow_request_s=None)
        ),
        "full": ModelServer(
            ServerConfig(trace_sample=1.0, slow_request_s=None)
        ),
    }
    sessions = {"off": servers["off"].register("m", forest, SCHEDULE)}
    # Seed the other servers' caches with the *same* compiled predictor so
    # the timing comparison isolates the tracing path: every server serves
    # one shared kernel instance and only the request wrapper differs.
    off = sessions["off"]
    for name in ("off_control", "sampled", "full"):
        servers[name].cache.put(off.fingerprint, off.predictor)
        sessions[name] = servers[name].register("m", forest, SCHEDULE)
    try:
        # Zero-overhead-when-off, structural half: tracing never touches
        # the compiler, so every server serves the exact same kernel.
        for name in ("off_control", "sampled", "full"):
            assert sessions[name].cache_hit
            assert sessions[name].predictor is off.predictor
            assert sessions[name].fingerprint == off.fingerprint
        assert servers["off"].tracer is None
        assert sessions["off"]._tracer is None

        RING.clear()
        rps = _interleaved_rps(servers, rows)
        # the sampled server really did trace ~1% of its requests
        sampled_count = servers["sampled"].tracer.stats()["sampled"]
        expected = (REPEATS * REQUESTS_PER_ROUND + 1) * SAMPLE_RATE
        assert 0 < sampled_count <= 2 * expected + 2

        run_benchmark(benchmark, lambda: servers["off"].predict("m", rows))
    finally:
        for server in servers.values():
            server.close()

    # Baseline = mean of the two tracing-off servers; their spread is the
    # noise the methodology cannot remove.
    baseline = (rps["off"] + rps["off_control"]) / 2.0
    noise_floor = abs(rps["off"] - rps["off_control"]) / baseline * 100.0
    overhead_sampled = (baseline - rps["sampled"]) / baseline * 100.0
    overhead_full = (baseline - rps["full"]) / baseline * 100.0
    result = {
        "benchmark": "request tracing overhead (PR8)",
        "forest": {"trees": forest.num_trees, "features": NUM_FEATURES},
        "schedule": {
            "tile_size": SCHEDULE.tile_size,
            "tiling": SCHEDULE.tiling,
            "layout": SCHEDULE.layout,
        },
        "batch": BATCH,
        "requests_per_round": REQUESTS_PER_ROUND,
        "repeats": REPEATS,
        "sample_rate": SAMPLE_RATE,
        "rows_per_sec": {k: round(v, 1) for k, v in rps.items()},
        "noise_floor_pct": round(noise_floor, 3),
        "overhead_sampled_pct": round(overhead_sampled, 3),
        "overhead_full_pct": round(overhead_full, 3),
        "kernels_byte_identical_when_off": True,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\nPR8 bench: off {baseline:,.0f} rows/s "
        f"(A/A noise {noise_floor:.2f}%), "
        f"sampled({SAMPLE_RATE:.0%}) {rps['sampled']:,.0f} "
        f"({overhead_sampled:+.2f}%), "
        f"full {rps['full']:,.0f} ({overhead_full:+.2f}%)"
    )

    # Acceptance gate: sampled tracing costs <= 2% throughput vs off.
    assert overhead_sampled <= 2.0, result