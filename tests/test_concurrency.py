"""Thread-safety tests: shared predictors, sessions, caches and servers.

Compiled predictors hold only read-only buffers, so concurrent callers must
get bit-identical results to a serial run — both through the raw kernel and
through the serving layer (with and without micro-batching). The predictor
cache must coalesce concurrent compilations of the same fingerprint into
exactly one compile.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import compile_model
from repro.config import Schedule
from repro.serve import (
    BatchingPolicy,
    InferenceSession,
    ModelServer,
    PredictorCache,
    ServingMetrics,
)

NUM_THREADS = 8
CALLS_PER_THREAD = 5


def _hammer(fn, rows_of):
    """Run ``fn`` from many threads; return {(thread, call): result}."""
    results = {}
    barrier = threading.Barrier(NUM_THREADS)

    def worker(tid):
        barrier.wait()
        for call in range(CALLS_PER_THREAD):
            results[(tid, call)] = fn(rows_of(tid, call))

    with ThreadPoolExecutor(max_workers=NUM_THREADS) as pool:
        futures = [pool.submit(worker, t) for t in range(NUM_THREADS)]
        for f in futures:
            f.result()
    return results


class TestSharedPredictor:
    @pytest.mark.parametrize("schedule", [Schedule(), Schedule(parallel=4)],
                             ids=["serial", "parallel4"])
    def test_bit_identical_to_serial(self, trained_forest, test_rows, schedule):
        predictor = compile_model(trained_forest, schedule)
        batches = {
            (t, c): test_rows[(t * 7 + c) % 32: (t * 7 + c) % 32 + 16]
            for t in range(NUM_THREADS) for c in range(CALLS_PER_THREAD)
        }
        serial = {key: predictor.raw_predict(rows) for key, rows in batches.items()}
        threaded = _hammer(predictor.raw_predict, lambda t, c: batches[(t, c)])
        for key, want in serial.items():
            assert np.array_equal(threaded[key], want)


class TestSharedSession:
    def test_session_without_batching(self, trained_forest, test_rows):
        with InferenceSession(trained_forest) as session:
            want = session.raw_predict(test_rows)
            threaded = _hammer(session.raw_predict, lambda t, c: test_rows)
        for got in threaded.values():
            assert np.array_equal(got, want)

    def test_session_with_batching(self, trained_forest, test_rows):
        policy = BatchingPolicy(max_batch_rows=256, max_delay_s=0.002)
        with InferenceSession(trained_forest, batching=policy) as session:
            want = session.predictor.raw_predict(test_rows)
            threaded = _hammer(session.raw_predict, lambda t, c: test_rows)
        for got in threaded.values():
            assert np.array_equal(got, want)
        # Everything went through the batcher.
        snap = session.metrics.snapshot()
        assert snap["batches"] >= 1
        assert snap["histograms"]["batch_rows"]["count"] == snap["batches"]

    def test_concurrent_submit_futures(self, trained_forest, test_rows):
        policy = BatchingPolicy(max_batch_rows=1024, max_delay_s=0.005)
        with InferenceSession(trained_forest, batching=policy) as session:
            want = session.predictor.raw_predict(test_rows[:8])
            futures = _hammer(session.submit, lambda t, c: test_rows[:8])
            for future in futures.values():
                assert np.array_equal(future.result(timeout=5), want)


class TestCacheCoalescing:
    def test_concurrent_sessions_compile_once(self, trained_forest):
        metrics = ServingMetrics()
        cache = PredictorCache(metrics=metrics)
        sessions = {}
        barrier = threading.Barrier(NUM_THREADS)

        def build(tid):
            barrier.wait()
            sessions[tid] = InferenceSession(
                trained_forest, cache=cache, metrics=metrics
            )

        with ThreadPoolExecutor(max_workers=NUM_THREADS) as pool:
            for f in [pool.submit(build, t) for t in range(NUM_THREADS)]:
                f.result()

        predictors = {id(s.predictor) for s in sessions.values()}
        assert len(predictors) == 1
        assert metrics.snapshot()["compiles"] == 1
        assert len(cache) == 1
        # All but the leader observed a (coalesced) hit.
        hits = sum(1 for s in sessions.values() if s.cache_hit)
        assert hits == NUM_THREADS - 1


class TestServerConcurrency:
    def test_mixed_models_threads(self, trained_forest, binary_forest, test_rows):
        with ModelServer() as server:
            server.register("reg", trained_forest)
            server.register("bin", binary_forest)
            want = {
                "reg": server.raw_predict("reg", test_rows),
                "bin": server.raw_predict("bin", test_rows),
            }

            def call(args):
                name = "reg" if (args[0] + args[1]) % 2 == 0 else "bin"
                return name, server.raw_predict(name, test_rows)

            results = _hammer(call, lambda t, c: (t, c))
            for name, got in results.values():
                assert np.array_equal(got, want[name])
