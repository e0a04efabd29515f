"""Tests for the serving layer: cache, micro-batching, fallback, metrics."""

import math
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import random_forest_model
from repro.api import serve_model
from repro.config import Schedule
from repro.errors import CodegenError, ExecutionError, ServingError
from repro.forest.ensemble import Forest
from repro.serve import (
    BatchingPolicy,
    InferenceSession,
    MicroBatcher,
    ModelServer,
    PredictorCache,
    ServerConfig,
    ServingMetrics,
)


@pytest.fixture(scope="module")
def small_forest():
    return random_forest_model(
        np.random.default_rng(42), num_trees=5, max_depth=4, num_features=6
    )


@pytest.fixture(scope="module")
def small_rows():
    return np.random.default_rng(43).normal(size=(48, 6))


def distinct_forest(seed: int) -> Forest:
    return random_forest_model(
        np.random.default_rng(seed), num_trees=3, max_depth=3, num_features=6
    )


def in_thread(call, rows) -> Future:
    """``call(rows)`` on a helper thread. A caller waits until its own
    request resolves, so a test that keeps going while a request is pending
    (or gated inside ``run_batch``) sends it from another thread. The
    returned future resolves to the request's result or error."""
    outer: Future = Future()

    def send() -> None:
        try:
            outer.set_result(call(rows))
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outer.set_exception(exc)

    threading.Thread(target=send, daemon=True).start()
    return outer


def wait_pending(batcher: MicroBatcher, count: int) -> None:
    """Block until ``count`` requests sit in ``batcher``'s pending deque."""
    deadline = time.monotonic() + 5.0
    while len(batcher._pending) < count:
        assert time.monotonic() < deadline, f"{len(batcher._pending)} of {count} pending"
        time.sleep(0.001)


# ----------------------------------------------------------------------
# Predictor cache
# ----------------------------------------------------------------------
class TestPredictorCache:
    def test_second_registration_is_cache_hit(self, small_forest, small_rows):
        """Acceptance: a fingerprint-identical model must not recompile."""
        metrics = ServingMetrics()
        cache = PredictorCache(metrics=metrics)
        first = InferenceSession(small_forest, cache=cache, metrics=metrics)
        assert not first.cache_hit
        # A structurally identical model (serialize/deserialize round trip).
        clone = Forest.from_dict(small_forest.to_dict())
        second = InferenceSession(clone, cache=cache, metrics=metrics)
        assert second.cache_hit
        assert second.predictor is first.predictor
        snap = metrics.snapshot()
        assert snap["compiles"] == 1
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1
        got = second.raw_predict(small_rows)
        assert np.allclose(got, small_forest.raw_predict(small_rows), rtol=1e-12)

    def test_different_schedule_is_cache_miss(self, small_forest):
        metrics = ServingMetrics()
        cache = PredictorCache(metrics=metrics)
        InferenceSession(small_forest, Schedule(tile_size=4), cache=cache, metrics=metrics)
        InferenceSession(small_forest, Schedule(tile_size=2), cache=cache, metrics=metrics)
        assert metrics.snapshot()["compiles"] == 2

    def test_lru_eviction_bounds_cache(self):
        metrics = ServingMetrics()
        cache = PredictorCache(capacity=2, metrics=metrics)
        for seed in range(5):
            InferenceSession(distinct_forest(seed), cache=cache, metrics=metrics)
        assert len(cache) <= 2
        assert metrics.snapshot()["cache_evictions"] == 3

    def test_lru_keeps_recently_used(self):
        cache = PredictorCache(capacity=2)
        a, _ = cache.get_or_compile("a", lambda: "A")
        cache.get_or_compile("b", lambda: "B")
        cache.get_or_compile("a", lambda: "A2")  # refresh a
        cache.get_or_compile("c", lambda: "C")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_compile_error_not_cached(self):
        cache = PredictorCache()
        calls = []

        def failing():
            calls.append(1)
            raise CodegenError("boom")

        with pytest.raises(CodegenError):
            cache.get_or_compile("k", failing)
        # The failure must not poison the key: the next attempt retries.
        value, hit = cache.get_or_compile("k", lambda: "ok")
        assert value == "ok" and not hit and len(calls) == 1

    def test_followers_wake_before_leader_metrics(self):
        """Regression: the leader used to record metrics *before* setting the
        in-flight event, so a slow metrics sink stretched how long followers
        blocked. Followers must observe the result while the leader is still
        stuck inside ``count("cache_misses")``."""
        leader_in_metrics = threading.Event()
        follower_done = threading.Event()

        class BlockingMetrics(ServingMetrics):
            def count(self, name: str, n: int = 1) -> None:
                super().count(name, n)
                if name == "cache_misses":
                    leader_in_metrics.set()
                    assert follower_done.wait(5.0), (
                        "follower never completed while leader sat in metrics"
                    )

        cache = PredictorCache(metrics=BlockingMetrics())
        follower_may_start = threading.Event()

        def compile_fn():
            follower_may_start.set()
            time.sleep(0.05)  # let the follower reach event.wait()
            return "predictor"

        results = {}

        def leader():
            results["leader"] = cache.get_or_compile("k", compile_fn)

        def follower():
            assert follower_may_start.wait(5.0)
            results["follower"] = cache.get_or_compile(
                "k", lambda: pytest.fail("follower must not compile")
            )
            follower_done.set()

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert leader_in_metrics.is_set()
        assert results["leader"] == ("predictor", False)
        assert results["follower"] == ("predictor", True)

    def test_invalidate_and_clear(self):
        cache = PredictorCache()
        cache.get_or_compile("k", lambda: "v")
        assert cache.invalidate("k")
        assert not cache.invalidate("k")
        cache.get_or_compile("k", lambda: "v")
        cache.clear()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_concurrent_requests_coalesce(self, small_forest, small_rows):
        """Acceptance: queued requests execute as one coalesced batch."""
        session = InferenceSession(
            small_forest,
            batching=BatchingPolicy(max_delay_s=0.05, max_batch_rows=100_000),
        )
        inner = session._batcher.run_batch
        first_entered = threading.Event()
        release = threading.Event()
        batch_sizes = []

        def gated(rows):
            # Block the holder inside batch #1 so later submissions pile up
            # in the deque and must coalesce into batch #2.
            if not first_entered.is_set():
                first_entered.set()
                assert release.wait(5.0)
            batch_sizes.append(rows.shape[0])
            return inner(rows)

        session._batcher.run_batch = gated
        chunks = [small_rows[i * 8 : (i + 1) * 8] for i in range(6)]
        futures = [in_thread(session.raw_predict, chunks[0])]
        assert first_entered.wait(5.0)
        futures += [in_thread(session.raw_predict, chunk) for chunk in chunks[1:]]
        wait_pending(session._batcher, 5)
        release.set()
        results = [f.result(timeout=5.0) for f in futures]
        session.close()
        for chunk, got in zip(chunks, results):
            assert np.allclose(got, small_forest.raw_predict(chunk), rtol=1e-12)
        assert batch_sizes[0] == 8
        assert batch_sizes[1] == 40  # five 8-row requests in one kernel batch
        hist = session.metrics.snapshot()["batch_requests_hist"]
        assert hist.get(5) == 1

    def test_max_batch_rows_respected(self):
        executed = []

        def run(rows):
            executed.append(rows.shape[0])
            return rows.sum(axis=1)

        with MicroBatcher(run, BatchingPolicy(max_batch_rows=4, max_delay_s=0.2)) as b:
            gate = threading.Event()
            b.run_batch = lambda rows: (gate.wait(5.0), run(rows))[1]
            futures = [in_thread(b.predict, np.ones((2, 3))) for _ in range(4)]
            wait_pending(b, 2)  # the rest queue behind the gated holder
            gate.set()
            for f in futures:
                f.result(timeout=5.0)
        # First batch absorbed the first request; subsequent batches stop
        # coalescing at >= 4 rows.
        assert all(n <= 4 for n in executed)
        assert sum(executed) == 8

    def test_error_propagates_to_all_requests(self):
        def run(rows):
            raise ExecutionError("kernel exploded")

        with MicroBatcher(run, BatchingPolicy(max_delay_s=0.01)) as b:
            for _ in range(3):
                with pytest.raises(ExecutionError, match="exploded"):
                    b.predict(np.ones((1, 2)))

    def test_queue_backpressure(self):
        entered, release = threading.Event(), threading.Event()

        def run(rows):
            entered.set()
            release.wait(5.0)
            return rows.sum(axis=1)

        b = MicroBatcher(
            run,
            BatchingPolicy(queue_depth=1, max_delay_s=0.0, submit_timeout_s=0.05),
        )
        try:
            held = in_thread(b.predict, np.ones((1, 2)))  # holder, blocks in run
            assert entered.wait(5.0)
            queued = in_thread(b.predict, np.ones((1, 2)))  # the deque (depth 1)
            wait_pending(b, 1)
            with pytest.raises(ServingError, match="full"):
                b.predict(np.ones((1, 2)))
        finally:
            release.set()
        for future in (held, queued):
            assert np.array_equal(future.result(timeout=5.0), [2.0])
        b.close()

    def test_closed_batcher_rejects(self):
        b = MicroBatcher(lambda rows: rows.sum(axis=1))
        b.close()
        with pytest.raises(ServingError, match="closed"):
            b.predict(np.ones((1, 2)))

    def test_zero_row_submit(self):
        with MicroBatcher(lambda rows: rows.sum(axis=1)) as b:
            out = b.predict(np.zeros((0, 3)))
            assert out.shape == (0,)

    def test_run_batch_never_overlaps_itself(self):
        """``run_batch`` runs on whichever submitter holds the batch lock,
        never two at once — empty batches included, which go through
        ``run_batch`` like every other request (it may touch thread-local
        scratch arenas and unlocked state)."""
        lock, running, overlaps, seen = threading.Lock(), [0], [0], []

        def run(rows):
            with lock:
                running[0] += 1
                overlaps[0] += running[0] > 1
            seen.append(rows.shape[0])
            time.sleep(0.0002)  # widen the window an overlap would need
            with lock:
                running[0] -= 1
            return rows.sum(axis=1)

        with MicroBatcher(run) as b:
            assert b.predict(np.zeros((0, 3))).shape == (0,)

            def client(k: int) -> None:
                for i in range(50):
                    rows = np.ones(((k + i) % 3, 3))  # 0, 1 or 2 rows
                    out = b.predict(rows)
                    assert np.array_equal(out, rows.sum(axis=1))

            clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(10.0)
        assert seen[0] == 0  # the empty submit reached run_batch
        assert overlaps[0] == 0
        assert sum(seen) == sum((k + i) % 3 for k in range(4) for i in range(50))

    def test_lone_request_does_not_wait_for_companions(self):
        """The default policy is work-conserving: a request on an idle
        batcher runs on its caller's thread, with no coalescing window."""
        assert BatchingPolicy().max_delay_s == 0.0
        rows = np.ones((1, 3))
        with MicroBatcher(lambda r: r.sum(axis=1)) as b:
            round_trips = []
            for _ in range(50):
                start = time.perf_counter()
                b.predict(rows)
                round_trips.append(time.perf_counter() - start)
        assert np.median(round_trips) < 1e-3

    def test_arrivals_during_a_kernel_form_the_next_batch(self):
        """A request on an idle batcher is dispatched alone; everything
        submitted while that kernel runs comes out as exactly one batch."""
        entered, release = threading.Event(), threading.Event()
        executed = []

        def run(rows):
            executed.append(rows.shape[0])
            if len(executed) == 1:
                entered.set()
                assert release.wait(5.0)
            return rows.sum(axis=1)

        with MicroBatcher(run) as b:
            futures = [in_thread(b.predict, np.ones((1, 3)))]
            assert entered.wait(5.0)
            futures += [in_thread(b.predict, np.ones((1, 3))) for _ in range(5)]
            wait_pending(b, 5)
            release.set()
            for f in futures:
                assert np.array_equal(f.result(timeout=5.0), [3.0])
        assert executed == [1, 5]

    @pytest.mark.parametrize("poison", ["width", "ndim", "nan"])
    def test_malformed_request_does_not_fail_its_batch_mates(
        self, small_forest, small_rows, poison
    ):
        """Regression: a coalesced batch holding one malformed request used
        to fail every future in it (untyped ``ValueError`` from
        ``np.concatenate`` for a wrong shape, the offender's
        ``ExecutionError`` for a NaN) and count one error per batch-mate."""
        bad = {
            "width": np.zeros((1, 3)),
            "ndim": np.zeros(small_forest.num_features),
            "nan": np.full((1, small_forest.num_features), np.nan),
        }[poison]
        entered, release = threading.Event(), threading.Event()
        with InferenceSession(small_forest, batching=BatchingPolicy()) as session:
            inner = session._batcher.run_batch

            def gated(rows):
                # Block the holder inside a first batch so the three
                # requests under test queue up and must share the next one.
                if not entered.is_set():
                    entered.set()
                    assert release.wait(5.0)
                return inner(rows)

            session._batcher.run_batch = gated
            blocker = in_thread(session.raw_predict, small_rows[2:3])
            assert entered.wait(5.0)
            good = [small_rows[0:1], small_rows[1:2]]
            first, offender, last = (
                in_thread(session.raw_predict, rows) for rows in (good[0], bad, good[1])
            )
            wait_pending(session._batcher, 3)
            release.set()
            blocker.result(timeout=5.0)
            with pytest.raises(ExecutionError):
                offender.result(timeout=5.0)
            for rows, future in zip(good, (first, last)):
                got = future.result(timeout=5.0)
                assert np.array_equal(got, session.predictor.raw_predict(rows))
                assert np.allclose(got, small_forest.raw_predict(rows), rtol=1e-12)
        # each request was accounted on its own thread before that thread
        # resolved the future the test waited on
        snap = session.metrics.snapshot()
        assert snap["errors"] == 1
        assert snap["requests"] == 3
        assert snap["batch_requests_hist"].get(3) == 1  # they did share a batch

    def test_wrong_length_result_is_an_error(self):
        """Regression: a ``run_batch`` returning the wrong number of rows
        used to hand some requests truncated or empty slices."""
        with MicroBatcher(
            lambda rows: rows.sum(axis=1)[:-1], BatchingPolicy(max_delay_s=0.05)
        ) as b:
            for _ in range(3):
                with pytest.raises(ServingError, match="returned 1 rows for a batch of 2"):
                    b.predict(np.ones((2, 3)))

    def test_non_2d_request_does_not_kill_the_worker(self):
        """Regression: ``rows.shape[0]`` on a 0-d request raised outside
        every guard of the batch loop; the batcher must keep serving."""
        with MicroBatcher(lambda rows: rows.sum(axis=1)) as b:
            with pytest.raises(Exception, match="axis"):
                b.predict(np.float64(1.0))
            assert np.array_equal(b.predict(np.ones((1, 3))), [3.0])


class TestFlatCombining:
    """The batcher has no thread: a submitter that finds the batch lock
    free runs the batch itself, and the others wait on their requests."""

    def test_many_submitters_resolve_bitwise_without_overlap(self, small_forest):
        with InferenceSession(small_forest, batching=BatchingPolicy()) as session:
            predictor = session.predictor
            inner = session._batcher.run_batch
            lock, running, overlaps = threading.Lock(), [0], [0]

            def watched(rows):
                with lock:
                    running[0] += 1
                    overlaps[0] += running[0] > 1
                try:
                    return inner(rows)
                finally:
                    with lock:
                        running[0] -= 1

            session._batcher.run_batch = watched
            mismatches = []

            def client(k: int) -> None:
                rng = np.random.default_rng(k)
                for i in range(500):
                    rows = rng.normal(size=(1 + i % 3, small_forest.num_features))
                    got = session.submit(rows).result(timeout=10.0)
                    if not np.array_equal(got, predictor.raw_predict(rows)):
                        mismatches.append((k, i))

            clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the submitters finely
            try:
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in clients)
        snap = session.metrics.snapshot()
        assert mismatches == []
        assert overlaps[0] == 0
        assert snap["requests"] == 8 * 500
        assert max(snap["batch_requests_hist"]) >= 2  # some requests coalesced

    def test_holder_runs_its_own_batch_plus_at_most_one_more(self):
        entered, release = threading.Event(), threading.Event()
        ran_on = []

        def run(rows):
            ran_on.append(threading.get_ident())
            if len(ran_on) == 1:
                entered.set()
                assert release.wait(5.0)
            return rows.sum(axis=1)

        holder_ident = []

        def holder_predict(rows):
            holder_ident.append(threading.get_ident())
            return b.predict(rows)

        with MicroBatcher(run, BatchingPolicy(max_batch_rows=1)) as b:
            held = in_thread(holder_predict, np.ones((1, 3)))
            assert entered.wait(5.0)
            waiters = [in_thread(b.predict, np.ones((1, 3))) for _ in range(5)]
            wait_pending(b, 5)
            release.set()
            for future in [held, *waiters]:
                assert np.array_equal(future.result(timeout=5.0), [3.0])
        assert len(ran_on) == 6
        # its own batch and one waiter's; the lock then went to a waiter
        assert ran_on.count(holder_ident[0]) == 2

    def test_server_runs_no_thread_of_its_own(self, small_forest, small_rows):
        baseline = threading.active_count()
        server = ModelServer(ServerConfig(batching=BatchingPolicy()))
        server.register("m", small_forest)
        assert threading.active_count() == baseline
        session = server.session("m")

        def client(k: int) -> None:
            for i in range(20):
                rows = small_rows[(k + i) % 40 : (k + i) % 40 + 2]
                session.submit(rows).result(timeout=5.0)
                server.predict("m", rows)

        clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(10.0)
        server.close()
        assert threading.active_count() == baseline


# ----------------------------------------------------------------------
# Fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_codegen_failure_falls_back_to_interpreter(
        self, small_forest, small_rows, monkeypatch
    ):
        """Acceptance: injected CodegenError -> interpreter serves correct
        predictions and the fallback metric increments."""
        import repro.serve.session as session_mod

        def exploding_compile(*args, **kwargs):
            raise CodegenError("injected codegen failure")

        monkeypatch.setattr(session_mod, "compile_model", exploding_compile)
        session = InferenceSession(small_forest)
        assert session.used_fallback
        assert type(session.predictor).__name__ == "InterpreterPredictor"
        assert "injected" in str(session.fallback_error)
        got = session.raw_predict(small_rows)
        assert np.allclose(got, small_forest.raw_predict(small_rows), rtol=1e-12)
        assert session.metrics.snapshot()["fallbacks"] == 1

    def test_lowering_failure_falls_back_to_reference(
        self, small_forest, small_rows, monkeypatch
    ):
        import repro.serve.session as session_mod

        def exploding(*args, **kwargs):
            raise CodegenError("injected")

        monkeypatch.setattr(session_mod, "compile_model", exploding)
        monkeypatch.setattr(session_mod, "_lower_only", exploding)
        session = InferenceSession(small_forest)
        assert type(session.predictor).__name__ == "ReferencePredictor"
        got = session.raw_predict(small_rows)
        assert np.allclose(got, small_forest.raw_predict(small_rows), rtol=1e-12)

    def test_fallback_can_be_disabled(self, small_forest, monkeypatch):
        import repro.serve.session as session_mod

        def exploding(*args, **kwargs):
            raise CodegenError("injected")

        monkeypatch.setattr(session_mod, "compile_model", exploding)
        with pytest.raises(CodegenError):
            InferenceSession(small_forest, allow_fallback=False)

    def test_fallback_respects_nan_validation(self, small_forest, monkeypatch):
        import repro.serve.session as session_mod

        monkeypatch.setattr(
            session_mod,
            "compile_model",
            lambda *a, **k: (_ for _ in ()).throw(CodegenError("injected")),
        )
        session = InferenceSession(small_forest)
        bad = np.zeros((2, small_forest.num_features))
        bad[0, 0] = np.nan
        with pytest.raises(ExecutionError, match="NaN"):
            session.raw_predict(bad)

    def test_fallback_through_batcher(self, small_forest, small_rows, monkeypatch):
        import repro.serve.session as session_mod

        monkeypatch.setattr(
            session_mod,
            "compile_model",
            lambda *a, **k: (_ for _ in ()).throw(CodegenError("injected")),
        )
        with InferenceSession(small_forest, batching=BatchingPolicy()) as session:
            got = session.raw_predict(small_rows[:8])
            assert np.allclose(got, small_forest.raw_predict(small_rows[:8]), rtol=1e-12)


# ----------------------------------------------------------------------
# Sessions and server
# ----------------------------------------------------------------------
class TestInferenceSession:
    def test_predict_applies_objective(self, binary_forest, test_rows):
        session = InferenceSession(binary_forest)
        probs = session.predict(test_rows)
        assert np.allclose(probs, binary_forest.predict(test_rows), rtol=1e-12)

    def test_zero_rows(self, small_forest):
        session = InferenceSession(small_forest)
        out = session.raw_predict(np.zeros((0, small_forest.num_features)))
        assert out.shape == (0,)

    def test_threads_override_matches_serial(self, small_forest, small_rows):
        serial = InferenceSession(small_forest).raw_predict(small_rows)
        threaded = InferenceSession(small_forest, threads=4).raw_predict(small_rows)
        assert np.array_equal(serial, threaded)

    def test_request_metrics_recorded(self, small_forest, small_rows):
        session = InferenceSession(small_forest)
        session.raw_predict(small_rows)
        session.raw_predict(small_rows[:7])
        snap = session.metrics.snapshot()
        assert snap["requests"] == 2
        assert snap["rows"] == small_rows.shape[0] + 7
        assert snap["latency"]["count"] == 2
        assert snap["latency"]["p50"] is not None
        assert snap["latency"]["p99"] >= snap["latency"]["p50"]

    def test_closed_batching_session_refuses_every_request(self, small_forest, small_rows):
        """Both entry points of a closed batching session refuse with the
        batcher's reason: neither serves unbatched nor blames a missing
        batching policy."""
        session = InferenceSession(small_forest, batching=BatchingPolicy())
        session.raw_predict(small_rows[:2])
        session.close()
        with pytest.raises(ServingError, match="micro-batcher is closed"):
            session.raw_predict(small_rows[:2])
        with pytest.raises(ServingError, match="micro-batcher is closed"):
            session.submit(small_rows[:2]).result(timeout=5.0)
        snap = session.metrics.snapshot()
        assert snap["batches"] == 1 and snap["errors"] == 2

    def test_error_metric_recorded(self, small_forest):
        session = InferenceSession(small_forest)
        with pytest.raises(ExecutionError):
            session.raw_predict(np.zeros((3, 99)))
        assert session.metrics.snapshot()["errors"] == 1

    def test_submit_metrics_recorded(self, small_forest, small_rows):
        # Regression: submit() used to bypass the request and error counters,
        # so open-loop traffic never reached the request counters, the
        # latency histogram or the SLO percentiles.
        policy = BatchingPolicy(max_batch_rows=64, max_delay_s=0.001)
        with InferenceSession(small_forest, batching=policy) as session:
            futures = [session.submit(small_rows[i:i + 1]) for i in range(10)]
            for future in futures:
                future.result(timeout=5)
            bad = session.submit(np.zeros((1, 99)))
            with pytest.raises(ExecutionError):
                bad.result(timeout=5)
        # submit returns a resolved future, accounted by raw_predict
        snap = session.metrics.snapshot()
        assert snap["requests"] == 10
        assert snap["rows"] == 10
        assert snap["errors"] == 1
        assert snap["latency"]["count"] == 10
        assert snap["latency"]["p50"] > 0

    def test_slow_submitted_request_records_slow_request(self, small_forest, small_rows):
        """Regression: a submitted request was accounted by a done-callback
        that never checked ``slow_request_s``."""
        from repro.observe import events as flight_events

        name = "slow-submit"
        with InferenceSession(
            small_forest, batching=BatchingPolicy(), name=name, slow_request_s=0.01
        ) as session:
            inner = session._batcher.run_batch
            session._batcher.run_batch = lambda rows: (time.sleep(0.02), inner(rows))[1]
            session.submit(small_rows[:2]).result(timeout=5.0)
        slow = [
            e for e in flight_events.recorder.tail(n=100, kind="slow_request")
            if e.get("model") == name
        ]
        assert len(slow) == 1
        assert slow[0]["rows"] == 2 and slow[0]["latency_ms"] >= 10.0

    def test_refused_submit_is_an_error_in_its_future(self, small_forest, small_rows):
        """Regression: a submit refused by a full deque raised at the call
        and was not counted in ``errors``. It now resolves its future with
        the ``ServingError`` and counts like any other failure."""
        entered, release = threading.Event(), threading.Event()
        policy = BatchingPolicy(queue_depth=1, submit_timeout_s=0.05)
        with InferenceSession(small_forest, batching=policy) as session:
            inner = session._batcher.run_batch

            def gated(rows):
                if not entered.is_set():
                    entered.set()
                    assert release.wait(5.0)
                return inner(rows)

            session._batcher.run_batch = gated
            try:
                held = in_thread(session.raw_predict, small_rows[:1])
                assert entered.wait(5.0)
                queued = in_thread(session.raw_predict, small_rows[1:2])
                wait_pending(session._batcher, 1)
                refused = session.submit(small_rows[2:3])
                assert refused.done()
                with pytest.raises(ServingError, match="full"):
                    refused.result()
            finally:
                release.set()
            for future in (held, queued):
                future.result(timeout=5.0)
        snap = session.metrics.snapshot()
        assert snap["errors"] == 1
        assert snap["requests"] == 2

    def test_submit_requires_batching(self, small_forest):
        session = InferenceSession(small_forest)
        with pytest.raises(ServingError, match="batching"):
            session.submit(np.zeros((1, small_forest.num_features)))

    def test_serve_model_convenience(self, small_forest, small_rows):
        session = serve_model(small_forest, Schedule(tile_size=4))
        got = session.raw_predict(small_rows)
        assert np.allclose(got, small_forest.raw_predict(small_rows), rtol=1e-12)


class TestModelServer:
    def test_register_predict_unregister(self, small_forest, small_rows):
        with ModelServer() as server:
            server.register("m", small_forest)
            assert "m" in server
            got = server.raw_predict("m", small_rows)
            assert np.allclose(got, small_forest.raw_predict(small_rows), rtol=1e-12)
            server.unregister("m")
            assert "m" not in server
            with pytest.raises(ServingError, match="no model"):
                server.predict("m", small_rows)

    def test_isomorphic_models_share_predictor(self, small_forest):
        with ModelServer() as server:
            s1 = server.register("a", small_forest)
            s2 = server.register("b", Forest.from_dict(small_forest.to_dict()))
            assert s2.cache_hit and s1.predictor is s2.predictor
            snap = server.metrics_snapshot()
            assert snap["compiles"] == 1
            assert snap["models_registered"] == 2
            assert snap["predictors_resident"] == 1

    def test_reregister_name_replaces_session(self, small_forest):
        with ModelServer() as server:
            server.register("m", small_forest, Schedule(tile_size=2))
            replaced = server.register("m", small_forest, Schedule(tile_size=4))
            assert server.session("m") is replaced

    def test_cache_capacity_respected(self):
        with ModelServer(ServerConfig(cache_capacity=2)) as server:
            for seed in range(4):
                server.register(f"m{seed}", distinct_forest(seed))
            assert server.metrics_snapshot()["predictors_resident"] <= 2

    def test_server_batching_config(self, small_forest, small_rows):
        config = ServerConfig(batching=BatchingPolicy(max_delay_s=0.001))
        with ModelServer(config) as server:
            server.register("m", small_forest)
            got = server.raw_predict("m", small_rows)
            assert np.allclose(got, small_forest.raw_predict(small_rows), rtol=1e-12)
            assert server.metrics_snapshot()["batches"] >= 1

    def test_closed_server_rejects_registration(self, small_forest):
        server = ModelServer()
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.register("m", small_forest)

    def test_multiclass_served(self, multiclass_forest, test_rows):
        with ModelServer() as server:
            server.register("mc", multiclass_forest)
            got = server.predict("mc", test_rows)
            assert np.allclose(got, multiclass_forest.predict(test_rows), rtol=1e-12)


class TestMetricsPrimitives:
    def test_latency_window_bounded(self):
        from repro.serve.metrics import LatencyWindow

        w = LatencyWindow(capacity=8)
        for i in range(100):
            w.record(float(i))
        assert len(w) == 8
        assert w.percentile(0) >= 92.0  # only the most recent survive

    def test_percentiles_ordering(self):
        from repro.serve.metrics import LatencyWindow

        w = LatencyWindow()
        for i in range(1, 101):
            w.record(i / 100.0)
        assert w.percentile(50) <= w.percentile(90) <= w.percentile(99)
        assert w.percentile(100) == 1.0

    def test_empty_snapshot(self):
        snap = ServingMetrics().snapshot()
        assert snap["latency"]["p50"] is None
        assert snap["latency"]["window_max"] is None
        assert snap["latency"]["all_time_max"] is None
        assert snap["requests"] == 0

    def test_percentile_edges_after_wraparound(self):
        from repro.serve.metrics import LatencyWindow

        w = LatencyWindow(capacity=4)
        for v in (9.0, 8.0, 1.0, 2.0, 3.0, 4.0):  # 9.0, 8.0 rotated out
            w.record(v)
        assert len(w) == 4
        assert w.percentile(0) == 1.0
        assert w.percentile(100) == 4.0
        assert w.max() == 4.0
        w.clear()
        assert len(w) == 0 and w.percentile(50) is None and w.max() is None

    def test_sorted_cache_matches_naive_sort(self):
        from repro.serve.metrics import LatencyWindow

        rng = np.random.default_rng(3)
        w = LatencyWindow(capacity=16)
        ring: list[float] = []
        for i, v in enumerate(rng.uniform(size=200)):
            w.record(float(v))
            if len(ring) < 16:
                ring.append(float(v))
            else:
                ring[(i - 16) % 16] = float(v)
            if i % 7 == 0:  # interleave queries with records
                ordered = sorted(ring)
                for p in (0, 37, 50, 90, 99.9, 100):
                    # nearest-rank definition (see LatencyWindow.percentile)
                    rank = min(
                        len(ordered) - 1,
                        max(0, math.ceil(p / 100.0 * len(ordered)) - 1),
                    )
                    assert w.percentile(p) == ordered[rank]
                assert w.max() == ordered[-1]

    def test_p999_saturates_to_max_on_small_windows(self):
        from repro.serve.metrics import LatencyWindow

        w = LatencyWindow(capacity=64)
        for v in range(1, 33):  # 32 samples << 1000
            w.record(float(v))
        # nearest-rank: ceil(0.999 * 32) - 1 = 31 -> the max sample
        assert w.percentile(99.9) == 32.0
        assert w.percentile(99.9) == w.percentile(100)

    def test_latency_dict_includes_p999(self):
        metrics = ServingMetrics()
        for v in range(1, 2001):
            metrics.record_request(1, v / 1000.0)
        lat = metrics.snapshot()["latency"]
        assert lat["p999"] is not None
        assert lat["p99"] <= lat["p999"] <= lat["window_max"]

    def test_window_max_vs_all_time_max(self):
        metrics = ServingMetrics(latency_window=2)
        metrics.record_request(1, 5.0)  # the spike
        metrics.record_request(1, 0.1)
        metrics.record_request(1, 0.2)  # spike rotated out of the window
        lat = metrics.snapshot()["latency"]
        assert lat["window_max"] == 0.2
        assert lat["all_time_max"] == 5.0
        assert lat["max"] == 5.0  # legacy alias stays all-time

    def test_reset_zeroes_counters_keeps_gauges(self):
        metrics = ServingMetrics()
        metrics.register_gauge("g", lambda: 7)
        metrics.record_request(4, 0.5)
        metrics.record_batch(4, 2)
        metrics.count("cache_hits")
        metrics.count("errors")
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["requests"] == 0 and snap["rows"] == 0
        assert snap["errors"] == 0 and snap["batches"] == 0
        assert snap["cache_hits"] == 0
        assert snap["histograms"]["batch_rows"]["count"] == 0
        assert snap["latency"]["count"] == 0
        assert snap["latency"]["all_time_max"] is None
        assert snap["runtime"]["g"] == 7  # gauges survive the reset

    def test_gauge_error_isolated(self):
        metrics = ServingMetrics()
        metrics.register_gauge("ok", lambda: 1)
        metrics.register_gauge("boom", lambda: 1 // 0)
        snap = metrics.snapshot()
        assert snap["runtime"]["ok"] == 1
        assert str(snap["runtime"]["boom"]).startswith("<gauge error:")

    def test_concurrent_snapshot_vs_record(self):
        metrics = ServingMetrics(latency_window=32)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            i = 0
            try:
                while not stop.is_set():
                    metrics.record_request(1, (i % 10) / 100.0)
                    metrics.record_batch(1, 1)
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    snap = metrics.snapshot()
                    lat = snap["latency"]
                    if lat["count"]:
                        assert lat["p50"] <= lat["window_max"]
                        assert lat["window_max"] <= lat["all_time_max"]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(3)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        snap = metrics.snapshot()
        assert snap["requests"] == snap["rows"] == snap["batches"]


# ----------------------------------------------------------------------
# Escape regressions (the stranded-future failure modes)
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_raising_metrics_hook_fails_batch_not_worker(self):
        """Regression: a metrics hook raising inside the batch loop used to
        escape ``_execute``'s try block and strand every queued future.
        Now the batch fails, the lock is released, and the batcher keeps
        serving once the hook recovers."""
        broken = [True]

        class RaisingMetrics(ServingMetrics):
            def record_queue_wait(self, seconds):
                if broken[0]:
                    raise RuntimeError("metrics sink exploded")
                super().record_queue_wait(seconds)

        b = MicroBatcher(
            lambda rows: rows.sum(axis=1),
            BatchingPolicy(max_delay_s=0.0),
            metrics=RaisingMetrics(),
        )
        try:
            for _ in range(2):  # repeatable: the batcher outlives each failure
                with pytest.raises(RuntimeError, match="exploded"):
                    b.predict(np.ones((1, 2)))
                assert not b._holding
            broken[0] = False
            assert np.array_equal(b.predict(np.ones((1, 2))), [2.0])
        finally:
            b.close()

    def test_escaped_exception_fails_its_batch_and_later_submits_serve(self):
        """An exception escaping ``_execute`` fails that batch's requests
        with ``ServingError`` instead of stranding them, releases the
        batch lock, and the requests queued behind it, and later submits,
        still serve."""
        entered = threading.Event()
        release = threading.Event()
        b = MicroBatcher(
            lambda rows: rows.sum(axis=1),
            BatchingPolicy(max_delay_s=0.0, queue_depth=8, submit_timeout_s=0.2),
            name="escape-test",
        )
        execute, calls = b._execute, []

        def escaping(batch, num_rows):
            calls.append(len(batch))
            if len(calls) > 1:
                return execute(batch, num_rows)
            entered.set()
            assert release.wait(5.0)
            raise RuntimeError("escaped the guard")

        b._execute = escaping
        first = in_thread(b.predict, np.ones((1, 2)))
        assert entered.wait(5.0)
        queued = [in_thread(b.predict, np.ones((1, 2))) for _ in range(3)]
        wait_pending(b, 3)
        release.set()
        with pytest.raises(ServingError, match="escape-test.*escaped the guard") as info:
            first.result(timeout=5.0)
        assert isinstance(info.value.__cause__, RuntimeError)
        for f in queued:
            assert np.array_equal(f.result(timeout=5.0), [2.0])
        assert calls == [1, 3]
        assert not b._holding
        assert np.array_equal(b.predict(np.ones((1, 2))), [2.0])
        b.close()

    def test_escaped_exception_fails_promptly(self):
        """Acceptance: an escaping exception fails its request at once
        (well within ``submit_timeout_s``) rather than leaving a request
        that never resolves."""
        b = MicroBatcher(
            lambda rows: rows.sum(axis=1),
            BatchingPolicy(max_delay_s=0.0, submit_timeout_s=0.5),
            name="timeout-test",
        )
        b._execute = lambda batch, num_rows: (_ for _ in ()).throw(
            RuntimeError("instant death")
        )
        start = time.perf_counter()
        with pytest.raises(ServingError):
            b.predict(np.ones((1, 2)))
        assert time.perf_counter() - start < b.policy.submit_timeout_s + 1.0
        b.close()


    def test_interrupt_in_a_holder_fails_its_batch_and_propagates(self):
        """A ``BaseException`` (an interrupt) raised in a holder's batch
        fails that batch's requests, releases the lock, and is re-raised
        to the holder's caller; the batcher keeps serving."""
        interrupts = [1]

        def run(rows):
            if interrupts:
                interrupts.pop()
                raise KeyboardInterrupt
            return rows.sum(axis=1)

        b = MicroBatcher(run)
        with pytest.raises(KeyboardInterrupt):
            b.predict(np.ones((1, 2)))
        assert not b._holding
        assert np.array_equal(b.predict(np.ones((1, 2))), [2.0])
        b.close()

    def test_interrupt_reaches_the_holder_not_its_batch_mates(self):
        """Regression: ``_execute`` stored an interrupt raised in
        ``run_batch`` on every request of the batch, so it was raised in
        the batch-mates' threads, and a holder running its one extra
        batch returned normally. The holder's caller must get the
        interrupt and a batch-mate a ``ServingError``."""
        entered, release = threading.Event(), threading.Event()
        calls = []

        def run(rows):
            calls.append(rows.shape[0])
            if len(calls) == 1:
                entered.set()
                assert release.wait(5.0)
            elif len(calls) == 2:
                raise KeyboardInterrupt
            return rows.sum(axis=1)

        with MicroBatcher(run) as b:
            holder = in_thread(b.predict, np.ones((1, 2)))
            assert entered.wait(5.0)
            mates = [in_thread(b.predict, np.ones((1, 2))) for _ in range(2)]
            wait_pending(b, 2)
            release.set()
            with pytest.raises(KeyboardInterrupt):
                holder.result(timeout=5.0)
            for mate in mates:
                with pytest.raises(ServingError, match="interrupted"):
                    mate.result(timeout=5.0)
            assert calls == [1, 2]  # the mates shared the holder's extra batch
            assert not b._holding
            assert np.array_equal(b.predict(np.ones((1, 2))), [2.0])


class TestCloseBackpressure:
    def test_close_returns_promptly_with_wedged_worker_and_full_queue(self):
        """Regression: ``close()`` used a blocking put of a stop sentinel
        onto the bounded queue, so with the batch wedged inside
        ``run_batch`` and the queue full, shutdown hung forever. A wedged
        holder plus a full deque must still let ``close()`` return."""
        entered = threading.Event()
        release = threading.Event()

        def wedged(rows):
            entered.set()
            release.wait(30.0)
            return rows.sum(axis=1)

        b = MicroBatcher(
            wedged,
            BatchingPolicy(queue_depth=2, max_delay_s=0.0, submit_timeout_s=0.05),
        )
        try:
            first = in_thread(b.predict, np.ones((1, 2)))
            assert entered.wait(5.0)
            queued = [in_thread(b.predict, np.ones((1, 2))) for _ in range(2)]
            wait_pending(b, 2)  # the deque is full
            with pytest.raises(ServingError, match="full"):
                b.predict(np.ones((1, 2)))
            closer = threading.Thread(target=b.close, kwargs={"timeout": 0.5})
            start = time.perf_counter()
            closer.start()
            closer.join(5.0)
            assert not closer.is_alive()
            assert time.perf_counter() - start < 4.0
            for f in queued:
                with pytest.raises(ServingError, match="closed"):
                    f.result(timeout=5.0)
        finally:
            release.set()
        # The wedged batch still completes (its result was already owed),
        # its holder releases the lock, and the batcher stays closed.
        assert np.allclose(first.result(timeout=5.0), 2.0)
        assert not b._holding
        with pytest.raises(ServingError, match="closed"):
            b.predict(np.ones((1, 2)))


    def test_close_during_a_linger_releases_the_lock(self):
        """A holder lingering for companions wakes on ``close()``, finds
        its request failed and releases the lock at once."""
        b = MicroBatcher(lambda rows: rows.sum(axis=1), BatchingPolicy(max_delay_s=30.0))
        lingering = in_thread(b.predict, np.ones((1, 2)))
        deadline = time.monotonic() + 5.0
        while not b._lingering:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        start = time.perf_counter()
        b.close(timeout=5.0)
        assert time.perf_counter() - start < 4.0
        with pytest.raises(ServingError, match="closed"):
            lingering.result(timeout=5.0)
        assert not b._holding


class TestPolicyValidation:
    def test_negative_submit_timeout_rejected(self):
        with pytest.raises(ServingError, match="submit_timeout_s"):
            BatchingPolicy(submit_timeout_s=-0.5)

    def test_nan_submit_timeout_rejected(self):
        # NaN would otherwise surface as an opaque ValueError from
        # queue.put on every submit.
        with pytest.raises(ServingError, match="submit_timeout_s"):
            BatchingPolicy(submit_timeout_s=float("nan"))

    def test_zero_submit_timeout_allowed(self):
        policy = BatchingPolicy(submit_timeout_s=0.0)
        assert policy.submit_timeout_s == 0.0


# ----------------------------------------------------------------------
# Swap/unregister atomicity
# ----------------------------------------------------------------------
class TestSwapUnregisterRace:
    def test_swap_and_unregister_are_atomic(self, small_forest, monkeypatch):
        """Regression: ``_maybe_swap`` checked session currency under the
        lock but swapped after releasing it, so a concurrent ``unregister``
        could close the session between check and swap. The swap must now
        complete before the unregister's close runs (or not happen at all)."""
        from types import SimpleNamespace

        import repro.serve.server as server_mod

        latencies = iter([100.0, 1.0])  # baseline slow, tuned fast -> swap
        monkeypatch.setattr(
            server_mod,
            "measure",
            lambda *a, **k: SimpleNamespace(per_row_us=next(latencies)),
        )
        server = ModelServer()
        session = server.register("m", small_forest)
        events: list[str] = []
        in_swap = threading.Event()
        orig_swap = session.swap_predictor

        def slow_swap(predictor, schedule=None):
            events.append("swap_start")
            in_swap.set()
            time.sleep(0.1)  # widen the race window
            out = orig_swap(predictor, schedule)
            events.append("swap_end")
            return out

        session.swap_predictor = slow_swap
        orig_close = session.close

        def recording_close():
            events.append("close")
            return orig_close()

        session.close = recording_close
        result = SimpleNamespace(
            best_predictor=session.predictor,
            best_schedule=session.schedule,
            explored=1,
            grid_size=1,
            from_cache=False,
            rank_correlation=None,
            stopped_by=None,
        )
        rows = np.random.default_rng(7).normal(size=(8, small_forest.num_features))
        swapper = threading.Thread(
            target=server._maybe_swap, args=("m", session, rows, result)
        )
        swapper.start()
        assert in_swap.wait(5.0)
        server.unregister("m")  # pre-fix: interleaves with the in-flight swap
        swapper.join(5.0)
        assert not swapper.is_alive()
        assert events.index("swap_end") < events.index("close")
        server.close()

    def test_swap_skipped_after_unregister(self, small_forest, monkeypatch):
        """Once the session is no longer current, the (locked) currency
        check must refuse the swap entirely."""
        from types import SimpleNamespace

        import repro.serve.server as server_mod

        latencies = iter([100.0, 1.0])
        monkeypatch.setattr(
            server_mod,
            "measure",
            lambda *a, **k: SimpleNamespace(per_row_us=next(latencies)),
        )
        server = ModelServer()
        session = server.register("m", small_forest)
        swapped = []
        session.swap_predictor = lambda *a, **k: swapped.append(True)
        result = SimpleNamespace(
            best_predictor=session.predictor,
            best_schedule=session.schedule,
            explored=1,
            grid_size=1,
            from_cache=False,
            rank_correlation=None,
            stopped_by=None,
        )
        rows = np.random.default_rng(8).normal(size=(8, small_forest.num_features))
        server.unregister("m")
        info = server._maybe_swap("m", session, rows, result)
        assert info["swapped"] is False
        assert not swapped
        server.close()
