"""Background autotuning inside the server: hot swaps, warm restarts,
concurrent load, and failure isolation."""

import threading

import numpy as np
import pytest

import repro.serve.server as server_mod
from repro.autotune.space import TuningSpace
from repro.config import Schedule
from repro.serve import ModelServer, ServerConfig

#: four candidates — background tunes in tests must finish in well under a
#: second so the concurrency tests exercise the swap window, not the grid
SMALL_SPACE = TuningSpace(
    tile_sizes=(1, 8), tilings=("basic",), pad_and_unroll=(True,),
    interleaves=(2, 8), layouts=("sparse",),
)


#: the registration-time schedule: NumPy's scalar baseline, which every grid
#: candidate — measured on the same backend, the base schedule's — beats by a
#: margin no timing noise closes. (The native walker runs the scalar baseline
#: about as fast as any candidate, so under the default backend the
#: measure-before-swap guard would rightly keep it.)
SCALAR = Schedule.scalar_baseline().with_(backend="numpy_jit")


def fast_config(**overrides) -> ServerConfig:
    """Tuning-enabled config that never touches the user-level cache file."""
    defaults = dict(
        tune_cache_path=None,
        tune_repeats=1,
        tune_min_time_s=0.0,
        tune_max_configs=None,
        tune_time_budget_s=None,
        tune_patience=None,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestHotSwap:
    def test_serves_immediately_then_swaps_off_scalar_baseline(
        self, trained_forest, test_rows
    ):
        rows = test_rows[:32]
        with ModelServer(fast_config()) as server:
            session = server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=rows, tune_space=SMALL_SPACE,
            )
            # The request path is live before the background tune settles.
            first = server.predict("m", rows)
            assert server.wait_for_tunes(timeout=120.0)
            snap = server.metrics_snapshot()["tuning"]
            assert snap["started"] == snap["completed"] == 1
            assert snap["failed"] == 0
            assert snap["hot_swaps"] == 1
            assert snap["last"]["swapped"] is True
            assert snap["last"]["explored"] == 4
            # The session now runs a grid schedule, not the scalar baseline.
            assert session.schedule != SCALAR
            assert session.schedule.loop_order == "one-tree"
            # Numerics are unchanged across the swap.
            assert np.allclose(server.predict("m", rows), first, rtol=1e-12)

    def test_synthetic_rows_when_sample_omitted(self, trained_forest):
        with ModelServer(fast_config()) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_space=SMALL_SPACE,
            )
            assert server.wait_for_tunes(timeout=120.0)
            assert server.metrics_snapshot()["tuning"]["completed"] == 1

    def test_unregistered_session_is_never_swapped(
        self, trained_forest, test_rows, monkeypatch
    ):
        """A tune whose session was unregistered mid-flight must not swap."""
        release = threading.Event()
        real = server_mod.autotune

        def gated(*args, **kwargs):
            release.wait(timeout=60.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "autotune", gated)
        with ModelServer(fast_config()) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=test_rows[:16], tune_space=SMALL_SPACE,
            )
            server.unregister("m")
            release.set()
            assert server.wait_for_tunes(timeout=120.0)
            snap = server.metrics_snapshot()["tuning"]
            assert snap["completed"] == 1
            assert snap["hot_swaps"] == 0
            assert snap["last"]["swapped"] is False

    def test_tune_failure_keeps_serving_on_baseline(
        self, trained_forest, test_rows, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("tuner exploded")

        monkeypatch.setattr(server_mod, "autotune", boom)
        with ModelServer(fast_config()) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=test_rows[:16],
            )
            assert server.wait_for_tunes(timeout=120.0)
            snap = server.metrics_snapshot()["tuning"]
            assert snap["failed"] == 1
            assert snap["hot_swaps"] == 0
            got = server.predict("m", test_rows[:16])
            assert np.allclose(
                got, trained_forest.predict(test_rows[:16]), rtol=1e-12
            )


class TestConcurrentLoad:
    def test_no_requests_dropped_or_double_counted_across_swap(
        self, trained_forest, test_rows
    ):
        rows = test_rows[:16]
        expected = trained_forest.predict(rows)
        n_threads, calls_per_thread = 8, 25
        errors: list[Exception] = []
        wrong: list[int] = []
        start = threading.Barrier(n_threads)

        with ModelServer(fast_config()) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=rows, tune_space=SMALL_SPACE,
            )

            def hammer(tid: int) -> None:
                start.wait()
                for i in range(calls_per_thread):
                    try:
                        got = server.predict("m", rows)
                    except Exception as exc:  # noqa: BLE001 - collected
                        errors.append(exc)
                    else:
                        if not np.allclose(got, expected, rtol=1e-12):
                            wrong.append(tid * 1000 + i)

            threads = [
                threading.Thread(target=hammer, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert server.wait_for_tunes(timeout=120.0)
            snap = server.metrics_snapshot()

        assert errors == []
        assert wrong == []
        assert snap["errors"] == 0
        # Exact accounting: every predict call is one request, no more.
        assert snap["requests"] == n_threads * calls_per_thread + 0
        assert snap["rows"] == n_threads * calls_per_thread * rows.shape[0]
        assert snap["tuning"]["completed"] == 1


class TestWarmRestart:
    def test_second_server_skips_search_and_still_swaps(
        self, trained_forest, test_rows, tmp_path
    ):
        rows = test_rows[:32]
        cache_path = str(tmp_path / "schedules.json")

        with ModelServer(fast_config(tune_cache_path=cache_path)) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=rows, tune_space=SMALL_SPACE,
            )
            assert server.wait_for_tunes(timeout=120.0)
            cold = server.metrics_snapshot()["tuning"]
            assert cold["last"]["from_cache"] is False
            assert cold["last"]["explored"] == 4
            winner = server.session("m").schedule

        # "Restart": a fresh server over the same persisted cache file.
        with ModelServer(fast_config(tune_cache_path=cache_path)) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=rows, tune_space=SMALL_SPACE,
            )
            assert server.wait_for_tunes(timeout=120.0)
            warm = server.metrics_snapshot()["tuning"]
            assert warm["cache_hits"] == 1
            assert warm["last"]["from_cache"] is True
            assert warm["last"]["explored"] == 0
            assert warm["last"]["swapped"] is True
            assert server.session("m").schedule == winner

    def test_different_batch_size_is_a_different_key(
        self, trained_forest, test_rows, tmp_path
    ):
        cache_path = str(tmp_path / "schedules.json")
        with ModelServer(fast_config(tune_cache_path=cache_path)) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=test_rows[:32], tune_space=SMALL_SPACE,
            )
            assert server.wait_for_tunes(timeout=120.0)
        with ModelServer(fast_config(tune_cache_path=cache_path)) as server:
            server.register(
                "m", trained_forest, SCALAR,
                tune=True, tune_rows=test_rows[:16], tune_space=SMALL_SPACE,
            )
            assert server.wait_for_tunes(timeout=120.0)
            snap = server.metrics_snapshot()["tuning"]
            assert snap["last"]["from_cache"] is False  # 16 != 32 rows


class TestLifecycle:
    def test_close_waits_out_pending_tunes(self, trained_forest, test_rows):
        server = ModelServer(fast_config())
        server.register(
            "m", trained_forest, SCALAR,
            tune=True, tune_rows=test_rows[:16], tune_space=SMALL_SPACE,
        )
        server.close()  # must not leave a tune running against a dead server
        assert server.wait_for_tunes(timeout=1.0)

    def test_register_after_close_rejected(self, trained_forest):
        server = ModelServer(fast_config())
        server.close()
        from repro.errors import ServingError

        with pytest.raises(ServingError):
            server.register("m", trained_forest, tune=True)
