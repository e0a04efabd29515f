"""Unit tests for codegen, the JIT, the interpreter, and the Predictor."""

import time

import numpy as np
import pytest

from repro.api import compile_model, predict
from repro.backend.codegen import emit_module_source, model_buffers
from repro.backend.interpreter import interpret_lir
from repro.backend.jit import (
    cache_limit,
    cache_size,
    clear_cache,
    compile_lir,
    compile_source,
    model_fingerprint,
    set_cache_limit,
)
from repro.backend.parallel import (
    MulticoreSimulator,
    parallel_predict,
    pool_stats,
    row_blocks,
    shutdown_pool,
)
from repro.config import Schedule
from repro.errors import CodegenError, ExecutionError
from repro.hir.ir import build_hir
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline


def lower(forest, schedule):
    hir = build_hir(forest, schedule)
    mir = run_mir_pipeline(lower_hir_to_mir(hir), hir)
    return lower_mir_to_lir(mir, hir)


class TestCodegen:
    def test_source_contains_walk_ops(self, trained_forest):
        lir = lower(trained_forest, Schedule())
        source = emit_module_source(lir)
        assert "def predict_block(rows, out, arena=None):" in source
        # The §V-A op sequence: loads, gather, compare, bit pack, LUT lookup
        # — each op writes into preallocated scratch.
        assert "_th.take(idx, 0, thr, 'clip')" in source
        assert "_fi.take(idx, 0, fidx, 'clip')" in source
        assert "_np.less(feat, thr, cmp)" in source
        # movemask analog at width 8: the multiplier is a prelude constant
        assert "_pm = _np.uint64(0x0102040810204080)\n" in source and "_ps = _np.uint64(56)\ndef predict_block" in source
        assert "_np.multiply(cv, _pm, pv)" in source
        assert "lut.take(sid, None, ci, 'clip')" in source

    def test_unrolled_source_has_no_while(self, trained_forest):
        lir = lower(trained_forest, Schedule(pad_and_unroll=True, pad_max_slack=99))
        source = emit_module_source(lir)
        assert "while" not in source

    def test_loop_source_has_guard(self, trained_forest):
        lir = lower(
            trained_forest, Schedule(pad_and_unroll=False, peel_walk=False)
        )
        source = emit_module_source(lir)
        assert "while act_r.size:" in source

    def test_one_row_order_loops_rows(self, trained_forest):
        lir = lower(trained_forest, Schedule(loop_order="one-row"))
        assert "for i in range(B):" in emit_module_source(lir)

    def test_namespace_has_buffers(self, trained_forest):
        lir = lower(trained_forest, Schedule())
        ns = model_buffers(lir)
        group_ids = [g.group_id for g in lir.groups if not g.trivial]
        assert all(f"g{gid}_th" in ns for gid in group_ids)
        assert "lut" in ns

    def test_array_layout_emits_arity_arithmetic(self, trained_forest):
        lir = lower(trained_forest, Schedule(layout="array", tile_size=2))
        assert "* 3 + ci + 1" in emit_module_source(lir)


class TestJIT:
    def test_compile_and_run(self, trained_forest, test_rows):
        lir = lower(trained_forest, Schedule())
        kernel, source = compile_lir(lir)
        out = np.full((len(test_rows), 1), lir.base_score)
        kernel(test_rows, out)
        assert np.allclose(out[:, 0], trained_forest.raw_predict(test_rows))

    def test_source_cache_reused(self, trained_forest):
        before = cache_size()
        lir = lower(trained_forest, Schedule())
        compile_lir(lir)
        mid = cache_size()
        compile_lir(lir)  # same source -> no new cache entry
        assert cache_size() == mid
        assert mid >= before

    def test_bad_source_raises_codegen_error(self):
        with pytest.raises(CodegenError):
            compile_source("def predict_block(:\n", {})

    def test_missing_function_rejected(self):
        with pytest.raises(CodegenError):
            compile_source("x = 1\n", {})

    def test_cache_is_bounded_lru(self):
        previous = set_cache_limit(4)
        try:
            assert cache_limit() == 4
            for i in range(10):
                compile_source(
                    f"def predict_block(rows, out):\n    return out  # v{i}\n", {}
                )
                assert cache_size() <= 4
            assert cache_size() == 4
        finally:
            set_cache_limit(previous)

    def test_cache_limit_trims_immediately(self):
        previous = set_cache_limit(8)
        try:
            for i in range(8):
                compile_source(
                    f"def predict_block(rows, out):\n    return out  # trim{i}\n", {}
                )
            set_cache_limit(2)
            assert cache_size() <= 2
        finally:
            set_cache_limit(previous)

    def test_cache_limit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_cache_limit(0)

    def test_compile_source_reports_real_hit_flag(self):
        clear_cache()
        _, hit = compile_source("def predict_block(rows, out):\n    return out\n", {})
        assert hit is False
        _, hit = compile_source("def predict_block(rows, out):\n    return out\n", {})
        assert hit is True

    def test_full_cache_miss_not_reported_as_hit(self):
        """Regression: at capacity, a miss that inserts+evicts leaves
        ``cache_size()`` unchanged and used to be reported as a hit."""
        previous = set_cache_limit(4)
        try:
            clear_cache()
            for i in range(cache_limit()):
                _, hit = compile_source(
                    f"def predict_block(rows, out):\n    return out  # fill{i}\n",
                    {},
                )
                assert hit is False
            assert cache_size() == cache_limit()
            fresh = "def predict_block(rows, out):\n    return out  # fresh\n"
            _, hit = compile_source(fresh, {})
            assert hit is False  # size stayed at capacity, but this compiled
            assert cache_size() == cache_limit()
            _, hit = compile_source(fresh, {})
            assert hit is True  # and a repeat is a genuine hit
        finally:
            set_cache_limit(previous)
            clear_cache()

    def test_compile_lir_trace_hit_flag_under_full_cache(self, trained_forest):
        from repro.observe.trace import CompilationTrace

        lir = lower(trained_forest, Schedule(tile_size=2, interleave=2))
        previous = set_cache_limit(2)
        try:
            clear_cache()
            for i in range(cache_limit()):
                compile_source(
                    f"def predict_block(rows, out):\n    return out  # pad{i}\n",
                    {},
                )
            trace = CompilationTrace()
            compile_lir(lir, trace=trace)
            assert trace.find("jit-compile").stats["code_cache_hit"] is False
            trace2 = CompilationTrace()
            compile_lir(lir, trace=trace2)
            assert trace2.find("jit-compile").stats["code_cache_hit"] is True
        finally:
            set_cache_limit(previous)
            clear_cache()

    def test_model_fingerprint_stable_and_schedule_sensitive(self, trained_forest):
        a = model_fingerprint(trained_forest, Schedule())
        b = model_fingerprint(trained_forest, Schedule())
        c = model_fingerprint(trained_forest, Schedule(tile_size=2))
        assert a == b
        assert a != c
        assert a != model_fingerprint(trained_forest)


class TestInterpreter:
    @pytest.mark.parametrize("layout", ["array", "sparse"])
    @pytest.mark.parametrize("tile_size", [1, 4])
    def test_matches_reference(self, trained_forest, test_rows, layout, tile_size):
        lir = lower(trained_forest, Schedule(layout=layout, tile_size=tile_size))
        got = interpret_lir(lir, test_rows[:32])[:, 0]
        assert np.allclose(got, trained_forest.raw_predict(test_rows[:32]), rtol=1e-12)

    def test_matches_compiled(self, deep_forest, test_rows):
        predictor = compile_model(deep_forest, Schedule(pad_and_unroll=False))
        got = interpret_lir(predictor.lir, test_rows[:16])[:, 0]
        assert np.allclose(got, predictor.raw_predict(test_rows[:16]), rtol=1e-12)

    def test_multiclass(self, multiclass_forest, test_rows):
        lir = lower(multiclass_forest, Schedule())
        got = interpret_lir(lir, test_rows[:16])
        assert np.allclose(got, multiclass_forest.raw_predict(test_rows[:16]), rtol=1e-12)


class TestPredictor:
    def test_matches_reference(self, trained_forest, test_rows):
        p = compile_model(trained_forest)
        assert np.allclose(
            p.raw_predict(test_rows), trained_forest.raw_predict(test_rows), rtol=1e-12
        )

    def test_objective_transform_applied(self, binary_forest, test_rows):
        p = compile_model(binary_forest)
        probs = p.predict(test_rows)
        assert ((probs >= 0) & (probs <= 1)).all()
        assert np.allclose(probs, binary_forest.predict(test_rows), rtol=1e-12)

    def test_nan_rejected(self, trained_forest, test_rows):
        p = compile_model(trained_forest)
        bad = test_rows.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ExecutionError, match="NaN"):
            p.raw_predict(bad)

    def test_nan_check_can_be_disabled(self, trained_forest, test_rows):
        p = compile_model(trained_forest, validate_inputs=False)
        bad = test_rows.copy()
        bad[0, 0] = np.nan
        p.raw_predict(bad)  # undefined result, but must not raise

    def test_wrong_width_rejected(self, trained_forest):
        p = compile_model(trained_forest)
        with pytest.raises(ExecutionError, match="rows"):
            p.raw_predict(np.zeros((4, 3)))

    def test_row_block_equivalent(self, trained_forest, test_rows):
        whole = compile_model(trained_forest).raw_predict(test_rows)
        blocked = compile_model(trained_forest, Schedule(row_block=17)).raw_predict(test_rows)
        assert np.allclose(whole, blocked, rtol=1e-12)

    def test_parallel_equivalent(self, trained_forest, test_rows):
        serial = compile_model(trained_forest).raw_predict(test_rows)
        parallel = compile_model(trained_forest, Schedule(parallel=4)).raw_predict(test_rows)
        assert np.allclose(serial, parallel, rtol=1e-12)

    def test_simulated_parallel(self, trained_forest, test_rows):
        p = compile_model(trained_forest)
        raw, seconds = p.predict_simulated_parallel(test_rows, cores=4)
        assert seconds > 0
        assert np.allclose(raw, trained_forest.raw_predict(test_rows), rtol=1e-12)

    def test_introspection(self, trained_forest):
        p = compile_model(trained_forest)
        assert "predict_block" in p.generated_source
        assert p.memory_bytes() > 0
        assert "group" in p.dump_ir()

    def test_convenience_predict(self, trained_forest, test_rows):
        got = predict(trained_forest, test_rows)
        assert np.allclose(got, trained_forest.predict(test_rows), rtol=1e-12)

    def test_empty_batch(self, trained_forest):
        p = compile_model(trained_forest)
        out = p.raw_predict(np.zeros((0, trained_forest.num_features)))
        assert out.shape == (0,)


class TestParallelRuntime:
    def test_row_blocks_cover(self):
        blocks = row_blocks(100, 7)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 100
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c

    def test_row_blocks_more_threads_than_rows(self):
        blocks = row_blocks(2, 8)
        assert len(blocks) == 2

    def test_parallel_predict_writes_disjoint(self):
        def kernel(rows, out):
            out[:] = rows.sum(axis=1, keepdims=True)

        rows = np.arange(20, dtype=np.float64).reshape(10, 2)
        out = np.zeros((10, 1))
        parallel_predict(kernel, rows, out, num_threads=3)
        assert np.allclose(out[:, 0], rows.sum(axis=1))

    def test_simulator_deterministic_result(self):
        def kernel(rows, out):
            out[:] = 1.0

        sim = MulticoreSimulator()
        rows = np.zeros((64, 2))
        out = np.zeros((64, 1))
        _, seconds = sim.run(kernel, rows, out, cores=4)
        assert (out == 1.0).all()
        assert seconds > 0

    def test_simulator_utilization_caps_cores(self):
        sim = MulticoreSimulator(utilization=0.25)
        calls = []

        def kernel(rows, out):
            calls.append(rows.shape[0])

        sim.run(kernel, np.zeros((64, 1)), np.zeros((64, 1)), cores=16)
        assert len(calls) == 4  # 16 * 0.25

    def test_row_blocks_zero_rows(self):
        assert row_blocks(0, 4) == []
        assert row_blocks(0, 1) == []

    def test_parallel_predict_zero_rows_skips_kernel(self):
        calls = []

        def kernel(rows, out):
            calls.append(rows.shape[0])

        out = np.zeros((0, 1))
        result = parallel_predict(kernel, np.zeros((0, 2)), out, num_threads=4)
        assert result is out
        assert calls == []

    def test_pool_is_persistent_across_calls(self):
        """Regression: parallel_predict must not spawn a pool per call."""

        def kernel(rows, out):
            out[:] = 1.0

        shutdown_pool()
        rows = np.zeros((32, 2))
        baseline = pool_stats()["pools_created"]
        for _ in range(5):
            parallel_predict(kernel, rows, np.zeros((32, 1)), num_threads=4)
        stats = pool_stats()
        assert stats["active"]
        assert stats["pools_created"] == baseline + 1  # one lazy creation, ever
        assert stats["workers"] >= 2

    def test_pool_reuses_worker_threads(self):
        """The same named worker threads service repeated calls."""
        import threading as _threading

        def kernel(rows, out):
            out[:] = rows.sum(axis=1, keepdims=True)

        shutdown_pool()
        rows = np.arange(64, dtype=np.float64).reshape(32, 2)
        parallel_predict(kernel, rows, np.zeros((32, 1)), num_threads=4)
        workers = {
            t.ident for t in _threading.enumerate()
            if t.name.startswith("repro-kernel")
        }
        assert workers
        for _ in range(4):
            parallel_predict(kernel, rows, np.zeros((32, 1)), num_threads=4)
        after = {
            t.ident for t in _threading.enumerate()
            if t.name.startswith("repro-kernel")
        }
        # Original workers survive every call (nothing is torn down per
        # call) and the population stays bounded by the pool's size.
        assert workers <= after
        assert len(after) <= pool_stats()["workers"]

    def test_pool_counts_submitted_tasks(self):
        def kernel(rows, out):
            out[:] = 0.0

        before = pool_stats()["tasks_submitted"]
        parallel_predict(kernel, np.zeros((30, 2)), np.zeros((30, 1)), num_threads=3)
        assert pool_stats()["tasks_submitted"] == before + 3

    def test_failure_waits_for_in_flight_siblings(self):
        """Regression: the first block's exception used to be re-raised while
        sibling tasks were still writing into ``out``. The exception must
        only surface after every sibling has settled."""
        import threading as _threading

        slow_started = _threading.Event()
        slow_finished = _threading.Event()

        def kernel(rows, out):
            if rows[0, 0] == 0:  # first block: fail, but only after the
                assert slow_started.wait(5.0)  # slow sibling is in flight
                raise ExecutionError("block zero exploded")
            slow_started.set()
            time.sleep(0.2)
            out[:] = 7.0
            slow_finished.set()

        rows = np.arange(12, dtype=np.float64).reshape(6, 2)
        out = np.zeros((6, 1))
        before = pool_stats()
        with pytest.raises(ExecutionError, match="block zero"):
            parallel_predict(kernel, rows, out, num_threads=2)
        # The slow sibling ran to completion *before* the raise reached us.
        assert slow_finished.is_set()
        assert (out[3:] == 7.0).all()
        after = pool_stats()
        delta_submitted = after["tasks_submitted"] - before["tasks_submitted"]
        settled = (
            (after["tasks_completed"] - before["tasks_completed"])
            + (after["tasks_failed"] - before["tasks_failed"])
            + (after["tasks_cancelled"] - before["tasks_cancelled"])
        )
        assert delta_submitted == 2
        assert settled == 2  # every submitted task is accounted for
        assert after["tasks_failed"] - before["tasks_failed"] == 1

    def test_failure_cancels_queued_siblings(self):
        """Blocks still sitting in the pool queue when an earlier block
        fails are cancelled, and the accounting invariant
        ``submitted == completed + failed + cancelled`` holds."""

        def kernel(rows, out):
            raise ExecutionError("every block fails")

        rows = np.arange(64, dtype=np.float64).reshape(32, 2)
        before = pool_stats()
        with pytest.raises(ExecutionError, match="every block"):
            parallel_predict(kernel, rows, np.zeros((32, 1)), num_threads=8)
        after = pool_stats()
        delta_submitted = after["tasks_submitted"] - before["tasks_submitted"]
        settled = (
            (after["tasks_completed"] - before["tasks_completed"])
            + (after["tasks_failed"] - before["tasks_failed"])
            + (after["tasks_cancelled"] - before["tasks_cancelled"])
        )
        assert delta_submitted == 8
        assert settled == 8
        assert after["tasks_failed"] - before["tasks_failed"] >= 1

    def test_shutdown_pool_allows_recreation(self):
        def kernel(rows, out):
            out[:] = 2.0

        shutdown_pool()
        assert not pool_stats()["active"]
        out = np.zeros((8, 1))
        parallel_predict(kernel, np.zeros((8, 2)), out, num_threads=2)
        assert (out == 2.0).all()
        assert pool_stats()["active"]

    def test_simulator_zero_rows(self):
        def kernel(rows, out):
            raise AssertionError("kernel must not run on empty input")

        sim = MulticoreSimulator()
        out, seconds = sim.run(kernel, np.zeros((0, 2)), np.zeros((0, 1)), cores=4)
        assert out.shape == (0, 1)
        assert seconds == 0.0
