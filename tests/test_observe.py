"""Tests for the ``repro.observe`` observability subsystem.

Covers the compilation trace (spans, stats, report, JSON), the kernel
profiling counters (zero-cost-when-off, differential correctness against
unprofiled kernels, schedule consistency, thread aggregation), the unified
registry (stable snapshot schema, serving integration, error isolation) and
the ``python -m repro.observe`` dump CLI.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import Schedule, compile_model, explain
from repro.lir.memory import ScratchArena
from repro.mir.ir import chunk_width
from repro.observe import (
    COUNTER_FIELDS,
    SNAPSHOT_KEYS,
    CompilationTrace,
    ProfileCounters,
    ProfileRecorder,
    Registry,
    registry,
)
from repro.observe.trace import jsonable

PIPELINE_SPANS = ("hir", "mir-lower", "mir-passes", "lir-lower", "backend")


# ----------------------------------------------------------------------
# Compilation traces
# ----------------------------------------------------------------------
class TestCompilationTrace:
    def test_compile_model_attaches_trace(self, trained_forest):
        predictor = compile_model(trained_forest, Schedule(tile_size=4))
        trace = predictor.trace
        assert trace is not None
        names = [child.name for child in trace.root.children]
        for span in PIPELINE_SPANS:
            assert span in names
        assert trace.total_seconds > 0.0

    def test_span_durations_nested_and_nonnegative(self, trained_forest):
        trace = compile_model(trained_forest, Schedule()).trace
        hir = trace.find("hir")
        assert hir.duration_s >= 0.0
        # nested passes sum to no more than the enclosing span
        child_total = sum(c.duration_s for c in hir.children)
        assert child_total <= hir.duration_s + 1e-6
        assert {c.name for c in hir.children} >= {"tiling", "padding", "reorder"}

    def test_tiling_stats_recorded(self, trained_forest):
        trace = compile_model(trained_forest, Schedule(tile_size=8)).trace
        stats = trace.find("tiling").stats
        assert stats["tile_size"] == 8
        assert stats["num_trees"] == trained_forest.num_trees
        assert stats["tiles_per_tree"]["count"] == trained_forest.num_trees
        assert sum(stats["tile_shape_hist"].values()) > 0
        # tiling shortens walks: tile levels <= node levels
        assert (
            stats["leaf_tile_depth_after"]["mean"]
            <= stats["tree_depth_before"]["mean"]
        )

    def test_padding_and_layout_stats(self, deep_forest):
        trace = compile_model(
            deep_forest, Schedule(tile_size=8, pad_and_unroll=True)
        ).trace
        pad = trace.find("padding").stats
        assert pad["total_tiles"] >= pad["dummy_tiles"] >= 0
        assert 0.0 <= pad["dummy_fraction"] <= 1.0
        layout = trace.find("layout").stats
        assert layout["model_bytes"] > 0
        assert layout["lut_bytes"] > 0

    def test_report_and_json_roundtrip(self, trained_forest):
        trace = compile_model(trained_forest, Schedule()).trace
        report = trace.report()
        for span in ("tiling", "codegen-emit", "jit-compile"):
            assert span in report
        doc = json.loads(trace.to_json())
        assert doc["name"] == "compile"
        assert isinstance(doc["children"], list)

    def test_jsonable_coerces_numpy(self):
        value = jsonable(
            {"a": np.int64(3), "b": np.float32(0.5), "c": np.arange(3), 4: "x"}
        )
        assert json.loads(json.dumps(value)) == {
            "a": 3,
            "b": 0.5,
            "c": [0, 1, 2],
            "4": "x",
        }

    def test_standalone_trace_spans(self):
        trace = CompilationTrace(label="t")
        with trace.span("outer"):
            with trace.span("inner") as span:
                span.stats["k"] = 1
        trace.finish()
        assert trace.find("inner").stats == {"k": 1}
        assert trace.find("inner") in trace.find("outer").children


# ----------------------------------------------------------------------
# Kernel profiling counters
# ----------------------------------------------------------------------
GRID = [
    Schedule.scalar_baseline(),
    Schedule(tile_size=4, tiling="basic", layout="array"),
    Schedule(tile_size=8, tiling="hybrid", layout="sparse"),
    Schedule(tile_size=8, tiling="hybrid", layout="sparse", compact_walks=True),
    Schedule(tile_size=8, tiling="hybrid", layout="sparse", peel_walk=False),
    Schedule(tile_size=8, loop_order="one-row"),
]


class TestProfileCounters:
    @pytest.mark.parametrize("schedule", GRID, ids=lambda s: (
        f"t{s.tile_size}-{s.tiling}-{s.layout}-{s.loop_order}"
        f"{'-compact' if s.compact_walks else ''}{'' if s.peel_walk else '-nopeel'}"
    ))
    def test_profiled_predictions_bit_identical(
        self, trained_forest, test_rows, schedule
    ):
        # profiling is a NumPy emission: its bitwise twin is the NumPy kernel
        plain = compile_model(trained_forest, schedule.with_(backend="numpy_jit"))
        profiled = compile_model(trained_forest, schedule.with_(profile=True))
        expected = plain.raw_predict(test_rows)
        got = profiled.raw_predict(test_rows)
        assert np.array_equal(expected, got)
        counters = profiled.profile_counters()
        assert counters["kernel_calls"] >= 1
        assert counters["rows"] == test_rows.shape[0]
        assert counters["walk_steps"] > 0

    def test_unprofiled_source_has_no_instrumentation(
        self, trained_forest
    ):
        predictor = compile_model(trained_forest, Schedule(tile_size=8))
        source = predictor.generated_source
        for token in ("_C", "_P", "walk_steps", "lut_lookups", "rows_masked"):
            assert token not in source
        assert predictor.profile_counters() == {}

    def test_profiled_source_contains_instrumentation(self, trained_forest):
        predictor = compile_model(
            trained_forest, Schedule(tile_size=8, profile=True)
        )
        source = predictor.generated_source
        assert "_C = _P.local()" in source
        assert "_C.walk_steps" in source

    def test_tiled_walks_fewer_steps_than_untiled(
        self, trained_forest, test_rows
    ):
        untiled = compile_model(
            trained_forest, Schedule.scalar_baseline().with_(profile=True)
        )
        tiled = compile_model(
            trained_forest, Schedule(tile_size=8, profile=True)
        )
        untiled.raw_predict(test_rows)
        tiled.raw_predict(test_rows)
        steps_untiled = untiled.profile_counters()["walk_steps"]
        steps_tiled = tiled.profile_counters()["walk_steps"]
        assert 0 < steps_tiled < steps_untiled

    @pytest.mark.parametrize("precision", ["float64", "int8"])
    def test_scratch_bytes_counts_the_bound_views(self, trained_forest, precision):
        """A fully unrolled batch binds each chunk's scratch views once: the
        counter is the bytes of the distinct arena buffers behind the views
        ``ArenaSpec.scratch_views`` declares (``cv``/``bits``/``lidx``/
        ``vals`` alias other views' buffers and bind nothing new)."""
        batch = 16
        predictor = compile_model(
            trained_forest,
            Schedule(pad_max_slack=99, precision=precision, profile=True),
        )
        assert "while" not in predictor.source
        predictor.raw_predict(
            np.random.default_rng(3).normal(size=(batch, trained_forest.num_features))
        )
        spec, lir = predictor.arena_spec, predictor.lir
        arena = ScratchArena(spec).ensure(batch)
        buffers = [attr for attr, _ in spec.scratch_views().values()]
        expected = 0
        for group in lir.groups:
            if group.trivial:
                continue
            trees = group.layout.num_trees
            step = chunk_width(
                batch, max(1, group.walk.width), trees, lir.lane_budget(group.group_id)
            )
            for c0 in range(0, trees, step):
                *views, _mm = arena.bind((batch, min(step, trees - c0)))
                # first view of each buffer wins: it is the widest one
                first = dict(reversed(list(zip(buffers, views))))
                expected += sum(view.nbytes for view in first.values())
        assert expected > 0
        assert predictor.profile_counters()["scratch_bytes"] == expected

    def test_reset_profile_zeroes_counters(self, trained_forest, test_rows):
        predictor = compile_model(trained_forest, Schedule(profile=True))
        predictor.raw_predict(test_rows)
        assert predictor.profile_counters()["rows"] == test_rows.shape[0]
        predictor.reset_profile()
        assert predictor.profile_counters()["rows"] == 0
        predictor.raw_predict(test_rows[:16])
        assert predictor.profile_counters()["rows"] == 16

    def test_parallel_threads_aggregate(self, trained_forest):
        rows = np.random.default_rng(1).normal(
            size=(256, trained_forest.num_features)
        )
        schedule = Schedule(tile_size=4, parallel=4, row_block=32, profile=True)
        predictor = compile_model(trained_forest, schedule)
        expected = compile_model(
            trained_forest, schedule.with_(profile=False, backend="numpy_jit")
        ).raw_predict(rows)
        got = predictor.raw_predict(rows)
        assert np.array_equal(expected, got)
        counters = predictor.profile_counters()
        assert counters["rows"] == rows.shape[0]
        assert predictor.profile_recorder.num_threads >= 1

    def test_counters_struct(self):
        c = ProfileCounters()
        assert c.as_dict() == {name: 0 for name in COUNTER_FIELDS}
        c.walk_steps += 5
        assert c.as_dict()["walk_steps"] == 5
        c.clear()
        assert c.as_dict()["walk_steps"] == 0

    def test_recorder_thread_isolation(self):
        recorder = ProfileRecorder(label="iso")
        errors = []

        def worker(n):
            try:
                local = recorder.local()
                for _ in range(n):
                    local.walk_steps += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(1000,)) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert recorder.aggregate()["walk_steps"] == 8000
        assert recorder.num_threads == 8
        recorder.reset()
        assert recorder.aggregate()["walk_steps"] == 0

    def test_thread_churn_keeps_struct_list_bounded(self):
        # Regression: one struct per thread that *ever* existed grew the
        # recorder without bound under kernel-pool churn. Exited threads
        # must fold into the retired total and drop their structs.
        recorder = ProfileRecorder(label="churn")

        def worker():
            recorder.local().walk_steps += 1

        for _ in range(50):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert recorder.aggregate()["walk_steps"] == 50
        assert recorder.num_threads == 50
        assert len(recorder._threads) == 0  # all churned threads retired

    def test_reset_races_registration(self):
        # Regression: reset() used to snapshot the thread list and clear
        # outside one lock hold, so a thread registering concurrently
        # could carry pre-reset counts into the after-measurement.
        recorder = ProfileRecorder(label="race")
        stop = threading.Event()
        errors: list[Exception] = []

        def bump():
            try:
                while not stop.is_set():
                    recorder.local().walk_steps += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def resetter():
            try:
                for _ in range(300):
                    recorder.reset()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        bumpers = [threading.Thread(target=bump) for _ in range(4)]
        racer = threading.Thread(target=resetter)
        for t in bumpers:
            t.start()
        racer.start()
        racer.join()
        stop.set()
        for t in bumpers:
            t.join()
        assert not errors
        recorder.reset()
        assert recorder.aggregate()["walk_steps"] == 0

    def test_released_predictor_vanishes_from_global_aggregate(
        self, trained_forest, test_rows
    ):
        # Regression: the kernel namespace held a strong reference to the
        # recorder (namespace ↔ function cycle), so predictors evicted
        # from a PredictorCache kept reporting in aggregate_all() forever.
        import gc

        from repro.observe.profile import aggregate_all

        predictor = compile_model(trained_forest, Schedule(profile=True))
        predictor.raw_predict(test_rows)
        label = predictor.profile_recorder.label
        assert label in aggregate_all()["recorders"]
        del predictor
        gc.collect()
        assert label not in aggregate_all()["recorders"]

    def test_evicted_profiled_predictor_leaves_registry(
        self, trained_forest, test_rows
    ):
        import gc

        from repro.observe.profile import aggregate_all
        from repro.serve.cache import PredictorCache

        cache = PredictorCache(capacity=1)
        predictor = compile_model(trained_forest, Schedule(profile=True))
        predictor.raw_predict(test_rows)
        label = predictor.profile_recorder.label
        cache.put("a", predictor)
        del predictor
        gc.collect()
        assert label in aggregate_all()["recorders"]  # cache keeps it live
        cache.put("b", object())  # capacity 1: evicts the predictor
        gc.collect()
        assert label not in aggregate_all()["recorders"]


# ----------------------------------------------------------------------
# explain()
# ----------------------------------------------------------------------
class TestExplain:
    def test_explain_reports_decisions(self, trained_forest):
        report = explain(trained_forest, Schedule(tile_size=8))
        assert "schedule decision report" in report
        assert "-- tiling" in report
        assert "-- padding" in report
        assert "-- memory" in report
        assert "tile levels" in report

    def test_explain_with_profiled_predictor(self, trained_forest, test_rows):
        predictor = compile_model(
            trained_forest, Schedule(tile_size=8, profile=True)
        )
        predictor.raw_predict(test_rows)
        report = explain(trained_forest, predictor=predictor)
        assert "-- kernel profile" in report
        assert "walk_steps" in report


# ----------------------------------------------------------------------
# The unified registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_snapshot_schema_is_stable(self):
        snap = Registry().snapshot()
        assert tuple(snap.keys()) == SNAPSHOT_KEYS
        assert snap["schema_version"] == 5
        assert SNAPSHOT_KEYS == (
            "schema_version",
            "kernel_pool",
            "traces",
            "profiles",
            "tunes",
            "backends",
            "serving",
            "spans",
            "events",
            "gauges",
        )
        # the v5 keys are structured rings, present even when empty
        assert set(snap["spans"]) >= {"recorded", "kept", "recent"}
        assert set(snap["events"]) >= {"recorded", "kept", "by_kind", "recent"}

    def test_backend_events_accumulate(self):
        reg = Registry()
        reg.record_backend_event("numpy_jit", "compiles")
        reg.record_backend_event("numpy_jit", "compiles", 2)
        reg.record_backend_event("aot_export", "artifact_loads")
        snap = reg.snapshot()
        assert snap["backends"] == {
            "numpy_jit": {"compiles": 3},
            "aot_export": {"artifact_loads": 1},
        }
        reg.clear()
        assert reg.snapshot()["backends"] == {}

    def test_tune_ring_records_and_bounds(self):
        reg = Registry()
        for i in range(40):
            reg.record_tune({"explored": i})
        snap = reg.snapshot()
        assert snap["tunes"]["recorded"] == 40
        assert snap["tunes"]["kept"] == 32
        assert snap["tunes"]["recent"][-1]["explored"] == 39
        reg.clear()
        assert reg.snapshot()["tunes"]["recorded"] == 0

    def test_global_registry_snapshot_schema(self):
        snap = registry.snapshot()
        assert tuple(snap.keys()) == SNAPSHOT_KEYS

    def test_export_json_valid(self, trained_forest):
        compile_model(trained_forest, Schedule())  # record at least one trace
        doc = json.loads(registry.export_json())
        assert doc["traces"]["recorded"] >= 1
        assert doc["traces"]["kept"] <= doc["traces"]["recorded"]
        assert doc["traces"]["recent"][-1]["name"] == "compile"
        assert "tasks_submitted" in doc["kernel_pool"]

    def test_trace_ring_is_bounded(self, trained_forest):
        reg = Registry(trace_capacity=2)
        for _ in range(5):
            trace = CompilationTrace()
            trace.finish()
            reg.record_trace(trace)
        snap = reg.snapshot()
        assert snap["traces"]["recorded"] == 5
        assert snap["traces"]["kept"] == 2

    def test_server_registers_and_unregisters(self, trained_forest, test_rows):
        from repro.serve import ModelServer

        server = ModelServer()
        name = server._registry_name
        try:
            server.register("m", trained_forest, Schedule(tile_size=4))
            server.predict("m", test_rows)
            serving = registry.snapshot()["serving"]
            assert name in serving
            assert serving[name]["requests"] >= 1
            assert serving[name]["latency"]["count"] >= 1
        finally:
            server.close()
        assert name not in registry.snapshot()["serving"]

    def test_failing_provider_reports_error_string(self):
        reg = Registry()
        reg.register_gauge("ok", lambda: 42)
        reg.register_gauge("bad", lambda: 1 / 0)
        reg.register_serving("down", lambda: (_ for _ in ()).throw(RuntimeError("x")))
        snap = reg.snapshot()
        assert snap["gauges"]["ok"] == 42
        assert str(snap["gauges"]["bad"]).startswith("<error:")
        assert str(snap["serving"]["down"]).startswith("<error:")
        json.loads(reg.export_json())  # errors must stay serializable

    def test_failing_provider_does_not_poison_siblings_or_schema(self):
        # One raising provider must leave every sibling gauge readable and
        # the top-level schema intact — across repeated snapshots (the
        # failure must not latch) and with several failure flavors.
        reg = Registry()
        reg.register_gauge("before", lambda: 1)
        reg.register_gauge("div", lambda: 1 / 0)
        reg.register_gauge("key", lambda: {}["missing"])
        reg.register_gauge("typ", lambda: len(None))
        reg.register_gauge("after", lambda: {"nested": [1, 2]})
        for _ in range(3):
            snap = reg.snapshot()
            assert tuple(snap.keys()) == SNAPSHOT_KEYS
            assert snap["gauges"]["before"] == 1
            assert snap["gauges"]["after"] == {"nested": [1, 2]}
            assert str(snap["gauges"]["div"]).startswith("<error:")
            assert str(snap["gauges"]["key"]).startswith("<error:")
            assert str(snap["gauges"]["typ"]).startswith("<error:")
        # recovery: replacing the provider clears the error on the next read
        reg.register_gauge("div", lambda: 7)
        assert reg.snapshot()["gauges"]["div"] == 7
        json.loads(reg.export_json())

    def test_profiles_section_aggregates(self, trained_forest, test_rows):
        predictor = compile_model(trained_forest, Schedule(profile=True))
        predictor.raw_predict(test_rows)
        profiles = registry.snapshot()["profiles"]
        assert predictor.profile_recorder.label in profiles["recorders"]
        assert profiles["totals"]["walk_steps"] > 0


# ----------------------------------------------------------------------
# Dump CLI
# ----------------------------------------------------------------------
class TestDumpCli:
    def test_main_writes_valid_snapshot(self, tmp_path, capsys):
        from repro.observe.__main__ import main

        out = tmp_path / "trace.json"
        rc = main(
            ["--rows", "32", "--requests", "2", "--profile", "--output", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert tuple(doc.keys()) == SNAPSHOT_KEYS
        assert doc["profiles"]["totals"]["rows"] >= 64
        printed = json.loads(capsys.readouterr().out)
        assert printed["schema_version"] == doc["schema_version"]


# ----------------------------------------------------------------------
# Experiment harness trace recording
# ----------------------------------------------------------------------
class TestHarnessTraces:
    def test_record_schedule_trace(self, tmp_path, trained_forest):
        from repro.experiments.harness import (
            ExperimentConfig,
            record_schedule_trace,
        )

        predictor = compile_model(trained_forest, Schedule(tile_size=4))
        config = ExperimentConfig(record_traces=True, trace_dir=str(tmp_path))
        path = record_schedule_trace(config, "bench", "t4/basic", predictor)
        assert path is not None and path.endswith(".trace.json")
        doc = json.loads(open(path).read())
        assert doc["name"] == "compile"
        # off by default: no writes, no error
        assert (
            record_schedule_trace(
                ExperimentConfig(), "bench", "t4", predictor
            )
            is None
        )
