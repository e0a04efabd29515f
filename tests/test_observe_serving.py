"""Tests for the serving observability stack added with schema v5.

Covers request span trees (:mod:`repro.observe.spans`), the flight
recorder (:mod:`repro.observe.events`), the OpenMetrics exporter and its
strict parser (:mod:`repro.observe.export`), the HTTP /metrics endpoint,
the end-to-end ``ModelServer`` integration (sampling, stage coverage, the
stage-sum-equals-latency invariant, zero-overhead-when-off) and the
``python -m repro.observe`` subcommands.
"""

from __future__ import annotations

import json
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.config import Schedule
from repro.errors import ExecutionError, ServingError
from repro.observe import parse_openmetrics, registry, render_openmetrics
from repro.observe.events import FlightRecorder, format_event
from repro.observe.events import recorder as flight_recorder
from repro.observe.export import (
    OPENMETRICS_CONTENT_TYPE,
    start_metrics_server,
)
from repro.observe.spans import RING, RequestTrace, RequestTracer, SpanRing
from repro.serve import BatchingPolicy, ModelServer, ServerConfig

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _clean_rings():
    """Each test sees an empty span ring and flight recorder."""
    RING.clear()
    flight_recorder.clear()
    yield
    RING.clear()
    flight_recorder.clear()


# ----------------------------------------------------------------------
# RequestTrace / SpanRing / RequestTracer
# ----------------------------------------------------------------------
class TestRequestTrace:
    def test_stages_are_contiguous_and_sum_exactly(self):
        trace = RequestTrace(model="m", rows=8, started_s=100.0)
        trace.stage("admission", now=100.5)
        trace.stage("kernel", now=102.0)
        trace.stage("aggregate", now=102.25)
        trace.finish()
        assert trace.duration_s == pytest.approx(2.25)
        assert sum(d for _n, _s, d in trace.stages) == pytest.approx(
            trace.duration_s
        )
        # each stage starts where the previous ended
        assert trace.stages[0][1] == 0.0
        assert trace.stages[1][1] == pytest.approx(0.5)
        assert trace.stages[2][1] == pytest.approx(2.0)

    def test_to_dict_is_json_serializable(self):
        trace = RequestTrace(model="m", rows=4)
        trace.stage("kernel")
        trace.finish(error="boom")
        doc = json.loads(json.dumps(trace.to_dict()))
        assert doc["model"] == "m" and doc["rows"] == 4
        assert doc["error"] == "boom"
        assert doc["stages"][0]["name"] == "kernel"
        assert doc["trace_id"].startswith("req-")

    def test_stage_seconds_merges_repeats(self):
        trace = RequestTrace(started_s=0.0)
        trace.stage("a", now=1.0)
        trace.stage("b", now=2.0)
        trace.stage("a", now=4.0)
        assert trace.stage_seconds() == {"a": 3.0, "b": 1.0}

    def test_finish_without_stages_uses_clock(self):
        trace = RequestTrace()
        time.sleep(0.001)
        trace.finish()
        assert trace.duration_s > 0.0


class TestSpanRing:
    def test_bounded_with_lifetime_count(self):
        ring = SpanRing(capacity=3)
        for i in range(7):
            ring.record(RequestTrace(model=f"m{i}").finish())
        snap = ring.snapshot()
        assert snap["recorded"] == 7
        assert snap["kept"] == 3
        assert [t["model"] for t in snap["recent"]] == ["m4", "m5", "m6"]
        assert len(ring.recent(2)) == 2
        ring.clear()
        assert ring.snapshot() == {"recorded": 0, "kept": 0, "recent": []}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanRing(capacity=0)


class TestRequestTracer:
    def test_sample_one_traces_everything(self):
        tracer = RequestTracer(1.0, ring=SpanRing())
        traces = [tracer.maybe_trace("m") for _ in range(50)]
        assert all(t is not None for t in traces)
        assert tracer.stats()["sampled"] == 50

    def test_stride_sampling_is_even_and_deterministic(self):
        tracer = RequestTracer(0.25, ring=SpanRing())
        picks = [tracer.maybe_trace() is not None for _ in range(400)]
        assert sum(picks) == 100  # exactly a quarter
        # evenly spaced: every window of 4 holds exactly one sample
        for i in range(0, 400, 4):
            assert sum(picks[i : i + 4]) == 1

    def test_invalid_rates_rejected(self):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                RequestTracer(rate)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_events_bounded_and_counted_by_kind(self):
        rec = FlightRecorder(capacity=4)
        for i in range(6):
            rec.record("compile", model=f"m{i}")
        rec.record("error", model="x", error="boom")
        snap = rec.snapshot()
        assert snap["recorded"] == 7
        assert snap["kept"] == 4
        assert snap["by_kind"] == {"compile": 3, "error": 1}
        assert snap["recent"][-1]["kind"] == "error"
        # seq is strictly increasing across kinds
        seqs = [e["seq"] for e in snap["recent"]]
        assert seqs == sorted(seqs)

    def test_tail_filters_by_kind(self):
        rec = FlightRecorder()
        rec.record("compile", model="a")
        rec.record("hot_swap", model="a")
        rec.record("compile", model="b")
        assert [e["model"] for e in rec.tail(kind="compile")] == ["a", "b"]
        assert len(rec.tail(n=1)) == 1

    def test_jsonl_mirror_and_dump(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder()
        rec.record("before_attach")
        rec.attach_file(str(path))
        assert rec.file_path == str(path)
        rec.record("compile", model="m")
        rec.record("tune", explored=3)
        rec.detach_file()
        rec.record("after_detach")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["kind"] for e in lines] == ["compile", "tune"]
        dump = tmp_path / "dump.jsonl"
        assert rec.dump_jsonl(str(dump)) == 4
        kinds = [json.loads(l)["kind"] for l in dump.read_text().splitlines()]
        assert kinds == ["before_attach", "compile", "tune", "after_detach"]

    def test_format_event_is_one_line(self):
        line = format_event(
            {"seq": 3, "ts": 0.0, "kind": "hot_swap", "model": "m", "x": 1}
        )
        assert "\n" not in line
        assert "hot_swap" in line and "model=m" in line and "x=1" in line


# ----------------------------------------------------------------------
# OpenMetrics exporter + parser
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def test_empty_registry_renders_valid_document(self):
        text = render_openmetrics(
            {"schema_version": 5, "serving": {}, "gauges": {}}
        )
        families = parse_openmetrics(text)
        assert families["repro_observe_schema_version"]["type"] == "gauge"
        assert text.endswith("# EOF\n")

    def test_live_snapshot_renders_and_parses(self, trained_forest, test_rows):
        with ModelServer(ServerConfig(trace_sample=1.0)) as server:
            server.register("m", trained_forest, Schedule(tile_size=4))
            for _ in range(3):
                server.predict("m", test_rows)
            families = parse_openmetrics(render_openmetrics())
        name = "repro_serving_requests"
        assert families[name]["type"] == "counter"
        [(suffix, labels, value)] = families[name]["samples"]
        assert suffix == "_total"
        assert value == 3.0 and "server" in labels
        # histograms made it out with the full bucket convention
        hist = families["repro_serving_latency_seconds"]
        assert hist["type"] == "histogram"
        suffixes = {suffix for suffix, _labels, _value in hist["samples"]}
        assert suffixes == {"_bucket", "_sum", "_count"}
        # span/event ring counters are present
        [(_sfx, _lbl, spans_total)] = families["repro_request_spans"]["samples"]
        assert spans_total == 3.0

    def test_error_string_providers_are_skipped(self):
        snap = {
            "schema_version": 5,
            "kernel_pool": "<error: down>",
            "serving": {"s": "<error: down>"},
            "gauges": {"g": "<error: down>", "ok": 2},
        }
        families = parse_openmetrics(render_openmetrics(snap))
        gauge_samples = families["repro_gauge"]["samples"]
        assert [
            (labels["name"], value) for _suffix, labels, value in gauge_samples
        ] == [("ok", 2.0)]

    @pytest.mark.parametrize(
        "hist,count,total",
        [
            ({"buckets": {"+Inf": 1}, "count": "n/a"}, 1.0, 0.0),
            ({"buckets": {"+Inf": 2}, "count": 2, "sum": None}, 2.0, 0.0),
            ({"buckets": "n/a", "count": 4, "sum": 1.5}, 4.0, 1.5),
        ],
    )
    def test_malformed_provider_histogram_renders(self, hist, count, total):
        """A custom serving provider's malformed histogram cannot take the
        exposition down: its unreadable parts render as if absent."""
        registry.register_serving(
            "malformed", lambda: {"histograms": {"latency_seconds": hist}}
        )
        try:
            families = parse_openmetrics(render_openmetrics())
        finally:
            registry.unregister("malformed")
        samples = {
            suffix: value
            for suffix, labels, value in families["repro_serving_latency_seconds"]["samples"]
            if labels.get("server") == "malformed"
        }
        assert samples["_count"] == count and samples["_sum"] == total

    def test_golden_exposition(self):
        """Every family, failed providers, non-dict slots and missing keys:
        the rendered document is pinned byte for byte."""
        snap = json.loads((DATA / "openmetrics_snapshot.json").read_text())
        text = render_openmetrics(snap)
        assert text == (DATA / "openmetrics_golden.txt").read_text()
        parse_openmetrics(text)

    def test_serving_counters_declared_once(self):
        """The metric table is the only list of serving counters: each one
        is in a fresh snapshot and in a fresh server's exposition, and an
        undeclared counter cannot be bumped."""
        from repro.observe.export import METRICS, SERVING_COUNTERS
        from repro.serve.metrics import ServingMetrics

        snap = ServingMetrics().snapshot()
        for name in SERVING_COUNTERS:
            node = snap
            for key in name.split("."):
                node = node[key]
            assert node == 0, name
        serving_rows = [
            row for row in METRICS
            if row[0].startswith("repro_serving_") and "runtime" not in row[3]
        ]
        for _name, mtype, _help, path in serving_rows:
            if mtype == "histogram":
                assert path[-1] in snap["histograms"]
        with ModelServer():
            families = parse_openmetrics(render_openmetrics())
        declared = {
            name for name, mtype, _help, _path in serving_rows
            if mtype in ("counter", "histogram")
        }
        assert declared - set(families) == set()
        with pytest.raises(KeyError):
            ServingMetrics().count("no_such_counter")

    def test_parser_rejects_malformed_documents(self):
        good = render_openmetrics({"schema_version": 5})
        parse_openmetrics(good)
        with pytest.raises(ValueError):
            parse_openmetrics(good.replace("# EOF\n", ""))  # no terminator
        with pytest.raises(ValueError):
            parse_openmetrics("repro_x{bad-label=\"1\"} 1\n# EOF\n")
        with pytest.raises(ValueError):
            parse_openmetrics("# TYPE repro_x bogus\n# EOF\n")
        with pytest.raises(ValueError):  # counter sample without _total
            parse_openmetrics(
                "# TYPE repro_x counter\nrepro_x 1\n# EOF\n"
            )
        with pytest.raises(ValueError):  # non-cumulative histogram buckets
            parse_openmetrics(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1.0"} 5\n'
                'repro_h_bucket{le="+Inf"} 3\n'
                "repro_h_count 3\n"
                "# EOF\n"
            )

    def test_http_endpoint_serves_exposition(self, trained_forest, test_rows):
        with ModelServer(ServerConfig(trace_sample=1.0)) as server:
            server.register("m", trained_forest)
            server.predict("m", test_rows)
            httpd = start_metrics_server(port=0)
            try:
                host, port = httpd.server_address[:2]
                with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics"
                ) as resp:
                    assert resp.status == 200
                    assert resp.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
                    families = parse_openmetrics(resp.read().decode())
                assert "repro_serving_requests" in families
                with urllib.request.urlopen(
                    f"http://{host}:{port}/snapshot"
                ) as resp:
                    doc = json.loads(resp.read().decode())
                assert doc["schema_version"] == 5
                with pytest.raises(urllib.error.HTTPError):
                    urllib.request.urlopen(f"http://{host}:{port}/nope")
            finally:
                httpd.shutdown()


# ----------------------------------------------------------------------
# End-to-end serving integration
# ----------------------------------------------------------------------
class TestServerTracing:
    def test_every_request_traced_at_sample_one(self, trained_forest, test_rows):
        with ModelServer(ServerConfig(trace_sample=1.0)) as server:
            server.register("m", trained_forest, Schedule(tile_size=4))
            for _ in range(5):
                server.predict("m", test_rows)
        snap = RING.snapshot()
        assert snap["recorded"] == 5
        for trace in snap["recent"]:
            assert trace["model"] == "m"
            assert trace["rows"] == test_rows.shape[0]
            assert [s["name"] for s in trace["stages"]] == [
                "admission",
                "kernel",
                "aggregate",
            ]

    def test_batched_requests_get_queue_stages(self, trained_forest, test_rows):
        cfg = ServerConfig(
            trace_sample=1.0, batching=BatchingPolicy(max_delay_s=0.001)
        )
        with ModelServer(cfg) as server:
            server.register("m", trained_forest)
            server.predict("m", test_rows)
        [trace] = RING.snapshot()["recent"]
        assert [s["name"] for s in trace["stages"]] == [
            "admission",
            "queue_wait",
            "assemble",
            "kernel",
            "aggregate",
        ]

    def test_submitted_requests_are_traced(self, trained_forest, test_rows):
        """Open-loop ``session.submit`` traffic gets the same span tree as
        ``predict``, closed by the clock read that records its latency."""
        cfg = ServerConfig(trace_sample=1.0, batching=BatchingPolicy())
        with ModelServer(cfg) as server:
            server.register("m", trained_forest)
            session = server.session("m")
            session.submit(test_rows[:1]).result(timeout=5.0)
            with pytest.raises(ExecutionError, match="NaN"):
                session.submit(np.full_like(test_rows[:1], np.nan)).result(timeout=5.0)
        # close() joined the batcher worker, which runs the done-callbacks
        ok, failed = RING.snapshot()["recent"]
        assert [s["name"] for s in ok["stages"]] == [
            "admission",
            "queue_wait",
            "assemble",
            "kernel",
            "aggregate",
        ]
        assert ok["model"] == "m" and ok["rows"] == 1 and ok["error"] is None
        latency_ms = server.metrics.snapshot()["histograms"]["latency_seconds"]["sum"] * 1e3
        assert sum(s["duration_ms"] for s in ok["stages"]) == pytest.approx(latency_ms, abs=1e-5)
        assert ok["duration_ms"] == pytest.approx(latency_ms, abs=1e-5)
        assert "NaN" in failed["error"]
        assert [s["name"] for s in failed["stages"]] == ["admission", "queue_wait"]

    def test_stage_durations_sum_to_request_latency(
        self, trained_forest, test_rows
    ):
        with ModelServer(ServerConfig(trace_sample=1.0)) as server:
            server.register("m", trained_forest)
            for _ in range(3):
                server.predict("m", test_rows)
            latencies = server.metrics.snapshot()["latency"]
        for trace in RING.snapshot()["recent"]:
            stage_sum = sum(s["duration_ms"] for s in trace["stages"])
            # acceptance bound is 5%; the mark design makes it exact
            assert stage_sum == pytest.approx(trace["duration_ms"], rel=0.05)
        # the root span measures the same thing the latency window does
        assert latencies["count"] == 3

    def test_sampling_rate_is_honored(self, trained_forest, test_rows):
        with ModelServer(ServerConfig(trace_sample=0.5)) as server:
            server.register("m", trained_forest)
            for _ in range(10):
                server.predict("m", test_rows)
        assert RING.snapshot()["recorded"] == 5

    def test_tracing_off_wires_no_tracer(self, trained_forest, test_rows):
        with ModelServer() as server:
            assert server.tracer is None
            server.register("m", trained_forest)
            session = server.session("m")
            assert session._tracer is None
            server.predict("m", test_rows)
        assert RING.snapshot()["recorded"] == 0

    def test_invalid_trace_sample_rejected(self):
        with pytest.raises(ServingError):
            ModelServer(ServerConfig(trace_sample=1.5))
        with pytest.raises(ServingError):
            ModelServer(ServerConfig(trace_sample=-0.1))

    def test_kernels_identical_with_and_without_tracing(
        self, trained_forest, test_rows
    ):
        with ModelServer(ServerConfig(trace_sample=1.0)) as traced:
            traced_session = traced.register("m", trained_forest, Schedule(tile_size=4))
            traced_out = traced.predict("m", test_rows)
        with ModelServer() as plain:
            plain_session = plain.register("m", trained_forest, Schedule(tile_size=4))
            plain_out = plain.predict("m", test_rows)
        # tracing never touches the compiler: same generated source,
        # same fingerprint, bit-identical outputs
        assert (
            traced_session.predictor.generated_source
            == plain_session.predictor.generated_source
        )
        assert traced_session.fingerprint == plain_session.fingerprint
        assert np.array_equal(traced_out, plain_out)

    def test_compile_and_slow_request_events_recorded(
        self, trained_forest, test_rows
    ):
        cfg = ServerConfig(slow_request_s=0.0)  # every request is "slow"
        with ModelServer(cfg) as server:
            server.register("m", trained_forest)
            server.predict("m", test_rows)
        kinds = flight_recorder.counts()
        assert kinds.get("compile", 0) >= 1
        assert kinds.get("slow_request", 0) == 1
        [slow] = flight_recorder.tail(kind="slow_request")
        assert slow["model"] == "m"
        assert slow["rows"] == test_rows.shape[0]

    def test_error_event_recorded_on_bad_input(self, trained_forest):
        with ModelServer() as server:
            server.register("m", trained_forest)
            bad = np.full((4, trained_forest.num_features), np.nan)
            with pytest.raises(Exception):
                server.predict("m", bad)
        assert flight_recorder.counts().get("error", 0) == 1

    def test_flight_log_attaches_and_detaches(self, tmp_path, trained_forest):
        path = tmp_path / "flight.jsonl"
        with ModelServer(ServerConfig(flight_log=str(path))) as server:
            server.register("m", trained_forest)
            assert flight_recorder.file_path == str(path)
        assert flight_recorder.file_path is None
        kinds = [
            json.loads(l)["kind"] for l in path.read_text().splitlines()
        ]
        assert "compile" in kinds

    def test_registry_snapshot_carries_spans_and_events(
        self, trained_forest, test_rows
    ):
        with ModelServer(ServerConfig(trace_sample=1.0)) as server:
            server.register("m", trained_forest)
            server.predict("m", test_rows)
            snap = registry.snapshot()
        assert snap["spans"]["recorded"] == 1
        assert snap["events"]["by_kind"].get("compile", 0) >= 1


# ----------------------------------------------------------------------
# Kernel pool task timing
# ----------------------------------------------------------------------
class TestPoolTaskTiming:
    def test_pool_stats_carry_timing_keys(self):
        from repro.backend.parallel import pool_stats

        stats = pool_stats()
        assert "tasks_time_total_s" in stats
        assert "tasks_time_max_s" in stats
        assert "task_timing" in stats

    def test_timing_accumulates_when_enabled(self):
        from repro.backend.parallel import (
            parallel_predict,
            pool_stats,
            set_task_timing,
        )

        def kernel(rows, out):
            out[:] = rows[:, 0]

        rows = np.random.default_rng(0).normal(size=(64, 2))
        out = np.empty(64)
        set_task_timing(True)
        try:
            before = pool_stats()["tasks_time_total_s"]
            parallel_predict(kernel, rows, out, num_threads=4)
            after = pool_stats()
            assert after["tasks_time_total_s"] > before
            assert after["tasks_time_max_s"] > 0.0
        finally:
            set_task_timing(False)
        np.testing.assert_array_equal(out, rows[:, 0])

    def test_traced_server_enables_timing(self, trained_forest):
        from repro.backend.parallel import pool_stats, set_task_timing

        set_task_timing(False)
        try:
            with ModelServer(ServerConfig(trace_sample=1.0)) as server:
                server.register("m", trained_forest)
                assert pool_stats()["task_timing"] is True
        finally:
            set_task_timing(False)


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
class TestObserveCli:
    def test_metrics_subcommand_prints_valid_exposition(self, capsys):
        from repro.observe.__main__ import main

        rc = main(["metrics", "--rows", "16", "--requests", "2"])
        assert rc == 0
        families = parse_openmetrics(capsys.readouterr().out)
        assert "repro_serving_requests" in families
        assert "repro_request_spans" in families

    def test_dump_subcommand_matches_legacy_flags(self, tmp_path, capsys):
        from repro.observe import SNAPSHOT_KEYS
        from repro.observe.__main__ import main

        out = tmp_path / "snap.json"
        rc = main(["dump", "--rows", "16", "--requests", "1", "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert tuple(doc.keys()) == SNAPSHOT_KEYS
        assert doc["spans"]["recorded"] >= 1

    def test_tail_subcommand_reads_jsonl(self, tmp_path, capsys):
        from repro.observe.__main__ import main

        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder()
        rec.attach_file(str(path))
        rec.record("compile", model="m")
        rec.record("hot_swap", model="m")
        rec.detach_file()
        rc = main(["tail", "--file", str(path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert "compile" in out[0] and "hot_swap" in out[1]
        rc = main(["tail", "--file", str(path), "--kind", "hot_swap"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_tail_without_file_errors_cleanly(self, capsys, monkeypatch):
        from repro.observe.__main__ import main
        from repro.observe.events import FLIGHT_LOG_ENV

        monkeypatch.delenv(FLIGHT_LOG_ENV, raising=False)
        assert main(["tail"]) == 2
        assert "flight log" in capsys.readouterr().err
