"""``compile_cold``: cold ``compile_model`` of {higgs, letter} x {default,
float32 + pgo=2, int8, scalar baseline}, then AOT export and load.

The compiler layers do all the work and the kernels almost none (default
schedule: ``hir`` about 70%, ``lir-lower`` about 28%, backend under 2%; on
the scalar baseline the backend rises to 10-30% with 100 KB-scale sources),
so a codegen rewrite and a tiling speed-up each have a cell that moves. The
forests are the small-scale variants (30 and 78 trees) so that one sweep of
eight cold compiles takes about 2 s and a run holds several. Every fresh
predictor is verified against the reference forest on 256 rows (8 for the
scalar baseline, which needs about 13 ms per row); ``setup_s`` here is what a
deployment that skips the compiler pays: ``load_artifact`` + first predict.
"""

from __future__ import annotations

import shutil
import statistics
import time

from repro import Schedule, compile_model
from repro.backend import jit
from repro.backend.aot import export_artifact, load_artifact
from repro.backend.registry import get_backend
from repro.hir.ir import build_hir
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline

from bench import REPO_ROOT
from bench.harness import TracedRequests, geomean
from bench.oracle import tolerance_for
from bench.timing import LONG_PROBE, SHORT_PROBE, SliceTimer, timed_once

FORESTS = ("higgs_small", "letter_small")
ROWS = 256
SCALAR_ROWS = 8
MODELS = {key: (1, ROWS) for key in FORESTS}
INPUT_OPTIONS = {"float32_exact": True}
PRIMARY = "higgs_small"
CONFIGS = {
    "default": Schedule(),
    "f32_pgo2": Schedule(precision="float32", pgo=2),
    "int8": Schedule(precision="int8"),
    "scalar": Schedule.scalar_baseline(),
}
#: warm predict calls timed per fresh predictor (after one untimed cold call)
PREDICTS = 4
#: every compile is a slice of its own, between two long probes
SLICE_S = 0.0
PROBE = LONG_PROBE


def traced_compile(forest, schedule, recorder, trace_id: int = 0):
    """``compile_model``'s pipeline, one span per public pass function."""
    with recorder.span("compile", trace_id):
        with recorder.span("hir.build", trace_id):
            hir = build_hir(forest, schedule)
        with recorder.span("mir.lower", trace_id):
            mir = lower_hir_to_mir(hir)
        with recorder.span("mir.passes", trace_id):
            run_mir_pipeline(mir, hir)
        with recorder.span("lir.lower", trace_id):
            lir = lower_mir_to_lir(mir, hir)
        with recorder.span("backend.codegen", trace_id):
            predictor = get_backend(schedule.backend).build(
                forest, lir, validate_inputs=True
            )
    return predictor, hir, mir, lir


class Session(TracedRequests):
    """The traced run's request: one cold default-schedule compile of the
    primary forest, verified; traced, the same pipeline runs pass by pass
    under benchmark spans."""

    def __init__(self, inputs, oracle) -> None:
        self.forest = inputs.forests[PRIMARY]
        self.rows = inputs.rows[PRIMARY][0]
        self.want = inputs.raw[PRIMARY][0]
        self.oracle = oracle

    def request(self, i: int):
        jit.clear_cache()
        return compile_model(self.forest, CONFIGS["default"])

    def traced_request(self, i: int, recorder):
        jit.clear_cache()
        return traced_compile(self.forest, CONFIGS["default"], recorder, i)[0]

    def verify(self, first: int, outputs) -> None:
        for predictor in outputs:
            if predictor is None:
                self.oracle.fail(ROWS)
            else:
                self.oracle.check(predictor.raw_predict(self.rows), self.want, responses=ROWS)

    def close(self) -> None:
        pass


def _timed_predicts(predictor, rows, timer: SliceTimer):
    out = predictor.raw_predict(rows)  # cold call: arena allocation
    timer.begin(fresh=True)
    samples = []
    for _ in range(PREDICTS):
        start = time.perf_counter()
        out = predictor.raw_predict(rows)
        samples.append((time.perf_counter() - start) * 1e6)
    timer.end(samples)
    return out


def run(inputs, seconds, oracle):
    cells = [(f, c) for f in FORESTS for c in CONFIGS]
    compile_timers = {cell: SliceTimer(LONG_PROBE) for cell in cells}
    predict_timers = {cell: SliceTimer(SHORT_PROBE) for cell in cells if cell[1] != "scalar"}
    artifacts = REPO_ROOT / ".bench_out" / f"aot-{time.time_ns()}"
    loads, predictors = [], {}
    end = time.perf_counter() + seconds
    try:
        while not loads or time.perf_counter() < end:
            for forest_key, config in cells:
                forest = inputs.forests[forest_key]
                timer = compile_timers[(forest_key, config)]
                jit.clear_cache()
                timer.begin(fresh=True)
                start = time.perf_counter()
                predictor = compile_model(forest, CONFIGS[config])
                timer.end([(time.perf_counter() - start) * 1e6])
                predictors[(forest_key, config)] = predictor
                n = SCALAR_ROWS if config == "scalar" else ROWS
                rows, want = inputs.rows[forest_key][0][:n], inputs.raw[forest_key][0][:n]
                if config == "scalar":
                    out = predictor.raw_predict(rows)
                else:
                    out = _timed_predicts(predictor, rows, predict_timers[(forest_key, config)])
                rtol, atol = tolerance_for(predictor)
                oracle.check(out, want, rtol, atol, responses=n)
            load_s = 0.0
            for forest_key in FORESTS:
                path = artifacts / forest_key
                if not path.exists():
                    export_artifact(predictors[(forest_key, "default")], path)
                rows, want = inputs.rows[forest_key][0], inputs.raw[forest_key][0]
                out, scaled, _ = timed_once(lambda: load_artifact(path).raw_predict(rows))
                oracle.check(out, want, responses=ROWS)
                load_s += scaled
            loads.append(load_s)
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)
    table = {}
    for cell in cells:
        predictor = predictors[cell]
        row = {
            "compile_s": compile_timers[cell].result.p50() * 1e-6,
            "compiles": compile_timers[cell].result.count(),
            "source_bytes": len(predictor.generated_source),
            "model_bytes": predictor.memory_bytes(),
        }
        if cell in predict_timers:
            r = predict_timers[cell].result
            row.update(
                latency_p50_us=r.p50(),
                latency_p95_us=r.tail(0.95),
                rows_per_s=r.per_second(ROWS),
            )
        table["/".join(cell)] = row
    timed = [row for row in table.values() if "rows_per_s" in row]
    values = {
        "setup_s": statistics.median(loads),
        "compile_s": sum(row["compile_s"] for row in table.values()),
        "latency_p50_us": geomean(row["latency_p50_us"] for row in timed),
        "latency_p95_us": geomean(row["latency_p95_us"] for row in timed),
        "rows_per_s": geomean(row["rows_per_s"] for row in timed),
        "model_bytes": sum(row["model_bytes"] for row in table.values()),
    }
    detail = {
        "cells": table,
        "sweeps": len(loads),
        "setup_s_samples": loads,
        "slices_discarded": sum(t.result.discarded for t in compile_timers.values()),
        # the typical cell's spread over its sweeps
        "slice_spread": statistics.median(
            [s for s in (t.result.spread() for t in compile_timers.values()) if s == s]
            or [float("nan")]
        ),
    }
    return values, detail
