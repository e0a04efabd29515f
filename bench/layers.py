"""The traced run: per-layer numbers behind the end-to-end metrics.

``--trace 1`` does two things for a workload. First it runs the workload's
own request path bare and under a benchmark span in alternating slices; the
difference is ``bench.trace_overhead_pct``. Then it runs the layer suite on
the workload's primary forest: every layer a model or a request crosses is
called through its public entry point, alone, inside a span or a probe
bracket of its own. Spans live in ``bench/``, around the calls into each
layer; spans inside the program are a later change.

Which end-to-end metric each layer metric should move, and on which
workload, is tabulated in ``bench/README.md``.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time

import numpy as np

from repro import Schedule, compile_model
from repro.backend import jit
from repro.backend.aot import export_artifact, load_artifact
from repro.backend.shm import export_shared
from repro.forest.ensemble import Forest
from repro.lir.memory import ScratchArena
from repro.observe.spans import RING
from repro.serve import (
    BatchingPolicy,
    ModelServer,
    ServerConfig,
    WorkerPool,
    get_combiner,
    plan_shards,
    shard_forest,
)
from repro.verify import verify_hir, verify_lir_module, verify_mir_module

from bench import REPO_ROOT
from bench.harness import WARMUP_SHARE, closed_loop, repeats_for, warm_up
from bench.inputs import make_inputs
from bench.oracle import tolerance_for
from bench.spans import SpanRecorder
from bench.timing import (
    LONG_PROBE,
    PROBE_REF_US,
    SHORT_PROBE,
    Bracket,
    SliceTimer,
    Slices,
    quantile,
    timed_once,
)
from bench.workloads.batched_open import batch_stats, open_loop, poisson_offsets
from bench.workloads.compile_cold import traced_compile

BATCH = 2048
#: share of the measured window given to the workload's own bare/traced loop
OVERHEAD_SHARE = 0.25


# ----------------------------------------------------------------------
# Compiler layers
# ----------------------------------------------------------------------

def _compile_layers(forest, recorder, repeats: int) -> tuple[dict, object]:
    """Self time per compiler layer (median over cold repeats, scaled) and
    the exact structure counts of the compiled model."""
    schedule = Schedule()
    layer_s: dict[str, list[float]] = {}
    for repeat in range(repeats):
        jit.clear_cache()
        first = len(recorder.spans)
        (predictor, hir, mir, lir), _scaled, probe = timed_once(
            lambda: traced_compile(forest, schedule, recorder, repeat)
        )
        with recorder.span("verify", repeat):
            verify_hir(hir)
            verify_mir_module(mir, hir)
            verify_lir_module(lir)
        for name, seconds in recorder.self_seconds(first).items():
            layer_s.setdefault(name, []).append(sum(seconds) * PROBE_REF_US / probe)
    median = {name: statistics.median(v) for name, v in layer_s.items()}
    values = {
        "hir.build_s": median["hir.build"],
        "mir.lower_s": median["mir.lower"],
        "mir.passes_s": median["mir.passes"],
        "lir.lower_s": median["lir.lower"],
        "backend.codegen_s": median["backend.codegen"],
        "verify.structural_s": median["verify"],
        "hir.tiles_total": sum(len(t.tiles) for t in hir.tiled_trees),
        "mir.walk_ops": len(mir.tree_loops),
        "lir.model_bytes": predictor.memory_bytes(),
        "backend.source_bytes": len(predictor.generated_source),
        "backend.scratch_bytes": predictor.arena_spec.nbytes_for(BATCH),
    }
    return values, predictor


def _aot_layers(predictor, rows, want, oracle, scratch) -> tuple[dict, object]:
    exports, loads = [], []
    for k in range(3):
        _path, scaled, _ = timed_once(lambda: export_artifact(predictor, scratch / f"aot{k}"))
        exports.append(scaled)
    path = scratch / "aot0"
    for _ in range(5):
        loaded, scaled, _ = timed_once(lambda: load_artifact(path))
        loads.append(scaled)
    oracle.check(loaded.raw_predict(rows), want, responses=len(rows))
    values = {
        "backend.aot_export_s": statistics.median(exports),
        "backend.aot_load_s": statistics.median(loads),
    }
    return values, path


# ----------------------------------------------------------------------
# Kernel, wrapper and serve layers
# ----------------------------------------------------------------------

def _bare_kernel(predictor, rows, want, oracle, batch: int | None = None):
    """``call(i)`` running the bare ``predictor.kernel`` on the ``i``-th
    block of ``batch`` rows (default: all of ``rows``, whatever ``i``);
    every block is verified once, on a fresh output buffer."""
    batch = batch or len(rows)
    rows = np.ascontiguousarray(rows, dtype=predictor.input_dtype)
    blocks = [rows[lo : lo + batch] for lo in range(0, len(rows), batch)]
    arena = ScratchArena(predictor.arena_spec)
    out = np.full((len(rows), predictor.num_classes), predictor.base_score)
    for lo, block in zip(range(0, len(rows), batch), blocks):
        predictor.kernel(block, out[lo : lo + batch], arena)
    rtol, atol = tolerance_for(predictor)
    oracle.check(
        out[:, 0] if predictor.num_classes == 1 else out, want, rtol, atol,
        responses=len(rows),
    )
    scratch_out = out[:batch]
    return lambda i: predictor.kernel(blocks[i % len(blocks)], scratch_out, arena)


def interleaved(calls: dict, seconds: float, slice_s: float, probe_repeats: int) -> dict[str, Slices]:
    """Time several ``call(i)`` round-robin inside shared probe brackets, so
    that differences between them are differences of code, not of machine
    state; ``i`` counts the rounds."""
    clock = time.perf_counter
    bracket = Bracket(probe_repeats)
    series = {name: Slices() for name in calls}
    end = clock() + seconds
    i = 0
    while clock() < end:
        bracket.begin()
        stop = clock() + slice_s
        samples = {name: [] for name in calls}
        while True:
            for name, call in calls.items():
                start = clock()
                call(i)
                samples[name].append((clock() - start) * 1e6)
            i += 1
            if clock() >= stop:
                break
        verdict = bracket.end()
        for name in calls:
            series[name].add(samples[name], *verdict)
    return series


def _kernel_layers(forest, predictor, rows, raw, seconds, oracle) -> dict:
    f32 = compile_model(forest, Schedule(precision="float32"))
    int8 = compile_model(forest, Schedule(precision="int8"))
    exact = rows.astype(np.float32).astype(np.float64)
    # (call, slice seconds, probe): dense slices of 64-row batches, one
    # 2048-row batch per slice
    ladder = {
        "backend.kernel_b64_us": (
            _bare_kernel(predictor, rows, raw, oracle, batch=64), 0.05, SHORT_PROBE),
        "backend.kernel_b2048_us": (
            _bare_kernel(predictor, rows, raw, oracle), 0.0, LONG_PROBE),
        "backend.kernel_b2048_f32_us": (
            _bare_kernel(f32, exact, forest.raw_predict(exact), oracle), 0.0, LONG_PROBE),
        "backend.kernel_b2048_int8_us": (
            _bare_kernel(int8, rows, raw, oracle), 0.0, LONG_PROBE),
    }
    values = {}
    for name, (call, slice_s, probe) in ladder.items():
        values[name] = interleaved(
            {name: call}, seconds / len(ladder), slice_s, probe
        )[name].p50()
    profiled = compile_model(forest, Schedule(profile=True))
    oracle.check(profiled.raw_predict(rows), raw, responses=len(rows))
    counters = profiled.profile_counters()
    values["backend.walk_steps_per_row"] = counters["walk_steps"] / counters["rows"]
    return values


def _serve_layers(forest, rows, raw, predicted, seconds, oracle) -> tuple[dict, dict]:
    """One 1-row request, timed at each wrapper on its way down, interleaved
    over a pool of 64 rows: ``ModelServer.predict`` >
    ``InferenceSession.raw_predict`` > ``Predictor.raw_predict`` > bare
    kernel. A layer's self time is its total minus the total of the layer
    below, so the four add up to the ``ModelServer.predict`` total."""
    pool = [np.ascontiguousarray(rows[j : j + 1]) for j in range(64)]
    server = ModelServer()
    try:
        server.register("m", forest)
        session = server.session("m")
        predictor = session.predictor
        oracle.check(
            np.concatenate([server.predict("m", row) for row in pool]), predicted[:64],
            responses=64,
        )
        oracle.check(
            np.concatenate([session.raw_predict(row) for row in pool]), raw[:64],
            responses=64,
        )
        kernel = _bare_kernel(predictor, rows[:64], raw[:64], oracle, batch=1)
        stack = interleaved(
            {
                # each layer walks the pool from another offset: a round that
                # sent one row down all four would serve three from a warm cache
                "server": lambda i: server.predict("m", pool[i & 63]),
                "session": lambda i: session.raw_predict(pool[(i + 16) & 63]),
                "predictor": lambda i: predictor.raw_predict(pool[(i + 32) & 63]),
                "kernel": lambda i: kernel(i + 48),
            },
            seconds,
            0.05,
            SHORT_PROBE,
        )
        clone = Forest.from_dict(forest.to_dict())
        hits = []
        for k in range(3):
            registered, scaled, _ = timed_once(lambda: server.register(f"hit{k}", clone))
            if not registered.cache_hit:
                oracle.fail()
            hits.append(scaled)
    finally:
        server.close()
    p50 = {name: s.p50() for name, s in stack.items()}

    def self_us(layer: str, below: str) -> float:
        """Median over rounds of (layer - layer below), paired inside the
        round: a difference of two medians would carry both medians' noise,
        which is as large as these self times."""
        return statistics.median(
            a - b
            for upper, lower in zip(stack[layer].usable(), stack[below].usable())
            for a, b in zip(upper, lower)
        )

    values = {
        "serve.server_self_us": self_us("server", "session"),
        "serve.session_self_us": self_us("session", "predictor"),
        "backend.wrapper_self_us": self_us("predictor", "kernel"),
        "backend.kernel_b1_us": p50["kernel"],
        "serve.cache.hit_register_s": statistics.median(hits),
    }
    return values, p50


def _batcher_layers(artifact, rows, raw, predicted, seconds, seed, oracle) -> dict:
    """The micro-batcher's stages on a fully traced batching server (the
    kernel comes from the AOT artifact, so nothing recompiles): first an
    open loop of ``submit`` at 2000 req/s for the batch shapes and the
    generator's own lag, then two blocking clients whose requests carry the
    public span stages."""
    server = ModelServer(ServerConfig(batching=BatchingPolicy(), trace_sample=1.0))
    try:
        server.register("m", artifact=str(artifact))
        session = server.session("m")
        offsets = poisson_offsets(2000, seconds / 2, np.random.default_rng(seed))
        due, sent, _done, futures = open_loop(
            lambda i: session.submit(rows[i & 63 : (i & 63) + 1]), offsets
        )
        got = np.concatenate([f.result(timeout=5) for f in futures])
        want = np.concatenate([raw[i & 63 : (i & 63) + 1] for i in range(len(futures))])
        oracle.check(got, want, responses=len(futures))
        shapes = batch_stats(server.metrics_snapshot())

        RING.clear()
        stop = time.perf_counter() + seconds / 2
        outputs: list[list] = [[], []]

        def client(k: int) -> None:
            i = k
            while time.perf_counter() < stop:
                outputs[k].append((i & 63, server.predict("m", rows[i & 63 : (i & 63) + 1])))
                i += 2

        clients = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        for answered in outputs:
            oracle.check(
                np.concatenate([out for _j, out in answered]),
                np.concatenate([predicted[j : j + 1] for j, _out in answered]),
                responses=len(answered),
            )
        stages: dict[str, list[float]] = {}
        for trace in RING.recent():
            for stage in trace["stages"]:
                stages.setdefault(stage["name"], []).append(stage["duration_ms"] * 1e3)
    finally:
        server.close()
        RING.clear()
    lag = [(s - d) * 1e6 for s, d in zip(sent, due)]
    return {
        "serve.batcher.queue_wait_us": statistics.median(stages["queue_wait"]),
        "serve.batcher.assemble_us": statistics.median(stages["assemble"]),
        "serve.batcher.kernel_us": statistics.median(stages["kernel"]),
        "serve.batcher.aggregate_us": statistics.median(stages["aggregate"]),
        "serve.batcher.requests_per_batch": shapes["requests_per_batch"],
        "serve.batcher.rows_per_batch": shapes["rows_per_batch"],
        "bench.generator_lag_p95_us": quantile(lag, 0.95),
    }


def _worker_layers(forest, rows, raw, seconds, oracle) -> dict:
    """The multi-process tier taken apart: shm export, worker spawn, one
    round trip through both workers against the same two shard kernels run
    back to back in this process."""
    workers = 2
    combine = get_combiner("sum").fn
    shards = [
        compile_model(sub)
        for sub in shard_forest(forest, plan_shards(forest, workers), embed_base=True)
    ]
    handles, pool = [], None
    try:
        handles, export_s, _ = timed_once(lambda: [export_shared(p) for p in shards])
        pool, spawn_s, _ = timed_once(
            lambda: WorkerPool([h.manifest for h in handles], workers, name="bench-layer")
        )

        def roundtrip():
            parts = pool.execute(rows)
            return combine([parts[s] for s in range(workers)], 0.0)

        def local_serial():
            return combine([p.raw_predict(rows) for p in shards], 0.0)

        for call in (roundtrip, local_serial):
            oracle.check(call(), raw, responses=len(rows))
        for _ in range(5):  # workers fault their shm and arenas in
            roundtrip()
        pair = interleaved(
            {"roundtrip": lambda i: roundtrip(), "local": lambda i: local_serial()},
            seconds, 0.0, LONG_PROBE,
        )
    finally:
        if pool is not None:
            pool.close()
        for handle in handles:
            handle.unlink()
    roundtrip_us, local_us = pair["roundtrip"].p50(), pair["local"].p50()
    return {
        "backend.shm_export_s": export_s,
        "serve.workers.spawn_s": spawn_s,
        "serve.workers.roundtrip_us": roundtrip_us,
        "serve.workers.local_serial_us": local_us,
        "serve.workers.parallel_efficiency": local_us / (workers * roundtrip_us),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def _trace_overhead(session, slice_s, probe_repeats, seconds, recorder) -> tuple[dict, dict]:
    """The workload's own request, bare and inside a benchmark span, in
    alternating slices."""
    bare, traced = SliceTimer(probe_repeats), SliceTimer(probe_repeats)
    turn_s = max(2 * slice_s, 0.2)
    sent = 0
    warm_up(session.request, WARMUP_SHARE * seconds)
    end = time.perf_counter() + (1 - WARMUP_SHARE) * seconds
    while time.perf_counter() < end:
        sent = closed_loop(session.request, sent, bare, turn_s, slice_s, session.verify)
        sent = closed_loop(
            lambda i: session.traced_request(i, recorder),
            sent, traced, turn_s, slice_s, session.verify,
        )
    bare_us, traced_us = bare.result.p50(), traced.result.p50()
    values = {"bench.trace_overhead_pct": 100.0 * (traced_us - bare_us) / bare_us}
    detail = {
        "bare_p50_us": bare_us,
        "traced_p50_us": traced_us,
        "slices_discarded": bare.result.discarded + traced.result.discarded,
        "probes": bare.result.probes + traced.result.probes,
    }
    return values, detail


def run_traced(module, inputs, seconds, oracle):
    """Per-layer metric values and detail of one traced run of ``module``."""
    recorder = SpanRecorder()
    session = module.Session(inputs, oracle)
    try:
        values, own = _trace_overhead(
            session, module.SLICE_S, module.PROBE, OVERHEAD_SHARE * seconds, recorder
        )
    finally:
        session.close()

    suite = make_inputs(inputs.seed, {module.PRIMARY: (1, BATCH)})
    forest = suite.forests[module.PRIMARY]
    rows = suite.rows[module.PRIMARY][0]
    raw, predicted = suite.raw[module.PRIMARY][0], suite.predicted[module.PRIMARY][0]
    budget = (1 - OVERHEAD_SHARE) * seconds
    scratch = REPO_ROOT / ".bench_out" / f"layers-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        compile_values, predictor = _compile_layers(forest, recorder, repeats_for(seconds, 2))
        values.update(compile_values)
        aot_values, artifact = _aot_layers(predictor, rows, raw, oracle, scratch)
        values.update(aot_values)
        values.update(_kernel_layers(forest, predictor, rows, raw, 0.35 * budget, oracle))
        serve_values, stack = _serve_layers(forest, rows, raw, predicted, 0.2 * budget, oracle)
        values.update(serve_values)
        values.update(
            _batcher_layers(artifact, rows, raw, predicted, 0.25 * budget, inputs.seed, oracle)
        )
        values.update(_worker_layers(forest, rows, raw, 0.2 * budget, oracle))
        recorder.dump(REPO_ROOT / ".bench_out" / f"spans-{module.__name__.rsplit('.', 1)[-1]}.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values.update(
        {
            "bench.probe_us": statistics.median(own["probes"]) if own["probes"] else PROBE_REF_US,
            "bench.slices_discarded": own["slices_discarded"],
            "bench.input_gen_s": inputs.gen_seconds + suite.gen_seconds,
        }
    )
    # on online_b1 the four layer self times add up to the request it sends
    layer_sum = (
        values["serve.server_self_us"] + values["serve.session_self_us"]
        + values["backend.wrapper_self_us"] + values["backend.kernel_b1_us"]
    )
    detail = {
        "own_loop": {k: v for k, v in own.items() if k != "probes"},
        "primary": module.PRIMARY,
        "serve_stack_p50_us": stack,
        "layer_self_sum_us": layer_sum,
        "spans_recorded": len(recorder.spans),
    }
    return values, detail
