"""Runs one workload: inputs, leak guard, measurement, declared metrics."""

from __future__ import annotations

import importlib
import math
import statistics
import time
from dataclasses import dataclass, field

from repro import compile_model
from repro.backend import jit

from bench import leakguard, spec
from bench.inputs import Inputs, make_inputs
from bench.oracle import Oracle
from bench.timing import PROBE_REF_US, SliceTimer, timed_once


class BenchmarkError(RuntimeError):
    """The benchmark itself is broken (missing metric, leaked resource)."""


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int
    failed: int
    #: declared metric name -> {"value": float, "unit": str}
    metrics: dict[str, dict]
    #: everything else worth keeping: per-forest rows, raw values, spreads
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.detail.get("leaks")

    def contract(self) -> dict:
        """The one JSON object the driver reads from the last stdout line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            **self.contract(),
            "failed_share": self.failed / self.attempted,
            "detail": self.detail,
        }


#: share of a closed-loop window spent on unmeasured warm-up requests
#: (arenas allocate on first use, worker processes fault their shm in)
WARMUP_SHARE = 0.1


def warm_up(request, seconds: float) -> None:
    """Send requests for ``seconds`` without timing or checking them (the
    same requests are checked once the measured loop sends them)."""
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        request(i)
        i += 1


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def repeats_for(seconds: float, full: int) -> int:
    """How often to repeat a cold set-up: ``full`` times on a real window,
    fewer on a shortened one (the smoke test runs 1 s windows)."""
    return max(1, min(full, round(seconds / 2)))


class TracedRequests:
    """Mixin of the workload sessions: the same request inside a benchmark
    span, for the traced run's overhead measurement."""

    def traced_request(self, i: int, recorder):
        with recorder.span("request", i):
            return self.request(i)


class BatchRequests(TracedRequests):
    """Sessions whose request ``i`` sends row set ``i & 1`` (``self.rows``)
    as one batch and expects ``self.want[i & 1]`` back."""

    def verify(self, first: int, outputs) -> None:
        for k, out in enumerate(outputs):
            want = self.want[(first + k) & 1]
            if out is None:
                self.oracle.fail(len(want))
            else:
                self.oracle.check(out, want, responses=len(want))


def closed_loop(request, count, timer: SliceTimer, seconds: float, slice_s: float, verify):
    """One client, next request only after the previous reply.

    ``request(i)`` performs request ``i`` and returns its output; each call
    is timed on its own and the slice is handed to ``timer``. A ``slice_s``
    of 0 makes every request a slice of its own. ``verify(first, outputs)``
    runs after the slice closed, outside every timestamp; an output of
    ``None`` stands for a request that raised. Returns the next request
    index.
    """
    clock = time.perf_counter
    end = clock() + seconds
    i = count
    fresh = True  # other work ran since this timer's last slice
    while clock() < end:
        timer.begin(fresh)
        fresh = False
        stop = min(end, clock() + slice_s)
        first, durations, outputs = i, [], []
        while True:
            start = clock()
            try:
                out = request(i)
            except Exception:  # noqa: BLE001 - a failed request is a counted
                out = None  # outcome of the benchmark, not a crash of it
            done = clock()
            durations.append((done - start) * 1e6)
            outputs.append(out)
            i += 1
            if done >= stop:
                break
        timer.end(durations)
        verify(first, outputs)
    return i


def slice_detail(timer: SliceTimer) -> dict:
    """The health numbers of one timed region, for the detail block."""
    r = timer.result
    return {
        "samples": r.count(),
        "slices_kept": len(r.kept),
        "slices_discarded": r.discarded,
        "slice_spread": r.spread(),
        "probe_us": statistics.median(r.probes) if r.probes else None,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> RunResult:
    """Run workload ``name`` once and return its declared metrics."""
    if name not in spec.workload_names():
        raise BenchmarkError(f"unknown workload {name!r}; known: {spec.workload_names()}")
    module = importlib.import_module(f"bench.workloads.{name}")
    before = leakguard.snapshot()
    inputs: Inputs = make_inputs(seed, module.MODELS, **getattr(module, "INPUT_OPTIONS", {}))
    oracle = Oracle()
    if traced:
        from bench import layers

        values, detail = layers.run_traced(module, inputs, seconds, oracle)
    else:
        values, detail = module.run(inputs, seconds, oracle)
    leakguard.stop_resource_tracker()
    leaked = leakguard.leaks(before)
    detail.update(
        inputs_sha256=inputs.sha256(),
        input_gen_s=inputs.gen_seconds,
        probe_ref_us=PROBE_REF_US,
    )
    if leaked:
        detail["leaks"] = leaked
    declared = spec.metrics(traced)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchmarkError(f"{name}: declared metrics not measured: {missing}")
    metrics = {
        metric: {"value": values[metric], "unit": declared[metric]["unit"]}
        for metric in declared
    }
    if oracle.attempted < 1:
        raise BenchmarkError(f"{name}: no response was checked")
    return RunResult(
        workload=name,
        seed=seed,
        seconds=seconds,
        traced=traced,
        attempted=oracle.attempted,
        failed=oracle.failed,
        metrics=metrics,
        detail=detail,
    )


def cold_setups(open_session, repeats: int):
    """Time ``open_session()`` (trained forest -> first verified response,
    from cold) ``repeats`` times; returns the last session, still open, and
    the scaled seconds of each. Earlier sessions are closed before the next
    one opens, so each set-up starts from the same state."""
    session, seconds = None, []
    for _ in range(repeats):
        if session is not None:
            session.close()
        jit.clear_cache()
        session, scaled, _probe = timed_once(open_session)
        seconds.append(scaled)
    return session, seconds


def cold_compiles(forest, repeats: int):
    """Scaled seconds of ``repeats`` cold default-schedule ``compile_model``
    runs of ``forest``, and the last predictor."""
    seconds, predictor = [], None
    for _ in range(repeats):
        jit.clear_cache()
        predictor, scaled, _probe = timed_once(lambda: compile_model(forest))
        seconds.append(scaled)
    return seconds, predictor
