"""Public compilation API.

``compile_model`` runs the whole pipeline of Figure 1: HIR construction
(tiling, padding, reordering) → MIR lowering + loop passes (interleave,
peel/unroll, parallelize) → LIR lowering (layouts, LUT) → and finally the
code-generation backend selected by ``Schedule(backend=...)`` through the
:mod:`repro.backend.registry` (default: the native C walker where this
machine can build it, the in-process NumPy JIT otherwise). The
result is a :class:`~repro.backend.predictor.Predictor`-surface executor
whose ``predict``/``raw_predict`` match the reference ``Forest`` semantics.
"""

from __future__ import annotations

import numpy as np

from repro.backend.predictor import Predictor
from repro.backend.registry import resolve_backend
from repro.config import Schedule
from repro.forest.ensemble import Forest
from repro.hir.ir import build_hir
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline
from repro.observe import registry
from repro.observe.trace import CompilationTrace


def compile_model(
    forest: Forest,
    schedule: Schedule | None = None,
    validate_tiling: bool = True,
    validate_inputs: bool = True,
) -> Predictor:
    """Compile ``forest`` into an optimized batch-inference function.

    Parameters
    ----------
    forest:
        The trained ensemble (load one via :mod:`repro.forest` or train one
        via :mod:`repro.training`).
    schedule:
        Optimization configuration; defaults to the paper's strong default
        (tile size 8, hybrid tiling, one-tree order, pad+unroll,
        interleave 8, sparse layout). Use ``Schedule.scalar_baseline()`` for
        the unoptimized reference, or :func:`repro.autotune.autotune` to
        search the Table-II grid.
    validate_tiling:
        Re-check every produced tiling against the Section III-B1
        constraints (cheap; disable only in tight tuning loops).
    validate_inputs:
        Reject NaN rows at predict time (speculative tile evaluation is
        undefined for unordered values).
    """
    schedule = schedule or Schedule()
    trace = CompilationTrace(
        label=f"trees={forest.num_trees} tile={schedule.tile_size} "
        f"{schedule.tiling}/{schedule.layout}"
    )
    if schedule.verify:
        # Imported lazily: repro.verify pulls in the fuzzer, which imports
        # this module. Zero cost (and zero imports) when verify is off.
        from repro.verify import verify_hir, verify_lir_module, verify_mir_module
    with trace.span("hir"):
        hir = build_hir(forest, schedule, validate=validate_tiling, trace=trace)
    if schedule.verify:
        with trace.span("verify-hir") as span:
            span.stats.update(verify_hir(hir))
    with trace.span("mir-lower"):
        mir = lower_hir_to_mir(hir)
    with trace.span("mir-passes"):
        run_mir_pipeline(mir, hir, trace=trace)
    if schedule.verify:
        with trace.span("verify-mir-module") as span:
            span.stats.update(verify_mir_module(mir, hir))
    with trace.span("lir-lower"):
        lir = lower_mir_to_lir(mir, hir, trace=trace)
    if schedule.verify:
        with trace.span("verify-lir") as span:
            span.stats.update(verify_lir_module(lir))
    with trace.span("backend") as span:
        backend = resolve_backend(schedule, span.stats)
        predictor = backend.build(
            forest, lir, validate_inputs=validate_inputs, trace=trace
        )
    trace.finish()
    registry.record_trace(trace)
    registry.record_backend_event(backend.name, "compiles")
    return predictor


def predict(forest: Forest, rows: np.ndarray, schedule: Schedule | None = None) -> np.ndarray:
    """One-shot convenience: compile ``forest`` and predict ``rows``."""
    return compile_model(forest, schedule).predict(rows)


def serve_model(forest: Forest, schedule: Schedule | None = None, **session_kwargs):
    """Wrap ``forest`` in a serving :class:`~repro.serve.session.InferenceSession`.

    Unlike :func:`compile_model`, the session compiles through the predictor
    cache (re-serving a fingerprint-identical model is free), can coalesce
    concurrent requests into micro-batches (pass
    ``batching=repro.serve.BatchingPolicy()``), and degrades to the
    reference interpreter on codegen failure instead of raising. For
    multi-model deployments use :class:`repro.serve.ModelServer` directly.
    """
    from repro.serve.session import InferenceSession

    return InferenceSession(forest, schedule, **session_kwargs)
