"""The compiled predictor: Treebeard's ``predictForest`` entry point.

Two layers live here:

* :class:`KernelExecutor` — the runtime engine around one compiled
  ``predict_block`` kernel: input validation, output allocation, row
  blocking, parallel fan-out, per-thread scratch arenas, and the objective
  transform. A native kernel's executor hands all but the last two to the
  walker module: one call per request (:meth:`KernelExecutor.raw_predict`).
  It needs only the kernel plus a handful of scalar facts
  (feature/class counts, base score, dtypes, arena spec) — *not* the
  forest or the lowered module — which is what lets a model image, loaded
  from an AOT artifact or attached from shared memory
  (:func:`repro.backend.aot.rebuild_executor`), become a ready executor in
  a process that never ran the compiler.
* :class:`Predictor` — the in-process compile result: a
  :class:`KernelExecutor` that also owns the source forest, the lowered
  module, the compilation trace and the profiling recorder, and exposes
  the introspection hooks used heavily by the tests and experiments
  (generated source, LIR dump, buffer footprints).

Kernels write their walk-step temporaries into a preallocated
:class:`~repro.lir.memory.ScratchArena`.
The executor owns one arena *per thread* (created lazily in thread-local
storage), so parallel row blocks never share scratch; the weak registry
behind :meth:`KernelExecutor.scratch_nbytes` tracks every live arena for
footprint accounting without pinning arenas of dead threads.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable

import numpy as np

from repro.backend.codegen import emit_module_source
from repro.backend.jit import compile_lir, model_fingerprint
from repro.backend.parallel import MulticoreSimulator, parallel_predict
from repro.config import Schedule
from repro.errors import ExecutionError
from repro.forest.ensemble import Forest, apply_objective
from repro.lir.ir import LIRModule
from repro.lir.memory import ArenaSpec, ScratchArena, arena_spec
from repro.observe.profile import ProfileRecorder
from repro.observe.trace import CompilationTrace


class KernelExecutor:
    """Executable wrapper around one compiled ``predict_block`` kernel."""

    #: registry name of the backend that produced this executor.
    backend_name: str = "numpy_jit"

    def __init__(
        self,
        kernel: Callable,
        schedule: Schedule,
        *,
        num_features: int,
        num_classes: int,
        base_score: float,
        objective: str = "regression",
        validate_inputs: bool = True,
        arena: ArenaSpec,
        source: str = "",
    ) -> None:
        self.kernel = kernel
        self.schedule = schedule
        self.num_features = num_features
        self.num_classes = num_classes
        self.base_score = base_score
        self.objective = objective
        self.validate_inputs = validate_inputs
        self.source = source
        # Quantized kernels keep float64 input: rows are rank-coded inside
        # the kernel against float64 cut tables, so callers never see the
        # integer representation.
        self.input_dtype = (
            np.float32 if schedule.precision == "float32" else np.float64
        )
        self.arena_spec = arena
        # a native stub's bound walk carries the module's entry point and the
        # model capsule (repro.backend.native.bind); a NumPy kernel has neither
        walk = getattr(kernel, "__globals__", {}).get("_walk")
        self._entry = getattr(walk, "entry", None)
        self._model = getattr(walk, "model", None)
        self._tls = threading.local()
        self._arenas: "weakref.WeakSet[ScratchArena]" = weakref.WeakSet()
        self._arenas_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _check(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.num_features:
            raise ExecutionError(
                f"rows must be (n, {self.num_features}), got {rows.shape}"
            )
        if rows.dtype != self.input_dtype or not rows.flags.c_contiguous:
            rows = np.ascontiguousarray(rows, dtype=self.input_dtype)
        # Single cheap validation pass: min() propagates NaN without
        # materializing an (n, F) boolean mask the way isnan().any() does.
        if self.validate_inputs and rows.size and np.isnan(rows.min()):
            raise ExecutionError(
                "NaN inputs are unsupported: speculative tile evaluation "
                "requires totally ordered features"
            )
        return rows

    def _alloc_out(self, n: int) -> np.ndarray:
        return np.full((n, self.num_classes), self.base_score, dtype=np.float64)

    def _arena(self) -> ScratchArena:
        """This thread's scratch arena (lazily created)."""
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = ScratchArena(self.arena_spec)
            self._tls.arena = arena
            with self._arenas_lock:
                self._arenas.add(arena)
        return arena

    def raw_predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        """Raw margins; matches ``Forest.raw_predict`` up to accumulation order.

        ``threads`` overrides the schedule's parallel degree for this call —
        the serving layer uses it to pick a fan-out per micro-batch without
        recompiling the kernel.
        """
        threads = self.schedule.parallel if threads is None else max(1, int(threads))
        if self._entry is not None:
            if type(rows) is not np.ndarray or rows.ndim != 2:
                rows = self._check(rows)
            n, classes = rows.shape[0], self.num_classes
            out = np.empty(n) if classes == 1 else np.empty((n, classes))
            if threads > 1 and n > 1:
                parallel_predict(self._native_walk, rows, out, threads)
            else:
                self._native_walk(rows, out)
            return out
        rows = self._check(rows)
        out = self._alloc_out(rows.shape[0])
        if rows.shape[0] == 0:
            pass  # empty batch: correctly-shaped output, no kernel launch
        elif threads > 1:
            parallel_predict(self._run_blocks, rows, out, threads)
        else:
            self._run_blocks(rows, out)
        return out[:, 0] if self.num_classes == 1 else out

    def _native_walk(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Native executors: ``out`` becomes the base score plus every tree's
        leaf, in one call that checks the rows, scans them for NaN and walks
        without the GIL. Rows it refuses — another dtype or order, a wrong
        width, NaN — go through :meth:`_check`, which coerces them or raises
        the NumPy path's own error, and are offered once more."""
        base, validate = self.base_score, self.validate_inputs
        if self._entry(self._model, rows, out, base, validate):
            if self._entry(self._model, self._check(rows), out, base, validate):
                raise ExecutionError("native walker refused the bound model")

    def _run_blocks(self, rows: np.ndarray, out: np.ndarray) -> None:
        arena = self._arena()
        block = self.schedule.row_block or max(rows.shape[0], 1)
        for lo in range(0, rows.shape[0], block):
            hi = min(lo + block, rows.shape[0])
            self.kernel(rows[lo:hi], out[lo:hi], arena)

    def predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        """Objective-transformed predictions (probabilities for classifiers)."""
        return apply_objective(
            self.objective, self.raw_predict(rows, threads=threads)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generated_source(self) -> str:
        """The compiled Python/NumPy source of ``predict_block``."""
        return self.source

    def scratch_nbytes(self) -> int:
        """Materialized scratch-arena footprint across all owning threads.

        Zero for executors that have not run yet (arenas are created
        lazily per thread).
        """
        with self._arenas_lock:
            return sum(arena.nbytes() for arena in self._arenas)


class Predictor(KernelExecutor):
    """Executable inference function for one in-process compiled model."""

    def __init__(
        self,
        forest: Forest,
        lir: LIRModule,
        validate_inputs: bool = True,
        trace: CompilationTrace | None = None,
        emit: Callable[[LIRModule], str] = emit_module_source,
    ) -> None:
        self.forest = forest
        self.lir = lir
        #: the compilation trace this predictor was built under (None when
        #: constructed outside ``compile_model``); see ``trace.report()``
        self.trace = trace
        self.profile_recorder = (
            ProfileRecorder(
                label=f"trees{forest.num_trees}-t{lir.schedule.tile_size}"
                f"-{lir.schedule.tiling}-{lir.schedule.layout}"
            )
            if lir.schedule.profile
            else None
        )
        kernel, source = compile_lir(
            lir, trace=trace, profile_recorder=self.profile_recorder, emit=emit
        )
        super().__init__(
            kernel,
            lir.schedule,
            num_features=lir.num_features,
            num_classes=lir.num_classes,
            base_score=lir.base_score,
            objective=forest.objective,
            validate_inputs=validate_inputs,
            arena=arena_spec(lir),
            source=source,
        )
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Inference (simulation path needs the LIR-aware block runner)
    # ------------------------------------------------------------------
    def predict_simulated_parallel(
        self, rows: np.ndarray, cores: int, simulator: MulticoreSimulator | None = None
    ) -> tuple[np.ndarray, float]:
        """Run under the multicore timing model; returns (raw, seconds)."""
        rows = self._check(rows)
        out = self._alloc_out(rows.shape[0])
        sim = simulator or MulticoreSimulator()
        _, seconds = sim.run(self._run_blocks, rows, out, cores)
        raw = out[:, 0] if self.num_classes == 1 else out
        return raw, seconds

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable (model, schedule) content hash; the serving cache key."""
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint(self.forest, self.schedule)
        return self._fingerprint

    def memory_bytes(self) -> int:
        """Model-buffer footprint of the chosen in-memory representation.

        Quantized modules report the materialized kernel buffers (narrow
        int codes + cut tables) so serving gauges and benchmarks see the
        savings; float modules keep the historical layout accounting.
        """
        if self.lir.quant is not None:
            from repro.lir.memory import compiled_model_nbytes

            return compiled_model_nbytes(self.lir)
        return self.lir.total_nbytes()

    def profile_counters(self) -> dict:
        """Aggregated kernel profiling counters across all threads.

        Requires ``Schedule(profile=True)``; returns ``{}`` otherwise (the
        instrumentation was compiled out of the kernel entirely).
        """
        if self.profile_recorder is None:
            return {}
        return self.profile_recorder.aggregate()

    def reset_profile(self) -> None:
        """Zero the profiling counters (before/after measurements)."""
        if self.profile_recorder is not None:
            self.profile_recorder.reset()

    def dump_ir(self) -> str:
        """MIR loop nest + LIR summary, for docs and debugging."""
        return self.lir.mir.dump() + "\n" + self.lir.dump()

    def __repr__(self) -> str:
        return (
            f"Predictor(trees={self.forest.num_trees}, schedule={self.schedule}, "
            f"bytes={self.memory_bytes()})"
        )
