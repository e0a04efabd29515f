"""Degraded execution paths for the serving layer.

When code generation or the JIT fails for a model, the server must keep
answering — Section VI's correctness contract (compiled output ≡ reference
semantics) gives us two progressively simpler executors to fall back on:

* :class:`InterpreterPredictor` — the LIR lowering succeeded but codegen/JIT
  failed: run the reference interpreter over the exact lowered buffers.
  Slow, but bit-compatible with what the kernel would have produced.
* :class:`ReferencePredictor` — even lowering failed: evaluate the plain
  ``Forest`` semantics tree by tree.

Both expose the same surface the compiled :class:`~repro.backend.predictor.
Predictor` does (``raw_predict``/``predict`` with an optional ``threads``
override), so sessions swap them in without branching at call sites.
"""

from __future__ import annotations

import numpy as np

from repro.backend.interpreter import interpret_lir
from repro.config import Schedule
from repro.errors import ExecutionError
from repro.forest.ensemble import Forest, apply_objective
from repro.lir.ir import LIRModule


class _FallbackBase:
    """Shared input checking + objective transform for fallback executors."""

    #: distinguishes fallback executors from compiled predictors in metrics/tests
    is_fallback = True

    def __init__(self, forest: Forest, schedule: Schedule, validate_inputs: bool = True) -> None:
        self.forest = forest
        self.schedule = schedule
        self.validate_inputs = validate_inputs

    def _check(self, rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.forest.num_features:
            raise ExecutionError(
                f"rows must be (n, {self.forest.num_features}), got {rows.shape}"
            )
        if self.validate_inputs and np.isnan(rows).any():
            raise ExecutionError(
                "NaN inputs are unsupported: speculative tile evaluation "
                "requires totally ordered features"
            )
        return rows

    def raw_predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        return apply_objective(
            self.forest.objective, self.raw_predict(rows, threads=threads)
        )


class InterpreterPredictor(_FallbackBase):
    """Serve predictions through the LIR reference interpreter."""

    def __init__(self, forest: Forest, lir: LIRModule, validate_inputs: bool = True) -> None:
        super().__init__(forest, lir.schedule, validate_inputs)
        self.lir = lir

    def raw_predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        rows = self._check(rows)
        out = interpret_lir(self.lir, rows)
        return out[:, 0] if self.lir.num_classes == 1 else out

    def __repr__(self) -> str:
        return f"InterpreterPredictor(trees={self.forest.num_trees})"


class ReferencePredictor(_FallbackBase):
    """Serve predictions through the plain ``Forest`` traversal."""

    def __init__(self, forest: Forest, schedule: Schedule | None = None,
                 validate_inputs: bool = True) -> None:
        super().__init__(forest, schedule or Schedule(), validate_inputs)

    def raw_predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        rows = self._check(rows)
        return self.forest.raw_predict(rows)

    def __repr__(self) -> str:
        return f"ReferencePredictor(trees={self.forest.num_trees})"
