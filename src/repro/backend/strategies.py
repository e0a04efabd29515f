"""Alternative traversal strategies pluggable behind the Predictor API.

Section VII of the paper: "the QuickScorer algorithm can easily be
integrated into TREEBEARD as another traversal strategy for the system to
explore." This module does that integration: a QuickScorer-backed object
with the same inference surface as the tiled-walk
:class:`~repro.backend.predictor.Predictor`, selected with
``Schedule(traversal="quickscorer")`` and explorable by the autotuner.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.quickscorer import QuickScorerPredictor
from repro.config import QUANTIZED_PRECISIONS, Schedule
from repro.errors import CodegenError, ExecutionError
from repro.forest.ensemble import Forest, apply_objective


class QuickScorerStrategyPredictor:
    """QuickScorer traversal behind the compiled-predictor interface.

    Supports the runtime knobs that make sense for the strategy (input
    validation, simulated parallelism); tiling-related schedule fields are
    ignored, as the bitvector algorithm has no tiles. Trees are limited to
    64 leaves (the strategy's scaling cap, which the paper also notes).
    """

    def __init__(self, forest: Forest, schedule: Schedule, validate_inputs: bool = True) -> None:
        if schedule.precision in QUANTIZED_PRECISIONS:
            # The bitvector strategy compares float thresholds directly;
            # silently ignoring the precision knob would change numerics
            # relative to the quantized tiled kernels it is swept against.
            raise CodegenError(
                "quickscorer traversal does not support quantized "
                f"precision {schedule.precision!r}; use the tiled traversal"
            )
        self.forest = forest
        self.schedule = schedule
        self.validate_inputs = validate_inputs
        self._impl = QuickScorerPredictor(forest)

    def _check(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.forest.num_features:
            raise ExecutionError(
                f"rows must be (n, {self.forest.num_features}), got {rows.shape}"
            )
        if rows.dtype != np.float64 or not rows.flags.c_contiguous:
            rows = np.ascontiguousarray(rows, dtype=np.float64)
        # min() propagates NaN in one pass without an (n, F) boolean mask.
        if self.validate_inputs and rows.size and np.isnan(rows.min()):
            raise ExecutionError("NaN inputs are unsupported")
        return rows

    def raw_predict(self, rows: np.ndarray) -> np.ndarray:
        return self._impl.raw_predict(self._check(rows))

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return apply_objective(self.forest.objective, self.raw_predict(rows))

    def memory_bytes(self) -> int:
        """Footprint of the bitvector structures (masks + leaf values)."""
        impl = self._impl
        total = impl.full_mask.nbytes + impl.leaf_values.nbytes
        for f in impl.features:
            total += impl.thresholds[f].nbytes + impl.tree_ids[f].nbytes
            total += impl.masks[f].nbytes
        return total

    @property
    def generated_source(self) -> str:
        return "# quickscorer traversal strategy (interpreted; no generated kernel)"

    def dump_ir(self) -> str:
        return (
            f"QuickScorerStrategy(trees={self.forest.num_trees}, "
            f"features={len(self._impl.features)}, "
            f"max_leaves={self._impl.leaf_values.shape[1]})"
        )

    def __repr__(self) -> str:
        return f"QuickScorerStrategyPredictor(trees={self.forest.num_trees})"
