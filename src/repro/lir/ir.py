"""Low-level IR module definitions.

An :class:`LIRModule` owns, per tree group, the materialized buffers (array
or sparse layout) and the walk descriptor carried down from MIR. One walk
*step* always lowers to the same op sequence — the §V-A listing — recorded
in :data:`WALK_STEP_OPS`; the backend emits one vector statement per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import Schedule
from repro.mir.ir import MIRModule, WalkOp

#: The fixed op sequence of one vectorized tile-walk step (Section V-A).
WALK_STEP_OPS = (
    "loadThresholds",       # vector load of the tile's thresholds
    "loadFeatureIndices",   # vector load of the tile's feature indices
    "gatherFeatures",       # gather features from the current row(s)
    "vectorCompare",        # features < thresholds, all tile nodes at once
    "packBits",             # pack the comparison vector into an integer
    "loadTileShape",        # the tile's shape id
    "lookupChildIndex",     # LUT[shape, bits] -> child index
    "advanceToChild",       # move to the selected child tile
)


@dataclass(frozen=True)
class HotSplit:
    """Hot-prefix buffer plan of one group (``Schedule(pgo=...)``).

    Both layouts number tiles in level order, so the tiles at depth
    ``< depth`` occupy the first ``tiles`` positions of each lane's tile
    buffers *with unchanged indices* — the backend slices a compact
    contiguous copy of that prefix for the hot phase and the walk state
    carries over to the full buffers with no translation.
    """

    #: tile levels walked check-free over the compact prefix buffers
    depth: int
    #: per-lane prefix length (group maximum) the hot buffers are cut at
    tiles: int


@dataclass
class LIRGroup:
    """Buffers plus walk plan for one tree group."""

    group_id: int
    layout: object  # ArrayGroupLayout | SparseGroupLayout
    walk: WalkOp
    class_ids: np.ndarray
    #: True when every member tree is a bare leaf (depth-0 group)
    trivial: bool = False
    #: hot/cold split plan; None when the group has no hot prefix
    hot: HotSplit | None = None

    @property
    def num_trees(self) -> int:
        return self.layout.num_trees


@dataclass
class LIRModule:
    """The fully lowered model, ready for code generation."""

    schedule: Schedule
    mir: MIRModule
    groups: list[LIRGroup]
    lut: np.ndarray
    num_features: int
    num_classes: int
    base_score: float
    #: LUT row reserved for dummy (padding/hop) tiles, None if the model
    #: has no dummy tiles. Lets the backend specialize on the number of
    #: *real* shapes while keeping dummy routing data-independent.
    dummy_shape_id: int | None = None
    #: integer-quantization tables (rank-coded thresholds + fixed-point
    #: leaf scale) attached by the quantization pass; None for float
    #: precisions. See :mod:`repro.lir.quantize`.
    quant: object | None = None
    pass_log: list[str] = field(default_factory=list)

    @property
    def tile_size(self) -> int:
        return self.schedule.tile_size

    def lane_budget(self, group_id: int) -> int:
        """Lane budget of ``group_id``'s MIR tree loop (0 = fixed chunk step)."""
        return next(
            loop.lane_budget
            for loop in self.mir.tree_loops
            if loop.group_id == group_id
        )

    def total_nbytes(self) -> int:
        """Model-buffer footprint across all groups (excludes the LUT)."""
        return sum(g.layout.nbytes() for g in self.groups)

    def dump(self) -> str:
        """Human-readable summary for docs and debugging."""
        lines = [
            f"LIRModule(tile_size={self.tile_size}, layout={self.schedule.layout}, "
            f"classes={self.num_classes}, lut={self.lut.shape})"
        ]
        for g in self.groups:
            lay = g.layout
            dims = (
                f"slots={lay.num_slots}" if lay.kind == "array" else
                f"tiles={int(lay.num_tiles.max())}, leaves={int(lay.num_leaves.max())}"
            )
            lines.append(
                f"  group {g.group_id}: {g.num_trees} trees, {lay.kind} layout "
                f"({dims}), {g.walk.describe()}"
            )
        lines.append("  step ops: " + " -> ".join(WALK_STEP_OPS))
        return "\n".join(lines)
