"""MIR -> LIR lowering: materialize buffers and bind walks to them.

For each tree group the schedule's layout is built (stacked across the
group's trees); degenerate all-leaf groups are marked trivial so the
backend can fold them into the base score accumulation. The LUT is rebuilt
from the registry *after* layout construction because layouts may register
additional shapes (the dummy chain shape used by hops and padding).
"""

from __future__ import annotations

import numpy as np

from repro.config import PRECISION_TABLE
from repro.errors import LoweringError
from repro.hir.ir import HIRModule
from repro.lir.ir import HotSplit, LIRGroup, LIRModule
from repro.lir.layout.array_layout import build_array_layout
from repro.lir.layout.sparse_layout import build_sparse_layout
from repro.hir.tiling.shapes import storage_width
from repro.mir.ir import MIRModule
from repro.observe.stats import lir_stats
from repro.observe.trace import CompilationTrace


def _hot_split_plan(walk, layout, tiled_trees, tree_indices) -> HotSplit | None:
    """Prefix length of the hot buffers for one group, per its layout.

    Sparse layouts flatten tiles breadth-first, so the tiles at depth
    ``< h`` are exactly the first ``N_lane`` records of each lane, where
    ``N_lane`` counts the lane's tiles above the cutoff (hops and leaves
    only appear at ``depth >= min_leaf_depth > h``, so the prefix is pure
    internal tiles). Array layouts index slots positionally, so the prefix
    is the complete-tree slot count above the cutoff (clipped to the
    buffers' actual slot count — partially filled tiles can leave the
    group short of a complete level).
    """
    h = walk.hot_depth
    if not h:
        return None
    if layout.kind == "array":
        arity = layout.tile_size + 1
        slots_above = (arity**h - 1) // (arity - 1)
        tiles = min(slots_above, layout.num_slots)
    else:
        tiles = 0
        for idx in tree_indices:
            tiled = tiled_trees[idx]
            lane = sum(
                1
                for tile in tiled.tiles
                if tile.depth < h and not tile.is_leaf
            )
            tiles = max(tiles, lane)
    if tiles <= 0:
        return None
    return HotSplit(depth=h, tiles=tiles)


def lower_mir_to_lir(
    mir: MIRModule, hir: HIRModule, trace: CompilationTrace | None = None
) -> LIRModule:
    """Lower the loop nest to buffer-level IR per the schedule's layout.

    ``trace`` gets a ``layout`` span (buffer materialization across groups)
    and a ``lut`` span; the layout span carries the per-group buffer byte
    sizes of the finished module.
    """
    trace = trace or CompilationTrace()
    schedule = mir.schedule
    forest = hir.forest
    class_of_tree = forest.class_ids()
    groups: list[LIRGroup] = []
    walks = {loop.group_id: loop.walk for loop in mir.tree_loops}
    with trace.span("layout") as layout_span:
        for group in hir.groups:
            walk = walks.get(group.group_id)
            if walk is None:
                raise LoweringError(f"group {group.group_id} has no walk in MIR")
            class_ids = class_of_tree[group.tree_indices]
            if schedule.layout == "array":
                layout = build_array_layout(
                    hir.tiled_trees, group.tree_indices, class_ids, hir.shape_registry
                )
            else:
                layout = build_sparse_layout(
                    hir.tiled_trees, group.tree_indices, class_ids, hir.shape_registry
                )
            trivial = group.depth == 0
            hot = (
                None
                if trivial
                else _hot_split_plan(
                    walk, layout, hir.tiled_trees, group.tree_indices
                )
            )
            groups.append(
                LIRGroup(
                    group_id=group.group_id,
                    layout=layout,
                    walk=walk,
                    class_ids=np.asarray(class_ids, dtype=np.int32),
                    trivial=trivial,
                    hot=hot,
                )
            )
    with trace.span("lut"):
        lut = hir.shape_registry.build_lut(width=storage_width(schedule.tile_size))
    module = LIRModule(
        schedule=schedule,
        mir=mir,
        groups=groups,
        lut=lut,
        dummy_shape_id=hir.shape_registry.dummy_id,
        num_features=forest.num_features,
        num_classes=forest.num_classes,
        base_score=forest.base_score,
        pass_log=list(mir.pass_log) + ["lower_mir_to_lir"],
    )
    if PRECISION_TABLE[schedule.precision].quantized:
        # Integer precisions: attach the rank-coded threshold tables and
        # the fixed-point leaf scale the backend quantizes buffers with.
        from repro.lir.quantize import build_quantization

        with trace.span("quantize") as quant_span:
            module.quant = build_quantization(module)
            quant_span.stats.update(module.quant.describe())
        module.pass_log.append("quantize")
    layout_span.stats.update(lir_stats(module))
    return module
