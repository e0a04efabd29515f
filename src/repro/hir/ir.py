"""The high-level IR module and its construction pass.

:class:`HIRModule` is the top of the lowering pipeline: the forest abstractly
represented as a set of (tiled, possibly padded, reordered) trees plus the
schedule annotations that later passes consume — exactly the role of the
paper's highest abstraction level, where ``predictForest`` is a set of
decision trees and tiling/ordering decisions are recorded as attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import Schedule
from repro.forest.ensemble import Forest
from repro.hir.padding import pad_to_uniform_depth
from repro.observe.stats import padding_stats, reorder_stats, tiling_stats
from repro.observe.trace import CompilationTrace
from repro.hir.reorder import TreeGroup, reorder_trees
from repro.hir.tiling.basic import basic_tiling
from repro.hir.tiling.hybrid import hybrid_tiling
from repro.hir.tiling.optimal import optimal_tiling
from repro.hir.tiling.probability import probability_tiling
from repro.hir.tiling.shapes import ShapeRegistry
from repro.hir.tiling.tile import TiledTree


@dataclass
class HIRModule:
    """The model after all high-level (Section III) transformations.

    Attributes
    ----------
    forest:
        The source ensemble (unmodified).
    schedule:
        The compilation schedule; later stages read their decisions here.
    tiled_trees:
        One :class:`TiledTree` per forest tree, in forest order.
    groups:
        Code-sharing tree groups in emission order (tree reordering).
    shape_registry:
        Every tile shape occurring in the tiled model, with stable ids.
    lut:
        The statically computed traversal lookup table
        ``lut[shape_id, predicate_bits] -> child index`` (Section V-A2).
    """

    forest: Forest
    schedule: Schedule
    tiled_trees: list[TiledTree]
    groups: list[TreeGroup]
    shape_registry: ShapeRegistry
    lut: np.ndarray

    @property
    def num_trees(self) -> int:
        return len(self.tiled_trees)


def _tile_tree(tree, schedule: Schedule):
    if schedule.tiling == "basic":
        return basic_tiling(tree, schedule.tile_size)
    if schedule.tiling == "probability":
        return probability_tiling(tree, schedule.tile_size)
    if schedule.tiling == "optimal":
        return optimal_tiling(tree, schedule.tile_size)
    return hybrid_tiling(tree, schedule.tile_size, alpha=schedule.alpha, beta=schedule.beta)


def build_hir(
    forest: Forest,
    schedule: Schedule,
    validate: bool = True,
    trace: CompilationTrace | None = None,
) -> HIRModule:
    """Run all HIR transformations: tile, pad, reorder, register shapes.

    ``validate`` controls whether each produced tiling is re-checked against
    the Section III-B1 constraints (kept on by default; the check is linear
    in model size). ``trace`` receives one timed span per transformation,
    each carrying its IR statistics (tile-shape histogram, padding overhead,
    group structure).
    """
    trace = trace or CompilationTrace()
    tiled_trees: list[TiledTree] = []
    with trace.span("tiling") as span:
        for tree in forest.trees:
            tiling = _tile_tree(tree, schedule)
            tiled = TiledTree.from_tiling(
                tree, tiling, schedule.tile_size, validate=validate
            )
            tiled_trees.append(tiled)

    with trace.span("padding") as pad_span:
        if schedule.pad_and_unroll:
            for tiled in tiled_trees:
                pad_to_uniform_depth(tiled, max_slack=schedule.pad_max_slack)

    # Guarded (non-unrolled) walks share one kernel for any tree, so all
    # trees merge into a single depth-sorted group; unrolled walks need
    # depth-homogeneous groups.
    with trace.span("reorder") as reorder_span:
        groups = reorder_trees(
            tiled_trees,
            enabled=schedule.reorder,
            merge=not schedule.pad_and_unroll,
        )
        if schedule.pgo is not None:
            # Profile-guided hot/cold split: annotate each group with its
            # legal hot-depth cutoff.
            from repro.pgo import resolve_hot_depths

            decision = resolve_hot_depths(schedule, groups, tiled_trees)
            for group in groups:
                group.hot_depth = decision.per_group.get(group.group_id, 0)
            reorder_span.stats["pgo"] = decision.describe()

    with trace.span("shape-registry"):
        registry = ShapeRegistry(schedule.tile_size)
        for tiled in tiled_trees:
            for tile in tiled.tiles:
                if tile.shape is not None:
                    registry.register(tile.shape)
        lut = registry.build_lut()
    module = HIRModule(
        forest=forest,
        schedule=schedule,
        tiled_trees=tiled_trees,
        groups=groups,
        shape_registry=registry,
        lut=lut,
    )
    # Stats are collected after construction so each span reports on the
    # *final* module state its transformation produced (padding mutates the
    # tilings in place; the tiling span still excludes dummy tiles).
    span.stats.update(tiling_stats(module))
    pad_span.stats.update(padding_stats(module))
    reorder_span.stats.update(reorder_stats(module))
    return module
