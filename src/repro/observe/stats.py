"""Structured IR statistics for each pipeline level.

Each collector takes the module produced by one lowering level and returns
a plain dict of JSON-friendly numbers — the "why was this schedule fast"
features: tile-shape histograms and padding overhead at HIR, loop structure
at MIR, buffer and LUT byte sizes at LIR. ``compile_model`` attaches them
to the matching trace spans; :func:`repro.observe.explain` renders them as
a per-schedule decision report, and an autotuner can use them directly as
an observation space.

All collectors are read-only over the IR (duck-typed attribute access, no
imports of the IR modules) so they can run on any pipeline stage output
without import cycles.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence


def distribution(values: Sequence[float]) -> dict[str, float]:
    """Compact summary of a numeric distribution (min/mean/max/total)."""
    seq = [float(v) for v in values]
    if not seq:
        return {"count": 0, "min": 0.0, "mean": 0.0, "max": 0.0, "total": 0.0}
    return {
        "count": len(seq),
        "min": min(seq),
        "mean": sum(seq) / len(seq),
        "max": max(seq),
        "total": sum(seq),
    }


# ----------------------------------------------------------------------
# HIR
# ----------------------------------------------------------------------

def tiling_stats(hir) -> dict[str, Any]:
    """Tile-shape histogram plus tree depth/leaf distributions.

    Depth "before" is the binary tree's node depth; "after" is the tiled
    tree's leaf-*tile* depth — their ratio is the walk-step compression the
    tiling bought. Dummy tiles are excluded here (padding owns them).
    """
    shape_counts: Counter[tuple] = Counter()  # few shapes, many tiles
    tiles_per_tree: list[int] = []
    depth_before: list[int] = []
    depth_after: list[int] = []
    leaves_per_tree: list[int] = []
    for tiled in hir.tiled_trees:
        real = [t.shape for t in tiled.tiles if not t.is_dummy and not t.is_leaf]
        tiles_per_tree.append(len(real))
        shape_counts.update(real)
        depth_before.append(int(tiled.tree.max_depth))
        depth_after.append(max((t.depth for t in tiled.tiles if t.is_leaf), default=0))
        leaves_per_tree.append(int(tiled.tree.num_leaves))
    return {
        "tile_size": hir.schedule.tile_size,
        "tiling": hir.schedule.tiling,
        "num_trees": len(hir.tiled_trees),
        "tile_shape_hist": {_shape_label(s): n for s, n in shape_counts.items()},
        "distinct_shapes": len(shape_counts),
        "tiles_per_tree": distribution(tiles_per_tree),
        "nodes_per_tile": distribution(
            [len(s) for s, n in shape_counts.items() for _ in range(n)]
        ),
        "tree_depth_before": distribution(depth_before),
        "leaf_tile_depth_after": distribution(depth_after),
        "leaves_per_tree": distribution(leaves_per_tree),
    }


def padding_stats(hir) -> dict[str, Any]:
    """Dummy-tile overhead introduced by pad-to-uniform-depth."""
    dummy = 0
    total = 0
    padded_trees = 0
    uniform_trees = 0
    for tiled in hir.tiled_trees:
        tree_dummy = sum(1 for t in tiled.tiles if t.is_dummy)
        dummy += tree_dummy
        total += len(tiled.tiles)
        if tree_dummy:
            padded_trees += 1
        if tiled.is_uniform_depth:
            uniform_trees += 1
    return {
        "enabled": bool(hir.schedule.pad_and_unroll),
        "dummy_tiles": dummy,
        "total_tiles": total,
        "dummy_fraction": (dummy / total) if total else 0.0,
        "trees_padded": padded_trees,
        "trees_uniform_depth": uniform_trees,
    }


def reorder_stats(hir) -> dict[str, Any]:
    """Code-sharing group structure after tree reordering."""
    groups = [
        {
            "group_id": g.group_id,
            "num_trees": g.num_trees,
            "depth": g.depth,
            "uniform": bool(g.uniform),
            "min_leaf_depth": g.min_leaf_depth,
        }
        for g in hir.groups
    ]
    return {
        "enabled": bool(hir.schedule.reorder),
        "num_groups": len(groups),
        "groups": groups,
    }


def hir_stats(hir) -> dict[str, Any]:
    """All HIR-level statistics in one dict (the ``explain`` view)."""
    return {
        "tiling": tiling_stats(hir),
        "padding": padding_stats(hir),
        "reorder": reorder_stats(hir),
        "lut_shape": list(hir.lut.shape),
    }


# ----------------------------------------------------------------------
# MIR
# ----------------------------------------------------------------------

def mir_stats(mir) -> dict[str, Any]:
    """Loop-nest structure after the MIR passes."""
    loops = [
        {
            "group_id": loop.group_id,
            "num_trees": loop.num_trees,
            "step": loop.step,
            "max_step": loop.max_step,
            "lane_budget": loop.lane_budget,
            "walk_style": loop.walk.style,
            "walk_width": loop.walk.width,
            "walk_depth": loop.walk.depth,
            "walk_peel": loop.walk.peel,
        }
        for loop in mir.tree_loops
    ]
    return {
        "loop_order": mir.loop_order,
        "row_block": mir.row_loop.block,
        "row_threads": mir.row_loop.num_threads,
        "num_tree_loops": len(loops),
        "tree_loops": loops,
        "pass_log": list(mir.pass_log),
    }


# ----------------------------------------------------------------------
# LIR
# ----------------------------------------------------------------------

def lir_stats(lir) -> dict[str, Any]:
    """Materialized buffer footprints: per-group bytes plus the LUT."""
    groups = []
    for g in lir.groups:
        layout = g.layout
        groups.append(
            {
                "group_id": g.group_id,
                "kind": layout.kind,
                "num_trees": g.num_trees,
                "trivial": bool(g.trivial),
                "nbytes": int(layout.nbytes()),
                "walk": g.walk.describe(),
            }
        )
    return {
        "layout": lir.schedule.layout,
        "precision": lir.schedule.precision,
        "num_groups": len(groups),
        "groups": groups,
        "model_bytes": int(lir.total_nbytes()),
        "lut_shape": list(lir.lut.shape),
        "lut_bytes": int(lir.lut.nbytes),
        "num_shapes": int(lir.lut.shape[0]),
        "has_dummy_shape": lir.dummy_shape_id is not None,
    }


def _shape_label(shape) -> str:
    """Stable compact label for a canonical tile-shape key."""
    if shape is None:
        return "leaf"
    if len(shape) == 0:
        return "dummy"
    return f"n{len(shape)}:" + ";".join(f"{l},{r}" for l, r in shape)
