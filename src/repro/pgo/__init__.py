"""Profile-guided hot/cold tree splitting (``Schedule(pgo=...)``).

Treebeard's schedules decide *statically* how a walk is realized; this
module closes the loop with where walks actually spend their steps, in the
spirit of "Register Your Forests" (arXiv 2404.06846): the top levels of a
tree are visited by (virtually) every walk, so they deserve the densest
possible layout, while the long tail below the shallowest leaf is
conditional and stays on the generic guarded path.

The *hot-depth cutoff* ``h`` of a tree group is the number of tile levels
compiled as the hot prefix. Three sources produce it:

* ``Schedule(pgo=h)`` — an explicit cutoff, typically measured from live
  serving profiles (:func:`measured_hot_depth` over
  :meth:`~repro.observe.profile.ProfileRecorder.aggregate`);
* ``Schedule(pgo="auto")`` — a static estimate from the tiled trees'
  expected walk length (leaf statistics when populated, structure
  otherwise);
* ``None`` — disabled (the default; fingerprints and kernels are
  byte-identical to pre-PGO builds).

Whatever the source, the cutoff is clipped per group to the *legal* range
``[1, min_leaf_depth - 1]``: every tile at depth below the shallowest leaf
is internal, so the hot prefix needs no leaf checks, no hop handling and no
negative child bases — it is a straight check-free peel over compact
contiguous prefix buffers. Groups where no legal cutoff exists (depth-0
groups, ``min_leaf_depth <= 1``) simply opt out.

Why a *prefix* buffer works without any index translation: both layouts
number tiles in level order (the sparse flattening is a breadth-first
queue; the array layout's positional slots grow with depth), so the tiles
at depth ``< h`` occupy a contiguous prefix of each lane's buffers and
keep their full-layout indices. The hot walk therefore reads small
cache-resident arrays, and the state it leaves behind after ``h`` steps
seeds the cold tail directly — same comparisons, same routing, same
accumulation order, hence bitwise-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

@dataclass(frozen=True)
class HotDepthDecision:
    """How the per-group hot depths of one compilation were chosen."""

    #: ``"explicit"`` | ``"profile"`` | ``"static"`` | ``"disabled"``
    source: str
    #: the requested global cutoff before per-group legality clipping
    cutoff: int
    #: mean walk steps per (row, tree) behind the cutoff, when measured
    mean_steps: float | None = None
    #: group_id -> legal hot depth (0 = group opted out)
    per_group: dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        active = {g: h for g, h in self.per_group.items() if h > 0}
        return (
            f"pgo[{self.source}] cutoff={self.cutoff} "
            f"hot_groups={active or '{}'}"
        )


def legal_hot_depth(depth: int, min_leaf_depth: int, cutoff: int) -> int:
    """Clip ``cutoff`` into a group's legal hot range; 0 disables.

    Legality: ``1 <= h < min_leaf_depth``. Depths below the shallowest
    leaf contain only internal tiles, so the hot prefix is check-free by
    construction; uniform padded groups have ``min_leaf_depth == depth``,
    which guarantees a non-empty cold tail (the final leaf step).
    """
    if depth <= 0 or min_leaf_depth <= 1 or cutoff < 1:
        return 0
    return min(int(cutoff), min_leaf_depth - 1)


def measured_hot_depth(
    counters: dict, num_walking_trees: int
) -> tuple[int | None, float | None]:
    """``(cutoff, mean_steps)`` from live profile aggregates.

    ``walk_steps`` counts one per active (row, tree) lane element per
    advance, so ``walk_steps / (rows * walking_trees)`` is the mean number
    of tile evaluations a walk performs — its expected leaf-tile depth.
    The final step lands *on* the leaf, so the levels every walk passes
    through as internal tiles number one less: ``floor(mean) - 1``
    (floored at 1). Returns ``(None, None)`` when the profile is empty.
    """
    rows = int(counters.get("rows", 0) or 0)
    steps = int(counters.get("walk_steps", 0) or 0)
    if rows <= 0 or steps <= 0 or num_walking_trees <= 0:
        return None, None
    mean = steps / (rows * num_walking_trees)
    return max(1, int(math.floor(mean)) - 1), mean


def static_hot_depth(tiled_trees, tree_indices) -> int:
    """Static cutoff for one group from its members' leaf statistics.

    Uses :meth:`~repro.hir.tiling.tile.TiledTree.expected_walk_length`
    (the probability-weighted expected leaf-tile depth) when node
    probabilities are populated; trees without statistics fall back to
    their shallowest-leaf depth — the levels *every* walk provably
    traverses.
    """
    estimates = []
    for idx in tree_indices:
        tiled = tiled_trees[idx]
        expected = tiled.expected_walk_length()
        estimates.append(
            expected if expected > 0 else float(tiled.min_leaf_depth)
        )
    if not estimates:
        return 0
    mean = sum(estimates) / len(estimates)
    return max(1, int(math.floor(mean)) - 1)


def resolve_hot_depths(schedule, groups, tiled_trees) -> HotDepthDecision:
    """Per-group hot depths for ``schedule.pgo`` over the HIR groups.

    Only the tiled traversal participates; quickscorer schedules (and
    ``pgo=None``) yield an all-zero decision, leaving the pipeline
    untouched.
    """
    pgo = schedule.pgo
    if pgo is None or schedule.traversal != "tiled":
        return HotDepthDecision(
            source="disabled",
            cutoff=0,
            per_group={g.group_id: 0 for g in groups},
        )
    per_group: dict[int, int] = {}
    if isinstance(pgo, int):
        for group in groups:
            per_group[group.group_id] = legal_hot_depth(
                group.depth, group.min_leaf_depth, pgo
            )
        return HotDepthDecision(
            source="explicit", cutoff=int(pgo), per_group=per_group
        )
    # "auto": independent static estimate per group
    cutoff = 0
    for group in groups:
        est = static_hot_depth(tiled_trees, group.tree_indices)
        cutoff = max(cutoff, est)
        per_group[group.group_id] = legal_hot_depth(
            group.depth, group.min_leaf_depth, est
        )
    return HotDepthDecision(source="static", cutoff=cutoff, per_group=per_group)


# ----------------------------------------------------------------------
# Introspection over lowered modules (serving gauges, flight events)
# ----------------------------------------------------------------------

def walking_trees(lir) -> int:
    """Trees in non-trivial groups — the denominator of the measured mean."""
    return sum(g.num_trees for g in lir.groups if not g.trivial)


def prefix_bytes(lir) -> dict:
    """Byte-level hot/full tile-buffer accounting of a lowered module.

    ``hot_bytes`` is the footprint of the compact prefix buffers the hot
    phase actually walks; ``full_bytes`` the corresponding full tile
    buffers — the shrink the split buys its cache residency with. Zeros
    when the module carries no hot split.
    """
    from repro.config import PRECISION_TABLE

    info = PRECISION_TABLE[lir.schedule.precision]
    hot = full = 0
    hot_depth = 0
    for group in lir.groups:
        split = getattr(group, "hot", None)
        if group.trivial or split is None:
            continue
        k, tiles, width = group.layout.thresholds.shape
        # th + fi + sid (+ cb for sparse, + nd mask when present) per tile
        per_tile = width * (info.element_size + info.findex_size) + 8
        if group.layout.kind == "sparse":
            per_tile += 8
        hot += k * split.tiles * per_tile
        full += k * tiles * per_tile
        hot_depth = max(hot_depth, split.depth)
    return {
        "hot_depth": hot_depth,
        "hot_bytes": int(hot),
        "full_bytes": int(full),
        "shrink": round(1.0 - hot / full, 4) if full else 0.0,
    }
