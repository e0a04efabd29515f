"""MIR optimization passes (Section IV).

Each pass takes and returns an :class:`~repro.mir.ir.MIRModule`, mutating the
loop nest in place and appending to ``pass_log``. ``run_mir_pipeline``
applies the standard ordering driven by the schedule.
"""

from __future__ import annotations

from repro.errors import LoweringError
from repro.hir.ir import HIRModule
from repro.mir.ir import LANE_BUDGET, MIRModule
from repro.observe.stats import mir_stats
from repro.observe.trace import CompilationTrace


def _lane_budget(factor: int, loop) -> int:
    """The budget a tree loop carries: none unless it is jammed and has
    more than one ``step``-wide chunk to merge."""
    return LANE_BUDGET if factor > 1 and loop.num_trees > loop.step else 0


def interleave_pass(mir: MIRModule, hir: HIRModule) -> MIRModule:
    """Tree-walk interleaving by unroll-and-jam (Section IV-A).

    The innermost tree loop is unrolled ``factor`` times and the resulting
    walks jammed into one interleaved walk, so independent walks can overlap
    (in the paper: hide dependency stalls; here: amortize per-step overhead
    across wider vector operations). The jam width is clipped to the group
    size — jamming more walks than there are trees is meaningless. It is
    the *floor* of the chunk step: a jammed loop of more than one chunk also
    gets the lane budget, under which the kernel widens each chunk to the
    live batch (:func:`~repro.mir.ir.chunk_width`). ``interleave=1`` stays
    unjammed, and a group no wider than its jam is one chunk at any batch.
    """
    factor = mir.schedule.interleave
    for loop in mir.tree_loops:
        width = max(1, min(factor, loop.num_trees))
        loop.step = width
        loop.walk.width = width
        loop.lane_budget = _lane_budget(factor, loop)
    mir.pass_log.append(f"interleave(factor={factor})")
    return mir


def peel_and_unroll_pass(mir: MIRModule, hir: HIRModule) -> MIRModule:
    """Walk peeling and unrolling (Section IV-B).

    Uniform-depth (padded) groups get fully unrolled walks with no
    termination checks. Other groups get a peeled prologue: the first
    ``min_leaf_depth - 1`` steps cannot reach a leaf, so their termination
    checks are elided; the remaining steps run in a guarded loop.
    """
    groups = {g.group_id: g for g in hir.groups}
    for loop in mir.tree_loops:
        group = groups[loop.group_id]
        walk = loop.walk
        if mir.schedule.pad_and_unroll and group.uniform and group.depth > 0:
            walk.style = "unrolled"
            walk.depth = group.depth
            walk.peel = 0
        elif mir.schedule.peel_walk and group.min_leaf_depth > 1:
            walk.style = "peeled"
            walk.depth = group.depth
            walk.peel = group.min_leaf_depth - 1
        else:
            walk.style = "loop"
            walk.depth = group.depth
    mir.pass_log.append("peel_and_unroll")
    return mir


def hot_split_pass(mir: MIRModule, hir: HIRModule) -> MIRModule:
    """Profile-guided hot/cold walk splitting (``Schedule(pgo=...)``).

    Groups annotated with a hot depth by the HIR stage get their walks
    split: the first ``hot_depth`` steps run as a check-free phase over
    compact prefix buffers, then the ordinary
    walk style (loop / peeled / unrolled) finishes from the carried state.
    The split is orthogonal to the style — ``peel``/``depth`` keep their
    meaning, codegen simply starts the cold phase ``hot_depth`` levels in.
    """
    from repro.pgo import legal_hot_depth

    groups = {g.group_id: g for g in hir.groups}
    for loop in mir.tree_loops:
        group = groups[loop.group_id]
        # Re-clip: HIR annotations are already legal, but clipping here
        # keeps the pass safe for hand-built modules in tests.
        loop.walk.hot_depth = legal_hot_depth(
            group.depth, group.min_leaf_depth, group.hot_depth
        )
    mir.pass_log.append("hot_split")
    return mir


def parallelize_pass(mir: MIRModule, hir: HIRModule) -> MIRModule:
    """Naive row-loop parallelization (Section IV-C).

    The loop over input rows is tiled by the core count and marked
    ``parallel.for``; each thread runs the full tree nest on its block.
    """
    threads = mir.schedule.parallel
    if threads > 1:
        mir.row_loop.num_threads = threads
    mir.pass_log.append(f"parallelize(threads={threads})")
    return mir


def verify_mir(mir: MIRModule, hir: HIRModule) -> None:
    """Structural sanity checks between passes; raises LoweringError."""
    seen = set()
    groups = {g.group_id: g for g in hir.groups}
    for loop in mir.tree_loops:
        if loop.group_id in seen:
            raise LoweringError(f"group {loop.group_id} appears in two tree loops")
        seen.add(loop.group_id)
        if loop.group_id not in groups:
            raise LoweringError(f"unknown group {loop.group_id}")
        group = groups[loop.group_id]
        if loop.num_trees != group.num_trees:
            raise LoweringError("tree loop trip count disagrees with its group")
        walk = loop.walk
        if walk.width > loop.num_trees:
            raise LoweringError("jam width exceeds group size")
        if walk.style == "unrolled" and not group.uniform:
            raise LoweringError("unrolled walk on a non-uniform-depth group")
        if walk.style == "peeled" and walk.peel >= group.min_leaf_depth:
            raise LoweringError("peel count reaches the shallowest leaf")
        if walk.hot_depth and walk.hot_depth >= group.min_leaf_depth:
            raise LoweringError("hot depth reaches the shallowest leaf")
        want_budget = _lane_budget(mir.schedule.interleave, loop)
        if loop.lane_budget != want_budget:
            raise LoweringError(
                f"lane budget {loop.lane_budget}, interleave "
                f"{mir.schedule.interleave} over {loop.num_trees} trees "
                f"requires {want_budget}"
            )
    if seen != set(groups):
        raise LoweringError("some groups have no tree loop")


def run_mir_pipeline(
    mir: MIRModule, hir: HIRModule, trace: CompilationTrace | None = None
) -> MIRModule:
    """Apply the schedule-driven pass ordering with verification.

    Each pass runs inside its own trace span; the final span carries the
    post-pipeline loop-nest statistics (walk styles, widths, peel depths).
    """
    trace = trace or CompilationTrace()
    if hir.schedule.interleave > 1:
        with trace.span("interleave") as span:
            interleave_pass(mir, hir)
            span.stats["widths"] = [loop.walk.width for loop in mir.tree_loops]
    with trace.span("peel-and-unroll") as span:
        peel_and_unroll_pass(mir, hir)
        span.stats["styles"] = {
            loop.group_id: loop.walk.style for loop in mir.tree_loops
        }
    if any(g.hot_depth for g in hir.groups):
        with trace.span("hot-split") as span:
            hot_split_pass(mir, hir)
            span.stats["hot"] = {
                loop.group_id: loop.walk.hot_depth
                for loop in mir.tree_loops
                if loop.walk.hot_depth
            }
    with trace.span("parallelize") as span:
        parallelize_pass(mir, hir)
        span.stats["threads"] = mir.row_loop.num_threads
    with trace.span("verify-mir") as span:
        verify_mir(mir, hir)
        span.stats.update(mir_stats(mir))
    return mir
