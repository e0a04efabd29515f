"""Structural verification of MIR modules.

The MIR invariants re-checked here (what the lowering and the Section IV
passes are supposed to guarantee about the loop nest):

* the existing between-pass checks of :func:`repro.mir.passes.verify_mir`
  (group uniqueness, trip counts, jam width, unrolled/peeled legality, the
  lane budget of jammed loops),
  re-raised as :class:`~repro.errors.VerificationError`;
* **coverage**: the tree loops walk every tree of the forest exactly once —
  each group has exactly one loop, the groups partition the tree indices,
  and every chunk loop's ``(num_trees, step)`` pair enumerates each lane
  exactly once (``ceil(num_trees / step)`` chunks, no lane skipped or
  revisited by the jam);
* **chunking**: ``step == walk.width`` (the unroll-and-jam factor *is* the
  floor of the loop step) and ``width == max(1, min(schedule.interleave,
  num_trees))`` — the interleave pass clips to the group size, nothing
  else may change the width;
* **walk shape**: every walk's style is a known :data:`WALK_STYLES` member,
  its depth equals the group's cached depth, ``unrolled`` only appears on
  uniform-depth groups under a padding schedule, and a peeled prologue
  never reaches the shallowest leaf;
* **schedule consistency**: the module's loop order, row block and thread
  count are exactly what the schedule requested.

All violations raise :class:`~repro.errors.VerificationError` naming the
loop/group concerned. Returns a stats dict for the trace span.
"""

from __future__ import annotations

from repro.errors import LoweringError, VerificationError
from repro.hir.ir import HIRModule
from repro.mir.ir import WALK_STYLES, MIRModule
from repro.mir.passes import verify_mir


def _fail(message: str) -> None:
    raise VerificationError(f"MIR: {message}")


def verify_mir_module(mir: MIRModule, hir: HIRModule) -> dict:
    """Check every MIR invariant; returns span stats, raises on violation."""
    try:
        verify_mir(mir, hir)
    except LoweringError as exc:
        _fail(str(exc))

    if mir.loop_order != mir.schedule.loop_order:
        _fail(
            f"module loop order {mir.loop_order!r} != schedule "
            f"{mir.schedule.loop_order!r}"
        )
    if mir.row_loop.block != mir.schedule.row_block:
        _fail(
            f"row loop block {mir.row_loop.block} != schedule row_block "
            f"{mir.schedule.row_block}"
        )
    want_threads = mir.schedule.parallel if mir.schedule.parallel > 1 else 1
    if mir.row_loop.num_threads != want_threads:
        _fail(
            f"row loop has {mir.row_loop.num_threads} threads, schedule "
            f"requests {want_threads}"
        )

    groups = {g.group_id: g for g in hir.groups}
    covered: list[int] = []
    walks = 0
    for loop in mir.tree_loops:
        group = groups[loop.group_id]
        covered.extend(group.tree_indices)
        walk = loop.walk
        walks += 1
        if walk.group_id != loop.group_id:
            _fail(
                f"loop over group {loop.group_id} carries a walk for group "
                f"{walk.group_id}"
            )
        if walk.style not in WALK_STYLES:
            _fail(f"group {loop.group_id}: unknown walk style {walk.style!r}")
        if not (1 <= loop.step <= loop.num_trees):
            _fail(
                f"group {loop.group_id}: chunk step {loop.step} outside "
                f"[1, {loop.num_trees}] — chunking is not exhaustive"
            )
        if loop.step != walk.width:
            _fail(
                f"group {loop.group_id}: loop step {loop.step} != jam width "
                f"{walk.width} — chunks and walks disagree on lane count"
            )
        want_width = max(1, min(mir.schedule.interleave, loop.num_trees))
        if walk.width != want_width:
            _fail(
                f"group {loop.group_id}: jam width {walk.width}, schedule "
                f"interleave {mir.schedule.interleave} over {loop.num_trees} "
                f"trees requires {want_width}"
            )
        # The chunk loop enumerates lanes [0, step), [step, 2*step), ... —
        # exactly-once coverage of the group's trees by construction *iff*
        # step >= 1, which the range check above pinned. Count the chunks so
        # the stats expose the realized shape.
        if walk.depth != group.depth:
            _fail(
                f"group {loop.group_id}: walk depth {walk.depth} != group "
                f"depth {group.depth}"
            )
        if walk.style == "unrolled" and not mir.schedule.pad_and_unroll:
            _fail(
                f"group {loop.group_id}: unrolled walk but the schedule does "
                "not pad_and_unroll"
            )
        if walk.style == "peeled" and walk.peel < 1:
            _fail(f"group {loop.group_id}: peeled walk with peel={walk.peel}")
        if walk.peel and walk.style == "loop":
            _fail(f"group {loop.group_id}: plain loop walk carries peel={walk.peel}")
        if walk.hot_depth and mir.schedule.pgo is None:
            _fail(
                f"group {loop.group_id}: hot split (depth={walk.hot_depth}) "
                "without Schedule(pgo=...) — default kernels must be "
                "byte-identical to pre-PGO builds"
            )
        if walk.hot_depth and walk.hot_depth != group.hot_depth:
            _fail(
                f"group {loop.group_id}: walk hot depth {walk.hot_depth} != "
                f"HIR annotation {group.hot_depth}"
            )

    if sorted(covered) != list(range(hir.num_trees)):
        _fail(
            "tree loops do not cover every tree exactly once: walked indices "
            f"{sorted(covered)[:8]}... for {hir.num_trees} trees"
        )

    chunks = sum(-(-loop.num_trees // loop.step) for loop in mir.tree_loops)
    return {
        "loops_checked": len(mir.tree_loops),
        "walks_checked": walks,
        "trees_covered": len(covered),
        "chunks": int(chunks),
    }
