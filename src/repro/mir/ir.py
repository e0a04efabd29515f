"""Mid-level IR node definitions.

The MIR for ``predictForest`` is a loop nest:

* :class:`RowLoop` — the batch loop over input rows, possibly blocked and
  possibly parallel (Section IV-C tiles it by the core count).
* :class:`TreeChunkLoop` — the loop over the trees of one code-sharing
  group, stepped by the interleave factor after unroll-and-jam
  (Section IV-A) and widened at run time to the live batch
  (:func:`chunk_width`).
* :class:`WalkOp` — the abstract tree-walk operation. ``style`` records how
  the walk loop will be realized: a guarded loop, a peeled
  prologue + loop, or a fully unrolled sequence of ``traverseTile`` steps
  (Section IV-B); ``width`` is the number of tree walks jammed together.

The nest shape encodes the loop order of Section III-E: in ``one-tree``
order the row dimension is innermost (each walk processes the whole row
block before the next chunk of trees); in ``one-row`` order rows are
outermost and every tree is walked for a row before moving on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import Schedule

WALK_STYLES = ("loop", "peeled", "unrolled")

#: ``(row, tree)`` lanes one walk chunk may cover. Per-call NumPy dispatch
#: dominates below it and the step temporaries leave L2 above it: any
#: budget >= 1024 walks a whole group at batch <= 8, 1024 gives the gain
#: back at batch 32-128, and past 4096 nothing improves while batch 256
#: slows (sweep in DESIGN.md, "Batch-adaptive tree jamming").
LANE_BUDGET = 4096


def chunk_width(batch: int, width: int, num_trees: int, budget: int) -> int:
    """Trees one walk chunk covers on a ``batch``-row invocation.

    ``K(B) = w * clamp(budget // (B * w), 1, ceil(T / w))``: a whole
    multiple of the jam width ``w`` (so leaf accumulation keeps running per
    ``w``-tree sub-chunk at unchanged tree offsets), as many as fit the
    lane budget, at least one and at most the group. ``budget == 0`` is the
    fixed step ``w``. The emitted kernels evaluate the same expression as a
    literal at the top of each group's loop.
    """
    if not budget:
        return width
    fit = budget // (max(1, batch) * width)
    return width * max(1, min(fit, -(-num_trees // width)))


@dataclass
class WalkOp:
    """Walk ``width`` trees of one group for the current rows.

    Attributes
    ----------
    group_id:
        The tree group this walk belongs to.
    width:
        Number of tree walks advanced together (1 before the interleaving
        pass; the unroll-and-jam factor after it).
    style:
        ``"loop"`` — while-not-leaf with a termination check every step;
        ``"peeled"`` — the first ``peel`` steps skip termination checks
        (no leaf can be reached before the shallowest leaf depth);
        ``"unrolled"`` — exactly ``depth`` steps, no checks at all (only
        valid for uniform-depth padded groups).
    depth:
        Walk-step count for ``unrolled`` (and an upper bound otherwise).
    peel:
        Number of check-free prologue steps for ``peeled``.
    hot_depth:
        Profile-guided hot/cold cutoff: the first ``hot_depth`` steps of
        every walk run as a separate check-free phase over compact prefix
        buffers before the style above takes over (0 = no split). The hot
        phase is chunked like the walk itself (``width`` and the loop's
        lane budget).
    """

    group_id: int
    width: int = 1
    style: str = "loop"
    depth: int = 0
    peel: int = 0
    hot_depth: int = 0

    def describe(self) -> str:
        detail = {
            "loop": f"while !isLeaf (depth<={self.depth})",
            "peeled": f"peel {self.peel} then while !isLeaf (depth<={self.depth})",
            "unrolled": f"{self.depth} traverseTile steps, no checks",
        }[self.style]
        if self.hot_depth > 0:
            detail = f"hot prefix {self.hot_depth} steps, then " + detail
        return f"WalkDecisionTree[group={self.group_id} x{self.width}]: {detail}"


@dataclass
class TreeChunkLoop:
    """Loop over the trees of one group.

    ``step`` is the interleave width, the floor of the chunk step. With a
    ``lane_budget`` (set by the interleaving pass) the emitted loop steps by
    :func:`chunk_width` of the live batch; 0 keeps the fixed step.
    """

    group_id: int
    num_trees: int
    step: int
    walk: WalkOp
    lane_budget: int = 0

    @property
    def max_step(self) -> int:
        """The widest chunk step: the one a 1-row batch gets."""
        return chunk_width(1, self.step, self.num_trees, self.lane_budget)

    def describe(self) -> str:
        step = str(self.step)
        if self.lane_budget:
            step += f"..{self.max_step} within {self.lane_budget} lanes"
        return f"for t in group {self.group_id} step {step} ({self.num_trees} trees)"


@dataclass
class RowLoop:
    """The batch loop over input rows.

    ``block`` rows are processed per iteration (0 = the whole batch at
    once); ``num_threads > 1`` marks the loop as a ``parallel.for`` tiled by
    the core count, the naive strategy of Section IV-C.
    """

    block: int = 0
    num_threads: int = 1

    @property
    def parallel(self) -> bool:
        return self.num_threads > 1


@dataclass
class MIRModule:
    """The full mid-level IR for one compiled model."""

    schedule: Schedule
    loop_order: str
    row_loop: RowLoop
    tree_loops: list[TreeChunkLoop] = field(default_factory=list)
    #: names of the passes that ran, in order (for introspection/tests)
    pass_log: list[str] = field(default_factory=list)

    def dump(self) -> str:
        """Human-readable rendering of the loop nest (docs and debugging)."""
        lines = []
        hdr = "parallel.for" if self.row_loop.parallel else "for"
        block = self.row_loop.block or "batch"
        lines.append(f"{hdr} rows step {block} (threads={self.row_loop.num_threads}):")
        if self.loop_order == "one-row":
            lines.append("  for row in block:")
            indent = "    "
        else:
            indent = "  "
        for loop in self.tree_loops:
            lines.append(f"{indent}{loop.describe()}:")
            lines.append(f"{indent}  {loop.walk.describe()}")
            lines.append(f"{indent}  prediction += getLeafValue(...)")
        return "\n".join(lines)
