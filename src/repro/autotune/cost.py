"""Static cost model for schedule ranking.

The exhaustive Table-II search times every candidate; a production tuner
cannot afford that. This module predicts a *relative* per-row cost for a
``(forest, schedule, batch_size)`` triple from forest statistics and a
:class:`~repro.perf.machine.MachineProfile`, so the grid can be explored
best-first under a budget: the model only has to *rank* candidates well
enough that the true winner (or something within a few percent of it)
appears early, which is the same bar the related MLIR-autotuning work sets
for its learned cost models.

The model mirrors how the ``numpy_jit`` backend spends time — its central
term is interpreter dispatch amortised over jammed walks. The native walker
has no dispatch to amortise and ignores the interleave/peel/unroll knobs, so
under ``backend="native"`` only the tile-size, tiling and layout terms still
order candidates; the tuner's measured timings decide either way, and the
rank-correlation this module is scored by is taken on ``numpy_jit``
(``benchmarks/test_bench_autotune.py``). Term by term:

* **walk steps** — each tile descends ``log2(tile_size + 1)`` levels, so a
  tree of expected depth ``d`` takes ``ceil(d / log2(t + 1))`` steps.
  Probability-based tiling shortens the *expected* walk of leaf-biased
  trees (the paper's Section III-C argument), which is estimated from the
  populated node probabilities when present.
* **per-step overhead** — every step issues a fixed number of vector ops
  (gather thresholds/features, compare, movemask, LUT lookup). A chunk of
  ``K`` jammed walks amortizes the interpreter's per-op dispatch over
  ``K``-times wider operands, the dominant effect in this NumPy backend;
  ``K`` is the kernel's own batch-adaptive chunk width
  (:func:`repro.mir.ir.chunk_width`), so at small batches every
  ``interleave >= 2`` amortizes alike, and a dispatch is shared by every
  row of the batch, so small batches stay dispatch-bound however wide the
  chunk.
* **gather cost** — ``tile_size`` lanes per gathered node, scaled by the
  machine's ``gather_cost_per_lane`` (the paper's Intel/AMD split).
* **memory pressure** — model buffers larger than L2 pay a latency factor;
  the array layout inflates footprint by the padding overhead of
  near-complete subtrees, sparse stays proportional to real nodes.
* **batch amortization** — per-batch fixed costs (kernel entry, arena
  binding) are spread over the batch.

Costs are unitless; only their order matters.  :func:`rank_schedules`
returns the grid sorted by predicted cost and
:func:`rank_correlation` scores prediction quality against measured
timings (Spearman), which the tuner records in its trace and metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import QUANTIZED_PRECISIONS, Schedule
from repro.forest.ensemble import Forest
from repro.mir.ir import LANE_BUDGET, chunk_width
from repro.perf.machine import INTEL_ROCKET_LAKE_LIKE, MachineProfile


@dataclass(frozen=True)
class ForestProfile:
    """The forest statistics the cost model consumes (computed once)."""

    num_trees: int
    num_features: int
    total_nodes: int
    mean_depth: float
    max_depth: int
    #: expected leaf depth under the empirical node probabilities, averaged
    #: over trees; falls back to ``mean_depth`` when probabilities are
    #: missing (untrained/synthetic forests).
    expected_depth: float
    #: fraction of trees whose (max - min) leaf depth is small enough that
    #: padding to uniform depth is cheap (the pad_and_unroll candidates).
    balanced_fraction: float

    @classmethod
    def from_forest(cls, forest: Forest) -> "ForestProfile":
        depths: list[float] = []
        expected: list[float] = []
        balanced = 0
        for tree in forest.trees:
            node_depths = tree.depths()
            leaves = tree.leaves()
            leaf_depths = node_depths[leaves]
            depths.append(float(leaf_depths.mean()) if leaf_depths.size else 0.0)
            if leaf_depths.size:
                slack = int(leaf_depths.max() - leaf_depths.min())
                balanced += slack <= 2
            prob = tree.node_probability
            if prob is not None and leaves.size:
                mass = prob[leaves]
                total = float(mass.sum())
                if total > 0:
                    expected.append(float((mass * leaf_depths).sum() / total))
                    continue
            expected.append(depths[-1])
        n = max(1, forest.num_trees)
        return cls(
            num_trees=forest.num_trees,
            num_features=forest.num_features,
            total_nodes=forest.total_nodes,
            mean_depth=float(np.mean(depths)) if depths else 0.0,
            max_depth=forest.max_depth,
            expected_depth=float(np.mean(expected)) if expected else 0.0,
            balanced_fraction=balanced / n,
        )


#: relative weight of one NumPy op dispatch vs one lane of vector work —
#: the CPython interpreter's per-op overhead dwarfs per-element cost for
#: the narrow operands tree walks produce, which is why interleaving wins
#: far more here than in native code.
_DISPATCH_WEIGHT = 40.0
#: batch the dispatch weight above was calibrated at (the 256-row tuning
#: grid): a dispatch serves every row of the batch, so its per-row share
#: scales by this over the live batch
_DISPATCH_REF_ROWS = 256
#: vector ops issued per walk step (two gathers, compare, pack, LUT, select)
_OPS_PER_STEP = 6.0
#: per-batch fixed cost (kernel entry, arena binding), in dispatch units
_BATCH_FIXED = 25.0 * _DISPATCH_WEIGHT

#: model bytes per node by precision: float64 keeps the historical 24/14
#: split (8-byte threshold + index + child words vs float32's packed
#: forms); quantized modes shrink only the threshold/leaf words — the
#: int64 structure words (child_base, shape ids, LUT) do not narrow.
_BYTES_PER_NODE = {
    "float64": 24,
    "float32": 14,
    "int16": 10,
    "int8": 9,
}


def predict_cost(
    forest: Forest | ForestProfile,
    schedule: Schedule,
    batch_size: int,
    machine: MachineProfile | None = None,
) -> float:
    """Predicted relative per-row cost of ``schedule`` on ``forest``.

    Unitless: meaningful only for comparing schedules on the same
    (forest, batch, machine) triple.
    """
    profile = (
        forest
        if isinstance(forest, ForestProfile)
        else ForestProfile.from_forest(forest)
    )
    machine = machine or INTEL_ROCKET_LAKE_LIKE
    batch = max(1, int(batch_size))
    t = max(1, schedule.tile_size)

    if schedule.traversal == "quickscorer":
        # One pass over all false nodes + a bitvector AND per tree; no
        # tiling knobs apply. Cheap on shallow forests, degrades with depth.
        steps = profile.num_trees * (1.0 + profile.mean_depth / 4.0)
        dispatch = steps * _DISPATCH_WEIGHT
        lane_work = profile.total_nodes / 8.0
        return (dispatch + lane_work + _BATCH_FIXED / batch) / max(
            1, profile.num_trees
        )

    # --- expected walk depth under this tiling ------------------------
    depth = profile.mean_depth
    if schedule.tiling in ("probability", "hybrid"):
        # Probability tiling shortens the expected walk toward the
        # empirical expected depth; hybrid only applies it to leaf-biased
        # trees, so discount by how biased the forest looks (the gap
        # between mean and expected depth is exactly that signal).
        gain = max(0.0, profile.mean_depth - profile.expected_depth)
        factor = 1.0 if schedule.tiling == "probability" else 0.7
        depth = profile.mean_depth - factor * gain
    levels_per_step = math.log2(t + 1)
    steps_per_tree = max(1.0, math.ceil(depth / levels_per_step))

    # --- per-step cost ------------------------------------------------
    # Two gathers (thresholds + features) of tile_size lanes each.
    gather = 2.0 * t * machine.gather_cost_per_lane
    lane_work = t + gather
    # Peeled/unrolled walks skip the loop guard + active-set compaction;
    # guarded loops pay it every step.
    guard = 0.0 if schedule.pad_and_unroll else 0.35 * _DISPATCH_WEIGHT
    if schedule.pad_and_unroll:
        # Unrolling only applies to almost-balanced trees; the rest keep
        # guarded loops, and padded dummy steps add a little real work.
        unrollable = profile.balanced_fraction
        guard = 0.35 * _DISPATCH_WEIGHT * (1.0 - unrollable)
        steps_per_tree *= 1.0 + 0.05 * unrollable
    step_dispatch = _OPS_PER_STEP * _DISPATCH_WEIGHT + guard

    # --- interleaving amortization -------------------------------------
    # One dispatch covers a chunk of tree-lanes: the jam width j at large
    # batches, up to the whole forest at small ones (the kernel's rule).
    # The working set grows with j and ragged tails waste lanes.
    j = max(1, schedule.interleave)
    trees = max(1, profile.num_trees)
    j_eff = min(j, trees)
    chunk = min(trees, chunk_width(batch, j_eff, trees, LANE_BUDGET if j > 1 else 0))
    share = _DISPATCH_REF_ROWS / (batch * chunk)
    tail_waste = 1.0 + 0.5 * (j_eff - 1) / (2.0 * j_eff)
    per_step = (step_dispatch * share + lane_work) * tail_waste

    # --- memory footprint / layout -------------------------------------
    bytes_per_node = _BYTES_PER_NODE.get(schedule.precision, 24)
    footprint = profile.total_nodes * bytes_per_node
    if schedule.layout == "array":
        # Array layout materializes complete levels: near-balanced trees
        # pad modestly, deep skewed trees explode exponentially.
        slack_levels = max(0.0, profile.max_depth - profile.mean_depth)
        footprint *= 1.0 + min(6.0, 0.5 * 2.0 ** min(4.0, slack_levels / 2.0))
    else:
        # Sparse costs an extra indirection per step.
        per_step += 0.15 * t
    if footprint > machine.l2_size:
        spill = min(4.0, footprint / machine.l2_size)
        per_step *= 1.0 + 0.1 * spill * (machine.mem_latency / 220.0)

    # --- loop order -----------------------------------------------------
    if schedule.loop_order == "one-row":
        # All trees per row: model buffers re-stream every row, and the
        # batch dimension is not vectorized — per-row dispatch dominates.
        per_step *= 1.35
        per_row_scale = 1.0 + _DISPATCH_WEIGHT / max(1.0, batch) * 50.0
    else:
        per_row_scale = 1.0

    # --- profile-guided hot/cold split ----------------------------------
    # The first `pgo` levels run check-free over compact prefix buffers,
    # so those steps skip the guard entirely; the remaining (cold) steps
    # keep the full per_step cost.
    hot_steps = 0.0
    if schedule.pgo is not None and schedule.traversal == "tiled":
        cutoff = (
            schedule.pgo
            if isinstance(schedule.pgo, int)
            else max(1, int(profile.expected_depth or profile.mean_depth) - 1)
        )
        hot_levels = min(float(cutoff), max(0.0, depth - 1.0))
        hot_steps = min(
            max(0.0, steps_per_tree - 1.0), hot_levels / levels_per_step
        )
    if hot_steps > 0.0:
        hot_per_step = (
            _OPS_PER_STEP * _DISPATCH_WEIGHT * share + lane_work
        ) * tail_waste
        if schedule.layout != "array":
            hot_per_step += 0.15 * t
        steps_cost = (
            (steps_per_tree - hot_steps) * per_step + hot_steps * hot_per_step
        )
    else:
        steps_cost = steps_per_tree * per_step

    cost = profile.num_trees * steps_cost * per_row_scale
    cost += _BATCH_FIXED / batch
    if schedule.precision in QUANTIZED_PRECISIONS:
        # Rank-coding prologue: one searchsorted dispatch per feature per
        # batch, plus ~log2(cuts) binary-search lane work per element per
        # row. Amortizes away at serving batch sizes; visible at batch 1.
        cost += profile.num_features * (_DISPATCH_WEIGHT / batch + 7.0)
    if schedule.parallel > 1:
        cost /= min(schedule.parallel, machine.cores) ** 0.8
    return cost / max(1, profile.num_trees)


def rank_schedules(
    forest: Forest,
    schedules: list[Schedule],
    batch_size: int,
    machine: MachineProfile | None = None,
) -> list[tuple[float, Schedule]]:
    """``schedules`` sorted by predicted cost, cheapest first.

    Ties keep grid order (stable sort), so equally-ranked candidates are
    explored in the paper's enumeration order.
    """
    profile = ForestProfile.from_forest(forest)
    scored = [
        (predict_cost(profile, schedule, batch_size, machine), schedule)
        for schedule in schedules
    ]
    scored.sort(key=lambda item: item[0])
    return scored


def rank_correlation(predicted: list[float], measured: list[float]) -> float | None:
    """Spearman rank correlation between predicted and measured costs.

    ``None`` when fewer than three finite pairs exist (correlation over
    one or two points is meaningless). Infinite measurements (failed
    compiles) are excluded — the model is scored only on candidates that
    actually ran.
    """
    pairs = [
        (p, m)
        for p, m in zip(predicted, measured)
        if math.isfinite(p) and math.isfinite(m)
    ]
    if len(pairs) < 3:
        return None
    p = np.asarray([x for x, _ in pairs], dtype=np.float64)
    m = np.asarray([x for _, x in pairs], dtype=np.float64)

    def ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        r = np.empty_like(order, dtype=np.float64)
        r[order] = np.arange(len(v), dtype=np.float64)
        # average ties so identical predictions don't fake correlation
        for value in np.unique(v):
            mask = v == value
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rp, rm = ranks(p), ranks(m)
    sp, sm = rp.std(), rm.std()
    if sp == 0.0 or sm == 0.0:
        return 0.0
    return float(np.corrcoef(rp, rm)[0, 1])
