"""Structural verification of LIR modules.

The LIR invariants re-checked here (what layout materialization and the
MIR→LIR lowering are supposed to guarantee about the flattened buffers):

* **LUT consistency**: the table is 2-D with ``2**storage_width(tile_size)``
  columns, every entry is a child index in ``[0, tile_size]``, and the
  reserved all-zeros dummy row is intact (dummy/hop tiles must route to
  child 0 for *every* predicate pattern — a nonzero entry would make
  padding data-dependent);
* **buffer shape consistency** per group: threshold/feature/shape-id/child
  buffers agree on lane count and padded tile width, class ids are valid
  output classes, and the group's tile size matches the schedule;
* **walk soundness** per lane: starting from the root, following every LUT
  branch stays in bounds and visits each tile exactly once — for the
  sparse layout, non-negative child bases make strict forward progress
  (``base > tile``, the BFS-order termination guarantee) and negative
  bases reference real leaves, with the leaves array covered exactly once;
  for the array layout, positional child slots stay inside the buffer and
  never land on an :data:`EMPTY_SLOT`;
* **numeric sanity**: no NaN thresholds (padding uses ``+inf``), feature
  indices inside ``[0, num_features)``;
* **scratch adequacy**: the compile-time
  :func:`~repro.lir.memory.arena_spec` extents cover every temporary the
  kernel will bind (lane width ``k·width`` and chunk width ``k`` per
  non-trivial group, plus each needed movemask width), at every batch size
  the batch-adaptive chunk step (:func:`~repro.mir.ir.chunk_width`) can
  widen a chunk for.

All violations raise :class:`~repro.errors.VerificationError` naming the
group/lane/tile concerned. Returns a stats dict for the trace span.
"""

from __future__ import annotations

import numpy as np

from repro.config import PRECISION_TABLE
from repro.errors import VerificationError
from repro.hir.tiling.shapes import storage_width
from repro.lir.ir import LIRGroup, LIRModule
from repro.lir.layout.array_layout import EMPTY_SLOT, LEAF_SLOT
from repro.lir.memory import arena_spec


def _fail(message: str) -> None:
    raise VerificationError(f"LIR: {message}")


def _verify_lut(lir: LIRModule) -> None:
    lut = lir.lut
    if lut.ndim != 2:
        _fail(f"LUT must be 2-D, got shape {lut.shape}")
    want_cols = 1 << storage_width(lir.tile_size)
    if lut.shape[1] != want_cols:
        _fail(
            f"LUT has {lut.shape[1]} columns; tile size {lir.tile_size} "
            f"stores {storage_width(lir.tile_size)} lanes and needs "
            f"{want_cols}"
        )
    if lut.size and (int(lut.min()) < 0 or int(lut.max()) > lir.tile_size):
        _fail(
            f"LUT entries span [{int(lut.min())}, {int(lut.max())}]; child "
            f"indices must lie in [0, {lir.tile_size}]"
        )
    dummy = lir.dummy_shape_id
    if dummy is not None:
        if not (0 <= dummy < lut.shape[0]):
            _fail(f"dummy_shape_id {dummy} outside the LUT's {lut.shape[0]} rows")
        if lut[dummy].any():
            bad = int(np.argmax(lut[dummy] != 0))
            _fail(
                f"reserved dummy LUT row {dummy} corrupted: pattern "
                f"{bad:#x} routes to child {int(lut[dummy, bad])}, expected 0"
            )


def _verify_lane_numerics(
    group: LIRGroup, lane: int, used: np.ndarray, num_features: int
) -> None:
    """NaN/feature-range checks over the lane's used tiles/slots."""
    layout = group.layout
    thr = layout.thresholds[lane][used]
    if np.isnan(thr).any():
        _fail(f"group {group.group_id} lane {lane}: NaN threshold in a live tile")
    feat = layout.features[lane][used]
    if feat.size and (int(feat.min()) < 0 or int(feat.max()) >= num_features):
        _fail(
            f"group {group.group_id} lane {lane}: feature index "
            f"{int(feat.max() if feat.max() >= num_features else feat.min())} "
            f"outside [0, {num_features})"
        )


def _verify_sparse_lane(
    group: LIRGroup, lut_max: np.ndarray, lane: int, num_features: int
) -> int:
    layout = group.layout
    gid = group.group_id
    n_tiles = int(layout.num_tiles[lane])
    n_leaves = int(layout.num_leaves[lane])
    if layout.root_leaf[lane]:
        if n_tiles != 0 or n_leaves != 1:
            _fail(
                f"group {gid} lane {lane}: root_leaf tree with "
                f"{n_tiles} tiles / {n_leaves} leaves (expected 0 / 1)"
            )
        return 0
    if n_tiles < 1:
        _fail(f"group {gid} lane {lane}: non-leaf tree with no tiles")
    if n_tiles > layout.shape_ids.shape[1] or n_leaves > layout.leaves.shape[1]:
        _fail(
            f"group {gid} lane {lane}: num_tiles={n_tiles}/num_leaves="
            f"{n_leaves} exceed buffer extents "
            f"{layout.shape_ids.shape[1]}/{layout.leaves.shape[1]}"
        )

    # Walk every LUT-reachable branch from the root: visits must cover the
    # lane's tiles exactly once (tree-ness), child bases must make strict
    # forward progress, and leaf references must cover the leaves array.
    visited = np.zeros(n_tiles, dtype=bool)
    leaf_hit = np.zeros(n_leaves, dtype=bool)
    stack = [0]
    visited[0] = True
    while stack:
        t = stack.pop()
        sid = int(layout.shape_ids[lane, t])
        if not (0 <= sid < lut_max.shape[0]):
            _fail(f"group {gid} lane {lane} tile {t}: shape id {sid} has no LUT row")
        fanout = int(lut_max[sid])
        base = int(layout.child_base[lane, t])
        if base >= 0:
            if base <= t:
                _fail(
                    f"group {gid} lane {lane} tile {t}: child base {base} does "
                    "not advance (walk could revisit or loop)"
                )
            if base + fanout >= n_tiles:
                _fail(
                    f"group {gid} lane {lane} tile {t}: child index "
                    f"{base + fanout} out of bounds (lane has {n_tiles} tiles)"
                )
            for child in range(base, base + fanout + 1):
                if visited[child]:
                    _fail(
                        f"group {gid} lane {lane} tile {child}: reachable from "
                        "two parents (not a tree)"
                    )
                visited[child] = True
                stack.append(child)
        else:
            first = -base - 1
            if first + fanout >= n_leaves:
                _fail(
                    f"group {gid} lane {lane} tile {t}: leaf index "
                    f"{first + fanout} out of bounds (lane has {n_leaves} leaves)"
                )
            if leaf_hit[first : first + fanout + 1].any():
                _fail(
                    f"group {gid} lane {lane} tile {t}: leaves "
                    f"[{first}, {first + fanout}] referenced twice"
                )
            leaf_hit[first : first + fanout + 1] = True
    if not visited.all():
        orphans = np.flatnonzero(~visited)[:5].tolist()
        _fail(f"group {gid} lane {lane}: tiles {orphans} unreachable from the root")
    if not leaf_hit.all():
        orphans = np.flatnonzero(~leaf_hit)[:5].tolist()
        _fail(f"group {gid} lane {lane}: leaves {orphans} unreachable from the root")

    used = np.zeros(layout.shape_ids.shape[1], dtype=bool)
    used[:n_tiles] = True
    _verify_lane_numerics(group, lane, used, num_features)
    return n_tiles


def _verify_array_lane(
    group: LIRGroup, lut_max: np.ndarray, lane: int, num_features: int
) -> int:
    layout = group.layout
    gid = group.group_id
    num_slots = layout.shape_ids.shape[1]
    arity = layout.tile_size + 1
    visited: set[int] = set()
    stack = [0]
    while stack:
        slot = stack.pop()
        if slot in visited:
            _fail(f"group {gid} lane {lane} slot {slot}: reachable twice")
        visited.add(slot)
        sid = int(layout.shape_ids[lane, slot])
        if sid == LEAF_SLOT:
            continue
        if sid == EMPTY_SLOT:
            _fail(
                f"group {gid} lane {lane} slot {slot}: walk can reach an "
                "empty slot"
            )
        if not (0 <= sid < lut_max.shape[0]):
            _fail(f"group {gid} lane {lane} slot {slot}: shape id {sid} has no LUT row")
        base = slot * arity
        top = base + int(lut_max[sid]) + 1
        if top >= num_slots:
            _fail(
                f"group {gid} lane {lane} slot {slot}: child slot {top} out "
                f"of bounds (layout has {num_slots} slots)"
            )
        stack.extend(range(base + 1, top + 1))

    live = np.flatnonzero(layout.shape_ids[lane] != EMPTY_SLOT)
    not_reached = [int(s) for s in live if int(s) not in visited]
    if not_reached:
        _fail(
            f"group {gid} lane {lane}: populated slots {not_reached[:5]} "
            "unreachable from the root"
        )

    used = np.zeros(num_slots, dtype=bool)
    internal = [s for s in visited if int(layout.shape_ids[lane, s]) >= 0]
    used[internal] = True
    _verify_lane_numerics(group, lane, used, num_features)
    return len(visited)


def _verify_arena(lir: LIRModule) -> None:
    spec = arena_spec(lir)
    for group in lir.groups:
        if group.trivial:
            continue
        width = group.layout.thresholds.shape[2]
        k = min(max(1, group.walk.width), group.layout.num_trees)
        if spec.max_lane < k * width:
            _fail(
                f"arena spec max_lane {spec.max_lane} < group "
                f"{group.group_id} lane extent {k * width}"
            )
        if spec.max_scalar < k:
            _fail(
                f"arena spec max_scalar {spec.max_scalar} < group "
                f"{group.group_id} chunk width {k}"
            )
        if width in (2, 4, 8) and width * 8 not in spec.pack_widths:
            _fail(
                f"arena spec pack widths {spec.pack_widths} missing the "
                f"{width * 8}-bit movemask scratch of group {group.group_id}"
            )
        # A chunk widened by chunk_width binds B * min(K(B), trees) lanes,
        # at most min(budget, B * trees) whenever it exceeds B * k — which
        # ArenaSpec.chunk_lanes provides iff it knows both bounds.
        budget = lir.lane_budget(group.group_id)
        trees = group.layout.num_trees
        if budget and (spec.lane_budget < budget or spec.max_group < trees):
            _fail(
                f"arena spec (lane budget {spec.lane_budget}, widest group "
                f"{spec.max_group}) does not cover group {group.group_id}'s "
                f"widened chunks ({trees} trees under {budget} lanes)"
            )
        if group.hot is not None and spec.hot_trees < trees:
            _fail(
                f"arena spec hot_trees {spec.hot_trees} < group "
                f"{group.group_id}'s {trees} trees"
            )
    if spec.num_classes != lir.num_classes:
        _fail(
            f"arena spec sized for {spec.num_classes} classes, module has "
            f"{lir.num_classes}"
        )
    if spec.num_features != lir.num_features:
        _fail(
            f"arena spec sized for {spec.num_features} features, module has "
            f"{lir.num_features}"
        )
    info = PRECISION_TABLE[lir.schedule.precision]
    if spec.float_dtype != info.element_dtype:
        _fail(
            f"arena spec element dtype {spec.float_dtype!r} != schedule "
            f"precision element dtype {info.element_dtype!r}"
        )
    if spec.findex_dtype != info.findex_dtype:
        _fail(
            f"arena spec feature-index dtype {spec.findex_dtype!r} != "
            f"precision table {info.findex_dtype!r}"
        )
    if spec.acc_dtype != info.acc_dtype:
        _fail(
            f"arena spec accumulator dtype {spec.acc_dtype!r} != "
            f"precision table {info.acc_dtype!r}"
        )


def _verify_quantization(lir: LIRModule) -> dict:
    """Invariants of the quantization pass (int16/int8 precisions):

    * a quantized module carries a spec whose dtype matches the schedule;
    * cut tables are per-feature strictly increasing, finite, and within
      the dtype's rank capacity;
    * threshold codes are *order-preserving*: re-deriving every live
      tile's codes from the cut tables reproduces monotone ranks, ``+inf``
      padding maps to the sentinel and nothing else does;
    * leaf codes are in ``[-qmax, qmax]`` and dequantize back to within
      ``leaf_scale / 2`` of the float leaves;
    * the scale is positive and finite.
    """
    quant = lir.quant
    info = PRECISION_TABLE[lir.schedule.precision]
    if quant is None:
        _fail(f"precision {lir.schedule.precision!r} lowered without a "
              "quantization spec")
    if quant.dtype != info.element_dtype:
        _fail(f"quantization dtype {quant.dtype!r} != precision element "
              f"dtype {info.element_dtype!r}")
    if not (np.isfinite(quant.leaf_scale) and quant.leaf_scale > 0):
        _fail(f"leaf scale {quant.leaf_scale!r} must be positive and finite")
    if quant.num_features != lir.num_features:
        _fail(f"quantization tables cover {quant.num_features} features, "
              f"module has {lir.num_features}")
    offsets = quant.cut_offsets
    if len(offsets) != lir.num_features + 1 or (np.diff(offsets) < 0).any():
        _fail("cut offsets are not a monotone prefix over the features")
    if int(offsets[-1]) != len(quant.cuts):
        _fail(f"cut offsets end at {int(offsets[-1])}, table has "
              f"{len(quant.cuts)} entries")
    if quant.cuts.size and not np.isfinite(quant.cuts).all():
        _fail("cut table contains non-finite thresholds")
    qmax = quant.qmax
    max_cuts = 0
    for f in range(quant.num_features):
        cuts = quant.cuts_for(f)
        max_cuts = max(max_cuts, len(cuts))
        if len(cuts) > qmax - 1:
            _fail(f"feature {f}: {len(cuts)} cuts exceed the {quant.dtype} "
                  f"rank capacity {qmax - 1}")
        if len(cuts) > 1 and (np.diff(cuts) <= 0).any():
            _fail(f"feature {f}: cut table is not strictly increasing")

    codes_checked = 0
    for group in lir.groups:
        if group.trivial:
            continue
        layout = group.layout
        thr = layout.thresholds
        codes = quant.quantize_thresholds(thr, layout.features).astype(np.int64)
        if (codes[thr == np.inf] != quant.sentinel).any():
            _fail(f"group {group.group_id}: +inf padding not coded as the "
                  f"sentinel {quant.sentinel}")
        finite = np.isfinite(thr)
        if finite.any():
            if int(codes[finite].min()) < 1 or int(codes[finite].max()) > qmax - 1:
                _fail(f"group {group.group_id}: finite threshold codes "
                      f"outside [1, {qmax - 1}]")
            # Order preservation, per feature: sort by float threshold and
            # the integer codes must sort identically (strictly where the
            # floats are distinct).
            flat_t = thr[finite]
            flat_f = layout.features[finite]
            flat_c = codes[finite]
            for f in np.unique(flat_f):
                sel = flat_f == f
                order = np.argsort(flat_t[sel], kind="stable")
                t_sorted = flat_t[sel][order]
                c_sorted = flat_c[sel][order]
                if (np.diff(c_sorted) < 0).any():
                    _fail(f"group {group.group_id} feature {int(f)}: "
                          "threshold codes not monotone in the thresholds")
                distinct = np.diff(t_sorted) > 0
                if (np.diff(c_sorted)[distinct] <= 0).any():
                    _fail(f"group {group.group_id} feature {int(f)}: distinct "
                          "thresholds share a code (order collapsed)")
            codes_checked += int(finite.sum())
        leaves = (
            layout.leaves if layout.kind == "sparse" else layout.leaf_values
        )
        lcodes = quant.quantize_leaves(leaves).astype(np.int64)
        if int(np.abs(lcodes).max(initial=0)) > qmax:
            _fail(f"group {group.group_id}: leaf code magnitude exceeds {qmax}")
        err = np.abs(lcodes * quant.leaf_scale - leaves)
        bound = 0.5 * quant.leaf_scale * (1 + 1e-9) + 1e-12
        if err.size and float(err.max()) > bound:
            _fail(f"group {group.group_id}: leaf dequantization error "
                  f"{float(err.max()):.3e} exceeds scale/2 = {bound:.3e}")
    return {
        "quant_cut_points": int(len(quant.cuts)),
        "quant_max_cuts_per_feature": int(max_cuts),
        "quant_codes_checked": codes_checked,
        "quant_leaf_scale": float(quant.leaf_scale),
    }


def verify_lir_module(lir: LIRModule) -> dict:
    """Check every LIR invariant; returns span stats, raises on violation."""
    _verify_lut(lir)
    lut_max = lir.lut.max(axis=1).astype(np.int64)

    mir_groups = {loop.group_id for loop in lir.mir.tree_loops}
    seen_groups: set[int] = set()
    lanes_checked = 0
    tiles_walked = 0
    for group in lir.groups:
        gid = group.group_id
        if gid in seen_groups:
            _fail(f"group {gid} appears twice in the module")
        seen_groups.add(gid)
        layout = group.layout
        if layout.kind != lir.schedule.layout:
            _fail(
                f"group {gid}: layout kind {layout.kind!r} != schedule "
                f"{lir.schedule.layout!r}"
            )
        if layout.tile_size != lir.tile_size:
            _fail(
                f"group {gid}: layout tile size {layout.tile_size} != "
                f"schedule {lir.tile_size}"
            )
        k = layout.num_trees
        if k < 1:
            _fail(f"group {gid}: empty layout")
        width = storage_width(lir.tile_size)
        if layout.thresholds.shape != (k, layout.thresholds.shape[1], width):
            _fail(
                f"group {gid}: thresholds shaped {layout.thresholds.shape}, "
                f"expected ({k}, T, {width})"
            )
        if layout.features.shape != layout.thresholds.shape:
            _fail(
                f"group {gid}: features shaped {layout.features.shape} != "
                f"thresholds {layout.thresholds.shape}"
            )
        if layout.shape_ids.shape != layout.thresholds.shape[:2]:
            _fail(
                f"group {gid}: shape_ids shaped {layout.shape_ids.shape} != "
                f"per-tile extents {layout.thresholds.shape[:2]}"
            )
        if group.class_ids.shape != (k,):
            _fail(f"group {gid}: class_ids shaped {group.class_ids.shape}, not ({k},)")
        if not np.array_equal(group.class_ids, layout.class_ids):
            _fail(f"group {gid}: group and layout class ids disagree")
        cmin, cmax = int(group.class_ids.min()), int(group.class_ids.max())
        if cmin < 0 or cmax >= lir.num_classes:
            _fail(
                f"group {gid}: class ids span [{cmin}, {cmax}], model has "
                f"{lir.num_classes} classes"
            )
        if group.walk.group_id != gid:
            _fail(f"group {gid}: bound to a walk for group {group.walk.group_id}")
        if group.trivial:
            if layout.kind == "sparse" and not layout.root_leaf.all():
                _fail(f"group {gid}: marked trivial but some lane is not a bare leaf")
            if layout.kind == "array" and (layout.shape_ids[:, 0] != LEAF_SLOT).any():
                _fail(f"group {gid}: marked trivial but some root slot is not a leaf")
        if group.hot is not None:
            # Hot/cold split plan (Schedule(pgo=...)): the plan must agree
            # with the walk descriptor, cut a non-empty prefix inside the
            # tile buffers, and never appear on trivial groups or without
            # the schedule knob.
            if lir.schedule.pgo is None:
                _fail(f"group {gid}: hot split present without Schedule(pgo=...)")
            if group.trivial:
                _fail(f"group {gid}: trivial group carries a hot split")
            if group.hot.depth != group.walk.hot_depth:
                _fail(
                    f"group {gid}: hot plan depth {group.hot.depth} != walk "
                    f"hot depth {group.walk.hot_depth}"
                )
            if not (1 <= group.hot.tiles <= layout.thresholds.shape[1]):
                _fail(
                    f"group {gid}: hot prefix of {group.hot.tiles} tiles "
                    f"outside the lane extent {layout.thresholds.shape[1]}"
                )
        elif group.walk.hot_depth:
            _fail(
                f"group {gid}: walk requests a hot split "
                f"(depth={group.walk.hot_depth}) but no plan was lowered"
            )
        lane_check = (
            _verify_sparse_lane if layout.kind == "sparse" else _verify_array_lane
        )
        for lane in range(k):
            tiles_walked += lane_check(group, lut_max, lane, lir.num_features)
            lanes_checked += 1

    if seen_groups != mir_groups:
        _fail(
            f"LIR groups {sorted(seen_groups)} do not match the MIR loop "
            f"nest's groups {sorted(mir_groups)}"
        )

    _verify_arena(lir)

    stats = {
        "groups_checked": len(lir.groups),
        "lanes_checked": lanes_checked,
        "tiles_walked": int(tiles_walked),
        "lut_rows": int(lir.lut.shape[0]),
    }
    quantized = PRECISION_TABLE[lir.schedule.precision].quantized
    if lir.quant is not None and not quantized:
        _fail(
            f"float precision {lir.schedule.precision!r} carries a "
            "quantization spec"
        )
    if quantized:
        stats.update(_verify_quantization(lir))
    return stats
