"""``explain(model, schedule)``: the per-schedule decision report.

Compiles the model (through the normal pipeline, so every number reflects
what the compiler actually did), then renders the trace's per-pass timings
and IR statistics as a readable report: what the tiling produced, what
padding cost, how the loop nest was rewritten, and what the buffers weigh.
"""

from __future__ import annotations

from repro.observe.stats import hir_stats  # noqa: F401  (re-exported for callers)


def explain(forest, schedule=None, predictor=None) -> str:
    """Explain the lowering decisions for ``forest`` under ``schedule``.

    Pass an already-compiled ``predictor`` to report on it without
    recompiling (its attached trace is used); otherwise the model is
    compiled here. Returns the report as a string.
    """
    from repro.api import compile_model

    if predictor is None:
        predictor = compile_model(forest, schedule)
    trace = getattr(predictor, "trace", None)
    lines: list[str] = []
    lines.append("=" * 70)
    lines.append("schedule decision report")
    lines.append("=" * 70)
    lines.append(f"schedule: {predictor.schedule}")
    lines.append("")
    if trace is None:
        lines.append("(no compilation trace attached to this predictor)")
        return "\n".join(lines)

    lines.append("-- pipeline timing " + "-" * 51)
    lines.append(trace.report())
    lines.append("")

    tiling = _span_stats(trace, "tiling")
    if tiling:
        lines.append("-- tiling " + "-" * 60)
        before = tiling["tree_depth_before"]
        after = tiling["leaf_tile_depth_after"]
        lines.append(
            f"tile_size={tiling['tile_size']} tiling={tiling['tiling']} "
            f"trees={tiling['num_trees']}"
        )
        lines.append(
            f"walk depth: {before['mean']:.2f} node levels -> "
            f"{after['mean']:.2f} tile levels (mean); "
            f"max {before['max']:.0f} -> {after['max']:.0f}"
        )
        lines.append(
            f"tiles/tree mean {tiling['tiles_per_tree']['mean']:.1f}, "
            f"nodes/tile mean {tiling['nodes_per_tile']['mean']:.2f} "
            f"(utilization {tiling['nodes_per_tile']['mean'] / max(1, tiling['tile_size']):.0%})"
        )
        hist = sorted(
            tiling["tile_shape_hist"].items(), key=lambda kv: -kv[1]
        )
        lines.append(f"distinct tile shapes: {tiling['distinct_shapes']}")
        for label, count in hist[:8]:
            lines.append(f"  {label:<40s} x{count}")
        if len(hist) > 8:
            lines.append(f"  ... and {len(hist) - 8} more shapes")
        lines.append("")

    padding = _span_stats(trace, "padding")
    if padding:
        lines.append("-- padding " + "-" * 59)
        lines.append(
            f"enabled={padding['enabled']} dummy tiles {padding['dummy_tiles']}"
            f"/{padding['total_tiles']} ({padding['dummy_fraction']:.1%} overhead), "
            f"{padding['trees_padded']} trees padded, "
            f"{padding['trees_uniform_depth']} uniform-depth"
        )
        lines.append("")

    reorder = _span_stats(trace, "reorder")
    mir = _span_stats(trace, "verify-mir")  # the pass that records loop stats
    if reorder:
        lines.append("-- loop structure " + "-" * 52)
        lines.append(f"code-sharing groups: {reorder['num_groups']}")
        loops = (mir or {}).get("tree_loops", [])
        for loop in loops:
            jam = f"x{loop['walk_width']}"
            if loop["lane_budget"]:
                # batch-adaptive chunks (repro.mir.ir.chunk_width)
                jam += f"..{loop['max_step']} within {loop['lane_budget']} lanes"
            lines.append(
                f"  group {loop['group_id']}: {loop['num_trees']} trees, "
                f"{loop['walk_style']} walk {jam} "
                f"(depth {loop['walk_depth']}, peel {loop['walk_peel']})"
            )
        if mir:
            lines.append(
                f"loop order {mir['loop_order']}, row_block={mir['row_block']}, "
                f"threads={mir['row_threads']}"
            )
        lines.append("")

    lir = _span_stats(trace, "layout")  # the LIR span that records buffer stats
    if lir:
        lines.append("-- memory " + "-" * 60)
        lines.append(
            f"layout={lir['layout']} precision={lir['precision']}: "
            f"model buffers {lir['model_bytes']} B, "
            f"LUT {lir['lut_shape']} = {lir['lut_bytes']} B "
            f"({lir['num_shapes']} shapes"
            f"{', incl. dummy' if lir['has_dummy_shape'] else ''})"
        )
        for g in lir["groups"]:
            lines.append(
                f"  group {g['group_id']}: {g['kind']} {g['nbytes']} B "
                f"({g['num_trees']} trees{', trivial' if g['trivial'] else ''})"
            )
        lines.append("")

    prof = getattr(predictor, "profile_counters", None)
    if callable(prof):
        counters = prof()
        if counters and counters.get("kernel_calls"):
            lines.append("-- kernel profile " + "-" * 52)
            for key, value in counters.items():
                if value:
                    lines.append(f"  {key:<16s} {value}")
            lines.append("")
    return "\n".join(lines)


def _span_stats(trace, name: str) -> dict | None:
    span = trace.find(name)
    return span.stats if span is not None and span.stats else None
