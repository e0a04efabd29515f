"""Reference interpreter for LIR modules.

Executes the exact buffers the codegen backend uses, but one row and one
tree at a time in plain Python. Predictions must match the compiled kernel
bit for bit (same buffers, same traversal, same accumulation grouping up to
reassociation), so the pair {interpreter, codegen} cross-checks both the
layouts and the generated code. Deliberately unoptimized.

Precision: the interpreter honours ``lir.schedule.precision`` the same way
the backend does — under ``"float32"`` rows and leaf values are rounded to
float32 and thresholds narrowed upward
(:func:`~repro.backend.codegen.narrow_thresholds`) before
comparing/accumulating, so a feature that lands exactly on a threshold
routes identically in both executors. The
accumulator stays float64, as in the kernel. Under the quantized modes
(``"int16"``/``"int8"``) routing runs at float64 — rank-coded thresholds
preserve every comparison exactly, so the float64 walk visits the same
leaves the integer kernel does — while leaf values accumulate as their
fixed-point *codes* in int64 with one boundary rescale, reproducing the
kernel's integer accumulation bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.backend.codegen import narrow_thresholds
from repro.errors import ExecutionError
from repro.lir.ir import LIRGroup, LIRModule


def _tile_bits(
    thresholds: np.ndarray, features: np.ndarray, row: np.ndarray
) -> int:
    """Predicate bits for one tile: bit i = (row[feature_i] < threshold_i)."""
    bits = 0
    for pos in range(thresholds.shape[0]):
        if row[features[pos]] < thresholds[pos]:
            bits |= 1 << pos
    return bits


def _walk_sparse(
    group: LIRGroup,
    thresholds: np.ndarray,
    lut: np.ndarray,
    lane: int,
    row: np.ndarray,
    fdt: np.dtype,
) -> float:
    layout = group.layout
    if layout.root_leaf[lane]:
        return float(layout.leaves[lane, 0].astype(fdt))
    tile = 0
    for _ in range(10_000):
        bits = _tile_bits(
            thresholds[lane, tile], layout.features[lane, tile], row
        )
        child = int(lut[layout.shape_ids[lane, tile], bits])
        base = int(layout.child_base[lane, tile])
        if base < 0:
            return float(layout.leaves[lane, -base - 1 + child].astype(fdt))
        tile = base + child
    raise ExecutionError("sparse walk did not terminate (corrupt layout)")


def _walk_array(
    group: LIRGroup,
    thresholds: np.ndarray,
    lut: np.ndarray,
    lane: int,
    row: np.ndarray,
    fdt: np.dtype,
) -> float:
    layout = group.layout
    arity = layout.tile_size + 1
    slot = 0
    for _ in range(10_000):
        sid = int(layout.shape_ids[lane, slot])
        if sid == -1:
            return float(layout.leaf_values[lane, slot].astype(fdt))
        if sid < -1:
            raise ExecutionError(f"walk reached empty slot {slot}")
        bits = _tile_bits(
            thresholds[lane, slot], layout.features[lane, slot], row
        )
        child = int(lut[sid, bits])
        slot = slot * arity + child + 1
    raise ExecutionError("array walk did not terminate (corrupt layout)")


def interpret_lir(lir: LIRModule, rows: np.ndarray) -> np.ndarray:
    """Run the full model on ``rows`` through the reference interpreter.

    Returns the raw margin array shaped ``(B, num_classes)``.
    """
    quant = lir.quant
    fdt = np.dtype(
        np.float32 if lir.schedule.precision == "float32" else np.float64
    )
    rows = np.ascontiguousarray(rows, dtype=np.float64 if quant is not None else fdt)
    out = np.full((rows.shape[0], lir.num_classes), lir.base_score, dtype=np.float64)
    qacc = (
        np.zeros((rows.shape[0], lir.num_classes), dtype=np.int64)
        if quant is not None
        else None
    )
    walk = {"sparse": _walk_sparse, "array": _walk_array}
    for group in lir.groups:
        layout = group.layout
        step = walk[layout.kind]
        thresholds = narrow_thresholds(layout.thresholds, fdt)
        for i, row in enumerate(rows):
            for lane in range(layout.num_trees):
                if group.trivial:
                    if layout.kind == "sparse":
                        value = float(layout.leaves[lane, 0].astype(fdt))
                    else:
                        value = float(layout.leaf_values[lane, 0].astype(fdt))
                else:
                    value = step(group, thresholds, lir.lut, lane, row, fdt)
                if quant is not None:
                    qacc[i, int(group.class_ids[lane])] += int(
                        quant.quantize_leaves(value)
                    )
                else:
                    out[i, int(group.class_ids[lane])] += value
    if quant is not None:
        out += qacc * np.float64(quant.leaf_scale)
    return out
