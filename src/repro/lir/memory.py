"""Memory footprint accounting and scratch arenas.

Two concerns live here:

* Model-buffer accounting — reproduces the Section V-B2 measurements: the
  array layout's bloat over the scalar (tile size 1) representation, and
  the sparse layout's recovery of that bloat. ``model_memory_report``
  builds all three representations for a forest and reports their sizes.
* Scratch-buffer accounting — the :class:`ScratchArena` that backs the
  zero-allocation kernels emitted by :mod:`repro.backend.codegen`. The
  paper's generated SIMD loop keeps walk-step temporaries in registers and
  fixed buffers across steps; the NumPy substitute is a per-thread arena of
  preallocated vectors the kernel writes into via ``out=``.
  :func:`arena_spec` sizes the arena at compile time from the lowered
  module's ``(row_block, interleave chunk, lane width)`` extents and the
  lane budget its batch-adaptive chunks widen under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import PRECISION_TABLE, Schedule
from repro.forest.ensemble import Forest
from repro.hir.ir import build_hir
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline


def layout_nbytes(forest: Forest, schedule: Schedule) -> int:
    """Model-buffer bytes for ``forest`` compiled under ``schedule``."""
    hir = build_hir(forest, schedule)
    mir = run_mir_pipeline(lower_hir_to_mir(hir), hir)
    lir = lower_mir_to_lir(mir, hir)
    return lir.total_nbytes()


def compiled_model_nbytes(lir) -> int:
    """Bytes of the model buffers the compiled kernel actually gathers
    from — the materialized model buffers (thresholds, feature indices,
    shape ids, child pointers, leaf values, one-hots, LUT, and the
    quantization cut tables under int precisions), at the element widths
    ``Schedule.precision`` implies. Unlike :func:`layout_nbytes`, which
    reports the float64 layout representation, this reflects the
    narrowing that float32/int16/int8 modes buy."""
    from repro.backend.codegen import model_buffers  # codegen imports us

    return int(sum(a.nbytes for a in model_buffers(lir).values()))


def quantized_param_nbytes(lir) -> tuple[int, int]:
    """``(threshold_bytes, leaf_bytes)`` of the parameter buffers the walk
    compares/gathers per step, at the precision's element width — the
    buffers integer quantization narrows (structure buffers reported by
    :func:`compiled_model_nbytes` are unchanged by it)."""
    esize = PRECISION_TABLE[lir.schedule.precision].element_size
    thr = leaves = 0
    for group in lir.groups:
        layout = group.layout
        if not group.trivial:
            thr += layout.thresholds.size * esize
        if layout.kind == "sparse":
            leaves += layout.leaves.size * esize
        else:
            leaves += layout.leaf_values.size * esize
    return thr, leaves


#: bytes per node of the compact scalar (untiled) representation: threshold
#: f64 + feature index i32 + child pointer i32 (leaf values share the
#: threshold field) — the baseline the paper's bloat factors are against
SCALAR_NODE_BYTES = 16


def scalar_reference_bytes(forest: Forest) -> int:
    """Footprint of a compact untiled node-array representation."""
    return forest.total_nodes * SCALAR_NODE_BYTES


@dataclass(frozen=True)
class MemoryReport:
    """Byte sizes of the three representations of one model."""

    scalar_bytes: int
    array_bytes: int
    sparse_bytes: int
    tile_size: int

    @property
    def array_bloat(self) -> float:
        """Array layout size relative to the scalar representation."""
        return self.array_bytes / self.scalar_bytes

    @property
    def sparse_vs_array(self) -> float:
        """How many times smaller the sparse layout is than the array one."""
        return self.array_bytes / self.sparse_bytes

    @property
    def sparse_overhead(self) -> float:
        """Sparse layout size relative to the scalar representation."""
        return self.sparse_bytes / self.scalar_bytes


def model_memory_report(
    forest: Forest, tile_size: int = 8, base: Schedule | None = None
) -> MemoryReport:
    """Compare scalar / array / sparse footprints for one forest.

    The scalar reference is the compact untiled node array (16 B/node),
    the paper's baseline for the 8x / 6.8x / 16% figures. Padding is
    disabled so the comparison isolates representation overhead.
    """
    base = base or Schedule(tiling="basic", pad_and_unroll=False, peel_walk=False)
    scalar = scalar_reference_bytes(forest)
    array = layout_nbytes(forest, base.with_(tile_size=tile_size, layout="array"))
    sparse = layout_nbytes(forest, base.with_(tile_size=tile_size, layout="sparse"))
    return MemoryReport(
        scalar_bytes=scalar,
        array_bytes=array,
        sparse_bytes=sparse,
        tile_size=tile_size,
    )


# ----------------------------------------------------------------------
# Scratch arenas (kernel temporaries)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArenaSpec:
    """Compile-time scratch requirements of one emitted kernel.

    Extents are *per row*; the arena multiplies by the runtime batch size
    (capped by the schedule's ``row_block``) when it materializes, and
    small batches get room for the wider chunks the lane budget allows
    (:meth:`chunk_lanes`).

    Attributes
    ----------
    max_lane:
        Widest ``k * width`` product over the module's groups — elements of
        one lane-shaped temporary (``thr``/``feat``/``cmp``/``fidx``) per
        row.
    max_scalar:
        Widest interleave chunk ``k`` — elements of one scalar-shaped
        temporary (``bits``/``ci``/``state``/``idx``) per row.
    num_classes:
        Columns of the per-chunk accumulation temporary.
    num_features:
        Row stride of the flattened feature gather (sizes the cached
        row-offset vector).
    per_row:
        ``one-row`` loop order: temporaries are per single row, so capacity
        is batch-size independent.
    row_block:
        Compile-time rows-per-invocation hint (0 = size lazily on the
        first call).
    float_dtype:
        dtype name of the element temporaries (thresholds/features/leaf
        values) — the schedule precision's element dtype from
        :data:`~repro.config.PRECISION_TABLE`; int16/int8 under the
        quantized modes.
    findex_dtype:
        dtype name of the feature-index temporary (matches the model's
        feature-index buffer).
    acc_dtype:
        dtype of the whole-batch accumulator: the element float dtype for
        float precisions, float64 for quantized modes (integer leaf-code
        sums below 2**53 are exact in a double; see ``mm_dtype``).
    mm_dtype:
        dtype the per-chunk ``vals @ onehot`` matmul runs in. Quantized
        modes carry leaf *codes* in a float buffer so the chunk matmul
        hits BLAS instead of NumPy's much slower integer loop: float32
        when the largest chunk's worst-case code sum fits float32's
        integer range (``max_scalar * qmax < 2**24``), float64 otherwise.
        Either way every value is an exact integer.
    quantized:
        True for the integer-quantized modes (int16/int8): the arena adds
        the whole-batch leaf-code accumulator, the quantized-row-code
        buffer, and the leaf-value chunk view ``qv``.
    pack_widths:
        Which movemask scratch integers the module's tile widths need
        (subset of ``(16, 32, 64)``).
    hot_trees:
        Widest hot-phase tree count over the module's groups when a
        profile-guided hot/cold split is compiled in (``Schedule(pgo=..)``)
        — sizes the per-row hot walk-state buffer ``hs``. 0 (the default)
        for ordinary modules, keeping pre-PGO artifact manifests loadable.
    max_group, lane_budget:
        Tree count of the largest batch-adaptive group and the ``(row,
        tree)`` lane budget its chunks widen under
        (:func:`~repro.mir.ir.chunk_width`). Both default to 0 — fixed-step
        chunks only — which is what manifests written before the rule
        existed (and their stored sources) mean.
    """

    max_lane: int
    max_scalar: int
    num_classes: int
    num_features: int
    per_row: bool
    row_block: int
    float_dtype: str
    findex_dtype: str
    pack_widths: tuple[int, ...]
    acc_dtype: str = "float64"
    mm_dtype: str = "float64"
    quantized: bool = False
    hot_trees: int = 0
    max_group: int = 0
    lane_budget: int = 0

    @classmethod
    def from_manifest(cls, data: dict) -> "ArenaSpec":
        """Rebuild the spec an AOT or shared-memory manifest stores as
        ``dataclasses.asdict`` output (JSON turns ``pack_widths`` into a
        list)."""
        spec = dict(data)
        spec["pack_widths"] = tuple(spec.get("pack_widths") or ())
        return cls(**spec)

    @property
    def lane_width(self) -> int:
        """Padded tile lanes per ``(row, tree)`` element (one per module)."""
        return self.max_lane // max(1, self.max_scalar)

    def chunk_lanes(self, rows: int) -> int:
        """Most ``(row, tree)`` lanes one chunk binds on any batch of up to
        ``rows`` rows: a fixed-step chunk covers ``rows * max_scalar``, a
        widened one stays within the budget and the group."""
        return max(
            rows * self.max_scalar, min(self.lane_budget, rows * self.max_group)
        )

    def nbytes_for(self, rows: int) -> int:
        """Predicted arena footprint for a ``rows``-row invocation."""
        n = 1 if self.per_row else max(1, rows)
        fsize = np.dtype(self.float_dtype).itemsize
        isize = np.dtype(self.findex_dtype).itemsize
        asize = np.dtype(self.acc_dtype).itemsize
        msize = np.dtype(self.mm_dtype).itemsize
        scalar = self.chunk_lanes(n)
        lane = scalar * self.lane_width
        total = lane * (2 * fsize + isize + 1)  # thr, feat, fidx, cmp
        if not self.per_row:
            total += lane * 8          # flat feature-gather indices
            total += n * 8             # cached row offsets
        total += scalar * 8 * 6        # idx, ci, sid, state, base, tmp
        total += n * self.hot_trees * 8  # hot walk state (hs)
        total += sum(scalar * (w // 8) for w in self.pack_widths)
        total += n * self.num_classes * msize  # matmul accumulator
        if self.quantized:
            total += scalar * msize    # leaf-code chunk values (qv)
        if self.quantized and not self.per_row:
            total += n * self.num_classes * asize   # leaf-code accumulator
            total += n * self.num_features * fsize  # quantized row codes
        return total

    def scratch_views(self) -> dict[str, tuple[str, str | None]]:
        """Kernel local -> ``(arena buffer, reinterpret dtype)`` of every view
        a walk chunk binds, in bind order: the step temporaries, then — from
        ``idx`` on — the views only a full chunk has. The emitter names its
        locals from this table and the arena builds them from it. ``cv`` is
        the compare vector read as one unsigned integer per tile (the
        movemask operand), ``bits`` the packed predicate bits as a LUT
        index, ``lidx`` the leaf index (a compaction loop shadows ``idx``).
        """
        W = self.lane_width
        views = {"thr": ("f0", None), "feat": ("f1", None), "fidx": ("i0", None)}
        if not self.per_row:
            views["gidx"] = ("i1", None)
        views.update(cmp=("c0", None), ci=("i3", None), sid=("i4", None), base=("i6", None))
        if 8 * W in self.pack_widths:
            pv = f"p{8 * W}"
            views.update(
                pv=(pv, None),
                cv=("c0", f"uint{8 * W}"),
                bits=(pv, "int64" if W == 8 else None),
            )
        elif W == 1:
            views["bits"] = ("c0", None)
        views.update(idx=("i2", None), lidx=("i2", None), state=("i5", None), t=("i7", None))
        views["vals"] = ("qv" if self.quantized else "f1", None)
        return views


#: scratch views with one element per tile *lane* (the rest: one per tile)
LANE_VIEWS = ("thr", "feat", "fidx", "gidx", "cmp")


class ScratchArena:
    """Preallocated temporaries for one kernel, owned by one thread.

    The emitted kernel binds shaped views of these flat vectors at the top
    of each interleave chunk (and per compaction step) and writes every
    walk-step temporary into them with ``out=`` — no allocation on the
    steady-state path. Buffers grow monotonically: ``ensure`` reallocates
    only when a larger batch arrives (never for ``per_row`` modules, whose
    scratch is batch-size independent).

    Arenas are deliberately *not* thread-safe: the predictor hands each
    worker thread its own instance so parallel row blocks never share
    scratch.
    """

    #: full-chunk shapes one arena keeps bound (a served model sees a few
    #: chunk widths per batch size it meets)
    MEMO_CAP = 64

    def __init__(self, spec: ArenaSpec) -> None:
        self.spec = spec
        self.cap_rows = 0
        self.grows = 0
        if spec.row_block:
            self.ensure(spec.row_block)

    def ensure(self, rows: int) -> "ScratchArena":
        """Grow buffers to cover a ``rows``-row invocation; returns self."""
        need = 1 if self.spec.per_row else max(1, int(rows))
        if need > self.cap_rows:
            self._allocate(need)
        return self

    def _allocate(self, rows: int) -> None:
        spec = self.spec
        fdt = np.dtype(spec.float_dtype)
        scalar = spec.chunk_lanes(rows)
        lane = scalar * spec.lane_width
        self.f0 = np.empty(lane, dtype=fdt)                 # thr
        self.f1 = np.empty(lane, dtype=fdt)                 # feat / vals
        self.c0 = np.empty(lane, dtype=np.bool_)            # cmp
        self.i0 = np.empty(lane, dtype=np.dtype(spec.findex_dtype))  # fidx
        if not spec.per_row:
            self.i1 = np.empty(lane, dtype=np.int64)        # gather indices
            self.rof0 = np.arange(rows, dtype=np.int64) * spec.num_features
        for name in ("i2", "i3", "i4", "i5", "i6", "i7"):
            setattr(self, name, np.empty(scalar, dtype=np.int64))
        if spec.hot_trees:
            # Hot-phase walk state: one int64 per (row, hot tree); the hot
            # chunk loop binds slices as its state and the cold tail seeds
            # from them (see repro.pgo).
            self.hs = np.empty(rows * spec.hot_trees, dtype=np.int64)
        for width in spec.pack_widths:
            setattr(self, f"p{width}", np.empty(scalar, dtype=np.dtype(f"uint{width}")))
        mdt = np.dtype(spec.mm_dtype)
        self.fm = np.empty(rows * spec.num_classes, dtype=mdt)  # chunk matmul
        if spec.quantized:
            # Leaf-code chunk values: the float-carried integer codes the
            # chunk matmul reads (BLAS path; see ArenaSpec.mm_dtype).
            self.qv = np.empty(scalar, dtype=mdt)
        if spec.quantized and not spec.per_row:
            # Whole-batch leaf-code accumulator and quantized row codes;
            # per_row kernels allocate these per call (their arenas are
            # batch-size independent by contract).
            self.qa = np.empty(
                rows * spec.num_classes, dtype=np.dtype(spec.acc_dtype)
            )
            self.qr = np.empty(rows * spec.num_features, dtype=fdt)
        # Capacity views in `scratch_views` order, lane ones pre-shaped
        # `(n, W)`: a compaction step slices them, `bind` shapes full chunks.
        W, cap = max(1, spec.lane_width), []
        for name, (attr, dtype) in spec.scratch_views().items():
            buf = getattr(self, attr)
            if dtype:
                buf = buf.view(dtype)
            cap.append(buf.reshape(-1, W) if name in LANE_VIEWS else buf)
        self.cap = tuple(cap)
        self.memo: dict[tuple, tuple] = {}  # shapes bound before a regrow are stale
        self.cap_rows = rows
        self.grows += 1

    def bind(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Every scratch view of one full chunk — working set ``shape``,
        ``(B, k)`` or ``(k,)`` — plus the chunk matmul target, built once per
        shape: the kernel reads ``memo`` directly and calls here on a miss.
        The memo holds at most ``MEMO_CAP`` shapes (oldest dropped first)."""
        if len(self.memo) >= self.MEMO_CAP:
            del self.memo[next(iter(self.memo))]
        n, out = math.prod(shape), shape[:-1] + (self.spec.num_classes,)
        views = tuple(v[:n].reshape(shape + v.shape[1:]) for v in self.cap)
        self.memo[shape] = views = views + (self.fm[: math.prod(out)].reshape(out),)
        return views

    def nbytes(self) -> int:
        """Currently-materialized scratch footprint in bytes."""
        return sum(
            buf.nbytes
            for buf in self.__dict__.values()
            if isinstance(buf, np.ndarray)
        )

    def __repr__(self) -> str:
        return (
            f"ScratchArena(rows={self.cap_rows}, bytes={self.nbytes()}, "
            f"grows={self.grows})"
        )


def arena_spec(lir) -> ArenaSpec:
    """Size the scratch arena for ``lir`` (an :class:`~repro.lir.ir.LIRModule`).

    Extents come from the compile-time-known interleave chunk ``k`` and
    padded lane width of every non-trivial group — the NumPy analog of the
    paper sizing its SIMD working set from the schedule.
    """
    max_lane = max_scalar = hot_trees = max_group = lane_budget = 0
    pack_widths: set[int] = set()
    for group in lir.groups:
        if group.trivial:
            continue
        width = group.layout.thresholds.shape[2]
        k = min(max(1, group.walk.width), group.layout.num_trees)
        max_lane = max(max_lane, k * width)
        max_scalar = max(max_scalar, k)
        budget = lir.lane_budget(group.group_id)
        if budget:
            max_group = max(max_group, group.layout.num_trees)
            lane_budget = max(lane_budget, budget)
        if group.hot is not None:
            # The hot phase's state buffer spans every tree of the group
            # (cold chunks seed from slices of it).
            hot_trees = max(hot_trees, group.layout.num_trees)
        if width in (2, 4, 8):
            pack_widths.add(width * 8)
    schedule = lir.schedule
    info = PRECISION_TABLE[schedule.precision]
    return ArenaSpec(
        max_lane=max_lane,
        max_scalar=max_scalar,
        num_classes=lir.num_classes,
        num_features=lir.num_features,
        per_row=lir.mir.loop_order == "one-row",
        row_block=schedule.row_block,
        float_dtype=info.element_dtype,
        findex_dtype=info.findex_dtype,
        acc_dtype=info.acc_dtype,
        mm_dtype=quant_mm_dtype(lir),
        quantized=info.quantized,
        pack_widths=tuple(sorted(pack_widths)),
        hot_trees=hot_trees,
        max_group=max_group,
        lane_budget=lane_budget,
    )


def quant_mm_dtype(lir) -> str:
    """dtype of the per-chunk ``vals @ onehot`` matmul for ``lir``.

    Float precisions keep their accumulator dtype. Quantized modules carry
    leaf codes in a float buffer so the matmul dispatches to BLAS: float32
    when the worst-case chunk sum (largest interleave chunk times the
    maximum code magnitude) stays inside float32's exact integer range,
    float64 otherwise. Both are exact — the codes and their chunk sums are
    integers below the chosen float's 2**24 / 2**53 integer horizon — so
    kernel output remains bit-identical to the int64 reference
    accumulation in :mod:`repro.backend.interpreter`.
    """
    info = PRECISION_TABLE[lir.schedule.precision]
    if lir.quant is None:
        return info.acc_dtype
    max_chunk = max(
        (
            min(max(1, g.walk.width), g.layout.num_trees)
            for g in lir.groups
            if not g.trivial
        ),
        default=0,
    )
    return "float32" if max_chunk * lir.quant.qmax < 2**24 else "float64"
