"""NumPy source generation for compiled inference functions.

``emit_module_source`` walks an :class:`~repro.lir.ir.LIRModule` and emits
the body of ``predict_block(rows, out, arena=None)``. The emitted
statements follow the walk-step op sequence of Section V-A one to one,
using the fastest NumPy realization of each op:

========================  ================================================
LIR op                    emitted statement (arena emitter)
========================  ================================================
loadThresholds            ``g_th.take(idx, 0, thr, 'clip')``
loadFeatureIndices        ``g_fi.take(idx, 0, fidx, 'clip')``
gatherFeatures            ``_np.add(rof, fidx, gidx)``;
                          ``rowsf.take(gidx, None, feat, 'clip')``
vectorCompare             ``_np.less(feat, thr, cmp)``
packBits                  ``_np.multiply(cv, _pm, pv)``;
                          ``_np.right_shift(pv, _ps, pv)`` — integer
                          reinterpretation of the bool vector (the movemask
                          analog; see ``_pack_bits_expr``)
loadTileShape             ``g_sid.take(idx, None, sid, 'clip')``
lookupChildIndex          ``_np.multiply(sid, LUTC, sid)``;
                          ``_np.add(sid, bits, sid)``;
                          ``lut.take(sid, None, ci, 'clip')``
advanceToChild            layout-specific child arithmetic
========================  ================================================

Buffers are stored flattened with 64-bit index math (``take`` on int64
indices is several times faster than multi-axis advanced indexing), and
tile storage is padded to a power-of-two lane width so the comparison
vector can be reinterpreted as a single integer per tile.

Two temporary-buffer policies exist, selected by ``Schedule.scratch``:

* ``"arena"`` (default): every step temporary is written into a
  preallocated per-thread :class:`~repro.lir.memory.ScratchArena` buffer —
  the NumPy substitute for the paper's generated SIMD loop keeping its
  working set in registers and fixed buffers across walk steps. The
  steady-state hot path allocates nothing, and emission is *dispatch-lean*
  (DESIGN.md): at batch 1 a statement costs what Python spends reaching its
  C body, so every statement is one direct C call. (R1) A gather is the
  ``ndarray.take`` method with positional ``(indices, axis, out, 'clip')``,
  never the ``np.take`` wrapper; ``'clip'`` skips NumPy's bounds-check
  buffering, indices being in range by construction. (R2) Nothing
  loop-invariant is built inside a step: scalar constants are lines of the
  source's prelude, reinterpreted views (``cv``, ``bits``) are bound with
  the other scratch views, ufunc ``out`` is positional. (R3) A full chunk
  takes all its scratch views from one memoised lookup on the arena.
* ``"alloc"``: the legacy emitter — a fresh temporary per op, written
  ``thr = _np.take(g_th, idx, axis=0)`` … ``cmp = feat < thr`` — kept as
  the benchmark/ablation reference and the oracle of ``arena == alloc``.

``Schedule.precision`` specializes element widths: under ``"float32"`` the
threshold/feature/leaf/one-hot buffers (and the input rows) are float32 and
the feature-index buffer is int32, halving model-buffer memory traffic
(the paper's element-width discussion). The output accumulator stays
float64 regardless. Under the integer modes ``"int16"``/``"int8"``
(:mod:`repro.lir.quantize`) the kernel grows a prologue that rank-codes
the incoming batch once per feature (``searchsorted`` against the
compiled cut tables), the walk compares/gathers int16/int8 codes, leaf
codes accumulate into a float64 ``qacc`` (integer sums below 2**53 are
exact in a double, and carrying the codes in float buffers lets the chunk
matmul use BLAS instead of NumPy's slow integer loop — see
:func:`repro.lir.memory.quant_mm_dtype`), and one boundary statement
rescales: ``out += qacc * _qs``. Threshold routing under quantization is
*exact* (rank codes preserve every comparison), so only the fixed-point
leaf rounding separates quantized output from the float64 reference.

Walk styles lower differently: ``unrolled`` emits straight-line step
sequences with no termination checks; ``peeled`` emits check-free prologue
steps followed by the guarded loop; ``loop`` emits the guarded loop only.
The guarded loop uses *active-lane compaction* — finished (row, tree) walks
leave the working set, the vectorized analog of the scalar walk's early
exit, which is what probability-based tiling's shorter expected walks pay
into. The tree-chunk loop realizes walk interleaving: all jammed walks of
a chunk advance inside the same vector statements. A jammed loop sizes its
chunks from the live batch (:func:`repro.mir.ir.chunk_width`, emitted as a
literal by ``_chunk_step``), so a 1-row call walks a whole group per NumPy
dispatch while a 2048-row call keeps the schedule's ``width``; leaf values
still accumulate per ``width``-tree sub-chunk, which keeps every row's
summation order independent of the batch it arrived in. Compaction inherently
allocates (``nonzero``, boolean indexing); the arena covers its lane-sized
gathers, which dominate.

NaN caveat: speculative evaluation relies on padding predicates
(``x < +inf``) being true, which fails for NaN inputs — the predictor
validates rows before calling the kernel.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.config import PRECISION_TABLE
from repro.errors import CodegenError
from repro.lir.ir import LIRGroup, LIRModule
from repro.lir.memory import ScratchArena, arena_spec, quant_mm_dtype
from repro.mir.ir import chunk_width
from repro.observe.profile import ProfileRecorder


class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")

    def block(self, header: str) -> "_IndentCtx":
        self.emit(header)
        return _IndentCtx(self)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _IndentCtx:
    def __init__(self, emitter: _Emitter) -> None:
        self.emitter = emitter

    def __enter__(self):
        self.emitter.depth += 1
        return self.emitter

    def __exit__(self, *exc):
        self.emitter.depth -= 1
        return False


def _pack_bits_expr(width: int) -> str:
    """Pack the bool comparison vector (last axis = ``width``, a power of
    two) into integer predicate bits — the movemask analog.

    The trick: a fresh bool array stores one byte per lane, so the last axis
    can be reinterpreted as a single unsigned integer whose byte ``i`` is
    lane ``i``'s outcome; one multiply gathers the bytes into the top byte
    (LSB-first), one shift extracts them.
    """
    if width == 1:
        return "cmp[..., 0]"
    if width == 2:
        return (
            "(lambda v: (v | (v >> _np.uint16(7))) & _np.uint16(3))"
            "(cmp.view(_np.uint16)[..., 0])"
        )
    if width == 4:
        return (
            "((cmp.view(_np.uint32)[..., 0] * _np.uint32(0x01020408)) "
            ">> _np.uint32(24)) & _np.uint32(15)"
        )
    if width == 8:
        return (
            "((cmp.view(_np.uint64)[..., 0] * _np.uint64(0x0102040810204080)) "
            ">> _np.uint64(56)).astype(_np.int64)"
        )
    # Wide tiles (>8): generic matmul fallback.
    return "(cmp.astype(_np.uint32) @ p2).astype(_np.int64)"


#: tile width -> the movemask's (multiplier, shift, mask); the arena emitter
#: builds them once, as NumPy scalars of the width's unsigned dtype, in the
#: generated source's prelude (``_pack_bits_expr`` spells them inline)
_PACK = {
    2: (None, "7", "3"),
    4: ("0x01020408", "24", "15"),
    8: ("0x0102040810204080", "56", None),
}


def _chunk_step(e: _Emitter, vec: bool, width: int, num_trees: int, budget: int) -> str:
    """The step of a chunk loop over ``num_trees`` trees jammed ``width`` wide.

    Vectorized jammed loops bind ``K`` to the literal form of
    :func:`~repro.mir.ir.chunk_width` at the live batch ``B``; one-row
    walks see one row at a time and unjammed loops (``budget == 0``) never
    widen, so both fold to a compile-time constant.
    """
    if not (vec and budget):
        return str(chunk_width(1, width, num_trees, budget))
    e.emit(
        f"K = {width} * max(1, min({budget} // (max(1, B) * {width}), "
        f"{-(-num_trees // width)}))"
    )
    return "K"


class _GroupEmitter:
    """Emits the chunked walk for one tree group."""

    def __init__(
        self, e: _Emitter, lir: LIRModule, group: LIRGroup, vec: bool, views: list[str]
    ) -> None:
        self.e = e
        self.lir = lir
        self.group = group
        self.vec = vec
        self.g = f"g{group.group_id}"
        self.layout = group.layout
        self.width = self.layout.thresholds.shape[2]
        self.lut_cols = lir.lut.shape[1]
        self.has_dummy = lir.dummy_shape_id is not None
        self.arena = lir.schedule.scratch == "arena"
        #: the arena's scratch-view locals in bind order, and how many of
        #: them a compaction step re-binds (the rest are full-chunk only)
        self.views = views
        self.step_views = views.index("idx") if views else 0
        self.profile = lir.schedule.profile
        # Number of LUT rows describing *real* tile shapes (the reserved
        # dummy row routes data-independently and is handled by masking).
        self.real_shapes = lir.lut.shape[0] - (1 if self.has_dummy else 0)
        #: hot/cold split plan (Schedule(pgo=...)); None for ordinary groups
        self.hot = group.hot
        #: tile-buffer name infix: "" for the full buffers, "h" while the
        #: hot prefix is emitted (see ``buf`` and ``emit_hot``)
        self.p = ""

    def buf(self, name: str) -> str:
        """Group buffer reference, routed to the hot prefix copies while
        the hot phase is being emitted (``g0_th`` vs ``g0_hth``)."""
        return f"{self.g}_{self.p}{name}"

    def _needs_pack(self) -> bool:
        single_shape = self.real_shapes == 1
        return self.width in (2, 4, 8) and not (single_shape and self.width == 1)

    # -- profiling (Schedule.profile) ----------------------------------
    def prof(self, text: str) -> None:
        """Emit a profiling-counter statement — only under ``profile=True``.

        With profiling off this is a no-op, so the generated source carries
        zero profiling references (compiled out, not branched over).
        """
        if self.profile:
            self.e.emit(text)

    def _scratch_bytes_per_elem(self, full: bool) -> int:
        """Bytes of arena views bound per working-set element (compile-time
        constant, so the emitted increment is one multiply). Element and
        feature-index widths come from the schedule precision table — the
        same source of truth :func:`~repro.lir.memory.arena_spec` sizes
        the arena from."""
        info = PRECISION_TABLE[self.lir.schedule.precision]
        fsize, isize = info.element_size, info.findex_size
        per = self.width * (2 * fsize + isize + 1)      # thr, feat, fidx, cmp
        if self.vec:
            per += self.width * 8                       # gidx
        per += 3 * 8                                    # ci, sid, base
        if self._needs_pack():
            per += self.width                           # pv (uint{W*8})
        if full:
            per += 8                                    # idx
        return per

    # -- arena view management ----------------------------------------
    def bind_scratch(self, full: bool) -> None:
        """Bind the arena views of the step temporaries.

        A full chunk takes every view of its ``(B, k)`` working set — and the
        chunk matmul target ``mm`` — from the arena's memo in one lookup
        (``ScratchArena.bind`` builds them on a miss). A compaction step,
        whose lane count ``_n`` changes every iteration, slices the capacity
        views that ``_scan_active`` put in upper-case locals before the loop.
        """
        e, n = self.e, "_n"
        if full:
            key, n = ("(B, k)", "B * k") if self.vec else ("(k,)", "k")
            e.emit(f"{', '.join(self.views)}, mm = _A.memo.get({key}) or _A.bind({key})")
        else:
            for name in self.views[: self.step_views]:
                e.emit(f"{name} = {name.upper()}[:_n]")
        self.prof(f"_C.scratch_bytes += {n} * {self._scratch_bytes_per_elem(full)}")

    def take(self, buf: str, idx: str, out: str, axis: int | None = None) -> None:
        """An arena gather (rule R1 of the module docstring)."""
        self.e.emit(f"{buf}.take({idx}, {axis}, {out}, 'clip')")

    # -- shared op fragments ------------------------------------------
    def eval_tile(self, idx: str, feat_index: str) -> None:
        """The evaluateTilePredicates sequence at flat tile indices ``idx``.

        Model-specific specialization (the compiler knows the tiled model
        statically): when every real tile in the model shares one shape,
        the shape load + full LUT lookup are elided — the LUT collapses to
        its single real row, and for tile size 1 the whole lookup folds to
        ``1 - bit`` (true goes to child 0, the left subtree). If the model
        also contains dummy (padding/hop) tiles, a 0/1 non-dummy mask
        forces their child index to 0 regardless of the speculative
        comparisons (which can be false for ``+inf`` inputs).
        """
        if self.arena:
            self._eval_tile_arena(idx, feat_index)
            return
        e = self.e
        single_shape = self.real_shapes == 1
        e.emit(f"thr = _np.take({self.buf('th')}, {idx}, axis=0)")    # loadThresholds
        e.emit(f"fidx = _np.take({self.buf('fi')}, {idx}, axis=0)")   # loadFeatureIndices
        e.emit(f"feat = _np.take({self._rowsrc()}, {feat_index})")  # gatherFeatures
        e.emit("cmp = feat < thr")                          # vectorCompare
        if single_shape and self.width == 1:
            # packBits + lookupChildIndex folded into one arithmetic op.
            e.emit("ci = 1 - cmp[..., 0]")
            self._mask_dummies(idx)
            return
        e.emit(f"bits = {_pack_bits_expr(self.width)}")     # packBits
        if single_shape:
            e.emit("ci = _np.take(lut1, bits)")             # lookupChildIndex
            self.prof(f"_C.lut_lookups += ({idx}).size")
            self._mask_dummies(idx)
            return
        e.emit(f"sid = _np.take({self.buf('sid')}, {idx})")  # loadTileShape
        e.emit(f"ci = _np.take(lut, sid * {self.lut_cols} + bits)")  # lookupChildIndex
        self.prof(f"_C.lut_lookups += ({idx}).size")

    def _eval_tile_arena(self, idx: str, feat_index: str) -> None:
        """Arena realization of the same op sequence: every temporary lands
        in a preallocated buffer (``out`` passed positionally), and nothing
        a step does not change — views, scalar constants — is built here."""
        e, W = self.e, self.width
        single_shape = self.real_shapes == 1
        self.take(self.buf("th"), idx, "thr", axis=0)
        self.take(self.buf("fi"), idx, "fidx", axis=0)
        if self.vec:
            e.emit(f"_np.add({feat_index}, fidx, gidx)")
            self.take("rowsf", "gidx", "feat")
        else:
            self.take("row", "fidx", "feat")
        e.emit("_np.less(feat, thr, cmp)")
        if single_shape and W == 1:
            e.emit("_np.subtract(1, bits, ci)")
            self._mask_dummies_arena(idx)
            return
        self._emit_pack_arena()
        if single_shape:
            self.take("lut1", "bits", "ci")
            self.prof(f"_C.lut_lookups += ({idx}).size")
            self._mask_dummies_arena(idx)
            return
        self.take(self.buf("sid"), idx, "sid")
        e.emit(f"_np.multiply(sid, {self.lut_cols}, sid)")
        e.emit("_np.add(sid, bits, sid)")
        self.take("lut", "sid", "ci")
        self.prof(f"_C.lut_lookups += ({idx}).size")

    def _emit_pack_arena(self) -> None:
        """packBits: ``cv`` (the compare vector, one unsigned integer per
        tile) into ``pv``, a scratch of the same exact unsigned dtype — the
        movemask multiply relies on its wrap-around — with ``bits`` bound
        over the result as the LUT index (for 8 lanes an int64
        reinterpretation of ``pv``: post-shift values fit a byte, and
        uint64 + int64 index math would promote to float64). The constants
        are the ``_pm``/``_ps``/``_pk`` lines of the source prelude."""
        e, W = self.e, self.width
        if W not in _PACK:
            if W > 1:  # wide tiles: generic matmul fallback, allocating (rare)
                e.emit(f"bits = {_pack_bits_expr(W)}")
            return
        mult, _shift, mask = _PACK[W]
        if mult is not None:
            e.emit("_np.multiply(cv, _pm, pv)")
            e.emit("_np.right_shift(pv, _ps, pv)")
        else:
            e.emit("_np.right_shift(cv, _ps, pv)")
            e.emit("_np.bitwise_or(pv, cv, pv)")
        if mask is not None:
            e.emit("_np.bitwise_and(pv, _pk, pv)")

    def _mask_dummies(self, idx: str) -> None:
        """Zero the child index at dummy tiles (single-real-shape paths)."""
        if self.has_dummy:
            self.e.emit(f"ci *= _np.take({self.buf('nd')}, {idx})")

    def _mask_dummies_arena(self, idx: str) -> None:
        if self.has_dummy:
            # `sid` is free here: single-real-shape paths never load shapes.
            self.take(self.buf("nd"), idx, "sid")
            self.e.emit("_np.multiply(ci, sid, ci)")

    def _rowsrc(self) -> str:
        return "rowsf" if self.vec else "row"

    def _feat_full(self) -> str:
        """Feature gather index for full (B, k) state."""
        if self.arena:
            return "rof" if self.vec else "fidx"
        return "rof + fidx" if self.vec else "fidx"

    def _feat_act(self) -> str:
        """Feature gather index for compacted active positions."""
        if self.arena:
            return "rof0[act_r][:, None]" if self.vec else "fidx"
        return "rof0[act_r][:, None] + fidx" if self.vec else "fidx"

    def _init_state(self) -> None:
        e = self.e
        if self.hot is not None:
            # Hot/cold split: the cold tail starts from the tile indices the
            # hot phase left in hstate — prefix and full buffers share tile
            # numbering, so the carried state needs no translation. The
            # slice is used directly as the chunk state; every cold mutation
            # pattern (out=, fancy assignment, rebinding) is view-safe.
            src = "hstate[:, c0:c0 + k]" if self.vec else "hstate[c0:c0 + k]"
            e.emit(f"state = {src}")
        elif self.arena:
            e.emit("state.fill(0)")
        else:
            shape = "(B, k)" if self.vec else "(k,)"
            e.emit(f"state = _np.zeros({shape}, dtype=_np.int64)")

    # -- hot prefix (Schedule(pgo=...)) --------------------------------
    def emit_hot(self, step: str) -> None:
        """Emit the check-free hot phase over the compact prefix buffers.

        Runs before the cold chunk loop: every walk of the group advances
        ``hot.depth`` levels with no leaf/termination checks (legality
        guarantees only internal tiles above the cutoff), chunked by the
        cold loop's ``step``, reading the ``g_h*`` prefix copies whose small
        footprint stays cache-resident. The resulting tile indices land in
        ``hstate``; cold chunks seed from its slices.
        """
        e, g, hot = self.e, self.g, self.hot
        nt = self.layout.num_trees
        sparse = self.layout.kind == "sparse"
        arity = self.layout.tile_size + 1
        e.emit(f"# hot prefix: {hot.depth} levels over {hot.tiles} tiles/lane")
        if self.arena:
            if self.vec:
                e.emit(f"hstate = _A.hs[:B * {nt}].reshape(B, {nt})")
            else:
                e.emit(f"hstate = _A.hs[:{nt}]")
        else:
            shape = f"(B, {nt})" if self.vec else f"({nt},)"
            e.emit(f"hstate = _np.empty({shape}, dtype=_np.int64)")
        self.p = "h"
        with e.block(f"for c0 in range(0, {nt}, {step}):"):
            e.emit(f"k = min({step}, {nt} - c0)")
            e.emit(f"bofs0 = {g}_hlaneT[c0:c0 + k]")
            e.emit("bofs = bofs0[None, :]" if self.vec else "bofs = bofs0")
            if self.arena:
                self.bind_scratch(full=True)
            src = "hstate[:, c0:c0 + k]" if self.vec else "hstate[c0:c0 + k]"
            e.emit(f"state = {src}")
            e.emit("state.fill(0)" if self.arena else "state[...] = 0")
            for _ in range(hot.depth):
                if self.arena:
                    e.emit("_np.add(bofs, state, idx)")
                    self.eval_tile("idx", self._feat_full())
                    if sparse:
                        self.take(self.buf("cb"), "idx", "base")
                        e.emit("_np.add(base, ci, state)")
                    else:
                        e.emit(f"_np.multiply(state, {arity}, state)")
                        e.emit("_np.add(state, ci, state)")
                        e.emit("_np.add(state, 1, state)")
                else:
                    e.emit("idx = bofs + state")
                    self.eval_tile("idx", self._feat_full())
                    # write through: hstate must carry into the cold loop
                    if sparse:
                        e.emit(
                            f"state[...] = _np.take({self.buf('cb')}, idx) + ci"
                        )
                    else:
                        e.emit(f"state[...] = state * {arity} + ci + 1")
                self.prof("_C.walk_steps += idx.size")
                e.emit()
        self.p = ""

    # -- compaction loops (shared by both layouts) ----------------------
    def _gather(self, buf: str, idx: str) -> str:
        """Expression gathering ``buf`` at a freshly computed ``idx``."""
        return f"{buf}.take({idx})" if self.arena else f"_np.take({buf}, {idx})"

    def _scan_active(self, alive: str) -> None:
        """Open a compaction loop: the positions where ``alive`` holds."""
        names, tail = ("act_r, act_l", "") if self.vec else ("act", "[0]")
        if self.arena:
            capacity = ", ".join(name.upper() for name in self.views)
            self.e.emit(f"{capacity} = _A.cap")
            self.e.emit(f"{names} = ({alive}).nonzero(){tail}")
        else:
            self.e.emit(f"{names} = _np.nonzero({alive}){tail}")

    def _compact_step(self) -> None:
        """Head of one compaction-loop iteration: gather the active walks'
        state into ``t`` and their flat tile indices into ``idx``, then
        evaluate the tiles."""
        e = self.e
        act = "act_r" if self.vec else "act"
        self.prof(f"_C.walk_steps += {act}.size")
        self.prof("_C.loop_iterations += 1")
        if self.arena:
            e.emit(f"_n = {act}.size")
            self.bind_scratch(full=False)
        if self.vec:
            e.emit("t = state[act_r, act_l]")
            e.emit("idx = bofs0[act_l] + t")
            self.eval_tile("idx", self._feat_act())
        else:
            e.emit("t = state[act]")
            e.emit("idx = bofs[act] + t")
            self.eval_tile("idx", "fidx")

    # -- sparse layout -------------------------------------------------
    def sparse_walk(self) -> None:
        e, g = self.e, self.g
        arena = self.arena
        walk = self.group.walk
        # Levels already walked by the hot phase; straight-line cold styles
        # emit that many fewer steps (guarded loops terminate by state).
        hot_done = self.hot.depth if self.hot is not None else 0
        if arena:
            self.bind_scratch(full=True)
        self._init_state()

        def child_base() -> None:
            if arena:
                self.take(f"{g}_cb", "idx", "base")
            else:
                e.emit(f"base = _np.take({g}_cb, idx)")

        def advance() -> None:
            if arena:
                e.emit("_np.add(bofs, state, idx)")
                self.eval_tile("idx", self._feat_full())
                child_base()
                e.emit("_np.add(base, ci, state)")
            else:
                e.emit("idx = bofs + state")
                self.eval_tile("idx", self._feat_full())
                e.emit(f"state = _np.take({g}_cb, idx) + ci")    # advanceToChild
            self.prof("_C.walk_steps += idx.size")
            e.emit()

        if walk.style == "unrolled":
            for _ in range(walk.depth - 1 - hot_done):
                advance()
            # Final step: uniform depth guarantees the leaves array.
            if arena:
                e.emit("_np.add(bofs, state, idx)")
                self.eval_tile("idx", self._feat_full())
                child_base()
                e.emit("_np.subtract(lofs, base, base)")
                e.emit("_np.subtract(base, 1, base)")
                e.emit("_np.add(base, ci, base)")
                self.take(f"{g}_lv", "base", "vals")
            else:
                e.emit("idx = bofs + state")
                self.eval_tile("idx", self._feat_full())
                child_base()
                e.emit(f"vals = _np.take({g}_lv, lofs - base - 1 + ci)")
            self.prof("_C.walk_steps += idx.size")
            self.prof(f"_C.unrolled_steps += {walk.depth - hot_done}")
            return

        if walk.style == "peeled":
            for _ in range(walk.peel - hot_done):
                advance()
            if walk.peel - hot_done > 0:
                self.prof(f"_C.peeled_steps += {walk.peel - hot_done}")

        if not self.lir.schedule.compact_walks:
            # Ablation path: masked loop. Finished lanes re-evaluate the
            # root harmlessly and keep their state under the mask; the loop
            # runs to the *slowest* lane's depth.
            e.emit("alive = state >= 0")
            with e.block("while alive.any():"):
                self.prof("_pa = int(alive.sum())")
                self.prof("_C.walk_steps += _pa")
                self.prof("_C.rows_masked += alive.size - _pa")
                self.prof("_C.loop_iterations += 1")
                if arena:
                    e.emit("_np.multiply(state, alive, t)")
                    e.emit("_np.add(bofs, t, idx)")
                else:
                    e.emit("t = _np.where(alive, state, 0)")
                    e.emit("idx = bofs + t")
                self.eval_tile("idx", self._feat_full())
                child_base()
                e.emit("nxt = _np.where(base >= 0, base + ci, base - ci)")
                if arena:
                    e.emit("_np.copyto(state, nxt, where=alive)")
                    e.emit("_np.greater_equal(state, 0, alive)")
                else:
                    e.emit("state = _np.where(alive, nxt, state)")
                    e.emit("alive = state >= 0")
        else:
            self._scan_active("state >= 0")
            with e.block("while act_r.size:" if self.vec else "while act.size:"):
                self._compact_step()
                child_base()
                e.emit("nxt = _np.where(base >= 0, base + ci, base - ci)")
                if self.vec:
                    e.emit("state[act_r, act_l] = nxt")
                    e.emit("keep = nxt >= 0")
                    e.emit("act_r = act_r[keep]")
                    e.emit("act_l = act_l[keep]")
                else:
                    e.emit("state[act] = nxt")
                    e.emit("act = act[nxt >= 0]")
        if arena:
            e.emit("_np.subtract(lofs, state, lidx)")
            e.emit("_np.subtract(lidx, 1, lidx)")
            self.take(f"{g}_lv", "lidx", "vals")
        else:
            e.emit(f"vals = _np.take({g}_lv, lofs - state - 1)")

    # -- array layout ----------------------------------------------------
    def array_walk(self) -> None:
        e, g = self.e, self.g
        arena = self.arena
        walk = self.group.walk
        arity = self.layout.tile_size + 1
        hot_done = self.hot.depth if self.hot is not None else 0
        if arena:
            self.bind_scratch(full=True)
        self._init_state()

        def advance() -> None:
            if arena:
                e.emit("_np.add(bofs, state, idx)")
                self.eval_tile("idx", self._feat_full())
                e.emit(f"_np.multiply(state, {arity}, state)")
                e.emit("_np.add(state, ci, state)")
                e.emit("_np.add(state, 1, state)")
            else:
                e.emit("idx = bofs + state")
                self.eval_tile("idx", self._feat_full())
                e.emit(f"state = state * {arity} + ci + 1")
            self.prof("_C.walk_steps += idx.size")
            e.emit()

        def final_vals() -> None:
            if arena:
                e.emit("_np.add(bofs, state, lidx)")
                self.take(f"{g}_lv", "lidx", "vals")
            else:
                e.emit(f"vals = _np.take({g}_lv, bofs + state)")

        if walk.style == "unrolled":
            for _ in range(walk.depth - hot_done):
                advance()
            self.prof(f"_C.unrolled_steps += {walk.depth - hot_done}")
            final_vals()
            return

        if walk.style == "peeled":
            for _ in range(walk.peel - hot_done):
                advance()
            if walk.peel - hot_done > 0:
                self.prof(f"_C.peeled_steps += {walk.peel - hot_done}")

        if not self.lir.schedule.compact_walks:
            # Ablation path: masked loop (see the sparse variant).
            if arena:
                e.emit("_np.add(bofs, state, idx)")
                e.emit(f"alive = {g}_sid.take(idx) >= 0")
            else:
                e.emit(f"alive = _np.take({g}_sid, bofs + state) >= 0")
            with e.block("while alive.any():"):
                self.prof("_pa = int(alive.sum())")
                self.prof("_C.walk_steps += _pa")
                self.prof("_C.rows_masked += alive.size - _pa")
                self.prof("_C.loop_iterations += 1")
                if arena:
                    e.emit("_np.multiply(state, alive, t)")
                    e.emit("_np.add(bofs, t, idx)")
                    self.eval_tile("idx", self._feat_full())
                    e.emit(f"_np.multiply(t, {arity}, base)")
                    e.emit("_np.add(base, ci, base)")
                    e.emit("_np.add(base, 1, base)")
                    e.emit("_np.copyto(state, base, where=alive)")
                    e.emit("_np.add(bofs, state, idx)")
                    self.take(f"{g}_sid", "idx", "t")
                    e.emit("_np.greater_equal(t, 0, alive)")
                else:
                    e.emit("t = _np.where(alive, state, 0)")
                    e.emit("idx = bofs + t")
                    self.eval_tile("idx", self._feat_full())
                    e.emit(f"nxt = t * {arity} + ci + 1")
                    e.emit("state = _np.where(alive, nxt, state)")
                    e.emit(f"alive = _np.take({g}_sid, bofs + state) >= 0")
            final_vals()
            return

        self._scan_active(self._gather(f"{g}_sid", "bofs + state") + " >= 0")
        with e.block("while act_r.size:" if self.vec else "while act.size:"):
            self._compact_step()
            e.emit(f"nxt = t * {arity} + ci + 1")
            if self.vec:
                e.emit("state[act_r, act_l] = nxt")
                e.emit(f"keep = {self._gather(f'{g}_sid', 'bofs0[act_l] + nxt')} >= 0")
                e.emit("act_r = act_r[keep]")
                e.emit("act_l = act_l[keep]")
            else:
                e.emit("state[act] = nxt")
                e.emit(f"act = act[{self._gather(f'{g}_sid', 'bofs[act] + nxt')} >= 0]")
        final_vals()


def _emit_group(
    e: _Emitter, lir: LIRModule, group: LIRGroup, vec: bool, target: str, views: list[str]
) -> None:
    """Emit the tree-chunk loop + walk + accumulation for one group;
    ``views`` names the arena's scratch-view locals (empty in alloc mode)."""
    g = f"g{group.group_id}"
    layout = group.layout
    arena = lir.schedule.scratch == "arena"
    if group.trivial:
        # Depth-0 group: every member tree is a single leaf; its contribution
        # is a per-class constant folded at compile time.
        e.emit(f"{target} += {g}_const")
        e.emit()
        return
    if layout.kind == "sparse" and bool(layout.root_leaf.any()):
        raise CodegenError("single-leaf tree in a non-trivial group")
    width = max(1, group.walk.width)
    num_trees = layout.num_trees
    budget = lir.lane_budget(group.group_id)
    ge = _GroupEmitter(e, lir, group, vec, views)
    e.emit(f"# group {group.group_id}: {num_trees} trees, {layout.kind} layout, "
           f"{group.walk.describe()}")
    step = _chunk_step(e, vec, width, num_trees, budget)
    if group.hot is not None:
        ge.emit_hot(step)
    with e.block(f"for c0 in range(0, {num_trees}, {step}):"):
        e.emit(f"k = min({step}, {num_trees} - c0)")
        # Flat base offsets of this chunk's lanes: tiles and leaf values.
        e.emit(f"bofs0 = {g}_laneT[c0:c0 + k]")
        e.emit("bofs = bofs0" if not vec else "bofs = bofs0[None, :]")
        if layout.kind == "sparse":
            e.emit(f"lofs = {g}_laneL[c0:c0 + k]" + ("[None, :]" if vec else ""))
            ge.sparse_walk()
        else:
            ge.array_walk()

        def accumulate(vals: str, onehot: str) -> None:
            if arena:
                e.emit(f"_np.matmul({vals}, {onehot}, mm)")
                e.emit(f"_np.add({target}, mm, {target})")
            else:
                e.emit(f"{target} += {vals} @ {onehot}")

        if budget:
            # A wide chunk still sums leaves `width` trees at a time, at the
            # tree offsets the fixed-step loop uses (K is a multiple of
            # `width`): each row's floating-point summation order does not
            # depend on the batch that carried it.
            with e.block(f"for s0 in range(0, k, {width}):"):
                lanes = f"s0:s0 + {width}"
                accumulate(
                    f"vals[:, {lanes}]" if vec else f"vals[{lanes}]",
                    f"{g}_oh[c0 + s0:c0 + s0 + {width}]",
                )
        else:
            accumulate("vals", f"{g}_oh[c0:c0 + k]")
    e.emit()


def emit_module_source(lir: LIRModule) -> str:
    """Emit the full ``predict_block(rows, out, arena)`` source for ``lir``.

    ``rows`` is a C-contiguous ``(B, F)`` batch in the schedule's precision
    dtype; ``out`` a ``(B, num_classes)`` float64 accumulator pre-filled by
    the caller with the base score; ``arena`` the caller's per-thread
    :class:`~repro.lir.memory.ScratchArena` (arena-mode kernels build a
    transient one when omitted). Model buffers resolve from the JIT
    namespace.
    """
    e = _Emitter()
    one_row = lir.mir.loop_order == "one-row"
    arena = lir.schedule.scratch == "arena"
    quant = lir.quant
    F, C = lir.num_features, lir.num_classes
    e.emit('"""Generated by repro.backend.codegen — do not edit."""')
    views, width = [], 0
    if arena:
        spec = arena_spec(lir)
        views, width = list(spec.scratch_views()), spec.lane_width
    # Movemask constants, built once when the source is executed: as source
    # lines they need no entry in an AOT or shm manifest.
    for name, value in zip(("_pm", "_ps", "_pk"), _PACK.get(width, ())):
        if value is not None:
            e.emit(f"{name} = _np.uint{8 * width}({value})")
    with e.block("def predict_block(rows, out, arena=None):"):
        e.emit("B = rows.shape[0]")
        if lir.schedule.profile:
            # Kernel profiling (Schedule.profile): bind this thread's
            # counter struct once per invocation; the walk emits plain
            # integer increments against it. Absent when profile=False.
            e.emit("_C = _P.local()")
            e.emit("_C.kernel_calls += 1")
            e.emit("_C.rows += B")
        if arena:
            with e.block("if arena is None:"):
                e.emit("arena = _new_arena()")
            e.emit("_A = arena")
            # A warmed call enters no Python frame: `ensure` only to (re)grow.
            fits = "_A.cap_rows" if one_row else "0 < B <= _A.cap_rows"
            with e.block(f"if not {fits}:"):
                e.emit("_A.ensure(B)")
        if quant is not None:
            # Input pre-quantization prologue: one searchsorted against the
            # per-feature cut table turns each float column into rank codes
            # once per batch; the walk below is integer-only after this.
            if arena and not one_row:
                e.emit(f"qrows = _A.qr[:B * {F}].reshape(B, {F})")
            else:
                e.emit(f"qrows = _np.empty((B, {F}), dtype=_np.{quant.dtype})")
            with e.block(f"for f in range({F}):"):
                cuts = "_qc[_qo[f]:_qo[f + 1]]"
                e.emit(
                    f"qrows[:, f] = {cuts}.searchsorted(rows[:, f], 'right')"
                    if arena else
                    f"qrows[:, f] = _np.searchsorted({cuts}, rows[:, f], side='right')"
                )
        if not one_row:
            e.emit("rowsf = qrows.reshape(-1)" if quant is not None
                   else "rowsf = rows.reshape(-1)")
            if arena:
                e.emit("rof0 = _A.rof0[:B]")
            else:
                e.emit(f"rof0 = _np.arange(B, dtype=_np.int64) * {lir.num_features}")
            e.emit("rof = rof0[:, None, None]")
            if quant is not None:
                # Leaf codes accumulate exactly in float64 (integral sums
                # of T trees of |code| <= qmax sit far below 2**53); one
                # rescale at the boundary below.
                if arena:
                    e.emit(f"qacc = _A.qa[:B * {C}].reshape(B, {C})")
                    e.emit("qacc.fill(0)")
                else:
                    e.emit(f"qacc = _np.zeros((B, {C}))")
            e.emit()
            for group in lir.groups:
                _emit_group(
                    e, lir, group, vec=True,
                    target="out" if quant is None else "qacc", views=views,
                )
        else:
            if quant is not None:
                e.emit(f"qacc = _np.zeros((B, {C}))")
            with e.block("for i in range(B):"):
                e.emit("row = qrows[i]" if quant is not None else "row = rows[i]")
                e.emit("acc = qacc[i]" if quant is not None else "acc = out[i]")
                for group in lir.groups:
                    _emit_group(e, lir, group, vec=False, target="acc", views=views)
        if quant is not None:
            e.emit("out += qacc * _qs")
        e.emit("return out")
    return e.source()


def build_namespace(lir: LIRModule, profile_recorder: ProfileRecorder | None = None) -> dict:
    """The globals the generated source runs against.

    Layout buffers are flattened with per-lane base offsets precomputed and
    all index-bearing arrays widened to int64 (NumPy's fast path for
    ``take``). The LUT is flattened to one int64 vector indexed by
    ``shape_id * row_length + bits``. Under ``precision="float32"`` the
    threshold/leaf/one-hot buffers narrow to float32 and feature indices to
    int32, halving their footprint and memory traffic; index math that
    feeds ``np.take`` stays int64 (its fast path). Arena-mode modules also
    get ``_new_arena``, the fallback scratch factory for direct kernel
    calls.
    """
    info = PRECISION_TABLE[lir.schedule.precision]
    fdt = np.dtype(info.element_dtype)
    idt = np.dtype(info.findex_dtype)
    quant = lir.quant
    ns: dict = {"_np": np, "lut": np.ascontiguousarray(lir.lut, dtype=np.int64).reshape(-1)}
    if quant is not None:
        # Row-quantization tables (the kernel prologue) and the boundary
        # rescale. The scale is a 0-d array so AOT export serializes it
        # like every other namespace buffer.
        ns["_qc"] = np.ascontiguousarray(quant.cuts, dtype=np.float64)
        ns["_qo"] = np.ascontiguousarray(quant.cut_offsets, dtype=np.int64)
        ns["_qs"] = np.asarray(quant.leaf_scale, dtype=np.float64)
    if lir.schedule.scratch == "arena":
        spec = arena_spec(lir)
        ns["_new_arena"] = lambda spec=spec: ScratchArena(spec)
    if lir.schedule.profile:
        # The kernel's `_C = _P.local()` resolves against this recorder. An
        # externally owned recorder (the predictor's) is bound as a weak
        # proxy: exec() installs predict_block into this namespace, closing
        # a namespace<->function cycle that only gc breaks, and a strong
        # `_P` would keep an evicted predictor's counters visible in
        # aggregate_all() until that collection ran. With the proxy, the
        # recorder dies by refcount with its predictor. Only when no owner
        # exists (direct build_namespace calls, AOT export) does the
        # namespace own the recorder itself.
        if profile_recorder is not None:
            ns["_P"] = weakref.proxy(profile_recorder)
        else:
            ns["_P"] = ProfileRecorder()
    # Quantized leaf codes and one-hots are float-carried exact integers
    # so the chunk matmul dispatches to BLAS (see quant_mm_dtype).
    mmdt = np.dtype(quant_mm_dtype(lir))
    dummy_sid = lir.dummy_shape_id
    has_dummy = dummy_sid is not None
    single_real = lir.lut.shape[0] - (1 if has_dummy else 0) == 1
    if single_real:
        # Single-real-shape specialization: the LUT collapses to the real
        # row; dummy tiles are masked via the per-group `_nd` buffers below.
        real_sid = next(i for i in range(lir.lut.shape[0]) if i != dummy_sid)
        ns["lut1"] = np.ascontiguousarray(lir.lut[real_sid], dtype=np.int64)
    for group in lir.groups:
        g = f"g{group.group_id}"
        layout = group.layout
        num_classes = lir.num_classes
        if group.trivial:
            # Quantized modules fold trivial trees as summed leaf codes so
            # they accumulate with the walk's integer codes and share the
            # single boundary rescale (int64 here; the float64 qacc takes
            # the upcast exactly).
            if layout.kind == "sparse":
                values = layout.leaves[:, 0]
            else:
                values = layout.leaf_values[:, 0]
            if quant is not None:
                const = np.zeros(num_classes, dtype=np.int64)
                np.add.at(
                    const, layout.class_ids,
                    quant.quantize_leaves(values).astype(np.int64),
                )
            else:
                const = np.zeros(num_classes, dtype=np.float64)
                np.add.at(const, layout.class_ids, values)
            ns[f"{g}_const"] = const
            continue
        k, tiles, width = layout.thresholds.shape
        if width > 8:
            ns["p2"] = (1 << np.arange(width, dtype=np.uint32))
        if quant is not None:
            # Thresholds become per-feature rank codes (+inf padding maps
            # to the dtype-max sentinel) — routing stays exactly float64's.
            ns[f"{g}_th"] = np.ascontiguousarray(
                quant.quantize_thresholds(
                    layout.thresholds, layout.features
                ).reshape(k * tiles, width)
            )
        else:
            ns[f"{g}_th"] = np.ascontiguousarray(
                layout.thresholds.reshape(k * tiles, width), dtype=fdt
            )
        ns[f"{g}_fi"] = np.ascontiguousarray(
            layout.features.reshape(k * tiles, width), dtype=idt
        )
        ns[f"{g}_sid"] = layout.shape_ids.reshape(-1).astype(np.int64)
        if single_real and has_dummy:
            # 0 at dummy tiles, 1 elsewhere: forces dummy child index to 0
            # independent of the (speculative) padding comparisons.
            ns[f"{g}_nd"] = (
                layout.shape_ids.reshape(-1) != dummy_sid
            ).astype(np.int64)
        ns[f"{g}_laneT"] = np.arange(k, dtype=np.int64) * tiles
        if group.hot is not None:
            # Hot prefix copies (Schedule(pgo=...)): both layouts number
            # tiles in level order, so the first `hot.tiles` positions of
            # each lane are exactly the tiles above the cutoff, at
            # unchanged indices. Slicing the *built* buffers inherits the
            # precision/quantization transforms applied above; the compact
            # contiguous copies are what keeps the hot working set small.
            H = group.hot.tiles
            ns[f"{g}_hth"] = np.ascontiguousarray(
                ns[f"{g}_th"].reshape(k, tiles, width)[:, :H]
            ).reshape(k * H, width)
            ns[f"{g}_hfi"] = np.ascontiguousarray(
                ns[f"{g}_fi"].reshape(k, tiles, width)[:, :H]
            ).reshape(k * H, width)
            ns[f"{g}_hsid"] = np.ascontiguousarray(
                ns[f"{g}_sid"].reshape(k, tiles)[:, :H]
            ).reshape(-1)
            if single_real and has_dummy:
                ns[f"{g}_hnd"] = np.ascontiguousarray(
                    ns[f"{g}_nd"].reshape(k, tiles)[:, :H]
                ).reshape(-1)
            if layout.kind == "sparse":
                ns[f"{g}_hcb"] = np.ascontiguousarray(
                    layout.child_base[:, :H]
                ).reshape(-1).astype(np.int64)
            ns[f"{g}_hlaneT"] = np.arange(k, dtype=np.int64) * H

        def _leaf_buf(values: np.ndarray) -> np.ndarray:
            if quant is not None:
                # Codes are bounded by qmax, so the float carrier is exact.
                return np.ascontiguousarray(
                    quant.quantize_leaves(values), dtype=mmdt
                )
            return np.ascontiguousarray(values, dtype=fdt)

        if layout.kind == "sparse":
            ns[f"{g}_cb"] = layout.child_base.reshape(-1).astype(np.int64)
            leaves = layout.leaves
            ns[f"{g}_lv"] = _leaf_buf(leaves.reshape(-1))
            ns[f"{g}_laneL"] = np.arange(k, dtype=np.int64) * leaves.shape[1]
        else:
            ns[f"{g}_lv"] = _leaf_buf(layout.leaf_values.reshape(-1))
            # Array layout leaf offsets coincide with tile offsets (per-slot
            # leaf values), so laneT doubles as the value base.
        # Quantized one-hots share the float matmul dtype: 0/1 weights are
        # exact in any float, and matching dtypes keep the matmul on BLAS.
        onehot = np.zeros(
            (layout.num_trees, num_classes),
            dtype=mmdt if quant is not None else fdt,
        )
        onehot[np.arange(layout.num_trees), layout.class_ids] = 1
        ns[f"{g}_oh"] = onehot
    return ns
