"""NumPy source generation for compiled inference functions.

``emit_module_source`` walks an :class:`~repro.lir.ir.LIRModule` and emits
the body of ``predict_block(rows, out, arena=None)``. The emitted
statements follow the walk-step op sequence of Section V-A one to one,
using the fastest NumPy realization of each op:

========================  ================================================
LIR op                    emitted statement
========================  ================================================
loadThresholds            ``g_th.take(idx, 0, thr, 'clip')``
loadFeatureIndices        ``g_fi.take(idx, 0, fidx, 'clip')``
gatherFeatures            ``_np.add(rof, fidx, gidx)``;
                          ``rowsf.take(gidx, None, feat, 'clip')``
vectorCompare             ``_np.less(feat, thr, cmp)``
packBits                  ``_np.multiply(cv, _pm, pv)``;
                          ``_np.right_shift(pv, _ps, pv)`` — integer
                          reinterpretation of the bool vector (the movemask
                          analog; see ``_PACK``)
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

Every step temporary is written into a preallocated per-thread
:class:`~repro.lir.memory.ScratchArena` buffer — the NumPy substitute for
the paper's generated SIMD loop keeping its working set in registers and
fixed buffers across walk steps. The steady-state hot path allocates
nothing, and emission is *dispatch-lean* (DESIGN.md): at batch 1 a
statement costs what Python spends reaching its C body, so every statement
is one direct C call. (R1) A gather is the ``ndarray.take`` method with
positional ``(indices, axis, out, 'clip')``, never the ``np.take`` wrapper;
``'clip'`` skips NumPy's bounds-check buffering, indices being in range by
construction. (R2) Nothing loop-invariant is built inside a step: scalar
constants are lines of the source's prelude, reinterpreted views (``cv``,
``bits``) are bound with the other scratch views, ufunc ``out`` is
positional. (R3) A full chunk takes all its scratch views from one memoised
lookup on the arena.

``Schedule.precision`` specializes element widths: under ``"float32"`` the
threshold/feature/leaf/one-hot buffers (and the input rows) are float32 and
the feature-index buffer is int32, halving model-buffer memory traffic
(the paper's element-width discussion). Thresholds narrow upward
(:func:`narrow_thresholds`), so routing a float32 row is exact. The
output accumulator stays float64 regardless. Under the integer modes
``"int16"``/``"int8"`` (:mod:`repro.lir.quantize`) the kernel grows a
prologue that rank-codes the incoming batch once per feature
(``searchsorted`` against the compiled cut tables), the walk compares/gathers int16/int8 codes, leaf
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

import numpy as np

from repro.config import PRECISION_TABLE
from repro.errors import CodegenError
from repro.lir.ir import LIRGroup, LIRModule
from repro.lir.memory import LANE_VIEWS, ArenaSpec, arena_spec, quant_mm_dtype
from repro.mir.ir import chunk_width


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


#: packBits for wide tiles (more than 8 lanes): no single integer holds the
#: compare vector, so the bits come from a matmul against the powers of two
#: ``p2`` (allocating; rare)
_PACK_WIDE = "(cmp.astype(_np.uint32) @ p2).astype(_np.int64)"

#: tile width -> the movemask's (multiplier, shift, mask): a bool array
#: stores one byte per lane, so ``cv`` reads a tile's compare vector as a
#: single unsigned integer whose byte ``i`` is lane ``i``'s outcome; one
#: multiply gathers the bytes into the top byte (LSB-first), one shift
#: extracts them. The constants are built once, as NumPy scalars of the
#: width's unsigned dtype, in the generated source's prelude.
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
        self, e: _Emitter, lir: LIRModule, group: LIRGroup, vec: bool, spec: ArenaSpec
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
        self.spec = spec
        #: the arena's scratch-view locals in bind order, and how many of
        #: them a compaction step re-binds (the rest are full-chunk only)
        self.views = list(spec.scratch_views())
        self.step_views = self.views.index("idx")
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
        constant, so the emitted increment is one multiply): every distinct
        buffer behind the views :meth:`ArenaSpec.scratch_views` declares
        for a full chunk or a compaction step, at the spec's dtypes.
        Aliases (``cv``/``bits``/``lidx``/``vals``) bind no new bytes."""
        spec, per = self.spec, {}
        for name, (attr, _) in spec.scratch_views().items():
            if name == "idx" and not full:
                break  # a compaction step re-binds the step temporaries only
            # the buffer's element type, as ScratchArena allocates it
            dtype = spec.findex_dtype if attr == "i0" else {
                "f": spec.float_dtype, "c": "bool", "i": "int64",
                "p": f"uint{attr[1:]}", "q": spec.mm_dtype,
            }[attr[0]]
            lanes = self.width if name in LANE_VIEWS else 1
            per.setdefault(attr, lanes * np.dtype(dtype).itemsize)
        return sum(per.values())

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

        Every temporary lands in a preallocated buffer (``out`` passed
        positionally), and nothing a step does not change — views, scalar
        constants — is built here.

        Model-specific specialization (the compiler knows the tiled model
        statically): when every real tile in the model shares one shape,
        the shape load + full LUT lookup are elided — the LUT collapses to
        its single real row, and for tile size 1 the whole lookup folds to
        ``1 - bit`` (true goes to child 0, the left subtree). If the model
        also contains dummy (padding/hop) tiles, a 0/1 non-dummy mask
        forces their child index to 0 regardless of the speculative
        comparisons (which can be false for ``+inf`` inputs).
        """
        e, W = self.e, self.width
        single_shape = self.real_shapes == 1
        self.take(self.buf("th"), idx, "thr", axis=0)       # loadThresholds
        self.take(self.buf("fi"), idx, "fidx", axis=0)      # loadFeatureIndices
        if self.vec:                                        # gatherFeatures
            e.emit(f"_np.add({feat_index}, fidx, gidx)")
            self.take("rowsf", "gidx", "feat")
        else:
            self.take("row", "fidx", "feat")
        e.emit("_np.less(feat, thr, cmp)")                  # vectorCompare
        if single_shape and W == 1:
            # packBits + lookupChildIndex folded into one arithmetic op.
            e.emit("_np.subtract(1, bits, ci)")
            self._mask_dummies(idx)
            return
        self._emit_pack()                                   # packBits
        if single_shape:
            self.take("lut1", "bits", "ci")                 # lookupChildIndex
            self.prof(f"_C.lut_lookups += ({idx}).size")
            self._mask_dummies(idx)
            return
        self.take(self.buf("sid"), idx, "sid")              # loadTileShape
        e.emit(f"_np.multiply(sid, {self.lut_cols}, sid)")  # lookupChildIndex
        e.emit("_np.add(sid, bits, sid)")
        self.take("lut", "sid", "ci")
        self.prof(f"_C.lut_lookups += ({idx}).size")

    def _emit_pack(self) -> None:
        """packBits: ``cv`` (the compare vector, one unsigned integer per
        tile) into ``pv``, a scratch of the same exact unsigned dtype — the
        movemask multiply relies on its wrap-around — with ``bits`` bound
        over the result as the LUT index (for 8 lanes an int64
        reinterpretation of ``pv``: post-shift values fit a byte, and
        uint64 + int64 index math would promote to float64). The constants
        are the ``_pm``/``_ps``/``_pk`` lines of the source prelude."""
        e, W = self.e, self.width
        if W not in _PACK:
            if W > 1:
                e.emit(f"bits = {_PACK_WIDE}")
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
            # `sid` is free here: single-real-shape paths never load shapes.
            self.take(self.buf("nd"), idx, "sid")
            self.e.emit("_np.multiply(ci, sid, ci)")

    def _feat_full(self) -> str:
        """Feature gather index for full (B, k) state."""
        return "rof" if self.vec else "fidx"

    def _feat_act(self) -> str:
        """Feature gather index for compacted active positions."""
        return "rof0[act_r][:, None]" if self.vec else "fidx"

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
        else:
            e.emit("state.fill(0)")

    def child_base(self) -> None:
        """Sparse layout: load the evaluated tiles' child bases."""
        self.take(self.buf("cb"), "idx", "base")

    def advance(self) -> None:
        """One check-free walk step of the whole chunk: evaluate the tiles
        at ``state``, then the layout's advanceToChild arithmetic. Buffers
        resolve through ``buf``, so the hot phase and the cold
        unrolled/peeled steps emit from here alike."""
        e = self.e
        e.emit("_np.add(bofs, state, idx)")
        self.eval_tile("idx", self._feat_full())
        if self.layout.kind == "sparse":
            self.child_base()
            e.emit("_np.add(base, ci, state)")
        else:
            e.emit(f"_np.multiply(state, {self.layout.tile_size + 1}, state)")
            e.emit("_np.add(state, ci, state)")
            e.emit("_np.add(state, 1, state)")
        self.prof("_C.walk_steps += idx.size")
        e.emit()

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
        e.emit(f"# hot prefix: {hot.depth} levels over {hot.tiles} tiles/lane")
        if self.vec:
            e.emit(f"hstate = _A.hs[:B * {nt}].reshape(B, {nt})")
        else:
            e.emit(f"hstate = _A.hs[:{nt}]")
        self.p = "h"
        with e.block(f"for c0 in range(0, {nt}, {step}):"):
            e.emit(f"k = min({step}, {nt} - c0)")
            e.emit(f"bofs0 = {g}_hlaneT[c0:c0 + k]")
            e.emit("bofs = bofs0[None, :]" if self.vec else "bofs = bofs0")
            self.bind_scratch(full=True)
            src = "hstate[:, c0:c0 + k]" if self.vec else "hstate[c0:c0 + k]"
            e.emit(f"state = {src}")
            e.emit("state.fill(0)")
            for _ in range(hot.depth):
                self.advance()
        self.p = ""

    # -- compaction loops (shared by both layouts) ----------------------
    def _scan_active(self, alive: str) -> None:
        """Open a compaction loop: the positions where ``alive`` holds."""
        names, tail = ("act_r, act_l", "") if self.vec else ("act", "[0]")
        capacity = ", ".join(name.upper() for name in self.views)
        self.e.emit(f"{capacity} = _A.cap")
        self.e.emit(f"{names} = ({alive}).nonzero(){tail}")

    def _compact_step(self) -> None:
        """Head of one compaction-loop iteration: gather the active walks'
        state into ``t`` and their flat tile indices into ``idx``, then
        evaluate the tiles."""
        e = self.e
        act = "act_r" if self.vec else "act"
        self.prof(f"_C.walk_steps += {act}.size")
        self.prof("_C.loop_iterations += 1")
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
        walk = self.group.walk
        # Levels already walked by the hot phase; straight-line cold styles
        # emit that many fewer steps (guarded loops terminate by state).
        hot_done = self.hot.depth if self.hot is not None else 0
        self.bind_scratch(full=True)
        self._init_state()

        if walk.style == "unrolled":
            for _ in range(walk.depth - 1 - hot_done):
                self.advance()
            # Final step: uniform depth guarantees the leaves array.
            e.emit("_np.add(bofs, state, idx)")
            self.eval_tile("idx", self._feat_full())
            self.child_base()
            e.emit("_np.subtract(lofs, base, base)")
            e.emit("_np.subtract(base, 1, base)")
            e.emit("_np.add(base, ci, base)")
            self.take(f"{g}_lv", "base", "vals")
            self.prof("_C.walk_steps += idx.size")
            self.prof(f"_C.unrolled_steps += {walk.depth - hot_done}")
            return

        if walk.style == "peeled":
            for _ in range(walk.peel - hot_done):
                self.advance()
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
                e.emit("_np.multiply(state, alive, t)")
                e.emit("_np.add(bofs, t, idx)")
                self.eval_tile("idx", self._feat_full())
                self.child_base()
                e.emit("nxt = _np.where(base >= 0, base + ci, base - ci)")
                e.emit("_np.copyto(state, nxt, where=alive)")
                e.emit("_np.greater_equal(state, 0, alive)")
        else:
            self._scan_active("state >= 0")
            with e.block("while act_r.size:" if self.vec else "while act.size:"):
                self._compact_step()
                self.child_base()
                e.emit("nxt = _np.where(base >= 0, base + ci, base - ci)")
                if self.vec:
                    e.emit("state[act_r, act_l] = nxt")
                    e.emit("keep = nxt >= 0")
                    e.emit("act_r = act_r[keep]")
                    e.emit("act_l = act_l[keep]")
                else:
                    e.emit("state[act] = nxt")
                    e.emit("act = act[nxt >= 0]")
        e.emit("_np.subtract(lofs, state, lidx)")
        e.emit("_np.subtract(lidx, 1, lidx)")
        self.take(f"{g}_lv", "lidx", "vals")

    # -- array layout ----------------------------------------------------
    def array_walk(self) -> None:
        e, g = self.e, self.g
        walk = self.group.walk
        arity = self.layout.tile_size + 1
        hot_done = self.hot.depth if self.hot is not None else 0
        self.bind_scratch(full=True)
        self._init_state()

        def final_vals() -> None:
            e.emit("_np.add(bofs, state, lidx)")
            self.take(f"{g}_lv", "lidx", "vals")

        if walk.style == "unrolled":
            for _ in range(walk.depth - hot_done):
                self.advance()
            self.prof(f"_C.unrolled_steps += {walk.depth - hot_done}")
            final_vals()
            return

        if walk.style == "peeled":
            for _ in range(walk.peel - hot_done):
                self.advance()
            if walk.peel - hot_done > 0:
                self.prof(f"_C.peeled_steps += {walk.peel - hot_done}")

        if not self.lir.schedule.compact_walks:
            # Ablation path: masked loop (see the sparse variant).
            e.emit("_np.add(bofs, state, idx)")
            e.emit(f"alive = {g}_sid.take(idx) >= 0")
            with e.block("while alive.any():"):
                self.prof("_pa = int(alive.sum())")
                self.prof("_C.walk_steps += _pa")
                self.prof("_C.rows_masked += alive.size - _pa")
                self.prof("_C.loop_iterations += 1")
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
            final_vals()
            return

        self._scan_active(f"{g}_sid.take(bofs + state) >= 0")
        with e.block("while act_r.size:" if self.vec else "while act.size:"):
            self._compact_step()
            e.emit(f"nxt = t * {arity} + ci + 1")
            if self.vec:
                e.emit("state[act_r, act_l] = nxt")
                e.emit(f"keep = {g}_sid.take(bofs0[act_l] + nxt) >= 0")
                e.emit("act_r = act_r[keep]")
                e.emit("act_l = act_l[keep]")
            else:
                e.emit("state[act] = nxt")
                e.emit(f"act = act[{g}_sid.take(bofs[act] + nxt) >= 0]")
        final_vals()


def _emit_group(
    e: _Emitter, lir: LIRModule, group: LIRGroup, vec: bool, target: str, spec: ArenaSpec
) -> None:
    """Emit the tree-chunk loop + walk + accumulation for one group;
    ``spec`` declares the arena's scratch views."""
    g = f"g{group.group_id}"
    layout = group.layout
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
    ge = _GroupEmitter(e, lir, group, vec, spec)
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
            e.emit(f"_np.matmul({vals}, {onehot}, mm)")
            e.emit(f"_np.add({target}, mm, {target})")

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
    :class:`~repro.lir.memory.ScratchArena` (the kernel builds a
    transient one when omitted). Model buffers resolve from the JIT
    namespace.
    """
    e = _Emitter()
    one_row = lir.mir.loop_order == "one-row"
    quant = lir.quant
    F, C = lir.num_features, lir.num_classes
    e.emit('"""Generated by repro.backend.codegen — do not edit."""')
    spec = arena_spec(lir)
    width = spec.lane_width
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
            if one_row:
                e.emit(f"qrows = _np.empty((B, {F}), dtype=_np.{quant.dtype})")
            else:
                e.emit(f"qrows = _A.qr[:B * {F}].reshape(B, {F})")
            with e.block(f"for f in range({F}):"):
                e.emit(
                    "qrows[:, f] = _qc[_qo[f]:_qo[f + 1]]"
                    ".searchsorted(rows[:, f], 'right')"
                )
        if not one_row:
            e.emit("rowsf = qrows.reshape(-1)" if quant is not None
                   else "rowsf = rows.reshape(-1)")
            e.emit("rof0 = _A.rof0[:B]")
            e.emit("rof = rof0[:, None, None]")
            if quant is not None:
                # Leaf codes accumulate exactly in float64 (integral sums
                # of T trees of |code| <= qmax sit far below 2**53); one
                # rescale at the boundary below.
                e.emit(f"qacc = _A.qa[:B * {C}].reshape(B, {C})")
                e.emit("qacc.fill(0)")
            e.emit()
            for group in lir.groups:
                _emit_group(
                    e, lir, group, vec=True,
                    target="out" if quant is None else "qacc", spec=spec,
                )
        else:
            if quant is not None:
                e.emit(f"qacc = _np.zeros((B, {C}))")
            with e.block("for i in range(B):"):
                e.emit("row = qrows[i]" if quant is not None else "row = rows[i]")
                e.emit("acc = qacc[i]" if quant is not None else "acc = out[i]")
                for group in lir.groups:
                    _emit_group(e, lir, group, vec=False, target="acc", spec=spec)
        if quant is not None:
            e.emit("out += qacc * _qs")
        e.emit("return out")
    return e.source()


def narrow_thresholds(thresholds: np.ndarray, dtype) -> np.ndarray:
    """``thresholds`` in the element type ``dtype``, each rounded *up* to
    the smallest representable value >= it.

    A kernel compares ``x < t``. Rounding to nearest would move a
    threshold below its float64 value about half the time, and a float32
    row equal to the rounded value would then go right where the model
    sends it left. Rounding up keeps ``x < t_narrow`` exactly ``x < t``
    for every ``x`` of the narrow type (``+inf`` padding stays ``+inf``).
    """
    wide = np.asarray(thresholds, dtype=np.float64)
    narrow = wide.astype(dtype)
    low = narrow < wide
    if low.any():
        narrow[low] = np.nextafter(narrow[low], narrow.dtype.type(np.inf))
    return narrow


def model_buffers(lir: LIRModule) -> dict[str, np.ndarray]:
    """The model's buffers, by the global name its kernel reads them under.

    This is what a compiled model *is*: every backend's kernel runs against
    exactly these arrays, an AOT artifact stores them as ``.npy`` files and
    a shared-memory export copies them into segments. The runtime globals
    a kernel also needs are bound by :func:`repro.backend.jit.bind_kernel`.

    Layout buffers are flattened with per-lane base offsets precomputed and
    all index-bearing arrays widened to int64 (NumPy's fast path for
    ``take``). The LUT is flattened to one int64 vector indexed by
    ``shape_id * row_length + bits``. Under ``precision="float32"`` the
    threshold/leaf/one-hot buffers narrow to float32 (thresholds upward,
    see :func:`narrow_thresholds`) and feature indices to int32, halving
    their footprint and memory traffic; index math that feeds ``np.take``
    stays int64 (its fast path).
    """
    info = PRECISION_TABLE[lir.schedule.precision]
    fdt = np.dtype(info.element_dtype)
    idt = np.dtype(info.findex_dtype)
    quant = lir.quant
    ns: dict = {"lut": np.ascontiguousarray(lir.lut, dtype=np.int64).reshape(-1)}
    if quant is not None:
        # Row-quantization tables (the kernel prologue) and the boundary
        # rescale. The scale is a 0-d array so it is stored like every
        # other model buffer.
        ns["_qc"] = np.ascontiguousarray(quant.cuts, dtype=np.float64)
        ns["_qo"] = np.ascontiguousarray(quant.cut_offsets, dtype=np.int64)
        ns["_qs"] = np.asarray(quant.leaf_scale, dtype=np.float64)
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
                narrow_thresholds(layout.thresholds.reshape(k * tiles, width), fdt)
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
