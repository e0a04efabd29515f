"""Compiler schedules: the optimization configuration space of Table II.

A :class:`Schedule` bundles every knob the paper explores — tile size,
tiling algorithm, loop order, padding/unrolling, walk interleaving, the
leaf-bias thresholds ⟨alpha, beta⟩ — plus the in-memory layout choice of
Section V-B and the parallelization degree of Section IV-C. Schedules are
plain frozen dataclasses: the autotuner enumerates them, and every pipeline
stage reads its decisions from the one schedule attached to the module being
compiled (the paper's "annotation" mechanism).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.errors import BackendError, ScheduleError

TILINGS = ("basic", "probability", "hybrid", "optimal")
LOOP_ORDERS = ("one-tree", "one-row")
LAYOUTS = ("array", "sparse")
#: the code-generation backends (:mod:`repro.backend.registry`); ``auto``
#: resolves to one of the other two per compile
BACKENDS = ("auto", "native", "numpy_jit")
#: retired field -> (the only value a persisted schedule may still carry
#: for it, why every other value is refused); see :meth:`Schedule.from_dict`
_RETIRED_FIELDS = {
    # every kernel now writes its walk-step temporaries into a preallocated
    # per-thread scratch arena
    "scratch": ("arena", "the fresh-temporary (alloc) emitter was retired"),
    "traversal": ("tiled", "the QuickScorer strategy was retired"),
}
#: (field, retired value) -> the value a persisted schedule loads as
_RETIRED_VALUES = {
    # the artifact backend built exactly the NumPy kernel; every compiled
    # predictor now exports
    ("backend", "aot_export"): "numpy_jit",
}


@dataclass(frozen=True)
class PrecisionInfo:
    """Element widths and dtypes implied by one ``Schedule.precision`` value.

    This table is the single source of truth for how a precision choice
    sizes model buffers and scratch arenas: the element dtype of
    threshold/leaf buffers and lane temporaries, the feature-index dtype,
    the dtype chunk matmuls accumulate in, and whether the mode is an
    integer-quantized one (rank-coded thresholds + fixed-point leaves,
    see :mod:`repro.lir.quantize`). Sizes are stored as plain ints so this
    leaf module never imports numpy.
    """

    #: dtype of thresholds, leaf values, and per-lane walk temporaries
    element_dtype: str
    #: dtype of the per-lane feature-index buffer
    findex_dtype: str
    #: dtype the per-chunk ``vals @ onehot`` accumulation runs in
    acc_dtype: str
    #: True for integer-quantized modes (int16/int8)
    quantized: bool
    #: sizeof(element_dtype) in bytes
    element_size: int
    #: sizeof(findex_dtype) in bytes
    findex_size: int
    #: sizeof(acc_dtype) in bytes
    acc_size: int


#: precision name -> widths/dtypes (see :class:`PrecisionInfo`). Quantized
#: modes accumulate leaf *codes* exactly in a float64 accumulator (integer
#: values below 2**53 are exact in a double, and BLAS does the chunk
#: matmul an order of magnitude faster than NumPy's integer fallback) and
#: rescale once at the boundary; their feature indices narrow to int16
#: (the compiler validates ``num_features`` fits).
PRECISION_TABLE = {
    "float64": PrecisionInfo("float64", "int64", "float64", False, 8, 8, 8),
    "float32": PrecisionInfo("float32", "int32", "float32", False, 4, 4, 4),
    "int16": PrecisionInfo("int16", "int16", "float64", True, 2, 2, 8),
    "int8": PrecisionInfo("int8", "int16", "float64", True, 1, 2, 8),
}
PRECISIONS = tuple(PRECISION_TABLE)
#: the integer-quantized subset of :data:`PRECISIONS`
QUANTIZED_PRECISIONS = tuple(p for p, i in PRECISION_TABLE.items() if i.quantized)


@dataclass(frozen=True)
class Schedule:
    """One point in the optimization space.

    Attributes
    ----------
    tile_size:
        Nodes per tile (Table II explores 1, 2, 4, 8). Size 1 disables
        tiling-derived vectorization across the tile dimension.
    tiling:
        ``"basic"`` (Algorithm 2 everywhere), ``"probability"``
        (Algorithm 1 everywhere), ``"hybrid"`` (Algorithm 1 only for
        leaf-biased trees — the paper's evaluated policy), or
        ``"optimal"`` (the dynamic-programming solver the paper mentions
        but does not implement; exact on the expected-walk objective).
    loop_order:
        ``"one-tree"`` walks one tree (group) for all rows before the next;
        ``"one-row"`` walks all trees for a row before the next row.
    pad_and_unroll:
        Pad almost-balanced tiled trees with dummy tiles to uniform depth and
        fully unroll their walks (Sections III-F, IV-B).
    pad_max_slack:
        Maximum (max - min) leaf-tile depth for a tree to count as "almost
        balanced" and be padded.
    peel_walk:
        Peel the walk loop up to the depth of the shallowest leaf so the
        peeled prologue skips leaf checks (Section IV-B).
    interleave:
        Unroll-and-jam factor: how many tree walks are advanced together
        (Section IV-A). 1 disables interleaving. A factor ``>= 2`` is the
        *floor* of the jam and the width leaf values are accumulated at:
        the kernel widens each walk chunk to a whole multiple of it that
        fits a fixed ``(row, tree)`` lane budget at the live batch size
        (:func:`repro.mir.ir.chunk_width`) — a 1-row call walks a whole
        tree group per vector statement, a 2048-row call exactly
        ``interleave`` trees — while every row's leaf sums keep the order
        the fixed-width loop gives them.
    layout:
        In-memory representation of tiled trees: ``"array"`` or ``"sparse"``
        (Section V-B).
    alpha, beta:
        Leaf-bias thresholds for hybrid tiling (Section III-C).
    parallel:
        Number of cores for the row-loop parallelization of Section IV-C;
        1 means serial.
    row_block:
        Rows processed per NumPy kernel invocation; 0 processes the entire
        batch at once. (Blocking matters for the cache behaviour studied in
        VI-E.) The native walker blocks rows itself and ignores it.
    reorder:
        Group trees that can share traversal code (Section III-F).
    compact_walks:
        Guarded walk loops compact to the active (row, tree) set each step
        — the vectorized analog of the scalar walk's early exit. Disabled,
        finished lanes idle under a mask until the slowest lane terminates
        (an ablation knob; see ``repro.experiments.ablations``).
    """

    tile_size: int = 8
    tiling: str = "hybrid"
    loop_order: str = "one-tree"
    pad_and_unroll: bool = True
    pad_max_slack: int = 2
    peel_walk: bool = True
    interleave: int = 8
    layout: str = "sparse"
    alpha: float = 0.075
    beta: float = 0.9
    parallel: int = 1
    row_block: int = 0
    reorder: bool = True
    compact_walks: bool = True
    #: element width of the compiled model buffers and input rows (the
    #: paper's element-width discussion): ``"float64"`` keeps reference
    #: numerics; ``"float32"`` halves threshold/feature/leaf buffer
    #: footprint and memory traffic and narrows the feature-index buffer to
    #: int32. Rows are rounded to float32, and each threshold is rounded up
    #: to the smallest float32 >= it, so a float32 row routes exactly as the
    #: float64 model routes it; only leaf rounding (~1e-7 relative) remains.
    #: ``"int16"`` / ``"int8"`` are the integer-only quantized modes
    #: (InTreeger direction): thresholds become per-feature rank codes —
    #: routing is *exactly* the float64 routing, see
    #: :mod:`repro.lir.quantize` — and leaves become fixed-point codes with
    #: one per-forest scale, so the whole walk runs on integer compares and
    #: integer gathers with a single rescale at the boundary.
    precision: str = "float64"
    #: compile kernel profiling counters *into* the generated source (walk
    #: steps, LUT lookups, masked lanes, scratch bytes — see
    #: :mod:`repro.observe.profile`). Off by default: with ``False`` the
    #: instrumentation is absent from the emitted code entirely (not
    #: branched over), so the production hot path is untouched. Profiling
    #: never changes predictions — only counts what the kernel did.
    profile: bool = False
    #: run the cross-level structural verifiers of :mod:`repro.verify`
    #: after each lowering stage: HIR (tiling validity, padding coverage,
    #: reorder permutation, probability mass), MIR (loop nest covers every
    #: (tree, row) pair exactly once, chunking exhaustive, peel/unroll
    #: legality), LIR (buffer/LUT shape consistency, reserved all-zeros
    #: dummy LUT row, child indices in bounds, arena spec large enough).
    #: Each verifier runs inside its own trace span and raises
    #: :class:`~repro.errors.VerificationError` with a precise diagnostic
    #: on the first violated invariant. Off by default: with ``False`` no
    #: verifier code runs at all and the emitted kernel is byte-identical
    #: to an unverified build — verification never changes what is
    #: compiled, only whether the compiler double-checks itself.
    verify: bool = False
    #: which code generator of :data:`BACKENDS` turns the lowered LIR into
    #: an executor (:mod:`repro.backend.registry`; any other name raises
    #: :class:`~repro.errors.BackendError`). The default, ``"auto"``, is
    #: resolved per compile: ``native`` where this machine can build it and
    #: the walker covers the schedule, ``numpy_jit`` otherwise. Like every
    #: field, part of :func:`~repro.backend.jit.model_fingerprint`, the one
    #: cache key of a compiled executor.
    backend: str = "auto"
    #: profile-guided hot/cold tree splitting (:mod:`repro.pgo`): ``None``
    #: disables it; ``"auto"`` derives a per-group hot-depth cutoff from
    #: static leaf statistics; an int ``>= 1`` pins the cutoff explicitly
    #: (in tile levels — serving passes the cutoff measured from live
    #: profile counters here). The hot prefix of every tree is walked
    #: check-free over compact contiguous prefix buffers before the cold
    #: tail runs the ordinary walk; the split is output-invariant by
    #: construction (same comparisons, same routing, same accumulation
    #: order), but it is a different kernel, so it has its own
    #: fingerprint.
    pgo: int | str | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.tile_size <= 16):
            raise ScheduleError(f"tile_size must be in [1, 16], got {self.tile_size}")
        if self.tiling not in TILINGS:
            raise ScheduleError(f"tiling must be one of {TILINGS}, got {self.tiling!r}")
        if self.loop_order not in LOOP_ORDERS:
            raise ScheduleError(f"loop_order must be one of {LOOP_ORDERS}")
        if self.layout not in LAYOUTS:
            raise ScheduleError(f"layout must be one of {LAYOUTS}")
        if self.interleave < 1:
            raise ScheduleError("interleave factor must be >= 1")
        if self.parallel < 1:
            raise ScheduleError("parallel degree must be >= 1")
        if not (0 < self.alpha <= 1) or not (0 < self.beta <= 1):
            raise ScheduleError("alpha and beta must be in (0, 1]")
        if self.row_block < 0:
            raise ScheduleError("row_block must be >= 0")
        if self.pad_max_slack < 0:
            raise ScheduleError("pad_max_slack must be >= 0")
        if self.precision not in PRECISIONS:
            raise ScheduleError(f"precision must be one of {PRECISIONS}")
        if not isinstance(self.backend, str) or not self.backend:
            raise ScheduleError(
                f"backend must be a non-empty string, got {self.backend!r}"
            )
        if self.backend not in BACKENDS:
            raise BackendError(
                f"unknown backend {self.backend!r}: backends are {list(BACKENDS)}"
            )
        if self.pgo is not None and not (
            self.pgo == "auto"
            or (
                isinstance(self.pgo, int)
                and not isinstance(self.pgo, bool)
                and self.pgo >= 1
            )
        ):
            raise ScheduleError(
                f'pgo must be None, "auto", or an int >= 1, got {self.pgo!r}'
            )

    @classmethod
    def scalar_baseline(cls) -> "Schedule":
        """The unoptimized configuration the paper's speedups are measured
        against: tile size 1, one row at a time, no reordering/padding/
        interleaving (Section VI, "scalar baseline")."""
        return cls(
            tile_size=1,
            tiling="basic",
            loop_order="one-row",
            pad_and_unroll=False,
            peel_walk=False,
            interleave=1,
            layout="array",
            reorder=False,
        )

    def with_(self, **updates) -> "Schedule":
        """A copy of this schedule with some fields replaced."""
        return replace(self, **updates)

    def to_dict(self) -> dict:
        """Plain-JSON representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        """Rebuild a schedule from :meth:`to_dict` output.

        Unknown keys raise :class:`ScheduleError` — a persisted schedule
        written by a different version of the knob set must be discarded,
        not silently reinterpreted. A retired field (``_RETIRED_FIELDS``)
        is dropped when it carries its one surviving value — that names the
        behaviour every schedule now has — and rejected otherwise. A retired
        value (``_RETIRED_VALUES``) loads as the value that builds the same
        kernel.
        """
        data = dict(data)
        for name, (accepted, why) in _RETIRED_FIELDS.items():
            if data.pop(name, accepted) != accepted:
                raise ScheduleError(
                    f"schedule field {name!r} only loads as {accepted!r}: {why}"
                )
        for (name, retired), value in _RETIRED_VALUES.items():
            if data.get(name) == retired:
                data[name] = value
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScheduleError(f"unknown schedule fields: {', '.join(unknown)}")
        return cls(**data)
