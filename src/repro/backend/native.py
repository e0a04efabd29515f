"""The native backend: one generic C tile-walker, one foreign call per request.

Treebeard's last lowering step JITs the LIR walk to machine code; the NumPy
backend substitutes ≈ 175 interpreter dispatches per 1-row request for it.
This backend walks the same tiles in C. Three pieces live here:

* :data:`WALKER_SOURCE` — one model-independent C file. ``static inline``
  walkers for the sparse and array layouts, specialised by constant
  propagation on the padded lane width {1, 2, 4, 8, 16} and the element
  type {float64, float32}, behind one exported entry point
  ``repro_walk(model, rows, num_rows, out)``. ``model`` is a packed group
  table (per group: buffer pointers, extents, class ids, layout kind) plus
  the LUT; it points into the arrays :func:`~repro.backend.codegen.
  model_buffers` already builds — no second copy of the model exists.
* :func:`load_library` — builds that file once per machine with
  ``gcc -O3 -march=native`` (never ``-ffast-math``: NaN and ±inf must compare
  as IEEE says) into a per-user cache directory, keyed by
  sha256(source, compiler version, flags, CPU model), via temp file + atomic
  rename; every later process pays a ``dlopen``.
* :func:`emit_stub_source` / :func:`bind` — the backend still *emits Python
  source*: a stub whose module level binds the group table from its own
  namespace and whose ``predict_block(rows, out, arena=None)`` is the
  foreign call. The code cache and both stores of a model image (an AOT
  artifact's ``kernel.py``, the shared-memory manifest) therefore carry a
  native kernel unchanged, and every path that executes a stub — in-process
  build, ``load_artifact``, ``attach_shared``, all through
  :func:`~repro.backend.jit.bind_kernel` — runs the same bind-time
  validation.

The walk is the paper's, in its two mechanisms. *Interleaving* (§IV-B):
independent sparse walks advance in lock-step, so no tile step waits on
another walk's LUT load — rows in blocks of ``ROW_JAM`` through one tree,
and the rows a batch leaves over (every row of a 1-row request) through
``TREE_JAM`` trees at a time. A walk retires when its state goes negative,
the step loop ends when none is live, and it is still bounded by the
tree's tile count. The jams are fixed constants, chosen by a sweep on four
Table-I forests; ``Schedule.interleave`` does not reach the walker. The
array layout walks one (row, tree) at a time: it is what the scalar
baseline (``Schedule.scalar_baseline()``) measures. *The vector tile
predicate* (§V-A): a tile's comparison bits come from one gather, one
ordered less-than compare and one movemask per vector of lanes — AVX-512
for 8 float64 or 16 float32 lanes, AVX2 for 4 float64 or 4/8 float32 lanes,
chosen by the preprocessor under ``-march=native`` and named by the
exported ``repro_isa()`` (the ``native_isa`` compile stat). Other widths
and ISAs keep the scalar loop. ``_CMP_LT_OQ`` is C's ``<`` — false on NaN —
so every path routes every row alike.

Memory safety is split the way ``take(..., 'clip')`` splits it. Indices the
*model* supplies (feature indices, shape ids, child bases, lane offsets, LUT
extent) are range-checked once, vectorised, in :func:`bind`; the gathers
read exactly those feature indices. Indices the *input* steers (the tile
index derived from the walk state, the LUT index, the leaf index) are
clamped in the walker, and every walk is bounded by its tree's tile count,
so a hostile row can pick a wrong leaf but cannot read outside a buffer or
spin.

Accumulation order is fixed — groups in order, trees ascending, each leaf
added to its row's float64 accumulator. Both jams keep it: a row jam adds
each tree's leaves before the next tree walks, a tree jam buffers its
leaves and adds them in ascending tree order. A row's margins are therefore
bitwise the same in any batch, under any ``threads=`` and on every ISA.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.backend.predictor import Predictor
from repro.backend.registry import Backend
from repro.config import PRECISION_TABLE
from repro.errors import BackendError, CodegenError, ExecutionError
from repro.observe import registry as observe_registry

#: compiler flags; part of the cache key
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

#: seconds one ``gcc`` run may take before it is killed
BUILD_TIMEOUT_S = 120.0

#: padded lane widths the walker is specialised for
LANE_WIDTHS = (1, 2, 4, 8, 16)

#: the walker's tile-compare paths, indexed by what ``repro_isa()`` returns
ISA_PATHS = ("scalar", "avx2", "avx512")

WALKER_SOURCE = r"""
#include <stdint.h>
#if defined(__AVX2__)
#include <immintrin.h>
#endif

enum { SPARSE = 0, ARRAY = 1, CONSTANT = 2 };

typedef struct {
    int64_t kind;
    int64_t width;       /* padded lanes per tile */
    int64_t arity;       /* children per tile (array layout) */
    int64_t num_trees;
    int64_t tiles;       /* tiles per tree: extent of one lane, bound of one walk */
    int64_t num_tiles;   /* extent of th / fi / sid / cb */
    int64_t num_leaves;  /* extent of lv */
    const void *th;
    const void *fi;
    const int64_t *sid;
    const int64_t *cb;
    const void *lv;
    const int64_t *lane_tiles;
    const int64_t *lane_leaves;
    const int32_t *cls;
    const double *constant;
} repro_group;

typedef struct {
    const repro_group *groups;
    int64_t num_groups;
    const int64_t *lut;
    int64_t lut_len;
    int64_t lut_cols;
    int64_t elem_size;
    int64_t num_features;
    int64_t num_classes;
} repro_model;

/* rows walked back to back through one tree while its tiles are hot */
#define ROW_BLOCK 64
/* sparse walks in lock-step: rows of one tree, or trees of one row (the
   best of {8, 16, 32} rows x {4, 8} trees on four Table-I forests) */
#define ROW_JAM 32
#define TREE_JAM 4

#define INLINE static inline __attribute__((always_inline))

/* what take(..., 'clip') does to an index */
INLINE int64_t clip(int64_t i, int64_t n) { return i < 0 ? 0 : (i >= n ? n - 1 : i); }

/* The tile predicate, bit w set iff row[fi[w]] < th[w]: one gather, one
   ordered compare (_CMP_LT_OQ is C's <, false on NaN) and one movemask per
   vector of lanes, or the scalar loop where no vector fits. */
#if defined(__AVX512F__)
#define REPRO_ISA 2
INLINE int64_t lt8_f64(const double *row, const int64_t *fi, const double *th) {
    const __m512d x = _mm512_i64gather_pd(_mm512_loadu_si512(fi), row, 8);
    return _mm512_cmp_pd_mask(x, _mm512_loadu_pd(th), _CMP_LT_OQ);
}
INLINE int64_t lt16_f32(const float *row, const int32_t *fi, const float *th) {
    const __m512 x = _mm512_i32gather_ps(_mm512_loadu_si512(fi), row, 4);
    return _mm512_cmp_ps_mask(x, _mm512_loadu_ps(th), _CMP_LT_OQ);
}
#elif defined(__AVX2__)
#define REPRO_ISA 1
#else
#define REPRO_ISA 0
#endif
#if defined(__AVX2__)
INLINE int64_t lt4_f64(const double *row, const int64_t *fi, const double *th) {
    const __m256d x = _mm256_i64gather_pd(row, _mm256_loadu_si256((const __m256i *)fi), 8);
    return _mm256_movemask_pd(_mm256_cmp_pd(x, _mm256_loadu_pd(th), _CMP_LT_OQ));
}
INLINE int64_t lt4_f32(const float *row, const int32_t *fi, const float *th) {
    const __m128 x = _mm_i32gather_ps(row, _mm_loadu_si128((const __m128i *)fi), 4);
    return _mm_movemask_ps(_mm_cmp_ps(x, _mm_loadu_ps(th), _CMP_LT_OQ));
}
INLINE int64_t lt8_f32(const float *row, const int32_t *fi, const float *th) {
    const __m256 x = _mm256_i32gather_ps(row, _mm256_loadu_si256((const __m256i *)fi), 4);
    return _mm256_movemask_ps(_mm256_cmp_ps(x, _mm256_loadu_ps(th), _CMP_LT_OQ));
}
#endif

/* which compare the preprocessor kept: 2 AVX-512, 1 AVX2, 0 scalar */
int repro_isa(void) { return REPRO_ISA; }

/* W lanes in vectors of V: the lanes' bits, vector k's at bit k * V */
#define LANES(V, LT)                                                           \
    do {                                                                       \
        int64_t bits = 0;                                                      \
        for (int k = 0; k < W; k += V) bits |= LT(row, fi + k, th + k) << k;   \
        return bits;                                                           \
    } while (0)

INLINE int64_t lt_f64(const double *row, const int64_t *fi, const double *th,
                      const int W) {
#if defined(__AVX512F__)
    if (W >= 8) LANES(8, lt8_f64);
#endif
#if defined(__AVX2__)
    if (W >= 4) LANES(4, lt4_f64);
#endif
    int64_t bits = 0;
    for (int w = 0; w < W; w++) bits |= (int64_t)(row[fi[w]] < th[w]) << w;
    return bits;
}

INLINE int64_t lt_f32(const float *row, const int32_t *fi, const float *th,
                      const int W) {
#if defined(__AVX512F__)
    if (W >= 16) LANES(16, lt16_f32);
#endif
#if defined(__AVX2__)
    if (W >= 8) LANES(8, lt8_f32);
    if (W >= 4) LANES(4, lt4_f32);
#endif
    int64_t bits = 0;
    for (int w = 0; w < W; w++) bits |= (int64_t)(row[fi[w]] < th[w]) << w;
    return bits;
}

#define DEFINE_WALKERS(T, ELEM, FIDX)                                          \
INLINE int64_t child_##T(const repro_model *m, const repro_group *g,           \
                         const ELEM *row, int64_t idx, const int W) {          \
    const int64_t bits = lt_##T(row, (const FIDX *)g->fi + idx * W,            \
                                (const ELEM *)g->th + idx * W, W);             \
    return m->lut[clip(g->sid[idx] * m->lut_cols + bits, m->lut_len)];         \
}                                                                              \
/* K sparse walks in lock-step, walk k taking row[k] through tree t[k] to     \
   leaf[k]. A walk retires when its state goes negative; each takes at most   \
   the tree's tile count of steps, as one walk alone would. */                \
INLINE void sparse_##T(const repro_model *m, const repro_group *g,             \
                       const ELEM *const *row, const int64_t *t, ELEM *leaf,   \
                       const int K, const int W) {                             \
    int64_t base[K], state[K];                                                 \
    for (int k = 0; k < K; k++) base[k] = g->lane_tiles[t[k]], state[k] = 0;   \
    for (int64_t step = 0; step < g->tiles; step++) {                          \
        int live = 0;                                                          \
        for (int k = 0; k < K; k++) {                                          \
            if (state[k] < 0) continue;                                        \
            const int64_t idx = clip(base[k] + state[k], g->num_tiles);        \
            const int64_t ci = child_##T(m, g, row[k], idx, W);                \
            const int64_t cb = g->cb[idx];                                     \
            state[k] = cb >= 0 ? cb + ci : cb - ci;                            \
            live |= state[k] >= 0;                                             \
        }                                                                      \
        if (!live) break;                                                      \
    }                                                                          \
    for (int k = 0; k < K; k++)                                                \
        leaf[k] = ((const ELEM *)g->lv)[clip(g->lane_leaves[t[k]] - state[k] - 1, \
                                             g->num_leaves)];                  \
}                                                                              \
INLINE ELEM array_##T(const repro_model *m, const repro_group *g,              \
                      const ELEM *row, int64_t t, const int W) {               \
    const int64_t base = g->lane_tiles[t];                                     \
    int64_t state = 0, idx = clip(base, g->num_tiles);                         \
    for (int64_t step = 0; g->sid[idx] >= 0 && step < g->tiles; step++) {      \
        state = state * g->arity + child_##T(m, g, row, idx, W) + 1;           \
        if (state > g->num_tiles) state = g->num_tiles; /* clips alike */      \
        idx = clip(base + state, g->num_tiles);                                \
    }                                                                          \
    return ((const ELEM *)g->lv)[idx];                                         \
}                                                                              \
/* Whole ROW_JAMs of rows walk each tree together; the rows left over walk    \
   TREE_JAM trees at a time. Every row gains its leaves in ascending tree     \
   order either way. */                                                       \
INLINE void sparse_group_##T(const repro_model *m, const repro_group *g,       \
                             const ELEM *rows, int64_t n, double *out,         \
                             const int W) {                                    \
    const int64_t F = m->num_features, C = m->num_classes;                     \
    const int64_t jammed = n - n % ROW_JAM, trees = g->num_trees;              \
    const ELEM *row[ROW_JAM];                                                  \
    int64_t t[ROW_JAM];                                                        \
    ELEM leaf[ROW_JAM];                                                        \
    for (int64_t ti = 0; ti < trees; ti++) {                                   \
        const int32_t c = g->cls[ti];                                          \
        for (int k = 0; k < ROW_JAM; k++) t[k] = ti;                           \
        for (int64_t r = 0; r < jammed; r += ROW_JAM) {                        \
            for (int k = 0; k < ROW_JAM; k++) row[k] = rows + (r + k) * F;     \
            sparse_##T(m, g, row, t, leaf, ROW_JAM, W);                        \
            for (int k = 0; k < ROW_JAM; k++)                                  \
                out[(r + k) * C + c] += (double)leaf[k];                       \
        }                                                                      \
    }                                                                          \
    for (int64_t r = jammed; r < n; r++) {                                     \
        double *acc = out + r * C;                                             \
        for (int k = 0; k < TREE_JAM; k++) row[k] = rows + r * F;              \
        for (int64_t ti = 0; ti < trees; ti += TREE_JAM) {                     \
            /* past the last tree, lanes walk it again and add nothing */     \
            for (int k = 0; k < TREE_JAM; k++)                                 \
                t[k] = ti + k < trees ? ti + k : trees - 1;                    \
            sparse_##T(m, g, row, t, leaf, TREE_JAM, W);                       \
            for (int k = 0; k < TREE_JAM && ti + k < trees; k++)               \
                acc[g->cls[ti + k]] += (double)leaf[k];                        \
        }                                                                      \
    }                                                                          \
}                                                                              \
INLINE void group_##T(const repro_model *m, const repro_group *g,              \
                      const ELEM *rows, int64_t n, double *out, const int W) { \
    const int64_t F = m->num_features, C = m->num_classes;                     \
    if (g->kind == SPARSE) {                                                   \
        sparse_group_##T(m, g, rows, n, out, W);                               \
        return;                                                                \
    }                                                                          \
    for (int64_t t = 0; t < g->num_trees; t++) {                               \
        double *acc = out + g->cls[t];                                         \
        for (int64_t r = 0; r < n; r++)                                        \
            acc[r * C] += (double)array_##T(m, g, rows + r * F, t, W);         \
    }                                                                          \
}                                                                              \
static int walk_##T(const repro_model *m, const ELEM *rows, int64_t n,         \
                    double *out) {                                             \
    const int64_t F = m->num_features, C = m->num_classes;                     \
    for (int64_t lo = 0; lo < n; lo += ROW_BLOCK) {                            \
        const int64_t nb = n - lo < ROW_BLOCK ? n - lo : ROW_BLOCK;            \
        const ELEM *block = rows + lo * F;                                     \
        double *acc = out + lo * C;                                            \
        for (int64_t gi = 0; gi < m->num_groups; gi++) {                       \
            const repro_group *g = m->groups + gi;                             \
            if (g->kind == CONSTANT) {                                         \
                for (int64_t r = 0; r < nb; r++)                               \
                    for (int64_t c = 0; c < C; c++)                            \
                        acc[r * C + c] += g->constant[c];                      \
                continue;                                                      \
            }                                                                  \
            switch (g->width) {                                                \
            case 1: group_##T(m, g, block, nb, acc, 1); break;                 \
            case 2: group_##T(m, g, block, nb, acc, 2); break;                 \
            case 4: group_##T(m, g, block, nb, acc, 4); break;                 \
            case 8: group_##T(m, g, block, nb, acc, 8); break;                 \
            case 16: group_##T(m, g, block, nb, acc, 16); break;               \
            default: return 1;                                                 \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return 0;                                                                  \
}

DEFINE_WALKERS(f64, double, int64_t)
DEFINE_WALKERS(f32, float, int32_t)

/* out (num_rows, num_classes) float64, pre-filled with the base score, gains
   every tree's leaf: groups in order, trees ascending. Returns 0, or 1 for a
   model the walker is not specialised for (bind refuses those first). */
int repro_walk(const repro_model *m, const void *rows, int64_t num_rows,
               double *out) {
    if (m->elem_size == 8) return walk_f64(m, (const double *)rows, num_rows, out);
    if (m->elem_size == 4) return walk_f32(m, (const float *)rows, num_rows, out);
    return 1;
}
"""


# ----------------------------------------------------------------------
# Building and loading the walker library
# ----------------------------------------------------------------------

class _Library:
    """The loaded walker: its entry point, where it lives, what it cost."""

    def __init__(self, path: Path, build_s: float) -> None:
        self.path = path
        #: seconds ``gcc`` ran in this process (0.0: the cached file loaded)
        self.build_s = build_s
        self.handle = ctypes.CDLL(str(path))
        self.walk = self.handle.repro_walk
        self.walk.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        ]
        self.walk.restype = ctypes.c_int
        self.handle.repro_isa.restype = ctypes.c_int
        #: the tile compare the preprocessor kept: "avx512", "avx2" or "scalar"
        self.isa = ISA_PATHS[self.handle.repro_isa()]


_lock = threading.Lock()
#: this process's walker, or the reason it has none; decided on first use so
#: that neither a ``dlopen`` nor a failing ``gcc`` repeats per compile
_library: _Library | None = None
_unavailable: str | None = None


def reset() -> None:
    """Forget the loaded library and any recorded failure (tests)."""
    global _library, _unavailable
    with _lock:
        _library = _unavailable = None


def cache_dir() -> Path:
    """This user's directory of built walkers."""
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _checked_cache_dir() -> Path:
    """:func:`cache_dir`, created 0700 if absent, refused unless it is a real
    directory this user owns that nobody else can write: a shared object
    loaded from it runs with this process's privileges."""
    path = cache_dir()
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError as exc:
        raise BackendError(
            f"cannot create the native cache directory {path}: {exc}"
        ) from exc
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode):
        raise BackendError(f"native cache path {path} is not a directory")
    if info.st_uid != os.geteuid():
        raise BackendError(f"native cache directory {path} is owned by uid {info.st_uid}")
    if info.st_mode & 0o022:
        raise BackendError(
            f"native cache directory {path} is group- or world-writable "
            f"(mode {stat.S_IMODE(info.st_mode):o})"
        )
    return path


def _cpu_model() -> str:
    """What ``-march=native`` specialises for: model name and feature flags."""
    try:
        with open("/proc/cpuinfo") as fh:
            lines = fh.read().split("\n\n", 1)[0].splitlines()
    except OSError:
        lines = []
    wanted = ("model name", "flags", "Features")
    return "\n".join(
        [platform.machine(), *(ln for ln in lines if ln.split(":")[0].strip() in wanted)]
    )


def _compiler() -> tuple[str, str]:
    """``(path, version)`` of the C compiler; :class:`BackendError` without one."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise BackendError("no C compiler: gcc is not on PATH")
    try:
        probe = subprocess.run(
            [gcc, "-dumpfullversion", "-dumpversion"],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BackendError(f"{gcc} does not run: {exc}") from exc
    if probe.returncode != 0:
        raise BackendError(f"{gcc} -dumpversion failed: {probe.stderr.strip()[:200]}")
    return gcc, probe.stdout.strip()


def _build(gcc: str, target: Path) -> float:
    """Compile :data:`WALKER_SOURCE` to ``target``; returns gcc's seconds.

    The compiler writes a temporary file beside ``target`` and the finished
    object is renamed over it, so a concurrent builder or a crash leaves
    either no file or a whole one. The source goes in on stdin: nothing but
    the temporary object ever exists, and it is removed on every path.
    """
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    started = time.perf_counter()
    try:
        try:
            done = subprocess.run(
                [gcc, *FLAGS, "-x", "c", "-", "-o", tmp],
                input=WALKER_SOURCE, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BackendError(f"{gcc} did not finish: {exc}") from exc
        if done.returncode != 0:
            raise BackendError(
                f"{gcc} {' '.join(FLAGS)} failed ({done.returncode}): "
                f"{done.stderr.strip()[-400:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return time.perf_counter() - started


def load_library(stats: dict | None = None) -> _Library:
    """This process's walker library, built first if this machine has none.

    Raises :class:`~repro.errors.BackendError` — and remembers why, so the
    next compile does not probe again — without a compiler, when the build
    fails, or when the cache directory cannot be trusted. ``stats`` (a
    compile-trace span's) receives ``native_build_s``, ``native_cache_hit``
    and ``native_isa`` from the call that loads the library; the registry's
    ``backends.native.isa`` keeps the last.
    """
    global _library, _unavailable
    with _lock:
        if _library is not None:
            return _library
        if _unavailable is not None:
            raise BackendError(_unavailable)
        try:
            gcc, version = _compiler()
            directory = _checked_cache_dir()
            key = hashlib.sha256(
                "\0".join([WALKER_SOURCE, version, " ".join(FLAGS), _cpu_model()]).encode()
            ).hexdigest()
            target = directory / f"walker-{key[:32]}.so"
            build_s = 0.0
            if not target.exists():
                build_s = _build(gcc, target)
            library = _Library(target, build_s)
        except BackendError as exc:
            _unavailable = str(exc)
            raise
        except OSError as exc:  # dlopen refused the file
            _unavailable = f"native walker library failed to load: {exc}"
            raise BackendError(_unavailable) from exc
        _library = library
    observe_registry.record_backend_info("native", "isa", library.isa)
    if stats is not None:
        stats["native_build_s"] = round(library.build_s, 6)
        stats["native_cache_hit"] = library.build_s == 0.0
        stats["native_isa"] = library.isa
    return library


# ----------------------------------------------------------------------
# The emitted stub and what it binds
# ----------------------------------------------------------------------

_GROUP_EXTENTS = ("kind", "width", "arity", "num_trees", "tiles", "num_tiles", "num_leaves")
_GROUP_POINTERS = (
    "th", "fi", "sid", "cb", "lv", "lane_tiles", "lane_leaves", "cls", "constant",
)


class _Group(ctypes.Structure):
    """``repro_group`` of :data:`WALKER_SOURCE`, field for field."""

    _fields_ = [(name, ctypes.c_int64) for name in _GROUP_EXTENTS] + [
        (name, ctypes.c_void_p) for name in _GROUP_POINTERS
    ]


class _Model(ctypes.Structure):
    """``repro_model`` of :data:`WALKER_SOURCE`, field for field."""

    _fields_ = [
        ("groups", ctypes.c_void_p),
        ("num_groups", ctypes.c_int64),
        ("lut", ctypes.c_void_p),
        ("lut_len", ctypes.c_int64),
        ("lut_cols", ctypes.c_int64),
        ("elem_size", ctypes.c_int64),
        ("num_features", ctypes.c_int64),
        ("num_classes", ctypes.c_int64),
    ]


_KINDS = {"sparse": 0, "array": 1, "const": 2}


def emit_stub_source(lir) -> str:
    """The ``predict_block`` stub for ``lir``: the facts :func:`bind` cannot
    read off the namespace arrays, as literals."""
    groups = []
    for group in lir.groups:
        layout = group.layout
        if group.trivial:
            groups.append(("const", group.group_id, 0))
            continue
        if layout.kind == "sparse" and bool(layout.root_leaf.any()):
            raise CodegenError("single-leaf tree in a non-trivial group")
        groups.append((layout.kind, group.group_id, layout.tile_size + 1))
    lines = [
        '"""Generated by repro.backend.native — do not edit."""',
        "from repro.backend.native import bind as _bind",
        "# the group table points into this namespace's model buffers; the walk",
        "# is one foreign call that releases the GIL and needs no scratch arena",
        "_walk = _bind(",
        "    globals(),",
        f"    precision={lir.schedule.precision!r},",
        f"    num_features={lir.num_features},",
        f"    num_classes={lir.num_classes},",
        f"    lut_cols={lir.lut.shape[1]},",
        "    groups=(",
        *(f"        {entry!r},  # (layout, group id, tile arity)" for entry in groups),
        "    ),",
        ")",
        "def predict_block(rows, out, arena=None):",
        "    return _walk(rows, out)",
    ]
    return "\n".join(lines) + "\n"


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise BackendError(f"native bind refused the model buffers: {what}")


def _buffer(ns: dict, name: str, dtype, ndim: int) -> np.ndarray:
    array = ns.get(name)
    _require(isinstance(array, np.ndarray), f"{name} is missing")
    _require(
        array.dtype == dtype and array.ndim == ndim and array.flags.c_contiguous,
        f"{name} is {array.dtype}{array.shape}, "
        f"want C-contiguous {np.dtype(dtype)} of rank {ndim}",
    )
    return array


def _in_range(name: str, array: np.ndarray, lo: int, hi: int) -> None:
    """Every element of ``array`` lies in ``[lo, hi)``."""
    if array.size:
        _require(
            lo <= int(array.min()) and int(array.max()) < hi,
            f"{name} has values outside [{lo}, {hi})",
        )


def bind(
    ns: dict, *, precision: str, num_features: int, num_classes: int, lut_cols: int, groups
):
    """Pack ``ns``'s model buffers into a group table; returns ``walk(rows, out)``.

    Runs when a stub executes — once per in-process build, artifact load or
    shared-memory attach. Every index the model supplies is range-checked
    here, vectorised, so the walker only clamps what the input steers;
    a violation is a :class:`~repro.errors.BackendError`. The returned
    closure keeps the bound arrays and the table alive for as long as the
    kernel that holds their addresses.
    """
    library = load_library()
    info = PRECISION_TABLE.get(precision)
    _require(info is not None and not info.quantized,
             f"precision {precision!r} is not covered")
    elem, fidx = np.dtype(info.element_dtype), np.dtype(info.findex_dtype)
    lut = _buffer(ns, "lut", np.int64, 1)
    _require(lut_cols >= 1 and lut.size >= lut_cols and lut.size % lut_cols == 0,
             f"lut of {lut.size} entries is not rows of {lut_cols}")
    lut_rows = lut.size // lut_cols
    keep: list[np.ndarray] = [lut]

    def address(array: np.ndarray) -> int:
        keep.append(array)
        return array.ctypes.data

    table = (_Group * max(1, len(groups)))()
    for entry, (kind, gid, arity) in zip(table, groups):
        g = f"g{gid}"
        _require(kind in _KINDS, f"{g} has unknown layout {kind!r}")
        entry.kind = _KINDS[kind]
        if kind == "const":
            constant = _buffer(ns, f"{g}_const", np.float64, 1)
            _require(constant.size == num_classes, f"{g}_const is not one value per class")
            entry.constant = address(constant)
            continue
        th = _buffer(ns, f"{g}_th", elem, 2)
        num_tiles, width = th.shape
        fi = _buffer(ns, f"{g}_fi", fidx, 2)
        sid = _buffer(ns, f"{g}_sid", np.int64, 1)
        lane_tiles = _buffer(ns, f"{g}_laneT", np.int64, 1)
        onehot = _buffer(ns, f"{g}_oh", elem, 2)
        num_trees = lane_tiles.size
        _require(width in LANE_WIDTHS and lut_cols >= 1 << width,
                 f"{g} tiles are {width} lanes wide against LUT rows of {lut_cols}")
        _require(num_trees >= 1 and num_tiles >= num_trees and num_tiles % num_trees == 0,
                 f"{g} holds {num_tiles} tiles for {num_trees} trees")
        tiles = num_tiles // num_trees
        _require(fi.shape == th.shape and sid.size == num_tiles,
                 f"{g} tile buffers disagree on their extent")
        _require(np.array_equal(lane_tiles, np.arange(num_trees) * tiles),
                 f"{g}_laneT is not the trees' tile offsets")
        _require(onehot.shape == (num_trees, num_classes), f"{g}_oh is not (trees, classes)")
        _in_range(f"{g}_fi", fi, 0, num_features)
        classes = np.ascontiguousarray(onehot.argmax(axis=1), dtype=np.int32)
        if kind == "sparse":
            lv = _buffer(ns, f"{g}_lv", elem, 1)
            cb = _buffer(ns, f"{g}_cb", np.int64, 1)
            lane_leaves = _buffer(ns, f"{g}_laneL", np.int64, 1)
            _require(lv.size >= num_trees and lv.size % num_trees == 0,
                     f"{g} holds {lv.size} leaves for {num_trees} trees")
            leaves = lv.size // num_trees
            _require(cb.size == num_tiles, f"{g}_cb disagrees with the tile extent")
            _require(np.array_equal(lane_leaves, np.arange(num_trees) * leaves),
                     f"{g}_laneL is not the trees' leaf offsets")
            _in_range(f"{g}_sid", sid, 0, lut_rows)
            _in_range(f"{g}_cb", cb, -leaves, tiles)
            entry.cb, entry.lane_leaves = address(cb), address(lane_leaves)
        else:
            lv = _buffer(ns, f"{g}_lv", elem, 1)
            _require(lv.size == num_tiles, f"{g}_lv is not one value per slot")
            _require(arity >= 2, f"{g} has tile arity {arity}")
            # negative shape ids mark leaf and empty slots
            _in_range(f"{g}_sid", sid, -2, lut_rows)
        entry.width, entry.arity, entry.num_trees = width, arity, num_trees
        entry.tiles, entry.num_tiles, entry.num_leaves = tiles, num_tiles, lv.size
        entry.th, entry.fi, entry.sid = address(th), address(fi), address(sid)
        entry.lv, entry.lane_tiles = address(lv), address(lane_tiles)
        entry.cls = address(classes)

    model = _Model(
        ctypes.addressof(table), len(groups), lut.ctypes.data, lut.size, lut_cols,
        elem.itemsize, num_features, num_classes,
    )
    model_address = ctypes.addressof(model)
    call, f64 = library.walk, np.dtype(np.float64)

    def walk(rows, out):
        n = rows.shape[0]
        if not (
            rows.dtype == elem and rows.ndim == 2 and rows.shape[1] == num_features
            and rows.flags.c_contiguous and out.dtype == f64
            and out.shape == (n, num_classes) and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ExecutionError(
                f"native kernel wants C-contiguous {elem} rows (n, {num_features}) and "
                f"a float64 out (n, {num_classes}); got {rows.dtype}{rows.shape} and "
                f"{out.dtype}{out.shape}"
            )
        if call(model_address, rows.ctypes.data, n, out.ctypes.data):
            raise ExecutionError("native walker refused the bound model")
        return out

    # the addresses above stay valid while these live
    walk.keepalive = (keep, table, model, library)
    return walk


# ----------------------------------------------------------------------
# The registered backend
# ----------------------------------------------------------------------

def uncovered(schedule) -> str | None:
    """Why the generic walker does not run ``schedule`` (``None``: it does)."""
    if PRECISION_TABLE[schedule.precision].quantized:
        return f"precision={schedule.precision}: the integer kernels are NumPy's"
    if schedule.profile:
        return "profile=True: the counters live in the NumPy source"
    if schedule.pgo is not None:
        return f"pgo={schedule.pgo}: hot-prefix splitting is a NumPy emission"
    if not schedule.compact_walks:
        return "compact_walks=False ablates the NumPy loop"
    return None


class NativeBackend(Backend):
    """Walk the tiles in C: one foreign call per ``predict_block``."""

    name = "native"
    #: the walker's loop nest and jams are fixed constants, so these shape
    #: only the NumPy emission (pinned by ``test_native_ignored_fields``)
    ignored_fields = ("interleave", "peel_walk", "loop_order")

    def unavailable(self, schedule, stats: dict | None = None) -> str | None:
        reason = uncovered(schedule)
        if reason is None:
            try:
                load_library(stats)
            except BackendError as exc:
                reason = str(exc)
        return reason

    def build(self, forest, lir, *, validate_inputs=True, trace=None) -> Predictor:
        reason = self.unavailable(lir.schedule)
        if reason is not None:
            raise BackendError(f"backend 'native' cannot build this schedule: {reason}")
        predictor = Predictor(
            forest, lir, validate_inputs=validate_inputs, trace=trace, emit=emit_stub_source
        )
        predictor.backend_name = self.name
        return predictor
