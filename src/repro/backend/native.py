"""The native backend: one generic C tile-walker, one CPython call per request.

Treebeard's last lowering step JITs the LIR walk to machine code; the NumPy
backend substitutes ≈ 175 interpreter dispatches per 1-row request for it.
This backend walks the same tiles in C. Three pieces live here:

* :data:`WALKER_SOURCE` — one model-independent C file, built as a CPython
  extension module. ``static inline`` walkers for the sparse and array
  layouts, specialised by constant propagation on the padded lane width
  {1, 2, 4, 8, 16} and the element type {float64, float32}, behind one
  ``METH_FASTCALL`` entry point ``predict(model, rows, out, base,
  validate)``. ``model`` is a capsule over a packed group table (per group:
  buffer pointers, extents, class ids, layout kind) plus the LUT, made once
  by the module's ``model(table, owner)``; it points into the arrays
  :func:`~repro.backend.codegen.model_buffers` already builds — no second
  copy of the model exists. The entry takes rows and output through the
  buffer protocol, checks their element type, rank, width and layout,
  refuses NaN rows when asked, fills the base score when asked and walks
  with the GIL released; it returns a code, and a refused buffer or NaN
  writes nothing.
* :func:`load_library` — builds that file once per machine with
  ``gcc -O3 -march=native`` (never ``-ffast-math``: NaN and ±inf must compare
  as IEEE says) against this interpreter's ``Python.h`` into a per-user
  cache directory, keyed by sha256(source, compiler version, flags, CPU
  model, ``EXT_SUFFIX``, include directory), via temp file + atomic rename;
  every later process loads the module by path. Without a compiler or
  without the headers, native is unavailable and says why.
* :func:`emit_stub_source` / :func:`bind` — the backend still *emits Python
  source*: a stub whose module level binds the group table from its own
  namespace and whose ``predict_block(rows, out, arena=None)`` calls the
  entry. The code cache and both stores of a model image (an AOT
  artifact's ``kernel.py``, the shared-memory manifest) therefore carry a
  native kernel unchanged, and every path that executes a stub — in-process
  build, ``load_artifact``, ``attach_shared``, all through
  :func:`~repro.backend.jit.bind_kernel` — runs the same bind-time
  validation. An executor over such a stub
  (:class:`~repro.backend.predictor.KernelExecutor`) calls the entry itself:
  a request is ``np.empty`` plus one call.

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
module's ``isa()`` (the ``native_isa`` compile stat). Other widths
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

import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import shutil
import stat
import subprocess
import sysconfig
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

#: the extension module's name: its init function is ``PyInit__repro_walker``
MODULE_NAME = "_repro_walker"

#: the walker's tile-compare paths, indexed by what the module's ``isa()`` returns
ISA_PATHS = ("scalar", "avx2", "avx512")

WALKER_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#if defined(__AVX2__)
#include <immintrin.h>
#endif

enum { SPARSE = 0, ARRAY = 1, CONSTANT = 2 };
/* what predict() returns */
enum { WALKED = 0, REFUSED_BUFFERS = 1, REFUSED_NAN = 2, REFUSED_MODEL = 3 };

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
            default: return REFUSED_MODEL;                                     \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return WALKED;                                                             \
}

DEFINE_WALKERS(f64, double, int64_t)
DEFINE_WALKERS(f32, float, int32_t)

/* The whole request, without the GIL: refuse NaN when asked, fill out with
   the base score when asked, then add every tree's leaf — groups in order,
   trees ascending. */
static int run(const repro_model *m, const void *rows, int64_t n, double *out,
               int fill, double base, int validate) {
    const int64_t cells = n * m->num_features;
    if (validate) {
        int nan = 0;
        if (m->elem_size == 8) {
            const double *x = rows;
            for (int64_t i = 0; i < cells; i++) nan |= x[i] != x[i];
        } else {
            const float *x = rows;
            for (int64_t i = 0; i < cells; i++) nan |= x[i] != x[i];
        }
        if (nan) return REFUSED_NAN;
    }
    if (fill)
        for (int64_t i = 0; i < n * m->num_classes; i++) out[i] = base;
    return m->elem_size == 8 ? walk_f64(m, (const double *)rows, n, out)
                             : walk_f32(m, (const float *)rows, n, out);
}

/* a buffer of the native element type 'd' or 'f' ('<d', '>d' and '=d'
   are refused alike); a format that starts so has items of at least that
   size, so reading n * width elements stays inside the buffer */
static int is_elem(const Py_buffer *v, char code) {
    return v->format != NULL && v->format[0] == code;
}

/* predict(model, rows, out, base, validate) -> int

   model is a capsule from model(); rows a C-contiguous (n, num_features)
   buffer of the model's element type; out a writable C-contiguous float64
   buffer of shape (n, num_classes), or (n,) when num_classes is 1. base is
   a float to fill out with first, or None to add to what out holds.
   validate refuses NaN rows. Returns WALKED or why the request was
   refused: REFUSED_BUFFERS and REFUSED_NAN write nothing. */
static PyObject *predict(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "predict() takes 5 arguments (%zd given)", nargs);
        return NULL;
    }
    const repro_model *m = PyCapsule_GetPointer(args[0], "repro_model");
    if (m == NULL) return NULL;
    const int fill = args[3] != Py_None;
    const double base = fill ? PyFloat_AsDouble(args[3]) : 0.0;
    if (fill && base == -1.0 && PyErr_Occurred()) return NULL;
    const int validate = PyObject_IsTrue(args[4]);
    if (validate < 0) return NULL;
    Py_buffer rows, out;
    if (PyObject_GetBuffer(args[1], &rows, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        return PyLong_FromLong(REFUSED_BUFFERS);
    }
    if (PyObject_GetBuffer(args[2], &out, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyBuffer_Release(&rows);
        return PyLong_FromLong(REFUSED_BUFFERS);
    }
    int code = REFUSED_BUFFERS;
    const Py_ssize_t n = rows.ndim == 2 ? rows.shape[0] : -1;
    if (n >= 0 && rows.shape[1] == m->num_features
        && is_elem(&rows, m->elem_size == 4 ? 'f' : 'd')
        && PyBuffer_IsContiguous(&rows, 'C')
        && !out.readonly && is_elem(&out, 'd') && PyBuffer_IsContiguous(&out, 'C')
        && ((out.ndim == 2 && out.shape[0] == n && out.shape[1] == m->num_classes)
            || (out.ndim == 1 && out.shape[0] == n && m->num_classes == 1))) {
        Py_BEGIN_ALLOW_THREADS
        code = run(m, rows.buf, n, (double *)out.buf, fill, base, validate);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&rows);
    return PyLong_FromLong(code);
}

/* A capsule's hold on the packed model: the table buffer and the object
   that keeps the model buffers it points into alive. */
typedef struct {
    Py_buffer table;
    PyObject *owner;
} holder;

static void release(PyObject *capsule) {
    holder *h = PyCapsule_GetContext(capsule);
    PyBuffer_Release(&h->table);
    Py_DECREF(h->owner);
    PyMem_Free(h);
}

/* model(table, owner) -> capsule

   table is a writable C-contiguous int64 buffer: one repro_model of element
   size 4 or 8, then its num_groups repro_groups; the model's groups pointer
   is set here. The capsule keeps table and owner alive. */
static PyObject *model(PyObject *module, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "model() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    holder *h = PyMem_Calloc(1, sizeof *h);
    if (h == NULL) return PyErr_NoMemory();
    if (PyObject_GetBuffer(args[0], &h->table, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0) {
        PyMem_Free(h);
        return NULL;
    }
    repro_model *m = h->table.buf;
    /* the groups' bytes: a whole number of groups, never negative, before
       the header is read */
    const Py_ssize_t tail = h->table.len - (Py_ssize_t)sizeof *m;
    if (h->table.itemsize != 8 || tail % (Py_ssize_t)sizeof(repro_group) != 0
        || m->num_groups != tail / (Py_ssize_t)sizeof(repro_group)
        || (m->elem_size != 4 && m->elem_size != 8)) {
        PyBuffer_Release(&h->table);
        PyMem_Free(h);
        PyErr_SetString(PyExc_ValueError, "model() wants one repro_model and its groups, packed");
        return NULL;
    }
    m->groups = (const repro_group *)(m + 1);
    Py_INCREF(args[1]);
    h->owner = args[1];
    PyObject *capsule = PyCapsule_New(m, "repro_model", NULL);
    if (capsule == NULL || PyCapsule_SetContext(capsule, h) < 0
        || PyCapsule_SetDestructor(capsule, release) < 0) {
        Py_XDECREF(capsule);
        PyBuffer_Release(&h->table);
        Py_DECREF(h->owner);
        PyMem_Free(h);
        return NULL;
    }
    return capsule;
}

/* which compare the preprocessor kept: 2 AVX-512, 1 AVX2, 0 scalar */
static PyObject *isa(PyObject *module, PyObject *unused) {
    return PyLong_FromLong(REPRO_ISA);
}

static int exec_module(PyObject *module) {
    return PyModule_AddIntConstant(module, "WALKED", WALKED)
        || PyModule_AddIntConstant(module, "REFUSED_BUFFERS", REFUSED_BUFFERS)
        || PyModule_AddIntConstant(module, "REFUSED_NAN", REFUSED_NAN)
        || PyModule_AddIntConstant(module, "REFUSED_MODEL", REFUSED_MODEL) ? -1 : 0;
}

static PyMethodDef methods[] = {
    {"predict", (PyCFunction)(void (*)(void))predict, METH_FASTCALL,
     "predict(model, rows, out, base, validate) -> int"},
    {"model", (PyCFunction)(void (*)(void))model, METH_FASTCALL,
     "model(table, owner) -> capsule"},
    {"isa", isa, METH_NOARGS, "isa() -> 0 scalar, 1 AVX2, 2 AVX-512"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_repro_walker",
    .m_doc = "The native tile walker.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__repro_walker(void) { return PyModuleDef_Init(&definition); }
"""


# ----------------------------------------------------------------------
# Building and loading the walker library
# ----------------------------------------------------------------------

class _Library:
    """The loaded walker module: where it lives, what it cost."""

    def __init__(self, path: Path, build_s: float) -> None:
        self.path = path
        #: seconds ``gcc`` ran in this process (0.0: the cached file loaded)
        self.build_s = build_s
        # loaded by path, never through sys.modules: the module's init is
        # multi-phase, so after a reset() another build loads beside it
        loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(path))
        spec = importlib.util.spec_from_file_location(MODULE_NAME, path, loader=loader)
        self.module = importlib.util.module_from_spec(spec)
        loader.exec_module(self.module)
        #: the tile compare the preprocessor kept: "avx512", "avx2" or "scalar"
        self.isa = ISA_PATHS[self.module.isa()]


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


def _python_include() -> str:
    """The directory holding this interpreter's ``Python.h``."""
    return sysconfig.get_paths()["include"]


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


def _build(gcc: str, include: str, target: Path) -> float:
    """Compile :data:`WALKER_SOURCE` against the headers in ``include`` to
    the extension module ``target``; returns gcc's seconds.

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
                [gcc, *FLAGS, f"-I{include}", "-x", "c", "-", "-o", tmp],
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
    """This process's walker module, built first if this machine has none.

    Raises :class:`~repro.errors.BackendError` — and remembers why, so the
    next compile does not probe again — without a compiler, without
    ``Python.h``, when the build fails, or when the cache directory cannot be
    trusted. ``stats`` (a compile-trace span's) receives ``native_build_s``,
    ``native_cache_hit`` and ``native_isa`` from the call that loads the
    module; the registry's ``backends.native.isa`` keeps the last.
    """
    global _library, _unavailable
    with _lock:
        if _library is not None:
            return _library
        if _unavailable is not None:
            raise BackendError(_unavailable)
        try:
            gcc, version = _compiler()
            include = _python_include()
            if not os.path.isfile(os.path.join(include, "Python.h")):
                raise BackendError(
                    f"no Python headers: {include}/Python.h is missing "
                    "(install this interpreter's development headers)"
                )
            directory = _checked_cache_dir()
            suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
            key = hashlib.sha256("\0".join([
                WALKER_SOURCE, version, " ".join(FLAGS), _cpu_model(), suffix, include,
            ]).encode()).hexdigest()
            target = directory / f"walker-{key[:32]}{suffix}"
            build_s = 0.0
            if not target.exists():
                build_s = _build(gcc, include, target)
            library = _Library(target, build_s)
        except BackendError as exc:
            _unavailable = str(exc)
            raise
        except (ImportError, OSError) as exc:  # dlopen or the module's init refused it
            _unavailable = f"native walker module failed to load: {exc}"
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

#: ``repro_model`` of :data:`WALKER_SOURCE`, field for field, as int64s;
#: the module's ``model()`` sets the groups pointer
_MODEL_FIELDS = (
    "groups", "num_groups", "lut", "lut_len", "lut_cols", "elem_size",
    "num_features", "num_classes",
)
#: ``repro_group`` likewise: extents, then pointers
_GROUP_FIELDS = (
    "kind", "width", "arity", "num_trees", "tiles", "num_tiles", "num_leaves",
    "th", "fi", "sid", "cb", "lv", "lane_tiles", "lane_leaves", "cls", "constant",
)


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


def _describe(x) -> str:
    return f"{x.dtype}{x.shape}" if isinstance(x, np.ndarray) else type(x).__name__


def bind(
    ns: dict, *, precision: str, num_features: int, num_classes: int, lut_cols: int, groups
):
    """Pack ``ns``'s model buffers into a group table; returns ``walk(rows, out)``.

    Runs when a stub executes — once per in-process build, artifact load or
    shared-memory attach. Every index the model supplies is range-checked
    here, vectorised, so the walker only clamps what the input steers;
    a violation is a :class:`~repro.errors.BackendError`. The table goes to
    the walker module as a capsule that also holds the bound arrays, so the
    addresses packed into it stay valid for as long as a kernel holds it.

    ``walk(rows, out)`` is ``predict_block``'s contract: it adds every tree's
    leaves into ``out``, which already holds the base score, and refuses
    rows or an output of the wrong dtype, shape or layout. Its ``entry`` and
    ``model`` attributes are the module's ``predict`` and the capsule, which
    an executor calls directly: one call per request.
    """
    module = load_library().module
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
        return array.__array_interface__["data"][0]

    header = dict(
        num_groups=len(groups), lut=address(lut), lut_len=lut.size, lut_cols=lut_cols,
        elem_size=elem.itemsize, num_features=num_features, num_classes=num_classes,
    )
    packed: list[dict] = []
    for kind, gid, arity in groups:
        g = f"g{gid}"
        _require(kind in _KINDS, f"{g} has unknown layout {kind!r}")
        group = dict(kind=_KINDS[kind])
        packed.append(group)
        if kind == "const":
            constant = _buffer(ns, f"{g}_const", np.float64, 1)
            _require(constant.size == num_classes, f"{g}_const is not one value per class")
            group["constant"] = address(constant)
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
            group.update(cb=address(cb), lane_leaves=address(lane_leaves))
        else:
            lv = _buffer(ns, f"{g}_lv", elem, 1)
            _require(lv.size == num_tiles, f"{g}_lv is not one value per slot")
            _require(arity >= 2, f"{g} has tile arity {arity}")
            # negative shape ids mark leaf and empty slots
            _in_range(f"{g}_sid", sid, -2, lut_rows)
        group.update(
            width=width, arity=arity, num_trees=num_trees, tiles=tiles,
            num_tiles=num_tiles, num_leaves=lv.size, th=address(th), fi=address(fi),
            sid=address(sid), lv=address(lv), lane_tiles=address(lane_tiles),
            cls=address(classes),
        )

    table = np.array(
        [header.get(name, 0) for name in _MODEL_FIELDS]
        + [group.get(name, 0) for group in packed for name in _GROUP_FIELDS],
        dtype=np.int64,
    )
    # the capsule holds the table and, through ``keep``, every array it points into
    entry, model = module.predict, module.model(table, tuple(keep))
    refused_model = module.REFUSED_MODEL

    def walk(rows, out):
        code = entry(model, rows, out, None, False)
        if code == refused_model:
            raise ExecutionError("native walker refused the bound model")
        if code:
            raise ExecutionError(
                f"native kernel wants C-contiguous {elem} rows (n, {num_features}) and a "
                f"writable C-contiguous float64 out (n, {num_classes}); got "
                f"{_describe(rows)} and {_describe(out)}"
            )
        return out

    walk.entry, walk.model = entry, model
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
    """Walk the tiles in C: one CPython call per request."""

    name = "native"
    #: the walker's loop nest, jams and row blocking (``ROW_BLOCK``) are
    #: fixed constants and a request is one call, so these shape only the
    #: NumPy emission and executor (pinned by ``test_native_ignored_fields``)
    ignored_fields = ("interleave", "peel_walk", "loop_order", "row_block")

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
