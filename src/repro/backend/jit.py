"""JIT compilation of generated inference source.

``compile_lir`` emits source for an LIR module and hands it, with the
module's :func:`~repro.backend.codegen.model_buffers`, to :func:`bind_kernel`:
the one place a kernel source meets its buffers and runtime globals, for an
in-process compile, an AOT load and a shared-memory attach alike. The source
is compiled with the built-in :func:`compile` (our stand-in for the LLVM
JIT) and executed in that namespace. Code objects are cached by source
text, so models that lower to identical code (e.g. the same schedule on
isomorphic models) share compilation work — the payoff of tree reordering's
code sharing, at the module level.

The cache is a bounded, thread-safe LRU: a long-lived server compiling many
distinct models must not grow it without limit. The serving layer
(:mod:`repro.serve`) keys whole predictors one level up by
:func:`model_fingerprint`, a stable hash of the forest structure plus the
schedule, so re-registering an isomorphic model is a cache hit before any
lowering happens.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.backend.codegen import emit_module_source, model_buffers
from repro.errors import CodegenError
from repro.lir.ir import LIRModule
from repro.lir.memory import ArenaSpec, ScratchArena, arena_spec
from repro.observe.profile import ProfileRecorder
from repro.observe.trace import CompilationTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.config import Schedule
    from repro.forest.ensemble import Forest

#: Default bound on distinct compiled sources kept alive.
DEFAULT_CODE_CACHE_CAP = 256

_CODE_CACHE: "OrderedDict[str, object]" = OrderedDict()
_CACHE_CAP = DEFAULT_CODE_CACHE_CAP
_CACHE_LOCK = threading.Lock()


def compile_source(source: str, namespace: dict) -> tuple[Callable, bool]:
    """Compile ``source``; returns ``(predict_block, cache_hit)``.

    The hit flag is decided by the initial lookup, not by observing the
    cache size: once the LRU is at capacity an insert+evict leaves the
    size unchanged, and concurrent compiles shift it arbitrarily — both
    previously mis-reported misses as hits.
    """
    with _CACHE_LOCK:
        code = _CODE_CACHE.get(source)
        hit = code is not None
        if hit:
            _CODE_CACHE.move_to_end(source)
    if code is None:
        try:
            code = compile(source, filename="<repro-jit>", mode="exec")
        except SyntaxError as exc:  # codegen bug: surface the source context
            raise CodegenError(f"generated source failed to compile: {exc}") from exc
        with _CACHE_LOCK:
            # A concurrent compile of the same source may have inserted
            # meanwhile; keep one canonical code object, but still report
            # a miss — this thread paid for the compilation.
            existing = _CODE_CACHE.get(source)
            if existing is not None:
                code = existing
            else:
                _CODE_CACHE[source] = code
                while len(_CODE_CACHE) > _CACHE_CAP:
                    _CODE_CACHE.popitem(last=False)
            _CODE_CACHE.move_to_end(source)
    exec(code, namespace)
    fn = namespace.get("predict_block")
    if fn is None:
        raise CodegenError("generated source did not define predict_block")
    return fn, hit


def bind_kernel(
    source: str,
    buffers: dict,
    arena: ArenaSpec,
    recorder: ProfileRecorder | None = None,
) -> tuple[Callable, bool]:
    """Bind ``source`` to a model's ``buffers``; returns ``(predict_block, cache_hit)``.

    The namespace is the buffers plus the runtime globals a kernel reads:
    ``_np``, ``_new_arena`` (the scratch factory for direct kernel calls,
    sized by ``arena``) and, for a profiling kernel, ``_P``, its
    ``recorder``.
    """
    namespace = dict(buffers)
    namespace["_np"] = np
    namespace["_new_arena"] = lambda: ScratchArena(arena)
    if recorder is not None:
        # The kernel's `_C = _P.local()` resolves against the recorder as a
        # weak proxy, while the executor holds the strong reference: exec()
        # installs predict_block into this namespace, closing a
        # namespace<->function cycle that only gc breaks, and a strong `_P`
        # would keep an evicted executor's counters visible in
        # aggregate_all() until that collection ran. With the proxy, the
        # recorder dies by refcount with its executor.
        namespace["_P"] = weakref.proxy(recorder)
    return compile_source(source, namespace)


def compile_lir(
    lir: LIRModule,
    trace: CompilationTrace | None = None,
    profile_recorder: ProfileRecorder | None = None,
    emit: Callable[[LIRModule], str] = emit_module_source,
) -> tuple[Callable, str]:
    """Emit + compile ``lir``; returns ``(predict_block, source)``.

    ``trace`` gets one span per backend stage (source emission, buffer
    materialization, bytecode compile); ``profile_recorder`` is bound as
    the kernel's ``_P`` and must be given when the schedule enables
    profiling. ``emit`` is the backend's source emitter: whatever text it
    returns defines ``predict_block`` against the :func:`model_buffers`.
    """
    trace = trace or CompilationTrace()
    with trace.span("codegen-emit") as span:
        source = emit(lir)
        span.stats["source_lines"] = source.count("\n")
        span.stats["source_bytes"] = len(source)
    with trace.span("codegen-namespace") as span:
        buffers = model_buffers(lir)
        span.stats["num_buffers"] = len(buffers)
    with trace.span("jit-compile") as span:
        kernel, hit = bind_kernel(source, buffers, arena_spec(lir), profile_recorder)
        span.stats["code_cache_hit"] = hit
    return kernel, source


def cache_size() -> int:
    """Number of distinct compiled sources (for tests/diagnostics)."""
    with _CACHE_LOCK:
        return len(_CODE_CACHE)


def cache_limit() -> int:
    """Current bound on the code cache."""
    return _CACHE_CAP


def set_cache_limit(cap: int) -> int:
    """Set the LRU bound; returns the previous bound.

    Shrinking below the current population evicts least-recently-used
    entries immediately.
    """
    global _CACHE_CAP
    if cap < 1:
        raise ValueError(f"cache limit must be >= 1, got {cap}")
    with _CACHE_LOCK:
        previous, _CACHE_CAP = _CACHE_CAP, cap
        while len(_CODE_CACHE) > _CACHE_CAP:
            _CODE_CACHE.popitem(last=False)
    return previous


def clear_cache() -> None:
    """Drop every cached code object (tests/benchmark hygiene)."""
    with _CACHE_LOCK:
        _CODE_CACHE.clear()


#: the per-node arrays of a tree, in hashing order
_TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "node_probability")


def model_fingerprint(forest: "Forest", schedule: "Schedule | None" = None) -> str:
    """Stable content hash of ``forest`` (and optionally ``schedule``): the
    one identity of a compiled executor.

    Two forests with identical structure and parameters — e.g. one
    serialized and re-loaded, or re-trained deterministically — produce the
    same fingerprint, so a predictor cache keyed on it turns re-registration
    into a cache hit without lowering anything. The hash covers the
    forest's scalars (feature/class counts, objective, base score) and, per
    tree, its ``class_id`` and the dtype, shape and bytes of every node
    array (an absent ``node_probability`` hashes as absent). Nothing is
    memoised, so a tree mutated in place (``populate_node_probabilities``)
    hashes afresh. ``schedule`` contributes the canonical JSON of its whole
    :meth:`~repro.config.Schedule.to_dict` — ``backend`` and ``pgo``
    included — so every cache that holds executors (compiled, loaded from
    an artifact, or attached from shared memory) keys on this value as is.
    """
    digest = hashlib.sha256(
        json.dumps(
            [forest.num_features, forest.num_classes, forest.objective, forest.base_score]
        ).encode()
    )
    for tree in forest.trees:
        digest.update(b"tree:%d" % tree.class_id)
        for name in _TREE_ARRAYS:
            array = getattr(tree, name)
            if array is None:
                digest.update(f"|{name}:none".encode())
            else:
                digest.update(f"|{name}:{array.dtype.str}{array.shape}".encode())
                digest.update(np.ascontiguousarray(array))
    if schedule is not None:
        digest.update(b"|schedule:")
        digest.update(
            json.dumps(schedule.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        )
    return digest.hexdigest()
