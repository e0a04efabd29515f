"""JIT compilation of generated inference source.

``compile_lir`` emits source for an LIR module, compiles it with the
built-in :func:`compile` (our stand-in for the LLVM JIT), and executes it in
a namespace holding the model buffers. Code objects are cached by source
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
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.backend.codegen import build_namespace, emit_module_source
from repro.errors import CodegenError
from repro.lir.ir import LIRModule
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


def compile_lir(
    lir: LIRModule,
    trace: CompilationTrace | None = None,
    profile_recorder: ProfileRecorder | None = None,
    emit: Callable[[LIRModule], str] = emit_module_source,
) -> tuple[Callable, str]:
    """Emit + compile ``lir``; returns ``(predict_block, source)``.

    ``trace`` gets one span per backend stage (source emission, namespace
    materialization, bytecode compile); ``profile_recorder`` is bound as
    the kernel's ``_P`` when the schedule enables profiling. ``emit`` is
    the backend's source emitter: whatever text it returns defines
    ``predict_block`` against the :func:`build_namespace` buffers.
    """
    trace = trace or CompilationTrace()
    with trace.span("codegen-emit") as span:
        source = emit(lir)
        span.stats["source_lines"] = source.count("\n")
        span.stats["source_bytes"] = len(source)
    with trace.span("codegen-namespace") as span:
        namespace = build_namespace(lir, profile_recorder=profile_recorder)
        span.stats["num_globals"] = len(namespace)
    with trace.span("jit-compile") as span:
        kernel, hit = compile_source(source, namespace)
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


def model_fingerprint(forest: "Forest", schedule: "Schedule | None" = None) -> str:
    """Stable content hash of ``forest`` (and optionally ``schedule``).

    Two forests with identical structure and parameters — e.g. one
    serialized and re-loaded, or re-trained deterministically — produce the
    same fingerprint, so a predictor cache keyed on it turns re-registration
    into a cache hit without lowering anything. The hash covers everything
    ``Forest.to_dict`` serializes (splits, thresholds, leaf values, node
    probabilities, objective, base score) plus the schedule's repr, which
    for a frozen dataclass enumerates every optimization knob.
    """
    payload = json.dumps(forest.to_dict(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode())
    if schedule is not None:
        digest.update(repr(schedule).encode())
    return digest.hexdigest()


def predictor_cache_key(
    forest: "Forest", schedule: "Schedule", fingerprint: str | None = None
) -> str:
    """Backend-qualified key for caches that hold compiled *executors*.

    ``fingerprint`` is ``model_fingerprint(forest, schedule)`` when the
    caller already holds it — hashing a forest costs tens of milliseconds.

    :func:`model_fingerprint` deliberately excludes the backend name (the
    backend choice never changes compiled semantics, and the schedule's
    ``backend`` field is ``repr``-suppressed), but a cache of executors
    must not: the same (forest, schedule) compiled under two backends are
    distinct objects with different capabilities. Namespacing the
    fingerprint by ``schedule.backend`` keeps them from colliding.

    The repr-suppressed ``pgo`` knob gets the same treatment: a
    profile-guided split never changes outputs (so the fingerprint may
    ignore it) but does change the compiled kernel, so executors built
    with different cutoffs must occupy different cache slots. The default
    (``pgo=None``) key shape is unchanged — pinned key hashes stay valid.
    """
    if fingerprint is None:
        fingerprint = model_fingerprint(forest, schedule)
    key = f"{schedule.backend}:{fingerprint}"
    if schedule.pgo is not None:
        key += f":pgo={schedule.pgo}"
    return key


def artifact_cache_key(backend_name: str, fingerprint: str) -> str:
    """Cache key for an executor loaded from an AOT artifact.

    Mirrors :func:`predictor_cache_key`'s ``backend:fingerprint`` shape so
    a loaded artifact and an in-process compile of the same (forest,
    schedule) under the same backend share one cache slot.
    """
    return f"{backend_name}:{fingerprint}"
