"""Shared-memory model-buffer export: one copy of the model per machine.

The multi-process serving tier (:mod:`repro.serve.workers`) forks workers
that all execute the same compiled kernels. Pickling the model buffers to
every child would multiply resident memory by the worker count — exactly
the footprint the quantized int8/int16 buffers (PR7) worked to shrink. So
the parent exports the compiled model once into named
``multiprocessing.shared_memory`` segments and ships children only a tiny
picklable *manifest* (kernel source + buffer names/dtypes/shapes + model
facts); each child attaches the segments and maps zero-copy, read-only
NumPy views over them.

This mirrors the AOT artifact layout (:mod:`repro.backend.aot`) with the
filesystem swapped for POSIX shared memory: the serialized namespace is
exactly what the JIT executed, so an attached executor is bit-identical to
the exporting predictor. Lifecycle is explicit and parent-owned: the
:class:`SharedModelHandle` unlinks the segments; children merely close
their attachments.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.backend.codegen import build_namespace
from repro.backend.jit import compile_source
from repro.backend.predictor import KernelExecutor, Predictor
from repro.config import Schedule
from repro.errors import BackendError
from repro.lir.memory import ArenaSpec, ScratchArena
from repro.observe.profile import ProfileRecorder

#: namespace entries that are runtime objects, not model buffers (same
#: contract as the AOT exporter) — reconstructed at attach time.
_RUNTIME_KEYS = ("_np", "_new_arena", "_P")


class SharedModelHandle:
    """Parent-side owner of one exported model's shared-memory segments.

    ``manifest`` is a plain picklable dict a child passes to
    :func:`attach_shared`; the handle itself stays in the parent and is
    the single place the segments get unlinked.
    """

    def __init__(self, manifest: dict, segments: list[shared_memory.SharedMemory]) -> None:
        self.manifest = manifest
        self._segments = segments
        self._unlinked = False

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    def nbytes(self) -> int:
        return sum(meta["nbytes"] for meta in self.manifest["buffers"].values())

    def unlink(self) -> None:
        """Close and remove every segment (idempotent).

        After this, new attaches fail; already-attached children keep
        their mappings alive until they close (POSIX unlink semantics).
        """
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already removed externally
                pass
        self._segments = []

    def __enter__(self) -> "SharedModelHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __repr__(self) -> str:
        return (
            f"SharedModelHandle(buffers={len(self.manifest['buffers'])}, "
            f"nbytes={self.nbytes()}, fingerprint={self.fingerprint[:12]})"
        )


def export_shared(predictor: Predictor, *, name_prefix: str = "repro") -> SharedModelHandle:
    """Copy a compiled predictor's model buffers into shared memory.

    Returns a :class:`SharedModelHandle` whose ``manifest`` is picklable
    and self-contained: the name of the backend that emitted the kernel,
    its source (a native kernel's stub binds the walker over the attached
    views, with the same range checks as in-process), schedule, model
    facts, arena spec and per-buffer segment names. Only in-process
    :class:`Predictor` instances can be exported (the namespace is rebuilt
    from their LIR).
    """
    if not isinstance(predictor, Predictor):
        raise BackendError(
            f"only in-process compiled predictors can be shared, "
            f"got {type(predictor).__name__}"
        )
    lir = predictor.lir
    namespace = build_namespace(lir)
    segments: list[shared_memory.SharedMemory] = []
    buffers: dict[str, dict] = {}
    try:
        for buf_name, value in namespace.items():
            if buf_name in _RUNTIME_KEYS:
                continue
            if not isinstance(value, np.ndarray):  # pragma: no cover - all
                # non-runtime namespace entries are arrays by construction
                raise BackendError(f"unshareable namespace entry {buf_name!r}")
            value = np.ascontiguousarray(value)
            # SharedMemory rejects zero-byte segments; degenerate empty
            # buffers still get a 1-byte segment so attach stays uniform.
            segment = shared_memory.SharedMemory(create=True, size=max(1, value.nbytes))
            segments.append(segment)
            view = np.ndarray(value.shape, dtype=value.dtype, buffer=segment.buf)
            view[...] = value
            buffers[buf_name] = {
                "segment": segment.name,
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "nbytes": value.nbytes,
            }
    except BaseException:
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass
        raise
    manifest = {
        "fingerprint": predictor.fingerprint,
        "backend": predictor.backend_name,
        "source": predictor.source,
        "schedule": predictor.schedule.to_dict(),
        "model": {
            "num_features": lir.num_features,
            "num_classes": lir.num_classes,
            "base_score": lir.base_score,
            "objective": predictor.forest.objective,
            "num_trees": predictor.forest.num_trees,
        },
        "arena": asdict(predictor.arena_spec),
        "buffers": buffers,
    }
    return SharedModelHandle(manifest, segments)


class SharedMemoryPredictor(KernelExecutor):
    """A compiled model attached from shared-memory segments.

    Executes identically to the exporting predictor (same source, same
    bytes) but owns no buffer storage: its arrays are read-only views over
    segments another process created. ``close()`` drops the attachments;
    it never unlinks — that is the exporting parent's job.
    """

    backend_name = "shm"
    is_artifact = True

    def __init__(
        self,
        kernel,
        schedule: Schedule,
        manifest: dict,
        arena: ArenaSpec,
        segments: list[shared_memory.SharedMemory],
        source: str,
        validate_inputs: bool = True,
        profile_recorder: ProfileRecorder | None = None,
    ) -> None:
        model = manifest["model"]
        super().__init__(
            kernel,
            schedule,
            num_features=model["num_features"],
            num_classes=model["num_classes"],
            base_score=model["base_score"],
            objective=model["objective"],
            validate_inputs=validate_inputs,
            arena=arena,
            source=source,
        )
        self.manifest = manifest
        self.fingerprint: str = manifest["fingerprint"]
        self.profile_recorder = profile_recorder
        self._segments = segments
        self._closed = False

    def memory_bytes(self) -> int:
        """Mapped (shared, not private) buffer bytes."""
        return sum(meta["nbytes"] for meta in self.manifest["buffers"].values())

    def close(self) -> None:
        """Drop the segment attachments (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:
        return (
            f"SharedMemoryPredictor(buffers={len(self.manifest['buffers'])}, "
            f"fingerprint={self.fingerprint[:12]})"
        )


def attach_shared(
    manifest: dict, *, validate_inputs: bool = True, untrack: bool = False
) -> SharedMemoryPredictor:
    """Attach an exported model in this process (typically a forked worker).

    Rebuilds the JIT namespace from zero-copy, read-only views over the
    named segments and byte-compiles the stored kernel source against it.
    Raises :class:`~repro.errors.BackendError` if the manifest has no arena
    spec, a segment is gone or a buffer does not match its manifest entry.

    ``untrack`` matters only for processes with their *own* resource
    tracker (spawn-started workers, unrelated processes): there, Python's
    attach registers the segment as if this process owned it, and the
    tracker would unlink it at exit — tearing the mapping out from under
    every sibling — so such callers must pass ``untrack=True``. Forked
    workers and same-process attaches share the exporter's tracker and
    must leave ``untrack=False``, or they would cancel the registration
    that lets the tracker reap the segments if the exporter crashes.
    """
    if not manifest.get("arena"):
        raise BackendError("shared-model manifest has no arena spec")
    arena = ArenaSpec.from_manifest(manifest["arena"])
    segments: list[shared_memory.SharedMemory] = []
    namespace: dict = {"_np": np, "_new_arena": lambda: ScratchArena(arena)}
    try:
        for buf_name, meta in manifest["buffers"].items():
            try:
                segment = shared_memory.SharedMemory(name=meta["segment"])
            except FileNotFoundError as exc:
                raise BackendError(
                    f"shared buffer {buf_name!r} (segment {meta['segment']}) "
                    f"is gone — did the exporting process unlink it?"
                ) from exc
            segments.append(segment)
            if untrack:
                try:  # pragma: no cover - internal API, best effort
                    resource_tracker.unregister(segment._name, "shared_memory")
                except Exception:
                    pass
            shape = tuple(meta["shape"])
            dtype = np.dtype(meta["dtype"])
            if int(np.prod(shape, dtype=np.int64)) * dtype.itemsize > segment.size:
                raise BackendError(
                    f"shared buffer {buf_name!r} is smaller than its "
                    f"manifest entry {dtype}{shape}"
                )
            array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            array.flags.writeable = False
            namespace[buf_name] = array
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except OSError:
                pass
        raise

    schedule = Schedule.from_dict(manifest["schedule"])
    recorder = None
    if schedule.profile:
        recorder = ProfileRecorder(label=f"shm-{manifest['fingerprint'][:8]}")
        # Weak proxy + strong ref on the predictor, same reasoning as the
        # AOT loader: let the recorder die by refcount with its executor.
        namespace["_P"] = weakref.proxy(recorder)

    try:
        kernel, _ = compile_source(manifest["source"], namespace)
    except BaseException:
        # a native stub's bind refused the buffers, or found no walker
        for segment in segments:
            segment.close()
        raise
    return SharedMemoryPredictor(
        kernel,
        schedule,
        manifest,
        arena,
        segments,
        manifest["source"],
        validate_inputs=validate_inputs,
        profile_recorder=recorder,
    )
