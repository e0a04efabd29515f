"""Shared-memory store of a compiled-model image: one copy of the model per machine.

The multi-process serving tier (:mod:`repro.serve.workers`) forks workers
that all execute the same compiled kernels. Pickling the model buffers to
every child would multiply resident memory by the worker count — exactly
the footprint the quantized int8/int16 buffers (PR7) worked to shrink. So
the parent exports the compiled model once into named
``multiprocessing.shared_memory`` segments and ships children only a tiny
picklable *manifest*; each child attaches the segments and maps zero-copy,
read-only NumPy views over them.

This is the AOT artifact's image (:mod:`repro.backend.aot`) with the
filesystem swapped for POSIX shared memory: the manifest is
:func:`~repro.backend.aot.image_of`'s description plus the kernel source,
the schedule and each buffer's ``segment`` and ``nbytes``, and an attach
finishes through :func:`~repro.backend.aot.rebuild_executor`, as an
artifact load does. The attached executor is an
:class:`~repro.backend.aot.ArtifactPredictor`, bit-identical to the
exporting predictor. Lifecycle is explicit and parent-owned: the
:class:`SharedModelHandle` unlinks the segments; children merely close
their attachments.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.backend.aot import ArtifactPredictor, image_of, rebuild_executor
from repro.errors import ArtifactError


def _release(segments: list[shared_memory.SharedMemory]) -> None:
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already removed externally
            pass


class SharedModelHandle:
    """Parent-side owner of one exported model's shared-memory segments.

    ``manifest`` is a plain picklable dict a child passes to
    :func:`attach_shared`; the handle itself stays in the parent and is
    the single place the segments get unlinked.
    """

    def __init__(self, manifest: dict, segments: list[shared_memory.SharedMemory]) -> None:
        self.manifest = manifest
        self._segments = segments

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
        segments, self._segments = self._segments, []
        _release(segments)

    def __enter__(self) -> "SharedModelHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __repr__(self) -> str:
        return (
            f"SharedModelHandle(buffers={len(self.manifest['buffers'])}, "
            f"nbytes={self.nbytes()}, fingerprint={self.fingerprint[:12]})"
        )


def export_shared(predictor) -> SharedModelHandle:
    """Copy a compiled predictor's model buffers into shared memory.

    Returns a :class:`SharedModelHandle` whose ``manifest`` is picklable
    and self-contained: the image description (``kernel_backend``,
    fingerprint, model facts, arena spec, per-buffer dtype and shape, each
    with its segment name and byte count), the kernel source — a native
    kernel's stub binds the walker over the attached views, with the same
    range checks as in-process — and the schedule. Only in-process
    :class:`~repro.backend.predictor.Predictor` instances can be exported:
    anything else is an :class:`~repro.errors.ArtifactError`.
    """
    manifest, buffers = image_of(predictor)
    segments: list[shared_memory.SharedMemory] = []
    try:
        for name, array in buffers.items():
            # SharedMemory rejects zero-byte segments; degenerate empty
            # buffers still get a 1-byte segment so attach stays uniform.
            segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
            segments.append(segment)
            np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
            manifest["buffers"][name].update(segment=segment.name, nbytes=array.nbytes)
    except BaseException:
        _release(segments)
        raise
    manifest["source"] = predictor.source
    manifest["schedule"] = predictor.schedule.to_dict()
    return SharedModelHandle(manifest, segments)


def attach_shared(
    manifest: dict, *, validate_inputs: bool = True, untrack: bool = False
) -> ArtifactPredictor:
    """Attach an exported model in this process (typically a forked worker).

    Maps zero-copy, read-only views over the named segments and binds the
    stored kernel source to them. Raises
    :class:`~repro.errors.ArtifactError` (a
    :class:`~repro.errors.BackendError`), exactly as
    :func:`~repro.backend.aot.load_artifact` does, if a segment is gone,
    the manifest has no arena spec, its schedule is one this build cannot
    read, a buffer does not match its manifest entry or the kernel cannot
    bind. The executor's ``close()`` drops the attachments.

    ``untrack`` matters only for a process with its *own* resource
    tracker — one the exporter did not start, such as a separately
    launched interpreter handed the manifest: there, Python's attach
    registers the segment as if this process owned it, and the tracker
    would unlink it at exit — tearing the mapping out from under every
    sibling — so such callers must pass ``untrack=True``. Children the
    exporter starts through :mod:`multiprocessing` share its tracker under
    every POSIX start method (fork, spawn and forkserver alike), as do
    same-process attaches: they must leave ``untrack=False``, or they
    would cancel the registration that lets the tracker reap the segments
    if the exporter crashes.
    """
    segments: list[shared_memory.SharedMemory] = []

    def fetch(name: str, meta: dict) -> np.ndarray:
        try:
            segment = shared_memory.SharedMemory(name=meta["segment"])
        except FileNotFoundError as exc:
            raise ArtifactError(
                f"shared buffer {name!r} (segment {meta['segment']}) "
                f"is gone — did the exporting process unlink it?"
            ) from exc
        segments.append(segment)
        if untrack:
            try:  # pragma: no cover - internal API, best effort
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
        try:
            array = np.ndarray(meta["shape"], dtype=meta["dtype"], buffer=segment.buf)
        except TypeError as exc:
            raise ArtifactError(
                f"shared buffer {name!r} is smaller than its manifest entry "
                f"{meta['dtype']}{tuple(meta['shape'])}"
            ) from exc
        array.flags.writeable = False
        return array

    executor, _ = rebuild_executor(
        manifest,
        manifest["schedule"],
        manifest["source"],
        fetch,
        origin=f"shared model {manifest['fingerprint'][:12]}",
        validate_inputs=validate_inputs,
        attachments=segments,
    )
    return executor
