"""Compiled-model images: one description, two stores, one rebuild.

A compiled model is its kernel source plus the arrays
:func:`~repro.backend.codegen.model_buffers` builds from its LIR. Its *image*
is that pair with the facts an executor needs besides: the backend that
emitted the kernel, the :func:`~repro.backend.jit.model_fingerprint` of the
exporting (forest, schedule), the model's scalars, the arena spec, the
quantization summary and each buffer's dtype and shape. :func:`image_of`
describes it, and two stores hold it:

* an AOT artifact directory, on disk (:func:`export_artifact` /
  :func:`load_artifact`, below)::

    artifact/
      MANIFEST.json        the image description, ``format_version`` and
                           per-file sha256 hashes (``kernel_backend`` is
                           absent in older artifacts: ``numpy_jit``)
      kernel.py            the generated ``predict_block`` source — for a
                           native kernel the stub that binds the walker
      schedule.json        ``Schedule.to_dict()`` of the compiling schedule
      buffers/<name>.npy   every model buffer

* named shared-memory segments, for the worker processes of one machine
  (:func:`repro.backend.shm.export_shared` /
  :func:`~repro.backend.shm.attach_shared`).

Each store adds only what it owns to the description — ``file`` here,
``segment`` and ``nbytes`` in shared memory — and both loaders finish through
:func:`rebuild_executor`: parse the schedule, check each array against its
manifest entry, bind the kernel with :func:`~repro.backend.jit.bind_kernel`
(the function an in-process compile binds with) and wrap it in an
:class:`ArtifactPredictor`. **No compiler stage runs**: no HIR/MIR/LIR
lowering, no tiling. That is the cold-start-free deploy path: warm workers
load artifacts in milliseconds where a compile costs hundreds. A native
kernel's stub finds the walker library in this machine's cache, or builds it
there (:mod:`repro.backend.native`); on a machine that cannot, and for
buffers that fail the stub's bind-time range checks, the rebuild is an
:class:`~repro.errors.ArtifactError`, as is a schedule this build cannot read.

Artifacts are validated whole before anything is trusted: the manifest's
``format_version`` must match this build (:data:`ARTIFACT_FORMAT_VERSION`),
a float32 image must record its upward-narrowed thresholds
(:data:`FLOAT32_THRESHOLDS`), and every listed file must hash to its
recorded sha256 — corruption, truncation and partial copies all fail with
:class:`~repro.errors.ArtifactError` instead of mispredicting. A rebuilt
executor reports the image's fingerprint — the serving cache's one key — so
it shares one cache slot with an in-process compile of the same model, and
the image's ``kernel_backend`` as its ``backend_name``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backend.codegen import model_buffers
from repro.backend.jit import bind_kernel
from repro.backend.predictor import KernelExecutor, Predictor
from repro.config import Schedule
from repro.errors import ArtifactError, BackendError, ScheduleError
from repro.forest.ensemble import Forest
from repro.lir.memory import ArenaSpec
from repro.observe import registry as observe_registry
from repro.observe.profile import ProfileRecorder

#: bump on any incompatible change to the artifact layout or manifest
#: schema; loaders reject every other version (see DESIGN.md for the
#: versioning rules). Version 2: arena specs carry ``acc_dtype``,
#: quantized models ship cut tables / leaf-code buffers and a
#: ``quantization`` manifest summary.
ARTIFACT_FORMAT_VERSION = 2

#: a float32 manifest's record that thresholds narrowed upward
#: (:func:`~repro.backend.codegen.narrow_thresholds`); older images, rounded
#: to nearest under the same version and fingerprint, lack it and are refused
FLOAT32_THRESHOLDS = "upward"

MANIFEST_NAME = "MANIFEST.json"
KERNEL_NAME = "kernel.py"
SCHEDULE_NAME = "schedule.json"
BUFFER_DIR = "buffers"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def image_of(predictor) -> tuple[dict, dict[str, np.ndarray]]:
    """``(manifest, buffers)`` of a compiled predictor's image.

    The manifest holds what every store records: ``kernel_backend``,
    ``fingerprint``, the model's scalars, the arena spec, the quantization
    summary and, under ``buffers``, each buffer's dtype and shape. Only
    in-process :class:`~repro.backend.predictor.Predictor` instances have
    an image (their buffers are rebuilt from their LIR); anything else is
    an :class:`~repro.errors.ArtifactError`.
    """
    if not isinstance(predictor, Predictor):
        raise ArtifactError(
            f"only in-process compiled predictors can be exported, "
            f"got {type(predictor).__name__}"
        )
    lir = predictor.lir
    buffers = model_buffers(lir)
    manifest = {
        "kernel_backend": predictor.backend_name,
        "fingerprint": predictor.fingerprint,
        "model": {
            "num_features": lir.num_features,
            "num_classes": lir.num_classes,
            "num_trees": predictor.forest.num_trees,
            "base_score": lir.base_score,
            "objective": predictor.forest.objective,
        },
        "arena": asdict(predictor.arena_spec),
        "quantization": lir.quant.describe() if lir.quant is not None else None,
        "buffers": {
            name: {"dtype": str(array.dtype), "shape": list(array.shape)}
            for name, array in buffers.items()
        },
    }
    if predictor.schedule.precision == "float32":
        manifest["float32_thresholds"] = FLOAT32_THRESHOLDS
    return manifest, buffers


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def export_artifact(
    model,
    path: str | os.PathLike,
    schedule: Schedule | None = None,
    *,
    overwrite: bool = False,
) -> Path:
    """Serialize a compiled model into a self-contained artifact directory.

    Parameters
    ----------
    model:
        Either an already-compiled :class:`~repro.backend.predictor.Predictor`
        (its forest, schedule and kernel are exported as-is), or a
        :class:`~repro.forest.ensemble.Forest` — which is compiled first
        under ``schedule`` (default: the paper-default schedule). Anything
        else is an :class:`~repro.errors.ArtifactError`.
    path:
        Target directory. Created (parents included) if absent; must be
        empty unless ``overwrite=True``.
    schedule:
        Compilation schedule when ``model`` is a forest; ignored (with the
        predictor's own schedule winning) for predictors.

    Returns the artifact directory as a :class:`~pathlib.Path`.
    """
    if isinstance(model, KernelExecutor):
        predictor = model
    elif isinstance(model, Forest):
        from repro.api import compile_model  # lazy: api imports this package

        predictor = compile_model(model, schedule)
    else:
        raise ArtifactError(
            f"only a Forest or a compiled predictor can be exported, "
            f"got {type(model).__name__}"
        )
    manifest, buffers = image_of(predictor)

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    existing = [p.name for p in out.iterdir()]
    if existing and not overwrite:
        raise ArtifactError(
            f"artifact directory {out} is not empty ({existing[:4]}...); "
            f"pass overwrite=True to replace its contents"
        )

    (out / BUFFER_DIR).mkdir(exist_ok=True)
    (out / KERNEL_NAME).write_text(predictor.source)
    (out / SCHEDULE_NAME).write_text(
        json.dumps(predictor.schedule.to_dict(), indent=2, sort_keys=True)
    )
    files = [KERNEL_NAME, SCHEDULE_NAME]
    for name, array in buffers.items():
        rel = f"{BUFFER_DIR}/{name}.npy"
        np.save(out / rel, array, allow_pickle=False)
        manifest["buffers"][name]["file"] = rel
        files.append(rel)
    manifest["files"] = {rel: _sha256_file(out / rel) for rel in files}
    manifest["format_version"] = ARTIFACT_FORMAT_VERSION
    # Manifest last, atomically: a crashed export leaves a directory with
    # no manifest (cleanly rejected) rather than a manifest describing
    # files that were never written.
    tmp = out / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, out / MANIFEST_NAME)
    observe_registry.record_backend_event(predictor.backend_name, "artifact_exports")
    return out


# ----------------------------------------------------------------------
# Rebuild
# ----------------------------------------------------------------------

class ArtifactPredictor(KernelExecutor):
    """A compiled model rebuilt from its image, on disk or in shared memory.

    Executes identically to the in-process :class:`Predictor` it was
    exported from (same source, same buffers, same arena policy), but owns
    neither the forest nor the lowered module — only the facts the
    manifest recorded. An executor attached from shared memory maps its
    buffers from segments another process created: :meth:`close` drops
    those attachments, and never unlinks them.
    """

    #: marks executors that skipped compilation entirely
    is_artifact = True

    def __init__(
        self,
        kernel,
        schedule: Schedule,
        manifest: dict,
        arena: ArenaSpec,
        source: str,
        nbytes: int,
        *,
        path: Path | None = None,
        attachments: list | None = None,
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
        #: the artifact directory (``None``: attached from shared memory)
        self.artifact_path = path
        #: the backend that emitted the kernel (artifacts exported before
        #: the manifest recorded it hold NumPy kernels)
        self.backend_name: str = manifest.get("kernel_backend", "numpy_jit")
        #: content hash of the exporting (forest, schedule) — lets the
        #: serving cache coalesce this executor with an in-process compile
        self.fingerprint: str = manifest["fingerprint"]
        self.profile_recorder = profile_recorder
        self._nbytes = nbytes
        self._attachments = attachments or []

    def memory_bytes(self) -> int:
        """Bytes of the model buffers the kernel is bound to."""
        return self._nbytes

    def profile_counters(self) -> dict:
        if self.profile_recorder is None:
            return {}
        return self.profile_recorder.aggregate()

    def close(self) -> None:
        """Drop shared-memory attachments (idempotent; the buffer views
        become invalid). A no-op for an executor loaded from disk."""
        attachments, self._attachments = self._attachments, []
        for segment in attachments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:
        return (
            f"ArtifactPredictor(trees={self.manifest['model']['num_trees']}, "
            f"fingerprint={self.fingerprint[:12]}, path={str(self.artifact_path)!r})"
        )


def rebuild_executor(
    manifest: dict,
    schedule: dict,
    source: str,
    fetch: Callable[[str, dict], np.ndarray],
    *,
    origin: str,
    validate_inputs: bool = True,
    path: Path | None = None,
    attachments: list | None = None,
) -> tuple[ArtifactPredictor, bool]:
    """Bind an image's kernel; returns ``(executor, code_cache_hit)``.

    ``fetch(name, entry)`` returns the buffer a manifest entry describes —
    read from a file, or mapped from a segment it appends to
    ``attachments``; ``origin`` names the image in errors. Every failure
    is an :class:`~repro.errors.ArtifactError` — a missing arena spec, a
    schedule this build does not read, float32 thresholds without the
    upward-narrowing record, a buffer unlike its entry, a kernel that
    cannot bind — and closes the attachments.
    """
    try:
        if not manifest.get("arena"):
            raise ArtifactError(
                f"{origin} has no arena spec — re-export the model with this version"
            )
        try:
            parsed = Schedule.from_dict(schedule)
        except (ScheduleError, BackendError) as exc:
            raise ArtifactError(
                f"{origin} was compiled under a schedule this build does "
                f"not read ({exc}) — re-export the model with this version"
            ) from exc
        if (
            parsed.precision == "float32"
            and manifest.get("float32_thresholds") != FLOAT32_THRESHOLDS
        ):
            raise ArtifactError(
                f"{origin} holds float32 thresholds rounded to nearest, which "
                "mis-route rows — re-export the model with this version"
            )
        buffers = {}
        for name, meta in manifest["buffers"].items():
            array = buffers[name] = fetch(name, meta)
            if str(array.dtype) != meta["dtype"] or list(array.shape) != meta["shape"]:
                raise ArtifactError(
                    f"buffer {name!r} does not match its manifest entry: "
                    f"{array.dtype}{array.shape} vs "
                    f"{meta['dtype']}{tuple(meta['shape'])}"
                )
        recorder = (
            ProfileRecorder(label=f"image-{manifest['fingerprint'][:8]}")
            if parsed.profile
            else None
        )
        arena = ArenaSpec.from_manifest(manifest["arena"])
        try:
            kernel, hit = bind_kernel(source, buffers, arena, recorder)
        except BackendError as exc:
            # a native stub that found no walker library, or whose bind-time
            # range checks refused the buffers
            raise ArtifactError(f"{origin} cannot be bound: {exc}") from exc
    except BaseException:
        for segment in attachments or ():
            segment.close()
        raise
    executor = ArtifactPredictor(
        kernel,
        parsed,
        manifest,
        arena,
        source,
        sum(array.nbytes for array in buffers.values()),
        path=path,
        attachments=attachments,
        validate_inputs=validate_inputs,
        profile_recorder=recorder,
    )
    return executor, hit


def _read_manifest(out: Path) -> dict:
    manifest_path = out / MANIFEST_NAME
    if not out.is_dir():
        raise ArtifactError(f"artifact directory {out} does not exist")
    if not manifest_path.is_file():
        raise ArtifactError(f"{out} is not an artifact: no {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupted {MANIFEST_NAME} in {out}: {exc}") from exc
    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"artifact {out} has format version {version!r}; this build "
            f"reads only version {ARTIFACT_FORMAT_VERSION} — re-export the "
            f"model with this version"
        )
    for key in ("fingerprint", "model", "buffers", "files"):
        if key not in manifest:
            raise ArtifactError(f"artifact manifest {out} is missing {key!r}")
    return manifest


def _verify_files(out: Path, manifest: dict) -> None:
    for rel, want in manifest["files"].items():
        target = out / rel
        if not target.is_file():
            raise ArtifactError(f"artifact {out} is missing {rel}")
        got = _sha256_file(target)
        if got != want:
            raise ArtifactError(
                f"artifact file {rel} is corrupted: sha256 {got[:16]}... "
                f"does not match the manifest ({want[:16]}...)"
            )


def artifact_fingerprint(path: str | os.PathLike) -> str:
    """The content fingerprint recorded in an artifact's manifest.

    Reads (and version-checks) only the manifest — no buffers are touched —
    so callers can consult a predictor cache before paying for a full
    :func:`load_artifact`. Raises :class:`~repro.errors.ArtifactError` on a
    missing/corrupted manifest or a format-version mismatch, exactly like
    the loader would.
    """
    return _read_manifest(Path(path))["fingerprint"]


def load_artifact(
    path: str | os.PathLike, *, validate_inputs: bool = True
) -> ArtifactPredictor:
    """Reconstitute a ready executor from an artifact directory.

    No compiler stage runs: the stored source is bound directly to the
    deserialized buffers. Validation is all-or-nothing — version mismatch,
    missing files and content-hash mismatches raise
    :class:`~repro.errors.ArtifactError` before any kernel is built.
    """
    out = Path(path)
    manifest = _read_manifest(out)
    _verify_files(out, manifest)
    predictor, code_hit = rebuild_executor(
        manifest,
        json.loads((out / SCHEDULE_NAME).read_text()),
        (out / KERNEL_NAME).read_text(),
        lambda name, meta: np.load(out / meta["file"], allow_pickle=False),
        origin=f"artifact {out}",
        validate_inputs=validate_inputs,
        path=out,
    )
    observe_registry.record_backend_event(predictor.backend_name, "artifact_loads")
    if code_hit:
        # The stored source was already byte-compiled in this process
        # (repeated loads of the same artifact, or a load next to the
        # in-process compile that produced it).
        observe_registry.record_backend_event(
            predictor.backend_name, "artifact_code_cache_hits"
        )
    return predictor
