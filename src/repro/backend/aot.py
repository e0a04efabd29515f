"""Ahead-of-time artifact export: compile once, load anywhere, free.

The ``aot_export`` backend compiles the NumPy kernel, and this module
knows how to *serialize* any in-process compiled model — NumPy or native —
into a self-contained artifact directory::

    artifact/
      MANIFEST.json        format version, content fingerprint, model facts,
                           arena spec, per-file sha256 hashes, and
                           ``kernel_backend``: which backend emitted the
                           kernel (absent in older artifacts: ``numpy_jit``)
      kernel.py            the generated ``predict_block`` source — for a
                           native kernel the stub that binds the walker
      schedule.json        ``Schedule.to_dict()`` of the compiling schedule
      buffers/<name>.npy   every model buffer of the JIT namespace
                           (thresholds, feature indices, LUT, leaf values,
                           one-hot class matrices, ...)

:func:`load_artifact` reconstitutes a ready executor from that directory in
a fresh process **without invoking the compiler**: no HIR/MIR/LIR lowering
runs, no tiling is computed — the loader reads buffers, rebuilds the
namespace, byte-compiles the stored source and wraps it in an
:class:`ArtifactPredictor` (a :class:`~repro.backend.predictor.KernelExecutor`).
That is the cold-start-free deploy path: warm workers load artifacts in
milliseconds where a compile costs hundreds (``benchmarks/test_bench_aot.py``).
A native kernel's stub finds the walker library in this machine's cache, or
builds it there (:mod:`repro.backend.native`); on a machine that cannot, and
for buffers that fail the stub's bind-time range checks, the load is an
:class:`~repro.errors.ArtifactError`.

Artifacts are validated whole before anything is trusted: the manifest's
``format_version`` must match this build (:data:`ARTIFACT_FORMAT_VERSION`),
and every listed file must hash to its recorded sha256 — corruption,
truncation and partial copies all fail with
:class:`~repro.errors.ArtifactError` instead of mispredicting. The
manifest's ``fingerprint`` is the :func:`~repro.backend.jit.model_fingerprint`
of the exporting (forest, schedule), so the serving cache can coalesce a
loaded artifact with an in-process compile of the same model.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.backend.codegen import build_namespace
from repro.backend.jit import compile_source
from repro.backend.predictor import KernelExecutor, Predictor
from repro.backend.registry import Backend, register_backend
from repro.config import Schedule
from repro.errors import ArtifactError, BackendError, ScheduleError
from repro.lir.memory import ArenaSpec, ScratchArena
from repro.observe import registry as observe_registry
from repro.observe.profile import ProfileRecorder

#: bump on any incompatible change to the artifact layout or manifest
#: schema; loaders reject every other version (see DESIGN.md for the
#: versioning rules). Version 2: arena specs carry ``acc_dtype``,
#: quantized models ship cut tables / leaf-code buffers and a
#: ``quantization`` manifest summary.
ARTIFACT_FORMAT_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"
KERNEL_NAME = "kernel.py"
SCHEDULE_NAME = "schedule.json"
BUFFER_DIR = "buffers"

#: namespace entries that are runtime objects, not model buffers — they are
#: reconstructed at load time instead of serialized.
_RUNTIME_KEYS = ("_np", "_new_arena", "_P")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
        under ``schedule`` (default: the paper-default schedule).
    path:
        Target directory. Created (parents included) if absent; must be
        empty unless ``overwrite=True``.
    schedule:
        Compilation schedule when ``model`` is a forest; ignored (with the
        predictor's own schedule winning) for predictors.

    Returns the artifact directory as a :class:`~pathlib.Path`.
    """
    if isinstance(model, Predictor):
        predictor = model
    else:
        from repro.api import compile_model  # lazy: api imports this package

        predictor = compile_model(model, schedule)
    if not isinstance(predictor, Predictor):
        raise ArtifactError(
            f"only in-process compiled predictors can be exported, "
            f"got {type(predictor).__name__}"
        )

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    existing = [p.name for p in out.iterdir()]
    if existing and not overwrite:
        raise ArtifactError(
            f"artifact directory {out} is not empty ({existing[:4]}...); "
            f"pass overwrite=True to replace its contents"
        )

    lir = predictor.lir
    sched = predictor.schedule
    (out / BUFFER_DIR).mkdir(exist_ok=True)
    (out / KERNEL_NAME).write_text(predictor.source)
    (out / SCHEDULE_NAME).write_text(
        json.dumps(sched.to_dict(), indent=2, sort_keys=True)
    )

    # The exact namespace the JIT ran against, minus runtime objects: what
    # is serialized is what executed, so the load is bit-faithful.
    namespace = build_namespace(lir)
    buffers: dict[str, dict] = {}
    for name, value in namespace.items():
        if name in _RUNTIME_KEYS:
            continue
        if not isinstance(value, np.ndarray):  # pragma: no cover - all
            # non-runtime namespace entries are arrays by construction
            raise ArtifactError(f"unserializable namespace entry {name!r}")
        rel = f"{BUFFER_DIR}/{name}.npy"
        np.save(out / rel, value, allow_pickle=False)
        buffers[name] = {
            "file": rel,
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }

    files = {rel: _sha256_file(out / rel) for rel in
             [KERNEL_NAME, SCHEDULE_NAME] + [b["file"] for b in buffers.values()]}
    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "backend": AotExportBackend.name,
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
        "buffers": buffers,
        "files": files,
    }
    # Manifest last, atomically: a crashed export leaves a directory with
    # no manifest (cleanly rejected) rather than a manifest describing
    # files that were never written.
    tmp = out / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, out / MANIFEST_NAME)
    observe_registry.record_backend_event(AotExportBackend.name, "artifact_exports")
    return out


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------

class ArtifactPredictor(KernelExecutor):
    """A compiled model reconstituted from an AOT artifact directory.

    Executes identically to the in-process :class:`Predictor` it was
    exported from (same source, same buffers, same arena policy), but owns
    neither the forest nor the lowered module — only the facts the
    manifest recorded.
    """

    backend_name = "aot_export"
    #: marks executors that skipped compilation entirely
    is_artifact = True

    def __init__(
        self,
        kernel,
        schedule: Schedule,
        manifest: dict,
        arena: ArenaSpec,
        path: Path,
        source: str,
        nbytes: int,
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
        self.artifact_path = path
        #: content hash of the exporting (forest, schedule) — lets the
        #: serving cache coalesce this executor with an in-process compile
        self.fingerprint: str = manifest["fingerprint"]
        self.profile_recorder = profile_recorder
        self._nbytes = nbytes

    def memory_bytes(self) -> int:
        """Model-buffer footprint of the loaded artifact buffers."""
        return self._nbytes

    def profile_counters(self) -> dict:
        if self.profile_recorder is None:
            return {}
        return self.profile_recorder.aggregate()

    def __repr__(self) -> str:
        return (
            f"ArtifactPredictor(trees={self.manifest['model']['num_trees']}, "
            f"fingerprint={self.fingerprint[:12]}, path={str(self.artifact_path)!r})"
        )


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
    if not manifest.get("arena"):
        raise ArtifactError(
            f"artifact manifest {out} has no arena spec — re-export the "
            f"model with this version"
        )
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

    No compiler stage runs: the stored source is byte-compiled directly
    against the deserialized buffers. Validation is all-or-nothing —
    version mismatch, missing files and content-hash mismatches raise
    :class:`~repro.errors.ArtifactError` before any kernel is built.
    """
    out = Path(path)
    manifest = _read_manifest(out)
    _verify_files(out, manifest)

    try:
        schedule = Schedule.from_dict(json.loads((out / SCHEDULE_NAME).read_text()))
    except ScheduleError as exc:
        raise ArtifactError(
            f"artifact {out} was compiled under a schedule this build does "
            f"not read ({exc}) — re-export the model with this version"
        ) from exc
    source = (out / KERNEL_NAME).read_text()

    namespace: dict = {"_np": np}
    nbytes = 0
    for name, meta in manifest["buffers"].items():
        array = np.load(out / meta["file"], allow_pickle=False)
        if str(array.dtype) != meta["dtype"] or list(array.shape) != meta["shape"]:
            raise ArtifactError(
                f"buffer {name!r} does not match its manifest entry: "
                f"{array.dtype}{array.shape} vs "
                f"{meta['dtype']}{tuple(meta['shape'])}"
            )
        namespace[name] = array
        nbytes += array.nbytes
    arena = ArenaSpec.from_manifest(manifest["arena"])
    namespace["_new_arena"] = lambda: ScratchArena(arena)
    recorder = None
    if schedule.profile:
        recorder = ProfileRecorder(label=f"artifact-{manifest['fingerprint'][:8]}")
        # Weak proxy, strong ref on the predictor below: exec() closes a
        # namespace<->kernel cycle only gc can break, and a strong `_P`
        # would keep an evicted predictor's counters in aggregate_all()
        # until collection. The proxy lets the recorder die by refcount
        # with its ArtifactPredictor.
        namespace["_P"] = weakref.proxy(recorder)

    try:
        kernel, code_hit = compile_source(source, namespace)
    except BackendError as exc:
        # a native stub that found no walker library, or whose bind-time
        # range checks refused the buffers
        raise ArtifactError(f"artifact {out} cannot be bound: {exc}") from exc
    observe_registry.record_backend_event(AotExportBackend.name, "artifact_loads")
    if code_hit:
        # The stored source was already byte-compiled in this process
        # (repeated loads of the same artifact, or a load next to the
        # in-process compile that produced it).
        observe_registry.record_backend_event(
            AotExportBackend.name, "artifact_code_cache_hits"
        )
    return ArtifactPredictor(
        kernel,
        schedule,
        manifest,
        arena,
        out,
        source,
        nbytes,
        validate_inputs=validate_inputs,
        profile_recorder=recorder,
    )


# ----------------------------------------------------------------------
# The registered backend
# ----------------------------------------------------------------------

@register_backend
class AotExportBackend(Backend):
    """Compile the NumPy kernel and support artifact export/load."""

    name = "aot_export"
    capabilities = ("jit", "export")

    def build(self, forest, lir, *, validate_inputs=True, trace=None) -> Predictor:
        predictor = Predictor(
            forest, lir, validate_inputs=validate_inputs, trace=trace
        )
        predictor.backend_name = self.name
        return predictor

    # The export surface, reachable from the resolved backend object so
    # callers can stay generic over `get_backend(name)`.
    def export(self, model, path, schedule=None, *, overwrite=False) -> Path:
        return export_artifact(model, path, schedule, overwrite=overwrite)

    def load(self, path, *, validate_inputs=True) -> ArtifactPredictor:
        return load_artifact(path, validate_inputs=validate_inputs)
