"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch one base class. Subclasses are grouped by pipeline stage: model
construction/validation, compilation (per IR level), and runtime execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(ReproError):
    """A decision tree or ensemble is structurally invalid."""


class ModelParseError(ModelError):
    """A serialized model (XGBoost JSON, LightGBM text, ...) could not be parsed."""


class CompilerError(ReproError):
    """Base class for errors raised while lowering or optimizing the IR."""


class TilingError(CompilerError):
    """A tiling does not satisfy the validity constraints of Section III-B1."""


class LoweringError(CompilerError):
    """An IR operation could not be lowered to the next abstraction level."""


class LayoutError(CompilerError):
    """A tiled tree could not be materialized into an in-memory layout."""


class QuantizationError(LoweringError):
    """A model cannot be quantized to the requested integer precision.

    Raised by :func:`repro.lir.quantize.build_quantization` when a model
    exceeds the capacity of the target code dtype — more distinct
    thresholds on one feature than the dtype can rank-code, too many
    features for the narrowed index buffers — or contains non-finite leaf
    values that fixed-point leaf codes cannot represent. The message names
    the offending feature/limit and the precision that would fit.
    """


class CodegenError(CompilerError):
    """Generated source failed to compile or validate."""


class ScheduleError(CompilerError):
    """A compiler schedule (optimization configuration) is inconsistent."""


class BackendError(CompilerError):
    """A code-generation backend is unknown or cannot build a schedule.

    Raised for a ``Schedule(backend=...)`` name outside
    :data:`repro.config.BACKENDS` (the message lists them, so a typo is
    diagnosable from the exception alone) and when a named backend cannot
    build a schedule on this machine.
    """


class ArtifactError(BackendError):
    """An AOT artifact is unreadable, corrupted, or version-incompatible.

    Raised by :func:`repro.backend.aot.load_artifact` when a serialized
    model artifact fails validation: missing files, a content hash that no
    longer matches (corruption/truncation), or a format version this
    build does not understand. Artifacts are rejected whole — a loader
    never guesses at partially-valid state.
    """


class VerificationError(CompilerError):
    """A lowered module violates a cross-level IR invariant.

    Raised by the :mod:`repro.verify` structural verifiers (HIR/MIR/LIR)
    when a lowering produced an inconsistent module — a broken tiling, a
    loop nest that misses trees, an out-of-bounds child pointer, a
    corrupted LUT. The message always names the level, the object (group/
    lane/tile) and the violated invariant.
    """


class ExecutionError(ReproError):
    """A compiled predictor failed at inference time."""


class ServingError(ReproError):
    """The serving layer rejected or could not complete a request.

    Raised for serving-policy failures — an unknown model name, a full or
    closed micro-batch queue, a submit timeout — as opposed to compiler or
    kernel failures, which keep their own classes (and are absorbed by the
    interpreter fallback when ``repro.serve`` is allowed to degrade).
    """
