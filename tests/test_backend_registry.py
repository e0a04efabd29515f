"""The pluggable backend registry (PR6 tentpole).

Covers the registry's CRUD surface, duplicate-name rejection, the
``Schedule(backend=...)`` knob (unknown names fail at construction with a
:class:`~repro.errors.BackendError`), dispatch through ``compile_model``,
and — the load-bearing guarantee of the refactor — that the default
backend's generated source and model fingerprints are **byte-identical**
to the pre-refactor compiler for a fixed seed (hashes recorded before the
backend interface existed).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import compile_model
from repro.backend.jit import (
    artifact_cache_key,
    model_fingerprint,
    predictor_cache_key,
)
from repro.backend.registry import (
    DEFAULT_BACKEND,
    Backend,
    describe_backends,
    get_backend,
    list_backends,
    register_backend,
    temporary_backend,
    unregister_backend,
)
from repro.config import Schedule
from repro.errors import BackendError, CompilerError, ScheduleError
from repro.verify.fuzz import random_fuzz_forest


@pytest.fixture
def forest():
    return random_fuzz_forest(np.random.default_rng(42), num_trees=8, max_depth=6)


# ----------------------------------------------------------------------
# Registry CRUD
# ----------------------------------------------------------------------

class _Dummy(Backend):
    name = "test_dummy"
    capabilities = ("jit",)

    def build(self, forest, lir, *, validate_inputs=True, trace=None):
        return get_backend("numpy_jit").build(
            forest, lir, validate_inputs=validate_inputs, trace=trace
        )


def test_builtin_backends_registered():
    names = list_backends()
    assert {"numpy_jit", "aot_export", "native", DEFAULT_BACKEND} <= set(names)
    assert names == sorted(names)
    # the default is resolved per compile (test_native_backend), not a generator
    assert DEFAULT_BACKEND == "auto"
    assert Schedule().backend == DEFAULT_BACKEND


def test_get_backend_resolves_builtin():
    backend = get_backend("numpy_jit")
    assert backend.name == "numpy_jit"
    assert "jit" in backend.capabilities
    aot = get_backend("aot_export")
    assert "export" in aot.capabilities


def test_register_and_unregister_roundtrip():
    try:
        register_backend(_Dummy)
        assert "test_dummy" in list_backends()
        assert get_backend("test_dummy").name == "test_dummy"
    finally:
        assert unregister_backend("test_dummy")
    assert "test_dummy" not in list_backends()
    assert not unregister_backend("test_dummy")  # second removal is a no-op


def test_duplicate_name_rejected():
    class Impostor(_Dummy):
        name = "numpy_jit"

    with pytest.raises(BackendError, match="already registered"):
        register_backend(Impostor)
    # The original registration survives the rejected attempt.
    assert type(get_backend("numpy_jit")).__name__ == "NumpyJitBackend"


def test_register_requires_a_name():
    class Nameless(Backend):
        name = ""

        def build(self, forest, lir, **kwargs):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(BackendError):
        register_backend(Nameless)


def test_unknown_backend_lookup_lists_registered():
    with pytest.raises(BackendError, match="numpy_jit"):
        get_backend("llvm")


def test_temporary_backend_scopes_registration():
    with temporary_backend(_Dummy) as backend:
        assert backend.name == "test_dummy"
        assert "test_dummy" in list_backends()
    assert "test_dummy" not in list_backends()


def test_describe_backends_shape():
    info = describe_backends()
    assert set(info) >= {"numpy_jit", "aot_export", "native"}
    for entry in info.values():
        assert "capabilities" in entry


# ----------------------------------------------------------------------
# The Schedule(backend=...) knob
# ----------------------------------------------------------------------

def test_schedule_rejects_unknown_backend():
    with pytest.raises(BackendError, match="unknown backend"):
        Schedule(backend="does_not_exist")


def test_schedule_rejects_empty_backend():
    with pytest.raises(ScheduleError):
        Schedule(backend="")


def test_backend_error_is_a_compiler_error():
    # The serving fallback path catches CompilerError; backend resolution
    # failures must degrade the same way, not crash the session.
    assert issubclass(BackendError, CompilerError)


def test_backend_excluded_from_repr_and_fingerprint(forest):
    default, explicit = Schedule(), Schedule(backend="aot_export")
    assert "backend" not in repr(default)
    assert model_fingerprint(forest, default) == model_fingerprint(forest, explicit)


def test_backend_roundtrips_through_dict():
    schedule = Schedule(backend="aot_export", tile_size=4)
    data = schedule.to_dict()
    assert data["backend"] == "aot_export"
    assert Schedule.from_dict(data).backend == "aot_export"


def test_compile_dispatches_to_schedule_backend(forest):
    calls = []

    class Spy(_Dummy):
        name = "test_spy"

        def build(self, forest, lir, *, validate_inputs=True, trace=None):
            calls.append(forest.num_trees)
            return super().build(
                forest, lir, validate_inputs=validate_inputs, trace=trace
            )

    with temporary_backend(Spy):
        predictor = compile_model(forest, Schedule(backend="test_spy"))
    assert calls == [forest.num_trees]
    rows = np.random.default_rng(0).normal(size=(8, forest.num_features))
    np.testing.assert_array_equal(
        predictor.raw_predict(rows),
        compile_model(forest, Schedule(backend="numpy_jit")).raw_predict(rows),
    )


# ----------------------------------------------------------------------
# Cache keys (satellite: backend name must qualify the predictor cache)
# ----------------------------------------------------------------------

def test_predictor_cache_key_is_backend_qualified(forest):
    base = Schedule(backend="numpy_jit")
    jit_key = predictor_cache_key(forest, base)
    aot_key = predictor_cache_key(forest, base.with_(backend="aot_export"))
    assert jit_key != aot_key
    assert jit_key.startswith("numpy_jit:")
    assert aot_key.startswith("aot_export:")
    # Both share the fingerprint suffix: backend choice never changes it.
    assert jit_key.split(":", 1)[1] == aot_key.split(":", 1)[1]
    fp = model_fingerprint(forest, base)
    assert artifact_cache_key("aot_export", fp) == aot_key
    # a caller that already holds the fingerprint passes it down: same bytes
    assert predictor_cache_key(forest, base, fp) == jit_key
    assert predictor_cache_key(forest, Schedule(), fp) == f"{DEFAULT_BACKEND}:{fp}"


# ----------------------------------------------------------------------
# Byte-identity with the pre-refactor compiler
# ----------------------------------------------------------------------

#: (source sha256 prefix, fingerprint prefix) for the seed-42 fuzz forest.
#: The fingerprints were recorded on the pre-registry tree and moved
#: exactly once, at PR17: ``model_fingerprint`` hashes ``repr(schedule)``,
#: and the retired ``Schedule.scratch`` field took its ``scratch='arena'``
#: token with it (no compatibility token is injected to keep the old
#: bytes). The source hashes did not move with them; no other refactor may
#: change a bit of any fingerprint or cache key.
#: The four *source* hashes were re-pinned once, by PR15
#: (dispatch-lean emission): the emitter now writes
#: ``buf.take(idx, axis, out, 'clip')`` for ``_np.take(..., mode='clip',
#: out=...)``, passes ufunc ``out`` positionally, moves the movemask
#: constants into a source prelude and binds a chunk's scratch views from
#: the arena's memo — every kernel's text changes, its outputs do not
#: (``array_equal`` to the PR14 kernels). Before that, PR14 (batch-adaptive
#: jamming) had moved none of the first three and added the fourth, which
#: pins the widened loop (the 5-tree group under interleave=2 steps by
#: ``K = 2 * max(1, min(4096 // (max(1, B) * 2), 3))`` and accumulates per
#: 2-tree sub-chunk).
#: The source hashes are the NumPy emitter's, so the schedules name it; the
#: fingerprints never see the backend field.
_BASELINES = [
    (Schedule(backend="numpy_jit"), "c9c092ce91789df7", "e6e18e72bb0236a7"),
    (
        Schedule.scalar_baseline().with_(backend="numpy_jit"),
        "43d99216a31ce9dc",
        "7c1c6a1308559cdb",
    ),
    (
        Schedule(tile_size=4, layout="array", precision="float32", backend="numpy_jit"),
        "1b71ce1679ecce9e",
        "a69416956b5b4f26",
    ),
    (Schedule(interleave=2, backend="numpy_jit"), "810c628e0018a8d6", "f55c8b0041f22eca"),
]


@pytest.mark.parametrize(
    "schedule,source_hash,fingerprint",
    _BASELINES,
    ids=["default", "scalar", "tile4-array-f32", "interleave2-widened"],
)
def test_default_backend_output_byte_identical(forest, schedule, source_hash, fingerprint):
    predictor = compile_model(forest, schedule)
    assert hashlib.sha256(predictor.source.encode()).hexdigest()[:16] == source_hash
    assert model_fingerprint(forest, schedule)[:16] == fingerprint
    assert model_fingerprint(forest, schedule.with_(backend=DEFAULT_BACKEND))[:16] == fingerprint
    assert predictor.fingerprint[:16] == fingerprint
