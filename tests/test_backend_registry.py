"""The pluggable backend registry (PR6 tentpole).

Covers the registry's CRUD surface, duplicate-name rejection, the
``Schedule(backend=...)`` knob (unknown names fail at construction with a
:class:`~repro.errors.BackendError`), dispatch through ``compile_model``,
``model_fingerprint`` as the one executor identity (every forest array and
every schedule field moves it; serialization round trips do not), and —
the load-bearing guarantee of the refactor — that the NumPy backend's
generated source is **byte-identical** to the pre-refactor compiler for a
fixed seed (hashes recorded before the backend interface existed).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro.api import compile_model
from repro.backend.jit import model_fingerprint
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
from repro.forest.ensemble import Forest
from repro.forest.statistics import populate_node_probabilities
from repro.verify.fuzz import random_fuzz_forest


@pytest.fixture
def forest():
    return random_fuzz_forest(np.random.default_rng(42), num_trees=8, max_depth=6)


# ----------------------------------------------------------------------
# Registry CRUD
# ----------------------------------------------------------------------

class _Dummy(Backend):
    name = "test_dummy"

    def build(self, forest, lir, *, validate_inputs=True, trace=None):
        return get_backend("numpy_jit").build(
            forest, lir, validate_inputs=validate_inputs, trace=trace
        )


def test_builtin_backends_registered():
    assert list_backends() == [DEFAULT_BACKEND, "native", "numpy_jit"]
    # the default is resolved per compile (test_native_backend), not a generator
    assert DEFAULT_BACKEND == "auto"
    assert Schedule().backend == DEFAULT_BACKEND


def test_get_backend_resolves_builtin():
    for name in ("numpy_jit", "native"):
        assert get_backend(name).name == name


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
    assert set(info) == {DEFAULT_BACKEND, "native", "numpy_jit"}
    for name, entry in info.items():
        assert entry["name"] == name and entry["class"].startswith("repro.backend.")


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


def test_backend_roundtrips_through_dict():
    schedule = Schedule(backend="numpy_jit", tile_size=4)
    data = schedule.to_dict()
    assert data["backend"] == "numpy_jit"
    assert Schedule.from_dict(data) == schedule


def test_retired_export_backend_loads_as_the_kernel_it_built():
    """Tune-cache entries and artifacts written before the artifact backend
    was retired name it; it built exactly the NumPy kernel."""
    data = Schedule(tile_size=4).to_dict() | {"backend": "aot_export"}
    assert Schedule.from_dict(data) == Schedule(tile_size=4, backend="numpy_jit")
    with pytest.raises(BackendError, match="unknown backend"):
        Schedule(backend="aot_export")


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
# One executor identity: model_fingerprint(forest, schedule)
# ----------------------------------------------------------------------

_FOREST_PIECES = [
    "feature", "threshold", "left/right", "value", "value dtype", "class_id",
    "node_probability", "tree order", "base_score", "objective",
    "num_features", "num_classes",
]


def _edit(forest, piece) -> None:
    """Change one piece of ``forest`` in place."""
    tree = next(t for t in forest.trees if t.num_nodes > 1)
    if piece == "feature":
        tree.feature[0] = (tree.feature[0] + 1) % forest.num_features
    elif piece == "threshold":
        tree.threshold[0] = np.nextafter(tree.threshold[0], np.inf)
    elif piece == "left/right":
        tree.left[0], tree.right[0] = tree.right[0], tree.left[0]
    elif piece == "value":
        tree.value[-1] += 1.0
    elif piece == "value dtype":
        tree.value = tree.value.astype(np.float32)
    elif piece == "class_id":
        tree.class_id = 1
    elif piece == "node_probability":
        tree.node_probability = np.full(tree.num_nodes, 0.5)
    elif piece == "tree order":
        forest.trees.reverse()
    else:
        setattr(forest, piece, {
            "base_score": forest.base_score + 0.25,
            "objective": "binary:logistic",
            "num_features": forest.num_features + 1,
            "num_classes": 2,
        }[piece])


@pytest.mark.parametrize("piece", _FOREST_PIECES)
def test_every_forest_piece_moves_the_fingerprint(forest, piece):
    before = model_fingerprint(forest), model_fingerprint(forest, Schedule())
    _edit(forest, piece)
    after = model_fingerprint(forest), model_fingerprint(forest, Schedule())
    assert before[0] != after[0] and before[1] != after[1]


def test_node_probabilities_absent_present_changed_all_differ(forest):
    """No memo: ``populate_node_probabilities`` mutates trees in place and
    the next fingerprint sees it."""
    rows = np.random.default_rng(1).normal(size=(200, forest.num_features))
    absent = model_fingerprint(forest)
    populate_node_probabilities(forest, rows)
    present = model_fingerprint(forest)
    forest.trees[0].node_probability[-1] += 0.125
    assert len({absent, present, model_fingerprint(forest)}) == 3


#: a non-default value for every Schedule field
_SCHEDULE_EDITS = {
    "tile_size": 4, "tiling": "basic", "loop_order": "one-row",
    "pad_and_unroll": False, "pad_max_slack": 3, "peel_walk": False,
    "interleave": 2, "layout": "array", "alpha": 0.1, "beta": 0.8,
    "parallel": 2, "row_block": 64, "reorder": False, "compact_walks": False,
    "precision": "float32", "profile": True,
    "verify": True, "backend": "numpy_jit", "pgo": 2,
}


def test_schedule_edits_cover_every_field():
    assert set(_SCHEDULE_EDITS) == {f.name for f in fields(Schedule)}


@pytest.mark.parametrize("name", sorted(_SCHEDULE_EDITS))
def test_every_schedule_field_moves_the_fingerprint(forest, name):
    edited = Schedule().with_(**{name: _SCHEDULE_EDITS[name]})
    assert model_fingerprint(forest, edited) != model_fingerprint(forest, Schedule())


@pytest.mark.parametrize("probabilities", [False, True], ids=["plain", "probabilities"])
def test_serialization_round_trips_keep_the_fingerprint(forest, tmp_path, probabilities):
    if probabilities:
        populate_node_probabilities(
            forest, np.random.default_rng(2).normal(size=(100, forest.num_features))
        )
    schedule = Schedule(tile_size=4, backend="numpy_jit", pgo="auto")
    want = model_fingerprint(forest, schedule)
    forest.save(str(tmp_path / "forest.json"))
    for copy in (Forest.from_dict(forest.to_dict()), Forest.load(str(tmp_path / "forest.json"))):
        assert model_fingerprint(copy, Schedule.from_dict(schedule.to_dict())) == want


# ----------------------------------------------------------------------
# Byte-identity with the pre-refactor compiler
# ----------------------------------------------------------------------

#: (source sha256 prefix, fingerprint prefix) for the seed-42 fuzz forest.
#: The source hashes are the NumPy emitter's, so the schedules name it.
#: They were recorded before the backend interface existed and re-pinned
#: once, by dispatch-lean emission: the emitter writes
#: ``buf.take(idx, axis, out, 'clip')`` for ``_np.take(..., mode='clip',
#: out=...)``, passes ufunc ``out`` positionally, moves the movemask
#: constants into a source prelude and binds a chunk's scratch views from
#: the arena's memo — every kernel's text changed, its outputs did not.
#: Batch-adaptive jamming added the fourth, which pins the widened loop
#: (the 5-tree group under interleave=2 steps by
#: ``K = 2 * max(1, min(4096 // (max(1, B) * 2), 3))`` and accumulates per
#: 2-tree sub-chunk). No refactor of the identity may move a source hash.
#: The fingerprints were re-pinned when ``model_fingerprint`` moved from
#: the JSON of ``Forest.to_dict()`` plus ``repr(schedule)`` (which hid
#: ``backend`` and ``pgo``) to the packed node arrays plus the JSON of the
#: whole ``Schedule.to_dict()``; they now depend on the backend field.
#: They moved once more when the ``traversal`` field was retired, because
#: ``Schedule.to_dict()`` lost that key.
_BASELINES = [
    (Schedule(backend="numpy_jit"), "c9c092ce91789df7", "c36999a45e8b1ba2"),
    (
        Schedule.scalar_baseline().with_(backend="numpy_jit"),
        "43d99216a31ce9dc",
        "768b8fa3435a3019",
    ),
    (
        Schedule(tile_size=4, layout="array", precision="float32", backend="numpy_jit"),
        "1b71ce1679ecce9e",
        "39a6339a69baf23c",
    ),
    (Schedule(interleave=2, backend="numpy_jit"), "810c628e0018a8d6", "c104f072a1d1b0db"),
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
    assert model_fingerprint(forest, schedule.with_(backend=DEFAULT_BACKEND))[:16] != fingerprint
    assert predictor.fingerprint[:16] == fingerprint
