"""AOT artifact round-trips (PR6 tentpole).

The contract under test: ``export_artifact`` → ``load_artifact`` in a
**fresh process** (no shared module state, no warm code cache) produces an
executor whose predictions are *bitwise equal* to the in-process kernel,
across the Table-II schedule grid and under every code-generating backend
this machine runs (``conftest.KERNEL_BACKENDS``); and a damaged artifact — truncated
buffer, edited kernel, version bump, missing file — is rejected whole with
:class:`~repro.errors.ArtifactError` before any kernel runs.

The subprocess check batches every grid point through one interpreter
launch: the child knows only the artifact paths, loads each one, predicts,
and writes an ``.npz`` the parent compares against in-process results.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_BACKENDS
from repro.api import compile_model
from repro.backend.aot import (
    ARTIFACT_FORMAT_VERSION,
    artifact_fingerprint,
    export_artifact,
    load_artifact,
)
from repro.config import Schedule
from repro.errors import ArtifactError
from repro.verify.fuzz import random_fuzz_forest

#: reduced Table-II grid: every axis that changes the generated kernel
#: (tile size, tiling, layout, precision, loop order, interleave/pad/peel)
#: is exercised by at least one point
GRID = [
    Schedule(),
    Schedule.scalar_baseline(),
    Schedule(tile_size=2, tiling="basic", layout="array"),
    Schedule(tile_size=4, layout="array", precision="float32"),
    Schedule(tile_size=8, tiling="hybrid", alpha=0.075, interleave=8),
    Schedule(loop_order="one-row", tile_size=2, interleave=2),
    Schedule(pad_and_unroll=False),
    Schedule(profile=True),
    Schedule(precision="int16"),
    Schedule(precision="int8", tile_size=4, layout="array"),
    Schedule(precision="int8", loop_order="one-row"),
]
#: the default backend resolves the float points above to the native walker
#: where a toolchain exists; their NumPy kernels round-trip by name
GRID += [
    schedule.with_(backend="numpy_jit")
    for schedule in GRID
    if schedule.precision.startswith("float") and not schedule.profile
]


@pytest.fixture(scope="module")
def forest():
    return random_fuzz_forest(np.random.default_rng(7), num_trees=9, max_depth=5)


@pytest.fixture(scope="module")
def rows(forest):
    return np.random.default_rng(8).normal(size=(65, forest.num_features))


@pytest.fixture
def artifact(tmp_path, forest):
    return export_artifact(forest, tmp_path / "artifact", Schedule())


# ----------------------------------------------------------------------
# In-process round-trip
# ----------------------------------------------------------------------

def test_roundtrip_in_process(tmp_path, forest, rows):
    for backend in KERNEL_BACKENDS:
        predictor = compile_model(forest, Schedule(backend=backend))
        out = export_artifact(predictor, tmp_path / backend)
        loaded = load_artifact(out)
        np.testing.assert_array_equal(
            loaded.raw_predict(rows), predictor.raw_predict(rows)
        )
        np.testing.assert_array_equal(loaded.predict(rows), predictor.predict(rows))
        assert loaded.source == predictor.source
        assert loaded.manifest["kernel_backend"] == backend
        assert loaded.fingerprint == predictor.fingerprint
        assert loaded.is_artifact
        assert loaded.backend_name == "aot_export"
        assert loaded.memory_bytes() > 0
        assert artifact_fingerprint(out) == predictor.fingerprint


def test_export_refuses_nonempty_dir(tmp_path, forest):
    export_artifact(forest, tmp_path / "a", Schedule())
    with pytest.raises(ArtifactError, match="not empty"):
        export_artifact(forest, tmp_path / "a", Schedule())
    # overwrite=True replaces in place
    export_artifact(forest, tmp_path / "a", Schedule(), overwrite=True)
    load_artifact(tmp_path / "a")


def test_profile_schedule_roundtrips_with_recorder(tmp_path, forest, rows):
    out = export_artifact(forest, tmp_path / "p", Schedule(profile=True))
    loaded = load_artifact(out)
    loaded.raw_predict(rows)
    counters = loaded.profile_counters()
    assert counters and counters.get("rows", 0) >= rows.shape[0]


def test_artifact_exported_before_lean_emission_still_loads(forest, rows):
    """``tests/data/aot_pr14`` was exported at PR14 (a67b05a), before the
    arena emitter went dispatch-lean: its stored kernel slices the arena's
    flat buffers by name (``_A.f0[:n].reshape(...)``, ``arena.ensure(B)``)
    and spells its movemask constants inline. The format version did not
    move, so it must load and agree bitwise with today's compile of the same
    forest (the fixture of this module, int8 with a guarded loop). Its
    ``schedule.json`` still carries the retired ``"scratch": "arena"``
    entry, and its manifest fingerprint hashed that token: the schedule
    must come back equal, the fingerprint is no longer comparable."""
    loaded = load_artifact(Path(__file__).parent / "data" / "aot_pr14")
    assert "_A.f0[:" in loaded.source and "_np.take(" in loaded.source
    assert loaded.schedule == Schedule(
        precision="int8", pad_and_unroll=False, pgo=2, backend="numpy_jit"
    )
    predictor = compile_model(forest, loaded.schedule)
    assert "_A.f0[:" not in predictor.source
    for batch in (1, 7, 65):
        np.testing.assert_array_equal(
            loaded.raw_predict(rows[:batch]), predictor.raw_predict(rows[:batch])
        )


# ----------------------------------------------------------------------
# Fresh-process round-trip across the grid (one subprocess for all points)
# ----------------------------------------------------------------------

_CHILD = """
import json, sys
import numpy as np
from repro.backend.aot import load_artifact

spec = json.load(open(sys.argv[1]))
rows = np.load(spec["rows"])
out = {}
for name, path in spec["artifacts"].items():
    p = load_artifact(path)
    out[name] = p.raw_predict(rows)
np.savez(spec["out"], **out)
"""


def test_roundtrip_bitwise_equal_in_subprocess(tmp_path, forest, rows):
    expected = {}
    artifacts = {}
    for i, schedule in enumerate(GRID):
        name = f"s{i}"
        expected[name] = compile_model(forest, schedule).raw_predict(rows)
        artifacts[name] = str(export_artifact(forest, tmp_path / name, schedule))

    rows_path = tmp_path / "rows.npy"
    np.save(rows_path, rows)
    spec = {
        "rows": str(rows_path),
        "artifacts": artifacts,
        "out": str(tmp_path / "preds.npz"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(spec_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    got = np.load(tmp_path / "preds.npz")
    assert set(got.files) == set(expected)
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name], err_msg=name)


# ----------------------------------------------------------------------
# Rejection: corruption, truncation, version skew
# ----------------------------------------------------------------------

def test_missing_directory_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="does not exist"):
        load_artifact(tmp_path / "nope")


def test_directory_without_manifest_rejected(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ArtifactError, match="MANIFEST"):
        load_artifact(tmp_path / "empty")


def test_corrupted_manifest_rejected(artifact):
    (artifact / "MANIFEST.json").write_text("{not json")
    with pytest.raises(ArtifactError, match="corrupted"):
        load_artifact(artifact)


def test_version_mismatch_rejected(artifact):
    manifest = json.loads((artifact / "MANIFEST.json").read_text())
    manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
    (artifact / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="format version"):
        load_artifact(artifact)
    with pytest.raises(ArtifactError, match="format version"):
        artifact_fingerprint(artifact)


def test_tampered_kernel_rejected(artifact):
    kernel = artifact / "kernel.py"
    kernel.write_text(kernel.read_text() + "\n# tampered\n")
    with pytest.raises(ArtifactError, match="corrupted"):
        load_artifact(artifact)


def test_truncated_buffer_rejected(artifact):
    buffers = sorted((artifact / "buffers").glob("*.npy"))
    assert buffers
    data = buffers[0].read_bytes()
    buffers[0].write_bytes(data[: len(data) // 2])
    with pytest.raises(ArtifactError, match="corrupted"):
        load_artifact(artifact)


def test_missing_buffer_rejected(artifact):
    buffers = sorted((artifact / "buffers").glob("*.npy"))
    buffers[0].unlink()
    with pytest.raises(ArtifactError, match="missing"):
        load_artifact(artifact)


def _rewrite_schedule(artifact, **updates):
    """Edit ``schedule.json`` the way a different build would have written
    it, keeping the manifest's content hash consistent."""
    path = artifact / "schedule.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **updates}))
    manifest = json.loads((artifact / "MANIFEST.json").read_text())
    manifest["files"]["schedule.json"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (artifact / "MANIFEST.json").write_text(json.dumps(manifest))


def test_unreadable_schedule_is_version_skew(artifact):
    """An artifact compiled by the retired alloc emitter, or under a knob
    this build does not know: ``ArtifactError``, never the loader's inner
    ``ScheduleError``."""
    _rewrite_schedule(artifact, scratch="arena")
    load_artifact(artifact)  # the surviving value still loads
    _rewrite_schedule(artifact, scratch="alloc")
    with pytest.raises(ArtifactError, match="retired.*re-export"):
        load_artifact(artifact)
    _rewrite_schedule(artifact, scratch="arena", from_the_future=1)
    with pytest.raises(ArtifactError, match="from_the_future"):
        load_artifact(artifact)


def test_manifest_without_arena_spec_rejected(artifact):
    manifest = json.loads((artifact / "MANIFEST.json").read_text())
    manifest["arena"] = None  # what an alloc-mode export used to record
    (artifact / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="arena spec"):
        load_artifact(artifact)


# ----------------------------------------------------------------------
# Serving integration: ModelServer.register(artifact=...)
# ----------------------------------------------------------------------

def test_server_serves_artifact_without_compiling(tmp_path, forest, rows):
    from repro.serve import ModelServer

    out = export_artifact(forest, tmp_path / "a", Schedule())
    expected = compile_model(forest, Schedule()).predict(rows)
    with ModelServer() as server:
        session = server.register("m", artifact=str(out))
        assert session.forest is None
        assert getattr(session.predictor, "is_artifact", False)
        np.testing.assert_array_equal(server.predict("m", rows), expected)
        # Fingerprint-identical re-registration is served from the cache.
        again = server.register("m2", artifact=str(out))
        assert again.cache_hit
        assert again.predictor is session.predictor


def test_server_artifact_coalesces_with_compiled_registration(tmp_path, forest, rows):
    from repro.serve import ModelServer

    out = export_artifact(forest, tmp_path / "a", Schedule())
    with ModelServer() as server:
        compiled = server.register("jit", forest, Schedule())
        loaded = server.register("aot", artifact=str(out))
        # Same fingerprint, different backend: two distinct cache slots.
        assert compiled.fingerprint == loaded.fingerprint
        assert compiled.cache_key != loaded.cache_key
        np.testing.assert_array_equal(
            server.predict("jit", rows), server.predict("aot", rows)
        )


def test_server_register_argument_validation(tmp_path, forest):
    from repro.errors import ServingError
    from repro.serve import ModelServer

    out = export_artifact(forest, tmp_path / "a", Schedule())
    with ModelServer() as server:
        with pytest.raises(ServingError, match="not both"):
            server.register("m", forest, artifact=str(out))
        with pytest.raises(ServingError, match="tune"):
            server.register("m", artifact=str(out), tune=True)
        with pytest.raises(ServingError, match="forest or an artifact"):
            server.register("m")


def test_server_rejects_corrupted_artifact(tmp_path, forest):
    from repro.serve import ModelServer

    out = export_artifact(forest, tmp_path / "a", Schedule())
    (out / "kernel.py").write_text("tampered = True\n")
    with ModelServer() as server:
        with pytest.raises(ArtifactError, match="corrupted"):
            server.register("m", artifact=str(out))
        assert "m" not in server


# ----------------------------------------------------------------------
# The cross-backend differential checker
# ----------------------------------------------------------------------

def test_compare_backend_case_roundtrips_export_backend(forest, rows):
    from repro.verify.backends import compare_backend_case

    schedule = Schedule(backend="aot_export", verify=True)
    assert compare_backend_case(forest, schedule, rows) is None


def test_manifest_missing_key_rejected(artifact):
    manifest = json.loads((artifact / "MANIFEST.json").read_text())
    del manifest["fingerprint"]
    (artifact / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_artifact(artifact)
