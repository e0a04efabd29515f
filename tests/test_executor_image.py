"""One executor image, two stores.

A compiled model is its kernel source plus ``model_buffers(lir)``. Both
stores of that image — an AOT artifact directory and shared-memory
segments — rebuild it through one routine that binds the kernel with the
same function an in-process compile uses. The contract under test: for
every store and every kernel backend this machine runs, the rebuilt
executor is the compiled one — bitwise margins, the same fingerprint, the
same ``backend_name`` and resident bytes equal to the image's buffers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import KERNEL_BACKENDS, random_forest_model
from repro.api import compile_model
from repro.backend.aot import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactPredictor,
    export_artifact,
    load_artifact,
)
from repro.backend.codegen import model_buffers
from repro.backend.shm import attach_shared, export_shared
from repro.config import Schedule

STORES = ("artifact", "shm")


@pytest.fixture(scope="module")
def forest():
    return random_forest_model(np.random.default_rng(41), 11, 5, 6, num_classes=3)


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(42).normal(size=(57, 6))


@contextmanager
def rebuilt(store, predictor, tmp_path):
    """``predictor`` exported to ``store`` and rebuilt from it."""
    if store == "artifact":
        yield load_artifact(export_artifact(predictor, tmp_path / "artifact"))
        return
    with export_shared(predictor) as handle:
        executor = attach_shared(handle.manifest)
        try:
            yield executor
        finally:
            executor.close()


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
@pytest.mark.parametrize("store", STORES)
def test_rebuilt_executor_is_the_compiled_one(tmp_path, forest, rows, store, backend):
    predictor = compile_model(forest, Schedule(tile_size=4, backend=backend))
    assert predictor.backend_name == backend
    with rebuilt(store, predictor, tmp_path) as executor:
        assert isinstance(executor, ArtifactPredictor) and executor.is_artifact
        assert np.array_equal(executor.raw_predict(rows), predictor.raw_predict(rows))
        assert executor.fingerprint == predictor.fingerprint
        assert executor.backend_name == predictor.backend_name
        assert executor.source == predictor.source
        assert executor.memory_bytes() == sum(
            array.nbytes for array in model_buffers(predictor.lir).values()
        )


@pytest.mark.parametrize("store", STORES)
def test_rebuilt_profiling_kernel_counts_rows(tmp_path, forest, rows, store):
    predictor = compile_model(forest, Schedule(profile=True, backend="numpy_jit"))
    with rebuilt(store, predictor, tmp_path) as executor:
        before = executor.profile_counters().get("rows", 0)
        executor.raw_predict(rows)
        assert executor.profile_counters()["rows"] == before + rows.shape[0]


@pytest.mark.parametrize(
    "schedule",
    [
        Schedule(),
        Schedule(profile=True),
        Schedule(pgo=2, backend="numpy_jit"),
        Schedule(tile_size=4, layout="array", precision="float32"),
        Schedule(precision="int8"),
    ],
    ids=["default", "profile", "pgo", "array-f32", "int8"],
)
def test_model_buffers_hold_only_arrays(forest, schedule):
    buffers = model_buffers(compile_model(forest, schedule).lir)
    assert buffers and all(isinstance(a, np.ndarray) for a in buffers.values())
    assert not {"_np", "_new_arena", "_P"} & set(buffers)


def test_artifact_manifest_keys_are_pinned(tmp_path, forest):
    assert ARTIFACT_FORMAT_VERSION == 2
    out = export_artifact(compile_model(forest), tmp_path / "a")
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert set(manifest) == {
        "format_version", "kernel_backend", "fingerprint", "model", "arena",
        "quantization", "buffers", "files",
    }
    assert set(manifest["model"]) == {
        "num_features", "num_classes", "num_trees", "base_score", "objective",
    }
    assert all(set(entry) == {"file", "dtype", "shape"} for entry in manifest["buffers"].values())


def test_shared_manifest_is_the_artifact_description_plus_its_store(forest):
    with export_shared(compile_model(forest)) as handle:
        manifest = handle.manifest
        assert set(manifest) == {
            "kernel_backend", "fingerprint", "model", "arena", "quantization",
            "buffers", "source", "schedule",
        }
        assert all(
            set(entry) == {"segment", "nbytes", "dtype", "shape"}
            for entry in manifest["buffers"].values()
        )


def test_closing_an_artifact_loaded_from_disk_is_a_no_op(tmp_path, forest, rows):
    predictor = compile_model(forest)
    executor = load_artifact(export_artifact(predictor, tmp_path / "a"))
    executor.close()
    assert np.array_equal(executor.raw_predict(rows), predictor.raw_predict(rows))
