"""One request, one call: the walker module's ``predict`` entry point.

A native executor's ``raw_predict`` is ``np.empty`` plus one call into the
extension module, which checks the rows and the output, scans for NaN,
fills the base score and walks without the GIL. ``predict_block`` (the
stub's kernel) makes the same call without the fill and the scan. This
file pins that every refusal the entry can make is the typed error the
NumPy path raises, on both backends and on every path that builds an
executor; that every input the entry refuses but ``_check`` can coerce
comes back bitwise; and, calling the module directly, that each check in
its C code refuses what it is there to refuse.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_BACKENDS, random_forest_model
from repro.api import compile_model
from repro.backend import native
from repro.backend.aot import export_artifact, load_artifact
from repro.config import Schedule
from repro.errors import BackendError, ExecutionError

NUM_FEATURES = 6
DATA = Path(__file__).parent / "data"

needs_toolchain = pytest.mark.skipif(
    "native" not in KERNEL_BACKENDS, reason="no C toolchain on this machine"
)


def _dyadic(model):
    """Leaves on multiples of 1/64, so any summation order gives the same
    bits and the backends can be compared with ``array_equal``."""
    for tree in model.trees:
        tree.value = np.round(tree.value * 64.0) / 64.0
    return model


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(51)
    return {
        "binary": _dyadic(random_forest_model(rng, 11, 5, NUM_FEATURES)),
        "multiclass": _dyadic(random_forest_model(rng, 9, 5, NUM_FEATURES, num_classes=3)),
    }


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(52).normal(size=(97, NUM_FEATURES))


def _executors(model, backend, precision, tmp_path, validate_inputs=True):
    """The same model compiled in-process and loaded back from an artifact."""
    schedule = Schedule(backend=backend, precision=precision, tile_size=4)
    compiled = compile_model(model, schedule, validate_inputs=validate_inputs)
    path = export_artifact(compiled, tmp_path / f"{backend}-{precision}")
    return {
        "compiled": compiled,
        "artifact": load_artifact(path, validate_inputs=validate_inputs),
    }


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("kind", ["binary", "multiclass"])
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_request_matrix(models, rows, tmp_path, backend, kind, precision):
    model = models[kind]
    element = np.float32 if precision == "float32" else np.float64
    exact = rows.astype(element)
    want = model.raw_predict(exact.astype(np.float64))
    shape = want.shape
    for origin, executor in _executors(model, backend, precision, tmp_path).items():
        where = (origin, backend, kind, precision)
        assert executor.backend_name == backend, where
        got = executor.raw_predict(exact)
        assert got.shape == shape and got.dtype == np.float64, where
        if precision == "float64":
            assert np.array_equal(got, want), where
        else:  # float32 leaves, summed in double: leaf rounding only
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
        # coerced: the other element type, big-endian, Fortran order,
        # strided, a list
        other = exact.astype(np.float64 if precision == "float32" else np.float32)
        swapped = exact.astype(exact.dtype.newbyteorder(">"))
        strided = np.repeat(exact, 2, axis=0)[::2]
        for coerced in (other, swapped, np.asfortranarray(exact), strided, exact.tolist()):
            assert np.array_equal(executor.raw_predict(coerced), executor.raw_predict(
                np.ascontiguousarray(coerced, dtype=element))), where
        # zero rows: a correctly shaped empty output, still width-checked
        assert executor.raw_predict(exact[:0]).shape == (0, *shape[1:]), where
        with pytest.raises(ExecutionError, match="rows must be"):
            executor.raw_predict(exact[:0, :-1])
        # wrong width, 1-D rows, a scalar
        for bad in (exact[:, :-1], exact[0], np.float64(1.0)):
            with pytest.raises(ExecutionError, match=rf"rows must be \(n, {NUM_FEATURES}\)"):
                executor.raw_predict(bad)
        # NaN in any row of any batch, under either thread count
        poisoned = exact.copy()
        poisoned[40, 3] = np.nan
        for threads in (1, 2):
            with pytest.raises(ExecutionError, match="NaN inputs are unsupported"):
                executor.raw_predict(poisoned, threads=threads)
        # threads=2 is threads=1, bit for bit
        assert np.array_equal(executor.raw_predict(exact, threads=2), got), where
        assert np.array_equal(executor.raw_predict(strided, threads=2), got), where
        # predict_block adds the trees to what out holds
        out = np.full((len(exact), model.num_classes), 0.25)
        executor.kernel(np.ascontiguousarray(exact), out)
        assert np.array_equal(
            out.reshape(shape) - 0.25, executor.raw_predict(exact) - model.base_score
        ), where


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_nan_rows_walk_when_validation_is_off(models, rows, tmp_path, backend):
    """``validate_inputs=False`` skips the scan: NaN fails every predicate,
    on both backends alike."""
    poisoned = rows.copy()
    poisoned[::7, 2] = np.nan
    model = models["binary"]
    reference = compile_model(
        model, Schedule(backend="numpy_jit", tile_size=4), validate_inputs=False
    ).raw_predict(poisoned)
    for origin, executor in _executors(
        model, backend, "float64", tmp_path, validate_inputs=False
    ).items():
        assert np.array_equal(executor.raw_predict(poisoned), reference), origin
        assert np.array_equal(executor.raw_predict(poisoned, threads=2), reference), origin


@needs_toolchain
@pytest.mark.parametrize("origin", ["compiled", "artifact"])
def test_predict_block_refuses_what_it_cannot_read_or_write(models, rows, tmp_path, origin):
    """The stub's ``predict_block`` coerces nothing: rows or an output the
    entry refuses are an ``ExecutionError`` and ``out`` is left as it was."""
    binary = _executors(models["binary"], "native", "float64", tmp_path)[origin]
    multi = _executors(models["multiclass"], "native", "float64", tmp_path / "m")[origin]
    good = np.ascontiguousarray(rows[:8])
    read_only = np.zeros((8, 1))
    read_only.flags.writeable = False
    cases = [
        (binary, rows[:8].astype(np.float32), np.zeros((8, 1))),  # element type
        (binary, rows[:8].astype(np.int64), np.zeros((8, 1))),    # same size, integer
        (binary, rows[:8].astype(">f8"), np.zeros((8, 1))),       # big-endian
        (binary, rows[:16:2], np.zeros((8, 1))),                  # strided rows
        (binary, np.asfortranarray(rows[:8]), np.zeros((8, 1))),  # Fortran rows
        (binary, rows[:8, :-1].copy(), np.zeros((8, 1))),         # too narrow
        (binary, good[0], np.zeros((1, 1))),                      # 1-D rows
        (binary, good.tolist(), np.zeros((8, 1))),                # not a buffer
        (binary, good, read_only),                                # read-only out
        (binary, good, np.zeros((8, 1), dtype=np.float32)),       # float32 out
        (binary, good, np.zeros((8, 2))[:, :1]),                  # strided out
        (binary, good, np.zeros((4, 1))),                         # out too short
        (binary, good, np.zeros(4)),                              # 1-D out too short
        (binary, good, np.zeros(8, dtype=np.int64)),              # integer out
        (binary, good, np.zeros((8, 2))),                         # out too wide
        (binary, good, [[0.0]] * 8),                              # out not a buffer
        (multi, good, np.zeros(8)),                               # 1-D out, 3 classes
    ]
    for executor, bad_rows, bad_out in cases:
        before = np.array(bad_out, copy=True)
        with pytest.raises(ExecutionError, match="native kernel wants"):
            executor.kernel(bad_rows, bad_out)
        assert np.array_equal(np.asarray(bad_out), before)
    # both output shapes a one-class model may be given are written
    for out in (np.zeros((8, 1)), np.zeros(8)):
        binary.kernel(good, out)
        assert np.array_equal(out.reshape(-1), binary.raw_predict(good))


# ----------------------------------------------------------------------
# The module, called directly
# ----------------------------------------------------------------------

def _table(num_features: int, num_classes: int, *groups, elem_size: int = 8) -> np.ndarray:
    """A packed ``repro_model`` over ``groups`` (each ``{field: value}``)."""
    header = dict(num_groups=len(groups), lut_cols=1, elem_size=elem_size,
                  num_features=num_features, num_classes=num_classes)
    return np.array(
        [header.get(name, 0) for name in native._MODEL_FIELDS]
        + [group.get(name, 0) for group in groups for name in native._GROUP_FIELDS],
        dtype=np.int64,
    )


@needs_toolchain
def test_entry_argument_checks():
    module = native.load_library().module
    empty = module.model(_table(2, 1), None)  # no groups: the base score alone
    rows, out = np.ones((3, 2)), np.zeros(3)
    assert module.predict(empty, rows, out, 0.5, True) == module.WALKED
    assert out.tolist() == [0.5] * 3
    assert module.predict(empty, rows, out, None, True) == module.WALKED
    assert out.tolist() == [0.5] * 3  # None: no fill, and nothing to add
    with pytest.raises(TypeError, match="5 arguments"):
        module.predict(empty, rows, out, 0.5)
    with pytest.raises(ValueError, match="PyCapsule"):
        module.predict(object(), rows, out, 0.5, True)
    with pytest.raises(TypeError):
        module.predict(empty, rows, out, "base", True)

    class Undecided:
        def __bool__(self):
            raise RuntimeError("no answer")

    with pytest.raises(RuntimeError, match="no answer"):
        module.predict(empty, rows, out, 0.5, Undecided())
    # a refusal writes nothing, whatever is refused
    for bad_rows, bad_out in [([[1.0, 2.0]] * 3, out), (rows, [0.0] * 3)]:
        assert module.predict(empty, bad_rows, bad_out, 9.0, True) == module.REFUSED_BUFFERS
        assert out.tolist() == [0.5] * 3
    nan = rows.copy()
    nan[2, 1] = np.nan
    assert module.predict(empty, nan, out, 9.0, True) == module.REFUSED_NAN
    assert out.tolist() == [0.5] * 3
    assert module.predict(empty, nan, out, 9.0, False) == module.WALKED
    assert out.tolist() == [9.0] * 3
    # numpy exports a 1-D float64 array's stride, 8, where a rank-2 buffer's
    # width would be: for eight features only the rank check refuses it
    eight = module.model(_table(8, 1), None)
    assert module.predict(eight, np.ones(8), np.zeros(8), 0.0, False) == module.REFUSED_BUFFERS
    assert module.predict(eight, np.ones((1, 8)), np.zeros(1), 0.0, False) == module.WALKED
    # float32 rows for a float32 model, scanned as float32
    single = module.model(_table(2, 1, elem_size=4), None)
    assert module.predict(single, rows.astype(np.float32), out, 1.0, True) == module.WALKED
    assert module.predict(single, rows, out, 1.0, True) == module.REFUSED_BUFFERS
    assert module.predict(single, nan.astype(np.float32), out, 1.0, True) == module.REFUSED_NAN


@needs_toolchain
def test_entry_refuses_a_lane_width_it_has_no_walker_for(models, rows):
    module = native.load_library().module
    odd = module.model(_table(2, 1, dict(kind=0, width=3)), None)
    assert module.predict(odd, np.ones((1, 2)), np.zeros(1), 0.0, True) == module.REFUSED_MODEL
    # and both callers say so
    predictor = compile_model(models["binary"], Schedule(backend="native"))
    odd = module.model(_table(NUM_FEATURES, 1, dict(kind=0, width=3)), None)
    walk = predictor.kernel.__globals__["_walk"]  # what predict_block calls
    walk.__closure__[walk.__code__.co_freevars.index("model")].cell_contents = odd
    with pytest.raises(ExecutionError, match="refused the bound model"):
        predictor.kernel(np.ascontiguousarray(rows[:1]), np.zeros((1, 1)))
    predictor._model = odd
    with pytest.raises(ExecutionError, match="refused the bound model"):
        predictor.raw_predict(rows[:1])


@needs_toolchain
def test_model_capsule_checks_the_packed_table():
    module = native.load_library().module
    good = _table(2, 1, dict(kind=2))
    capsule = module.model(good, (good,))
    assert type(capsule).__name__ == "PyCapsule"
    with pytest.raises(TypeError, match="2 arguments"):
        module.model(good)
    with pytest.raises(TypeError):
        module.model([0] * 8, None)  # not a buffer
    read_only = good.copy()
    read_only.flags.writeable = False
    # each table is refused by one check alone
    bad_tables = {
        "read-only": (read_only, "read-only"),
        "not C-contiguous": (np.repeat(good, 2)[::2], "contiguous"),
        "4-byte items": (good.view(np.int32), "packed"),
        "shorter than a model": (good[:7], "packed"),
        "group count too high": (
            _table(2, 1) + np.eye(1, 8, 1, dtype=np.int64).ravel(), "packed"),
        "trailing bytes": (np.append(good, 0), "packed"),
        "element size 2": (_table(2, 1, elem_size=2), "packed"),
    }
    for what, (table, reason) in bad_tables.items():
        with pytest.raises(ValueError, match=reason):
            module.model(table, None)
            pytest.fail(what)


# ----------------------------------------------------------------------
# Artifacts exported before the entry point existed
# ----------------------------------------------------------------------

@needs_toolchain
def test_native_artifact_exported_before_the_entry_point_loads_bitwise():
    """``tests/data/aot_native_3ae495f`` is a native float64 artifact exported
    at 3ae495f, when ``predict_block`` was a ctypes call. Its stub and
    ``bind``'s keywords are unchanged, so it binds to the extension module
    and serves the reference margins stored beside it (dyadic leaves: any
    summation order gives these bits)."""
    reference = np.load(DATA / "aot_native_3ae495f_reference.npz")
    rows, margins = reference["rows"], reference["margins"]
    loaded = load_artifact(DATA / "aot_native_3ae495f")
    assert loaded.backend_name == "native"
    assert loaded._entry is not None
    assert np.array_equal(loaded.raw_predict(rows), margins)
    assert np.array_equal(loaded.raw_predict(rows, threads=2), margins)
    assert np.array_equal(loaded.raw_predict(rows[5:6]), margins[5:6])


# ----------------------------------------------------------------------
# A compiler without Python headers
# ----------------------------------------------------------------------

@needs_toolchain
def test_missing_python_headers_fall_back_to_numpy(models, tmp_path, monkeypatch):
    lookups = []

    def no_headers() -> str:
        lookups.append(1)
        return str(tmp_path / "include")

    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "walker-cache")
    monkeypatch.setattr(native, "_python_include", no_headers)
    native.reset()
    try:
        with pytest.raises(BackendError, match="Python.h"):
            native.load_library()
        with pytest.raises(BackendError, match="Python.h"):
            native.load_library()
        assert len(lookups) == 1  # remembered, not probed again
        predictor = compile_model(models["binary"])
        assert predictor.backend_name == "numpy_jit"
        assert "Python.h" in predictor.trace.find("backend").stats["fallback"]
        assert not (tmp_path / "walker-cache").exists()  # nothing built
    finally:
        native.reset()
