"""The native backend: default resolution, the build cache, memory safety.

What the differential suites (``test_differential_grid``, the AOT and
shared-memory round-trips, ``repro.verify``) establish — the C walker
computes what the NumPy kernels compute — is not repeated here. This file
pins what only the native backend has:

* the resolution rule: ``native`` when a toolchain built the walker and the
  walker covers the schedule, ``numpy_jit`` otherwise, every fallback
  visible with its reason; explicit ``backend="native"`` never falls back;
* the build: cached per machine, atomic under a race, nothing left behind
  by a failing compiler, a cache directory it cannot trust refused;
* safety: model-derived indices refused at bind time on every path that
  binds (in-process, artifact, shared memory), hostile rows clamped;
* determinism: a row's margins are bitwise independent of its batch, of
  ``row_block`` and of the thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_BACKENDS, random_forest_model
from repro.api import compile_model
from repro.autotune.space import TuningSpace, schedule_grid
from repro.backend import native
from repro.backend.aot import export_artifact, load_artifact
from repro.backend.codegen import build_namespace
from repro.backend.registry import get_backend, resolve_backend
from repro.backend.shm import attach_shared, export_shared
from repro.config import Schedule
from repro.errors import ArtifactError, BackendError, ExecutionError
from repro.observe import events as flight
from repro.observe import registry as observe_registry
from repro.serve import ModelServer
from repro.serve.session import InferenceSession

SRC = str(Path(__file__).resolve().parent.parent / "src")
NUM_FEATURES = 7

needs_toolchain = pytest.mark.skipif(
    "native" not in KERNEL_BACKENDS, reason="no C toolchain on this machine"
)


@pytest.fixture(scope="module")
def forest():
    return random_forest_model(np.random.default_rng(31), 23, 6, NUM_FEATURES)


@pytest.fixture(scope="module")
def multiclass():
    return random_forest_model(np.random.default_rng(32), 12, 5, NUM_FEATURES, num_classes=3)


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(33).normal(size=(301, NUM_FEATURES))


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    """An empty walker cache of this test's own; the process-wide library
    memo is dropped around it, so the test decides what loads."""
    cache = tmp_path / "walker-cache"
    monkeypatch.setattr(native, "cache_dir", lambda: cache)
    native.reset()
    yield cache
    native.reset()


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """``gcc`` hidden from ``PATH``."""
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    native.reset()
    yield
    native.reset()


def _fallbacks() -> int:
    return observe_registry.snapshot()["backends"].get("native", {}).get("fallbacks", 0)


def _children() -> set[int]:
    pids: set[int] = set()
    for task in Path("/proc/self/task").glob("*/children"):
        pids.update(int(p) for p in task.read_text().split())
    return pids


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------

@needs_toolchain
def test_default_resolves_to_native(forest, rows):
    predictor = compile_model(forest)
    assert predictor.backend_name == "native"
    assert predictor.schedule.backend == "auto"
    stats = predictor.trace.find("backend").stats
    assert stats["backend"] == "native" and "fallback" not in stats
    assert "repro.backend.native" in predictor.generated_source
    np.testing.assert_allclose(
        predictor.raw_predict(rows), forest.raw_predict(rows), rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize(
    "knobs,reason",
    [
        ({"precision": "int8"}, "precision=int8"),
        ({"precision": "int16"}, "precision=int16"),
        ({"profile": True}, "profile=True"),
        ({"pgo": 2}, "pgo=2"),
        ({"pgo": "auto"}, "pgo=auto"),
        ({"compact_walks": False, "pad_and_unroll": False}, "compact_walks=False"),
        ({"traversal": "quickscorer"}, "traversal=quickscorer"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_uncovered_schedule_falls_back_with_its_reason(forest, rows, knobs, reason):
    before = _fallbacks()
    predictor = compile_model(forest, Schedule(**knobs))
    assert getattr(predictor, "backend_name", "numpy_jit") == "numpy_jit"
    span = predictor.trace.find("backend") or predictor.trace.find("quickscorer")
    assert span.stats["backend"] == "numpy_jit"
    assert reason in span.stats["fallback"]
    assert _fallbacks() == before + 1
    event = flight.recorder.tail(1, kind="backend_fallback")[-1]
    assert event["wanted"] == "native" and event["backend"] == "numpy_jit"
    assert reason in event["reason"]
    # the same schedule, asked for by name, is refused rather than swapped
    with pytest.raises(BackendError, match="cannot build this schedule"):
        compile_model(forest, Schedule(backend="native", **knobs))
    assert predictor.raw_predict(rows).shape == (len(rows),)


def test_no_toolchain_serves_on_numpy(forest, rows, no_compiler):
    before = _fallbacks()
    predictor = compile_model(forest)
    assert predictor.backend_name == "numpy_jit"
    stats = predictor.trace.find("backend").stats
    assert stats["backend"] == "numpy_jit" and "gcc" in stats["fallback"]
    assert _fallbacks() == before + 1
    assert "gcc" in flight.recorder.tail(1, kind="backend_fallback")[-1]["reason"]
    with ModelServer() as server:
        session = server.register("m", forest)
        assert session.predictor.backend_name == "numpy_jit"
        np.testing.assert_allclose(
            server.predict("m", rows), forest.predict(rows), rtol=1e-10, atol=1e-12
        )
    with pytest.raises(BackendError, match="gcc"):
        compile_model(forest, Schedule(backend="native"))
    # asking by name for the backend that serves still works
    assert compile_model(forest, Schedule(backend="numpy_jit")).backend_name == "numpy_jit"


def test_named_backends_resolve_to_themselves():
    for name in ("numpy_jit", "aot_export"):
        assert resolve_backend(Schedule(backend=name, precision="int8")).name == name


def test_schedule_gained_no_field():
    assert len(fields(Schedule)) == 20


def test_tuning_space_measures_on_the_base_schedules_backend():
    space = TuningSpace(
        tile_sizes=(1, 8), tilings=("basic",), pad_and_unroll=(True,),
        interleaves=(8,), layouts=("sparse",),
    )
    assert space.size() == 2
    for base in (Schedule(), Schedule(backend="numpy_jit")):
        assert {s.backend for s in schedule_grid(space, base)} == {base.backend}
    both = TuningSpace(backends=("native", "numpy_jit"))
    assert both.size() == 2 * TuningSpace().size()


# ----------------------------------------------------------------------
# The build cache
# ----------------------------------------------------------------------

@needs_toolchain
def test_first_build_is_a_trace_stat_then_a_dlopen(forest, private_cache):
    cold = compile_model(forest).trace.find("backend").stats
    assert cold["native_build_s"] > 0 and cold["native_cache_hit"] is False
    built = list(private_cache.iterdir())
    assert [p.suffix for p in built] == [".so"]
    assert private_cache.stat().st_mode & 0o777 == 0o700
    # later compiles in this process do not even look
    assert "native_build_s" not in compile_model(forest).trace.find("backend").stats
    # a new process (here: a dropped memo) pays a dlopen, never gcc
    native.reset()
    warm = compile_model(forest).trace.find("backend").stats
    assert warm["native_build_s"] == 0 and warm["native_cache_hit"] is True
    assert list(private_cache.iterdir()) == built


@needs_toolchain
def test_failing_compiler_falls_back_and_leaves_nothing(forest, rows, private_cache, monkeypatch):
    monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "--definitely-not-a-gcc-flag"))
    runs = []
    real_run = subprocess.run
    monkeypatch.setattr(
        native.subprocess, "run", lambda *a, **k: (runs.append(a[0]), real_run(*a, **k))[1]
    )
    children = _children()
    predictor = compile_model(forest)
    assert predictor.backend_name == "numpy_jit"
    assert "failed" in predictor.trace.find("backend").stats["fallback"]
    assert list(private_cache.iterdir()) == []  # no object, no temp file
    assert _children() == children
    # the failure is remembered: the next compile does not run gcc again
    attempts = len(runs)
    assert compile_model(forest, Schedule(tile_size=4)).backend_name == "numpy_jit"
    assert len(runs) == attempts
    with pytest.raises(BackendError, match="definitely-not-a-gcc-flag"):
        compile_model(forest, Schedule(backend="native"))
    np.testing.assert_allclose(
        predictor.raw_predict(rows), forest.raw_predict(rows), rtol=1e-10, atol=1e-12
    )


_RACER = """
import sys
from pathlib import Path
from repro.backend import native
native.cache_dir = lambda: Path(sys.argv[1])
library = native.load_library()
print(library.path.name)
"""


@needs_toolchain
def test_two_processes_racing_the_first_build(forest, rows, private_cache):
    env = {"PYTHONPATH": SRC, "PATH": os.environ["PATH"]}
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(private_cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(2)
    ]
    names = set()
    for racer in racers:
        out, err = racer.communicate(timeout=120)
        assert racer.returncode == 0, err
        names.add(out.strip())
    assert len(names) == 1
    assert [p.name for p in private_cache.iterdir()] == [names.pop()]
    # and the file they left is a whole one
    predictor = compile_model(forest, Schedule(backend="native"))
    assert predictor.trace.find("backend").stats["native_cache_hit"] is True
    np.testing.assert_allclose(
        predictor.raw_predict(rows), forest.raw_predict(rows), rtol=1e-10, atol=1e-12
    )


@needs_toolchain
@pytest.mark.parametrize("how", ["group-writable", "world-writable", "other-owner", "symlink"])
def test_untrusted_cache_directory_is_refused(forest, private_cache, monkeypatch, tmp_path, how):
    if how == "symlink":
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        private_cache.symlink_to(tmp_path / "elsewhere")
    else:
        private_cache.mkdir(mode=0o700)
    if how == "group-writable":
        private_cache.chmod(0o770)
    elif how == "world-writable":
        private_cache.chmod(0o707)
    elif how == "other-owner":
        monkeypatch.setattr(native.os, "geteuid", lambda: os.getuid() + 1)
    with pytest.raises(BackendError, match="native cache"):
        native.load_library()
    native.reset()
    predictor = compile_model(forest)
    assert predictor.backend_name == "numpy_jit"
    assert "native cache" in predictor.trace.find("backend").stats["fallback"]
    if how == "symlink":
        assert not list((tmp_path / "elsewhere").iterdir())  # nothing built through it


# ----------------------------------------------------------------------
# Artifacts and shared memory carry the stub
# ----------------------------------------------------------------------

_LOADER = """
import sys
from pathlib import Path
import numpy as np
from repro.backend import native
native.cache_dir = lambda: Path(sys.argv[1])
from repro.backend.aot import load_artifact
predictor = load_artifact(sys.argv[2])
np.save(sys.argv[4], predictor.raw_predict(np.load(sys.argv[3])))
print(native.load_library().build_s > 0)
"""


@needs_toolchain
def test_native_artifact_loads_in_a_fresh_process_and_rebuilds(tmp_path, forest, rows):
    predictor = compile_model(forest, Schedule(backend="native"))
    artifact = export_artifact(predictor, tmp_path / "artifact")
    manifest = json.loads((artifact / "MANIFEST.json").read_text())
    assert manifest["kernel_backend"] == "native"
    assert "repro.backend.native" in (artifact / "kernel.py").read_text()
    np.save(tmp_path / "rows.npy", rows)
    cache = tmp_path / "cache"
    env = {"PYTHONPATH": SRC, "PATH": os.environ["PATH"]}

    def load_elsewhere() -> bool:
        """Load + predict in a new interpreter; whether it had to run gcc."""
        done = subprocess.run(
            [sys.executable, "-c", _LOADER, str(cache), str(artifact),
             str(tmp_path / "rows.npy"), str(tmp_path / "got.npy")],
            capture_output=True, text=True, env=env, timeout=180,
        )
        assert done.returncode == 0, done.stderr
        np.testing.assert_array_equal(
            np.load(tmp_path / "got.npy"), predictor.raw_predict(rows)
        )
        return done.stdout.strip() == "True"

    assert load_elsewhere() is True       # this "machine" never built a walker
    assert load_elsewhere() is False      # now it has one
    for built in cache.iterdir():
        built.unlink()
    assert load_elsewhere() is True       # deleted: rebuilt, not an error


def _corrupt_buffer(artifact: Path, name: str, index: int, value: int) -> None:
    """Overwrite one element of an artifact buffer, keeping the manifest's
    content hash consistent: the file is 'valid', its content is not."""
    path = artifact / "buffers" / f"{name}.npy"
    array = np.load(path)
    array.reshape(-1)[index] = value
    np.save(path, array)
    manifest = json.loads((artifact / "MANIFEST.json").read_text())
    manifest["files"][f"buffers/{name}.npy"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (artifact / "MANIFEST.json").write_text(json.dumps(manifest))


@needs_toolchain
@pytest.mark.parametrize(
    "buffer,value",
    [("cb", 10**9), ("cb", -(10**9)), ("fi", NUM_FEATURES), ("fi", -1), ("sid", 10**6)],
)
def test_artifact_with_an_out_of_range_index_is_refused_at_load(tmp_path, forest, buffer, value):
    predictor = compile_model(forest, Schedule(backend="native", pad_and_unroll=False))
    group = next(g for g in predictor.lir.groups if not g.trivial)
    artifact = export_artifact(predictor, tmp_path / "artifact")
    load_artifact(artifact)
    _corrupt_buffer(artifact, f"g{group.group_id}_{buffer}", 3, value)
    with pytest.raises(ArtifactError, match=f"_{buffer} has values outside"):
        load_artifact(artifact)


@needs_toolchain
def test_shared_segment_with_an_out_of_range_index_is_refused_at_attach(forest, rows):
    predictor = compile_model(forest, Schedule(backend="native"))
    group = next(g for g in predictor.lir.groups if not g.trivial)
    with export_shared(predictor) as handle:
        attached = attach_shared(handle.manifest)
        assert np.array_equal(attached.raw_predict(rows), predictor.raw_predict(rows))
        attached.close()
        meta = handle.manifest["buffers"][f"g{group.group_id}_cb"]
        segment = shared_memory.SharedMemory(name=meta["segment"])
        try:
            np.ndarray(meta["shape"], dtype=meta["dtype"], buffer=segment.buf)[0] = 1 << 40
            with pytest.raises(BackendError, match="_cb has values outside"):
                attach_shared(handle.manifest)
        finally:
            segment.close()


@needs_toolchain
def test_bind_refuses_buffers_that_disagree_with_the_stub(forest):
    predictor = compile_model(forest, Schedule(backend="native"))
    group = next(g for g in predictor.lir.groups if not g.trivial)
    g = f"g{group.group_id}"

    def bound(**edits):
        namespace = {**build_namespace(predictor.lir), **edits}
        exec(compile(predictor.source, "<stub>", "exec"), namespace)

    bound()
    good = build_namespace(predictor.lir)
    with pytest.raises(BackendError, match="is missing"):
        bound(**{f"{g}_cb": None})
    with pytest.raises(BackendError, match=f"{g}_th is float32"):
        bound(**{f"{g}_th": good[f"{g}_th"].astype(np.float32)})
    with pytest.raises(BackendError, match="laneT"):
        bound(**{f"{g}_laneT": good[f"{g}_laneT"] + 1})
    with pytest.raises(BackendError, match="lut of"):
        bound(lut=good["lut"][:-1])
    with pytest.raises(BackendError, match="C-contiguous"):
        bound(**{f"{g}_sid": np.concatenate([good[f"{g}_sid"]] * 2)[::2]})


# ----------------------------------------------------------------------
# Determinism and hostile rows
# ----------------------------------------------------------------------

@needs_toolchain
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("layout", ["sparse", "array"])
def test_row_margins_are_bitwise_independent_of_batch_and_threads(
    forest, multiclass, rows, layout, precision
):
    for model in (forest, multiclass):
        schedule = Schedule(backend="native", layout=layout, precision=precision, tile_size=4)
        predictor = compile_model(model, schedule)
        whole = predictor.raw_predict(rows)
        alone = np.stack([predictor.raw_predict(rows[i : i + 1])[0] for i in range(len(rows))])
        assert np.array_equal(whole, alone)
        assert np.array_equal(predictor.raw_predict(rows[100:177]), whole[100:177])
        assert np.array_equal(predictor.raw_predict(rows, threads=2), whole)
        assert np.array_equal(predictor.raw_predict(rows, threads=3), whole)
        blocked = compile_model(model, schedule.with_(row_block=7, parallel=2))
        assert np.array_equal(blocked.raw_predict(rows), whole)


def _dyadic(model):
    """``model`` with leaves rounded to multiples of 1/64: sums of a few dozen
    are exact in any order, so equal routing means equal bits."""
    for tree in model.trees:
        tree.value = np.round(tree.value * 64.0) / 64.0
    return model


@needs_toolchain
@pytest.mark.parametrize("layout", ["sparse", "array"])
@pytest.mark.parametrize("tile_size", [1, 3, 8])
@pytest.mark.parametrize("opt", [False, True], ids=["guarded", "unrolled"])
def test_hostile_rows_route_alike_on_both_backends(layout, tile_size, opt):
    """With validation off a NaN fails every predicate — padding lanes
    included — and ±inf fails or passes them all: both backends must still
    pick the same leaves, the native one without reading outside a buffer."""
    rng = np.random.default_rng(34)
    model = _dyadic(random_forest_model(rng, 16, 6, NUM_FEATURES, num_classes=2))
    thresholds = np.concatenate([t.threshold[t.internal_nodes()] for t in model.trees])
    rows = rng.normal(size=(64, NUM_FEATURES))
    rows[:24] = rng.choice(thresholds, size=(24, NUM_FEATURES))  # threshold-equal
    rows[rng.uniform(size=rows.shape) < 0.2] = np.nan
    rows[rng.uniform(size=rows.shape) < 0.1] = np.inf
    rows[rng.uniform(size=rows.shape) < 0.1] = -np.inf
    schedule = Schedule(
        layout=layout, tile_size=tile_size, interleave=4 if opt else 1,
        peel_walk=opt, pad_and_unroll=opt,
    )
    got = {
        backend: compile_model(
            model, schedule.with_(backend=backend), validate_inputs=False
        ).raw_predict(rows)
        for backend in ("native", "numpy_jit")
    }
    assert np.array_equal(got["native"], got["numpy_jit"])


@needs_toolchain
def test_kernel_refuses_rows_it_cannot_read_safely(forest, rows):
    predictor = compile_model(forest, Schedule(backend="native"))
    out = np.zeros((8, 1))
    predictor.kernel(np.ascontiguousarray(rows[:8]), out)
    for bad_rows, bad_out in [
        (rows[:8].astype(np.float32), out),          # half the bytes it would read
        (rows[:16:2], out),                          # strided
        (rows[:8, :-1], out),                        # too narrow
        (np.ascontiguousarray(rows[:8]), out[:4]),   # out too short
        (np.ascontiguousarray(rows[:8]), np.zeros((8, 1), dtype=np.float32)),
    ]:
        with pytest.raises(ExecutionError, match="native kernel wants"):
            predictor.kernel(bad_rows, bad_out)


@needs_toolchain
def test_concurrent_callers_share_one_bound_model(forest, rows):
    """More threads than cores through one kernel: the foreign call holds no
    GIL and the group table is read-only, so every caller gets its own rows'
    margins."""
    predictor = compile_model(forest, Schedule(backend="native"))
    want = predictor.raw_predict(rows)
    errors: list[str] = []
    deadline = time.monotonic() + 1.0

    def client(k: int) -> None:
        lo = 17 * k
        while time.monotonic() < deadline:
            got = predictor.raw_predict(rows[lo : lo + 150], threads=1 + k % 2)
            if not np.array_equal(got, want[lo : lo + 150]):
                errors.append(f"client {k}")
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
    assert not errors


# ----------------------------------------------------------------------
# Satellite: one fingerprint per registration
# ----------------------------------------------------------------------

def test_session_fingerprints_its_forest_once(forest, monkeypatch):
    import repro.backend.jit as jit
    import repro.serve.session as session_module

    calls = []
    real = jit.model_fingerprint

    def counting(model, schedule=None):
        calls.append(schedule)
        return real(model, schedule)

    monkeypatch.setattr(jit, "model_fingerprint", counting)
    monkeypatch.setattr(session_module, "model_fingerprint", counting)
    session = InferenceSession(forest, Schedule(backend="numpy_jit"))
    assert len(calls) == 1
    assert session.cache_key == f"numpy_jit:{session.fingerprint}"
    assert session.fingerprint == real(forest, session.schedule)
    session.swap_predictor(session.predictor, Schedule(tile_size=4, backend="numpy_jit"))
    assert len(calls) == 2
    assert session.cache_key == f"numpy_jit:{real(forest, session.schedule)}"
    session.close()


def test_native_backend_reports_why_it_is_unavailable(no_compiler):
    assert "gcc" in get_backend("native").unavailable(Schedule())
    assert "precision=int8" in get_backend("native").unavailable(Schedule(precision="int8"))
