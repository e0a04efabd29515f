"""Tests for the sharded multi-process serving tier.

Covers shard planning, the combiner registry, shared-memory export/attach,
the worker pool (including respawn), the differential contract against the
monolithic kernel across Table-II schedule corners, server integration,
and the SLO-aware async admission front end.

The determinism contract under test (see :mod:`repro.serve.workers`):

* any multi-worker execution is **bitwise** identical to the same shard
  plan run sequentially in-process (``local_raw_predict``);
* ``num_shards=1`` with the ``sum`` combiner compiles the *same* kernel
  as the unsharded predictor and matches it **bitwise**, including a
  nonzero base score;
* ``num_shards>1`` reassociates the float tree-sum across shard
  boundaries, so agreement with the monolithic kernel is to the repo's
  accumulation-order tolerance (rtol=1e-10, atol=1e-12).
"""

import asyncio
import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import KERNEL_BACKENDS, random_forest_model
from repro.api import compile_model
from repro.autotune import recommend_shard_count
from repro.backend.shm import attach_shared, export_shared
from repro.config import Schedule
from repro.errors import BackendError, ScheduleError, ServingError
from repro.serve import (
    AsyncModelFrontend,
    Combiner,
    ModelServer,
    SLOPolicy,
    ShardedPredictor,
    WorkerPool,
    build_sharded_predictor,
    get_combiner,
    list_combiners,
    plan_shards,
    register_combiner,
    shard_forest,
)

NUM_FEATURES = 6
TOL = dict(rtol=1e-10, atol=1e-12)
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def forest():
    f = random_forest_model(
        np.random.default_rng(11), num_trees=9, max_depth=5, num_features=NUM_FEATURES
    )
    f.base_score = 0.37  # nonzero base makes the bitwise claims non-trivial
    return f


@pytest.fixture(scope="module")
def multiclass_forest():
    return random_forest_model(
        np.random.default_rng(13),
        num_trees=6,
        max_depth=4,
        num_features=NUM_FEATURES,
        num_classes=3,
    )


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(12).normal(size=(40, NUM_FEATURES))


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_boundaries_cover_all_trees(self, forest):
        for num_shards in (1, 2, 3, forest.num_trees):
            plan = plan_shards(forest, num_shards)
            assert plan.num_shards == num_shards
            assert plan.boundaries[0] == 0
            assert plan.boundaries[-1] == forest.num_trees
            assert list(plan.boundaries) == sorted(set(plan.boundaries))
            assert all(end > start for start, end in plan.ranges())

    def test_node_count_balance(self, forest):
        plan = plan_shards(forest, 3)
        weights = [tree.num_nodes for tree in forest.trees]
        shard_nodes = [sum(weights[s:e]) for s, e in plan.ranges()]
        # Contiguous boundaries cannot balance perfectly, but no shard
        # should carry more than one tree's worth beyond the ideal share.
        ideal = sum(weights) / 3
        assert max(shard_nodes) <= ideal + max(weights)

    def test_invalid_counts_rejected(self, forest):
        with pytest.raises(ServingError, match=">= 1"):
            plan_shards(forest, 0)
        with pytest.raises(ServingError, match="cannot split"):
            plan_shards(forest, forest.num_trees + 1)

    def test_shard_forest_preserves_parent(self, forest):
        ids_before = [tree.tree_id for tree in forest.trees]
        plan = plan_shards(forest, 3)
        shards = shard_forest(forest, plan)
        # The Forest constructor renumbers tree_id on the objects it is
        # given; sharding must not corrupt the parent's numbering.
        assert [tree.tree_id for tree in forest.trees] == ids_before
        assert sum(s.num_trees for s in shards) == forest.num_trees
        assert all(s.base_score == 0.0 for s in shards)
        assert all(s.num_features == forest.num_features for s in shards)

    def test_embed_base_puts_base_on_shard_zero_only(self, forest):
        shards = shard_forest(forest, plan_shards(forest, 3), embed_base=True)
        assert shards[0].base_score == forest.base_score
        assert all(s.base_score == 0.0 for s in shards[1:])


class TestRecommendShardCount:
    def test_small_forest_collapses_to_one_shard(self, forest):
        # 9 small trees are far under the node/byte floors.
        assert recommend_shard_count(forest, 8) == 1

    def test_unfloored_count_caps_at_workers_and_trees(self, forest):
        assert recommend_shard_count(forest, 4, min_nodes_per_shard=1) == 4
        assert recommend_shard_count(forest, 100, min_nodes_per_shard=1) == forest.num_trees

    def test_node_floor_sets_the_count(self, forest):
        per_shard = forest.total_nodes // 3
        assert recommend_shard_count(forest, 8, min_nodes_per_shard=per_shard) == 3

    def test_invalid_workers_rejected(self, forest):
        with pytest.raises(ScheduleError):
            recommend_shard_count(forest, 0)


# ----------------------------------------------------------------------
# Combiners
# ----------------------------------------------------------------------
class TestCombiners:
    def _partials(self, shape=(5,), k=3, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape) for _ in range(k)]

    def test_sum_matches_ordered_fold(self):
        partials = self._partials()
        want = np.full_like(partials[0], 0.25)
        for p in partials:
            want = want + p
        got = get_combiner("sum").fn(partials, 0.25)
        assert np.array_equal(got, want)

    def test_mean_and_max_margin(self):
        partials = self._partials(shape=(4, 3))
        mean = get_combiner("mean").fn(partials, 0.5)
        np.testing.assert_allclose(mean, 0.5 + sum(partials) / 3, **TOL)
        mx = get_combiner("max_margin").fn(partials, 0.5)
        np.testing.assert_allclose(
            mx, 0.5 + np.maximum.reduce(partials), **TOL
        )
        assert not get_combiner("max_margin").objective_transform

    def test_top_k_selects_per_row(self):
        partials = self._partials(shape=(4, 5))
        out = get_combiner("top2").fn(partials, 0.0)
        dense = sum(partials)
        for row, ref in zip(out, dense):
            kept = np.isfinite(row)
            assert kept.sum() == 2
            assert set(np.flatnonzero(kept)) == set(np.argsort(ref)[-2:])

    def test_top_k_wider_than_classes_is_dense(self):
        partials = self._partials(shape=(4, 3))
        out = get_combiner("top5").fn(partials, 0.0)
        assert np.isfinite(out).all()

    def test_top_k_requires_multiclass(self):
        with pytest.raises(ServingError, match="multiclass"):
            get_combiner("top2").fn(self._partials(shape=(5,)), 0.0)

    def test_registry(self):
        assert {"sum", "mean", "max_margin"} <= set(list_combiners())
        assert get_combiner("top3").name == "top3"
        with pytest.raises(ServingError, match="unknown combiner"):
            get_combiner("median")
        with pytest.raises(ServingError, match="already registered"):
            register_combiner(Combiner("sum", lambda p, b: p[0]))

    def test_combiner_instance_passthrough(self):
        custom = Combiner("first", lambda p, b: p[0] + b)
        assert get_combiner(custom) is custom


# ----------------------------------------------------------------------
# Shared-memory export / attach
# ----------------------------------------------------------------------
class TestSharedMemory:
    def test_roundtrip_is_bitwise(self, forest, rows):
        for backend in KERNEL_BACKENDS:
            predictor = compile_model(forest, Schedule(tile_size=4, backend=backend))
            handle = export_shared(predictor)
            try:
                assert handle.manifest["kernel_backend"] == backend
                attached = attach_shared(handle.manifest)
                try:
                    assert np.array_equal(
                        attached.raw_predict(rows), predictor.raw_predict(rows)
                    )
                    assert attached.fingerprint == predictor.fingerprint
                    assert attached.backend_name == predictor.backend_name
                finally:
                    attached.close()
            finally:
                handle.unlink()
            handle.unlink()  # idempotent

    def test_attached_buffers_are_read_only(self, forest, rows):
        # the native stub binds the walker over these same read-only views
        predictor = compile_model(forest)
        handle = export_shared(predictor)
        try:
            attached = attach_shared(handle.manifest)
            try:
                # compile_source execs the kernel in the attach namespace,
                # so the kernel's globals are the shared buffer views.
                arrays = [
                    v for v in attached.kernel.__globals__.values()
                    if isinstance(v, np.ndarray)
                ]
                assert arrays
                with pytest.raises(ValueError):
                    arrays[0][...] = 0
            finally:
                attached.close()
        finally:
            handle.unlink()

    def test_attach_after_unlink_raises(self, forest):
        handle = export_shared(compile_model(forest))
        manifest = handle.manifest
        handle.unlink()
        with pytest.raises(BackendError, match="segment"):
            attach_shared(manifest)

    def test_manifest_without_arena_spec_raises(self, forest):
        with export_shared(compile_model(forest)) as handle:
            with pytest.raises(BackendError, match="arena spec"):
                attach_shared({**handle.manifest, "arena": None})

    @pytest.mark.parametrize(
        "edit,match",
        [({"from_the_future": 1}, "from_the_future"), ({"backend": "llvm"}, "llvm")],
        ids=["unknown-field", "unregistered-backend"],
    )
    def test_unreadable_schedule_is_a_backend_error(self, forest, edit, match):
        """The same version skew ``load_artifact`` reports, with the same
        type: an ``ArtifactError`` (a ``BackendError``), never the
        schedule parser's own ``ScheduleError``."""
        with export_shared(compile_model(forest)) as handle:
            manifest = {**handle.manifest, "schedule": {**handle.manifest["schedule"], **edit}}
            with pytest.raises(BackendError, match=f"{match}.*re-export"):
                attach_shared(manifest)

    def test_export_requires_compiled_predictor(self):
        with pytest.raises(BackendError):
            export_shared(object())


# ----------------------------------------------------------------------
# Differential contract vs. the monolithic kernel
# ----------------------------------------------------------------------
GRID_CORNERS = [
    pytest.param(Schedule(tile_size=ts, tiling=tiling, layout=layout, **loops),
                 id=f"t{ts}-{tiling}-{layout}-{'opt' if loops['interleave'] > 1 else 'plain'}")
    for ts, tiling, layout, loops in itertools.product(
        (1, 4),
        ("basic", "probability", "hybrid"),
        ("array", "sparse"),
        (
            {"interleave": 1, "peel_walk": False, "pad_and_unroll": False},
            {"interleave": 4, "peel_walk": True, "pad_and_unroll": True},
        ),
    )
]

# Pool spawns are not free; the full corner sweep runs in-process and a
# representative subset exercises real worker processes.
POOL_CORNERS = [
    pytest.param(Schedule(), id="default"),
    pytest.param(Schedule(tile_size=4, tiling="probability", layout="sparse"),
                 id="t4-prob-sparse"),
    pytest.param(
        Schedule(tile_size=4, tiling="hybrid", layout="array",
                 interleave=4, peel_walk=True, pad_and_unroll=True),
        id="t4-hybrid-opt",
    ),
]


class TestShardedDifferential:
    @pytest.mark.parametrize("schedule", GRID_CORNERS)
    def test_in_process_sharding_matches_reference(self, forest, rows, schedule):
        from repro.forest.statistics import populate_node_probabilities

        populate_node_probabilities(forest, rows)
        with build_sharded_predictor(
            forest, schedule, num_workers=0, num_shards=3
        ) as sharded:
            got = sharded.raw_predict(rows)
            np.testing.assert_allclose(got, forest.raw_predict(rows), **TOL)
            # Deterministic: the fold order is fixed, so repeat calls are
            # bitwise identical.
            assert np.array_equal(got, sharded.raw_predict(rows))

    @pytest.mark.parametrize("schedule", POOL_CORNERS)
    def test_workers_bitwise_match_local_plan(self, forest, rows, schedule):
        """Acceptance: multi-worker output is bitwise identical to the same
        shard plan run in-process, and within accumulation tolerance of the
        monolithic kernel."""
        from repro.forest.statistics import populate_node_probabilities

        populate_node_probabilities(forest, rows)
        mono = compile_model(forest, schedule)
        with build_sharded_predictor(
            forest, schedule, num_workers=2, num_shards=3
        ) as sharded:
            remote = sharded.raw_predict(rows)
            assert np.array_equal(remote, sharded.local_raw_predict(rows))
            np.testing.assert_allclose(remote, mono.raw_predict(rows), **TOL)

    def test_single_shard_is_bitwise_monolithic(self, forest, rows):
        """The degenerate num_shards=1 case compiles the identical kernel
        (base score embedded in the one shard), so even with a nonzero
        base the match is bitwise, not just allclose."""
        assert forest.base_score != 0.0
        mono = compile_model(forest, Schedule(tile_size=4))
        with build_sharded_predictor(
            forest, Schedule(tile_size=4), num_workers=1, num_shards=1
        ) as sharded:
            assert np.array_equal(sharded.raw_predict(rows), mono.raw_predict(rows))

    def test_multiclass_sharded_predict(self, multiclass_forest, rows):
        with build_sharded_predictor(
            multiclass_forest, num_workers=2, num_shards=2
        ) as sharded:
            np.testing.assert_allclose(
                sharded.predict(rows), multiclass_forest.predict(rows), **TOL
            )

    def test_selection_combiner_skips_objective(self, multiclass_forest, rows):
        with build_sharded_predictor(
            multiclass_forest, num_workers=0, num_shards=2, combiner="max_margin"
        ) as sharded:
            out = sharded.predict(rows)
            # max_margin keeps raw margins: no softmax row-normalization.
            assert not np.allclose(out.sum(axis=1), 1.0)

    def test_fingerprint_keys_plan_and_combiner(self, forest):
        with build_sharded_predictor(forest, num_workers=0, num_shards=2) as a, \
             build_sharded_predictor(forest, num_workers=0, num_shards=3) as b, \
             build_sharded_predictor(
                 forest, num_workers=0, num_shards=2, combiner="mean"
             ) as c:
            assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3


# ----------------------------------------------------------------------
# Worker pool lifecycle
# ----------------------------------------------------------------------

#: a spawn-started pool must run from a file: its children import __main__
_SPAWN_POOL = """
import numpy as np
from repro.api import compile_model
from repro.backend.shm import export_shared
from repro.serve import WorkerPool
from repro.verify.fuzz import random_fuzz_forest

if __name__ == "__main__":
    forest = random_fuzz_forest(np.random.default_rng(0), num_trees=4, max_depth=4)
    rows = np.random.default_rng(1).normal(size=(8, forest.num_features))
    predictor = compile_model(forest)
    with export_shared(predictor) as handle:
        with WorkerPool([handle.manifest], 1, start_method="spawn") as pool:
            got = pool.execute(rows)[0]
    assert np.array_equal(got, predictor.raw_predict(rows))
    print("bitwise")
"""


class TestWorkerPool:
    def test_dead_worker_is_respawned(self, forest, rows):
        from repro.observe import events as flight_events

        with build_sharded_predictor(
            forest, num_workers=2, num_shards=2, name="respawn-test"
        ) as sharded:
            before = sharded.raw_predict(rows)
            stats = sharded.worker_stats()
            victim_pid = stats["workers"]["0"]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not sharded.worker_stats()["workers"]["0"]["alive"]:
                    break
                time.sleep(0.05)
            after = sharded.raw_predict(rows)  # triggers respawn at dispatch
            assert np.array_equal(after, before)
            stats = sharded.worker_stats()
            assert stats["workers"]["0"]["respawns"] >= 1
            assert stats["workers"]["0"]["pid"] != victim_pid
        deaths = flight_events.recorder.tail(n=100, kind="worker_dead")
        assert any(e.get("pool") == "respawn-test" for e in deaths)

    def test_respawn_disabled_raises(self, forest, rows):
        predictor = compile_model(forest)
        handle = export_shared(predictor)
        pool = None
        try:
            pool = WorkerPool([handle.manifest], 1, respawn=False, name="no-respawn")
            pool.execute(rows)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            pool._procs[0].join(10.0)
            with pytest.raises(ServingError, match="respawn is disabled"):
                pool.execute(rows)
        finally:
            if pool is not None:
                pool.close()
            handle.unlink()

    def test_spawned_workers_leave_the_segments_tracked(self, tmp_path):
        """A spawn-started worker shares the exporter's resource tracker, so
        it attaches tracked. An untracking worker would cancel the
        exporter's registration — nothing would reap the segments if the
        exporter crashed — and the tracker would log a KeyError per segment
        at the exporter's unlink."""
        script = tmp_path / "spawn_pool.py"
        script.write_text(_SPAWN_POOL)
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=180,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["bitwise"]
        assert "KeyError" not in done.stderr, done.stderr

    def test_closed_pool_rejects(self, forest, rows):
        with build_sharded_predictor(forest, num_workers=1, num_shards=2) as sharded:
            pass
        with pytest.raises(ServingError, match="closed"):
            sharded.raw_predict(rows)

    def test_pool_validation(self, forest):
        handle = export_shared(compile_model(forest))
        try:
            with pytest.raises(ServingError, match="num_workers"):
                WorkerPool([handle.manifest], 0)
            with pytest.raises(ServingError, match="at least one shard"):
                WorkerPool([], 1)
            with pytest.raises(ServingError, match="request_timeout_s"):
                WorkerPool([handle.manifest], 1, request_timeout_s=0.0)
        finally:
            handle.unlink()


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
class TestServerSharded:
    def test_register_predict_unregister(self, forest, rows):
        with ModelServer() as server:
            server.register("big", forest, workers=2, shards=3)
            predictor = server.session("big").predictor
            assert isinstance(predictor, ShardedPredictor)
            np.testing.assert_allclose(
                server.predict("big", rows), forest.predict(rows), **TOL
            )
            gauge = server.metrics_snapshot()["runtime"]["workers"]
            assert gauge["big"]["num_workers"] == 2
            assert all(w["alive"] for w in gauge["big"]["workers"].values())
            server.unregister("big")
            assert predictor._closed
            assert server.metrics_snapshot()["runtime"]["workers"] == {}

    def test_reregister_closes_old_pool(self, forest, rows):
        with ModelServer() as server:
            server.register("m", forest, workers=1, shards=2)
            old = server.session("m").predictor
            pids = [w["pid"] for w in old.worker_stats()["workers"].values()]
            assert pids
            server.register("m", forest)  # back to single-process
            assert old._closed
            assert server.metrics_snapshot()["runtime"]["workers"] == {}
            for pid in pids:  # joined: the worker exited and was reaped
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
            np.testing.assert_allclose(
                server.raw_predict("m", rows), forest.raw_predict(rows), **TOL
            )

    def test_sharded_registration_guards(self, forest):
        with ModelServer() as server:
            with pytest.raises(ServingError, match="needs a forest"):
                server.register("m", workers=1)
            with pytest.raises(ServingError, match="requires workers"):
                server.register("m", forest, shards=2)
            with pytest.raises(ServingError, match="tune"):
                server.register("m", forest, workers=1, tune=True)

    def test_slo_recorded_on_register(self, forest):
        with ModelServer() as server:
            slo = SLOPolicy(target_p99_s=0.1, max_inflight=4)
            server.register("m", forest, workers=1, slo=slo)
            assert server.slo_policy("m") is slo
            server.unregister("m")
            assert server.slo_policy("m") is None


# ----------------------------------------------------------------------
# SLO-aware async admission
# ----------------------------------------------------------------------
class TestAsyncFrontend:
    def test_slo_policy_validation(self):
        with pytest.raises(ServingError, match="target_p99_s"):
            SLOPolicy(target_p99_s=0.0)
        with pytest.raises(ServingError, match="max_inflight"):
            SLOPolicy(max_inflight=0)
        with pytest.raises(ServingError, match="min_samples"):
            SLOPolicy(min_samples=0)

    def test_async_predict_roundtrip(self, forest, rows):
        with ModelServer() as server:
            server.register("m", forest)
            with AsyncModelFrontend(server) as frontend:
                got = asyncio.run(frontend.predict("m", rows))
                np.testing.assert_allclose(got, forest.predict(rows), **TOL)

    def test_max_inflight_sheds_load(self, forest, rows):
        with ModelServer() as server:
            server.register("m", forest)
            with AsyncModelFrontend(server) as frontend:
                frontend.set_slo("m", SLOPolicy(max_inflight=1))
                entry = frontend._admit("m")  # hold the one slot
                assert entry is not None
                with pytest.raises(ServingError, match="max_inflight"):
                    asyncio.run(frontend.predict("m", rows))
                frontend._finish(entry, 0.01)
                got = asyncio.run(frontend.predict("m", rows))
                np.testing.assert_allclose(got, forest.predict(rows), **TOL)
            snap = server.metrics_snapshot()
            assert snap["admission_rejects"] == 1

    def test_p99_over_target_sheds_under_load(self, forest, rows):
        with ModelServer() as server:
            server.register("m", forest)
            with AsyncModelFrontend(server) as frontend:
                frontend.set_slo(
                    "m", SLOPolicy(target_p99_s=0.001, min_samples=4)
                )
                for _ in range(4):  # prime the latency window over target
                    entry = frontend._admit("m")
                    frontend._finish(entry, 1.0)
                holder = frontend._admit("m")  # a lone request always admits
                assert holder is not None
                with pytest.raises(ServingError, match="p99_over_target"):
                    frontend._admit("m")
                frontend._finish(holder, 1.0)

    def test_frontend_inherits_server_slo(self, forest):
        with ModelServer() as server:
            server.register(
                "m", forest, slo=SLOPolicy(max_inflight=2)
            )
            with AsyncModelFrontend(server) as frontend:
                assert frontend._admit("m") is not None  # lazily adopted
                assert frontend.slo_policy("m").max_inflight == 2

    def test_no_policy_admits_everything(self, forest, rows):
        with ModelServer() as server:
            server.register("m", forest)
            with AsyncModelFrontend(server) as frontend:
                assert frontend._admit("m") is None
                got = asyncio.run(frontend.raw_predict("m", rows))
                np.testing.assert_allclose(got, forest.raw_predict(rows), **TOL)

    def test_reject_recorded_in_flight_recorder(self, forest, rows):
        from repro.observe import events as flight_events

        with ModelServer() as server:
            server.register("shed-me", forest)
            with AsyncModelFrontend(server) as frontend:
                frontend.set_slo("shed-me", SLOPolicy(max_inflight=1))
                entry = frontend._admit("shed-me")
                with pytest.raises(ServingError):
                    frontend._admit("shed-me")
                frontend._finish(entry, 0.01)
        rejects = flight_events.recorder.tail(n=100, kind="admission_reject")
        assert any(e.get("model") == "shed-me" for e in rejects)
