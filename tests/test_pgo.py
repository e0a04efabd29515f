"""Profile-guided hot/cold tree splitting (``Schedule(pgo=...)``).

Covers the ``repro.pgo`` decision helpers (legality clipping, measured and
static cutoffs), bitwise output identity of split kernels across the
layout/schedule grid, cache-key qualification, verifier rejection of
inconsistent hot annotations, the autotuner's pgo axis, and the serving
integration (``register(pgo=True)`` + ``force_pgo_recompile`` swapping in
a split kernel and recording a ``pgo_swap`` flight event).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_forest_model
from repro import Schedule, compile_model
from repro.backend.jit import model_fingerprint
from repro.errors import ScheduleError, ServingError, VerificationError
from repro.pgo import (
    legal_hot_depth,
    measured_hot_depth,
    prefix_bytes,
    resolve_hot_depths,
    walking_trees,
)


@pytest.fixture(scope="module")
def pgo_forest():
    rng = np.random.default_rng(42)
    return random_forest_model(rng, num_trees=24, max_depth=8, num_features=12)


@pytest.fixture(scope="module")
def pgo_rows():
    rng = np.random.default_rng(43)
    return rng.normal(size=(96, 12))


# ----------------------------------------------------------------------
# Schedule knob
# ----------------------------------------------------------------------
class TestScheduleKnob:
    def test_rejects_bad_values(self):
        for bad in (0, -1, True, "measured", 1.5):
            with pytest.raises(ScheduleError):
                Schedule(pgo=bad)

    def test_accepts_auto_and_positive_ints(self):
        assert Schedule(pgo="auto").pgo == "auto"
        assert Schedule(pgo=3).pgo == 3

    def test_cache_key_qualified_only_when_set(self, pgo_forest):
        # the fingerprint is the cache key: split and unsplit kernels of one
        # forest occupy distinct slots, and pgo=None is the default's slot
        keys = {
            model_fingerprint(pgo_forest, Schedule(pgo=pgo))
            for pgo in (None, 2, 3, "auto")
        }
        assert len(keys) == 4
        assert model_fingerprint(pgo_forest, Schedule(pgo=None)) == (
            model_fingerprint(pgo_forest, Schedule())
        )


# ----------------------------------------------------------------------
# Decision helpers
# ----------------------------------------------------------------------
class TestDecisionHelpers:
    def test_legal_hot_depth_clips_to_internal_levels(self):
        assert legal_hot_depth(8, 5, 3) == 3
        assert legal_hot_depth(8, 5, 99) == 4  # min_leaf_depth - 1
        assert legal_hot_depth(8, 1, 3) == 0  # a leaf at depth 1: no prefix
        assert legal_hot_depth(0, 5, 3) == 0
        assert legal_hot_depth(8, 5, 0) == 0

    def test_measured_hot_depth(self):
        counters = {"rows": 100, "walk_steps": 100 * 5 * 24}
        cutoff, mean = measured_hot_depth(counters, 24)
        assert cutoff == 4 and mean == pytest.approx(5.0)
        assert measured_hot_depth({"rows": 0, "walk_steps": 0}, 24) == (
            None,
            None,
        )

    def test_resolve_sources(self, pgo_forest):
        from repro.hir.ir import build_hir

        hir = build_hir(pgo_forest, Schedule(pgo=2))
        explicit = resolve_hot_depths(
            Schedule(pgo=2), hir.groups, hir.tiled_trees
        )
        assert explicit.source == "explicit"
        assert any(v > 0 for v in explicit.per_group.values())
        static = resolve_hot_depths(
            Schedule(pgo="auto"), hir.groups, hir.tiled_trees
        )
        assert static.source == "static"
        disabled = resolve_hot_depths(Schedule(), hir.groups, hir.tiled_trees)
        assert disabled.source == "disabled"
        assert all(v == 0 for v in disabled.per_group.values())


# ----------------------------------------------------------------------
# Output identity
# ----------------------------------------------------------------------
class TestOutputIdentity:
    @pytest.mark.parametrize("layout", ["sparse", "array"])
    @pytest.mark.parametrize("pgo", ["auto", 1, 3])
    def test_split_is_bitwise_identical(self, pgo_forest, pgo_rows, layout, pgo):
        # the split is a NumPy emission: its bitwise twin is the NumPy kernel
        base = Schedule(layout=layout, interleave=4, verify=True, backend="numpy_jit")
        ref = compile_model(pgo_forest, base).raw_predict(pgo_rows)
        got = compile_model(pgo_forest, base.with_(pgo=pgo)).raw_predict(
            pgo_rows
        )
        assert np.array_equal(got, ref)

    def test_profiled_split_identical_with_live_counters(
        self, pgo_forest, pgo_rows
    ):
        base = Schedule(verify=True, backend="numpy_jit")
        ref = compile_model(pgo_forest, base).raw_predict(pgo_rows)
        predictor = compile_model(
            pgo_forest, base.with_(pgo=2, profile=True)
        )
        assert np.array_equal(predictor.raw_predict(pgo_rows), ref)
        counters = predictor.profile_counters()
        assert counters["walk_steps"] > 0
        assert counters["rows"] == pgo_rows.shape[0]

    def test_hot_split_is_actually_active(self, pgo_forest):
        predictor = compile_model(pgo_forest, Schedule(pgo=3))
        splits = [g.hot for g in predictor.lir.groups if g.hot is not None]
        assert splits, "pgo=3 produced no hot split on a depth-8 forest"
        assert all(s.depth >= 1 and s.tiles >= 1 for s in splits)
        accounting = prefix_bytes(predictor.lir)
        assert accounting["hot_depth"] >= 1
        assert 0 < accounting["hot_bytes"] < accounting["full_bytes"]
        assert accounting["shrink"] > 0
        assert walking_trees(predictor.lir) > 0

    def test_pgo_none_changes_nothing(self, pgo_forest):
        # The default pipeline must be byte-identical to pre-PGO builds.
        plain = compile_model(pgo_forest, Schedule())
        assert all(g.hot is None for g in plain.lir.groups)
        assert "hstate" not in plain.source


# ----------------------------------------------------------------------
# Verifier
# ----------------------------------------------------------------------
class TestVerifier:
    def test_verify_accepts_split_modules(self, pgo_forest, pgo_rows):
        predictor = compile_model(pgo_forest, Schedule(pgo=2, verify=True))
        predictor.raw_predict(pgo_rows)

    def test_mir_verifier_rejects_inconsistent_hot_depth(self, pgo_forest):
        from repro.hir.ir import build_hir
        from repro.mir.lowering import lower_hir_to_mir
        from repro.mir.passes import run_mir_pipeline
        from repro.verify.mir import verify_mir_module

        hir = build_hir(pgo_forest, Schedule(pgo=2))
        mir = run_mir_pipeline(lower_hir_to_mir(hir), hir)
        split = [l for l in mir.tree_loops if l.walk.hot_depth]
        assert split, "expected at least one hot-split walk"
        split[0].walk.hot_depth += 1
        with pytest.raises(VerificationError):
            verify_mir_module(mir, hir)


# ----------------------------------------------------------------------
# Autotuner axis
# ----------------------------------------------------------------------
class TestAutotuneAxis:
    def test_grid_multiplies_and_yields_pgo_points(self):
        from repro.autotune.space import TuningSpace, schedule_grid

        space = TuningSpace(
            tile_sizes=(1, 4),
            tilings=("basic",),
            interleaves=(4,),
            pad_and_unroll=(True,),
            pgo=(None, "auto", 2),
        )
        grid = list(schedule_grid(space))
        assert len(grid) == space.size()
        assert {s.pgo for s in grid} == {None, "auto", 2}

    def test_cost_model_discounts_hot_steps(self, pgo_forest):
        from repro.autotune.cost import predict_cost

        base = Schedule(interleave=4)
        plain = predict_cost(pgo_forest, base, 64)
        split = predict_cost(pgo_forest, base.with_(pgo=3), 64)
        assert np.isfinite(plain) and np.isfinite(split)
        # Hot steps amortize dispatch over a wider jam: never costlier.
        assert split <= plain


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
class TestServingPGO:
    def test_force_recompile_swaps_and_records_event(self, tmp_path):
        from repro.observe import events as flight
        from repro.serve.server import ModelServer, ServerConfig

        rng = np.random.default_rng(7)
        forest = random_forest_model(
            rng, num_trees=48, max_depth=8, num_features=16
        )
        rows = rng.normal(size=(512, 16))
        before = len(flight.recorder.tail(1000, kind="pgo_swap"))
        with ModelServer(
            ServerConfig(
                pgo_interval_s=3600.0,
                pgo_min_rows=256,
                tune_cache_path=None,
            )
        ) as server:
            session = server.register("m", forest, pgo=True)
            assert session.schedule.profile is True
            ref = server.raw_predict("m", rows)
            for _ in range(3):
                server.raw_predict("m", rows)
            info = server.force_pgo_recompile("m")
            assert info["swapped"], info
            assert info["cutoff"] >= 1
            assert np.array_equal(server.raw_predict("m", rows), ref)
            swapped = server.session("m")
            assert swapped.schedule.pgo == info["cutoff"]
            assert swapped.schedule.profile is True  # keeps adapting
            gauge = server.metrics_snapshot()["runtime"]["pgo"]["m"]
            assert gauge["pgo"] == info["cutoff"]
            assert 0 < gauge["hot_bytes"] < gauge["full_bytes"]
        events = flight.recorder.tail(1000, kind="pgo_swap")
        assert len(events) == before + 1
        assert events[-1]["model"] == "m"
        assert events[-1]["hot_bytes"] < events[-1]["full_bytes"]

    def test_cold_profile_defers_recompile(self):
        from repro.serve.server import ModelServer, ServerConfig

        rng = np.random.default_rng(9)
        forest = random_forest_model(
            rng, num_trees=8, max_depth=6, num_features=8
        )
        with ModelServer(
            ServerConfig(
                pgo_interval_s=3600.0,
                pgo_min_rows=10_000,
                tune_cache_path=None,
            )
        ) as server:
            session = server.register("cold", forest, pgo=True)
            server.raw_predict("cold", rng.normal(size=(32, 8)))
            info = server._pgo_job("cold", session)
            assert info["swapped"] is False
            assert info["reason"] == "cold_profile"

    def test_artifact_registration_rejects_pgo(self, tmp_path):
        from repro.serve.server import ModelServer, ServerConfig

        with ModelServer(ServerConfig(tune_cache_path=None)) as server:
            with pytest.raises(ServingError):
                server.register("a", artifact=str(tmp_path), pgo=True)

    def test_unregister_cancels_pgo_timer(self):
        from repro.serve.server import ModelServer, ServerConfig

        rng = np.random.default_rng(11)
        forest = random_forest_model(
            rng, num_trees=4, max_depth=4, num_features=6
        )
        with ModelServer(
            ServerConfig(pgo_interval_s=3600.0, tune_cache_path=None)
        ) as server:
            server.register("t", forest, pgo=True)
            assert "t" in server._pgo_timers
            server.unregister("t")
            assert "t" not in server._pgo_timers
