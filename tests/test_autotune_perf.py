"""Unit tests for the autotuner, cost model, persistence, timer, and
machine profiles."""

import gc
import weakref

import numpy as np
import pytest

import repro.autotune.search as search_mod
from conftest import KERNEL_BACKENDS
from repro.autotune import (
    CacheEntry,
    ForestProfile,
    ScheduleCache,
    autotune,
    default_space,
    predict_cost,
    rank_correlation,
    rank_schedules,
    schedule_grid,
)
from repro.autotune.persist import CACHE_FORMAT_VERSION, machine_id
from repro.autotune.space import TuningSpace
from repro.config import Schedule
from repro.errors import CompilerError, ModelError
from repro.observe import events as flight
from repro.observe import registry as observe_registry
from repro.perf.machine import AMD_RYZEN_LIKE, INTEL_ROCKET_LAKE_LIKE, PROFILES
from repro.perf.timer import measure, per_row_us

#: a tiny space for fast searches: 4 candidates, 4 distinct kernels on
#: every backend (no axis a backend ignores)
SMALL_SPACE = TuningSpace(
    tile_sizes=(1, 8), tilings=("basic",), pad_and_unroll=(True, False),
    interleaves=(8,), layouts=("sparse",),
)


class TestSpace:
    def test_table2_grid_axes(self):
        space = default_space()
        assert space.tile_sizes == (1, 2, 4, 8)
        assert space.interleaves == (2, 4, 8)
        assert space.alphas == (0.05, 0.075, 0.1)

    def test_grid_size_matches_enumeration(self):
        space = default_space()
        assert sum(1 for _ in schedule_grid(space)) == space.size()

    def test_extended_space_is_larger(self):
        assert len(default_space(extended=True).interleaves) > 3

    def test_grid_respects_base(self):
        base = Schedule(parallel=4)
        for schedule in schedule_grid(TuningSpace(tile_sizes=(2,)), base):
            assert schedule.parallel == 4

    def test_alphas_only_for_hybrid(self):
        space = TuningSpace(tilings=("basic",), tile_sizes=(2,), interleaves=(2,),
                            pad_and_unroll=(True,), layouts=("sparse",))
        schedules = list(schedule_grid(space))
        assert len(schedules) == 1


class TestAutotune:
    def test_finds_working_config(self, trained_forest, test_rows):
        space = TuningSpace(
            tile_sizes=(1, 4), tilings=("basic",), pad_and_unroll=(True,),
            interleaves=(8,), layouts=("sparse",),
        )
        result = autotune(trained_forest, test_rows[:64], space=space, repeats=1)
        assert result.best_per_row_us > 0
        assert len(result.log) == 2
        got = result.best_predictor.raw_predict(test_rows[:32])
        assert np.allclose(got, trained_forest.raw_predict(test_rows[:32]), rtol=1e-12)

    def test_top_k_sorted(self, trained_forest, test_rows):
        space = TuningSpace(
            tile_sizes=(1, 2, 4), tilings=("basic",), pad_and_unroll=(True,),
            interleaves=(4,), layouts=("sparse",),
        )
        result = autotune(trained_forest, test_rows[:32], space=space, repeats=1)
        top = result.top(3)
        costs = [c for _, c in top]
        assert costs == sorted(costs)

    def test_max_configs_limits_exploration(self, trained_forest, test_rows):
        result = autotune(trained_forest, test_rows[:32], repeats=1, max_configs=3)
        assert len(result.log) == 3


class TestCostModel:
    def test_predict_cost_positive_over_grid(self, trained_forest):
        for schedule in schedule_grid(default_space()):
            assert predict_cost(trained_forest, schedule, 64) > 0

    def test_profile_from_forest(self, trained_forest):
        profile = ForestProfile.from_forest(trained_forest)
        assert profile.num_trees == trained_forest.num_trees
        assert profile.total_nodes == trained_forest.total_nodes
        assert 0.0 < profile.mean_depth <= profile.max_depth
        assert 0.0 <= profile.balanced_fraction <= 1.0
        # expected depth is a reweighting of leaf depths, so it stays in range
        assert 0.0 < profile.expected_depth <= profile.max_depth

    def test_profile_accepted_directly(self, trained_forest):
        profile = ForestProfile.from_forest(trained_forest)
        s = Schedule()
        assert predict_cost(profile, s, 32) == predict_cost(trained_forest, s, 32)

    def test_rank_schedules_sorted(self, trained_forest):
        grid = list(schedule_grid(default_space()))
        ranked = rank_schedules(trained_forest, grid, 64)
        costs = [c for c, _ in ranked]
        assert costs == sorted(costs)
        assert len(ranked) == len(grid)

    def test_interleave_amortizes_dispatch(self, trained_forest):
        wide = predict_cost(trained_forest, Schedule(interleave=8), 64)
        narrow = predict_cost(trained_forest, Schedule(interleave=1), 64)
        assert wide < narrow

    def test_one_row_order_penalized(self, trained_forest):
        one_row = predict_cost(trained_forest, Schedule(loop_order="one-row"), 64)
        one_tree = predict_cost(trained_forest, Schedule(loop_order="one-tree"), 64)
        assert one_row > one_tree

    def test_machine_profiles_disagree_on_gathers(self, trained_forest):
        s = Schedule(tile_size=8)
        intel = predict_cost(trained_forest, s, 64, INTEL_ROCKET_LAKE_LIKE)
        amd = predict_cost(trained_forest, s, 64, AMD_RYZEN_LIKE)
        assert intel != amd

    def test_rank_correlation_perfect(self):
        assert rank_correlation([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)

    def test_rank_correlation_reversed(self):
        assert rank_correlation([1.0, 2.0, 3.0], [9.0, 5.0, 1.0]) == pytest.approx(-1.0)

    def test_rank_correlation_too_few_pairs(self):
        assert rank_correlation([1.0, 2.0], [1.0, 2.0]) is None

    def test_rank_correlation_excludes_failed_compiles(self):
        # Two of four measurements are inf (failed candidates): only two
        # finite pairs remain, which is below the meaningful threshold.
        inf = float("inf")
        assert rank_correlation([1.0, 2.0, 3.0, 4.0], [1.0, inf, 3.0, inf]) is None

    def test_rank_correlation_zero_variance(self):
        assert rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


def _search_stats() -> dict:
    """The ``search`` span of the last recorded tune trace."""
    trace = observe_registry.snapshot()["traces"]["recent"][-1]
    return next(c for c in trace["children"] if c["name"] == "search")["stats"]


def _constant_measure(per_row_us: float):
    """A ``measure`` stand-in: every timing reads ``per_row_us``."""
    return lambda fn, rows, **kwargs: _FakeMeasurement(per_row_us)


class TestDedupe:
    def test_numpy_jit_builds_a_kernel_per_grid_point(self):
        base = Schedule(backend="numpy_jit")
        grid = list(schedule_grid(default_space(), base))
        assert len(grid) == 192
        assert len({search_mod._kernel(s, base) for s in grid}) == 192

    @pytest.mark.skipif("native" not in KERNEL_BACKENDS, reason="no C toolchain")
    def test_native_grid_holds_64_distinct_kernels(self):
        base = Schedule()
        grid = list(schedule_grid(default_space(), base))
        kernels = {search_mod._kernel(s, base) for s in grid}
        assert len(grid) == 192 and len(kernels) == 64
        assert {k.interleave for k in kernels} == {base.interleave}

    def test_resolving_candidates_records_no_fallback(self):
        """int8 candidates fall back from ``auto`` to NumPy; resolving them
        must not log one fallback per candidate."""
        space = TuningSpace(precisions=("int8",))
        before = flight.recorder.snapshot()["recorded"]
        kernels = [search_mod._kernel(s, Schedule()) for s in schedule_grid(space)]
        assert {k.backend for k in kernels} == {"numpy_jit"}
        assert flight.recorder.snapshot()["recorded"] == before

    @pytest.mark.skipif("native" not in KERNEL_BACKENDS, reason="no C toolchain")
    def test_autotune_skips_kernels_it_already_measured(self, trained_forest, test_rows):
        space = TuningSpace(
            tile_sizes=(1, 8), tilings=("basic",), pad_and_unroll=(True,),
            interleaves=(2, 8), layouts=("sparse",),
        )
        result = autotune(
            trained_forest, test_rows[:16], space=space, repeats=1, min_time_s=0.0
        )
        assert result.grid_size == 4 and result.explored == 2
        assert {s.tile_size for s, _ in result.log} == {1, 8}
        assert result.stopped_by is None
        stats = _search_stats()
        assert stats["deduped"] == 2 and stats["same_image"] == 0

    def test_autotune_measures_each_image_once(
        self, trained_forest, test_rows, monkeypatch
    ):
        """Candidates the fields cannot tell apart but that compile to one
        image (source and buffers) are compiled and logged with the time
        their image already measured, not timed again."""
        costs = iter([1.0, 2.0])
        monkeypatch.setattr(
            search_mod, "measure",
            lambda fn, rows, **kwargs: _FakeMeasurement(next(costs)),
        )
        monkeypatch.setattr(search_mod, "_image_digest", lambda p: p.schedule.tile_size)
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0,
        )
        assert result.explored == 4
        by_tile = {}
        for schedule, cost in result.log:
            assert by_tile.setdefault(schedule.tile_size, cost) == cost
        assert sorted(by_tile.values()) == [1.0, 2.0]
        stats = _search_stats()
        assert stats["same_image"] == 2 and stats["deduped"] == 0

    def test_patience_counts_only_new_measurements(
        self, trained_forest, test_rows, monkeypatch
    ):
        """A candidate whose image was already timed is neither a win nor a
        stale step, so it cannot use up the patience."""
        monkeypatch.setattr(search_mod, "measure", _constant_measure(1.0))
        monkeypatch.setattr(search_mod, "_image_digest", lambda p: "one image")
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, patience=1,
        )
        assert result.explored == 4 and result.stopped_by is None
        assert _search_stats()["same_image"] == 3


class TestPersist:
    def test_round_trip_across_instances(self, tmp_path):
        path = str(tmp_path / "schedules.json")
        entry = CacheEntry(
            schedule=Schedule(tile_size=4, interleave=2),
            per_row_us=12.5,
            explored=7,
            rank_correlation=0.9,
        )
        ScheduleCache(path).store("fp", "m", 64, entry)
        reloaded = ScheduleCache(path).lookup("fp", "m", 64)
        assert reloaded is not None
        assert reloaded.schedule == entry.schedule
        assert reloaded.per_row_us == 12.5
        assert reloaded.explored == 7
        assert reloaded.rank_correlation == 0.9

    def test_lookup_misses_are_none(self, tmp_path):
        cache = ScheduleCache(str(tmp_path / "s.json"))
        assert cache.lookup("fp", "m", 64) is None
        cache.store("fp", "m", 64, CacheEntry(Schedule(), 1.0))
        assert cache.lookup("fp", "m", 128) is None
        assert cache.lookup("fp", "other", 64) is None

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        cache = ScheduleCache(str(path))
        assert len(cache) == 0
        # next save repairs the file
        cache.store("fp", "m", 8, CacheEntry(Schedule(), 1.0))
        assert len(ScheduleCache(str(path))) == 1

    def test_version_mismatch_discards_file(self, tmp_path):
        import json

        path = tmp_path / "s.json"
        good = CacheEntry(Schedule(), 1.0)
        doc = {
            "version": CACHE_FORMAT_VERSION + 1,
            "entries": {"fp|m|8": good.to_dict()},
        }
        path.write_text(json.dumps(doc))
        assert len(ScheduleCache(str(path))) == 0

    def test_unknown_schedule_field_discards_entry_only(self, tmp_path):
        import json

        path = tmp_path / "s.json"
        good = CacheEntry(Schedule(), 1.0).to_dict()
        bad = CacheEntry(Schedule(), 2.0).to_dict()
        bad["schedule"]["warp_drive"] = True  # knob from a future version
        doc = {
            "version": CACHE_FORMAT_VERSION,
            "entries": {"a|m|8": good, "b|m|8": bad},
        }
        path.write_text(json.dumps(doc))
        cache = ScheduleCache(str(path))
        assert cache.lookup("a", "m", 8) is not None
        assert cache.lookup("b", "m", 8) is None

    def test_entry_with_retired_scratch_field_still_loads(self, tmp_path):
        import json

        path = tmp_path / "s.json"
        stored = CacheEntry(Schedule(tile_size=4), 1.0).to_dict()
        stored["schedule"]["scratch"] = "arena"  # as every pre-PR17 entry has
        doc = {"version": CACHE_FORMAT_VERSION, "entries": {"a|m|8": stored}}
        path.write_text(json.dumps(doc))
        hit = ScheduleCache(str(path)).lookup("a", "m", 8)
        assert hit is not None and hit.schedule == Schedule(tile_size=4)

    def test_entries_with_retired_traversal_field(self, tmp_path):
        """A tiled entry persisted with ``"traversal"`` warm-starts; a
        quickscorer entry is discarded alone."""
        import json

        path = tmp_path / "s.json"
        tiled = CacheEntry(Schedule(tile_size=4), 1.0).to_dict()
        tiled["schedule"]["traversal"] = "tiled"
        quick = CacheEntry(Schedule(), 2.0).to_dict()
        quick["schedule"]["traversal"] = "quickscorer"
        doc = {
            "version": CACHE_FORMAT_VERSION,
            "entries": {"a|m|8": tiled, "b|m|8": quick},
        }
        path.write_text(json.dumps(doc))
        cache = ScheduleCache(str(path))
        hit = cache.lookup("a", "m", 8)
        assert hit is not None and hit.schedule == Schedule(tile_size=4)
        assert cache.lookup("b", "m", 8) is None
        assert len(cache) == 1

    def test_invalidate_by_model_and_machine(self, tmp_path):
        cache = ScheduleCache(str(tmp_path / "s.json"))
        cache.store("fp", "m1", 8, CacheEntry(Schedule(), 1.0))
        cache.store("fp", "m2", 8, CacheEntry(Schedule(), 1.0))
        cache.store("other", "m1", 8, CacheEntry(Schedule(), 1.0))
        assert cache.invalidate("fp", "m1") == 1
        assert cache.lookup("fp", "m2", 8) is not None
        assert cache.invalidate("fp") == 1
        assert cache.lookup("other", "m1", 8) is not None

    def test_in_memory_cache_without_path(self):
        cache = ScheduleCache(None)
        cache.store("fp", "m", 8, CacheEntry(Schedule(), 1.0))
        assert cache.lookup("fp", "m", 8) is not None

    def test_machine_id_partitions_by_profile(self):
        assert machine_id("intel") != machine_id("amd")
        assert machine_id("intel").endswith("-intel")


class _FakeMeasurement:
    def __init__(self, per_row_us):
        self.per_row_us = per_row_us


class TestBudget:
    def test_min_time_s_plumbed_to_measure(self, trained_forest, test_rows, monkeypatch):
        seen = []

        def spy(fn, rows, repeats=5, warmup=1, min_time_s=0.0):
            seen.append(min_time_s)
            return measure(fn, rows, repeats=1, min_time_s=min_time_s)

        monkeypatch.setattr(search_mod, "measure", spy)
        autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.007,
        )
        assert seen and all(value == 0.007 for value in seen)

    def test_time_budget_stops_after_first_candidate(self, trained_forest, test_rows):
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, time_budget_s=0.0,
        )
        assert result.explored == 1
        assert result.stopped_by == "time"

    def test_patience_stops_nonimproving_run(self, trained_forest, test_rows, monkeypatch):
        per_row = iter([1.0, 2.0, 3.0, 4.0])

        def spy(fn, rows, repeats=5, warmup=1, min_time_s=0.0):
            fn()  # still exercise the compiled kernel once
            return _FakeMeasurement(next(per_row))

        monkeypatch.setattr(search_mod, "measure", spy)
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, patience=2,
        )
        assert result.explored == 3  # winner + two stale candidates
        assert result.stopped_by == "patience"
        assert result.best_per_row_us == 1.0

    def test_max_configs_reports_stop_reason(self, trained_forest, test_rows):
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, max_configs=2,
        )
        assert result.explored == 2
        assert result.stopped_by == "max_configs"
        assert result.grid_size == 4

    def test_exhaustive_run_has_no_stop_reason(self, trained_forest, test_rows):
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0,
        )
        assert result.stopped_by is None
        assert result.explored == result.grid_size == 4

    def test_warm_start_compiles_only_the_winner(
        self, trained_forest, test_rows, tmp_path, monkeypatch
    ):
        cache = ScheduleCache(str(tmp_path / "s.json"))
        first = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, cache=cache,
        )
        assert not first.from_cache and first.explored == 4

        calls = []
        real = search_mod.compile_model

        def spy(forest, schedule, **kwargs):
            calls.append(schedule)
            return real(forest, schedule, **kwargs)

        monkeypatch.setattr(search_mod, "compile_model", spy)
        second = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, cache=cache,
        )
        assert second.from_cache
        assert second.explored == 0
        assert calls == [first.best_schedule]
        got = second.best_predictor.raw_predict(test_rows[:16])
        assert np.allclose(got, trained_forest.raw_predict(test_rows[:16]), rtol=1e-12)

    def test_stale_cache_entry_invalidated_and_researched(
        self, trained_forest, test_rows, tmp_path, monkeypatch
    ):
        from repro.autotune.persist import machine_id as mid
        from repro.backend.jit import model_fingerprint

        cache = ScheduleCache(str(tmp_path / "s.json"))
        poisoned = Schedule(alpha=0.31)  # marker value, not in the grid
        fp = model_fingerprint(trained_forest)
        machine = mid(INTEL_ROCKET_LAKE_LIKE.name)
        cache.store(fp, machine, 16, CacheEntry(poisoned, 1.0))

        real = search_mod.compile_model

        def spy(forest, schedule, **kwargs):
            if schedule.alpha == 0.31:
                raise CompilerError("poisoned entry no longer compiles")
            return real(forest, schedule, **kwargs)

        monkeypatch.setattr(search_mod, "compile_model", spy)
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, cache=cache,
        )
        assert not result.from_cache
        assert result.explored == 4
        stored = cache.lookup(fp, machine, 16)
        assert stored is not None and stored.schedule == result.best_schedule


class TestEdgePaths:
    def test_all_candidates_failing_raises(self, trained_forest, test_rows, monkeypatch):
        def boom(forest, schedule, **kwargs):
            raise CompilerError("nothing compiles today")

        monkeypatch.setattr(search_mod, "compile_model", boom)
        with pytest.raises(CompilerError, match="no schedule in the grid"):
            autotune(
                trained_forest, test_rows[:16], space=SMALL_SPACE,
                repeats=1, min_time_s=0.0,
            )

    def test_max_configs_zero_without_cache_raises(self, trained_forest, test_rows):
        with pytest.raises(CompilerError, match="max_configs=0"):
            autotune(trained_forest, test_rows[:16], repeats=1, max_configs=0)

    def test_max_configs_zero_with_persisted_winner(
        self, trained_forest, test_rows, tmp_path
    ):
        cache = ScheduleCache(str(tmp_path / "s.json"))
        autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, cache=cache,
        )
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0, max_configs=0, cache=cache,
        )
        assert result.from_cache

    def test_empty_sample_batch_raises(self, trained_forest):
        with pytest.raises(ModelError, match="non-empty"):
            autotune(trained_forest, np.empty((0, trained_forest.num_features)))

    def test_one_dimensional_rows_raise(self, trained_forest):
        with pytest.raises(ModelError, match="2-D"):
            autotune(trained_forest, np.zeros(trained_forest.num_features))

    def test_single_row_batch_works(self, trained_forest, test_rows):
        result = autotune(
            trained_forest, test_rows[:1], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0,
        )
        got = result.best_predictor.raw_predict(test_rows[:1])
        assert np.allclose(got, trained_forest.raw_predict(test_rows[:1]), rtol=1e-12)


class TestEagerDrop:
    def test_peak_live_predictors_bounded(self, trained_forest, test_rows, monkeypatch):
        """Losers are dropped before the next candidate compiles: at most the
        incumbent winner is alive when a new compile starts."""
        refs = []
        peak = []
        real = search_mod.compile_model

        def spy(forest, schedule, **kwargs):
            gc.collect()
            peak.append(sum(1 for r in refs if r() is not None))
            predictor = real(forest, schedule, **kwargs)
            refs.append(weakref.ref(predictor))
            return predictor

        monkeypatch.setattr(search_mod, "compile_model", spy)
        result = autotune(
            trained_forest, test_rows[:16], space=SMALL_SPACE,
            repeats=1, min_time_s=0.0,
        )
        assert len(peak) == 4
        assert max(peak) <= 1  # only the incumbent survives between compiles
        # and the log keeps scalars, not predictors
        for schedule, cost in result.log:
            assert isinstance(schedule, Schedule)
            assert isinstance(cost, float)
        del result


class TestTimer:
    def test_measure_returns_positive(self):
        m = measure(lambda: sum(range(1000)), rows=10, repeats=2)
        assert m.seconds > 0
        assert m.per_row_us == pytest.approx(m.seconds / 10 * 1e6)

    def test_min_of_repeats(self):
        m = measure(lambda: None, rows=1, repeats=5)
        assert m.seconds == min(m.all_seconds)

    def test_per_row_us_helper(self):
        assert per_row_us(lambda: None, rows=100, repeats=2) >= 0.0


class TestMachineProfiles:
    def test_two_profiles_registered(self):
        assert set(PROFILES) == {"intel-rocket-lake-like", "amd-ryzen-like"}

    def test_intel_has_cheaper_gather(self):
        """The paper attributes Intel's edge to its gather implementation."""
        assert (
            INTEL_ROCKET_LAKE_LIKE.gather_cost_per_lane
            < AMD_RYZEN_LIKE.gather_cost_per_lane
        )

    def test_intel_wider_vectors(self):
        assert INTEL_ROCKET_LAKE_LIKE.vector_lanes_f64 > AMD_RYZEN_LIKE.vector_lanes_f64

    def test_lane_computation(self):
        assert INTEL_ROCKET_LAKE_LIKE.vector_lanes_f64 == 8
        assert AMD_RYZEN_LIKE.vector_lanes_f64 == 4
