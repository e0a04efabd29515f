"""Unit tests for Schedule, HIR construction, and the MIR passes."""

import pytest

from repro.config import Schedule
from repro.errors import LoweringError, ScheduleError
from repro.hir.ir import build_hir
from repro.mir.ir import WalkOp
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import (
    interleave_pass,
    parallelize_pass,
    peel_and_unroll_pass,
    run_mir_pipeline,
    verify_mir,
)


class TestSchedule:
    def test_defaults_valid(self):
        s = Schedule()
        assert s.tile_size == 8
        assert s.layout == "sparse"

    def test_scalar_baseline(self):
        s = Schedule.scalar_baseline()
        assert s.tile_size == 1
        assert s.loop_order == "one-row"
        assert not s.pad_and_unroll
        assert s.interleave == 1

    def test_with_updates(self):
        s = Schedule().with_(tile_size=4)
        assert s.tile_size == 4
        assert Schedule().tile_size == 8  # frozen original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_size": 0},
            {"tile_size": 17},
            {"tiling": "dp-exact"},
            {"loop_order": "diagonal"},
            {"layout": "csr"},
            {"interleave": 0},
            {"parallel": 0},
            {"alpha": 0.0},
            {"beta": 1.5},
            {"row_block": -1},
            {"pad_max_slack": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            Schedule(**kwargs)

    def test_retired_scratch_field(self):
        """Persisted schedules written before the alloc emitter was retired
        carry ``"scratch": "arena"``: it names the only kernel left, so it
        loads; any other value names a kernel that no longer exists."""
        stored = {**Schedule(tile_size=4).to_dict(), "scratch": "arena"}
        assert Schedule.from_dict(stored) == Schedule(tile_size=4)
        with pytest.raises(ScheduleError, match="retired"):
            Schedule.from_dict({**stored, "scratch": "alloc"})
        assert "scratch" not in Schedule().to_dict()
        with pytest.raises(TypeError):
            Schedule(scratch="arena")


class TestBuildHIR:
    def test_groups_cover_all_trees(self, trained_forest):
        hir = build_hir(trained_forest, Schedule())
        indices = sorted(i for g in hir.groups for i in g.tree_indices)
        assert indices == list(range(trained_forest.num_trees))

    def test_tile_sizes_respected(self, trained_forest):
        for nt in (1, 2, 4):
            hir = build_hir(trained_forest, Schedule(tile_size=nt))
            for tiled in hir.tiled_trees:
                for tile in tiled.internal_tiles():
                    if not tile.is_dummy:
                        assert tile.num_nodes <= nt

    def test_padding_flag(self, deep_forest):
        padded = build_hir(deep_forest, Schedule(pad_and_unroll=True, pad_max_slack=99))
        assert all(t.is_uniform_depth for t in padded.tiled_trees)
        unpadded = build_hir(deep_forest, Schedule(pad_and_unroll=False))
        assert any(tile.is_dummy is False for t in unpadded.tiled_trees for tile in t.tiles)

    def test_lut_covers_registered_shapes(self, trained_forest):
        hir = build_hir(trained_forest, Schedule(tile_size=4))
        assert hir.lut.shape == (hir.shape_registry.num_shapes, 16)

    def test_no_reorder_gives_tree_per_group(self, trained_forest):
        hir = build_hir(trained_forest, Schedule(reorder=False))
        assert len(hir.groups) == trained_forest.num_trees


class TestMIR:
    def _mir(self, forest, schedule):
        hir = build_hir(forest, schedule)
        return lower_hir_to_mir(hir), hir

    def test_initial_walks_unoptimized(self, trained_forest):
        mir, _ = self._mir(trained_forest, Schedule())
        assert all(l.walk.width == 1 and l.walk.style == "loop" for l in mir.tree_loops)

    def test_interleave_clips_to_group_size(self, trained_forest):
        mir, hir = self._mir(trained_forest, Schedule(interleave=1000))
        interleave_pass(mir, hir)
        for loop in mir.tree_loops:
            assert loop.walk.width == loop.num_trees

    def test_unroll_requires_uniform(self, deep_forest):
        schedule = Schedule(pad_and_unroll=False, peel_walk=True)
        mir, hir = self._mir(deep_forest, schedule)
        peel_and_unroll_pass(mir, hir)
        assert all(l.walk.style in ("loop", "peeled") for l in mir.tree_loops)

    def test_unrolled_when_padded(self, trained_forest):
        schedule = Schedule(pad_and_unroll=True, pad_max_slack=99)
        mir, hir = self._mir(trained_forest, schedule)
        peel_and_unroll_pass(mir, hir)
        nontrivial = [l for l in mir.tree_loops if l.walk.depth > 0]
        assert nontrivial
        assert all(l.walk.style == "unrolled" for l in nontrivial)

    def test_peel_below_min_leaf_depth(self, deep_forest):
        schedule = Schedule(pad_and_unroll=False, peel_walk=True)
        mir, hir = self._mir(deep_forest, schedule)
        peel_and_unroll_pass(mir, hir)
        groups = {g.group_id: g for g in hir.groups}
        for loop in mir.tree_loops:
            if loop.walk.style == "peeled":
                assert loop.walk.peel < groups[loop.group_id].min_leaf_depth

    def test_parallelize_sets_threads(self, trained_forest):
        mir, hir = self._mir(trained_forest, Schedule(parallel=8))
        parallelize_pass(mir, hir)
        assert mir.row_loop.num_threads == 8
        assert mir.row_loop.parallel

    def test_pipeline_passes_verification(self, trained_forest):
        for schedule in (Schedule(), Schedule.scalar_baseline(), Schedule(parallel=4)):
            mir, hir = self._mir(trained_forest, schedule)
            run_mir_pipeline(mir, hir)  # verify_mir runs inside

    def test_verify_catches_overwide_jam(self, trained_forest):
        mir, hir = self._mir(trained_forest, Schedule())
        mir.tree_loops[0].walk.width = mir.tree_loops[0].num_trees + 1
        with pytest.raises(LoweringError):
            verify_mir(mir, hir)

    def test_verify_catches_bad_unroll(self, deep_forest):
        mir, hir = self._mir(deep_forest, Schedule(pad_and_unroll=False))
        for loop, group in zip(mir.tree_loops, hir.groups):
            if not group.uniform:
                loop.walk.style = "unrolled"
                break
        else:
            pytest.skip("all groups uniform")
        with pytest.raises(LoweringError):
            verify_mir(mir, hir)

    def test_dump_mentions_loop_order(self, trained_forest):
        mir, hir = self._mir(trained_forest, Schedule(loop_order="one-row"))
        assert "for row in block" in mir.dump()

    def test_walk_describe(self):
        walk = WalkOp(group_id=0, width=4, style="unrolled", depth=3)
        assert "3 traverseTile" in walk.describe()
