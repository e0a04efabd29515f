"""Tests for the extension features: the QuickScorer traversal strategy,
the compaction ablation flag, storage-width padding, group merging, and
the single-shape codegen specialization."""

import numpy as np
import pytest

from repro.api import compile_model
from repro.autotune import autotune
from repro.autotune.space import TuningSpace
from repro.backend.codegen import emit_module_source
from repro.backend.strategies import QuickScorerStrategyPredictor
from repro.config import Schedule
from repro.errors import ExecutionError, ScheduleError
from repro.experiments import ablations
from repro.experiments.harness import ExperimentConfig
from repro.hir.ir import build_hir
from repro.hir.tiling.shapes import ShapeRegistry, storage_width
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline


def lower(forest, schedule):
    hir = build_hir(forest, schedule)
    return lower_mir_to_lir(run_mir_pipeline(lower_hir_to_mir(hir), hir), hir)


class TestStorageWidth:
    @pytest.mark.parametrize("nt,expected", [(1, 1), (2, 2), (3, 4), (4, 4),
                                             (5, 8), (7, 8), (8, 8), (9, 16)])
    def test_power_of_two(self, nt, expected):
        assert storage_width(nt) == expected

    def test_layout_buffers_padded(self, trained_forest):
        lir = lower(trained_forest, Schedule(tile_size=3))
        for group in lir.groups:
            if not group.trivial:
                assert group.layout.thresholds.shape[2] == 4

    def test_lut_width_matches_padding(self, trained_forest):
        lir = lower(trained_forest, Schedule(tile_size=3))
        assert lir.lut.shape[1] == 16  # 2**storage_width(3)

    def test_lut_width_guard(self):
        reg = ShapeRegistry(4)
        with pytest.raises(Exception):
            reg.build_lut(width=2)

    @pytest.mark.parametrize("nt", [3, 5, 6, 7])
    def test_odd_tile_sizes_still_correct(self, trained_forest, test_rows, nt):
        predictor = compile_model(trained_forest, Schedule(tile_size=nt))
        want = trained_forest.raw_predict(test_rows[:48])
        assert np.allclose(predictor.raw_predict(test_rows[:48]), want, rtol=1e-12)


class TestCompactionFlag:
    @pytest.mark.parametrize("layout", ["array", "sparse"])
    def test_masked_loops_equivalent(self, deep_forest, test_rows, layout):
        base = Schedule(layout=layout, pad_and_unroll=False)
        want = compile_model(deep_forest, base).raw_predict(test_rows)
        masked = compile_model(
            deep_forest, base.with_(compact_walks=False)
        ).raw_predict(test_rows)
        assert np.allclose(want, masked, rtol=1e-12)

    def test_masked_source_differs(self, deep_forest):
        compact = lower(deep_forest, Schedule(pad_and_unroll=False))
        masked = lower(
            deep_forest, Schedule(pad_and_unroll=False, compact_walks=False)
        )
        assert "act_r" in emit_module_source(compact)
        assert "alive" in emit_module_source(masked)
        assert "act_r" not in emit_module_source(masked)


class TestGroupMerging:
    def test_loop_style_merges_groups(self, deep_forest):
        hir = build_hir(deep_forest, Schedule(pad_and_unroll=False))
        assert len(hir.groups) == 1
        assert hir.groups[0].num_trees == deep_forest.num_trees

    def test_merged_group_sorted_by_depth(self, deep_forest):
        hir = build_hir(deep_forest, Schedule(pad_and_unroll=False))
        depths = [hir.tiled_trees[i].max_leaf_depth for i in hir.groups[0].tree_indices]
        assert depths == sorted(depths)

    def test_unrolled_style_keeps_depth_groups(self, deep_forest):
        hir = build_hir(deep_forest, Schedule(pad_and_unroll=True, pad_max_slack=99))
        for group in hir.groups:
            ds = {hir.tiled_trees[i].max_leaf_depth for i in group.tree_indices}
            assert len(ds) == 1


class TestSingleShapeSpecialization:
    def test_tile1_source_has_no_lut(self, trained_forest):
        lir = lower(trained_forest, Schedule(tile_size=1))
        source = emit_module_source(lir)
        # The LUT lookup folds to `1 - bit` written in place.
        assert "_np.subtract(1, bits, ci)" in source
        assert "lut.take(" not in source and "lut1.take(" not in source

    def test_tile1_still_correct(self, trained_forest, test_rows):
        predictor = compile_model(trained_forest, Schedule(tile_size=1))
        want = trained_forest.raw_predict(test_rows)
        assert np.allclose(predictor.raw_predict(test_rows), want, rtol=1e-12)


class TestQuickScorerStrategy:
    def test_selected_via_schedule(self, trained_forest, test_rows):
        predictor = compile_model(trained_forest, Schedule(traversal="quickscorer"))
        assert isinstance(predictor, QuickScorerStrategyPredictor)
        want = trained_forest.raw_predict(test_rows)
        assert np.allclose(predictor.raw_predict(test_rows), want, rtol=1e-12)

    def test_predict_applies_transform(self, binary_forest, test_rows):
        predictor = compile_model(binary_forest, Schedule(traversal="quickscorer"))
        probs = predictor.predict(test_rows)
        assert np.allclose(probs, binary_forest.predict(test_rows), rtol=1e-12)

    def test_validation(self, trained_forest, test_rows):
        predictor = compile_model(trained_forest, Schedule(traversal="quickscorer"))
        bad = test_rows.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ExecutionError):
            predictor.raw_predict(bad)
        with pytest.raises(ExecutionError):
            predictor.raw_predict(test_rows[:, :3])

    def test_introspection_surface(self, trained_forest):
        predictor = compile_model(trained_forest, Schedule(traversal="quickscorer"))
        assert predictor.memory_bytes() > 0
        assert "quickscorer" in predictor.generated_source
        assert "QuickScorerStrategy" in predictor.dump_ir()

    def test_bad_traversal_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(traversal="gpu")

    def test_autotune_explores_quickscorer(self, trained_forest, test_rows):
        space = TuningSpace(
            tile_sizes=(4,), tilings=("basic",), pad_and_unroll=(True,),
            interleaves=(8,), layouts=("sparse",),
            traversals=("tiled", "quickscorer"),
        )
        assert space.size() == 2
        result = autotune(trained_forest, test_rows[:64], space=space, repeats=1)
        traversals = {s.traversal for s, _ in result.log}
        assert traversals == {"tiled", "quickscorer"}

    def test_oversize_trees_fail_gracefully_in_autotune(self, deep_forest, test_rows):
        """Models past the 64-leaf cap must be skipped, not crash the tuner."""
        space = TuningSpace(
            tile_sizes=(4,), tilings=("basic",), pad_and_unroll=(True,),
            interleaves=(8,), layouts=("sparse",),
            traversals=("tiled", "quickscorer"),
        )
        result = autotune(deep_forest, test_rows[:32], space=space, repeats=1)
        assert result.best_schedule.traversal == "tiled" or all(
            t.num_leaves <= 64 for t in deep_forest.trees
        )


class TestAblationsExperiment:
    def test_rows_cover_design_choices(self):
        rows = ablations.run(ExperimentConfig(batch_size=256, repeats=1, scale=0.02))
        labels = [r["ablation"] for r in rows]
        assert any("compaction" in lbl for lbl in labels)
        assert any("array layout" in lbl for lbl in labels)
        assert any("row blocking" in lbl for lbl in labels)
        base = rows[0]
        assert base["vs base"] == 1.0
