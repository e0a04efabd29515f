"""Tests for repro.verify: structural verifiers, fuzzer, minimizer, CLI."""

import itertools
import json

import numpy as np
import pytest

from conftest import random_forest_model
from repro.api import compile_model
from repro.config import Schedule
from repro.errors import VerificationError
from repro.forest.ensemble import Forest
from repro.forest.statistics import populate_node_probabilities
from repro.hir.ir import build_hir
from repro.lir.layout.array_layout import EMPTY_SLOT
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline
from repro.verify import (
    FuzzConfig,
    minimize_case,
    run_fuzz,
    verify_hir,
    verify_lir_module,
    verify_mir_module,
)
from repro.verify.fuzz import (
    adversarial_batches,
    compare_case,
    load_repro,
    random_fuzz_forest,
    sample_schedule,
)

NUM_FEATURES = 6


@pytest.fixture(scope="module")
def verify_forest():
    forest = random_forest_model(
        np.random.default_rng(21), num_trees=6, max_depth=5, num_features=NUM_FEATURES
    )
    populate_node_probabilities(
        forest, np.random.default_rng(22).normal(size=(64, NUM_FEATURES))
    )
    return forest


def lower(forest, schedule):
    """Run the pipeline up to LIR without codegen."""
    hir = build_hir(forest, schedule)
    mir = run_mir_pipeline(lower_hir_to_mir(hir), hir)
    return hir, mir, lower_mir_to_lir(mir, hir)


# ----------------------------------------------------------------------
# Verifiers accept every grid configuration (both precisions)
# ----------------------------------------------------------------------
GRID = [
    pytest.param(
        ts, layout, precision, opt,
        id=f"t{ts}-{layout}-{precision}-{'opt' if opt else 'plain'}",
    )
    for ts, layout, precision, opt in itertools.product(
        (1, 2, 4, 8), ("array", "sparse"), ("float64", "float32"), (False, True)
    )
]


class TestVerifiersClean:
    @pytest.mark.parametrize("tile_size,layout,precision,opt", GRID)
    def test_grid_schedule_verifies_and_matches(
        self, verify_forest, tile_size, layout, precision, opt
    ):
        schedule = Schedule(
            tile_size=tile_size,
            layout=layout,
            precision=precision,
            tiling="hybrid" if opt else "basic",
            interleave=4 if opt else 1,
            peel_walk=opt,
            pad_and_unroll=opt,
            verify=True,
        )
        rows = np.random.default_rng(30).normal(size=(16, NUM_FEATURES))
        assert compare_case(verify_forest, schedule, rows) is None

    def test_verify_spans_recorded(self, verify_forest):
        predictor = compile_model(verify_forest, Schedule(verify=True))
        for name in ("verify-hir", "verify-mir-module", "verify-lir"):
            span = predictor.trace.find(name)
            assert span is not None, name
            assert span.stats  # every verifier reports stats

    def test_verify_off_is_default_and_adds_no_spans(self, verify_forest):
        predictor = compile_model(verify_forest, Schedule())
        assert predictor.schedule.verify is False
        assert predictor.trace.find("verify-hir") is None
        assert predictor.trace.find("verify-lir") is None

    def test_verify_off_kernel_is_byte_identical(self, verify_forest):
        """Acceptance: verification must never change what is compiled."""
        base = compile_model(verify_forest, Schedule(verify=False))
        checked = compile_model(verify_forest, Schedule(verify=True))
        assert base.generated_source == checked.generated_source
        rows = np.random.default_rng(31).normal(size=(8, NUM_FEATURES))
        np.testing.assert_array_equal(
            base.raw_predict(rows), checked.raw_predict(rows)
        )

    def test_verifiers_return_stats(self, verify_forest):
        hir, mir, lir = lower(verify_forest, Schedule())
        hs = verify_hir(hir)
        assert hs["trees_checked"] == verify_forest.num_trees
        assert hs["tiles_checked"] > 0
        ms = verify_mir_module(mir, hir)
        assert ms["trees_covered"] == verify_forest.num_trees
        ls = verify_lir_module(lir)
        assert ls["lanes_checked"] == verify_forest.num_trees
        assert ls["tiles_walked"] > 0


# ----------------------------------------------------------------------
# Corrupted modules are rejected with precise diagnostics
# ----------------------------------------------------------------------
class TestHIRRejections:
    def test_corrupted_group_depth(self, verify_forest):
        hir, _, _ = lower(verify_forest, Schedule())
        hir.groups[0].depth += 1
        with pytest.raises(VerificationError, match=r"HIR: group 0: cached depth"):
            verify_hir(hir)

    def test_group_not_a_permutation(self, verify_forest):
        hir, _, _ = lower(verify_forest, Schedule())
        hir.groups[0].tree_indices.append(hir.groups[0].tree_indices[0])
        with pytest.raises(VerificationError, match="permutation"):
            verify_hir(hir)

    def test_corrupted_lut_row(self, verify_forest):
        hir, _, _ = lower(verify_forest, Schedule())
        # Flip one stored child index of a real shape's LUT row.
        sid = next(
            i for i, s in enumerate(hir.shape_registry.shapes()) if s != ()
        )
        hir.lut[sid, 0] = (hir.lut[sid, 0] + 1) % (len(hir.shape_registry.shapes()[sid]) + 1)
        with pytest.raises(VerificationError, match=rf"LUT row {sid} pattern"):
            verify_hir(hir)


class TestMIRRejections:
    def test_chunk_step_disagrees_with_jam_width(self, verify_forest):
        hir, mir, _ = lower(verify_forest, Schedule())
        loop = mir.tree_loops[0]
        if loop.num_trees == 1:
            pytest.skip("single-tree loop cannot desynchronize step and width")
        loop.step = max(1, loop.walk.width - 1)
        with pytest.raises(VerificationError, match="MIR: group 0"):
            verify_mir_module(mir, hir)

    def test_wrong_thread_count(self, verify_forest):
        hir, mir, _ = lower(verify_forest, Schedule())
        mir.row_loop.num_threads = 7
        with pytest.raises(VerificationError, match="threads"):
            verify_mir_module(mir, hir)


class TestLIRRejections:
    def test_corrupted_dummy_lut_row(self, verify_forest):
        """Acceptance: a corrupted reserved LUT row is named in the error."""
        hir, mir, lir = lower(
            verify_forest, Schedule(tile_size=4, layout="sparse")
        )
        assert lir.dummy_shape_id is not None  # hops/padding register it
        lir.lut[lir.dummy_shape_id, 3] = 1
        with pytest.raises(
            VerificationError,
            match=rf"dummy LUT row {lir.dummy_shape_id} corrupted: pattern 0x3",
        ):
            verify_lir_module(lir)

    def test_sparse_child_base_out_of_bounds(self, verify_forest):
        hir, mir, lir = lower(verify_forest, Schedule(layout="sparse"))
        group = next(g for g in lir.groups if not g.trivial)
        lane = int(np.argmax(~group.layout.root_leaf))
        n = int(group.layout.num_tiles[lane])
        group.layout.child_base[lane, 0] = n + 5
        with pytest.raises(
            VerificationError,
            match=rf"group {group.group_id} lane {lane} tile 0: child index",
        ):
            verify_lir_module(lir)

    def test_sparse_child_base_no_progress(self, verify_forest):
        hir, mir, lir = lower(verify_forest, Schedule(layout="sparse"))
        group = next(g for g in lir.groups if not g.trivial)
        lane = int(np.argmax(~group.layout.root_leaf))
        if int(group.layout.child_base[lane, 0]) < 0:
            pytest.skip("root's children are already leaves in this lane")
        group.layout.child_base[lane, 0] = 0
        with pytest.raises(VerificationError, match="does not advance"):
            verify_lir_module(lir)

    def test_array_walk_into_empty_slot(self, verify_forest):
        hir, mir, lir = lower(
            verify_forest, Schedule(layout="array", tile_size=2)
        )
        group = next(g for g in lir.groups if not g.trivial)
        lane = next(
            l for l in range(group.layout.num_trees)
            if int(group.layout.shape_ids[l, 0]) >= 0
        )
        arity = group.layout.tile_size + 1
        child = 1  # first child slot of the root
        assert child < group.layout.num_slots
        group.layout.shape_ids[lane, child] = EMPTY_SLOT
        with pytest.raises(VerificationError, match="empty slot"):
            verify_lir_module(lir)

    def test_feature_index_out_of_range(self, verify_forest):
        hir, mir, lir = lower(verify_forest, Schedule(layout="sparse"))
        group = next(g for g in lir.groups if not g.trivial)
        lane = int(np.argmax(~group.layout.root_leaf))
        group.layout.features[lane, 0, 0] = lir.num_features + 3
        with pytest.raises(VerificationError, match="feature index"):
            verify_lir_module(lir)

    def test_compile_model_surfaces_verification_error(self, verify_forest, monkeypatch):
        """verify=True wires the LIR verifier into compile_model itself."""
        import repro.api as api

        def corrupt_lower(mir, hir, trace=None):
            lir = lower_mir_to_lir(mir, hir, trace=trace)
            for g in lir.groups:
                if not g.trivial and g.layout.kind == "sparse":
                    lane = int(np.argmax(~g.layout.root_leaf))
                    g.layout.child_base[lane, 0] = int(g.layout.num_tiles[lane]) + 9
                    return lir
            return lir

        monkeypatch.setattr(api, "lower_mir_to_lir", corrupt_lower)
        with pytest.raises(VerificationError, match="LIR:"):
            api.compile_model(verify_forest, Schedule(layout="sparse", verify=True))


# ----------------------------------------------------------------------
# Fuzzer
# ----------------------------------------------------------------------
class TestFuzzer:
    def test_adversarial_corpus_shapes(self, verify_forest):
        rng = np.random.default_rng(5)
        batches = dict(adversarial_batches(verify_forest, rng))
        assert batches["empty"].shape == (0, NUM_FEATURES)
        assert batches["one-row"].shape == (1, NUM_FEATURES)
        assert not batches["non-contiguous-cols"].flags.c_contiguous
        assert not batches["strided-rows"].flags.c_contiguous
        assert batches["wrong-dtype"].dtype == np.float32
        assert np.isinf(batches["plus-inf"]).any()
        assert np.isinf(batches["minus-inf"]).any()
        # threshold-equal rows really are drawn from the model's thresholds
        # (plus the 0.0 the corpus always keeps in the pool)
        thr = np.concatenate(
            [t.threshold[t.internal_nodes()] for t in verify_forest.trees]
            + [np.zeros(1)]
        )
        assert np.isin(batches["threshold-equal"], thr).all()

    def test_sampled_schedules_are_valid_and_verify(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            schedule = sample_schedule(rng)  # Schedule.__post_init__ validates
            assert schedule.verify is True

    def test_fixed_seed_fuzz_run_is_clean(self):
        """A small seeded campaign: zero mismatches across the corpus."""
        report = run_fuzz(FuzzConfig(cases=8, seed=1234, minimize=False))
        assert report.ok, report.summary()
        assert report.comparisons == 8 * 14  # every corpus batch compared
        assert "0 failures" in report.summary()

    def test_fuzz_records_and_dumps_failures(self, tmp_path, monkeypatch):
        import repro.verify.fuzz as fuzz

        def fake_compare(forest, schedule, rows):
            if rows.shape[0] == 1:  # fail exactly the one-row batch
                return ("interpreter", 0.5)
            return None

        monkeypatch.setattr(fuzz, "compare_case", fake_compare)
        report = fuzz.run_fuzz(
            FuzzConfig(cases=2, seed=9, minimize=False, out_dir=str(tmp_path))
        )
        assert len(report.failures) == 2
        failure = report.failures[0]
        assert failure.batch == "one-row" and failure.stage == "interpreter"
        assert failure.repro_path is not None
        payload = json.loads(open(failure.repro_path).read())
        assert payload["batch"] == "one-row"
        forest, schedule, rows = load_repro(failure.repro_path)
        assert isinstance(forest, Forest) and rows.shape[0] == 1
        assert schedule.verify is True

    def test_repro_json_roundtrips_infinities(self, tmp_path):
        from repro.verify.fuzz import _dump_repro, FuzzFailure

        forest = random_fuzz_forest(np.random.default_rng(2), num_trees=2)
        rows = np.array([[np.inf, -np.inf, 0.0, 1.0, 2.0, 3.0]])
        failure = FuzzFailure(
            case=0, stage="interpreter", batch="plus-inf", max_abs_err=1.0,
            schedule={}, num_trees=2, num_rows=1,
        )
        path = _dump_repro(str(tmp_path), 0, forest, Schedule(), rows, failure)
        loaded_forest, loaded_schedule, loaded_rows = load_repro(path)
        np.testing.assert_array_equal(loaded_rows, rows)
        assert loaded_forest.num_trees == 2
        # a repro stored before the scratch knob was retired still loads
        payload = json.loads(open(path).read())
        payload["schedule"]["scratch"] = "arena"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_repro(path)[1] == loaded_schedule


class TestMinimizer:
    def test_minimizer_shrinks_to_injected_core(self):
        """With an injected failure predicate the shrink is fully checkable:
        the failure needs one marked tree and one marked row, so the minimal
        repro is exactly 1 tree x 1 row and a near-baseline schedule."""
        rng = np.random.default_rng(77)
        forest = random_fuzz_forest(rng, num_trees=5, max_depth=3)
        marked = forest.trees[2]
        marked_value = float(marked.value[marked.leaves()[0]])
        rows = rng.normal(size=(8, NUM_FEATURES))
        rows[5, 0] = 1e6  # the marked row

        def check(f, s, r):
            has_tree = any(
                marked_value in t.value.tolist() for t in f.trees
            )
            has_row = bool((np.asarray(r)[:, 0] == 1e6).any())
            return has_tree and has_row

        schedule = Schedule(tile_size=4, interleave=4, parallel=2, row_block=3)
        small_forest, small_schedule, small_rows = minimize_case(
            forest, schedule, rows, check=check, budget=200
        )
        assert small_forest.num_trees == 1
        assert marked_value in small_forest.trees[0].value.tolist()
        assert small_rows.shape[0] == 1 and small_rows[0, 0] == 1e6
        # Schedule walked toward the scalar baseline wherever possible.
        assert small_schedule.parallel == 1
        assert small_schedule.row_block == 0
        assert small_schedule.interleave == 1
        assert small_schedule.tile_size == 1
        assert small_schedule.layout == "array"

    def test_minimizer_respects_budget(self):
        calls = []

        def check(f, s, r):
            calls.append(1)
            return True

        forest = random_fuzz_forest(np.random.default_rng(3), num_trees=4)
        minimize_case(
            forest, Schedule(), np.zeros((16, NUM_FEATURES)), check=check, budget=10
        )
        assert len(calls) <= 10


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_smoke_exit_zero(self, tmp_path, capsys):
        from repro.verify.__main__ import main

        rc = main(
            ["--no-grid", "--cases", "3", "--seed", "0", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify: OK" in out

    def test_grid_phase_runs(self, capsys):
        from repro.verify.__main__ import run_grid

        failures = run_grid(seed=0, smoke=True, log=print)
        assert failures == 0
        assert "grid:" in capsys.readouterr().out


class TestCostRankedSweep:
    def test_tiny_sweep_is_clean(self, capsys):
        """The schedules the budgeted tuner compiles first must verify and
        match the references on the adversarial corpus (PR5 sweep config)."""
        from repro.verify.sweep import run_cost_ranked_sweep

        comparisons, failures = run_cost_ranked_sweep(
            seeds=(0,), top_k=2, log=print
        )
        assert failures == 0
        assert comparisons > 0

    def test_cli_flag_runs_sweep(self, tmp_path, capsys):
        from repro.verify.__main__ import main

        rc = main(
            [
                "--no-grid", "--cost-ranked", "--smoke", "--cases", "1",
                "--seed", "0", "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cost-ranked sweep:" in out
