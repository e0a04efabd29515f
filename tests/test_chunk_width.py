"""Batch-adaptive tree jamming (``repro.mir.ir.chunk_width``).

A jammed tree loop sizes each walk chunk from the live batch: a 1-row call
walks a whole group per NumPy dispatch, a 2048-row call keeps the
schedule's interleave width. These tests pin what that must not change:

* the rule itself (a multiple of the jam width, inside the lane budget,
  never wider than the group, ``interleave=1`` untouched);
* batch-composition invariance — a row's margin does not depend on the
  batch that carried it — over the differential corners × precision ×
  layout × hot/cold split, on forests whose leaves are dyadic rationals so
  that every summation order is exact and equality is a pure routing check
  (BLAS ``gemv`` rounds a row's sum differently depending on the row's
  position in the batch, at this commit and before it, so last-bit float
  equality across batch sizes is not a property of either kernel);
* widened chunks keep the fixed-step kernel's float64 bits at equal batch;
* scratch arenas cover every widened chunk, grow once, and the LIR
  verifier rejects a spec that would not;
* the gain itself, without a clock: chunks per group at batch 1 and 2048.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

# batch-adaptive chunks are the NumPy emitter's loop, so every schedule
# names that backend (the native walker has no chunks; its batch
# independence is pinned in test_native_backend)
from conftest import CallCounter, random_forest_model
from conftest import numpy_schedule as Schedule
from repro.api import compile_model
from repro.errors import VerificationError
from repro.forest.ensemble import Forest
from repro.lir.memory import ScratchArena
from repro.mir.ir import LANE_BUDGET, chunk_width
from repro.verify import verify_lir_module
from test_differential_grid import CORNERS, NUM_FEATURES


BATCHES = (1, 2, 7, 8, 64, 65, 513)
#: 37 trees: ragged against interleave 4 and 8, so wide chunks end in a
#: short sub-chunk and groups differ in size
NUM_TREES = 37


def _dyadic(forest: Forest) -> Forest:
    """``forest`` with leaf values rounded to multiples of 1/64: sums of a
    few dozen such values are exact in float32, whatever the order."""
    for tree in forest.trees:
        tree.value = np.round(tree.value * 64.0) / 64.0
    return forest


@pytest.fixture(scope="module")
def rows():
    block = np.random.default_rng(77).normal(size=(BATCHES[-1], NUM_FEATURES))
    return block.astype(np.float32).astype(np.float64)


@pytest.fixture(scope="module")
def forests():
    return {
        1: random_forest_model(
            np.random.default_rng(11), NUM_TREES, 5, NUM_FEATURES
        ),
        3: random_forest_model(
            np.random.default_rng(12), NUM_TREES, 4, NUM_FEATURES, num_classes=3
        ),
    }


@pytest.fixture(scope="module")
def dyadic_forests(forests):
    return {
        classes: _dyadic(Forest.from_dict(forest.to_dict()))
        for classes, forest in forests.items()
    }


class TestRule:
    def test_formula(self):
        assert chunk_width(1, 8, 95, LANE_BUDGET) == 96  # the whole group
        assert chunk_width(7, 8, 95, LANE_BUDGET) == 96
        assert chunk_width(64, 8, 95, LANE_BUDGET) == 64  # 4096 // (64 * 8) = 8
        assert chunk_width(2048, 8, 95, LANE_BUDGET) == 8  # the floor
        assert chunk_width(0, 8, 95, LANE_BUDGET) == 96  # empty batch: no /0
        assert chunk_width(1, 8, 95, 0) == 8  # no budget: the fixed step
        assert chunk_width(1, 1, 1, LANE_BUDGET) == 1

    @pytest.mark.parametrize("width,trees", [(8, 95), (4, 4), (1, 1), (8, 260), (3, 5000)])
    def test_whole_sub_chunks_inside_the_budget(self, width, trees):
        last = None
        for batch in range(1, 2 * LANE_BUDGET + 1):
            k = chunk_width(batch, width, trees, LANE_BUDGET)
            assert k % width == 0 and width <= k < trees + width
            assert k == width or batch * k <= LANE_BUDGET
            assert last is None or k <= last  # never widens as B grows
            last = k

    def test_interleave_1_keeps_its_fixed_step(self, forests):
        predictor = compile_model(forests[1], Schedule(interleave=1))
        assert all(loop.lane_budget == 0 for loop in predictor.lir.mir.tree_loops)
        assert "K = " not in predictor.source and "for s0 in" not in predictor.source

    def test_mir_records_the_decision(self, forests):
        predictor = compile_model(forests[1], Schedule())
        loops = predictor.lir.mir.tree_loops
        # only loops with more than one jam-wide chunk have anything to widen
        assert [loop.lane_budget for loop in loops] == [
            LANE_BUDGET if loop.num_trees > loop.step else 0 for loop in loops
        ]
        assert f"within {LANE_BUDGET} lanes" in predictor.lir.mir.dump()
        step = max(loop.step for loop in loops)
        assert f"// (max(1, B) * {step})" in predictor.source


def _corner_cases():
    for corner in CORNERS:
        schedule = corner.values[0]
        for precision in ("float64", "float32", "int8"):
            for layout in ("sparse", "array"):
                for pgo in (None, 2):
                    # one multiclass pass per corner is enough to cover the
                    # (B, w) @ (w, C) accumulation
                    multiclass = layout == "sparse" and pgo is None
                    for classes in (1, 3) if multiclass else (1,):
                        yield pytest.param(
                            schedule.with_(
                                precision=precision, layout=layout, pgo=pgo,
                                backend="numpy_jit",
                            ),
                            classes,
                            id=f"{corner.id}-{precision}-{layout}-pgo{pgo}-c{classes}",
                        )


class TestBatchCompositionInvariance:
    @pytest.mark.parametrize("schedule,classes", _corner_cases())
    def test_row_margin_independent_of_its_batch(
        self, dyadic_forests, rows, schedule, classes
    ):
        predictor = compile_model(dyadic_forests[classes], schedule)
        # unjammed corners are the control (nothing widens) and pay a
        # dispatch per tree per row: a few small batches are plenty there
        batches = [b for b in BATCHES if schedule.interleave > 1 or b <= 8]
        alone = np.stack(
            [predictor.raw_predict(rows[i : i + 1])[0] for i in range(batches[-1])]
        )
        for batch in batches:
            got = predictor.raw_predict(rows[:batch])
            assert np.array_equal(got, alone[:batch]), f"batch {batch}"

    @pytest.mark.parametrize("layout", ["sparse", "array"])
    @pytest.mark.parametrize("classes", [1, 3])
    def test_float64_bits_of_the_fixed_step_kernel(
        self, forests, rows, layout, classes, monkeypatch
    ):
        # Arbitrary (inexact) leaves: a widened chunk must keep the
        # summation order of the fixed-step loop, sub-chunk by sub-chunk.
        # Relies on BLAS treating a strided (B, w) operand like a packed
        # one, which holds for float64 on the BLAS this suite runs with.
        schedule = Schedule(layout=layout)
        wide = compile_model(forests[classes], schedule)
        monkeypatch.setattr("repro.mir.passes.LANE_BUDGET", 0)
        fixed = compile_model(forests[classes], schedule)
        assert "K = " in wide.source and "K = " not in fixed.source
        for batch in BATCHES:
            assert np.array_equal(
                wide.raw_predict(rows[:batch]), fixed.raw_predict(rows[:batch])
            ), f"batch {batch}"


class TestArena:
    def test_reuse_big_small_big(self, forests, rows):
        predictor = compile_model(forests[1], Schedule())
        want = compile_model(forests[1], Schedule()).raw_predict(rows)
        assert np.array_equal(predictor.raw_predict(rows), want)
        arena = predictor._arena()
        grows, nbytes = arena.grows, arena.nbytes()
        assert np.array_equal(predictor.raw_predict(rows[:1]), want[:1])
        assert np.array_equal(predictor.raw_predict(rows), want)
        assert (arena.grows, arena.nbytes()) == (grows, nbytes)

    def test_small_first_then_big(self, forests, rows):
        predictor = compile_model(forests[1], Schedule())
        one = predictor.raw_predict(rows[:1])
        spec = predictor.arena_spec
        assert predictor._arena().nbytes() == spec.nbytes_for(1)
        # scratch for small batches grows by the widened chunk, no further
        assert spec.chunk_lanes(1) == max(g.num_trees for g in predictor.lir.groups)
        big = predictor.raw_predict(rows)
        assert np.array_equal(big[:1], one)

    @pytest.mark.parametrize("loop_order", ["one-tree", "one-row"])
    def test_capacity_covers_every_batch(self, forests, loop_order):
        predictor = compile_model(forests[1], Schedule(loop_order=loop_order))
        spec, lir = predictor.arena_spec, predictor.lir
        groups = [
            (g.walk.width, g.num_trees, lir.lane_budget(g.group_id))
            for g in lir.groups
            if not g.trivial
        ]
        assert any(trees > width for width, trees, _ in groups)
        for batch in range(1, 2 * LANE_BUDGET + 1):
            rows = 1 if spec.per_row else batch
            need = max(
                rows * min(chunk_width(rows, width, trees, budget), trees)
                for width, trees, budget in groups
            )
            assert need <= spec.chunk_lanes(rows), f"batch {batch}"
        for batch in (1, 3, 64, 700):
            arena = ScratchArena(spec).ensure(batch)
            assert arena.i2.size == spec.chunk_lanes(1 if spec.per_row else batch)
            assert arena.nbytes() == spec.nbytes_for(batch)

    def test_old_manifest_spec_keeps_fixed_step_sizing(self, forests):
        spec = compile_model(forests[1], Schedule()).arena_spec
        fields = dataclasses.asdict(spec)
        del fields["max_group"], fields["lane_budget"]  # a pre-rule manifest
        old = type(spec)(**fields)
        assert old.chunk_lanes(1) == spec.max_scalar
        assert old.nbytes_for(2048) == spec.nbytes_for(2048)

    def test_verifier_rejects_an_undersized_spec(self, forests, monkeypatch):
        from repro.lir.memory import arena_spec

        lir = compile_model(forests[1], Schedule()).lir
        verify_lir_module(lir)
        monkeypatch.setattr(
            "repro.verify.lir.arena_spec",
            lambda module: dataclasses.replace(arena_spec(module), max_group=1),
        )
        with pytest.raises(VerificationError, match="widened chunks"):
            verify_lir_module(lir)


def _leaf_gathers(predictor, data) -> Counter:
    """Leaf gathers per group — one per walk chunk — in one kernel call.

    The arena kernel gathers with ``g<i>_lv.take(...)``, a builtin method
    call, so the count comes from ``sys.setprofile`` and not from a stand-in
    ``_np`` (which that call never goes through)."""
    leaf_buffers = {
        id(buf): name[: -len("_lv")]
        for name, buf in predictor.kernel.__globals__.items()
        if name.endswith("_lv")
    }
    with CallCounter() as calls:
        predictor.raw_predict(data)
    return Counter(
        leaf_buffers[id(call.__self__)]
        for call in calls.c_calls
        if call.__name__ == "take" and id(call.__self__) in leaf_buffers
    )


def test_chunks_per_group_follow_the_batch():
    # higgs-shaped: 100 trees over 28 features under the default schedule.
    forest = random_forest_model(np.random.default_rng(5), 100, 6, 28)
    predictor = compile_model(forest, Schedule())
    groups = {
        f"g{g.group_id}": (g.num_trees, g.walk.width)
        for g in predictor.lir.groups
        if not g.trivial
    }
    assert max(trees for trees, _ in groups.values()) > 8
    data = np.random.default_rng(6).normal(size=(2048, 28))

    assert _leaf_gathers(predictor, data[:1]) == {name: 1 for name in groups}
    assert _leaf_gathers(predictor, data) == {
        name: -(-trees // width) for name, (trees, width) in groups.items()
    }
