"""Differential + concurrency tests for scratch-arena kernels.

The emitter writes every walk-step temporary into preallocated
per-thread buffers, so two things must hold beyond the existing grid:

* arena kernels match the reference walk across the full Table-II schedule
  grid at both precisions (float64 tight, float32 within 1e-5 relative);
* arenas rebind correctly across varying batch sizes (views are sliced per
  chunk, growth is monotonic) and across threads (one arena per thread,
  never shared, never corrupting concurrent outputs).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

# the scratch arena is the NumPy kernels' working set: every schedule here
# names that backend
from conftest import numpy_schedule as Schedule
from conftest import random_forest_model
from repro.api import compile_model
from repro.lir.memory import ArenaSpec, ScratchArena
from test_differential_grid import GRID, NUM_FEATURES, _with_probabilities

PRECISIONS = ("float64", "float32")


@pytest.fixture(scope="module")
def arena_rows():
    return np.random.default_rng(404).normal(size=(64, NUM_FEATURES))


@pytest.fixture(scope="module")
def arena_forest(arena_rows):
    forest = random_forest_model(
        np.random.default_rng(41), num_trees=6, max_depth=5, num_features=NUM_FEATURES
    )
    return _with_probabilities(forest, arena_rows)


def _schedule(tile_size, tiling, layout, loops, precision):
    return Schedule(
        tile_size=tile_size, tiling=tiling, layout=layout,
        precision=precision, **loops,
    )


def _rtol(precision):
    # float32 narrows thresholds/features/leaves; comparisons near a
    # rounded threshold may legitimately flip, but leaf sums stay within
    # single-precision noise on these smooth forests.
    return 1e-5 if precision == "float32" else 1e-10


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("tile_size,tiling,layout,loops", GRID)
class TestArenaGrid:
    def test_matches_reference_and_alloc(
        self, arena_forest, arena_rows, tile_size, tiling, layout, loops, precision
    ):
        # The name predates the alloc emitter's retirement; it is kept so
        # the 80 parametrized ids stay comparable across the PR stack.
        arena = compile_model(
            arena_forest, _schedule(tile_size, tiling, layout, loops, precision)
        )
        got = arena.raw_predict(arena_rows)
        want = arena_forest.raw_predict(arena_rows)
        np.testing.assert_allclose(got, want, rtol=_rtol(precision), atol=1e-7)


class TestArenaReuse:
    """One predictor, many batch shapes: views must rebind, capacity grow."""

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_varying_batch_sizes(self, arena_forest, arena_rows, precision):
        predictor = compile_model(arena_forest, Schedule(precision=precision))
        rng = np.random.default_rng(7)
        assert predictor.scratch_nbytes() == 0  # lazy: nothing until first run
        for n in (64, 1, 7, 130, 0, 33, 130):
            rows = rng.normal(size=(n, NUM_FEATURES))
            np.testing.assert_allclose(
                predictor.raw_predict(rows),
                arena_forest.raw_predict(rows),
                rtol=_rtol(precision),
                atol=1e-7,
            )
        assert predictor.scratch_nbytes() > 0

    def test_growth_is_monotonic(self, arena_forest):
        predictor = compile_model(arena_forest, Schedule())
        rng = np.random.default_rng(8)
        predictor.raw_predict(rng.normal(size=(8, NUM_FEATURES)))
        small = predictor.scratch_nbytes()
        predictor.raw_predict(rng.normal(size=(256, NUM_FEATURES)))
        grown = predictor.scratch_nbytes()
        assert grown >= small
        # Shrinking the batch must not shrink (or reallocate) the arena.
        predictor.raw_predict(rng.normal(size=(4, NUM_FEATURES)))
        assert predictor.scratch_nbytes() == grown

    def test_one_row_arena_is_batch_independent(self, arena_forest):
        predictor = compile_model(arena_forest, Schedule(loop_order="one-row"))
        rng = np.random.default_rng(9)
        predictor.raw_predict(rng.normal(size=(4, NUM_FEATURES)))
        first = predictor.scratch_nbytes()
        predictor.raw_predict(rng.normal(size=(512, NUM_FEATURES)))
        # Row-at-a-time kernels touch one row of scratch regardless of B.
        assert predictor.scratch_nbytes() == first

    def test_repeated_results_identical(self, arena_forest, arena_rows):
        """Arena reuse leaves no state behind: rerunning is bit-stable."""
        predictor = compile_model(arena_forest, Schedule())
        first = predictor.raw_predict(arena_rows)
        for _ in range(3):
            np.testing.assert_array_equal(predictor.raw_predict(arena_rows), first)


class TestArenaConcurrency:
    def test_threads_get_distinct_arenas(self, arena_forest, arena_rows):
        predictor = compile_model(arena_forest, Schedule())
        arenas = {}
        barrier = threading.Barrier(2)

        def worker(tid):
            barrier.wait()
            predictor.raw_predict(arena_rows)
            arenas[tid] = predictor._arena()

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert arenas[0] is not arenas[1]
        assert predictor.scratch_nbytes() >= arenas[0].nbytes() + arenas[1].nbytes()

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_shared_predictor_uncorrupted(self, arena_forest, precision):
        """Two threads hammer one Predictor; per-thread arenas never mix."""
        predictor = compile_model(arena_forest, Schedule(precision=precision))
        rng = np.random.default_rng(11)
        # Different batch shapes per thread so shared scratch would show up
        # as shape errors or cross-talk, not silent luck.
        batches = {
            0: [rng.normal(size=(n, NUM_FEATURES)) for n in (64, 3, 128, 17)],
            1: [rng.normal(size=(n, NUM_FEATURES)) for n in (5, 200, 1, 96)],
        }
        serial = {
            tid: [predictor.raw_predict(b) for b in rows]
            for tid, rows in batches.items()
        }
        results = {}
        barrier = threading.Barrier(2)

        def worker(tid):
            barrier.wait()
            out = []
            for _ in range(10):
                out = [predictor.raw_predict(b) for b in batches[tid]]
            return out

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {tid: pool.submit(worker, tid) for tid in batches}
            for tid, future in futures.items():
                results[tid] = future.result()
        for tid, outs in results.items():
            for got, want in zip(outs, serial[tid]):
                np.testing.assert_array_equal(got, want)


class TestNoCopyFastPath:
    def test_matching_dtype_not_copied(self, arena_forest):
        predictor = compile_model(arena_forest, Schedule())
        rows = np.ascontiguousarray(
            np.random.default_rng(0).normal(size=(16, NUM_FEATURES))
        )
        assert predictor._check(rows) is rows

    def test_float32_predictor_accepts_float32_without_copy(self, arena_forest):
        predictor = compile_model(arena_forest, Schedule(precision="float32"))
        rows = np.random.default_rng(0).normal(size=(16, NUM_FEATURES))
        rows32 = np.ascontiguousarray(rows, dtype=np.float32)
        assert predictor._check(rows32) is rows32
        # Mismatched dtype still converts (correctness over zero-copy).
        converted = predictor._check(rows)
        assert converted.dtype == np.float32

    def test_noncontiguous_still_copied(self, arena_forest):
        predictor = compile_model(arena_forest, Schedule())
        wide = np.random.default_rng(0).normal(size=(16, 2 * NUM_FEATURES))
        view = wide[:, ::2]
        checked = predictor._check(view)
        assert checked is not view
        assert checked.flags.c_contiguous


class TestArenaSpec:
    def test_nbytes_for_matches_allocation(self, arena_forest):
        predictor = compile_model(arena_forest, Schedule())
        spec = predictor.arena_spec
        arena = ScratchArena(spec).ensure(64)
        assert arena.nbytes() == spec.nbytes_for(64)

    def test_row_block_preallocates(self):
        spec = ArenaSpec(
            max_lane=8, max_scalar=2, num_classes=1, num_features=4,
            per_row=False, row_block=32, float_dtype="float64",
            findex_dtype="int64", pack_widths=(16,),
        )
        arena = ScratchArena(spec)
        assert arena.nbytes() == spec.nbytes_for(32)
        assert arena.grows == 1
        arena.ensure(32)  # covered by the construction-time allocation
        assert arena.grows == 1
