"""Dispatch-lean kernel emission: every emitted statement is one direct C call.

The emitter of ``repro.backend.codegen`` follows three rules — gathers
are ``buf.take(idx, axis, out, 'clip')`` method calls (R1), nothing
loop-invariant is built inside a step (R2), a full chunk's scratch views
come from one memoised lookup on the thread's ``ScratchArena`` (R3). What
this file pins, without a clock:

* the dispatch budget of one warmed 1-row call;
* a source lint of the emitter over the schedule grid;
* the bind memo: stale views die with a regrow, threads do not share one,
  it stays inside its bound, and scratch accounting does not see it.
"""

import os
import re
import threading

import numpy as np
import pytest

# what is pinned here is the NumPy emitter's source text, dispatch counts
# and arena: every schedule names that backend
from conftest import CallCounter, random_forest_model
from conftest import numpy_schedule as Schedule
from repro.api import compile_model
from repro.lir.memory import ScratchArena
from test_differential_grid import CORNERS, NUM_FEATURES


@pytest.fixture(scope="module")
def higgs_shaped():
    """100 trees over 28 features: the shape of the ``online_b1`` forest."""
    return random_forest_model(np.random.default_rng(5), 100, 6, 28)


def _warmed_call(predictor, batch: int = 1) -> CallCounter:
    rows = predictor._check(
        np.random.default_rng(6).normal(size=(batch, predictor.num_features))
    )
    out, arena = predictor._alloc_out(batch), predictor._arena()
    for _ in range(2):
        predictor.kernel(rows, out, arena)
    with CallCounter() as calls:
        predictor.kernel(rows, out, arena)
    return calls


class TestDispatchBudget:
    def test_one_row_call(self, higgs_shaped):
        """One warmed 1-row ``predict_block`` call under the default schedule.

        Parent commit (PR14): 62 Python frames (20 ``np.take`` calls, each
        ``_take_dispatcher`` + ``take`` + ``_wrapfunc``, plus
        ``ScratchArena.ensure``) and 82 builtin calls (27 ``reshape``,
        20 ``getattr``, 20 ``take``, 6 ``view``, 9 ``min``/``max``).
        This commit: the kernel's own frame and 33 builtin calls (20
        ``take``, 8 ``min``/``max``, 2 ``dict.get``, 2 ``fill``, 1
        ``reshape``) — 0.40x. Ufunc calls raise no profile event on either
        side; there are as many as before.
        """
        predictor = compile_model(higgs_shaped, Schedule())
        calls = _warmed_call(predictor)
        assert [code.co_name for code in calls.frames] == ["predict_block"]
        assert len(calls.c_calls) == 33
        assert len(calls.c_calls) <= 0.8 * 82

    @pytest.mark.parametrize(
        "schedule",
        [
            Schedule(pad_and_unroll=False, peel_walk=False),
            Schedule(pad_and_unroll=False, compact_walks=False),
            Schedule(layout="array", pad_and_unroll=False),
            Schedule(precision="int8", pgo=2),
            Schedule(loop_order="one-row"),
        ],
        ids=["guarded", "masked", "array-guarded", "int8-pgo", "one-row"],
    )
    def test_no_wrapper_frame_below_any_kernel(self, higgs_shaped, schedule):
        predictor = compile_model(higgs_shaped, schedule)
        kernel, *below = _warmed_call(predictor, batch=3).frames
        assert kernel.co_name == "predict_block"
        # What a guarded loop still enters are NumPy's own argument
        # dispatchers for ops that have no method form (`np.where`,
        # `np.copyto`, `ndarray.any`): never the `fromnumeric` wrappers,
        # never the arena.
        assert {os.path.basename(code.co_filename) for code in below} <= {
            "multiarray.py", "_methods.py",
        }
        if "while" not in predictor.source:
            assert not below


# ----------------------------------------------------------------------
# Source lint
# ----------------------------------------------------------------------

def _grid():
    """Table-II corners (+ the masked-loop ablation) x precision x layout x
    hot/cold split x loop order."""
    bases = [corner.values[0] for corner in CORNERS]
    bases.append(Schedule(pad_and_unroll=False, compact_walks=False))
    for base in bases:
        for precision in ("float64", "float32", "int8"):
            for layout in ("sparse", "array"):
                for pgo in (None, 2):
                    for loop_order in ("one-tree", "one-row"):
                        yield base.with_(
                            precision=precision, layout=layout, pgo=pgo,
                            loop_order=loop_order, backend="numpy_jit",
                        )


@pytest.fixture(scope="module")
def grid_forest():
    return random_forest_model(np.random.default_rng(11), 37, 5, NUM_FEATURES)


def test_arena_sources_are_dispatch_lean(grid_forest):
    for schedule in _grid():
        source = compile_model(grid_forest, schedule).source
        prelude, body = source.split("def predict_block", 1)
        assert "_np.take(" not in source, schedule
        assert "_np.nonzero(" not in source and "_np.searchsorted(" not in source
        assert "out=" not in body.replace("(rows, out, arena=None)", ""), schedule
        # scalar constants and reinterpreted views are built once: in the
        # prelude and in ScratchArena, never in the kernel body
        assert not re.search(r"_np\.u?int\d+\(|\.view\(", body), schedule
        assert all(
            line.startswith(('"""', "_p")) for line in prelude.splitlines()
        ), prelude


# ----------------------------------------------------------------------
# Bind memo
# ----------------------------------------------------------------------

class TestBindMemo:
    @pytest.mark.parametrize("loop_order", ["one-tree", "one-row"])
    @pytest.mark.parametrize("precision", ["float64", "int8"])
    def test_regrow_drops_stale_views(self, grid_forest, precision, loop_order):
        predictor = compile_model(
            grid_forest,
            Schedule(precision=precision, loop_order=loop_order, pad_and_unroll=False),
        )
        rows = predictor._check(
            np.random.default_rng(3).normal(size=(1024, NUM_FEATURES))
        )

        def run(arena, batch):
            out = predictor._alloc_out(batch)
            return predictor.kernel(rows[:batch], out, arena).copy()

        arena = ScratchArena(predictor.arena_spec)
        for batch in (256, 1, 256, 1024, 256, 1):  # big, 1, big, bigger, ...
            memo_before, grows = arena.__dict__.get("memo"), arena.grows
            got = run(arena, batch)
            assert np.array_equal(got, run(ScratchArena(predictor.arena_spec), batch))
            if arena.grows != grows:
                assert arena.memo is not memo_before
            for views in arena.memo.values():
                assert all(
                    np.shares_memory(view, cap) for view, cap in zip(views, arena.cap)
                )
        assert arena.grows == (1 if predictor.arena_spec.per_row else 2)

    def test_two_threads_two_memos(self, grid_forest):
        predictor = compile_model(grid_forest, Schedule())
        rows = np.random.default_rng(4).normal(size=(8, NUM_FEATURES))
        want = predictor.raw_predict(rows)
        got = []
        worker = threading.Thread(target=lambda: got.append(predictor.raw_predict(rows)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and np.array_equal(got[0], want)
        mine = predictor._arena()
        with predictor._arenas_lock:
            arenas = list(predictor._arenas)
        # the worker's arena is gone with its thread; ours kept its own memo
        assert arenas == [mine] and mine.memo
        other = ScratchArena(predictor.arena_spec).ensure(8)
        assert other.memo == {} and other.memo is not mine.memo

    def test_memo_stays_bounded(self, grid_forest):
        predictor = compile_model(grid_forest, Schedule())
        arena = predictor._arena()
        rows = predictor._check(
            np.random.default_rng(5).normal(size=(4096, NUM_FEATURES))
        )
        out = predictor._alloc_out(4096)
        # every batch size up to 64, then a spread up to 4096: far more
        # (B, k) shapes than the memo holds
        for batch in [*range(1, 65), *range(65, 4097, 13), 4096]:
            predictor.kernel(rows[:batch], out[:batch], arena)
            assert 0 < len(arena.memo) <= ScratchArena.MEMO_CAP
        assert all(key[0] > 64 for key in arena.memo)  # oldest went first

    def test_scratch_accounting_ignores_the_memo(self, grid_forest):
        predictor = compile_model(grid_forest, Schedule())
        for batch in (1, 64, 2048):
            predictor.raw_predict(np.zeros((batch, NUM_FEATURES)))
            assert predictor._arena().memo
            assert predictor.scratch_nbytes() == predictor.arena_spec.nbytes_for(batch)
