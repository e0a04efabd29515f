"""Table II bench: exploring the optimization grid (autotuning cost).

Benchmarks compiling + timing a slice of the Table-II schedule grid — the
operation the paper's ``--explore`` switch performs.
"""

from conftest import PAPER_BACKEND, run_benchmark
from repro.autotune import autotune
from repro.autotune.space import TuningSpace
from repro.config import Schedule


def test_table2_grid_exploration(benchmark, airline_model):
    forest, rows = airline_model
    space = TuningSpace(
        tile_sizes=(1, 8),
        tilings=("basic",),
        pad_and_unroll=(True,),
        interleaves=(8,),
        layouts=("sparse",),
    )

    def explore():
        return autotune(
            forest, rows[:256], space=space, repeats=1,
            base=Schedule(backend=PAPER_BACKEND),
        )

    result = run_benchmark(benchmark, explore, rounds=3)
    assert len(result.log) == 2
    best = result.best_schedule
    print(f"\nTable II exploration: best = nt={best.tile_size}, il={best.interleave}")
