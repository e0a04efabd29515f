"""Differential testing across the Table-II schedule grid.

Every valid combination of tile size x tiling algorithm x layout x
interleave/peel settings is compiled, under every code-generating backend
this machine runs (``conftest.KERNEL_BACKENDS``), on small regression,
binary and multiclass forests, and the compiled output is checked against the
reference ``Forest`` semantics (tolerating only accumulation-order float
noise). Hypothesis drives randomized row batches through representative
grid corners, and invalid inputs (NaN, wrong width/rank) must be rejected
at every point the same way.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNEL_BACKENDS, random_forest_model
from repro.api import compile_model
from repro.config import Schedule
from repro.errors import ExecutionError
from repro.forest.statistics import populate_node_probabilities
from repro.training.gbdt import GBDTParams, train_gbdt

NUM_FEATURES = 6

# The Table-II axes this harness sweeps. "loops" pairs the MIR loop knobs:
# everything off (guarded walk loops) vs. the paper's peel+pad+interleave.
TILE_SIZES = (1, 2, 4, 8)
TILINGS = ("basic", "probability", "hybrid")
LAYOUTS = ("array", "sparse")
LOOPS = (
    {"interleave": 1, "peel_walk": False, "pad_and_unroll": False},
    {"interleave": 4, "peel_walk": True, "pad_and_unroll": True},
)

GRID = [
    pytest.param(
        ts, tiling, layout, loops,
        id=f"t{ts}-{tiling}-{layout}-{'opt' if loops['interleave'] > 1 else 'plain'}",
    )
    for ts, tiling, layout, loops in itertools.product(
        TILE_SIZES, TILINGS, LAYOUTS, LOOPS
    )
]


def _with_probabilities(forest, rows):
    populate_node_probabilities(forest, rows)
    return forest


@pytest.fixture(scope="module")
def grid_rows():
    return np.random.default_rng(2024).normal(size=(64, NUM_FEATURES))


@pytest.fixture(scope="module")
def regression_forest(grid_rows):
    forest = random_forest_model(
        np.random.default_rng(1), num_trees=6, max_depth=5, num_features=NUM_FEATURES
    )
    return _with_probabilities(forest, grid_rows)


@pytest.fixture(scope="module")
def grid_binary_forest(grid_rows):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, NUM_FEATURES))
    y = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(np.float64)
    forest = train_gbdt(
        X, y, GBDTParams(num_rounds=5, max_depth=4, objective="binary:logistic", seed=2)
    )
    return _with_probabilities(forest, X)


@pytest.fixture(scope="module")
def grid_multiclass_forest(grid_rows):
    forest = random_forest_model(
        np.random.default_rng(3),
        num_trees=6,
        max_depth=4,
        num_features=NUM_FEATURES,
        num_classes=3,
    )
    return _with_probabilities(forest, grid_rows)


def schedule_for(tile_size, tiling, layout, loops) -> Schedule:
    return Schedule(tile_size=tile_size, tiling=tiling, layout=layout, **loops)


def assert_matches_reference(forest, schedule, rows):
    want = forest.raw_predict(rows)
    for backend in KERNEL_BACKENDS:
        predictor = compile_model(forest, schedule.with_(backend=backend))
        assert predictor.backend_name == backend
        got = predictor.raw_predict(rows)
        # Exact up to accumulation order: reassociation of ~tens of float64
        # leaf-value additions.
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=backend)
        # predict() additionally applies the objective transform.
        np.testing.assert_allclose(
            predictor.predict(rows), forest.predict(rows),
            rtol=1e-10, atol=1e-12, err_msg=backend,
        )


@pytest.mark.parametrize("tile_size,tiling,layout,loops", GRID)
class TestScheduleGrid:
    def test_regression(self, regression_forest, grid_rows, tile_size, tiling, layout, loops):
        assert_matches_reference(
            regression_forest, schedule_for(tile_size, tiling, layout, loops), grid_rows
        )

    def test_binary(self, grid_binary_forest, grid_rows, tile_size, tiling, layout, loops):
        rows = np.random.default_rng(5).normal(size=(32, NUM_FEATURES))
        assert_matches_reference(
            grid_binary_forest, schedule_for(tile_size, tiling, layout, loops), rows
        )

    def test_multiclass(self, grid_multiclass_forest, grid_rows, tile_size, tiling, layout, loops):
        assert_matches_reference(
            grid_multiclass_forest,
            schedule_for(tile_size, tiling, layout, loops),
            grid_rows[:32],
        )


# Representative corners for the randomized and rejection sweeps: the scalar
# baseline, the paper default, and the two extreme grid cells.
CORNERS = [
    pytest.param(Schedule.scalar_baseline(), id="scalar-baseline"),
    pytest.param(Schedule(), id="paper-default"),
    pytest.param(
        Schedule(tile_size=8, tiling="basic", layout="array",
                 interleave=1, peel_walk=False, pad_and_unroll=False),
        id="t8-basic-array-plain",
    ),
    pytest.param(
        Schedule(tile_size=2, tiling="probability", layout="sparse",
                 interleave=4, peel_walk=True, pad_and_unroll=True),
        id="t2-prob-sparse-opt",
    ),
]


@pytest.fixture(scope="module")
def corner_predictors(regression_forest):
    """Per corner, the predictor of every backend in ``KERNEL_BACKENDS``."""
    return {
        id(corner.values[0]): [
            compile_model(regression_forest, corner.values[0].with_(backend=backend))
            for backend in KERNEL_BACKENDS
        ]
        for corner in CORNERS
    }


class TestRandomizedBatches:
    @pytest.mark.parametrize("schedule", CORNERS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_rows_match_reference(
        self, regression_forest, corner_predictors, schedule, data
    ):
        n = data.draw(st.integers(min_value=0, max_value=24), label="rows")
        finite = st.floats(
            min_value=-1e9, max_value=1e9, allow_nan=False, width=64
        )
        batch = np.asarray(
            data.draw(
                st.lists(
                    st.lists(finite, min_size=NUM_FEATURES, max_size=NUM_FEATURES),
                    min_size=n,
                    max_size=n,
                ),
                label="batch",
            ),
            dtype=np.float64,
        ).reshape(n, NUM_FEATURES)
        want = regression_forest.raw_predict(batch)
        for predictor in corner_predictors[id(schedule)]:
            got = predictor.raw_predict(batch)
            np.testing.assert_allclose(
                got, want, rtol=1e-10, atol=1e-12, err_msg=predictor.backend_name
            )

    @pytest.mark.parametrize("schedule", CORNERS)
    def test_infinities_match_reference(self, regression_forest, corner_predictors, schedule):
        rows = np.zeros((4, NUM_FEATURES))
        rows[0, :] = np.inf
        rows[1, :] = -np.inf
        rows[2, 0] = np.inf
        rows[3, -1] = -np.inf
        for predictor in corner_predictors[id(schedule)]:
            np.testing.assert_allclose(
                predictor.raw_predict(rows),
                regression_forest.raw_predict(rows),
                rtol=1e-10,
                atol=1e-12,
                err_msg=predictor.backend_name,
            )


class TestRejections:
    @pytest.mark.parametrize("schedule", CORNERS)
    def test_nan_rejected(self, regression_forest, corner_predictors, schedule):
        bad = np.zeros((3, NUM_FEATURES))
        bad[1, 2] = np.nan
        for predictor in corner_predictors[id(schedule)]:
            with pytest.raises(ExecutionError, match="NaN"):
                predictor.raw_predict(bad)

    @pytest.mark.parametrize("schedule", CORNERS)
    def test_wrong_width_rejected(self, regression_forest, corner_predictors, schedule):
        for predictor in corner_predictors[id(schedule)]:
            with pytest.raises(ExecutionError, match="rows"):
                predictor.raw_predict(np.zeros((3, NUM_FEATURES + 1)))

    @pytest.mark.parametrize("schedule", CORNERS)
    def test_wrong_rank_rejected(self, regression_forest, corner_predictors, schedule):
        for predictor in corner_predictors[id(schedule)]:
            with pytest.raises(ExecutionError, match="rows"):
                predictor.raw_predict(np.zeros(NUM_FEATURES))

    @pytest.mark.parametrize("schedule", CORNERS)
    def test_zero_rows_ok(self, regression_forest, corner_predictors, schedule):
        for predictor in corner_predictors[id(schedule)]:
            out = predictor.raw_predict(np.zeros((0, NUM_FEATURES)))
            assert out.shape == (0,)
