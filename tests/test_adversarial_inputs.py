"""Adversarial-input regression suite across the Table-II schedule grid.

Every hostile input class the fuzzer generates — features exactly equal to
thresholds, ±inf, denormals, float32↔float64 boundary rows, empty/1-row
batches, non-contiguous and wrong-dtype rows — is driven through every
Table-II grid schedule at both precisions and checked against the
reference interpreter (which executes the same lowered buffers one node at
a time). At float64 the reference ``Forest`` must agree too.

This pins the semantics the paper leaves implicit: ``x < threshold`` routes
right on equality, padding predicates compare against ``+inf`` so inf
inputs cannot mis-route dummy tiles, and precision is applied identically
to rows, thresholds and leaf values in the kernel and the interpreter.
"""

import itertools

import numpy as np
import pytest

from conftest import KERNEL_BACKENDS, random_forest_model
from repro.api import compile_model
from repro.backend.interpreter import interpret_lir
from repro.config import Schedule
from repro.datasets.registry import fresh_rows, train_benchmark
from repro.forest.statistics import populate_node_probabilities

NUM_FEATURES = 6

TILE_SIZES = (1, 2, 4, 8)
TILINGS = ("basic", "probability", "hybrid")
LAYOUTS = ("array", "sparse")
LOOPS = (
    {"interleave": 1, "peel_walk": False, "pad_and_unroll": False},
    {"interleave": 4, "peel_walk": True, "pad_and_unroll": True},
)
PRECISIONS = ("float64", "float32")

GRID = [
    pytest.param(
        ts, tiling, layout, loops, precision,
        id=f"t{ts}-{tiling}-{layout}"
        f"-{'opt' if loops['interleave'] > 1 else 'plain'}-{precision}",
    )
    for ts, tiling, layout, loops, precision in itertools.product(
        TILE_SIZES, TILINGS, LAYOUTS, LOOPS, PRECISIONS
    )
]

#: loosest divergence the float32 chunk-summed kernel may show against the
#: float64-accumulating interpreter on these tiny models
TOLERANCES = {"float64": (1e-10, 1e-12), "float32": (3e-5, 1e-5)}


@pytest.fixture(scope="module")
def forest():
    forest = random_forest_model(
        np.random.default_rng(61), num_trees=6, max_depth=5, num_features=NUM_FEATURES
    )
    populate_node_probabilities(
        forest, np.random.default_rng(62).normal(size=(64, NUM_FEATURES))
    )
    return forest


def corpus(forest):
    """Deterministic hostile batches, one per input class."""
    rng = np.random.default_rng(63)
    thr = np.concatenate(
        [t.threshold[t.internal_nodes()] for t in forest.trees]
    )
    teq = rng.choice(thr, size=(5, NUM_FEATURES))
    above = np.nextafter(teq[:2], np.inf)
    below = np.nextafter(teq[:2], -np.inf)
    f32_collapse = np.float32(thr).astype(np.float64)[: NUM_FEATURES]
    f32_collapse = np.tile(f32_collapse, (2, 1))[:, :NUM_FEATURES]
    inf_rows = rng.normal(size=(4, NUM_FEATURES))
    inf_rows[0, :] = np.inf
    inf_rows[1, :] = -np.inf
    inf_rows[2, 0] = np.inf
    inf_rows[3, -1] = -np.inf
    denormals = np.full((2, NUM_FEATURES), 5e-324)
    denormals[1] = -1e-310
    wide = rng.normal(size=(6, 2 * NUM_FEATURES))
    tall = rng.normal(size=(12, NUM_FEATURES))
    return [
        ("empty", np.empty((0, NUM_FEATURES))),
        ("one-row", rng.normal(size=(1, NUM_FEATURES))),
        ("threshold-equal", teq),
        ("threshold-above", above),
        ("threshold-below", below),
        ("float32-boundary", f32_collapse),
        ("infinities", inf_rows),
        ("denormals", denormals),
        ("non-contiguous-cols", wide[:, ::2]),
        ("strided-rows", tall[::2]),
        ("wrong-dtype-f32", rng.normal(size=(3, NUM_FEATURES)).astype(np.float32)),
        (
            "wrong-dtype-f64",
            rng.normal(size=(3, NUM_FEATURES)).astype(np.float64),
        ),
    ]


@pytest.mark.parametrize("tile_size,tiling,layout,loops,precision", GRID)
def test_adversarial_corpus_matches_interpreter(
    forest, tile_size, tiling, layout, loops, precision
):
    schedule = Schedule(
        tile_size=tile_size,
        tiling=tiling,
        layout=layout,
        precision=precision,
        verify=True,  # every grid point passes the structural verifiers too
        **loops,
    )
    predictor = compile_model(forest, schedule)
    rtol, atol = TOLERANCES[precision]
    for label, rows in corpus(forest):
        got = predictor.raw_predict(rows)
        want = interpret_lir(predictor.lir, rows)[:, 0]
        np.testing.assert_allclose(
            got, want, rtol=rtol, atol=atol, err_msg=f"batch {label!r}"
        )
        if precision == "float64":
            ref = forest.raw_predict(np.ascontiguousarray(rows, dtype=np.float64))
            np.testing.assert_allclose(
                got, ref, rtol=rtol, atol=atol, err_msg=f"batch {label!r} vs Forest"
            )


@pytest.fixture(scope="module")
def abalone():
    return train_benchmark("abalone", scale=0.02, seed=0)[0]


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_float32_rows_on_rounded_down_cuts_route_like_the_model(abalone, backend):
    """Regression: float32 narrowing rounded thresholds to nearest, so
    about half of them moved *below* their float64 value, and a float32 row
    equal to the narrowed value went right where the model sends it left
    (97 of these 256 rows were off by up to 65). Narrowing rounds up now, so
    every float32 row routes exactly and only leaf rounding remains."""
    thr = np.concatenate([t.threshold[t.internal_nodes()] for t in abalone.trees])
    feat = np.concatenate([t.feature[t.internal_nodes()] for t in abalone.trees])
    down = np.flatnonzero(np.float32(thr).astype(np.float64) < thr)
    assert down.size > 100
    rng = np.random.default_rng(0)
    rows = fresh_rows("abalone", 256).astype(np.float32).astype(np.float64)
    cut = rng.choice(down, size=rows.shape[0])
    rows[np.arange(rows.shape[0]), feat[cut]] = np.float32(thr[cut])
    want = abalone.raw_predict(rows)
    predictor = compile_model(abalone, Schedule(precision="float32", backend=backend))
    np.testing.assert_allclose(predictor.raw_predict(rows), want, rtol=0, atol=1e-5)
    np.testing.assert_allclose(
        interpret_lir(predictor.lir, rows)[:, 0], want, rtol=0, atol=1e-5
    )
