"""Integer-only quantized kernels (PR7 tentpole).

The contract under test: ``Schedule(precision="int16"/"int8")`` compiles a
kernel that routes on order-preserving rank-coded thresholds (so every
float64 comparison is reproduced *exactly*) and accumulates fixed-point
leaf codes in int64 with one boundary rescale — making the kernel bitwise
equal to the reference interpreter and within the computed rounding bound
``0.5 * leaf_scale * num_trees`` of the reference forest.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import compile_model
from repro.autotune.persist import CacheEntry, ScheduleCache, machine_id
from repro.backend.interpreter import interpret_lir
from repro.config import (
    PRECISION_TABLE,
    PRECISIONS,
    QUANTIZED_PRECISIONS,
    Schedule,
)
from repro.errors import CodegenError, QuantizationError, ScheduleError
from repro.forest.builder import TreeBuilder
from repro.forest.ensemble import Forest
from repro.lir.memory import arena_spec, quantized_param_nbytes
from repro.verify.fuzz import random_fuzz_forest

QUANT_GRID = [
    Schedule(precision=p, **overrides)
    for p in QUANTIZED_PRECISIONS
    for overrides in (
        {},
        {"layout": "array", "tile_size": 4},
        {"loop_order": "one-row", "tile_size": 2, "interleave": 2},
        {"tile_size": 1, "tiling": "basic", "pad_and_unroll": False,
         "peel_walk": False, "interleave": 1, "layout": "array"},
    )
]


@pytest.fixture(scope="module")
def forest():
    return random_fuzz_forest(
        np.random.default_rng(21), num_trees=11, max_depth=6
    )


@pytest.fixture(scope="module")
def multiclass():
    return random_fuzz_forest(
        np.random.default_rng(22), num_trees=9, max_depth=5, num_classes=3
    )


@pytest.fixture(scope="module")
def rows(forest):
    rng = np.random.default_rng(23)
    base = rng.normal(size=(97, forest.num_features))
    # Sprinkle exact-threshold hits and infinities: the inputs where rank
    # coding must not flip a comparison.
    thr = np.concatenate(
        [t.threshold[t.internal_nodes()] for t in forest.trees]
    )
    base[:11, 0] = rng.choice(thr, size=11)
    base[3, 2] = np.inf
    base[5, 4] = -np.inf
    return base


# ----------------------------------------------------------------------
# Schedule surface (satellite: precision round-trips + cache hygiene)
# ----------------------------------------------------------------------

def test_precision_table_covers_schedule_axis():
    assert set(PRECISIONS) == set(PRECISION_TABLE)
    assert set(QUANTIZED_PRECISIONS) == {"int16", "int8"}


@pytest.mark.parametrize("precision", QUANTIZED_PRECISIONS)
def test_schedule_roundtrips_through_dict_and_json(precision):
    schedule = Schedule(precision=precision, tile_size=4, layout="array")
    assert Schedule.from_dict(schedule.to_dict()) == schedule
    assert Schedule.from_dict(json.loads(json.dumps(schedule.to_dict()))) == schedule


def test_schedule_rejects_unknown_precision():
    with pytest.raises(ScheduleError, match="precision"):
        Schedule(precision="int4")


def test_schedule_cache_discards_unknown_precision_entries(tmp_path):
    """A cache written by a newer build with precisions this build does not
    know must lose only those entries, not the whole file."""
    path = tmp_path / "schedules.json"
    good = CacheEntry(schedule=Schedule(precision="int8"), per_row_us=1.0)
    machine = machine_id()
    cache = ScheduleCache(str(path))
    cache.store("fp-good", machine, 64, good)

    doc = json.loads(path.read_text())
    bad = good.to_dict()
    bad["schedule"] = dict(bad["schedule"], precision="int4")
    doc["entries"][ScheduleCache.key("fp-bad", machine, 64)] = bad
    path.write_text(json.dumps(doc))

    fresh = ScheduleCache(str(path))
    hit = fresh.lookup("fp-good", machine, 64)
    assert hit is not None and hit.schedule.precision == "int8"
    assert fresh.lookup("fp-bad", machine, 64) is None


# ----------------------------------------------------------------------
# Quantization mapping invariants
# ----------------------------------------------------------------------

@pytest.mark.parametrize("precision", QUANTIZED_PRECISIONS)
def test_rank_codes_preserve_every_comparison(forest, precision):
    quant = compile_model(forest, Schedule(precision=precision)).lir.quant
    rng = np.random.default_rng(31)
    xs = np.concatenate(
        [rng.normal(size=200), quant.cuts, np.nextafter(quant.cuts, np.inf),
         np.nextafter(quant.cuts, -np.inf), [np.inf, -np.inf, 0.0]]
    )
    for f in range(quant.num_features):
        cuts = quant.cuts_for(f)
        if not cuts.size:
            continue
        rows = np.zeros((xs.size, quant.num_features))
        rows[:, f] = xs
        q = quant.quantize_rows(rows)[:, f].astype(np.int64)
        codes = quant.quantize_thresholds(
            cuts, np.full(cuts.size, f)
        ).astype(np.int64)
        for t, c in zip(cuts, codes):
            np.testing.assert_array_equal(xs < t, q < c)


@pytest.mark.parametrize("precision", QUANTIZED_PRECISIONS)
def test_padding_sentinels(forest, precision):
    quant = compile_model(forest, Schedule(precision=precision)).lir.quant
    codes = quant.quantize_thresholds(
        np.array([np.inf, -np.inf]), np.array([0, 0])
    )
    assert codes[0] == quant.sentinel  # +inf pad: every finite q() is below
    assert codes[1] == 0               # -inf: nothing compares below

    rows = np.array([[np.inf] * quant.num_features])
    assert (quant.quantize_rows(rows).astype(np.int64) < quant.sentinel).all()


@pytest.mark.parametrize("precision", QUANTIZED_PRECISIONS)
def test_leaf_codes_bounded_and_scale_tight(forest, precision):
    quant = compile_model(forest, Schedule(precision=precision)).lir.quant
    values = np.concatenate(
        [t.value[t.leaves()] for t in forest.trees]
    )
    codes = quant.quantize_leaves(values).astype(np.float64)
    assert np.abs(codes).max() <= quant.qmax
    err = np.abs(codes * quant.leaf_scale - values)
    assert err.max() <= 0.5 * quant.leaf_scale * (1 + 1e-9)


def test_all_zero_leaves_use_unit_scale():
    builder = TreeBuilder()
    root = builder.internal(0, 0.5)
    builder.leaf(0.0, parent=root, side="left")
    builder.leaf(0.0, parent=root, side="right")
    forest = Forest([builder.build(tree_id=0)], num_features=2, base_score=0.25)
    predictor = compile_model(forest, Schedule(precision="int8"))
    assert predictor.lir.quant.leaf_scale == 1.0
    np.testing.assert_array_equal(
        predictor.raw_predict(np.zeros((3, 2))), np.full(3, 0.25)
    )


def test_int8_capacity_overflow_raises():
    """One feature with more distinct thresholds than int8 rank codes."""
    builder = TreeBuilder()
    node = builder.internal(0, 0.0)
    for i in range(1, 200):
        nxt = builder.internal(0, float(i), parent=node, side="left")
        builder.leaf(float(i) / 200.0, parent=node, side="right")
        node = nxt
    builder.leaf(0.0, parent=node, side="left")
    builder.leaf(1.0, parent=node, side="right")
    forest = Forest([builder.build(tree_id=0)], num_features=1)
    with pytest.raises(QuantizationError, match="int8"):
        compile_model(forest, Schedule(precision="int8"))
    # int16 has 32766 usable ranks: same model compiles and matches.
    predictor = compile_model(forest, Schedule(precision="int16", verify=True))
    rows = np.linspace(-5, 250, 64).reshape(-1, 1)
    got = predictor.raw_predict(rows)
    assert np.abs(got - forest.raw_predict(rows)).max() <= (
        predictor.lir.quant.tolerance()
    )


def test_quickscorer_rejects_quantized_precision(forest):
    with pytest.raises(CodegenError, match="quickscorer"):
        compile_model(
            forest, Schedule(precision="int8", traversal="quickscorer")
        )


# ----------------------------------------------------------------------
# Kernel equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("schedule", QUANT_GRID, ids=str)
def test_kernel_bitwise_matches_interpreter(forest, rows, schedule):
    predictor = compile_model(forest, schedule.with_(verify=True))
    got = predictor.raw_predict(rows)
    want = interpret_lir(predictor.lir, rows)[:, 0]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("precision", QUANTIZED_PRECISIONS)
def test_forest_reference_within_computed_tolerance(forest, rows, precision):
    predictor = compile_model(forest, Schedule(precision=precision))
    got = predictor.raw_predict(rows)
    ref = forest.raw_predict(rows)
    tol = predictor.lir.quant.tolerance()
    assert tol < 0.5  # the bound itself stays useful
    assert np.abs(got - ref).max() <= tol


def test_multiclass_argmax_preserved_where_decided(multiclass):
    rng = np.random.default_rng(41)
    rows = rng.normal(size=(400, multiclass.num_features))
    for precision in QUANTIZED_PRECISIONS:
        predictor = compile_model(multiclass, Schedule(precision=precision))
        got = predictor.raw_predict(rows)
        ref = multiclass.raw_predict(rows)
        tol = predictor.lir.quant.tolerance()
        top2 = np.sort(ref, axis=1)[:, -2:]
        decided = (top2[:, 1] - top2[:, 0]) > 2.0 * tol
        assert decided.any()  # the check must actually bite
        np.testing.assert_array_equal(
            got.argmax(axis=1)[decided], ref.argmax(axis=1)[decided]
        )


def test_quantized_routing_is_exact_not_rounded(forest):
    """int16 must agree with float64 on threshold-equal inputs where
    float32 legitimately rounds: rank codes never merge distinct cuts."""
    thr = np.concatenate(
        [t.threshold[t.internal_nodes()] for t in forest.trees]
    )
    rng = np.random.default_rng(43)
    rows = rng.choice(thr, size=(31, forest.num_features))
    ref = forest.raw_predict(rows)
    got = compile_model(forest, Schedule(precision="int16")).raw_predict(rows)
    quant_tol = compile_model(
        forest, Schedule(precision="int16")
    ).lir.quant.tolerance()
    assert np.abs(got - ref).max() <= quant_tol


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------

@pytest.mark.parametrize("precision", PRECISIONS)
def test_arena_spec_dtypes_follow_the_table(forest, precision):
    spec = arena_spec(compile_model(forest, Schedule(precision=precision)).lir)
    info = PRECISION_TABLE[precision]
    assert spec.float_dtype == info.element_dtype
    assert spec.findex_dtype == info.findex_dtype
    assert spec.acc_dtype == info.acc_dtype
    assert spec.quantized == info.quantized


def test_param_bytes_shrink_by_element_width(forest):
    sizes = {
        p: sum(quantized_param_nbytes(compile_model(forest, Schedule(precision=p)).lir))
        for p in PRECISIONS
    }
    assert sizes["float32"] * 2 == sizes["float64"]
    assert sizes["int16"] * 4 == sizes["float64"]
    assert sizes["int8"] * 8 == sizes["float64"]


def test_quantized_memory_bytes_reports_kernel_buffers(forest):
    predictor = compile_model(forest, Schedule(precision="int8"))
    assert predictor.memory_bytes() > 0
    assert predictor.lir.quant.table_nbytes() > 0


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------

def test_serving_caches_precisions_separately(forest):
    from repro.serve import ModelServer

    rng = np.random.default_rng(47)
    rows = rng.normal(size=(16, forest.num_features))
    with ModelServer() as server:
        f64 = server.register("f64", forest, Schedule())
        i8 = server.register("i8", forest, Schedule(precision="int8"))
        assert f64.fingerprint != i8.fingerprint
        got64 = server.predict("f64", rows)
        got8 = server.predict("i8", rows)
        tol = i8.predictor.lir.quant.tolerance()
        assert np.abs(got64 - got8).max() <= tol
        by_prec = server.metrics_snapshot()["runtime"]["bytes_by_precision"]
        assert by_prec["int8"]["param_bytes"] * 8 == (
            by_prec["float64"]["param_bytes"]
        )
