"""Shape-keyed compile path: each tile-shape fact is computed once.

``repro.hir.tiling.shapes.shape_facts`` memoises, per canonical shape, the
out-edge order and the ``2**k`` LUT row; the registry, ``TiledTree`` and the
always-on stats read it instead of re-deriving per tile or per bit pattern.
What this file pins, without a clock:

* how often the compile path runs the edge-order worker and
  ``DecisionTree.parents`` (call counts, ``conftest.CallCounter``);
* the fast rows against ``shape_child_for_bits`` — the scalar definition the
  verifier keeps using — and the memo's byte bound;
* that generated sources, LUT bytes and shape ids are those of the parent
  commit, and that LIR lowering registers nothing but the dummy shape;
* ``check_valid_tiling``'s messages and the vectorised ``depths``.
"""

import hashlib
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import CallCounter, random_forest_model
from repro.api import compile_model
from repro.backend.registry import get_backend
from repro.config import Schedule
from repro.errors import TilingError
from repro.forest.builder import TreeBuilder
from repro.forest.tree import DecisionTree
from repro.hir.ir import build_hir
from repro.hir.tiling import check_valid_tiling, shapes
from repro.hir.tiling.shapes import (
    DUMMY_SHAPE,
    ShapeRegistry,
    all_shapes_of_size,
    nested_to_shape,
    out_edge_order,
    shape_child_for_bits,
    shape_facts,
)
from repro.lir.lowering import lower_mir_to_lir
from repro.mir.lowering import lower_hir_to_mir
from repro.mir.passes import run_mir_pipeline
from test_property import trees


@pytest.fixture(scope="module")
def higgs_shaped():
    """The seeded 100-tree forest of ``tests/test_dispatch_budget.py``."""
    return random_forest_model(np.random.default_rng(5), 100, 6, 28)


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh shape memo for one test (the real one is process-wide)."""
    monkeypatch.setattr(shapes, "_facts", OrderedDict())
    monkeypatch.setattr(shapes, "_facts_bytes", 0)


def _lower(forest, schedule):
    hir = build_hir(forest, schedule)
    mir = lower_hir_to_mir(hir)
    run_mir_pipeline(mir, hir)
    return hir, mir


def _reference_row(shape, width: int) -> np.ndarray:
    k = len(shape)
    base = np.array([shape_child_for_bits(shape, bits) for bits in range(1 << k)])
    return base[np.arange(1 << width) & ((1 << k) - 1)]


def _random_shape(rng, size: int):
    """A uniformly split random binary tree of ``size`` nodes, canonicalized."""

    def grow(n):
        if n == 0:
            return None
        left = int(rng.integers(n))
        return (grow(left), grow(n - 1 - left))

    return nested_to_shape(grow(size))


# ----------------------------------------------------------------------
# Call counts
# ----------------------------------------------------------------------

class TestOncePerShape:
    def test_compile_runs_edge_order_once_per_shape(self, higgs_shaped, empty_memo):
        """Parent commit: one ``out_edge_order`` per tile in ``from_tiling``
        plus one per bit pattern in each of two ``build_lut`` calls, and one
        ``parents()`` per tile in the validity check."""
        with CallCounter() as calls:
            predictor = compile_model(higgs_shaped, Schedule())
        num_shapes = predictor.lir.lut.shape[0]
        tiles = predictor.trace.find("tiling").stats["tiles_per_tree"]["total"]
        edge_orders = calls.frames.count(out_edge_order.__code__)
        assert 0 < edge_orders <= num_shapes < tiles
        assert calls.frames.count(shape_child_for_bits.__code__) == 0
        assert calls.frames.count(DecisionTree.parents.__code__) <= higgs_shaped.num_trees

    def test_second_compile_computes_no_shape_fact(self, higgs_shaped):
        compile_model(higgs_shaped, Schedule())
        with CallCounter() as calls:
            compile_model(higgs_shaped, Schedule(precision="int8"))
        assert calls.frames.count(out_edge_order.__code__) == 0
        assert calls.frames.count(shapes.validate_shape.__code__) == 0

    def test_known_shape_skips_validation(self):
        reg = ShapeRegistry(4)
        shape = all_shapes_of_size(3)[2]
        sid = reg.register(shape)
        with CallCounter() as calls:
            assert reg.register(shape) == sid
        assert [code.co_name for code in calls.frames] == ["register"]


# ----------------------------------------------------------------------
# Fast rows against the scalar definition; the memo's bound
# ----------------------------------------------------------------------

class TestRows:
    @pytest.mark.parametrize("width", [8, 16])
    def test_every_small_shape_and_random_large_ones(self, width):
        rng = np.random.default_rng(16)
        large = all_shapes_of_size(7) + all_shapes_of_size(8)
        picked = [large[i] for i in rng.choice(len(large), size=200, replace=False)]
        small = [s for size in range(1, 7) for s in all_shapes_of_size(size)]
        reg = ShapeRegistry(8)
        for shape in small + [DUMMY_SHAPE] + picked:
            reg.register(shape)
        lut = reg.build_lut(width=width)
        assert lut.dtype == np.int8 and lut.shape == (len(small) + 201, 1 << width)
        assert not lut[reg.dummy_id].any()
        for sid, shape in enumerate(reg.shapes()):
            if shape != DUMMY_SHAPE:
                assert np.array_equal(lut[sid], _reference_row(shape, width)), shape

    def test_facts_are_the_reference_edge_order_and_read_only(self):
        for shape in all_shapes_of_size(5):
            facts = shape_facts(shape)
            assert list(facts.edges) == out_edge_order(shape)
            assert not facts.row.flags.writeable
            assert shape_facts(shape) is facts

    def test_invalid_shape_is_rejected_and_not_memoised(self, empty_memo):
        with pytest.raises(TilingError, match="exactly one parent"):
            shape_facts(((1, 1), (-1, -1)))
        assert not shapes._facts

    def test_memo_stays_under_its_byte_bound(self, empty_memo):
        rng = np.random.default_rng(17)
        reg = ShapeRegistry(16)
        wide = [_random_shape(rng, 16) for _ in range(120)]
        assert sum(1 << len(s) for s in wide) > shapes.SHAPE_MEMO_BYTES
        for shape in wide:
            reg.register(shape)
            held = sum(f.row.nbytes for f in shapes._facts.values())
            assert held == shapes._facts_bytes <= shapes.SHAPE_MEMO_BYTES
        assert 0 < len(shapes._facts) < len(set(wide))
        # An evicted shape is recomputed, not lost.
        first = wide[0]
        assert first not in shapes._facts
        lut = reg.build_lut()
        assert np.array_equal(lut[0], _reference_row(first, 16))
        assert shapes._facts_bytes <= shapes.SHAPE_MEMO_BYTES


    def test_threads_share_the_memo_without_losing_bytes(self, empty_memo, monkeypatch):
        """Eight threads (more than the box has cores) register overlapping
        wide shapes while the memo evicts; a lost update would leave the byte
        count off from the rows actually held."""
        monkeypatch.setattr(shapes, "SHAPE_MEMO_BYTES", 1 << 20)
        rng = np.random.default_rng(18)
        wide = [_random_shape(rng, 14) for _ in range(96)]  # 16 KB rows, 1.5 MB
        errors = []

        def work(offset):
            try:
                for i in range(len(wide) * 2):
                    shape = wide[(i * 7 + offset) % len(wide)]
                    facts = shape_facts(shape)
                    assert facts.edges == tuple(out_edge_order(shape))
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t * 11,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        held = sum(f.row.nbytes for f in shapes._facts.values())
        assert held == shapes._facts_bytes <= shapes.SHAPE_MEMO_BYTES
        assert np.array_equal(shape_facts(wide[0]).row, _reference_row(wide[0], 14))


# ----------------------------------------------------------------------
# Byte identity with the parent commit
# ----------------------------------------------------------------------

#: ``compile_cold``'s four schedules on the seeded 100-tree forest:
#: sha256[:16] of the generated source, of ``lir.lut.tobytes()`` and of
#: ``repr(registry.shapes())`` (shape-id order), recorded at the parent
#: commit (cb13c29, before shapes were memoised). Not to be re-pinned by a
#: change that only makes the compiler faster.
PARENT_PINS = {
    "default": ("5766898d9ce5985e", "6bdaf774bf78c533", "3a8f3bbcb5f1def5", 73),
    "f32_pgo2": ("4c61f2dfd982139c", "6bdaf774bf78c533", "3a8f3bbcb5f1def5", 73),
    "int8": ("2e0f26e6c2bce4f5", "6bdaf774bf78c533", "3a8f3bbcb5f1def5", 73),
    "scalar": ("98ad43c217d4e5d8", "47dc540c94ceb704", "67b4ff51e6be8d3e", 1),
}
#: the first pin of each row hashes NumPy source text: that backend, by name
COLD_SCHEDULES = {
    "default": Schedule(backend="numpy_jit"),
    "f32_pgo2": Schedule(precision="float32", pgo=2, backend="numpy_jit"),
    "int8": Schedule(precision="int8", backend="numpy_jit"),
    "scalar": Schedule.scalar_baseline().with_(backend="numpy_jit"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", list(COLD_SCHEDULES))
def test_compile_output_is_the_parents(higgs_shaped, name):
    schedule = COLD_SCHEDULES[name]
    hir, mir = _lower(higgs_shaped, schedule)
    lir = lower_mir_to_lir(mir, hir)
    predictor = get_backend(schedule.backend).build(higgs_shaped, lir)
    registry = hir.shape_registry
    assert (
        _sha(predictor.generated_source.encode()),
        _sha(lir.lut.tobytes()),
        _sha(repr(registry.shapes()).encode()),
        registry.num_shapes,
    ) == PARENT_PINS[name]


@pytest.mark.parametrize("layout", ["sparse", "array"])
@pytest.mark.parametrize("pad", [True, False])
def test_lir_lowering_registers_only_the_dummy_shape(higgs_shaped, layout, pad):
    """Layouts look tile shapes up; the one key lowering may add is
    ``DUMMY_SHAPE`` (hop and padding tiles), after every HIR shape."""
    hir, mir = _lower(higgs_shaped, Schedule(layout=layout, pad_and_unroll=pad, tile_size=4))
    before = hir.shape_registry.shapes()
    assert DUMMY_SHAPE not in before
    lir = lower_mir_to_lir(mir, hir)
    after = hir.shape_registry.shapes()
    assert after in (before, before + [DUMMY_SHAPE])
    assert lir.lut.shape[0] == len(after)
    assert np.array_equal(lir.lut[: len(before)], hir.lut)


# ----------------------------------------------------------------------
# check_valid_tiling: same violations, same messages
# ----------------------------------------------------------------------

class TestValidityMessages:
    @pytest.fixture
    def tree(self):
        #        0
        #      /   \
        #     1     2
        #    / \   / \
        #   3   L 4   L
        #  / \   / \
        # L   L L   L
        nested = lambda left, right: {"feature": 0, "threshold": 0.0, "left": left, "right": right}
        leaf = {"value": 1.0}
        return TreeBuilder.from_nested(
            nested(nested(nested(leaf, leaf), leaf), nested(nested(leaf, leaf), leaf))
        )

    def _internal(self, tree):
        ids = [0, int(tree.left[0]), int(tree.right[0])]
        return ids + [int(tree.left[ids[1]]), int(tree.left[ids[2]])]

    def test_accepts_and_counts_parents_once(self, tree):
        root, a, b, a1, b1 = self._internal(tree)
        with CallCounter() as calls:
            check_valid_tiling(tree, [[root, a, b], [a1], [b1]], 3)
        assert calls.frames.count(DecisionTree.parents.__code__) == 1

    def test_violation_classes(self, tree):
        root, a, b, a1, b1 = self._internal(tree)
        leaf = int(tree.leaves()[0])
        cases = [
            ([[root, a, b], [a1]], f"partitioning violated: internal nodes [{b1}] not tiled"),
            (
                [[root, a, b], [a1], [b1, a1]],
                f"partitioning violated: node {a1} in multiple tiles",
            ),
            (
                [[root, a, b], [a1, leaf], [b1]],
                f"leaf separation violated: leaf {leaf} in tile 1",
            ),
            # (a non-empty node set of a tree always has at least one root,
            # so "0 tile roots" cannot be produced)
            ([[root, a, b], [a1, b1]], "connectedness violated in tile 1: 2 tile roots"),
            ([[a, b], [root, a1, b1]], "connectedness violated in tile 0: 2 tile roots"),
            # of several bordering nodes the lowest id is named (the parent
            # commit named whichever its set iteration met first)
            (
                [[root, a], [b, b1], [a1]],
                f"maximality violated: tile 0 has size 2 < tile size but borders non-leaf node {a1}",
            ),
            (
                [[root, a, a1], [b], [b1]],
                f"maximality violated: tile 1 has size 1 < tile size but borders non-leaf node {b1}",
            ),
        ]
        for tiling, message in cases:
            with pytest.raises(TilingError) as err:
                check_valid_tiling(tree, tiling, 3)
            assert str(err.value) == message

    def test_earlier_tile_is_reported_first(self, tree):
        root, a, b, a1, b1 = self._internal(tree)
        # tile 0 is undersized next to a non-leaf, tile 1 is split: tile 0 wins
        with pytest.raises(TilingError, match="maximality violated: tile 0"):
            check_valid_tiling(tree, [[root], [a, b], [a1], [b1]], 3)
        # one tile both split and undersized: connectedness is checked first
        with pytest.raises(TilingError, match="connectedness violated in tile 0"):
            check_valid_tiling(tree, [[a, b], [root], [a1], [b1]], 3)


# ----------------------------------------------------------------------
# DecisionTree.depths: level sweep == the old per-node walk
# ----------------------------------------------------------------------

def _depths_by_walk(tree: DecisionTree) -> np.ndarray:
    depth = np.zeros(tree.num_nodes, dtype=np.int32)
    for node in tree.iter_preorder():
        if not tree.is_leaf(node):
            depth[tree.left[node]] = depth[node] + 1
            depth[tree.right[node]] = depth[node] + 1
    return depth


def _left_chain(length: int) -> DecisionTree:
    nested = {"value": 0.0}
    for _ in range(length):
        nested = {"feature": 0, "threshold": 0.0, "left": nested, "right": {"value": 1.0}}
    return TreeBuilder.from_nested(nested)


class TestDepths:
    @settings(max_examples=80, deadline=None)
    @given(tree=trees(max_depth=7))
    def test_equals_per_node_walk(self, tree):
        want = _depths_by_walk(tree)
        got = tree.depths()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert tree.max_depth == int(want.max())

    @pytest.mark.parametrize("length", [0, 1, 2, 40])
    def test_single_leaf_and_left_chains(self, length):
        tree = _left_chain(length)
        assert np.array_equal(tree.depths(), _depths_by_walk(tree))
        assert tree.max_depth == length

    def test_max_depth_builds_no_depth_array(self):
        tree = _left_chain(5)
        with CallCounter() as calls:
            assert tree.max_depth == 5
        assert DecisionTree.depths.__code__ not in calls.frames
