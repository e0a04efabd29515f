"""Unit tests for Forest."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.forest.builder import TreeBuilder
from repro.forest.ensemble import Forest, sigmoid, softmax

from conftest import random_forest_model


def leaf_tree(value, class_id=0):
    b = TreeBuilder()
    b.leaf(value)
    return b.build(class_id=class_id)


class TestConstruction:
    def test_empty_forest_rejected(self):
        with pytest.raises(ModelError, match="at least one"):
            Forest([], num_features=3)

    def test_bad_objective_rejected(self):
        with pytest.raises(ModelError, match="objective"):
            Forest([leaf_tree(1.0)], num_features=3, objective="poisson")

    def test_feature_out_of_range_rejected(self):
        b = TreeBuilder()
        root = b.internal(feature=9, threshold=0.0)
        b.leaf(0.0, parent=root, side="left")
        b.leaf(1.0, parent=root, side="right")
        with pytest.raises(ModelError, match="feature"):
            Forest([b.build()], num_features=3)

    def test_class_id_out_of_range_rejected(self):
        with pytest.raises(ModelError, match="class_id"):
            Forest(
                [leaf_tree(1.0, class_id=5)],
                num_features=3,
                objective="multiclass",
                num_classes=3,
            )

    def test_multiclass_requires_classes(self):
        with pytest.raises(ModelError):
            Forest([leaf_tree(1.0)], num_features=3, objective="multiclass", num_classes=1)

    def test_regression_with_classes_rejected(self):
        with pytest.raises(ModelError):
            Forest([leaf_tree(1.0)], num_features=3, objective="regression", num_classes=2)

    def test_tree_ids_renumbered(self, rng):
        forest = random_forest_model(rng, num_trees=4)
        assert [t.tree_id for t in forest.trees] == [0, 1, 2, 3]


class TestPrediction:
    def test_base_score_added(self):
        forest = Forest([leaf_tree(2.0)], num_features=1, base_score=0.5)
        assert forest.raw_predict(np.zeros((3, 1)))[0] == 2.5

    def test_sum_of_trees(self):
        forest = Forest([leaf_tree(1.0), leaf_tree(2.0)], num_features=1)
        assert forest.raw_predict(np.zeros((1, 1)))[0] == 3.0

    def test_multiclass_shape_and_routing(self):
        trees = [leaf_tree(1.0, 0), leaf_tree(2.0, 1), leaf_tree(3.0, 2)]
        forest = Forest(trees, num_features=1, objective="multiclass", num_classes=3)
        raw = forest.raw_predict(np.zeros((2, 1)))
        assert raw.shape == (2, 3)
        assert np.array_equal(raw[0], [1.0, 2.0, 3.0])

    def test_logistic_transform(self):
        forest = Forest([leaf_tree(0.0)], num_features=1, objective="binary:logistic")
        assert forest.predict(np.zeros((1, 1)))[0] == pytest.approx(0.5)

    def test_softmax_rows_sum_to_one(self):
        trees = [leaf_tree(1.0, 0), leaf_tree(2.0, 1)]
        forest = Forest(trees, num_features=1, objective="multiclass", num_classes=2)
        probs = forest.predict(np.zeros((4, 1)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_wrong_width_rejected(self):
        forest = Forest([leaf_tree(1.0)], num_features=4)
        with pytest.raises(ModelError, match="features"):
            forest.raw_predict(np.zeros((2, 3)))

    def test_1d_rows_rejected(self):
        forest = Forest([leaf_tree(1.0)], num_features=4)
        with pytest.raises(ModelError, match="2-D"):
            forest.raw_predict(np.zeros(4))


class TestTransforms:
    def test_sigmoid_stable_for_large_inputs(self):
        vals = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert vals[0] == pytest.approx(0.0)
        assert vals[1] == pytest.approx(0.5)
        assert vals[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bits_match_the_masked_formula(self, dtype):
        """The mask-free sigmoid is bitwise the masked one it replaced, on
        every special value (±0, ±inf, ±800, NaNs of either sign and other
        payloads) at short and long lengths, with float32 intermediates
        for float32 input and a float64 result either way."""

        def masked(x):
            out = np.empty_like(x, dtype=np.float64)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        nan_bits = {
            np.float64: [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF8DEAD00000000],
            np.float32: [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFC0BEEF],
        }[dtype]
        uint = np.uint64 if dtype is np.float64 else np.uint32
        specials = np.concatenate([
            np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1.0, -1.0, 36.0, -37.0],
                     dtype=dtype),
            np.array(nan_bits, dtype=uint).view(dtype),
        ])
        rng = np.random.default_rng(7)
        pool = np.concatenate([specials, rng.normal(scale=30.0, size=64).astype(dtype)])
        cases = [specials, pool] + [rng.choice(pool, size=n) for n in (1, 2, 7, 17, 2048)]
        for x in cases:
            # a signalling NaN raises exp's invalid flag in both formulas
            with np.errstate(invalid="ignore"):
                got, want = sigmoid(x), masked(x)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0))


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        forest = random_forest_model(rng, num_trees=3, num_classes=2)
        path = str(tmp_path / "forest.json")
        forest.save(path)
        clone = Forest.load(path)
        rows = rng.normal(size=(10, forest.num_features))
        assert np.array_equal(clone.raw_predict(rows), forest.raw_predict(rows))
        assert clone.objective == forest.objective
        assert clone.num_classes == forest.num_classes

    def test_introspection(self, rng):
        forest = random_forest_model(rng, num_trees=3)
        assert forest.num_trees == 3
        assert forest.total_nodes == sum(t.num_nodes for t in forest.trees)
        assert forest.max_depth == max(t.max_depth for t in forest.trees)
        assert "trees=3" in repr(forest)
