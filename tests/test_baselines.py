"""Unit tests for the baseline inference systems."""

import numpy as np
import pytest

from repro.baselines import (
    HummingbirdGEMMPredictor,
    ScalarReferencePredictor,
    TreelitePredictor,
    XGBoostV09Predictor,
    XGBoostV15Predictor,
)
from repro.training.gbdt import GBDTParams, train_gbdt

ALL_BASELINES = [
    ScalarReferencePredictor,
    XGBoostV15Predictor,
    XGBoostV09Predictor,
    TreelitePredictor,
    HummingbirdGEMMPredictor,
]


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
class TestCorrectness:
    def test_regression(self, baseline_cls, trained_forest, test_rows):
        baseline = baseline_cls(trained_forest)
        got = baseline.raw_predict(test_rows[:64])
        assert np.allclose(got, trained_forest.raw_predict(test_rows[:64]), rtol=1e-12)

    def test_multiclass(self, baseline_cls, multiclass_forest, test_rows):
        if baseline_cls is ScalarReferencePredictor:
            pytest.skip("scalar reference covered by regression test")
        baseline = baseline_cls(multiclass_forest)
        got = baseline.raw_predict(test_rows[:32])
        assert got.shape == (32, 3)
        assert np.allclose(got, multiclass_forest.raw_predict(test_rows[:32]), rtol=1e-12)

    def test_deep_imbalanced(self, baseline_cls, deep_forest, test_rows):
        baseline = baseline_cls(deep_forest)
        got = baseline.raw_predict(test_rows[:32])
        assert np.allclose(got, deep_forest.raw_predict(test_rows[:32]), rtol=1e-12)


class TestTreelite:
    def test_code_size_grows_with_model(self, regression_data):
        X, y = regression_data
        small = train_gbdt(X, y, GBDTParams(num_rounds=2, max_depth=3))
        large = train_gbdt(X, y, GBDTParams(num_rounds=10, max_depth=5))
        assert (
            TreelitePredictor(large).code_size_chars
            > TreelitePredictor(small).code_size_chars
        )

    def test_one_function_per_tree(self, trained_forest):
        p = TreelitePredictor(trained_forest)
        assert len(p.tree_funcs) == trained_forest.num_trees
        assert p.source.count("def tree_") == trained_forest.num_trees


class TestHummingbird:
    def test_dense_and_sparse_agree(self, trained_forest, test_rows):
        sparse = HummingbirdGEMMPredictor(trained_forest, use_sparse=True)
        dense = HummingbirdGEMMPredictor(trained_forest, use_sparse=False)
        assert np.allclose(
            sparse.raw_predict(test_rows[:32]), dense.raw_predict(test_rows[:32])
        )

    def test_work_independent_of_path(self, trained_forest):
        """The GEMM strategy evaluates every internal node: matrix B has one
        threshold per internal node of the whole ensemble."""
        p = HummingbirdGEMMPredictor(trained_forest)
        total_internal = sum(t.internal_nodes().size for t in trained_forest.trees)
        assert p.B.shape == (total_internal,)
