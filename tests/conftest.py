"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.backend.registry import get_backend
from repro.config import Schedule
from repro.forest.builder import TreeBuilder
from repro.forest.ensemble import Forest
from repro.forest.statistics import populate_node_probabilities
from repro.forest.tree import DecisionTree
from repro.training.gbdt import GBDTParams, train_gbdt


#: the code-generating backends this machine runs: differential tests
#: compile every schedule under each of them. ``native`` is absent where no
#: toolchain builds the walker (CI's compiler-hidden leg).
KERNEL_BACKENDS = ("numpy_jit",) + (
    ("native",) if get_backend("native").unavailable(Schedule()) is None else ()
)


def numpy_schedule(**knobs) -> Schedule:
    """``Schedule(backend="numpy_jit", **knobs)``: for modules that pin the
    NumPy emitter's own artefacts (source text, dispatch counts, the scratch
    arena, batch-adaptive chunks), which the native walker does not have."""
    return Schedule(backend="numpy_jit", **knobs)


def random_tree(
    rng: np.random.Generator,
    max_depth: int = 5,
    num_features: int = 8,
    leaf_prob: float = 0.3,
    tree_id: int = 0,
) -> DecisionTree:
    """Sample a random full binary decision tree (structure + parameters)."""
    builder = TreeBuilder()

    def grow(parent, side, depth):
        make_leaf = depth >= max_depth or (depth > 0 and rng.uniform() < leaf_prob)
        if make_leaf:
            builder.leaf(float(rng.normal()), parent=parent, side=side)
            return
        node = builder.internal(
            int(rng.integers(num_features)), float(rng.normal()), parent=parent, side=side
        )
        grow(node, "left", depth + 1)
        grow(node, "right", depth + 1)

    if max_depth == 0 or rng.uniform() < leaf_prob / 4:
        builder.leaf(float(rng.normal()))
    else:
        root = builder.internal(int(rng.integers(num_features)), float(rng.normal()))
        grow(root, "left", 1)
        grow(root, "right", 1)
    return builder.build(tree_id=tree_id)


def random_forest_model(
    rng: np.random.Generator,
    num_trees: int = 5,
    max_depth: int = 5,
    num_features: int = 8,
    num_classes: int = 1,
) -> Forest:
    """A random (untrained) forest for structural tests."""
    trees = []
    for i in range(num_trees):
        tree = random_tree(rng, max_depth=max_depth, num_features=num_features, tree_id=i)
        tree.class_id = i % num_classes if num_classes > 1 else 0
        trees.append(tree)
    objective = "multiclass" if num_classes > 1 else "regression"
    return Forest(trees, num_features=num_features, objective=objective, num_classes=num_classes)


class CallCounter:
    """What runs inside a ``with`` block, seen by ``sys.setprofile``.

    ``frames`` holds the code object of every Python frame entered and
    ``c_calls`` every builtin function or method called (``arg.__self__`` is
    a method's receiver). Operators and callable objects that are not
    builtin functions — NumPy ufuncs, types — raise no event, so the counts
    measure the Python-level dispatch around them, which is what a
    generated kernel can waste. Timing-free: equal code gives equal counts.
    """

    def __enter__(self) -> "CallCounter":
        self.frames: list = []
        self.c_calls: list = []
        sys.setprofile(self._event)
        return self

    def _event(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code is not CallCounter.__exit__.__code__:
            self.frames.append(frame.f_code)
        elif event == "c_call" and arg is not sys.setprofile:
            self.c_calls.append(arg)

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def regression_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(500, 10))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + (X[:, 2] > 0) * X[:, 3]
    return X, y


@pytest.fixture(scope="session")
def trained_forest(regression_data) -> Forest:
    """A small trained GBDT with populated leaf statistics."""
    X, y = regression_data
    forest = train_gbdt(X, y, GBDTParams(num_rounds=12, max_depth=5, seed=3))
    populate_node_probabilities(forest, X)
    return forest


@pytest.fixture(scope="session")
def deep_forest(regression_data) -> Forest:
    """A deeper/imbalanced model exercising padding and peeled walks."""
    X, y = regression_data
    forest = train_gbdt(
        X, y, GBDTParams(num_rounds=8, max_depth=8, reg_lambda=1e-3, seed=5)
    )
    populate_node_probabilities(forest, X)
    return forest


@pytest.fixture(scope="session")
def multiclass_forest(regression_data) -> Forest:
    X, _ = regression_data
    rng = np.random.default_rng(11)
    y = rng.integers(0, 3, size=X.shape[0]).astype(np.float64)
    forest = train_gbdt(
        X,
        y,
        GBDTParams(
            num_rounds=5, max_depth=4, objective="multiclass", num_classes=3, seed=4
        ),
    )
    populate_node_probabilities(forest, X)
    return forest


@pytest.fixture(scope="session")
def binary_forest(regression_data) -> Forest:
    X, y = regression_data
    labels = (y > np.median(y)).astype(np.float64)
    forest = train_gbdt(
        X, labels, GBDTParams(num_rounds=8, max_depth=4, objective="binary:logistic", seed=6)
    )
    populate_node_probabilities(forest, X)
    return forest


@pytest.fixture(scope="session")
def test_rows(regression_data) -> np.ndarray:
    rng = np.random.default_rng(99)
    return rng.normal(size=(128, regression_data[0].shape[1]))
