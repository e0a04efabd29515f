"""Ensembles of decision trees.

A :class:`Forest` is the unit the compiler consumes: an ordered list of
:class:`~repro.forest.tree.DecisionTree` plus the metadata needed to turn raw
leaf sums into predictions (base score, objective transform, number of output
classes for multiclass models).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import ModelError
from repro.forest.tree import DecisionTree

#: Supported prediction transforms applied to the summed leaf values.
OBJECTIVES = ("regression", "binary:logistic", "multiclass")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, as float64.

    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere, with
    ``e = exp(-|x|)`` so the exponential never overflows. The intermediates
    keep ``x``'s dtype. ``minimum(x, -x)`` is ``-|x|`` except that it returns
    a NaN as it is (``minimum`` returns its first NaN operand), where
    ``-abs`` would flip its sign bit.
    """
    e = np.exp(np.minimum(x, -x))
    return (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(np.float64, copy=False)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax for 2-D score matrices."""
    shifted = x - x.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def apply_objective(objective: str, raw: np.ndarray) -> np.ndarray:
    """Raw margins through the objective's output transform: sigmoid for
    ``binary:logistic``, row softmax for ``multiclass``, else unchanged."""
    if objective == "binary:logistic":
        return sigmoid(raw)
    if objective == "multiclass":
        return softmax(raw)
    return raw


class Forest:
    """An ordered ensemble of decision trees.

    Parameters
    ----------
    trees:
        The member trees. For multiclass models each tree's ``class_id``
        selects the output column it contributes to.
    num_features:
        Width of input rows. Every tree's feature indices must be < this.
    objective:
        One of :data:`OBJECTIVES`. ``raw_predict`` always returns the raw
        margin (sum of leaf values + base score); ``predict`` additionally
        applies the objective transform.
    base_score:
        Constant added to every raw prediction (per class).
    num_classes:
        Number of output classes; 1 for regression and binary models.
    """

    def __init__(
        self,
        trees: Sequence[DecisionTree],
        num_features: int,
        objective: str = "regression",
        base_score: float = 0.0,
        num_classes: int = 1,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ModelError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
        if num_classes < 1:
            raise ModelError("num_classes must be >= 1")
        if objective == "multiclass" and num_classes < 2:
            raise ModelError("multiclass objective requires num_classes >= 2")
        if objective != "multiclass" and num_classes != 1:
            raise ModelError(f"objective {objective!r} requires num_classes == 1")
        self.trees = list(trees)
        if not self.trees:
            raise ModelError("forest must contain at least one tree")
        self.num_features = int(num_features)
        self.objective = objective
        self.base_score = float(base_score)
        self.num_classes = int(num_classes)
        for i, tree in enumerate(self.trees):
            tree.tree_id = i
            internal = tree.internal_nodes()
            if internal.size and int(tree.feature[internal].max()) >= self.num_features:
                raise ModelError(
                    f"tree {i} references feature "
                    f"{int(tree.feature[internal].max())} but num_features={num_features}"
                )
            if not (0 <= tree.class_id < self.num_classes):
                raise ModelError(f"tree {i} has class_id {tree.class_id} out of range")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_trees(self) -> int:
        """Number of member trees."""
        return len(self.trees)

    @property
    def max_depth(self) -> int:
        """Maximum node depth across all trees."""
        return max(tree.max_depth for tree in self.trees)

    @property
    def total_nodes(self) -> int:
        """Total node count across all trees."""
        return sum(tree.num_nodes for tree in self.trees)

    def class_ids(self) -> np.ndarray:
        """Per-tree class id array."""
        return np.asarray([t.class_id for t in self.trees], dtype=np.int32)

    # ------------------------------------------------------------------
    # Reference prediction semantics
    # ------------------------------------------------------------------
    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ModelError(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[1] != self.num_features:
            raise ModelError(
                f"rows have {rows.shape[1]} features, model expects {self.num_features}"
            )
        return rows

    def raw_predict(self, rows: np.ndarray) -> np.ndarray:
        """Raw margins: base score plus the sum of tree predictions.

        Returns shape ``(n,)`` when ``num_classes == 1`` and ``(n, num_classes)``
        otherwise. This is the semantics every compiled predictor must match
        bit-for-bit (up to float accumulation order).
        """
        rows = self._check_rows(rows)
        out = np.full((rows.shape[0], self.num_classes), self.base_score, dtype=np.float64)
        for tree in self.trees:
            out[:, tree.class_id] += tree.predict(rows)
        return out[:, 0] if self.num_classes == 1 else out

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Objective-transformed predictions (probabilities for classifiers)."""
        return apply_objective(self.objective, self.raw_predict(rows))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialize to plain Python containers."""
        return {
            "num_features": self.num_features,
            "objective": self.objective,
            "base_score": self.base_score,
            "num_classes": self.num_classes,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Forest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            trees=[DecisionTree.from_dict(t) for t in data["trees"]],
            num_features=data["num_features"],
            objective=data.get("objective", "regression"),
            base_score=data.get("base_score", 0.0),
            num_classes=data.get("num_classes", 1),
        )

    def save(self, path: str) -> None:
        """Write the forest as JSON to ``path``."""
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path: str) -> "Forest":
        """Read a forest previously written by :meth:`save`."""
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def __repr__(self) -> str:
        return (
            f"Forest(trees={self.num_trees}, features={self.num_features}, "
            f"classes={self.num_classes}, objective={self.objective!r})"
        )
