"""Array-backed binary decision tree.

A tree is stored as parallel arrays indexed by node id. Node 0 is always the
root. Internal nodes carry a feature index and a threshold; leaves carry a
prediction value. The predicate at an internal node is ``x[feature] < threshold``
(true -> left child, false -> right child), following the paper's convention.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.errors import ModelError

#: Sentinel child index meaning "no child" (the node is a leaf).
NO_NODE: int = -1

#: Sentinel feature index stored for leaf nodes.
LEAF: int = -1


class DecisionTree:
    """A binary decision tree stored as parallel per-node arrays.

    Parameters
    ----------
    feature:
        int array; ``feature[n]`` is the feature index tested at node ``n``,
        or :data:`LEAF` for leaves.
    threshold:
        float array; threshold tested at internal nodes (ignored for leaves).
    left, right:
        int arrays of child ids, :data:`NO_NODE` for leaves. A node must have
        either both children (internal) or neither (leaf).
    value:
        float array; prediction value at leaves (ignored for internal nodes).
    node_probability:
        optional float array; empirical probability that a walk visits each
        node, as measured on training data. ``None`` until populated by
        :func:`repro.forest.statistics.populate_node_probabilities`.
    class_id:
        output class this tree contributes to (multiclass ensembles train one
        tree per class per boosting round); 0 for regression/binary models.
    tree_id:
        position of this tree in its ensemble, for diagnostics.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "value",
        "node_probability",
        "class_id",
        "tree_id",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        node_probability: np.ndarray | None = None,
        class_id: int = 0,
        tree_id: int = 0,
    ) -> None:
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        if node_probability is not None:
            node_probability = np.asarray(node_probability, dtype=np.float64)
        self.node_probability = node_probability
        self.class_id = int(class_id)
        self.tree_id = int(tree_id)
        self.validate()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return int(self.feature.shape[0])

    @property
    def root(self) -> int:
        """Node id of the root (always 0)."""
        return 0

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` is a leaf."""
        return self.left[node] == NO_NODE

    def leaves(self) -> np.ndarray:
        """Ids of all leaf nodes, in ascending id order."""
        return np.nonzero(self.left == NO_NODE)[0]

    def internal_nodes(self) -> np.ndarray:
        """Ids of all internal nodes, in ascending id order."""
        return np.nonzero(self.left != NO_NODE)[0]

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self.left == NO_NODE))

    def children(self, node: int) -> tuple[int, int]:
        """``(left, right)`` child ids of ``node`` (``NO_NODE`` for leaves)."""
        return int(self.left[node]), int(self.right[node])

    def parents(self) -> np.ndarray:
        """Parent id for each node (``NO_NODE`` for the root)."""
        parent = np.full(self.num_nodes, NO_NODE, dtype=np.int32)
        internal = self.internal_nodes()
        parent[self.left[internal]] = internal
        parent[self.right[internal]] = internal
        return parent

    def depths(self) -> np.ndarray:
        """Depth of each node; the root has depth 0."""
        depth = np.zeros(self.num_nodes, dtype=np.int32)
        for level, nodes in enumerate(self._levels()):
            depth[nodes] = level
        return depth

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return sum(1 for _ in self._levels()) - 1

    def _levels(self) -> Iterator[np.ndarray]:
        """Node ids of each depth level, root level first."""
        level = np.zeros(1, dtype=np.int32)
        while level.size:
            yield level
            inner = level[self.left[level] != NO_NODE]
            level = np.concatenate([self.left[inner], self.right[inner]])

    def iter_preorder(self, start: int = 0) -> Iterator[int]:
        """Yield node ids in pre-order starting from ``start``."""
        stack = [start]
        while stack:
            node = stack.pop()
            yield node
            if not self.is_leaf(node):
                stack.append(int(self.right[node]))
                stack.append(int(self.left[node]))

    def iter_level_order(self, start: int = 0) -> Iterator[int]:
        """Yield node ids in level (breadth-first) order from ``start``."""
        from collections import deque

        queue = deque([start])
        while queue:
            node = queue.popleft()
            yield node
            if not self.is_leaf(node):
                queue.append(int(self.left[node]))
                queue.append(int(self.right[node]))

    def subtree_nodes(self, start: int) -> list[int]:
        """All node ids in the subtree rooted at ``start`` (pre-order)."""
        return list(self.iter_preorder(start))

    def structure_signature(self) -> tuple:
        """A hashable key identifying the tree *shape* (ignoring parameters).

        Two trees with the same signature are isomorphic as binary trees; the
        tree-reordering pass groups trees by this key so they can share
        traversal code (Section III-F).
        """
        sig: list[int] = []
        for node in self.iter_preorder():
            sig.append(0 if self.is_leaf(node) else 1)
        return tuple(sig)

    # ------------------------------------------------------------------
    # Prediction (reference semantics)
    # ------------------------------------------------------------------
    def predict_row(self, row: np.ndarray) -> float:
        """Walk the tree for a single input row; reference implementation."""
        node = 0
        while self.left[node] != NO_NODE:
            if row[self.feature[node]] < self.threshold[node]:
                node = int(self.left[node])
            else:
                node = int(self.right[node])
        return float(self.value[node])

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized reference prediction for a 2-D batch of rows."""
        rows = np.asarray(rows, dtype=np.float64)
        n = rows.shape[0]
        node = np.zeros(n, dtype=np.int32)
        active = self.left[node] != NO_NODE
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = rows[idx, self.feature[cur]] < self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.left[node] != NO_NODE
        return self.value[node]

    def leaf_for_row(self, row: np.ndarray) -> int:
        """Id of the leaf reached by ``row``."""
        node = 0
        while self.left[node] != NO_NODE:
            if row[self.feature[node]] < self.threshold[node]:
                node = int(self.left[node])
            else:
                node = int(self.right[node])
        return node

    def leaves_for_rows(self, rows: np.ndarray) -> np.ndarray:
        """Leaf id reached by each row of a 2-D batch (vectorized)."""
        rows = np.asarray(rows, dtype=np.float64)
        node = np.zeros(rows.shape[0], dtype=np.int32)
        active = self.left[node] != NO_NODE
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = rows[idx, self.feature[cur]] < self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.left[node] != NO_NODE
        return node

    # ------------------------------------------------------------------
    # Validation and serialization
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ModelError` if violated.

        Invariants: all arrays share one length; node 0 exists; every node has
        either two children or none; every non-root node has exactly one
        parent; the child graph is acyclic and spans all nodes from the root.
        """
        n = self.feature.shape[0]
        if n == 0:
            raise ModelError("tree has no nodes")
        for name in ("threshold", "left", "right", "value"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ModelError(f"array {name!r} has shape {arr.shape}, expected ({n},)")
        if self.node_probability is not None and self.node_probability.shape != (n,):
            raise ModelError("node_probability has wrong shape")
        has_left = self.left != NO_NODE
        has_right = self.right != NO_NODE
        if not np.array_equal(has_left, has_right):
            bad = int(np.nonzero(has_left != has_right)[0][0])
            raise ModelError(f"node {bad} has exactly one child; trees must be full binary")
        internal = np.nonzero(has_left)[0]
        kids = np.concatenate([self.left[internal], self.right[internal]])
        if kids.size:
            if kids.min() < 0 or kids.max() >= n:
                raise ModelError("child index out of range")
            if 0 in kids:
                raise ModelError("root (node 0) appears as a child")
            counts = np.bincount(kids, minlength=n)
            if (counts > 1).any():
                bad = int(np.nonzero(counts > 1)[0][0])
                raise ModelError(f"node {bad} has multiple parents")
            if int(counts.sum()) != n - 1:
                raise ModelError("tree is not connected: some nodes unreachable from root")
        elif n != 1:
            raise ModelError("tree with no internal nodes must be a single leaf")
        if (self.feature[internal] < 0).any():
            raise ModelError("internal node has negative feature index")
        # Reachability / acyclicity: each non-root node has exactly one parent
        # and there are n-1 edges, so the child graph is a tree rooted at 0.

    def to_dict(self) -> dict[str, Any]:
        """Serialize to plain Python containers (JSON compatible)."""
        out: dict[str, Any] = {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "class_id": self.class_id,
            "tree_id": self.tree_id,
        }
        if self.node_probability is not None:
            out["node_probability"] = self.node_probability.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionTree":
        """Inverse of :meth:`to_dict`."""
        return cls(
            feature=np.asarray(data["feature"]),
            threshold=np.asarray(data["threshold"]),
            left=np.asarray(data["left"]),
            right=np.asarray(data["right"]),
            value=np.asarray(data["value"]),
            node_probability=(
                np.asarray(data["node_probability"]) if "node_probability" in data else None
            ),
            class_id=data.get("class_id", 0),
            tree_id=data.get("tree_id", 0),
        )

    def __repr__(self) -> str:
        return (
            f"DecisionTree(tree_id={self.tree_id}, nodes={self.num_nodes}, "
            f"leaves={self.num_leaves}, depth={self.max_depth})"
        )
