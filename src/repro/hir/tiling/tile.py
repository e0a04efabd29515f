"""Tiled trees: the n-ary trees produced by tree tiling.

A :class:`TiledTree` wraps a binary :class:`~repro.forest.tree.DecisionTree`
together with a valid tiling of its nodes. Internal tiles hold up to
``tile_size`` original internal nodes (canonically ordered, with a shape key
from :mod:`repro.hir.tiling.shapes`); every original leaf becomes its own
leaf tile (the *leaf separation* constraint). Tree padding may additionally
insert *dummy* tiles — tiles with no original nodes whose predicates are
always true, so the walk deterministically falls through to child 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TilingError
from repro.forest.tree import DecisionTree
from repro.hir.tiling.shapes import (
    ShapeKey,
    left_chain_shape,
    shape_child_for_bits,
    shape_facts,
    shape_key_of_tile,
)
from repro.hir.tiling.validity import check_valid_tiling


@dataclass
class Tile:
    """One tile of a tiled tree.

    Attributes
    ----------
    tile_id:
        Index of this tile within its :class:`TiledTree`.
    nodes:
        Original node ids in intra-tile level order; a single leaf id for
        leaf tiles; empty for dummy tiles.
    shape:
        Canonical shape key (``None`` for leaf tiles).
    children:
        Child tile ids in left-to-right out-edge order. Internal tiles with
        ``k`` nodes have exactly ``k + 1`` children; dummy tiles have one;
        leaf tiles none.
    parent:
        Parent tile id, or -1 for the root tile.
    depth:
        Distance from the root tile.
    probability:
        Probability a walk visits this tile (from the tile root node's
        training statistics); 0 when statistics are unavailable.
    is_leaf / is_dummy:
        Tile kind flags.
    """

    tile_id: int
    nodes: tuple[int, ...]
    shape: ShapeKey | None
    children: list[int] = field(default_factory=list)
    parent: int = -1
    depth: int = 0
    probability: float = 0.0
    is_leaf: bool = False
    is_dummy: bool = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


class TiledTree:
    """A decision tree together with a valid tiling (possibly padded).

    Tile 0 is always the root tile. Use :meth:`from_tiling` to construct from
    the output of a tiling algorithm; the constructor itself takes an already
    materialized tile list (used by padding, which rewrites the list).
    """

    def __init__(self, tree: DecisionTree, tile_size: int, tiles: list[Tile]) -> None:
        self.tree = tree
        self.tile_size = int(tile_size)
        self.tiles = tiles

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tiling(
        cls,
        tree: DecisionTree,
        internal_tiles: list[list[int]],
        tile_size: int,
        validate: bool = True,
    ) -> "TiledTree":
        """Materialize a :class:`TiledTree` from internal-node tile groups.

        ``internal_tiles`` partitions the tree's internal nodes; leaf tiles
        are created implicitly. When ``validate`` is set the four validity
        constraints of Section III-B1 are checked first.
        """
        if validate:
            check_valid_tiling(tree, internal_tiles, tile_size)
        # Which tile group does each internal node belong to?
        group_of_node: dict[int, int] = {}
        for gid, nodes in enumerate(internal_tiles):
            for n in nodes:
                group_of_node[n] = gid
        left, right = tree.left.tolist(), tree.right.tolist()
        prob = tree.node_probability
        prob = None if prob is None else prob.tolist()
        tiles: list[Tile] = []

        def new_tile(node: int, parent: int, depth: int) -> None:
            """Append the tile rooted at ``node``: a leaf tile, or the node's
            group canonicalized now that its root is known."""
            if left[node] < 0:
                nodes, shape = (node,), None
            else:
                group = internal_tiles[group_of_node[node]]
                shape, ordered = shape_key_of_tile(tree, group, root=node)
                nodes = tuple(ordered)
            if prob is None:
                p = 1.0 if parent < 0 else 0.0
            else:
                p = prob[node]
            tiles.append(
                Tile(
                    tile_id=len(tiles),
                    nodes=nodes,
                    shape=shape,
                    parent=parent,
                    depth=depth,
                    probability=p,
                    is_leaf=shape is None,
                )
            )

        # Breadth-first from the tile holding node 0: ``tiles`` grows while
        # it is iterated, so tile ids are visit order and each tile's
        # children follow its shape's left-to-right out-edge order.
        new_tile(0, -1, 0)
        for tile in tiles:
            if tile.is_leaf:
                continue
            for intra, side in shape_facts(tile.shape).edges:
                node = tile.nodes[intra]
                tile.children.append(len(tiles))
                new_tile(left[node] if side == "L" else right[node], tile.tile_id, tile.depth + 1)
        return cls(tree, tile_size, tiles)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def root(self) -> Tile:
        return self.tiles[0]

    def leaf_tiles(self) -> list[Tile]:
        return [t for t in self.tiles if t.is_leaf]

    def internal_tiles(self) -> list[Tile]:
        return [t for t in self.tiles if not t.is_leaf]

    @property
    def max_leaf_depth(self) -> int:
        """Depth of the deepest leaf tile (= number of tile evaluations)."""
        return max(t.depth for t in self.leaf_tiles())

    @property
    def min_leaf_depth(self) -> int:
        return min(t.depth for t in self.leaf_tiles())

    @property
    def is_uniform_depth(self) -> bool:
        """True when every leaf tile sits at the same depth (padded trees)."""
        return self.max_leaf_depth == self.min_leaf_depth

    def expected_walk_length(self) -> float:
        """Expected number of tile evaluations per inference.

        This is the objective probability-based tiling minimizes
        (Section III-C): ``sum_l p_l * depth(l)`` over leaf tiles.
        """
        return float(sum(t.probability * t.depth for t in self.leaf_tiles()))

    def structure_signature(self) -> tuple:
        """Hashable key for tiled-structure isomorphism (tree reordering)."""
        sig: list = []
        stack = [0]
        while stack:
            tid = stack.pop()
            tile = self.tiles[tid]
            if tile.is_leaf:
                sig.append("L")
            elif tile.is_dummy:
                sig.append(("D", len(tile.children)))
            else:
                sig.append(tile.shape)
            for child in reversed(tile.children):
                stack.append(child)
        return tuple(sig)

    # ------------------------------------------------------------------
    # Reference traversal
    # ------------------------------------------------------------------
    def tile_bits(self, tile: Tile, row: np.ndarray) -> int:
        """Predicate outcomes of all nodes in ``tile`` packed into an int.

        This is the speculative evaluation of Section III-B: every node in
        the tile is evaluated regardless of which ones the binary walk would
        visit. Dummy tiles compare true on every (padding) node.
        """
        if tile.is_dummy:
            return (1 << self.tile_size) - 1
        bits = 0
        tree = self.tree
        for i, node in enumerate(tile.nodes):
            if row[tree.feature[node]] < tree.threshold[node]:
                bits |= 1 << i
        return bits

    def walk_row(self, row: np.ndarray) -> float:
        """Reference tiled walk for one row (mirrors the §III-B listing)."""
        tile = self.tiles[0]
        while not tile.is_leaf:
            if tile.is_dummy:
                tile = self.tiles[tile.children[0]]
                continue
            bits = self.tile_bits(tile, row)
            child_idx = shape_child_for_bits(tile.shape, bits)
            tile = self.tiles[tile.children[child_idx]]
        return float(self.tree.value[tile.nodes[0]])

    def walk_rows(self, rows: np.ndarray) -> np.ndarray:
        """Reference tiled walk over a batch (row loop in Python)."""
        return np.asarray([self.walk_row(row) for row in np.asarray(rows)])

    # ------------------------------------------------------------------
    # Padding support
    # ------------------------------------------------------------------
    def insert_dummy_chain(self, leaf_tile_id: int, length: int) -> None:
        """Insert ``length`` dummy tiles between a leaf tile and its parent.

        Used by :func:`repro.hir.padding.pad_to_uniform_depth`. Depths of the
        leaf tile are updated; other tiles are unaffected.
        """
        if length <= 0:
            return
        leaf = self.tiles[leaf_tile_id]
        if not leaf.is_leaf:
            raise TilingError("dummy chains may only be inserted above leaf tiles")
        parent_id = leaf.parent
        if parent_id < 0:
            raise TilingError("cannot pad the root tile")
        prev_id = parent_id
        slot = self.tiles[parent_id].children.index(leaf_tile_id)
        for i in range(length):
            dummy = Tile(
                tile_id=len(self.tiles),
                nodes=(),
                shape=left_chain_shape(self.tile_size),
                parent=prev_id,
                depth=leaf.depth + i,
                probability=leaf.probability,
                is_dummy=True,
            )
            self.tiles.append(dummy)
            if prev_id == parent_id:
                self.tiles[parent_id].children[slot] = dummy.tile_id
            else:
                self.tiles[prev_id].children.append(dummy.tile_id)
            prev_id = dummy.tile_id
        self.tiles[prev_id].children.append(leaf_tile_id)
        leaf.parent = prev_id
        leaf.depth += length

    def __repr__(self) -> str:
        return (
            f"TiledTree(tree_id={self.tree.tree_id}, tile_size={self.tile_size}, "
            f"tiles={self.num_tiles}, depth={self.max_leaf_depth})"
        )
