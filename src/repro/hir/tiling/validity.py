"""Validity checking for tilings (Section III-B1).

A tiling of a tree with tile size ``n_t`` is *valid* when it satisfies:

* **Partitioning** — the tiles cover all internal nodes, disjointly (leaves
  are implicitly their own tiles and must not appear in any internal tile:
  **leaf separation**).
* **Connectedness** — each tile is a connected subtree.
* **Maximal tiling** — a tile smaller than ``n_t`` has no outgoing edge to a
  non-leaf node (it could otherwise have grown).

``check_valid_tiling`` raises :class:`~repro.errors.TilingError` with a
precise message on the first violated constraint; every tiling algorithm in
this package is checked against it in the test suite (including via
hypothesis-generated random trees).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TilingError
from repro.forest.tree import DecisionTree


def check_valid_tiling(
    tree: DecisionTree, internal_tiles: list[list[int]], tile_size: int
) -> None:
    """Validate ``internal_tiles`` as a tiling of ``tree``; raise on violation."""
    if tile_size < 1:
        raise TilingError("tile size must be >= 1")
    if tree.is_leaf(0):
        if internal_tiles:
            raise TilingError("single-leaf tree must have an empty internal tiling")
        return

    internal = set(tree.internal_nodes().tolist())
    leaves = set(tree.leaves().tolist())

    seen: set[int] = set()
    for i, nodes in enumerate(internal_tiles):
        if not nodes:
            raise TilingError(f"tile {i} is empty")
        if len(nodes) > tile_size:
            raise TilingError(f"tile {i} has {len(nodes)} nodes, exceeding tile size {tile_size}")
        for n in nodes:
            n = int(n)
            if n in leaves:
                raise TilingError(f"leaf separation violated: leaf {n} in tile {i}")
            if n not in internal:
                raise TilingError(f"tile {i} references unknown node {n}")
            if n in seen:
                raise TilingError(f"partitioning violated: node {n} in multiple tiles")
            seen.add(n)
    if seen != internal:
        missing = sorted(internal - seen)[:5]
        raise TilingError(f"partitioning violated: internal nodes {missing} not tiled")

    # Connectedness and maximality of every tile from one parent array. In a
    # tree a node set is connected iff exactly one member's parent lies
    # outside it (the tile root): the others reach it by in-set parent edges.
    tile_of = np.full(tree.num_nodes, -1, dtype=np.intp)
    for i, nodes in enumerate(internal_tiles):
        tile_of[nodes] = i
    inner = tree.internal_nodes()[1:]  # node 0 roots its tile
    above = tile_of[tree.parents()[inner]]
    crossing = above != tile_of[inner]
    roots = np.bincount(tile_of[inner[crossing]], minlength=len(internal_tiles))
    roots[tile_of[0]] += 1
    split = np.flatnonzero(roots != 1)
    # Maximal tiling: an undersized tile may only border leaves.
    sizes = np.array([len(nodes) for nodes in internal_tiles])
    stunted = crossing & (sizes[above] < tile_size)
    if stunted.any() and (not split.size or above[stunted].min() < split[0]):
        i = above[stunted].min()
        raise TilingError(
            f"maximality violated: tile {i} has size {sizes[i]} "
            f"< tile size but borders non-leaf node {inner[stunted & (above == i)][0]}"
        )
    if split.size:
        raise TilingError(
            f"connectedness violated in tile {split[0]}: {roots[split[0]]} tile roots"
        )
