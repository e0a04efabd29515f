"""Tile shapes, shape canonicalization, and the traversal lookup table.

For a tile size ``n_t``, every legal binary tree over ``k <= n_t``
indistinguishable nodes is a *tile shape* (Section V-A1; Figure 4 enumerates
the five shapes of size 3). A shape is canonicalized as a tuple

    ``((l_0, r_0), (l_1, r_1), ...)``

with one pair per tile node *in intra-tile level order*; ``l_i``/``r_i`` are
the intra-tile indices of node ``i``'s left/right children when those
children belong to the same tile, and ``-1`` when the edge leaves the tile.

A tile with ``k`` nodes always has exactly ``k + 1`` outgoing edges; they are
ordered left-to-right (paper footnote 7) by the in-order enumeration
implemented in :func:`out_edge_order`. Given the vector of node-predicate
outcomes packed into an integer (bit ``i`` = outcome of node ``i``), the
child to visit next is a pure function of the shape — precomputed for all
``2**n_t`` outcome patterns into the LUT of Section V-A2.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import TilingError

#: A canonical shape: one (left, right) intra-tile index pair per node.
ShapeKey = tuple[tuple[int, int], ...]

#: Reserved shape for dummy (padding/hop) tiles. Its LUT row maps *every*
#: predicate-outcome pattern to child 0, so dummy routing is independent of
#: the speculative comparisons — in particular it stays correct for ``+inf``
#: inputs, where the padding predicate ``x < +inf`` is false.
DUMMY_SHAPE: ShapeKey = ()

#: Byte bound on the LUT rows :func:`shape_facts` keeps. All 2 055 shapes of
#: at most 8 nodes need under 0.5 MB; a row for ``k > 8`` nodes takes up to
#: 64 KB, so the memo is bounded by bytes, least recently used row first.
SHAPE_MEMO_BYTES: int = 4 << 20


def storage_width(tile_size: int) -> int:
    """Tile storage lanes: smallest power of two >= ``tile_size``.

    Backends pad tile buffers to this width so the per-tile comparison
    vector occupies exactly 1, 2, 4 or 8 bytes and can be reinterpreted as
    a single machine integer when packing predicate bits (the Python
    backend's stand-in for a SIMD movemask).
    """
    if tile_size < 1:
        raise TilingError("tile size must be >= 1")
    width = 1
    while width < tile_size:
        width <<= 1
    return width


def validate_shape(shape: ShapeKey) -> None:
    """Check that ``shape`` is a well-formed tile shape rooted at node 0.

    Requirements: indices are in range, each non-root node is referenced by
    exactly one parent slot, children come after parents in level order, and
    node 0 is the root (referenced by nobody).
    """
    k = len(shape)
    if k == 0:
        raise TilingError("empty shape")
    seen = np.zeros(k, dtype=np.int64)
    for i, (left, right) in enumerate(shape):
        for child in (left, right):
            if child == -1:
                continue
            if not (0 <= child < k):
                raise TilingError(f"shape child index {child} out of range")
            if child <= i:
                raise TilingError("shape children must come after parents in level order")
            seen[child] += 1
    if seen[0] != 0:
        raise TilingError("shape node 0 must be the root")
    if k > 1 and not (seen[1:] == 1).all():
        raise TilingError("every non-root shape node needs exactly one parent")


def out_edge_order(shape: ShapeKey) -> list[tuple[int, str]]:
    """Outgoing edges of the tile in left-to-right order.

    Returns ``[(node, side), ...]`` where ``side`` is ``"L"`` or ``"R"``.
    The order is the in-order (DFS, left before right) enumeration of
    out-of-tile edges, which realizes the paper's left-to-right child order.
    """
    edges: list[tuple[int, str]] = []

    def visit(i: int) -> None:
        left, right = shape[i]
        if left >= 0:
            visit(left)
        else:
            edges.append((i, "L"))
        if right >= 0:
            visit(right)
        else:
            edges.append((i, "R"))

    visit(0)
    return edges


def shape_child_for_bits(shape: ShapeKey, bits: int) -> int:
    """Child index selected by predicate outcomes ``bits`` (bit i = node i).

    Simulates the within-tile walk: start at the tile root; a true predicate
    moves to the left child, false to the right; the walk exits the tile
    through some out-edge, whose left-to-right position is the child index.
    """
    edges = out_edge_order(shape)
    node = 0
    while True:
        left, right = shape[node]
        go_left = (bits >> node) & 1
        nxt = left if go_left else right
        if nxt == -1:
            return edges.index((node, "L" if go_left else "R"))
        node = nxt


class ShapeFacts(NamedTuple):
    """Everything the compiler derives from a tile shape alone."""

    #: :func:`out_edge_order` of the shape
    edges: tuple[tuple[int, str], ...]
    #: read-only ``(2**k,)`` int8 LUT row: predicate bits -> child index
    row: np.ndarray


_facts: OrderedDict[ShapeKey, ShapeFacts] = OrderedDict()
_facts_bytes = 0
_facts_lock = threading.Lock()


def _lut_row(shape: ShapeKey, edges: tuple[tuple[int, str], ...]) -> np.ndarray:
    """Child index for every predicate pattern: one walk, all lanes at once."""
    k = len(shape)
    kids = np.asarray(shape, dtype=np.intp)  # (k, 2); column 0 = left
    exit_index = np.zeros((k, 2), dtype=np.int8)
    for index, (node, side) in enumerate(edges):
        exit_index[node, int(side == "R")] = index
    bits = np.arange(1 << k)
    node = np.zeros(1 << k, dtype=np.intp)
    # A walk visits at most k nodes; a lane that met its out-edge stays put.
    for _ in range(k - 1):
        nxt = kids[node, 1 - ((bits >> node) & 1)]
        node = np.where(nxt < 0, node, nxt)
    row = exit_index[node, 1 - ((bits >> node) & 1)]
    row.flags.writeable = False
    return row


def shape_facts(shape: ShapeKey) -> ShapeFacts:
    """The validated shape's out-edge order and LUT row, computed once.

    A forest has few distinct shapes (hundreds over tens of thousands of
    tiles), so the compile path asks here instead of re-deriving per tile or
    per bit pattern. Being returned at all means :func:`validate_shape`
    passed. The row comes from one edge order and one walk vectorised over
    all ``2**k`` patterns; :func:`shape_child_for_bits` stays the scalar
    definition the verifier and the tests check it against.
    """
    global _facts_bytes
    with _facts_lock:
        facts = _facts.get(shape)
        if facts is not None:
            _facts.move_to_end(shape)
            return facts
        validate_shape(shape)
        edges = tuple(out_edge_order(shape))
        facts = _facts[shape] = ShapeFacts(edges, _lut_row(shape, edges))
        _facts_bytes += facts.row.nbytes
        while _facts_bytes > SHAPE_MEMO_BYTES:
            _facts_bytes -= _facts.popitem(last=False)[1].row.nbytes
    return facts


@lru_cache(maxsize=None)
def left_chain_shape(size: int) -> ShapeKey:
    """The all-left chain shape of ``size`` nodes.

    Used for the dummy tiles inserted by tree padding: with every predicate
    forced true, the walk exits through out-edge 0 (the deepest left edge),
    so a dummy tile deterministically routes to its first child.
    """
    if size < 1:
        raise TilingError("shape size must be >= 1")
    return tuple((i + 1 if i + 1 < size else -1, -1) for i in range(size))


@lru_cache(maxsize=None)
def all_shapes_of_size(size: int) -> tuple[ShapeKey, ...]:
    """Enumerate every tile shape with exactly ``size`` nodes.

    There are Catalan(size) such shapes. Enumeration is recursive on the
    (left subtree size, right subtree size) split, then re-serialized into
    the canonical level-order form.
    """

    def build(n: int):
        """Yield shapes as nested tuples (left_sub, right_sub) or None."""
        if n == 0:
            yield None
            return
        for left_n in range(n):
            for left_sub in build(left_n):
                for right_sub in build(n - 1 - left_n):
                    yield (left_sub, right_sub)

    shapes = []
    for nested in build(size):
        shapes.append(nested_to_shape(nested))
    return tuple(shapes)


def nested_to_shape(nested) -> ShapeKey:
    """Convert a nested ``(left, right)``/None tree into a canonical ShapeKey."""
    if nested is None:
        raise TilingError("cannot convert empty tree to a shape")
    # Assign level-order indices.
    from collections import deque

    index_of: dict[int, int] = {}
    order: list = []
    queue = deque([nested])
    while queue:
        node = queue.popleft()
        index_of[id(node)] = len(order)
        order.append(node)
        left, right = node
        if left is not None:
            queue.append(left)
        if right is not None:
            queue.append(right)
    shape = []
    for node in order:
        left, right = node
        shape.append(
            (
                index_of[id(left)] if left is not None else -1,
                index_of[id(right)] if right is not None else -1,
            )
        )
    return tuple(shape)


def shape_key_of_tile(
    tree, tile_nodes: list[int], root: int | None = None
) -> tuple[ShapeKey, list[int]]:
    """Canonicalize the shape of a tile within ``tree``.

    Parameters
    ----------
    tree:
        A :class:`~repro.forest.tree.DecisionTree`.
    tile_nodes:
        The original node ids belonging to the tile (any order).
    root:
        The tile's root node when the caller already knows it (the node an
        out-edge of the parent tile points at); found here otherwise.

    Returns
    -------
    (shape, ordered_nodes):
        The canonical :data:`ShapeKey` and the tile's node ids re-ordered
        into intra-tile level order (the order the shape indices refer to).
    """
    members = set(tile_nodes)
    if not members:
        raise TilingError("tile has no nodes")
    left, right = tree.left, tree.right
    if root is None:
        # The unique member whose parent is not in the tile.
        roots = members - {int(c) for n in members for c in (left[n], right[n])}
        if len(roots) != 1:
            raise TilingError(f"tile is not a connected subtree (roots={sorted(roots)})")
        root = roots.pop()
    # One level-order walk from the root yields order and shape together: a
    # member child's intra-tile index is its position in the queue.
    ordered = [root]
    shape = []
    for n in ordered:
        pair = [-1, -1]
        for side, child in enumerate((int(left[n]), int(right[n]))):
            if child in members:
                pair[side] = len(ordered)
                ordered.append(child)
        shape.append(tuple(pair))
    if len(ordered) != len(members):
        raise TilingError("tile is not connected")
    return tuple(shape), ordered


class ShapeRegistry:
    """Assigns stable integer ids to tile shapes and builds the LUT.

    The registry collects every shape observed while tiling a model; shape
    ids index the first dimension of the traversal LUT
    ``LUT[shape_id, outcome_bits] -> child index`` (Section V-A2). The LUT is
    computed statically because the tile size is a compile-time constant.
    """

    def __init__(self, tile_size: int) -> None:
        if not (1 <= tile_size <= 16):
            raise TilingError("tile size must be in [1, 16]")
        self.tile_size = tile_size
        self._ids: dict[ShapeKey, int] = {}

    def register(self, shape: ShapeKey) -> int:
        """Return the id for ``shape``, assigning a new one if unseen.

        :data:`DUMMY_SHAPE` is accepted as a reserved key whose LUT row is
        all zeros (dummy tiles always route to child 0, data-independently).
        """
        sid = self._ids.get(shape)
        if sid is not None:
            return sid
        if len(shape) > self.tile_size:
            raise TilingError(
                f"shape has {len(shape)} nodes but tile size is {self.tile_size}"
            )
        if shape != DUMMY_SHAPE:
            shape_facts(shape)  # validates; the LUT row is ready for build_lut
        sid = self._ids[shape] = len(self._ids)
        return sid

    @property
    def num_shapes(self) -> int:
        return len(self._ids)

    @property
    def dummy_id(self) -> int | None:
        """The id assigned to :data:`DUMMY_SHAPE`, or None if unused."""
        return self._ids.get(DUMMY_SHAPE)

    def shapes(self) -> list[ShapeKey]:
        """All registered shapes in id order."""
        return sorted(self._ids, key=self._ids.__getitem__)

    def build_lut(self, width: int | None = None) -> np.ndarray:
        """The traversal lookup table, shape ``(num_shapes, 2**width)``.

        ``width`` defaults to the tile size; backends that pad tile storage
        to a machine-friendly lane count (power of two) pass the padded
        width. For shapes smaller than the width the unused high bits are
        ignored (padding nodes always compare true, but the child computed
        from the real nodes' bits is correct regardless).
        """
        width = self.tile_size if width is None else width
        if width < self.tile_size:
            raise TilingError("LUT width must be >= the tile size")
        n_patterns = 1 << width
        lut = np.zeros((max(self.num_shapes, 1), n_patterns), dtype=np.int8)
        for shape, sid in self._ids.items():
            if shape == DUMMY_SHAPE:
                continue  # row stays zeros: every pattern routes to child 0
            # Child index depends only on the low k bits: the shape's
            # memoised row, repeated over the ignored high bits.
            lut[sid] = np.tile(shape_facts(shape).row, n_patterns >> len(shape))
        return lut
