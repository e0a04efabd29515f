"""Shard-count planning for the multi-process serving tier.

The sharded tier (:mod:`repro.serve.workers`) splits an ensemble into
contiguous tree ranges executed by separate worker processes. How many
shards is a tuning decision, not a serving one, so it lives here next to
the cost model: sharding pays a fixed per-request scatter/gather tax (IPC,
pickling the rows, the combiner fold), which only amortizes when each
shard still carries enough traversal work — a small forest split eight
ways spends more on transport than on trees.

The heuristic mirrors the cost model's structure-over-measurement
approach (:mod:`repro.autotune.cost`): per-shard work is proxied by node
count, and a shard is worth creating only while its share of the model
stays above a node floor.
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.forest.ensemble import Forest

#: a shard below this many nodes is transport-dominated: the per-request
#: IPC round trip costs on the order of visiting thousands of nodes.
MIN_NODES_PER_SHARD = 2000


def recommend_shard_count(
    forest: Forest,
    num_workers: int,
    *,
    min_nodes_per_shard: int = MIN_NODES_PER_SHARD,
) -> int:
    """How many tree shards to split ``forest`` into for ``num_workers``.

    At most one shard per worker (the pool never benefits from more) and
    never more shards than trees; beyond that, the count is capped so
    every shard keeps at least ``min_nodes_per_shard`` nodes — small models
    collapse to one shard (the degenerate single-process-equivalent case)
    instead of paying scatter/gather for trivial partials.
    """
    if num_workers < 1:
        raise ScheduleError("num_workers must be >= 1")
    by_nodes = forest.total_nodes // max(1, min_nodes_per_shard)
    return max(1, min(num_workers, forest.num_trees, by_nodes))
