"""Schedule autotuning over the Table-II optimization grid.

Three layers:

* :mod:`repro.autotune.space` — the grid itself (Table II axes);
* :mod:`repro.autotune.cost` — a static cost model that ranks the grid so
  a budgeted search explores likely winners first;
* :mod:`repro.autotune.search` — the budget-aware best-first search with
  early exit, plus :mod:`repro.autotune.persist` for warm starts across
  processes.

``python -m repro.autotune`` runs a self-checking smoke tune (used by CI).
"""

from repro.autotune.cost import (
    ForestProfile,
    predict_cost,
    rank_correlation,
    rank_schedules,
)
from repro.autotune.persist import (
    CacheEntry,
    ScheduleCache,
    default_cache_path,
    machine_id,
)
from repro.autotune.search import DEFAULT_MIN_TIME_S, TuneResult, autotune
from repro.autotune.shards import MIN_NODES_PER_SHARD, recommend_shard_count
from repro.autotune.space import TuningSpace, default_space, schedule_grid

__all__ = [
    "CacheEntry",
    "DEFAULT_MIN_TIME_S",
    "ForestProfile",
    "ScheduleCache",
    "TuneResult",
    "TuningSpace",
    "autotune",
    "default_cache_path",
    "default_space",
    "machine_id",
    "MIN_NODES_PER_SHARD",
    "predict_cost",
    "recommend_shard_count",
    "rank_correlation",
    "rank_schedules",
    "schedule_grid",
]
