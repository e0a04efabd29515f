"""Production serving layer over the compiler (the deployment north star).

The paper compiles a model once and amortizes that cost over millions of
batch-inference calls; this package supplies the runtime that realizes the
amortization in a live system:

* :class:`~repro.serve.cache.PredictorCache` — compiled predictors keyed by
  a stable model+schedule fingerprint, bounded LRU, one compile per key even
  under concurrent registration.
* :class:`~repro.serve.batching.MicroBatcher` — concurrent requests coalesce
  into micro-batches on a bounded deque and run through the row-blocked
  parallel path, on the thread of whichever caller holds the batch lock.
* :class:`~repro.serve.session.InferenceSession` — one served model:
  compile-once, predict-many, interpreter fallback on codegen failure.
* :class:`~repro.serve.server.ModelServer` — named multi-model registry
  sharing one cache and one metrics surface.
* :mod:`repro.serve.workers` — the scale-out tier: tree-sharded
  multi-process serving over shared-memory model buffers
  (:class:`~repro.serve.workers.ShardedPredictor`) whose per-shard
  partial sums add in ascending shard order, and an SLO-aware asyncio
  admission front end
  (:class:`~repro.serve.workers.AsyncModelFrontend`).

Quickstart::

    from repro.serve import ModelServer, ServerConfig, BatchingPolicy

    server = ModelServer(ServerConfig(batching=BatchingPolicy()))
    server.register("ranker", forest)
    probs = server.predict("ranker", rows)
    print(server.metrics_snapshot())

Multi-worker quickstart::

    server.register("big", forest, workers=2, shards=4,
                    slo=SLOPolicy(target_p99_s=0.05, max_inflight=64))
    probs = server.predict("big", rows)   # sharded under the hood
"""

from repro.serve.batching import BatchingPolicy, MicroBatcher
from repro.serve.cache import DEFAULT_PREDICTOR_CACHE_CAP, PredictorCache
from repro.serve.fallback import InterpreterPredictor, ReferencePredictor
from repro.serve.metrics import LatencyWindow, ServingMetrics
from repro.serve.server import ModelServer, ServerConfig
from repro.serve.session import InferenceSession
from repro.serve.workers import (
    AsyncModelFrontend,
    Combiner,
    SLOPolicy,
    ShardPlan,
    ShardedPredictor,
    WorkerPool,
    build_sharded_predictor,
    get_combiner,
    plan_shards,
    shard_forest,
)

__all__ = [
    "AsyncModelFrontend",
    "BatchingPolicy",
    "Combiner",
    "DEFAULT_PREDICTOR_CACHE_CAP",
    "InferenceSession",
    "InterpreterPredictor",
    "LatencyWindow",
    "MicroBatcher",
    "ModelServer",
    "PredictorCache",
    "ReferencePredictor",
    "SLOPolicy",
    "ServerConfig",
    "ServingMetrics",
    "ShardPlan",
    "ShardedPredictor",
    "WorkerPool",
    "build_sharded_predictor",
    "get_combiner",
    "plan_shards",
    "shard_forest",
]
