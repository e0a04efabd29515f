"""Serving demo: many clients sharing one ModelServer.

Registers two models on a :class:`~repro.serve.ModelServer`, then fires
concurrent client threads at it. Requests are coalesced into micro-batches
through the compiled row-blocking path; re-registering a fingerprint-
identical model is a cache hit (no recompilation); the final metrics
snapshot shows compiles, hit rates, the batch-size histogram, and latency
percentiles.

Run with::

    python examples/serving_demo.py
"""

import threading

import numpy as np

from repro import GBDTParams, Schedule, train_gbdt
from repro.forest import Forest
from repro.serve import BatchingPolicy, ModelServer, ServerConfig

NUM_CLIENTS = 8
REQUESTS_PER_CLIENT = 25
NUM_FEATURES = 12


def train_models():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1500, NUM_FEATURES))
    y_reg = X[:, 0] - 0.5 * X[:, 1] ** 2 + np.cos(X[:, 2])
    y_bin = (X[:, 0] + X[:, 3] > 0.2).astype(np.float64)
    regressor = train_gbdt(X, y_reg, GBDTParams(num_rounds=40, max_depth=5))
    classifier = train_gbdt(
        X, y_bin,
        GBDTParams(num_rounds=40, max_depth=4, objective="binary:logistic"),
    )
    return regressor, classifier


def main() -> None:
    regressor, classifier = train_models()

    config = ServerConfig(batching=BatchingPolicy(max_batch_rows=512))
    with ModelServer(config) as server:
        server.register("risk-score", regressor, Schedule(tile_size=4))
        server.register("churn", classifier, Schedule(tile_size=4))
        print(f"registered models: {server.names()}")

        # Re-registering a structurally identical model is a cache hit: the
        # fingerprint covers the forest content + schedule, not object ids.
        clone = Forest.from_dict(regressor.to_dict())
        session = server.register("risk-score-v2", clone, Schedule(tile_size=4))
        print(f"re-registration was a cache hit: {session.cache_hit}")

        rng = np.random.default_rng(99)
        errors = []

        def client(client_id: int) -> None:
            local = np.random.default_rng(client_id)
            for _ in range(REQUESTS_PER_CLIENT):
                name = "risk-score" if client_id % 2 == 0 else "churn"
                rows = local.normal(size=(local.integers(1, 32), NUM_FEATURES))
                got = server.predict(name, rows)
                want = (regressor if name == "risk-score" else classifier).predict(rows)
                if not np.allclose(got, want, rtol=1e-10, atol=1e-12):
                    errors.append(name)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(NUM_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"mismatches: {errors}"

        # One more request so the snapshot below always has fresh latencies.
        server.predict("risk-score", rng.normal(size=(16, NUM_FEATURES)))

        snap = server.metrics_snapshot()
        print("\n--- serving metrics ---")
        print(f"models registered:    {snap['models_registered']}")
        print(f"predictors resident:  {snap['predictors_resident']}")
        print(f"compiles:             {snap['compiles']}")
        print(f"cache hits / misses:  {snap['cache_hits']} / {snap['cache_misses']}")
        print(f"requests / rows:      {snap['requests']} / {snap['rows']}")
        print(f"micro-batches:        {snap['batches']}")
        sizes = sorted(snap["batch_requests_hist"].items())
        print(f"requests per batch:   {dict(sizes)}")
        pct = snap["latency"]
        print(
            "request latency (ms): "
            f"p50={pct['p50'] * 1e3:.3f} p90={pct['p90'] * 1e3:.3f} "
            f"p99={pct['p99'] * 1e3:.3f}"
        )
        print(f"fallbacks:            {snap['fallbacks']}")


if __name__ == "__main__":
    main()
