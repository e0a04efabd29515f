"""Quickstart: train a model, compile it, and run batch inference.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import GBDTParams, Schedule, compile_model, train_gbdt
from repro.forest import populate_node_probabilities


def main() -> None:
    # 1. Train a gradient-boosted model (or load one: repro.forest has
    #    importers for XGBoost JSON dumps, LightGBM text models, and
    #    sklearn-style arrays — see examples/model_zoo_import.py).
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 16))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + (X[:, 2] > 0) * X[:, 3]
    forest = train_gbdt(X, y, GBDTParams(num_rounds=100, max_depth=6))
    print(f"trained: {forest}")

    # 2. Populate leaf statistics (enables probability-based tiling).
    populate_node_probabilities(forest, X)

    # 3. Compile. The default schedule is the paper's strong configuration:
    #    tile size 8, hybrid tiling, padding+unrolling, walk interleaving,
    #    sparse in-memory layout.
    predictor = compile_model(forest, Schedule(tile_size=8, interleave=16))
    print(
        f"compiled on the {predictor.backend_name!r} backend: "
        f"{predictor.memory_bytes()} bytes of model buffers"
    )

    # 4. Predict a batch.
    batch = rng.normal(size=(1024, 16))
    predictions = predictor.predict(batch)
    print(f"predictions: shape={predictions.shape}, first 4 = {predictions[:4].round(4)}")

    # 5. The compiled function is numerically identical to the reference
    #    tree-by-tree traversal.
    reference = forest.predict(batch)
    assert np.allclose(predictions, reference, rtol=1e-12)
    print("matches the reference traversal exactly")

    # 6. Peek at what the compiler built.
    print("\n--- IR summary ---")
    print(predictor.dump_ir())
    print("\n--- first lines of the generated kernel ---")
    print("\n".join(predictor.generated_source.splitlines()[:16]))


if __name__ == "__main__":
    main()
