"""Seeded inputs and their reference outputs.

The forests are part of each workload's definition, the way input programs
are part of a compiler benchmark: they are trained once with ``MODEL_SEED``
(and cached by ``repro.datasets.registry`` under ``.bench_cache/``), so
exact-count metrics such as ``model_bytes`` mean the same thing on every
run. ``--seed`` draws what varies between runs: the request rows, the row
pools and the arrival schedule. Everything here happens once, up front,
outside every timed region and outside ``setup_s``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend.jit import model_fingerprint
from repro.datasets.registry import fresh_rows, load_benchmark_model
from repro.forest.ensemble import Forest

MODEL_SEED = 0

#: model key -> (Table-I dataset, scale). The two ``*_small`` forests keep
#: one ``compile_cold`` sweep (8 cold compiles) near 2 s, so that a run
#: holds several sweeps.
MODELS: dict[str, tuple[str, float]] = {
    "higgs": ("higgs", 1.0),
    "abalone": ("abalone", 0.25),
    "letter": ("letter", 0.1),
    "year": ("year", 0.5),
    "higgs_small": ("higgs", 0.3),
    "letter_small": ("letter", 0.03),
}


@dataclass
class Inputs:
    """Forests, request rows and reference outputs of one workload run."""

    seed: int
    forests: dict[str, Forest] = field(default_factory=dict)
    #: model key -> list of row sets (each a C-contiguous float64 matrix)
    rows: dict[str, list[np.ndarray]] = field(default_factory=dict)
    #: model key -> per row set, ``Forest.raw_predict`` margins
    raw: dict[str, list[np.ndarray]] = field(default_factory=dict)
    #: model key -> per row set, ``Forest.predict`` (objective-transformed)
    predicted: dict[str, list[np.ndarray]] = field(default_factory=dict)
    gen_seconds: float = 0.0

    def sha256(self) -> str:
        """Digest of forest fingerprints and row pools: equal seeds must
        give equal digests, different seeds different ones."""
        digest = hashlib.sha256()
        for key in sorted(self.forests):
            digest.update(key.encode())
            digest.update(model_fingerprint(self.forests[key]).encode())
            for block in self.rows[key]:
                digest.update(np.ascontiguousarray(block).tobytes())
        return digest.hexdigest()


def make_inputs(
    seed: int,
    models: dict[str, tuple[int, int]],
    *,
    float32_exact: bool = False,
) -> Inputs:
    """Build the inputs of one run.

    ``models`` maps a key of :data:`MODELS` to ``(row_sets, rows_per_set)``.
    ``float32_exact`` rounds the rows through float32 first, so a float32
    kernel sees exactly the values the float64 reference sees and no row
    sits between a threshold and its rounding.
    """
    start = time.perf_counter()
    inputs = Inputs(seed=seed)
    for key, (sets, per_set) in sorted(models.items()):
        dataset, scale = MODELS[key]
        # the salt belongs to the model, not to the workload, so two
        # workloads that name the same model and shape get the same rows
        salt = list(MODELS).index(key)
        forest, _train = load_benchmark_model(dataset, scale=scale, seed=MODEL_SEED)
        block = fresh_rows(dataset, sets * per_set, seed=seed * 1009 + 17 + salt)
        if float32_exact:
            block = block.astype(np.float32).astype(np.float64)
        inputs.forests[key] = forest
        inputs.rows[key] = [
            np.ascontiguousarray(block[i * per_set : (i + 1) * per_set])
            for i in range(sets)
        ]
        raw = forest.raw_predict(block)
        predicted = forest.predict(block)
        inputs.raw[key] = [raw[i * per_set : (i + 1) * per_set] for i in range(sets)]
        inputs.predicted[key] = [
            predicted[i * per_set : (i + 1) * per_set] for i in range(sets)
        ]
    inputs.gen_seconds = time.perf_counter() - start
    return inputs
