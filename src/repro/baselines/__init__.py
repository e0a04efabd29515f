"""Reimplementations of the systems the paper compares against.

Each baseline implements the same strategy as its namesake so the *relative*
performance picture of Section VI can be reproduced without the original
closed/native dependencies:

* :class:`ScalarReferencePredictor` — naive per-row binary tree walk.
* :class:`XGBoostV15Predictor` — one-tree-at-a-time vectorized traversal
  over flat node arrays (the loop order XGBoost switched to in v1.5).
* :class:`XGBoostV09Predictor` — the older one-row-at-a-time order.
* :class:`TreelitePredictor` — per-tree nested if-else code generation
  (aggressive expansion; large instruction footprint).
* :class:`HummingbirdGEMMPredictor` — the tensor (GEMM) strategy: inference
  as matrix products, doing O(#nodes) work per row regardless of path.

All expose ``raw_predict(rows)`` with the same semantics as
``Forest.raw_predict`` and are verified against it in the tests.
"""

from repro.baselines.hummingbird_like import HummingbirdGEMMPredictor
from repro.baselines.scalar import ScalarReferencePredictor
from repro.baselines.treelite_like import TreelitePredictor
from repro.baselines.xgboost_like import XGBoostV09Predictor, XGBoostV15Predictor

__all__ = [
    "HummingbirdGEMMPredictor",
    "ScalarReferencePredictor",
    "TreelitePredictor",
    "XGBoostV09Predictor",
    "XGBoostV15Predictor",
]
