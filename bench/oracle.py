"""Correctness oracle: every response is compared with the reference forest.

The references (``Forest.raw_predict`` / ``Forest.predict``) are computed in
:mod:`bench.inputs` before anything is timed; comparisons run after the
request's closing timestamp. The harness counts attempts itself rather than
reading ``metrics_snapshot()["requests"]``, which ``InferenceSession.submit``
traffic never reaches.
"""

from __future__ import annotations

import numpy as np

#: (rtol, atol) against the reference forest; quantized kernels add their
#: own computed leaf-rounding bound (``lir.quant.tolerance()``) as ``atol``
TOLERANCES = {
    "float64": (1e-10, 1e-12),
    "float32": (3e-5, 1e-5),
    "int16": (1e-9, None),
    "int8": (1e-9, None),
}


def tolerance_for(predictor) -> tuple[float, float]:
    """The fuzzer's per-precision tolerance for ``predictor``'s schedule."""
    rtol, atol = TOLERANCES[predictor.schedule.precision]
    if atol is None:
        atol = predictor.lir.quant.tolerance()
    return rtol, atol


class Oracle:
    """Counts attempted and failed responses of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(
        self,
        got,
        want: np.ndarray,
        rtol: float = 1e-10,
        atol: float = 1e-12,
        responses: int = 1,
    ) -> int:
        """Compare ``responses`` stacked responses; returns how many failed.

        ``got`` and ``want`` hold the responses along axis 0, equally many
        rows each. A response fails when any of its values is off.
        """
        self.attempted += responses
        got = np.asarray(got)
        if got.shape != want.shape:
            self.failed += responses
            return responses
        close = np.isclose(got, want, rtol=rtol, atol=atol)
        per_response = close.reshape(responses, -1).all(axis=1)
        bad = int(responses - per_response.sum())
        self.failed += bad
        return bad

    def fail(self, responses: int = 1) -> None:
        """Responses that raised, timed out or were refused."""
        self.attempted += responses
        self.failed += responses

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
