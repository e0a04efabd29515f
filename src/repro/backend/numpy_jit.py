"""The NumPy backend: NumPy source emission + in-process ``compile()``.

Emit one vector statement per LIR walk op (:mod:`repro.backend.codegen`),
compile it through the bounded code cache (:mod:`repro.backend.jit`) and
wrap the kernel in a :class:`~repro.backend.predictor.Predictor`. Its source
is byte-identical to the pipeline that predates the
:class:`~repro.backend.registry.Backend` interface (the registry tests pin
this); ``auto`` falls back to it wherever the native walker cannot build.
"""

from __future__ import annotations

from repro.backend.predictor import Predictor
from repro.backend.registry import Backend


class NumpyJitBackend(Backend):
    """Emit NumPy source for the LIR and JIT it with ``compile()``."""

    name = "numpy_jit"

    def build(self, forest, lir, *, validate_inputs=True, trace=None) -> Predictor:
        return Predictor(forest, lir, validate_inputs=validate_inputs, trace=trace)
