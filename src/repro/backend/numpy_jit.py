"""The default backend: NumPy source emission + in-process ``compile()``.

This is the pre-registry code path verbatim, packaged behind the
:class:`~repro.backend.registry.Backend` interface: emit one vector
statement per LIR walk op (:mod:`repro.backend.codegen`), compile the
source through the bounded code cache (:mod:`repro.backend.jit`), and wrap
the kernel in a :class:`~repro.backend.predictor.Predictor`. Registering it
changes nothing observable — generated source and runtime behavior are
byte-identical to the hardwired pipeline it replaced (the registry tests
pin this).
"""

from __future__ import annotations

from repro.backend.predictor import Predictor
from repro.backend.registry import Backend, register_backend


@register_backend
class NumpyJitBackend(Backend):
    """Emit NumPy source for the LIR and JIT it with ``compile()``."""

    name = "numpy_jit"

    def build(self, forest, lir, *, validate_inputs=True, trace=None) -> Predictor:
        return Predictor(forest, lir, validate_inputs=validate_inputs, trace=trace)
