"""The code-generation backends and the one place the default is resolved.

The lowering pipeline (HIR → MIR → LIR) is backend-agnostic; what turns a
lowered :class:`~repro.lir.ir.LIRModule` into an executor is a
:class:`Backend` (the interface-first split of "Composable and Modular
Code Generation in MLIR"). The set is closed: :data:`repro.config.BACKENDS`
names it and ``Schedule`` refuses any other name.

* ``"native"`` (:mod:`repro.backend.native`) — one generic C tile walker,
  built once per machine with ``gcc``; float64/float32 tiled traversal.
* ``"numpy_jit"`` (:mod:`repro.backend.numpy_jit`) — NumPy source,
  ``compile()``d in-process; every schedule, no toolchain.
* ``"auto"`` (:data:`DEFAULT_BACKEND`) — not a code generator:
  :func:`resolve_backend` picks ``native`` where it can build the schedule,
  ``numpy_jit`` otherwise, and records each fallback with its reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import BACKENDS
from repro.errors import BackendError
from repro.observe import events as flight
from repro.observe import registry as observe_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.forest.ensemble import Forest
    from repro.lir.ir import LIRModule
    from repro.observe.trace import CompilationTrace

#: what ``Schedule().backend`` holds: "let :func:`resolve_backend` choose"
DEFAULT_BACKEND = "auto"


class Backend:
    """Interface one code-generation target implements.

    A backend receives the *fully lowered* module — every schedule decision
    (tiling, layout, interleave, precision) is already baked into the
    LIR — and returns an executor with the
    :class:`~repro.backend.predictor.Predictor` surface: ``raw_predict`` /
    ``predict`` with an optional ``threads`` override, ``schedule``,
    ``fingerprint``, ``memory_bytes``. Backends must be stateless and
    thread-safe: one instance serves every compile in the process.
    """

    #: the backend's name in :data:`repro.config.BACKENDS`
    name: str = ""

    def build(
        self,
        forest: "Forest",
        lir: "LIRModule",
        *,
        validate_inputs: bool = True,
        trace: "CompilationTrace | None" = None,
    ):
        """Turn ``lir`` into an executor; must not mutate the module."""
        raise NotImplementedError

    def unavailable(self, schedule, stats: dict | None = None) -> str | None:
        """Why this backend cannot build ``schedule`` here (``None``: it can).

        ``stats`` is the compile-trace span the check may annotate (what a
        first-use toolchain build cost, say)."""
        return None


#: name -> instance; built on first use, because the modules defining the
#: built-ins import :class:`Backend` from here
_BACKENDS: dict[str, Backend] | None = None


def get_backend(name: str) -> Backend:
    """The :class:`Backend` instance named ``name``.

    Unknown names raise :class:`~repro.errors.BackendError` listing
    :data:`repro.config.BACKENDS`.
    """
    global _BACKENDS
    if _BACKENDS is None:
        from repro.backend.native import NativeBackend
        from repro.backend.numpy_jit import NumpyJitBackend

        # one assignment: a concurrent caller sees no table or all of it
        _BACKENDS = {
            b.name: b for b in (_AutoBackend(), NativeBackend(), NumpyJitBackend())
        }
    backend = _BACKENDS.get(name)
    if backend is None:
        raise BackendError(f"unknown backend {name!r}: backends are {list(BACKENDS)}")
    return backend


def resolve_backend(schedule, stats: dict | None = None) -> Backend:
    """The concrete backend that builds ``schedule`` — the one place the
    default is decided.

    A named backend resolves to itself, or raises
    :class:`~repro.errors.BackendError` when it reports the schedule
    :meth:`~Backend.unavailable`. The default (``"auto"``) is ``native``
    when that backend is available — a C toolchain that built the walker,
    a schedule the walker covers — and ``numpy_jit`` otherwise; each
    fallback is a ``fallbacks`` backend event, a ``backend_fallback``
    flight event and a ``fallback`` entry in ``stats``, all carrying the
    reason. ``stats`` also receives the resolved ``backend`` name.
    """
    backend = get_backend(schedule.backend)
    if backend.name != DEFAULT_BACKEND:
        reason = backend.unavailable(schedule, stats)
        if reason is not None:
            raise BackendError(
                f"backend {backend.name!r} cannot build this schedule: {reason}"
            )
    else:
        backend = get_backend("native")
        reason = backend.unavailable(schedule, stats)
        if reason is not None:
            backend = get_backend("numpy_jit")
            observe_registry.record_backend_event("native", "fallbacks")
            flight.record(
                "backend_fallback", wanted="native", backend=backend.name, reason=reason
            )
            if stats is not None:
                stats["fallback"] = reason
    if stats is not None:
        stats["backend"] = backend.name
    return backend


class _AutoBackend(Backend):
    """``Schedule().backend``: builds through whatever
    :func:`resolve_backend` picks for the module's schedule."""

    name = DEFAULT_BACKEND

    def build(self, forest, lir, *, validate_inputs=True, trace=None):
        return resolve_backend(lir.schedule).build(
            forest, lir, validate_inputs=validate_inputs, trace=trace
        )
