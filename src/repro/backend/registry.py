"""The retargetable backend registry.

The lowering pipeline (HIR → MIR → LIR) is backend-agnostic; what turns a
lowered :class:`~repro.lir.ir.LIRModule` into something executable is a
:class:`Backend`. This module is the seam between the two: a process-wide
name → backend registry that :func:`repro.api.compile_model` resolves
through ``Schedule(backend=...)``, so the final emission step is swappable
without touching any lowering code (the interface-first decomposition of
"Composable and Modular Code Generation in MLIR", and the registered-
backend idiom of gt4py / slope).

Built-in backends:

* ``"native"`` (:mod:`repro.backend.native`) — walk the tiles in one
  generic C function, built once per machine with ``gcc`` and cached; a
  request is one foreign call. Covers the tiled traversal at float64 and
  float32.
* ``"numpy_jit"`` (:mod:`repro.backend.numpy_jit`) — emit NumPy source,
  ``compile()`` it in-process. Covers every schedule; needs no toolchain.
* ``"auto"`` (:data:`DEFAULT_BACKEND`, what ``Schedule()`` carries) — not a
  code generator: :func:`resolve_backend` picks ``native`` when this
  machine can build it and the walker covers the schedule, ``numpy_jit``
  otherwise, and records every such fallback with its reason.

Whichever backend built it, a compiled predictor exports to an AOT
artifact (:mod:`repro.backend.aot`).

Third parties register their own with the decorator idiom::

    @register_backend
    class NumbaBackend(Backend):
        name = "numba"
        def build(self, forest, lir, *, validate_inputs=True, trace=None):
            ...

Names are unique — duplicate registration raises
:class:`~repro.errors.BackendError` (use :func:`unregister_backend` first
to replace one, e.g. in tests).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

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

    #: unique registry name; subclasses must override.
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

    def describe(self) -> dict:
        """Registry metadata (stable keys: name, class)."""
        return {
            "name": self.name,
            "class": f"{type(self).__module__}.{type(self).__qualname__}",
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_LOCK = threading.Lock()
_BACKENDS: dict[str, Backend] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import (and thereby register) the built-in backends, once.

    Deferred so that ``import repro.config`` stays cheap and the registry
    module itself has no import cycle with the modules that define the
    built-ins (they import ``register_backend`` from here).
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _LOCK:
        if _builtins_loaded:
            return
        # Mark first: the imports below construct Schedule objects in
        # docstring-free module scope only, but predictors built during
        # registration of *future* builtins must not recurse here.
        _builtins_loaded = True
    import repro.backend.native  # noqa: F401  (registers "native")
    import repro.backend.numpy_jit  # noqa: F401  (registers "numpy_jit")

    register_backend(_AutoBackend)


def register_backend(backend):
    """Register a backend instance or :class:`Backend` subclass.

    Usable as a decorator on a class (it is instantiated once) or called
    with an instance. The backend's ``name`` must be non-empty and unused;
    duplicates raise :class:`~repro.errors.BackendError`. Returns the
    argument unchanged so the decorator form is transparent.
    """
    instance = backend() if isinstance(backend, type) else backend
    if not isinstance(instance, Backend):
        raise BackendError(
            f"backend must subclass repro.backend.registry.Backend, "
            f"got {type(instance).__name__}"
        )
    name = instance.name
    if not isinstance(name, str) or not name:
        raise BackendError(
            f"backend {type(instance).__name__} has no name: set a "
            f"non-empty class attribute `name`"
        )
    with _LOCK:
        if name in _BACKENDS:
            raise BackendError(
                f"backend {name!r} is already registered "
                f"({_BACKENDS[name]!r}); unregister_backend({name!r}) first "
                f"to replace it"
            )
        _BACKENDS[name] = instance
    return backend


def unregister_backend(name: str) -> bool:
    """Remove one registered backend; returns whether it was present.

    Built-ins can be unregistered too (tests do); re-importing does not
    re-register them — construct and register a fresh instance instead.
    """
    _ensure_builtins()
    with _LOCK:
        return _BACKENDS.pop(name, None) is not None


def get_backend(name: str) -> Backend:
    """Resolve ``name`` to its registered :class:`Backend` instance.

    Unknown names raise :class:`~repro.errors.BackendError` listing every
    registered backend, so a typo in ``Schedule(backend=...)`` is
    diagnosable from the message alone.
    """
    _ensure_builtins()
    with _LOCK:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise BackendError(
            f"unknown backend {name!r}: registered backends are "
            f"{list_backends()}"
        )
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


def require_backend(name: str) -> None:
    """Raise :class:`~repro.errors.BackendError` unless ``name`` resolves."""
    get_backend(name)


def list_backends() -> list[str]:
    """Sorted names of every registered backend (built-ins included)."""
    _ensure_builtins()
    with _LOCK:
        return sorted(_BACKENDS)


def describe_backends() -> dict[str, dict]:
    """``{name: backend.describe()}`` for every registered backend."""
    _ensure_builtins()
    with _LOCK:
        backends = dict(_BACKENDS)
    return {name: backends[name].describe() for name in sorted(backends)}


def temporary_backend(backend) -> "_TemporaryBackend":
    """Context manager registering ``backend`` for the enclosed block only.

    Test/plugin convenience::

        with temporary_backend(MyBackend()):
            compile_model(forest, Schedule(backend="mine"))
    """
    return _TemporaryBackend(backend)


class _TemporaryBackend:
    def __init__(self, backend) -> None:
        self._backend = backend() if isinstance(backend, type) else backend

    def __enter__(self) -> Backend:
        register_backend(self._backend)
        return self._backend

    def __exit__(self, *exc_info) -> None:
        unregister_backend(self._backend.name)
