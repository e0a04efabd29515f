"""Cross-backend differential sweep: both code generators vs the references.

The fuzzer (:mod:`repro.verify.fuzz`) and the cost-ranked sweep
(:mod:`repro.verify.sweep`) exercise the *default* backend, ``auto``. This
sweep closes the remaining gap: for each code generator ``auto`` resolves
to (``native`` and ``numpy_jit``) it compiles seeded forests across a
reduced Table-II schedule set with ``Schedule(backend=name, verify=True)``
and cross-checks the compiled
kernel against the reference interpreter and (at float64) the reference
``Forest`` over the adversarial input corpus. A (backend, schedule) pair the
backend reports :meth:`~repro.backend.registry.Backend.unavailable` — the
native walker under a quantized precision, or on a machine without a C
compiler — is skipped and counted, not failed.

Every compiled predictor is additionally round-tripped through both stores
of its image: a temporary artifact directory
(:func:`repro.backend.aot.load_artifact`) and shared memory
(:func:`repro.backend.shm.attach_shared`). Each rebuilt executor's raw
margins must be **bitwise equal** to the in-process kernel's, and its
fingerprint and ``backend_name`` the same — the rebuild binds the same
source (NumPy kernel or native stub) to the same buffers, so any
difference at all is a serialization bug, not noise.

``BACKEND_SWEEP_CONFIG`` is the checked-in configuration of the PR6
campaign; the same parameters re-run via ``python -m repro.verify
--backends`` (or directly through :func:`run_backend_sweep`). The campaign
this configuration describes ran clean — see DESIGN.md ("Cross-backend
equivalence") for the recorded totals.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.config import Schedule
from repro.errors import ReproError
from repro.verify.fuzz import (
    _max_abs_err,
    adversarial_batches,
    compare_case,
    random_fuzz_forest,
)

#: the PR6 sweep campaign: three seeds x three forest shapes x six schedule
#: points x both code generators x the full adversarial corpus, each
#: round-tripped through an artifact and shared memory
BACKEND_SWEEP_CONFIG = {
    "seeds": (0, 1, 2),
    # ``auto`` only resolves to one of these; the fuzz phase runs it
    "backends": ("native", "numpy_jit"),
    "precisions": None,  # None = each schedule point's own precision
}

#: reduced Table-II schedule set: the paper default, the scalar baseline,
#: and the corners that stress distinct codegen paths (array layout +
#: float32, hybrid tiling, the widened interleave-2 loop, one-row loop
#: order)
_SWEEP_SCHEDULES = (
    {},
    {"tile_size": 1, "tiling": "basic", "pad_and_unroll": False,
     "peel_walk": False, "interleave": 1, "layout": "array"},
    {"tile_size": 4, "layout": "array", "precision": "float32"},
    {"tiling": "hybrid", "alpha": 0.075},
    {"interleave": 2},
    {"loop_order": "one-row", "tile_size": 2},
)


def _sweep_forests(rng: np.random.Generator) -> list[tuple[str, object]]:
    return [
        ("regression", random_fuzz_forest(rng, num_trees=8, max_depth=6)),
        (
            "multiclass",
            random_fuzz_forest(rng, num_trees=6, max_depth=4, num_classes=3),
        ),
        ("degenerate", random_fuzz_forest(rng, num_trees=3, max_depth=1)),
    ]


def compare_backend_case(forest, schedule: Schedule, rows: np.ndarray):
    """Cross-check one (forest, schedule, rows) triple under its backend.

    Runs :func:`~repro.verify.fuzz.compare_case` (kernel vs interpreter vs
    reference forest), then rebuilds the compiled executor from both stores
    of its image — an artifact directory and shared memory — requiring
    bitwise-equal margins, the same fingerprint and the same
    ``backend_name``. Returns ``None`` on agreement, else
    ``(stage, max_abs_err)`` with stage ``"compile"``, ``"interpreter"``,
    ``"forest"``, ``"artifact"`` or ``"shm"`` (``max_abs_err`` is NaN when
    the margins agree but the identity does not).
    """
    outcome = compare_case(forest, schedule, rows)
    if outcome is not None:
        return outcome
    from repro.api import compile_model
    from repro.backend.aot import export_artifact, load_artifact
    from repro.backend.shm import attach_shared, export_shared

    with np.errstate(over="ignore"):
        predictor = compile_model(forest, schedule)
        want = predictor.raw_predict(rows)
        with tempfile.TemporaryDirectory(prefix="repro-backend-sweep-") as td:
            export_artifact(predictor, f"{td}/artifact", overwrite=True)
            loaded = load_artifact(f"{td}/artifact")
            outcome = _rebuilt_mismatch("artifact", predictor, loaded, rows, want)
        if outcome is not None:
            return outcome
        with export_shared(predictor) as handle:
            attached = attach_shared(handle.manifest)
            try:
                return _rebuilt_mismatch("shm", predictor, attached, rows, want)
            finally:
                attached.close()


def _rebuilt_mismatch(stage, predictor, rebuilt, rows, want):
    got = rebuilt.raw_predict(rows)
    if not np.array_equal(want, got, equal_nan=True):
        return (stage, _max_abs_err(got, want))
    if (rebuilt.fingerprint, rebuilt.backend_name) != (
        predictor.fingerprint, predictor.backend_name
    ):
        return (stage, float("nan"))
    return None


def run_backend_sweep(
    seeds: tuple[int, ...] = BACKEND_SWEEP_CONFIG["seeds"],
    backends: tuple[str, ...] = BACKEND_SWEEP_CONFIG["backends"],
    precisions: tuple[str, ...] | None = BACKEND_SWEEP_CONFIG["precisions"],
    log=None,
) -> tuple[int, int]:
    """Differential-check every backend across seeds and schedules.

    ``precisions`` pins the sweep to the given precision axis — every
    schedule point runs once per precision (overriding the point's own
    ``precision`` field), which is how ``python -m repro.verify --backends
    --precision int8`` re-runs the whole matrix under quantized kernels.
    ``None`` keeps each point's built-in precision.

    Returns ``(comparisons, failures)``. Each failure is logged via
    ``log`` (a ``print``-like callable) with enough context to rebuild the
    case deterministically from its seed.
    """
    from repro.backend.registry import get_backend

    names = tuple(backends)
    comparisons = 0
    failures = 0
    skipped: dict[str, int] = {}
    for seed in seeds:
        rng = np.random.default_rng([seed, 0xBA])
        for fname, forest in _sweep_forests(rng):
            for overrides in _SWEEP_SCHEDULES:
                for backend in names:
                    base = Schedule(**overrides).with_(
                        backend=backend, verify=True
                    )
                    points = (
                        [base.with_(precision=p) for p in precisions]
                        if precisions
                        else [base]
                    )
                    for schedule in points:
                        if get_backend(backend).unavailable(schedule) is not None:
                            skipped[backend] = skipped.get(backend, 0) + 1
                            continue
                        for label, rows in adversarial_batches(
                            forest, rng, precision=schedule.precision
                        ):
                            comparisons += 1
                            try:
                                outcome = compare_backend_case(
                                    forest, schedule, rows
                                )
                            except ReproError as exc:
                                outcome = ("compile", float("nan"))
                                if log:
                                    log(f"  compile raised: {exc}")
                            if outcome is not None:
                                failures += 1
                                if log:
                                    stage, err = outcome
                                    log(
                                        f"BACKEND FAIL seed={seed} [{fname}] "
                                        f"backend={backend} batch={label} "
                                        f"stage={stage} max|err|={err:.3e} "
                                        f"schedule={schedule.to_dict()}"
                                    )
    if log:
        log(
            f"backend sweep: {comparisons} comparisons over "
            f"{len(seeds)} seeds x {len(names)} backends "
            f"({', '.join(names)}), {failures} failures"
            + "".join(
                f", {n} {name} compiles skipped (unavailable)"
                for name, n in sorted(skipped.items())
            )
        )
    return comparisons, failures
