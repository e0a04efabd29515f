"""Command-line driver for the verifier and the differential fuzzer.

Usage::

    python -m repro.verify                 # full run: grid + 200 fuzz cases
    python -m repro.verify --smoke         # CI smoke: small grid + 40 cases
    python -m repro.verify --cases 1000    # longer fuzz campaign
    python -m repro.verify --seed 7 --out repros/

Two phases, both deterministic in ``--seed``:

1. **Grid verification** — compile fixed seeded forests (regression,
   multiclass, degenerate) across the Table-II schedule grid at every
   precision (including the quantized int16/int8 modes) with
   ``Schedule(verify=True)``, so every structural verifier
   runs on every configuration, and cross-check one batch per compile
   against the reference interpreter.
2. **Differential fuzzing** — :func:`repro.verify.run_fuzz` with the
   adversarial input corpus; failures are minimized and dumped as JSON
   under ``--out`` (exit code 1). With ``--backends`` the cases run once per
   kernel backend: the default (native where this machine builds it) and
   ``numpy_jit``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.backend.registry import DEFAULT_BACKEND, get_backend
from repro.config import PRECISIONS, Schedule
from repro.errors import ReproError
from repro.verify import FuzzConfig, run_fuzz
from repro.verify.fuzz import compare_case, random_fuzz_forest

#: the Table-II axes swept by the grid phase (full / smoke variants)
_FULL_GRID = {
    "tile_sizes": (1, 2, 4, 8),
    "tilings": ("basic", "probability", "hybrid"),
    "layouts": ("array", "sparse"),
    "precisions": ("float64", "float32", "int16", "int8"),
}
_SMOKE_GRID = {
    "tile_sizes": (1, 4),
    "tilings": ("basic", "hybrid"),
    "layouts": ("array", "sparse"),
    "precisions": ("float64", "float32", "int8"),
}


def _grid_schedules(grid: dict) -> list[Schedule]:
    schedules = []
    for tile_size in grid["tile_sizes"]:
        for tiling in grid["tilings"]:
            for layout in grid["layouts"]:
                for precision in grid["precisions"]:
                    for opt in (False, True):
                        schedules.append(
                            Schedule(
                                tile_size=tile_size,
                                tiling=tiling,
                                layout=layout,
                                precision=precision,
                                interleave=4 if opt else 1,
                                peel_walk=opt,
                                pad_and_unroll=opt,
                                verify=True,
                            )
                        )
    return schedules


def _grid_forests(seed: int) -> list[tuple[str, object]]:
    rng = np.random.default_rng([seed, 0xF0])
    return [
        ("regression", random_fuzz_forest(rng, num_trees=8, max_depth=6)),
        (
            "multiclass",
            random_fuzz_forest(rng, num_trees=6, max_depth=4, num_classes=3),
        ),
        ("degenerate", random_fuzz_forest(rng, num_trees=3, max_depth=1)),
    ]


def run_grid(seed: int, smoke: bool, log=print) -> int:
    """Verify + differential-check the schedule grid; returns failure count."""
    grid = _SMOKE_GRID if smoke else _FULL_GRID
    schedules = _grid_schedules(grid)
    forests = _grid_forests(seed)
    rng = np.random.default_rng([seed, 0xF1])
    failures = 0
    checked = 0
    for name, forest in forests:
        rows = rng.normal(size=(17, forest.num_features))
        for schedule in schedules:
            checked += 1
            try:
                outcome = compare_case(forest, schedule, rows)
            except ReproError as exc:
                log(f"GRID FAIL [{name}] {schedule}: {exc}")
                failures += 1
                continue
            if outcome is not None:
                stage, err = outcome
                log(
                    f"GRID FAIL [{name}] tile={schedule.tile_size} "
                    f"{schedule.tiling}/{schedule.layout}/{schedule.precision}: "
                    f"stage={stage} max|err|={err:.3e}"
                )
                failures += 1
    log(
        f"grid: {checked} verified compiles across {len(schedules)} schedules "
        f"x {len(forests)} forests, {failures} failures"
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--cases", type=int, default=200, help="fuzz cases (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="top-level seed (default 0)")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke budget: reduced grid and 40 fuzz cases (unless --cases is given)",
    )
    parser.add_argument(
        "--out",
        default="verify-artifacts",
        help="directory for minimized repro JSON dumps (default: verify-artifacts)",
    )
    parser.add_argument(
        "--no-grid", action="store_true", help="skip the grid-verification phase"
    )
    parser.add_argument(
        "--cost-ranked",
        action="store_true",
        help="also sweep the top cost-ranked schedules of the extended grid "
        "(the candidates the budgeted tuner compiles first)",
    )
    parser.add_argument(
        "--backends",
        action="store_true",
        help="also cross-check every registered code-generation backend "
        "against the interpreter, each with an artifact round-trip",
    )
    parser.add_argument(
        "--precision",
        action="append",
        choices=PRECISIONS,
        help="pin the --backends sweep to this precision (repeatable; e.g. "
        "--precision int16 --precision int8 re-runs the backend matrix "
        "under the quantized kernels)",
    )
    parser.add_argument(
        "--no-minimize", action="store_true", help="report failures without shrinking"
    )
    args = parser.parse_args(argv)

    cases = args.cases
    if args.smoke and "--cases" not in (argv if argv is not None else sys.argv):
        cases = 40

    started = time.perf_counter()
    grid_failures = 0
    if not args.no_grid:
        grid_failures = run_grid(args.seed, smoke=args.smoke)
    if args.cost_ranked:
        from repro.verify.sweep import SWEEP_CONFIG, run_cost_ranked_sweep

        top_k = 4 if args.smoke else SWEEP_CONFIG["top_k"]
        _, sweep_failures = run_cost_ranked_sweep(
            seeds=(args.seed,), top_k=top_k, log=print
        )
        grid_failures += sweep_failures
    if args.backends:
        from repro.verify.backends import run_backend_sweep

        _, backend_failures = run_backend_sweep(
            seeds=(args.seed,),
            precisions=tuple(args.precision) if args.precision else None,
            log=print,
        )
        grid_failures += backend_failures

    # The fuzz phase runs on the default backend; with --backends, where
    # that default resolves covered cases to the native walker, the same
    # cases run again on the NumPy emitter they would otherwise never reach.
    fuzz_backends = [DEFAULT_BACKEND]
    if args.backends and get_backend("native").unavailable(Schedule()) is None:
        fuzz_backends.append("numpy_jit")
    fuzz_failures = 0
    for backend in fuzz_backends:
        config = FuzzConfig(
            cases=cases,
            seed=args.seed,
            backend=backend,
            minimize=not args.no_minimize,
            out_dir=args.out,
        )
        report = run_fuzz(config, log=print)
        print(report.summary())
        fuzz_failures += len(report.failures)
    elapsed = time.perf_counter() - started
    total = grid_failures + fuzz_failures
    print(f"verify: {'OK' if total == 0 else 'FAILED'} in {elapsed:.1f}s")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
