"""Seeded differential fuzzing of the compilation pipeline.

Each fuzz case samples a random forest, a random point of the Table-II
schedule grid (all four precisions including the quantized int16/int8
modes, both layouts, the interleave/peel/pad axes, row blocking, parallel
degree) and compiles it with ``Schedule(verify=True)`` so every
structural verifier runs. The
compiled kernel is then driven with a corpus of adversarial batches —
±inf features, values exactly equal to thresholds, float32 boundary
values, denormals, empty/1-row/large batches, non-contiguous and
wrong-dtype rows — and compared against the reference interpreter
(:func:`repro.backend.interpreter.interpret_lir`) and the reference
:class:`~repro.forest.ensemble.Forest` (at float32, on the float32-rounded
rows: routing is exact there, so only leaf rounding separates the two).

On a mismatch the failing case is shrunk by :func:`minimize_case` — rows
first, then trees, then schedule knobs toward the scalar baseline — and
the minimal repro (forest, schedule, rows, error) is dumped as JSON.

Everything is deterministic in the top-level seed: case ``i`` of seed
``s`` always generates the same forest, schedule and batches.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.backend.registry import DEFAULT_BACKEND
from repro.config import Schedule
from repro.errors import ReproError
from repro.forest.builder import TreeBuilder
from repro.forest.ensemble import Forest

#: absolute/relative tolerances per precision *against the interpreter*.
#: float64 kernels differ from the interpreter only by accumulation order;
#: float32 kernels chunk-sum in float32 (matmul), so boundary rounding of
#: ~2e-5 relative is expected. Quantized kernels and the interpreter both
#: accumulate integer leaf codes and rescale once, so they agree bit for
#: bit — the float64 tolerance applies. (Against the reference *forest*,
#: quantized output error is bounded by ``QuantizationSpec.tolerance``.)
_TOLERANCES = {
    "float64": (1e-10, 1e-12),
    "float32": (3e-5, 1e-5),
    "int16": (1e-10, 1e-12),
    "int8": (1e-10, 1e-12),
}

#: schedule-shrinking moves, applied in order while the failure persists —
#: each step toward the scalar baseline that keeps reproducing narrows the
#: blame to the knobs that remain.
_SCHEDULE_SIMPLIFICATIONS = (
    ("precision", "float64"),
    ("parallel", 1),
    ("row_block", 0),
    ("interleave", 1),
    ("pad_and_unroll", False),
    ("peel_walk", False),
    ("reorder", False),
    ("compact_walks", True),
    ("profile", False),
    ("pgo", None),
    ("tiling", "basic"),
    ("layout", "array"),
    ("tile_size", 1),
)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def random_fuzz_forest(
    rng: np.random.Generator,
    num_trees: int | None = None,
    max_depth: int | None = None,
    num_features: int = 6,
    num_classes: int = 1,
) -> Forest:
    """Sample a random forest biased toward verifier-hostile structure.

    Thresholds are drawn from a small shared pool (plus exact values like
    0.0), so duplicate thresholds within and across trees are common and
    "feature exactly equals a threshold" inputs are easy to construct.
    Degenerate single-leaf trees appear with small probability.
    """
    num_trees = int(num_trees if num_trees is not None else rng.integers(1, 7))
    max_depth = int(max_depth if max_depth is not None else rng.integers(1, 7))
    pool = np.concatenate(
        [np.round(rng.normal(size=6), 2), [0.0, 1.0, -0.5, 0.25]]
    )

    def grow(builder: TreeBuilder, parent, side, depth: int) -> None:
        if depth >= max_depth or (depth > 0 and rng.uniform() < 0.3):
            builder.leaf(float(rng.normal()), parent=parent, side=side)
            return
        node = builder.internal(
            int(rng.integers(num_features)),
            float(rng.choice(pool)),
            parent=parent,
            side=side,
        )
        grow(builder, node, "left", depth + 1)
        grow(builder, node, "right", depth + 1)

    trees = []
    for i in range(num_trees):
        builder = TreeBuilder()
        if rng.uniform() < 0.08:
            builder.leaf(float(rng.normal()))
        else:
            root = builder.internal(
                int(rng.integers(num_features)), float(rng.choice(pool))
            )
            grow(builder, root, "left", 1)
            grow(builder, root, "right", 1)
        tree = builder.build(tree_id=i)
        tree.class_id = i % num_classes if num_classes > 1 else 0
        trees.append(tree)
    objective = "multiclass" if num_classes > 1 else "regression"
    return Forest(
        trees,
        num_features=num_features,
        objective=objective,
        num_classes=num_classes,
        base_score=float(rng.normal() * 0.1),
    )


def sample_schedule(rng: np.random.Generator) -> Schedule:
    """One random point of the Table-II grid (verification always on)."""
    plain = bool(rng.integers(2))
    return Schedule(
        tile_size=int(rng.choice([1, 2, 4, 8])),
        tiling=str(rng.choice(["basic", "probability", "hybrid"])),
        loop_order=str(rng.choice(["one-tree", "one-row"])),
        pad_and_unroll=not plain and bool(rng.integers(2)),
        peel_walk=not plain,
        interleave=1 if plain else int(rng.choice([2, 4, 8])),
        layout=str(rng.choice(["array", "sparse"])),
        parallel=int(rng.choice([1, 1, 1, 2])),
        row_block=int(rng.choice([0, 0, 3, 17])),
        reorder=bool(rng.integers(2)),
        compact_walks=bool(rng.integers(2)),
        precision=str(
            rng.choice(["float64", "float64", "float32", "int16", "int8"])
        ),
        # Profiling instrumentation must be output-invariant too.
        profile=bool(rng.integers(4) == 0),
        # Hot/cold splitting must be output-invariant, so the fuzzer
        # samples it like any other knob; None dominates to keep the
        # baseline grid represented.
        pgo=[None, None, None, None, None, None, "auto", 1, 2][
            int(rng.integers(9))
        ],
        verify=True,
    )


def adversarial_batches(
    forest: Forest, rng: np.random.Generator, precision: str = "float64"
) -> list[tuple[str, np.ndarray]]:
    """The adversarial input corpus for one forest.

    Returns ``(label, rows)`` pairs. Labels name the hostile property so a
    failure report says *what kind* of input broke the kernel.
    """
    F = forest.num_features
    thr = np.concatenate(
        [t.threshold[t.internal_nodes()] for t in forest.trees]
        + [np.zeros(1)]  # degenerate all-leaf forests still get a pool
    )

    def from_pool(pool: np.ndarray, n: int) -> np.ndarray:
        return rng.choice(pool, size=(n, F))

    teq = from_pool(thr, 5)
    f32 = np.float32(thr).astype(np.float64)
    boundary = np.stack(
        [
            rng.choice(f32, size=F),
            np.nextafter(rng.choice(thr, size=F), np.inf),
            np.nextafter(rng.choice(thr, size=F), -np.inf),
            np.nextafter(np.float32(rng.choice(thr, size=F)), np.float32(np.inf)).astype(
                np.float64
            ),
        ]
    )
    inf_rows = rng.normal(size=(4, F))
    inf_rows[rng.uniform(size=(4, F)) < 0.35] = np.inf
    ninf_rows = rng.normal(size=(4, F))
    ninf_rows[rng.uniform(size=(4, F)) < 0.35] = -np.inf
    denormal_pool = np.array([5e-324, -5e-324, 1e-310, 1.4012984643e-45, 0.0])
    huge = rng.normal(size=(3, F))
    huge[rng.uniform(size=(3, F)) < 0.4] = 1e300
    huge[rng.uniform(size=(3, F)) < 0.2] = -1e300

    wide = rng.normal(size=(8, 2 * F))
    tall = rng.normal(size=(16, F))
    batches = [
        ("empty", np.empty((0, F))),
        ("one-row", rng.normal(size=(1, F))),
        ("threshold-equal", teq),
        ("float32-boundary", boundary),
        ("plus-inf", inf_rows),
        ("minus-inf", ninf_rows),
        ("denormal", from_pool(denormal_pool, 4)),
        ("huge-magnitude", huge),
        ("zeros", np.zeros((3, F))),
        ("large-batch", rng.normal(size=(257, F))),
        ("non-contiguous-cols", wide[:, ::2]),
        ("strided-rows", tall[::2]),
        ("fortran-order", np.asfortranarray(rng.normal(size=(6, F)))),
        (
            "wrong-dtype",
            rng.normal(size=(5, F)).astype(
                np.float64 if precision == "float32" else np.float32
            ),
        ),
    ]
    return batches


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def _as_margins(raw: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.asarray(raw, dtype=np.float64)
    return out.reshape(-1, 1) if num_classes == 1 and out.ndim == 1 else out


def _max_abs_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, np.float64).ravel(), np.asarray(b, np.float64).ravel()
    if not a.size:
        return 0.0
    same_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    diff = np.abs(a - b)
    diff[same_inf] = 0.0
    return float(np.nanmax(diff))


def compare_case(
    forest: Forest, schedule: Schedule, rows: np.ndarray
) -> tuple[str, float] | None:
    """Compile and cross-check one (forest, schedule, rows) triple.

    Returns ``None`` on agreement, else ``(stage, max_abs_err)`` where
    stage is ``"compile"`` (pipeline/verifier raised), ``"interpreter"``,
    ``"forest"`` or ``"argmax"`` (quantized multiclass case flipped a
    decided classification).
    """
    from repro.api import compile_model
    from repro.backend.interpreter import interpret_lir

    rtol, atol = _TOLERANCES[schedule.precision]
    # huge-magnitude float64 inputs overflow to ±inf when a float32 kernel
    # casts them — that is the scenario under test, not an error
    with np.errstate(over="ignore"):
        try:
            predictor = compile_model(forest, schedule)
            got = _as_margins(predictor.raw_predict(rows), forest.num_classes)
        except ReproError:
            return ("compile", float("nan"))
        want = _as_margins(interpret_lir(predictor.lir, rows), forest.num_classes)
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        return ("interpreter", _max_abs_err(got, want))
    quant = predictor.lir.quant
    if quant is None:
        # Float kernels route exactly: a float32 one rounds the rows to
        # float32 and routes them as the float64 model would, so feed the
        # forest the same rounded rows. A leaf's float32 rounding moves a
        # margin by at most eps32/2 of that leaf, so float32's bound adds
        # eps32 * sum over trees of max |leaf|.
        fdt = np.float32 if schedule.precision == "float32" else np.float64
        with np.errstate(over="ignore"):
            narrow = np.asarray(rows, dtype=fdt).astype(np.float64)
        ref = _as_margins(forest.raw_predict(narrow), forest.num_classes)
        leaf_bound = 0.0
        if fdt is np.float32:
            leaf_bound = float(np.finfo(fdt).eps) * sum(
                float(np.abs(t.value[t.leaves()]).max()) for t in forest.trees
            )
        if not np.allclose(got, ref, rtol=rtol, atol=atol + leaf_bound):
            return ("forest", _max_abs_err(got, ref))
    else:
        # Quantized routing is exact (rank codes preserve every float64
        # comparison); the only error source is fixed-point leaf rounding,
        # bounded by 0.5 * leaf_scale per tree.
        ref = _as_margins(
            forest.raw_predict(np.ascontiguousarray(rows, dtype=np.float64)),
            forest.num_classes,
        )
        tol = quant.tolerance()
        if not np.allclose(got, ref, rtol=1e-9, atol=tol):
            return ("forest", _max_abs_err(got, ref))
        if forest.num_classes > 1 and got.shape[0]:
            # Classification must agree wherever the reference margins are
            # decided by more than the worst-case rounding of two classes.
            top2 = np.sort(ref, axis=1)[:, -2:]
            decided = (top2[:, 1] - top2[:, 0]) > 2.0 * tol
            if (got.argmax(axis=1) != ref.argmax(axis=1))[decided].any():
                return ("argmax", _max_abs_err(got, ref))
    return None


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------

def minimize_case(
    forest: Forest,
    schedule: Schedule,
    rows: np.ndarray,
    check=None,
    budget: int = 80,
) -> tuple[Forest, Schedule, np.ndarray]:
    """Greedy shrink of a failing case to a minimal reproducer.

    ``check(forest, schedule, rows) -> bool`` must return True while the
    failure still reproduces (defaults to :func:`compare_case` returning a
    mismatch). Shrinks rows (halving, then single-row drops), then trees
    (single-tree drops), then schedule knobs toward the scalar baseline.
    ``budget`` caps the number of ``check`` invocations — minimization
    recompiles per attempt, so it is bounded, not exhaustive.
    """
    if check is None:
        def check(f, s, r):  # noqa: ANN001 - mirrors the documented signature
            return compare_case(f, s, r) is not None

    calls = 0

    def still_fails(f: Forest, s: Schedule, r: np.ndarray) -> bool:
        nonlocal calls
        if calls >= budget:
            return False
        calls += 1
        try:
            return bool(check(f, s, r))
        except ReproError:
            return True  # shrunk case fails harder; keep it

    # Rows: halve while possible, then drop single rows.
    changed = True
    while changed and rows.shape[0] > 1 and calls < budget:
        changed = False
        half = rows.shape[0] // 2
        for part in (rows[:half], rows[half:]):
            if part.shape[0] and still_fails(forest, schedule, part):
                rows, changed = part, True
                break
    i = 0
    while rows.shape[0] > 1 and i < rows.shape[0] and calls < budget:
        candidate = np.delete(rows, i, axis=0)
        if still_fails(forest, schedule, candidate):
            rows = candidate
        else:
            i += 1

    # Trees: drop one at a time while the failure persists.
    i = 0
    while forest.num_trees > 1 and i < forest.num_trees and calls < budget:
        kept = [t for j, t in enumerate(forest.trees) if j != i]
        candidate = Forest(
            kept,
            num_features=forest.num_features,
            objective=forest.objective,
            base_score=forest.base_score,
            num_classes=forest.num_classes,
        )
        if still_fails(candidate, schedule, rows):
            forest = candidate
        else:
            i += 1

    # Schedule: walk toward the scalar baseline one knob at a time.
    for name, value in _SCHEDULE_SIMPLIFICATIONS:
        if calls >= budget:
            break
        if getattr(schedule, name) == value:
            continue
        candidate = schedule.with_(**{name: value})
        if still_fails(forest, candidate, rows):
            schedule = candidate
    return forest, schedule, rows


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzz run (fully determined by ``seed``)."""

    cases: int = 200
    seed: int = 0
    num_features: int = 6
    max_trees: int = 6
    max_depth: int = 6
    #: ``Schedule.backend`` of every case: the default resolves covered
    #: schedules to the native walker where this machine builds it;
    #: ``"numpy_jit"`` fuzzes the NumPy emitter on the same cases
    backend: str = DEFAULT_BACKEND
    #: shrink failures into minimal repros (costs extra compiles)
    minimize: bool = True
    #: directory for minimized repro JSON dumps (None = don't write)
    out_dir: str | None = None


@dataclass
class FuzzFailure:
    """One divergence between the compiled kernel and a reference."""

    case: int
    stage: str            # "compile" | "interpreter" | "forest" | "argmax"
    batch: str            # adversarial-corpus label
    max_abs_err: float
    schedule: dict
    num_trees: int
    num_rows: int
    repro_path: str | None = None

    def describe(self) -> str:
        return (
            f"case {self.case} [{self.batch}] diverged at stage "
            f"{self.stage!r} (max |err| = {self.max_abs_err:.3e}, "
            f"{self.num_trees} trees, {self.num_rows} rows)"
        )


@dataclass
class FuzzReport:
    """Outcome of :func:`run_fuzz`."""

    cases: int
    comparisons: int
    seed: int
    failures: list[FuzzFailure] = field(default_factory=list)
    backend: str = DEFAULT_BACKEND

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"fuzz(seed={self.seed}, backend={self.backend}): {self.cases} cases, "
            f"{self.comparisons} comparisons, {len(self.failures)} failures"
        )
        return "\n".join([head] + [f"  {f.describe()}" for f in self.failures])


def _dump_repro(
    out_dir: str,
    case: int,
    forest: Forest,
    schedule: Schedule,
    rows: np.ndarray,
    failure: FuzzFailure,
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fuzz-repro-case{case}.json")
    payload = {
        "stage": failure.stage,
        "batch": failure.batch,
        "max_abs_err": failure.max_abs_err,
        "schedule": asdict(schedule),
        "rows": np.ascontiguousarray(rows, dtype=np.float64).tolist(),
        "forest": forest.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)  # allow_nan default: ±Infinity round-trips
    return path


def load_repro(path: str) -> tuple[Forest, Schedule, np.ndarray]:
    """Load a minimized repro dumped by :func:`run_fuzz`."""
    with open(path) as fh:
        payload = json.load(fh)
    forest = Forest.from_dict(payload["forest"])
    schedule = Schedule.from_dict(payload["schedule"])
    rows = np.asarray(payload["rows"], dtype=np.float64)
    return forest, schedule, rows


def run_fuzz(config: FuzzConfig | None = None, log=None) -> FuzzReport:
    """Run the differential fuzz loop; never raises on a mismatch.

    Every failing case is (optionally) minimized and recorded in the
    returned :class:`FuzzReport`; ``log`` (a ``print``-like callable) gets
    one line per failure and a progress line every 50 cases.
    """
    config = config or FuzzConfig()
    report = FuzzReport(
        cases=config.cases, comparisons=0, seed=config.seed, backend=config.backend
    )
    for case in range(config.cases):
        rng = np.random.default_rng([config.seed, case])
        num_classes = int(rng.choice([1, 1, 1, 3]))
        forest = random_fuzz_forest(
            rng,
            num_trees=int(rng.integers(1, config.max_trees + 1)),
            max_depth=int(rng.integers(1, config.max_depth + 1)),
            num_features=config.num_features,
            num_classes=num_classes,
        )
        schedule = sample_schedule(rng).with_(backend=config.backend)
        for label, rows in adversarial_batches(
            forest, rng, precision=schedule.precision
        ):
            report.comparisons += 1
            outcome = compare_case(forest, schedule, rows)
            if outcome is None:
                continue
            stage, err = outcome
            if config.minimize:
                forest_m, schedule_m, rows_m = minimize_case(forest, schedule, rows)
            else:
                forest_m, schedule_m, rows_m = forest, schedule, rows
            failure = FuzzFailure(
                case=case,
                stage=stage,
                batch=label,
                max_abs_err=err,
                schedule=asdict(schedule_m),
                num_trees=forest_m.num_trees,
                num_rows=int(np.asarray(rows_m).shape[0]),
            )
            if config.out_dir:
                failure.repro_path = _dump_repro(
                    config.out_dir, case, forest_m, schedule_m, rows_m, failure
                )
            report.failures.append(failure)
            if log:
                log(failure.describe())
            break  # one failure per case is enough signal
        if log and (case + 1) % 50 == 0:
            log(
                f"  ... {case + 1}/{config.cases} cases, "
                f"{len(report.failures)} failures"
            )
    return report
