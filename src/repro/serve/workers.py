"""Multi-process sharded serving: one model, many workers, shared buffers.

This is the scale-out tier above :class:`~repro.serve.session.InferenceSession`:

* **Shared buffers** — the parent compiles the model once and exports its
  buffers into ``multiprocessing.shared_memory`` segments
  (:mod:`repro.backend.shm`); forked workers attach zero-copy, read-only
  views, so N workers cost one model footprint, not N.
* **Tree sharding** — very large ensembles are split into contiguous,
  node-count-balanced tree ranges (:func:`plan_shards`); each shard is
  compiled as its own sub-forest whose raw output is a *partial sum* of
  leaf margins, and only shard 0 carries the base score. Workers each own
  a subset of shards; the parent scatters a request to every worker and
  adds the partials in ascending shard order — the ensemble's own sum,
  regrouped, so ``predict`` applies the objective as for every other
  executor.
* **Async admission** — :class:`AsyncModelFrontend` fronts a
  :class:`~repro.serve.server.ModelServer` with an asyncio interface that
  sheds load against per-model :class:`SLOPolicy` targets (inflight bound
  + live p99) *before* a request joins the queue, recording every
  rejection in metrics and the flight recorder.

Determinism: each shard executes the exact bytes the parent compiled
(same kernel source, same buffers), and the parent folds the partials in
ascending shard order — so a sharded prediction is bitwise-identical to
running the same shard plan sequentially in one process
(:meth:`ShardedPredictor.local_raw_predict`), regardless of worker count,
interleaving or which worker ran which shard. Relative to the *unsharded*
kernel the shard boundaries reassociate the float tree-sum, so agreement
there is to accumulation-order tolerance (bitwise again in the
``num_shards=1`` case, which compiles the identical kernel).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import multiprocessing as mp
import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.backend.shm import SharedModelHandle, attach_shared, export_shared
from repro.config import Schedule
from repro.errors import ServingError
from repro.forest.ensemble import Forest, apply_objective
from repro.observe import events as flight

#: how long WorkerPool waits for a forked worker to attach and report ready
SPAWN_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# The fold: how per-shard partial sums become one raw margin
# ----------------------------------------------------------------------

def _combine_sum(partials: list[np.ndarray], base_score: float) -> np.ndarray:
    # Fold in ascending shard order onto the base score: the one
    # deterministic order every execution mode shares, making sharded
    # output independent of worker scheduling.
    out = np.full_like(partials[0], base_score)
    for partial in partials:
        np.add(out, partial, out=out)
    return out


@dataclass(frozen=True)
class Combiner:
    """The ordered-sum fold :func:`get_combiner` resolves: ``fn(partials,
    base_score)`` adds the shards' raw outputs (all ``(n,)`` or all
    ``(n, C)``) onto ``base_score`` in ascending shard order."""

    name: str
    fn: Callable[[list[np.ndarray], float], np.ndarray]


_SUM = Combiner("sum", _combine_sum)


def get_combiner(name: str) -> Combiner:
    """Resolve ``"sum"``: an ensemble's margin is the sum of its trees,
    so shard partials fold one way. Every other name, and a
    :class:`Combiner` instance, raises."""
    if name == "sum":
        return _SUM
    raise ServingError(
        f"combiner {name!r} was retired; sharded partials fold only by 'sum'"
    )


# ----------------------------------------------------------------------
# Shard planning: contiguous, node-count-balanced tree ranges
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardPlan:
    """Contiguous tree ranges: shard ``i`` owns ``[boundaries[i], boundaries[i+1])``."""

    boundaries: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.boundaries) - 1

    def ranges(self) -> list[tuple[int, int]]:
        return [
            (self.boundaries[i], self.boundaries[i + 1])
            for i in range(self.num_shards)
        ]

    def describe(self) -> dict:
        return {"num_shards": self.num_shards, "boundaries": list(self.boundaries)}


def plan_shards(forest: Forest, num_shards: int) -> ShardPlan:
    """Split the forest into contiguous tree ranges of ~equal node count.

    Node count is the work proxy (it bounds both traversal steps and
    buffer bytes); boundaries land where the node-count prefix crosses
    each ideal fraction, and every shard keeps at least one tree.
    """
    if num_shards < 1:
        raise ServingError("num_shards must be >= 1")
    if num_shards > forest.num_trees:
        raise ServingError(
            f"cannot split {forest.num_trees} trees into {num_shards} shards"
        )
    weights = [tree.num_nodes for tree in forest.trees]
    total = sum(weights)
    boundaries = [0]
    prefix = 0
    next_tree = 0
    for shard in range(1, num_shards):
        target = total * shard / num_shards
        # Advance until the prefix crosses the target, but leave enough
        # trees for the remaining shards to get one each.
        limit = forest.num_trees - (num_shards - shard)
        while next_tree < limit and (prefix < target or next_tree <= boundaries[-1]):
            prefix += weights[next_tree]
            next_tree += 1
        boundaries.append(max(next_tree, boundaries[-1] + 1))
    boundaries.append(forest.num_trees)
    return ShardPlan(tuple(boundaries))


def shard_forest(
    forest: Forest, plan: ShardPlan, *, embed_base: bool = False
) -> list[Forest]:
    """Materialize the plan as sub-forests whose raw output is a partial sum.

    Sub-forests carry ``base_score=0`` (the caller applies the base
    exactly once) and shallow-copied trees — the :class:`Forest`
    constructor renumbers ``tree_id`` on the objects it is given, and the
    parent forest's numbering must survive sharding.

    ``embed_base=True`` (what :func:`build_sharded_predictor` uses) folds
    the base score into shard 0 instead, so the fold starts from zero:
    with one shard the sub-forest is then content-identical to the parent,
    so the degenerate case compiles the *same* kernel as the unsharded
    predictor and matches it bitwise.
    """
    shards = []
    for index, (start, end) in enumerate(plan.ranges()):
        trees = [copy.copy(tree) for tree in forest.trees[start:end]]
        shards.append(
            Forest(
                trees,
                num_features=forest.num_features,
                objective=forest.objective,
                base_score=forest.base_score if embed_base and index == 0 else 0.0,
                num_classes=forest.num_classes,
            )
        )
    return shards


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------

def _worker_main(worker_id: int, manifests: dict, req_q, res_q) -> None:
    """Entry point of one shard worker process.

    Attaches every assigned shard's shared-memory manifest, reports
    readiness, then serves ``(req_id, shard_ids, rows)`` messages until a
    ``None`` sentinel. Replies never raise out of the loop: per-request
    failures travel back as ``(req_id, worker_id, None, error_string)``.
    A worker is a child of the exporting process under every start method,
    so it shares the exporter's resource tracker and attaches tracked.
    """
    executors = {}
    try:
        for shard_id, manifest in manifests.items():
            executors[shard_id] = attach_shared(manifest)
    except BaseException as exc:  # noqa: BLE001 - report, don't traceback-spam
        res_q.put(("__init_error__", worker_id, None, f"{type(exc).__name__}: {exc}"))
        return
    res_q.put(("__ready__", worker_id, None, None))
    while True:
        item = req_q.get()
        if item is None:
            break
        req_id, shard_ids, rows = item
        try:
            partials = [
                (shard_id, executors[shard_id].raw_predict(rows))
                for shard_id in shard_ids
            ]
            res_q.put((req_id, worker_id, partials, None))
        except BaseException as exc:  # noqa: BLE001 - deliver to the caller
            res_q.put((req_id, worker_id, None, f"{type(exc).__name__}: {exc}"))
    for executor in executors.values():
        executor.close()


class _Pending:
    __slots__ = ("expected", "partials", "error", "event")

    def __init__(self, expected: set[int]) -> None:
        self.expected = expected
        self.partials: dict[int, np.ndarray] = {}
        self.error: str | None = None
        self.event = threading.Event()


class WorkerPool:
    """Parent-side manager of the shard worker processes.

    Scatters requests over per-worker queues, gathers per-shard partials
    through one result queue (a collector thread resolves them to waiting
    callers), and keeps the tier alive: a worker found dead at dispatch
    time is respawned once, however many callers find it dead, and the
    event recorded in the flight recorder. Requests outstanding on a dying
    worker fail by ``request_timeout_s`` rather than hanging.
    """

    def __init__(
        self,
        shard_manifests: list[dict],
        num_workers: int,
        *,
        start_method: str | None = None,
        request_timeout_s: float = 30.0,
        name: str = "repro-shard",
    ) -> None:
        if num_workers < 1:
            raise ServingError("num_workers must be >= 1")
        if not shard_manifests:
            raise ServingError("worker pool needs at least one shard manifest")
        if not (request_timeout_s > 0):
            raise ServingError("request_timeout_s must be > 0")
        # More workers than shards would idle; replication is the shard
        # planner's job, not the pool's.
        self.num_workers = min(num_workers, len(shard_manifests))
        self.num_shards = len(shard_manifests)
        self.request_timeout_s = request_timeout_s
        self.name = name
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method
        self._manifests = list(shard_manifests)
        self._assignment = {
            w: [s for s in range(self.num_shards) if s % self.num_workers == w]
            for w in range(self.num_workers)
        }
        self._req_qs = [self._ctx.Queue() for _ in range(self.num_workers)]
        self._res_q = self._ctx.Queue()
        self._procs: list = [None] * self.num_workers
        self._dispatched = [0] * self.num_workers
        self._respawns = [0] * self.num_workers
        self._req_ids = itertools.count(1)
        self._lock = threading.Lock()
        # Dispatch (liveness check, respawn, enqueue) is serialized apart
        # from ``_lock``, which the collector takes per reply.
        self._dispatch_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._closed = False
        try:
            for w in range(self.num_workers):
                self._spawn(w)
            self._await_ready(self.num_workers)
        except BaseException:
            self._terminate_all()
            raise
        self._collector = threading.Thread(
            target=self._collect, name=f"{name}-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        manifests = {s: self._manifests[s] for s in self._assignment[worker_id]}
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, manifests, self._req_qs[worker_id], self._res_q),
            name=f"{self.name}-w{worker_id}",
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc
        flight.record(
            "worker_spawn",
            pool=self.name,
            worker=worker_id,
            pid=proc.pid,
            shards=self._assignment[worker_id],
        )

    def _await_ready(self, count: int) -> None:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        seen = 0
        while seen < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServingError(
                    f"shard workers failed to start within {SPAWN_TIMEOUT_S}s"
                )
            try:
                tag, worker_id, _, err = self._res_q.get(timeout=remaining)
            except queue_mod.Empty:
                continue
            if tag == "__init_error__":
                raise ServingError(f"shard worker {worker_id} failed to attach: {err}")
            if tag == "__ready__":
                seen += 1

    def _ensure_alive(self, worker_id: int) -> None:
        """Respawn ``worker_id`` if it died; the caller holds
        ``_dispatch_lock``, so one death yields one successor."""
        proc = self._procs[worker_id]
        if proc.is_alive():
            return
        flight.record(
            "worker_dead",
            pool=self.name,
            worker=worker_id,
            pid=proc.pid,
            exitcode=proc.exitcode,
        )
        self._respawns[worker_id] += 1
        # A worker killed while blocked in ``req_q.get()`` dies *holding*
        # the queue's reader lock, poisoning the queue for any successor —
        # so the respawned worker gets a fresh queue. Messages stranded in
        # the old one belong to requests that fail by their own timeout.
        stale = self._req_qs[worker_id]
        self._req_qs[worker_id] = self._ctx.Queue()
        try:
            stale.cancel_join_thread()
            stale.close()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        self._spawn(worker_id)
        # Readiness is confirmed by the collector draining its __ready__
        # message; requests queued meanwhile wait in the worker's queue.

    def _terminate_all(self) -> None:
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def execute(
        self, rows: np.ndarray, timeout: float | None = None
    ) -> dict[int, np.ndarray]:
        """Run ``rows`` through every shard; returns ``{shard_id: partial}``."""
        req_id = next(self._req_ids)
        pending = _Pending(set(range(self.num_shards)))
        with self._lock:
            self._pending[req_id] = pending
        try:
            with self._dispatch_lock:
                # Checked under the lock ``close`` takes, so no respawn
                # can start a worker that ``close`` would not join.
                if self._closed:
                    raise ServingError("worker pool is closed")
                for worker_id, shard_ids in self._assignment.items():
                    self._ensure_alive(worker_id)
                    self._req_qs[worker_id].put((req_id, shard_ids, rows))
                    self._dispatched[worker_id] += 1
        except BaseException:
            with self._lock:
                self._pending.pop(req_id, None)
            raise
        if not pending.event.wait(timeout if timeout is not None else self.request_timeout_s):
            with self._lock:
                self._pending.pop(req_id, None)
            raise ServingError(
                f"sharded request {req_id} timed out after "
                f"{timeout if timeout is not None else self.request_timeout_s}s "
                f"({len(pending.partials)}/{self.num_shards} shards replied)"
            )
        if pending.error is not None:
            raise ServingError(f"shard worker failed: {pending.error}")
        return pending.partials

    def _collect(self) -> None:
        while True:
            try:
                msg = self._res_q.get(timeout=0.2)
            except (queue_mod.Empty, OSError, EOFError):
                if self._closed:
                    return
                continue
            tag, worker_id, partials, err = msg
            if tag in ("__ready__", "__init_error__"):
                # A respawned worker reporting in (or failing to); init
                # errors surface on the next request via _ensure_alive.
                continue
            with self._lock:
                pending = self._pending.get(tag)
                if pending is None:
                    continue  # a timed-out request's late reply
                if err is not None:
                    pending.error = err
                    self._pending.pop(tag, None)
                    pending.event.set()
                    continue
                for shard_id, partial in partials:
                    pending.partials[shard_id] = partial
                if set(pending.partials) >= pending.expected:
                    self._pending.pop(tag, None)
                    pending.event.set()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-worker liveness/assignment/dispatch counters (gauge food)."""
        workers = {}
        for w in range(self.num_workers):
            proc = self._procs[w]
            workers[str(w)] = {
                "pid": proc.pid,
                "alive": proc.is_alive(),
                "shards": list(self._assignment[w]),
                "dispatched": self._dispatched[w],
                "respawns": self._respawns[w],
            }
        return {
            "num_workers": self.num_workers,
            "num_shards": self.num_shards,
            "start_method": self.start_method,
            "workers": workers,
        }

    def close(self, timeout: float = 5.0) -> None:
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
        failure = ServingError("worker pool closed")
        with self._lock:
            pending, self._pending = dict(self._pending), {}
        for item in pending.values():
            item.error = str(failure)
            item.event.set()
        for req_q in self._req_qs:
            try:
                req_q.put_nowait(None)
            except (queue_mod.Full, OSError, ValueError):  # pragma: no cover
                pass
        for worker_id, proc in enumerate(self._procs):
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            flight.record(
                "worker_exit",
                pool=self.name,
                worker=worker_id,
                exitcode=proc.exitcode,
            )
        for req_q in self._req_qs + [self._res_q]:
            try:
                req_q.cancel_join_thread()
                req_q.close()
            except (OSError, ValueError):  # pragma: no cover
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The sharded predictor
# ----------------------------------------------------------------------

class ShardedPredictor:
    """Predictor-protocol facade over a shard plan and (optionally) a pool.

    ``num_workers == 0`` is the degenerate in-process mode: the same
    compiled shard executors run sequentially on the caller's thread —
    the bitwise reference every multi-worker configuration must match.
    Owns live resources (processes, shared memory), so it never enters the
    predictor cache: nothing may coalesce or evict it, and exactly one
    owner calls :meth:`close`.
    """

    backend_name = "sharded"
    is_artifact = False

    def __init__(
        self,
        forest: Forest,
        schedule: Schedule,
        plan: ShardPlan,
        shard_predictors: list,
        pool: WorkerPool | None,
        handles: list[SharedModelHandle],
    ) -> None:
        self.forest = forest
        self.schedule = schedule
        self.plan = plan
        self.num_features = forest.num_features
        self.num_classes = forest.num_classes
        self.base_score = forest.base_score
        self.objective = forest.objective
        self._shard_predictors = shard_predictors
        self._pool = pool
        self._handles = handles
        self._closed = False
        digest = hashlib.sha256()
        for predictor in shard_predictors:
            digest.update(predictor.fingerprint.encode())
        digest.update(repr(plan.boundaries).encode())
        self.fingerprint = digest.hexdigest()

    # -- predictor protocol -------------------------------------------
    @property
    def num_workers(self) -> int:
        return self._pool.num_workers if self._pool is not None else 0

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def raw_predict(self, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
        """Combined raw margins (``threads`` is accepted for protocol
        compatibility; parallelism here is processes, not row blocks)."""
        if self._closed:
            raise ServingError("sharded predictor is closed")
        if self._pool is None:
            return self.local_raw_predict(rows)
        by_shard = self._pool.execute(np.ascontiguousarray(rows, dtype=np.float64))
        # Shard 0 carries the base score, so the fold starts from zero.
        return _combine_sum([by_shard[s] for s in range(self.num_shards)], 0.0)

    def local_raw_predict(self, rows: np.ndarray) -> np.ndarray:
        """The same shard plan executed sequentially in this process —
        the bitwise reference for every multi-worker configuration."""
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
        return _combine_sum([p.raw_predict(rows) for p in self._shard_predictors], 0.0)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return apply_objective(self.objective, self.raw_predict(rows))

    def memory_bytes(self) -> int:
        """One shared copy of every shard's buffers (not per-worker)."""
        if self._handles:
            return sum(handle.nbytes() for handle in self._handles)
        return sum(p.memory_bytes() for p in self._shard_predictors)

    def scratch_nbytes(self) -> int:
        return 0

    def worker_stats(self) -> dict:
        if self._pool is None:
            return {"num_workers": 0, "num_shards": self.plan.num_shards, "workers": {}}
        return self._pool.stats()

    def describe(self) -> dict:
        return {
            "backend": self.backend_name,
            "num_workers": self.num_workers,
            **self.plan.describe(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        for handle in self._handles:
            handle.unlink()

    def __enter__(self) -> "ShardedPredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedPredictor(shards={self.plan.num_shards}, "
            f"workers={self.num_workers}, fingerprint={self.fingerprint[:12]})"
        )


def build_sharded_predictor(
    forest: Forest,
    schedule: Schedule | None = None,
    *,
    num_workers: int = 2,
    num_shards: int | None = None,
    validate_inputs: bool = True,
    start_method: str | None = None,
    request_timeout_s: float = 30.0,
    name: str = "repro-shard",
) -> ShardedPredictor:
    """Compile, shard and (for ``num_workers >= 1``) fork the serving tier.

    Every shard is compiled in the parent under ``schedule``, exported to
    shared memory, and attached read-only by the workers — the compiler
    never runs in a child. ``num_workers=0`` builds the in-process
    degenerate case (no processes, no shared memory).
    """
    from repro.api import compile_model  # lazy: api imports serve for sessions

    if num_workers < 0:
        raise ServingError("num_workers must be >= 0")
    schedule = schedule or Schedule()
    if num_shards is None:
        num_shards = max(1, num_workers)
    num_shards = min(num_shards, forest.num_trees)
    plan = plan_shards(forest, num_shards)
    shard_predictors = [
        compile_model(sub, schedule, validate_inputs=validate_inputs)
        for sub in shard_forest(forest, plan, embed_base=True)
    ]
    flight.record(
        "shard_plan",
        pool=name,
        num_shards=plan.num_shards,
        num_workers=num_workers,
        boundaries=list(plan.boundaries),
    )
    handles: list[SharedModelHandle] = []
    pool: WorkerPool | None = None
    if num_workers >= 1:
        try:
            handles = [export_shared(p) for p in shard_predictors]
            pool = WorkerPool(
                [handle.manifest for handle in handles],
                num_workers,
                start_method=start_method,
                request_timeout_s=request_timeout_s,
                name=name,
            )
        except BaseException:
            for handle in handles:
                handle.unlink()
            raise
    return ShardedPredictor(forest, schedule, plan, shard_predictors, pool, handles)


# ----------------------------------------------------------------------
# SLO-aware asyncio front end
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SLOPolicy:
    """Per-model admission targets for :class:`AsyncModelFrontend`.

    ``max_inflight`` bounds concurrently admitted requests;
    ``target_p99_s`` sheds load while the model's live p99 (over the
    frontend's own per-model latency window) exceeds the target *and*
    other requests are inflight — a lone request is always admitted so
    the window keeps refreshing as load drains.
    """

    target_p99_s: float | None = None
    max_inflight: int | None = None
    min_samples: int = 16

    def __post_init__(self) -> None:
        if self.target_p99_s is not None and not (self.target_p99_s > 0):
            raise ServingError("target_p99_s must be > 0")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServingError("max_inflight must be >= 1")
        if self.min_samples < 1:
            raise ServingError("min_samples must be >= 1")


class _ModelAdmission:
    """Frontend-side view of one model: inflight count and latency window."""

    __slots__ = ("inflight", "latencies")

    def __init__(self) -> None:
        from repro.serve.metrics import LatencyWindow

        self.inflight = 0
        self.latencies = LatencyWindow(512)


class AsyncModelFrontend:
    """Asyncio admission layer in front of a :class:`ModelServer`.

    ``await frontend.predict(name, rows)`` either admits the request —
    running the (blocking) server predict on a thread-pool executor — or
    sheds it with :class:`~repro.errors.ServingError` when the model's
    :class:`SLOPolicy` says the tier cannot hold its latency target.
    Rejections are counted (``admission_rejects``) and recorded as
    ``admission_reject`` flight events; they are deliberate load shedding,
    not errors.
    """

    def __init__(self, server, *, max_threads: int = 8) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.server = server
        self._executor = ThreadPoolExecutor(
            max_workers=max_threads, thread_name_prefix="repro-async-frontend"
        )
        self._lock = threading.Lock()
        self._models: dict[str, _ModelAdmission] = {}

    def _admit(self, name: str) -> _ModelAdmission | None:
        """Admission decision under the lock, against the policy the
        server's ``register(..., slo=...)`` recorded; raises to shed."""
        policy = self.server.slo_policy(name)  # current, never cached
        if policy is None:
            return None
        with self._lock:
            entry = self._models.get(name)
            if entry is None:
                entry = self._models[name] = _ModelAdmission()
            reason = None
            if policy.max_inflight is not None and entry.inflight >= policy.max_inflight:
                reason = "max_inflight"
            elif (
                policy.target_p99_s is not None
                and entry.inflight >= 1
                and len(entry.latencies) >= policy.min_samples
            ):
                p99 = entry.latencies.percentile(99)
                if p99 is not None and p99 > policy.target_p99_s:
                    reason = "p99_over_target"
            if reason is None:
                entry.inflight += 1
                return entry
        self.server.metrics.count("admission_rejects")
        flight.record(
            "admission_reject",
            model=name,
            reason=reason,
            inflight=entry.inflight,
            target_p99_s=policy.target_p99_s,
        )
        raise ServingError(f"request to {name!r} rejected by admission control ({reason})")

    def _finish(self, entry: _ModelAdmission | None, elapsed: float) -> None:
        if entry is None:
            return
        with self._lock:
            entry.inflight -= 1
            entry.latencies.record(elapsed)

    async def predict(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Admission-controlled, executor-offloaded ``server.predict``."""
        return await self._admitted(self.server.predict, name, rows)

    async def raw_predict(self, name: str, rows: np.ndarray) -> np.ndarray:
        return await self._admitted(self.server.raw_predict, name, rows)

    async def _admitted(self, call, name: str, rows: np.ndarray) -> np.ndarray:
        import asyncio

        entry = self._admit(name)
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            return await loop.run_in_executor(self._executor, call, name, rows)
        finally:
            self._finish(entry, time.perf_counter() - start)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "AsyncModelFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
