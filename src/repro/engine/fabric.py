"""Distributed sweep fabric: chunk-leasing workers over a shared store.

ROADMAP item 1: the engine must stop topping out at one box.  The
kernel is fast (columnar batches, pthread rows) but a sweep still ran
as "one process pool, one cache dir".  This module distributes the
*sweep* instead:

* A fabric job is an ordinary PR-6 :class:`~repro.service.JobRecord`
  whose grid is split by :func:`repro.analysis.plan_chunks` into
  contiguous ``[start, stop)`` **chunks** stored as lease rows
  (store schema v3).
* :class:`FabricWorker` — local process or remote ``repro worker``
  node — leases one chunk at a time (atomic CAS in the store),
  heartbeats it while computing, and writes every point through the
  checksummed :class:`~repro.engine.TieredCache` under exactly the key
  :func:`repro.analysis.run_sweep_outcomes` would use.  Cache identity
  is the whole consistency story: a crash mid-grid loses nothing that
  was cached, and a resumed run re-serves those points as hits — zero
  recomputes, provable from per-tier ``cache_info()`` counters.
* Resilience is the PR-5 machinery, generalized: a worker that stops
  heartbeating has its leases expired and requeued by the watchdog
  sweep (:meth:`~repro.service.store.JobStore.expire_chunk_leases`);
  store round-trips retry with a seeded
  :class:`~repro.engine.RetryPolicy`; chunks that keep failing are
  parked ``failed`` after ``max_attempts``; and a worker whose chunks
  keep blowing up trips its own :class:`~repro.engine.CircuitBreaker`
  (``fabric-worker:<id>``) and quarantines itself rather than eating
  the queue.
* :func:`run_fabric_sweep` is the one-call coordinator behind
  ``repro sweep --fabric``: submit the job, plan the chunks, spawn N
  worker processes, watch the lease table, and assemble the finished
  :class:`~repro.analysis.SweepResult` *from the cache* — bit-exact
  (``np.array_equal``) with the serial reference path, because workers
  compute each point through the same solo fused path serial sweeps
  use.
* A job ends when its last chunk settles (``done`` or ``failed``): a
  worker bound to one job returns as soon as none of the job's chunks
  is queued or leased, so a spawned worker's exit is the coordinator's
  wake-up, not an idle timer running out.

Workers compute leased points solo (reference-identical), not through
the columnar batch engine: the fabric's bit-exactness contract is
``fabric == serial`` down to the last ULP, and its speed comes from N
nodes running N chunks concurrently, not from per-point batching.
"""

from __future__ import annotations

import logging
import math
import os
import socket
import sys
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_exit

from ..errors import FabricError
from .cache import TieredCache
from .resilience import (
    CircuitBreaker,
    RetryPolicy,
    arm_env_fault_plan,
    get_breaker,
    poll_fault,
)

__all__ = [
    "FabricWorker",
    "finalize_fabric_job",
    "WorkerStats",
    "fabric_worker_id",
    "run_fabric_sweep",
    "submit_fabric_job",
]

logger = logging.getLogger(__name__)

#: Exit code of a worker process that hit its --points-limit crash
#: rehearsal (``os._exit``: no cleanup, exactly like a kill -9 — the
#: lease stays held until the watchdog expires it).
CRASH_EXIT_CODE = 43


def fabric_worker_id() -> str:
    """A collision-resistant worker identity (``host-pid-hex4``)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:4]}"


def _chunks_settled(counts: dict[str, int]) -> bool:
    """True when a job has chunks and every one is ``done`` or ``failed``.

    Settled chunks never change state again, so once this holds there
    is nothing left to lease, nor any lease left to wait out.
    """
    settled = counts.get("done", 0) + counts.get("failed", 0)
    return bool(counts) and settled == sum(counts.values())


def _fault_seconds(payload, default: float) -> float:
    """A positive seconds value out of a fault payload, else default."""
    try:
        seconds = float(payload)
    except (TypeError, ValueError):
        return default
    return seconds if seconds > 0 else default


@dataclass
class WorkerStats:
    """What one :class:`FabricWorker` run did, for logs and checks."""

    worker_id: str
    chunks_done: int = 0
    chunks_failed: int = 0
    points_computed: int = 0
    points_cached: int = 0
    leases_lost: int = 0
    quarantined: bool = False
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "chunks_done": self.chunks_done,
            "chunks_failed": self.chunks_failed,
            "points_computed": self.points_computed,
            "points_cached": self.points_cached,
            "leases_lost": self.leases_lost,
            "quarantined": self.quarantined,
            "errors": list(self.errors),
        }


class _JobContext:
    """Per-job task/grid rebuild, memoized across a worker's chunks."""

    __slots__ = ("job_id", "task", "grid")

    def __init__(self, record) -> None:
        from ..analysis import LoopSweepTask, override_grid
        from ..service.jobs import device_spec_from_dict

        spec = record.spec
        base = device_spec_from_dict(spec.base)
        self.job_id = record.job_id
        self.task = LoopSweepTask(duration=spec.duration)
        self.grid = override_grid(base, spec.path, list(spec.values))


class FabricWorker:
    """One chunk-leasing execution node.

    Parameters
    ----------
    store:
        A :class:`~repro.service.JobStore` (shared SQLite file) or a
        :class:`~repro.service.RemoteFabricStore` speaking the same
        chunk interface over HTTP to a ``repro serve``.
    cache:
        The :class:`TieredCache` results flow through.  Give remote
        workers an :class:`~repro.engine.HTTPRemoteStore` tier pointed
        at the coordinator's server — the cache *is* the result
        transport.
    worker_id / lease_seconds / poll_interval:
        Identity, lease TTL (heartbeats extend it; must comfortably
        cover one point's compute time), and idle sleep between lease
        attempts.
    max_attempts:
        Lease attempts before a chunk is parked ``failed``.
    breaker_threshold:
        Consecutive chunk failures before this worker quarantines
        itself (its :class:`~repro.engine.CircuitBreaker` opens).
    job_id:
        Restrict leasing to one job (``None`` = any queued chunk).
    points_limit:
        Crash rehearsal: hard-exit the process (``os._exit``) after
        computing this many fresh points — mid-chunk, lease still
        held — to prove resume-with-zero-recomputes.
    """

    def __init__(
        self, store, cache, *,
        worker_id: str | None = None,
        lease_seconds: float = 30.0,
        poll_interval: float = 0.1,
        max_attempts: int = 3,
        breaker_threshold: int = 3,
        job_id: str | None = None,
        points_limit: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.worker_id = worker_id or fabric_worker_id()
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        self.max_attempts = int(max_attempts)
        self.job_id = job_id
        self.points_limit = points_limit
        self.retry = retry or RetryPolicy(retries=2, base_delay=0.02)
        self.breaker: CircuitBreaker = get_breaker(
            f"fabric-worker:{self.worker_id}", threshold=breaker_threshold
        )
        self.stats = WorkerStats(worker_id=self.worker_id)
        self._contexts: dict[str, _JobContext] = {}

    # -- leasing loop ---------------------------------------------------------

    def run(self, *, max_chunks: int | None = None,
            idle_exit: float | None = None) -> WorkerStats:
        """Lease and execute chunks until told (or starved) to stop.

        Returns after ``max_chunks`` chunks, after ``idle_exit``
        seconds without winning a lease (``None`` = one idle poll),
        immediately upon self-quarantine, or — for a worker bound to
        one ``job_id`` — as soon as every chunk of that job has
        settled, however long ``idle_exit`` is.
        """
        idle_since: float | None = None
        while True:
            if not self.breaker.allow():
                self.stats.quarantined = True
                logger.warning("worker %s quarantined: %s", self.worker_id,
                               self.breaker.last_failure_reason)
                return self.stats
            if max_chunks is not None and \
                    self.stats.chunks_done + self.stats.chunks_failed >= max_chunks:
                return self.stats
            # watchdog assist: requeue leases of dead siblings
            self._store_call(self.store.expire_chunk_leases)
            lease = self._store_call(
                self.store.lease_chunk, self.worker_id, self.lease_seconds,
                self.job_id,
            )
            if lease is None:
                if idle_exit is None or self._job_settled():
                    return self.stats
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= idle_exit:
                    return self.stats
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            self._execute_chunk(lease)

    def _store_call(self, fn, *args):
        """One store round-trip through the seeded retry policy."""
        return self.retry.run(fn, *args, key=self.worker_id)

    def _job_settled(self) -> bool:
        """True once the bound job has no chunk queued or leased.

        A job without chunk rows may still be planned, and an unbound
        worker serves a queue that can grow, so neither ever counts as
        settled: both fall back to the idle timer.
        """
        if self.job_id is None:
            return False
        return _chunks_settled(
            self._store_call(self.store.chunk_counts, self.job_id)
        )

    # -- one chunk ------------------------------------------------------------

    def _execute_chunk(self, lease) -> None:
        try:
            context = self._context_for(lease.job_id)
            # lease-clock-skew fault: this worker's heartbeats extend
            # the lease by almost nothing, so the watchdog's expiry
            # sweep races every slow point
            ttl = self.lease_seconds
            skew = poll_fault("fabric.lease")
            if skew is not None:
                ttl = _fault_seconds(skew.payload, 0.05)
                logger.warning(
                    "worker %s lease clock skew injected on %s/%d: "
                    "heartbeat TTL collapsed to %.3fs",
                    self.worker_id, lease.job_id, lease.chunk_id, ttl,
                )
            held = self._run_points(context, lease, ttl)
            if held:
                self._flush_cache_barrier(lease)
        except Exception as err:  # noqa: BLE001 - chunk-level capture
            reason = f"{type(err).__name__}: {err}"
            logger.warning("worker %s failed chunk %s/%d: %s",
                           self.worker_id, lease.job_id, lease.chunk_id,
                           reason)
            self.stats.chunks_failed += 1
            self.stats.errors.append(reason)
            self.breaker.record_failure(reason)
            try:
                self._store_call(
                    self.store.fail_chunk, lease.job_id, lease.chunk_id,
                    self.worker_id, reason, self.max_attempts,
                )
            except Exception:  # noqa: BLE001 - lease will expire instead
                logger.exception("could not report chunk failure")
            return
        if not held:
            # lease lost mid-chunk (counted in _run_points): never ack
            # a chunk someone else may be re-running — the cached
            # points stand and the next owner gets hits
            return
        if poll_fault("fabric.complete") is not None:
            # lost-ack fault: the completion lands but the worker never
            # hears back, so it retries — the store's idempotent
            # complete_chunk must acknowledge the duplicate
            self._store_call(
                self.store.complete_chunk, lease.job_id, lease.chunk_id,
                self.worker_id,
            )
            logger.warning(
                "worker %s completion ack lost for %s/%d: retrying "
                "(duplicate completion)",
                self.worker_id, lease.job_id, lease.chunk_id,
            )
        completed = self._store_call(
            self.store.complete_chunk, lease.job_id, lease.chunk_id,
            self.worker_id,
        )
        if completed:
            self.stats.chunks_done += 1
            self.breaker.record_success()
        else:
            # lease expired mid-chunk (slow point, watchdog fired): the
            # points are cached, so whoever re-runs the chunk gets hits
            self.stats.leases_lost += 1
            logger.info("worker %s lost lease on %s/%d after computing it",
                        self.worker_id, lease.job_id, lease.chunk_id)

    def _context_for(self, job_id: str) -> _JobContext:
        context = self._contexts.get(job_id)
        if context is None:
            record = self._store_call(self.store.get, job_id)
            if record is None:
                raise FabricError(f"chunk references unknown job {job_id!r}")
            context = _JobContext(record)
            self._contexts[job_id] = context
        return context

    def _run_points(self, context: _JobContext, lease,
                    lease_ttl: float | None = None) -> bool:
        """Compute/serve the chunk's points; True while the lease held.

        A False return means the lease was lost mid-chunk (heartbeat
        refused, or the heartbeat itself vanished) — the caller must
        NOT complete the chunk: every point reached is already cached,
        and whoever re-leases the chunk re-serves them as hits.
        """
        from ..analysis.sweep import _cache_parameter
        from ..service.store import PointOutcome

        ttl = self.lease_seconds if lease_ttl is None else lease_ttl
        task, grid = context.task, context.grid
        if not 0 <= lease.start <= lease.stop <= len(grid):
            raise FabricError(
                f"chunk [{lease.start}:{lease.stop}) is outside the "
                f"{len(grid)}-point grid of job {lease.job_id!r}"
            )
        outcomes = []
        for index in range(lease.start, lease.stop):
            spec = grid[index]
            key = self.cache.key_for(task, _cache_parameter(spec), None)
            value = self.cache.get(key)
            cached = value is not self.cache.MISS
            if cached:
                self.stats.points_cached += 1
            else:
                # solo fused run: bit-identical to the serial reference
                value = task(spec)
                self.cache.put(key, value)
                self.stats.points_computed += 1
                if poll_fault("fabric.crash") is not None:
                    # die in the worst window: point cached, chunk not
                    # completed — resume must serve it as a hit
                    logger.warning(
                        "worker %s injected crash after caching point %d",
                        self.worker_id, index,
                    )
                    os._exit(CRASH_EXIT_CODE)
                if self.points_limit is not None and \
                        self.stats.points_computed >= self.points_limit:
                    logger.warning("worker %s crash rehearsal after %d points",
                                   self.worker_id, self.stats.points_computed)
                    os._exit(CRASH_EXIT_CODE)
            outcomes.append(PointOutcome(index=index, ok=True, cached=cached))
            beat_lost = poll_fault("fabric.heartbeat") is not None
            if not beat_lost:
                beat_lost = not self._store_call(
                    self.store.heartbeat_chunk, lease.job_id, lease.chunk_id,
                    self.worker_id, ttl,
                )
            if beat_lost:
                # lease lost: stop touching the chunk; cached points stand
                self.stats.leases_lost += 1
                logger.info("worker %s lost lease on %s/%d mid-chunk",
                            self.worker_id, lease.job_id, lease.chunk_id)
                return False
        self._store_call(
            self.store.record_outcomes, lease.job_id, outcomes
        )
        return True

    def _flush_cache_barrier(self, lease) -> None:
        """Push write-behind remote-cache entries before completing.

        During a remote-tier brownout the :class:`TieredCache` parks
        blobs in its pending queue; a chunk may only be acked ``done``
        once every point it computed is visible to the rest of the
        fabric.  Entries that still cannot be pushed fail the chunk —
        it requeues, and the re-run serves local hits and retries the
        push on a (hopefully) recovered tier.
        """
        flush = getattr(self.cache, "flush_remote", None)
        if flush is None:
            return
        pending = flush(force=True)
        if pending:
            raise FabricError(
                f"{pending} cached point(s) still unpushed to the remote "
                f"tier; refusing to complete chunk "
                f"{lease.job_id}/{lease.chunk_id}"
            )


# -- coordinator --------------------------------------------------------------


def submit_fabric_job(store, base_spec, path: str, values, *,
                      duration: float = 0.01, chunk_size: int = 8,
                      tenant: str = "default"):
    """Create (or resume) a fabric job + its chunk rows; the record.

    Resubmitting an identical grid reuses the existing non-terminal
    fabric job — its chunk rows, lease states, and cached points — so
    a crashed coordinator resumes instead of duplicating work.
    """
    from ..analysis import plan_chunks
    from ..service.jobs import JobRecord, JobSpec, JobState, new_job_id

    spec = JobSpec(
        base=base_spec.to_dict(), path=path,
        values=tuple(float(v) for v in values), duration=duration,
        tenant=tenant, fabric=True, chunk_size=int(chunk_size),
    )
    record = None
    for candidate in store.find_by_work_hash(spec.work_hash()):
        if candidate.spec.fabric and not candidate.state.terminal:
            record = candidate
            break
    if record is None:
        record = JobRecord(
            job_id=new_job_id(), spec=spec,
            state=JobState(total=len(spec.values),
                           submitted_at=time.time()),
        )
        store.put(record)
    store.create_chunks(
        record.job_id, plan_chunks(len(spec.values), spec.chunk_size)
    )
    return record


def _worker_process_main(db_path, cache_dir, worker_kwargs) -> None:
    """Entry point of one spawned local fabric worker process.

    The worker serves its job until the job's last chunk settles, and
    exits then: its exit is what wakes the coordinator.  It never gives
    up while a sibling's lease may still expire back into the queue.
    """
    from ..service.store import open_job_store

    os.environ.setdefault("REPRO_KERNEL_THREADS", "1")
    arm_env_fault_plan()  # chaos harness: plan rides in on the env
    store = open_job_store(db_path)
    cache = TieredCache(cache_dir)
    worker = FabricWorker(store, cache, **worker_kwargs)
    worker.run(idle_exit=math.inf)
    # every point is on disk and every store call committed: skip the
    # interpreter's module teardown (~0.1 s with scipy loaded), which
    # the coordinator would otherwise wait out before returning
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def run_fabric_sweep(
    base_spec, path: str, values, *,
    db, cache_dir,
    duration: float = 0.01,
    workers: int = 2,
    chunk_size: int = 8,
    lease_seconds: float = 30.0,
    max_attempts: int = 3,
    parameter_name: str | None = None,
    wait_timeout: float = 600.0,
    poll_interval: float = 0.1,
    cache: TieredCache | None = None,
):
    """Run one spec sweep across leased fabric workers; a SweepResult.

    The ``repro sweep --fabric`` path: submits (or resumes) the fabric
    job on the store at ``db``, spawns ``workers`` local worker
    processes sharing the tiered cache at ``cache_dir``, expires stale
    leases while waiting, and assembles the finished table from the
    cache.  Bit-exact with the serial path; any point already cached —
    by a previous run, a killed worker, or the service pump — is never
    recomputed.

    ``workers=0`` runs the chunks in-process (no subprocesses), which
    is also the degraded path when a worker cannot be spawned.
    """
    import multiprocessing

    from ..analysis.sweep import _cache_parameter, _collect
    from ..service.store import open_job_store

    store = open_job_store(db)
    if cache is None:
        cache = TieredCache(cache_dir)
    record = submit_fabric_job(
        store, base_spec, path, values, duration=duration,
        chunk_size=chunk_size,
    )
    if record.state.phase == "queued":
        store.claim(record.job_id)

    procs: list = []
    if workers > 0:
        ctx = multiprocessing.get_context("spawn")
        for _ in range(int(workers)):
            proc = ctx.Process(
                target=_worker_process_main,
                args=(str(db), str(cache_dir),
                      {"job_id": record.job_id,
                       "lease_seconds": lease_seconds,
                       "max_attempts": max_attempts}),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

    try:
        _await_settled(store, cache, record.job_id, procs,
                       lease_seconds=lease_seconds,
                       max_attempts=max_attempts,
                       wait_timeout=wait_timeout,
                       poll_interval=poll_interval)
        failed = [c for c in store.chunks(record.job_id)
                  if c.state == "failed"]
        if failed:
            store.update(record.advanced(
                phase="failed", finished_at=time.time(),
                error=failed[0].error,
            ))
            raise FabricError(
                f"{len(failed)} chunk(s) failed permanently; first error: "
                f"{failed[0].error}"
            )
        result = _assemble_from_cache(
            record, cache, _cache_parameter, _collect,
            parameter_name if parameter_name is not None else path,
        )
        finalize_fabric_job(store, cache, record)
    finally:
        # workers leave on their own once the job settles; an idle
        # sibling still noticing that overlaps the assembly above
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
    return result


def _await_settled(store, cache, job_id: str, procs: list, *,
                   lease_seconds: float, max_attempts: int,
                   wait_timeout: float, poll_interval: float) -> None:
    """Block until every chunk of ``job_id`` is done or failed.

    A spawned worker exits as soon as the job settles, so waiting on
    the workers' exit sentinels wakes the coordinator the moment the
    last one leaves; the ``poll_interval`` timeout still re-reads the
    chunk table and expires stale leases while they work.  With no
    live worker (``workers=0``, crashes, OOM) the remaining chunks run
    in this process rather than hang.
    """
    deadline = time.monotonic() + wait_timeout
    while True:
        counts = store.chunk_counts(job_id)
        if _chunks_settled(counts):
            return
        store.expire_chunk_leases()
        live = [p for p in procs if p.is_alive()]
        if not live and _drain_in_process(store, cache, job_id,
                                          lease_seconds, max_attempts):
            continue
        if time.monotonic() > deadline:
            settled = counts.get("done", 0) + counts.get("failed", 0)
            raise FabricError(
                f"fabric sweep timed out after {wait_timeout}s "
                f"({settled}/{sum(counts.values())} chunks settled)"
            )
        if live:
            wait_for_exit([p.sentinel for p in live], timeout=poll_interval)
        else:
            # nothing leasable yet (an orphaned lease has not expired):
            # wait it out instead of spinning on the store
            time.sleep(poll_interval)


def _drain_in_process(store, cache, job_id: str, lease_seconds: float,
                      max_attempts: int) -> bool:
    """Run remaining chunks of a job in this process (degraded path).

    Returns whether any chunk was leased, i.e. whether it got anywhere.
    """
    worker = FabricWorker(
        store, cache, job_id=job_id, lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        worker_id=f"{fabric_worker_id()}-inline",
    )
    stats = worker.run(idle_exit=None)
    return bool(stats.chunks_done + stats.chunks_failed + stats.leases_lost)


def _assemble_from_cache(record, cache, cache_parameter, collect,
                         parameter_name: str):
    """The finished SweepResult, read point-by-point from the cache."""
    from ..analysis import LoopSweepTask, override_grid
    from ..service.jobs import device_spec_from_dict

    spec = record.spec
    task = LoopSweepTask(duration=spec.duration)
    grid = override_grid(
        device_spec_from_dict(spec.base), spec.path, list(spec.values)
    )
    values = []
    for index, point in enumerate(grid):
        key = cache.key_for(task, cache_parameter(point), None)
        value = cache.get(key)
        if value is cache.MISS:  # pragma: no cover - chunks all done
            raise FabricError(
                f"point {index} of job {record.job_id!r} is marked done "
                "but missing from the cache"
            )
        values.append(value)
    result = collect(grid, values, parameter_name)
    result.parameters = list(spec.values)
    return result


def finalize_fabric_job(store, cache, record) -> None:
    """Settle a fabric job whose chunks are all done (idempotent).

    Writes the pump-compatible result blob to the cache under
    :func:`~repro.service.pump.sweep_result_key` and advances the job
    to ``done`` — the same terminal shape a pump-executed job gets, so
    ``repro status|results`` cannot tell the difference.
    """
    from ..service.pump import _assemble_result, sweep_result_key

    record = store.get(record.job_id) or record
    if record.state.terminal:
        return
    outcomes = store.outcomes(record.job_id)
    values_by_index = {}
    if outcomes:
        from ..analysis import LoopSweepTask, override_grid
        from ..analysis.sweep import _cache_parameter
        from ..service.jobs import device_spec_from_dict

        task = LoopSweepTask(duration=record.spec.duration)
        grid = override_grid(
            device_spec_from_dict(record.spec.base), record.spec.path,
            list(record.spec.values),
        )
        for point_outcome in outcomes:
            key = cache.key_for(
                task, _cache_parameter(grid[point_outcome.index]), None
            )
            value = cache.get(key)
            if value is not cache.MISS:
                values_by_index[point_outcome.index] = value
    finished = [
        _FinishedPoint(
            index=o.index, ok=o.ok and o.index in values_by_index,
            cached=o.cached, retries=o.retries, error=o.error,
            value=values_by_index.get(o.index),
        )
        for o in outcomes
    ]
    result_key = sweep_result_key(record.work_hash)
    if cache.get(result_key) is cache.MISS:
        cache.put(result_key, _assemble_result(record.spec, finished))
    from dataclasses import replace

    final = replace(record, result_key=result_key).advanced(
        phase="done", finished_at=time.time(),
        total=len(record.spec.values),
        completed=len(finished),
        cache_hits=sum(1 for o in finished if o.cached),
    )
    store.update(final)


class _FinishedPoint:
    """Outcome-shaped shim feeding the pump's result assembler."""

    __slots__ = ("index", "ok", "cached", "retries", "error", "value")

    def __init__(self, index, ok, cached, retries, error, value) -> None:
        self.index = index
        self.ok = ok
        self.cached = cached
        self.retries = retries
        self.error = error
        self.value = value
