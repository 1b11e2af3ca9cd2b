"""Chunk-leasing execution: how every job's grid gets computed.

Every job — submitted to ``repro serve`` or run by ``repro sweep
--fabric`` — is a :class:`~repro.service.JobRecord` whose grid the store
split into contiguous ``[start, stop)`` **chunks** when it wrote the job
row (:func:`repro.analysis.plan_chunks`, store schema v3).  One rule set
runs them, whichever node does it:

* :class:`FabricWorker` — a thread of the service pump, a spawned local
  process, or a ``repro worker --db|--url`` node — leases one chunk at a
  time (atomic CAS in the store) and writes every point through the
  checksummed cache under exactly the key :func:`repro.analysis.run_parallel`
  would use.  Cache identity is the whole consistency story: a crash
  mid-grid loses nothing that was cached, and a resumed run re-serves
  those points as hits — zero recomputes, provable from per-tier
  ``cache_info()`` counters.
* A point that raises settles as a failed outcome (``task-error``) and
  its chunk still completes.  A failure outside a point — the grid
  build, a store error, the remote-cache flush barrier — fails the
  chunk: it requeues until ``max_attempts``, is then parked ``failed``,
  and a worker whose chunks keep failing trips its own
  :class:`~repro.engine.CircuitBreaker` (``fabric-worker:<id>``) and
  quarantines itself rather than eating the queue.
* A chunk completes in one store transaction with its points' outcome
  rows and the job's progress count.  The completion that settles the
  job's last chunk hands the job back, and the one finalizer,
  :func:`repro.service.pump.finalize_job`, turns it into its terminal
  record — on the SQLite side; a remote node's coordinator does it for
  the node.  A worker bound to that job returns at once.
* Heartbeats extend a lease once a third of its TTL has passed, and a
  worker that stops heartbeating has its lease expired and requeued by
  the next :meth:`~repro.service.store.JobStore.lease_chunk` that finds
  nothing queued.
* Whether a job has settled is the store's rule alone
  (:func:`~repro.service.store.has_settled`), read through
  :meth:`~repro.service.store.JobStore.chunk_counts`.

:func:`run_fabric_sweep` is the one-call coordinator behind ``repro
sweep --fabric``: submit (or resume) the job, spawn N worker processes,
wait for the chunk table to settle, and build the
:class:`~repro.analysis.SweepResult` from the finished job's result
payload — bit-exact (``np.array_equal``) with the serial reference
path, because workers compute each point solo, as serial sweeps do.

Workers compute leased points solo, one by one.  Every kernel route is
bit-exact to solo fused, so a chunk run as one columnar batch would keep
``fabric == serial`` too; the speed comes from N nodes running N chunks
concurrently, not from per-point batching.
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
    "JobContext",
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


def _fault_seconds(payload, default: float) -> float:
    """A positive seconds value out of a fault payload, else default."""
    try:
        seconds = float(payload)
    except (TypeError, ValueError):
        return default
    return seconds if seconds > 0 else default


def _point_outcome(index: int, cached: bool = False, error: str = ""):
    """One point's outcome row with its channel-health verdict."""
    from ..core.health import STATUS_FAILED, STATUS_OK
    from ..service.store import PointOutcome

    return PointOutcome(
        index=index, ok=not error, cached=cached, error=error,
        health={
            "channel": index,
            "status": STATUS_FAILED if error else STATUS_OK,
            "reason": "task-error" if error else None,
            "detail": error,
            "retries": 0,
        },
    )


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


class JobContext:
    """A job's task and grid, built once from its record.

    Building it is the grid build: an invalid override path or value
    raises here.
    """

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
        The cache results flow through (a :class:`TieredCache`, or any
        :class:`~repro.engine.ResultCache`).  Give remote workers an
        :class:`~repro.engine.HTTPRemoteStore` tier pointed at the
        coordinator's server — the cache *is* the result transport.
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
    context:
        A :class:`JobContext` the caller already built: the worker is
        bound to its job and reads no job row for it.
    cancel:
        An event polled between points.  Once set, the worker gives
        its chunk back, settles the job if that was its last open
        chunk, and returns.
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
        context: JobContext | None = None,
        cancel=None,
        points_limit: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.worker_id = worker_id or fabric_worker_id()
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        self.max_attempts = int(max_attempts)
        self.job_id = context.job_id if context is not None else job_id
        self.cancel = cancel
        self.points_limit = points_limit
        self.retry = retry or RetryPolicy(retries=2, base_delay=0.02)
        self.breaker: CircuitBreaker = get_breaker(
            f"fabric-worker:{self.worker_id}", threshold=breaker_threshold
        )
        self.stats = WorkerStats(worker_id=self.worker_id)
        #: The bound job's terminal record, once this worker finalized it.
        self.final = None
        self._contexts: dict[str, JobContext] = {}
        if context is not None:
            self._contexts[context.job_id] = context
        self._done = False

    # -- leasing loop ---------------------------------------------------------

    def run(self, *, max_chunks: int | None = None,
            idle_exit: float | None = None) -> WorkerStats:
        """Lease and execute chunks until told (or starved) to stop.

        Returns after ``max_chunks`` chunks, after ``idle_exit``
        seconds without winning a lease (``None`` = one idle poll),
        immediately upon self-quarantine or a cancel, or — for a worker
        bound to one ``job_id`` — as soon as that job has settled,
        however long ``idle_exit`` is.
        """
        idle_since: float | None = None
        while not self._done:
            if not self.breaker.allow():
                self.stats.quarantined = True
                logger.warning("worker %s quarantined: %s", self.worker_id,
                               self.breaker.last_failure_reason)
                break
            if max_chunks is not None and \
                    self.stats.chunks_done + self.stats.chunks_failed >= max_chunks:
                break
            lease = self._store_call(
                self.store.lease_chunk, self.worker_id, self.lease_seconds,
                self.job_id,
            )
            if lease is None:
                # a bound job that settled needs no idle timer; an
                # unbound worker serves a queue that can grow
                if self.job_id is not None and self._store_call(
                        self.store.chunk_counts, self.job_id).settled:
                    self._finalize(self._store_call(
                        self.store.settled_job, self.job_id))
                    break
                if idle_exit is None:
                    break
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= idle_exit:
                    break
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            self._execute_chunk(lease)
        return self.stats

    def _store_call(self, fn, *args):
        """One store round-trip through the seeded retry policy."""
        return self.retry.run(fn, *args, key=self.worker_id)

    def _finalize(self, settled) -> None:
        """Finalize a settled job (the store's snapshot; None: not yet)."""
        from ..service.pump import finalize_job

        if settled is None:
            return
        job_id = settled.record.job_id
        final = finalize_job(self.store, self.cache, settled,
                             self._contexts.get(job_id))
        if job_id == self.job_id:
            self.final = final

    # -- one chunk ------------------------------------------------------------

    def _execute_chunk(self, lease) -> None:
        try:
            context = self._context_for(lease.job_id)
            # lease-clock-skew fault: this worker's heartbeats extend
            # the lease by almost nothing, so an expiry sweep races
            # every slow point
            ttl = self.lease_seconds
            skew = poll_fault("fabric.lease")
            if skew is not None:
                ttl = _fault_seconds(skew.payload, 0.05)
                logger.warning(
                    "worker %s lease clock skew injected on %s/%d: "
                    "heartbeat TTL collapsed to %.3fs",
                    self.worker_id, lease.job_id, lease.chunk_id, ttl,
                )
            outcomes = self._run_points(context, lease, ttl)
            if outcomes is not None and len(outcomes) == lease.size:
                self._flush_cache_barrier(lease)
        except Exception as err:  # noqa: BLE001 - chunk-level capture
            reason = f"{type(err).__name__}: {err}"
            logger.warning("worker %s failed chunk %s/%d: %s",
                           self.worker_id, lease.job_id, lease.chunk_id,
                           reason)
            self.stats.chunks_failed += 1
            self.stats.errors.append(reason)
            self.breaker.record_failure(reason)
            self._give_back(lease, reason)
            return
        if outcomes is None:
            # lease lost mid-chunk (counted in _run_points): never ack
            # a chunk someone else may be re-running — the cached
            # points stand and the next owner gets hits
            return
        if len(outcomes) < lease.size:
            # cancelled between points: the chunk goes back unleasable
            logger.info("worker %s stopped %s/%d on cancel", self.worker_id,
                        lease.job_id, lease.chunk_id)
            self._done = True
            self._give_back(lease, "cancelled")
            return
        if poll_fault("fabric.complete") is not None:
            # lost-ack fault: the completion lands but the worker never
            # hears back, so it retries — the store's idempotent
            # complete_chunk must acknowledge the duplicate
            self._store_call(
                self.store.complete_chunk, lease.job_id, lease.chunk_id,
                self.worker_id, outcomes,
            )
            logger.warning(
                "worker %s completion ack lost for %s/%d: retrying "
                "(duplicate completion)",
                self.worker_id, lease.job_id, lease.chunk_id,
            )
        completion = self._store_call(
            self.store.complete_chunk, lease.job_id, lease.chunk_id,
            self.worker_id, outcomes,
        )
        if completion.ok:
            self.stats.chunks_done += 1
            self.breaker.record_success()
        else:
            # lease expired mid-chunk (slow point, expiry sweep): the
            # points are cached, so whoever re-runs the chunk gets hits
            self.stats.leases_lost += 1
            logger.info("worker %s lost lease on %s/%d after computing it",
                        self.worker_id, lease.job_id, lease.chunk_id)
        self._finalize(completion.job)
        if completion.settled and lease.job_id == self.job_id:
            self._done = True

    def _give_back(self, lease, reason: str) -> None:
        """Return a held chunk to the store, then settle its job if due.

        A parked chunk, or a cancel, may have been the job's last open
        chunk.
        """
        try:
            self._store_call(
                self.store.fail_chunk, lease.job_id, lease.chunk_id,
                self.worker_id, reason, self.max_attempts,
            )
            self._finalize(self._store_call(self.store.settled_job,
                                            lease.job_id))
        except Exception:  # noqa: BLE001 - the lease will expire instead
            logger.exception("could not give back chunk %s/%d",
                             lease.job_id, lease.chunk_id)

    def _context_for(self, job_id: str) -> JobContext:
        context = self._contexts.get(job_id)
        if context is None:
            record = self._store_call(self.store.get, job_id)
            if record is None:
                raise FabricError(f"chunk references unknown job {job_id!r}")
            context = JobContext(record)
            self._contexts[job_id] = context
        return context

    def _run_points(self, context: JobContext, lease,
                    lease_ttl: float | None = None) -> list | None:
        """Compute/serve the chunk's points; their outcome rows.

        The list is shorter than the chunk when a cancel stopped the
        worker between points.  None means the lease was lost
        mid-chunk (heartbeat refused, or the heartbeat itself
        vanished) — the caller must NOT complete the chunk: every point
        reached is already cached, and whoever re-leases the chunk
        re-serves them as hits.
        """
        from ..analysis.sweep import _cache_parameter

        ttl = self.lease_seconds if lease_ttl is None else lease_ttl
        task, grid = context.task, context.grid
        if not 0 <= lease.start <= lease.stop <= len(grid):
            raise FabricError(
                f"chunk [{lease.start}:{lease.stop}) is outside the "
                f"{len(grid)}-point grid of job {lease.job_id!r}"
            )
        outcomes = []
        last_beat = time.monotonic()  # the lease is the first beat
        for index in range(lease.start, lease.stop):
            if self.cancel is not None and self.cancel.is_set():
                break
            spec = grid[index]
            key = self.cache.key_for(task, _cache_parameter(spec), None)
            value = self.cache.get(key)
            if value is not self.cache.MISS:
                self.stats.points_cached += 1
                outcomes.append(_point_outcome(index, cached=True))
            else:
                outcomes.append(self._compute_point(task, spec, key, index))
            beat_lost = poll_fault("fabric.heartbeat") is not None
            if not beat_lost and time.monotonic() - last_beat >= ttl / 3:
                beat_lost = not self._store_call(
                    self.store.heartbeat_chunk, lease.job_id, lease.chunk_id,
                    self.worker_id, ttl,
                )
                last_beat = time.monotonic()
            if beat_lost:
                # lease lost: stop touching the chunk; cached points stand
                self.stats.leases_lost += 1
                logger.info("worker %s lost lease on %s/%d mid-chunk",
                            self.worker_id, lease.job_id, lease.chunk_id)
                return None
        return outcomes

    def _compute_point(self, task, spec, key, index: int):
        """One fresh point, solo — bit-identical to the serial path."""
        try:
            value = task(spec)
        except Exception as err:  # noqa: BLE001 - per-point capture
            logger.info("worker %s: point %d raised %s", self.worker_id,
                        index, err)
            return _point_outcome(index, error=f"{type(err).__name__}: {err}")
        self.cache.put(key, value)
        self.stats.points_computed += 1
        if poll_fault("fabric.crash") is not None:
            # die in the worst window: point cached, chunk not
            # completed — resume must serve it as a hit
            logger.warning("worker %s injected crash after caching point %d",
                           self.worker_id, index)
            os._exit(CRASH_EXIT_CODE)
        if self.points_limit is not None and \
                self.stats.points_computed >= self.points_limit:
            logger.warning("worker %s crash rehearsal after %d points",
                           self.worker_id, self.stats.points_computed)
            os._exit(CRASH_EXIT_CODE)
        return _point_outcome(index)

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
    """Create (or resume) a sweep job; its record.

    The store plans the chunk rows with the job row.  Resubmitting an
    identical grid reuses the existing non-terminal job — its chunk
    rows, lease states, and cached points, as first planned, whatever
    ``chunk_size`` the resume asks for — so a crashed coordinator
    resumes instead of duplicating work.
    """
    from ..service.jobs import JobRecord, JobSpec, JobState, new_job_id

    spec = JobSpec(
        base=base_spec.to_dict(), path=path,
        values=tuple(float(v) for v in values), duration=duration,
        tenant=tenant, chunk_size=int(chunk_size),
    )
    for candidate in store.find_by_work_hash(spec.work_hash()):
        if not candidate.state.terminal:
            return candidate
    record = JobRecord(
        job_id=new_job_id(), spec=spec,
        state=JobState(total=len(spec.values), submitted_at=time.time()),
    )
    store.put(record)
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

    The ``repro sweep --fabric`` path: submits (or resumes) the job on
    the store at ``db``, spawns ``workers`` local worker processes
    sharing the tiered cache at ``cache_dir``, waits for the chunk
    table to settle, and builds the table from the finished job's
    result payload.  Bit-exact with the serial path; any point already
    cached — by a previous run, a killed worker, or the service pump —
    is never recomputed.  Raises :class:`~repro.errors.FabricError`
    when a chunk was parked or a point failed.

    ``workers=0`` runs the chunks in-process (no subprocesses), which
    is also the degraded path when a worker cannot be spawned.
    """
    import multiprocessing

    from ..analysis import SweepResult
    from ..service.pump import finalize_job
    from ..service.store import open_job_store

    store = open_job_store(db)
    if cache is None:
        cache = TieredCache(cache_dir)
    record = submit_fabric_job(
        store, base_spec, path, values, duration=duration,
        chunk_size=chunk_size,
    )

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
        # the worker that settled the job finalized it; finalize_job is
        # idempotent, and covers a finalizer that died first
        final = finalize_job(store, cache, store.settled_job(record.job_id))
    finally:
        # workers leave on their own once the job settles; an idle
        # sibling still noticing that overlaps the finalization above
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        store.close()
    if final.state.phase == "failed":
        raise FabricError(
            f"fabric job {final.job_id} failed permanently: "
            f"{final.state.error}"
        )
    if final.state.phase != "done":
        raise FabricError(f"fabric job {final.job_id} was cancelled")
    payload = cache.get(final.result_key)
    if payload is cache.MISS:  # pragma: no cover - finalize just wrote it
        raise FabricError(f"result blob of job {final.job_id} is missing")
    for point in payload["points"]:
        if not point["ok"]:
            index = point["index"]
            raise FabricError(
                f"point {index} ({path}={payload['parameters'][index]!r}) "
                f"failed: {point['error']}"
            )
    return SweepResult(
        parameter_name=parameter_name if parameter_name is not None else path,
        parameters=list(payload["parameters"]),
        columns={name: list(column)
                 for name, column in payload["columns"].items()},
    )


def _await_settled(store, cache, job_id: str, procs: list, *,
                   lease_seconds: float, max_attempts: int,
                   wait_timeout: float, poll_interval: float) -> None:
    """Block until ``job_id`` has settled (the store's rule).

    A spawned worker exits as soon as the job settles, so waiting on
    the workers' exit sentinels wakes the coordinator the moment the
    last one leaves; the ``poll_interval`` timeout still re-reads the
    chunk table while they work.  With no live worker (``workers=0``,
    crashes, OOM) the remaining chunks run in this process rather than
    hang.
    """
    deadline = time.monotonic() + wait_timeout
    while True:
        counts = store.chunk_counts(job_id)
        if counts.settled:
            return
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
