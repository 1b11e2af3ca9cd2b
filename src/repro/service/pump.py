"""The worker pump, and the one finalizer every job settles through.

The glue between the durable :class:`~repro.service.store.JobStore`
and the execution stack.  Each iteration of a pump worker thread reads
one snapshot of the live (queued and running) jobs — finished rows are
never read — lets the scheduler
(:func:`~repro.service.scheduler.select_next`) pick from it, wins the
best claimable job with the store's atomic claim, and runs it with
:func:`execute_job`: an in-process
:class:`~repro.engine.fabric.FabricWorker` bound to the job leases its
chunks from the same table ``repro worker`` nodes lease from, and
computes each chunk's cache misses in one batch call.  Each chunk lands
in the store as one transaction of outcome rows plus the job's
progress, so a status poll mid-job shows progress and a crash loses at
most the points not yet cached.  A thread with nothing to claim joins
a running job a worker node started, so the job finishes should the
node die.

:func:`finalize_job` turns a job whose chunks have all settled into its
terminal record — whichever node completed the last chunk: this pump's
thread, a local worker process, or, through the HTTP handlers, a
remote node.  It is idempotent.

The pump is push-driven at both ends: an idle worker sleeps on a wake
event that a submit, a cancel or :meth:`WorkerPump.stop` sets (the
``poll_interval`` timeout only bounds how stale its view of other
processes' writes can get), and every job it runs is announced on
:attr:`WorkerPump.settled`, where the HTTP long-poll waits.  A pump
with zero workers runs no thread: jobs then run only on ``repro worker
--url`` nodes, and the server's chunk handlers announce the settles.

Result blobs are written through the checksummed
:class:`~repro.engine.TieredCache` under a key derived from the job's
``work_hash``; a deduplicated follower job therefore finds both its
per-point values *and* its finished table already cached, and
completes with zero recomputes.
"""

from __future__ import annotations

import logging
import math
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator

from .health import resilience_snapshot
from .jobs import JobRecord
from .scheduler import SchedulerPolicy, select_next
from .store import JobStore, SettledJob

__all__ = [
    "SettleBoard",
    "WorkerPump",
    "execute_job",
    "finalize_job",
    "sweep_result_key",
]

logger = logging.getLogger(__name__)


def sweep_result_key(work_hash: str) -> str:
    """Result-cache key of a job's finished sweep table.

    A pure function of the idempotency key, so every job asking for the
    same computation — resubmissions, other tenants — reads and writes
    one blob.
    """
    from ..engine.cache import stable_hash

    return stable_hash("repro-job-result", work_hash)


def _assemble_result(record: JobRecord, outcomes, values) -> dict[str, Any]:
    """The job's result payload: a JSON-ready sweep table + point verdicts.

    ``values`` maps grid index to the cached value of each ok point.
    Failed points hold ``None`` in every column (the NaN-poisoning
    idea from array assays: a sick point can never be mistaken for a
    measurement), and the per-point section says why.
    """
    spec = record.spec
    by_index = {o.index: o for o in outcomes}
    points = []
    for index in range(len(spec.values)):
        outcome = by_index.get(index)
        ok = index in values
        if outcome is None:
            error = "no outcome recorded"
        elif outcome.ok and not ok:
            error = "value missing from the cache"
        else:
            error = outcome.error
        points.append({
            "index": index,
            "ok": ok,
            "cached": outcome is not None and outcome.cached,
            "retries": outcome.retries if outcome is not None else 0,
            "error": "" if ok else error,
        })
    columns: dict[str, list] = {}
    if values:
        for name in values[min(values)]:
            columns[name] = [
                _json_number(values[i][name]) if i in values else None
                for i in range(len(spec.values))
            ]
    return {
        "parameter_name": spec.path,
        "parameters": list(spec.values),
        "columns": columns,
        "points": points,
    }


def _json_number(value):
    """Coerce numpy scalars to plain JSON numbers; leave the rest alone."""
    try:
        import numpy as np

        if isinstance(value, np.generic):
            return value.item()
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    return value


def finalize_job(store: JobStore, cache, settled: SettledJob | None,
                 context=None) -> JobRecord | None:
    """Turn a settled job into its terminal record; returns that record.

    None (a job not settled yet) finalizes nothing and returns None.
    Idempotent: a record already terminal is returned untouched.
    Otherwise the job ends ``cancelled`` if a cancel was requested,
    ``failed`` with the first parked chunk's error if a chunk was
    parked, and ``done`` otherwise — its result payload written once
    under :func:`sweep_result_key` before the record says so.  The
    record carries the engine's resilience snapshot.  The write is a
    compare-and-swap (:meth:`~repro.service.store.JobStore.finish`): of
    racing finalizers the first wins.  ``context`` is the job's
    :class:`~repro.engine.fabric.JobContext`, when the caller already
    built it.
    """
    if settled is None:
        return None
    record = settled.record
    if record.state.terminal:
        return record
    now = time.time()
    if record.state.cancel_requested:
        final = record.advanced(phase="cancelled", finished_at=now)
    elif settled.error:
        final = record.advanced(phase="failed", error=settled.error,
                                finished_at=now)
    else:
        result_key = sweep_result_key(record.work_hash)
        if cache.get(result_key) is cache.MISS:
            cache.put(result_key, _assemble_result(
                record, settled.outcomes,
                _point_values(cache, settled, context),
            ))
        final = replace(record, result_key=result_key).advanced(
            phase="done", finished_at=now)
    return store.finish(_with_resilience(final))


def _point_values(cache, settled: SettledJob, context=None) -> dict:
    """The cached value of every ok point of a settled job, by index."""
    from ..analysis.sweep import _cache_parameter
    from ..engine.fabric import JobContext

    if context is None:
        context = JobContext(settled.record)
    values = {}
    for outcome in settled.outcomes:
        if not outcome.ok:
            continue
        key = cache.key_for(
            context.task, _cache_parameter(context.grid[outcome.index]), None
        )
        value = cache.get(key)
        if value is not cache.MISS:
            values[outcome.index] = value
    return values


def _pump_worker_id() -> str:
    """This pump thread's worker identity, the same for every job."""
    return (f"pump-{socket.gethostname()}-{os.getpid()}-"
            f"{threading.current_thread().name}")


def execute_job(
    record: JobRecord,
    store: JobStore,
    cache,
    cancel_event: threading.Event | None = None,
) -> JobRecord:
    """Run one claimed job to a terminal phase; returns its record.

    Builds the job's grid once — a build error fails the job at once,
    with its error text — then runs a
    :class:`~repro.engine.fabric.FabricWorker` bound to the job on this
    thread: it leases the job's chunks, computes each chunk's cache
    misses in one batch call, and completes each chunk with its outcome
    rows.  The completion that settles the job finalizes it
    (:func:`finalize_job`).  Per-point task errors are *not* job
    failures: a job with sick points finishes ``done`` with its
    casualties flagged.  ``cancel_event`` stops the worker at the next
    chunk boundary.  The thread's circuit breaker is reset first, so it
    caps one job's chunk failures and never carries a quarantine into
    the next job.  A job that other
    nodes still hold chunks of when this thread is done with it is
    settled by their completions instead; its current record is
    returned then.
    """
    from ..engine.fabric import FabricWorker, JobContext

    try:
        context = JobContext(record)
    except Exception as err:  # noqa: BLE001 - a job must always settle
        logger.exception("job %s failed", record.job_id)
        return _fail(store, record, f"{type(err).__name__}: {err}")
    worker = FabricWorker(store, cache, worker_id=_pump_worker_id(),
                          context=context, cancel=cancel_event)
    worker.breaker.reset()
    error = None
    try:
        if worker.run(idle_exit=math.inf).quarantined:
            error = (f"pump worker quarantined: "
                     f"{worker.breaker.last_failure_reason}")
    except Exception as err:  # noqa: BLE001 - a job must always settle
        logger.exception("job %s failed", record.job_id)
        error = f"{type(err).__name__}: {err}"
    if worker.final is not None:
        return worker.final
    current = store.get(record.job_id) or record
    if error is not None and not current.state.terminal:
        return _fail(store, current, error)
    return current


def _fail(store: JobStore, record: JobRecord, error: str) -> JobRecord:
    """Settle a job ``failed`` with ``error``, unless it already ended."""
    return store.finish(_with_resilience(record.advanced(
        phase="failed", error=error, finished_at=time.time())))


def _with_resilience(record: JobRecord) -> JobRecord:
    """Attach the engine's current resilience snapshot to the record."""
    return replace(record, resilience=resilience_snapshot())


class SettleBoard:
    """Wakes the threads waiting for a job to settle.

    The pump :meth:`notify`-s every job it settles; a long-polling
    status request :meth:`watch`-es the job it waits for.  Per-job
    events, so a settle wakes only that job's waiters.  :meth:`close`
    wakes every waiter for good (service shutdown), :meth:`open` re-arms.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: dict[str, set[threading.Event]] = {}
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @contextmanager
    def watch(self, job_id: str) -> Iterator[threading.Event]:
        """An event set when ``job_id`` settles or the board closes.

        Register before reading the job's state, so a settle between
        the read and the wait is not missed.
        """
        event = threading.Event()
        with self._lock:
            if self._closed:
                event.set()
            self._waiters.setdefault(job_id, set()).add(event)
        try:
            yield event
        finally:
            with self._lock:
                waiters = self._waiters[job_id]
                waiters.discard(event)
                if not waiters:
                    del self._waiters[job_id]

    def notify(self, job_id: str) -> None:
        with self._lock:
            for event in self._waiters.get(job_id, ()):
                event.set()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for waiters in self._waiters.values():
                for event in waiters:
                    event.set()

    def open(self) -> None:
        with self._lock:
            self._closed = False


class WorkerPump:
    """Background workers turning queued jobs into finished ones.

    Parameters
    ----------
    store / cache:
        The durable job store and the result cache every execution
        flows through.
    policy:
        Scheduler fairness knobs (tenant quotas).
    workers:
        Pump worker *threads* (job-level concurrency).  Each runs one
        job at a time, chunk by chunk, until the job settles; the
        default of 1 keeps a small box from multiplying parallelism.
        0 runs no thread: jobs then run only on ``repro worker --url``
        nodes.
    poll_interval:
        Longest idle wait [s] before a worker re-reads the store.  An
        in-process submit or cancel wakes it at once (:meth:`wake`);
        the interval bounds how long a job submitted or settled by
        another process goes unnoticed.
    """

    def __init__(
        self,
        store: JobStore,
        cache,
        policy: SchedulerPolicy | None = None,
        workers: int = 1,
        poll_interval: float = 0.05,
    ) -> None:
        self.store = store
        self.cache = cache
        self.policy = policy or SchedulerPolicy()
        self.workers = max(0, int(workers))
        self.poll_interval = poll_interval
        #: Where long-polls wait for the jobs this pump settles.
        self.settled = SettleBoard()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: list[threading.Thread] = []
        self._cancel_events: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Re-queue orphans and launch the worker threads (idempotent)."""
        if self._threads:
            return
        orphans = self.store.requeue_running()
        if orphans:
            logger.info("re-queued %d job(s) orphaned by a previous process",
                        orphans)
        self._stop.clear()
        self.settled.open()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-pump-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Release every waiter, then wait for in-flight jobs to settle."""
        self._stop.set()
        self._wake.set()
        self.settled.close()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    @property
    def alive(self) -> bool:
        """True while at least one worker thread is running."""
        return any(t.is_alive() for t in self._threads)

    def wake(self) -> None:
        """Cut an idle worker's wait short (new work may be claimable)."""
        self._wake.set()

    def executing(self, job_id: str) -> bool:
        """True while one of this pump's workers executes ``job_id``."""
        with self._lock:
            return job_id in self._cancel_events

    def request_cancel(self, job_id: str) -> None:
        """Flip the in-process cancel flag of a running job (if ours)."""
        with self._lock:
            event = self._cancel_events.get(job_id)
        if event is not None:
            event.set()

    # -- the loop ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            # cleared before the snapshot: a submit landing after this
            # line sets the event again and the wait below falls through
            self._wake.clear()
            live = self.store.list_jobs(phase=("queued", "running"))
            record = self._claim_next(live) or self._adopt(live)
            if record is None:
                self._wake.wait(self.poll_interval)
                continue
            with self._lock:
                event = self._cancel_events[record.job_id]
            if record.state.cancel_requested:
                event.set()
            try:
                execute_job(record, self.store, self.cache, event)
            except Exception:  # pragma: no cover - execute_job settles jobs
                logger.exception("pump worker crashed on job %s",
                                 record.job_id)
            finally:
                with self._lock:
                    self._cancel_events.pop(record.job_id, None)
                self.settled.notify(record.job_id)

    def _claim_next(self, live: list[JobRecord]) -> JobRecord | None:
        """Claim the scheduler's pick from the live snapshot, if any.

        A dedup follower whose primary is outside the snapshot is
        released without a lookup: the snapshot is one statement, a
        primary is always submitted before its followers, and a job
        never leaves a terminal phase — so that primary is terminal,
        which is what the scheduler assumes of an unlisted primary.
        """
        queued = [r for r in live if r.state.phase == "queued"]
        if not queued:
            return None
        running = [r for r in live if r.state.phase == "running"]
        # walk the eligible ranking until a CAS claim wins (another
        # worker may take the front-runner between snapshot and claim,
        # or a sibling thread adopt it right after)
        while True:
            best = select_next(queued, running, self.policy)
            if best is None:
                return None
            claimed = self.store.claim(best.job_id)
            if claimed is not None and self._enter(best.job_id):
                return claimed
            queued = [r for r in queued if r.job_id != best.job_id]

    def _adopt(self, live: list[JobRecord]) -> JobRecord | None:
        """A running job none of this pump's threads executes that has a
        chunk to lease now (queued, or under a lapsed lease) or no lease
        at all, if any: a node's first lease moves a job past the
        scheduler, and should the node die nothing else would finish it.
        """
        now = time.time()
        for record in live:
            if record.state.phase != "running" or \
                    self.executing(record.job_id):
                continue
            chunks = self.store.chunks(record.job_id)
            leases = [c.lease_expires_at for c in chunks
                      if c.state == "leased"]
            if (not leases or min(leases) < now or (
                    not record.state.cancel_requested
                    and any(c.state == "queued" for c in chunks))) \
                    and self._enter(record.job_id):
                return record
        return None

    def _enter(self, job_id: str) -> bool:
        """Mark ``job_id`` executed by the calling thread; False if taken."""
        with self._lock:
            if job_id in self._cancel_events:
                return False
            self._cancel_events[job_id] = threading.Event()
            return True

