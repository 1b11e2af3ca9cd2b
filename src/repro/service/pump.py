"""The worker pump: claims queued jobs and drives them to a terminal phase.

The glue between the durable :class:`~repro.service.store.JobStore`
and the execution stack.  Each iteration of a pump worker thread reads
one snapshot of the live (queued and running) jobs — finished rows are
never read — shares it between the fabric tick and the scheduler
(:func:`~repro.service.scheduler.select_next`), wins the best claimable
job with the store's atomic claim, and executes the sweep through
:func:`repro.analysis.run_sweep_outcomes` — the same cache-first,
batched-kernel path the CLI uses.  Each settled group of points (the
cache hits, then each executor round) lands in the store as one
transaction of outcome rows plus live progress, so a status poll
mid-job shows progress and a crash loses at most the points not yet
cached.

The pump is push-driven at both ends: an idle worker sleeps on a wake
event that a submit, a cancel or :meth:`WorkerPump.stop` sets (the
``poll_interval`` timeout only bounds how stale its view of other
processes' writes can get), and every job it settles — executed, or a
fabric job finalized or failed by the tick — is announced on
:attr:`WorkerPump.settled`, where the HTTP long-poll waits.

Result blobs are written through the checksummed
:class:`~repro.engine.ResultCache` under a key derived from the job's
``work_hash``; a deduplicated follower job therefore finds both its
per-point values *and* its finished table already cached, and
completes with zero recomputes.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator

from ..errors import TaskCancelled, WatchdogTimeout
from .health import resilience_snapshot
from .jobs import JobRecord
from .scheduler import SchedulerPolicy, select_next
from .store import JobStore, PointOutcome

__all__ = ["SettleBoard", "WorkerPump", "execute_job", "sweep_result_key"]

logger = logging.getLogger(__name__)


def sweep_result_key(work_hash: str) -> str:
    """Result-cache key of a job's finished sweep table.

    A pure function of the idempotency key, so every job asking for the
    same computation — resubmissions, other tenants — reads and writes
    one blob.
    """
    from ..engine.cache import stable_hash

    return stable_hash("repro-job-result", work_hash)


def _point_health(outcome) -> dict[str, Any]:
    """PR-5 channel-health verdict for one settled grid point."""
    from ..core.health import STATUS_FAILED, STATUS_OK, ChannelHealth

    if outcome.ok:
        health = ChannelHealth(channel=outcome.index, status=STATUS_OK,
                               retries=outcome.retries)
    else:
        if isinstance(outcome.error, WatchdogTimeout):
            reason = "timeout"
        elif isinstance(outcome.error, TaskCancelled):
            reason = "cancelled"
        else:
            reason = "task-error"
        health = ChannelHealth(
            channel=outcome.index, status=STATUS_FAILED, reason=reason,
            detail=str(outcome.error), retries=outcome.retries,
        )
    return {
        "channel": health.channel,
        "status": health.status,
        "reason": health.reason,
        "detail": health.detail,
        "retries": health.retries,
    }


def _assemble_result(spec, outcomes) -> dict[str, Any]:
    """The job's result payload: a JSON-ready sweep table + point verdicts.

    Failed points hold ``None`` in every column (the NaN-poisoning
    idea from array assays: a sick point can never be mistaken for a
    measurement), and the per-point section says why.
    """
    columns: dict[str, list] = {}
    names: list[str] | None = None
    for outcome in outcomes:
        if outcome.ok:
            names = list(outcome.value)
            break
    if names is not None:
        for name in names:
            columns[name] = [
                (None if not o.ok else _json_number(o.value[name]))
                for o in outcomes
            ]
    return {
        "parameter_name": spec.path,
        "parameters": list(spec.values),
        "columns": columns,
        "points": [
            {
                "index": o.index,
                "ok": o.ok,
                "cached": o.cached,
                "retries": o.retries,
                "error": "" if o.ok else str(o.error),
            }
            for o in outcomes
        ],
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


def execute_job(
    record: JobRecord,
    store: JobStore,
    cache,
    cancel_event: threading.Event | None = None,
) -> JobRecord:
    """Run one claimed job to a terminal phase; returns the final record.

    The record must already be in phase ``running`` (claimed).  Every
    grid point settles as a persisted
    :class:`~repro.service.store.PointOutcome`, one store transaction
    per settled group (outcome rows plus progress); the finished table goes
    through the result cache; the final state carries progress
    counters, the engine resilience snapshot, and — on unexpected
    infrastructure errors — the captured exception text under phase
    ``failed``.  Per-point task errors are *not* job failures: the
    per-task error-capture ethos of the executor carries through, and
    a job with sick points finishes ``done`` with its casualties
    flagged.
    """
    from ..analysis import LoopSweepTask, override_grid, run_sweep_outcomes
    from .jobs import device_spec_from_dict

    spec = record.spec
    state_lock = threading.Lock()
    counters = {"completed": 0, "failed": 0, "cache_hits": 0, "retries": 0}

    def on_settled(group) -> None:
        rows = [
            PointOutcome(
                index=outcome.index, ok=outcome.ok, cached=outcome.cached,
                retries=outcome.retries,
                error="" if outcome.ok else str(outcome.error),
                health=_point_health(outcome),
            )
            for outcome in group
        ]
        with state_lock:
            for outcome in group:
                counters["completed"] += 1
                counters["retries"] += outcome.retries
                if outcome.cached:
                    counters["cache_hits"] += 1
                if not outcome.ok:
                    counters["failed"] += 1
            live = record.advanced(
                total=len(spec.values), **counters
            )
        store.record_outcomes(record.job_id, rows, record=live)

    def cancelled() -> bool:
        return cancel_event is not None and cancel_event.is_set()

    try:
        base = device_spec_from_dict(spec.base)
        grid = override_grid(base, spec.path, list(spec.values))
        task = LoopSweepTask(duration=spec.duration)
        outcomes = run_sweep_outcomes(
            grid,
            task,
            workers=spec.workers,
            backend=spec.backend,
            cache=cache,
            timeout=spec.timeout,
            retry=spec.retries,
            progress=on_settled,
            cancel=cancelled if cancel_event is not None else None,
        )
    except Exception as err:  # noqa: BLE001 - a job must always settle
        logger.exception("job %s failed", record.job_id)
        final = record.advanced(
            phase="failed", error=f"{type(err).__name__}: {err}",
            finished_at=time.time(), total=len(spec.values), **counters,
        )
        final = _with_resilience(final)
        store.update(final)
        return final

    was_cancelled = any(
        isinstance(o.error, TaskCancelled) for o in outcomes if not o.ok
    )

    result_key = sweep_result_key(record.work_hash)
    final = record
    if not was_cancelled:
        # idempotent result write: dedup followers find the blob cached
        if cache.get(result_key) is cache.MISS:
            cache.put(result_key, _assemble_result(spec, outcomes))
        final = replace(record, result_key=result_key)

    final = final.advanced(
        phase="cancelled" if was_cancelled else "done",
        finished_at=time.time(),
        total=len(spec.values),
        **counters,
    )
    final = _with_resilience(final)
    store.update(final)
    return final


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
        Pump worker *threads* (job-level concurrency).  Each job's
        internal parallelism is the executor's business; the default of
        1 keeps a small box from multiplying parallelism.
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
        self.workers = max(1, int(workers))
        self.poll_interval = poll_interval
        #: Where long-polls wait for the jobs this pump settles.
        self.settled = SettleBoard()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: list[threading.Thread] = []
        self._cancel_events: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        # coordinator-duty counters, surfaced in /healthz ("fabric")
        self.fabric_stats: dict[str, int] = {
            "ticks": 0, "leases_expired": 0,
            "jobs_finalized": 0, "jobs_failed": 0,
        }

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
            live = {
                r.job_id: r
                for r in self.store.list_jobs(phase=("queued", "running"))
            }
            try:
                self._fabric_tick(live)
            except Exception:  # pragma: no cover - tick must never kill pump
                logger.exception("fabric tick failed")
            record = self._claim_next(live)
            if record is None:
                self._wake.wait(self.poll_interval)
                continue
            event = threading.Event()
            if record.state.cancel_requested:
                event.set()
            with self._lock:
                self._cancel_events[record.job_id] = event
            try:
                execute_job(record, self.store, self.cache, event)
            except Exception:  # pragma: no cover - execute_job settles jobs
                logger.exception("pump worker crashed on job %s",
                                 record.job_id)
            finally:
                with self._lock:
                    self._cancel_events.pop(record.job_id, None)
                self.settled.notify(record.job_id)

    def _fabric_tick(self, live: dict[str, JobRecord]) -> None:
        """Watchdog + finalizer duty for chunk-leased fabric jobs.

        Fabric jobs are executed by leased :class:`~repro.engine.fabric`
        workers, not by this pump — but the pump is the always-on
        process, so it plays coordinator: expire stale chunk leases
        (dead worker ⇒ chunks requeue), move a queued fabric job to
        ``running`` once workers may lease it, and settle the job when
        every chunk is done (assemble the result blob from the cache)
        or permanently failed.  Only live fabric jobs have leases worth
        expiring, so a tick without one touches no store row.

        ``live`` is the iteration's snapshot; the tick keeps it current
        (a claimed job is replaced, a settled one dropped) for the
        scheduler that reads it next.
        """
        from ..engine.fabric import finalize_fabric_job

        self.fabric_stats["ticks"] += 1
        fabric = [r for r in live.values() if r.spec.fabric]
        if not fabric:
            return
        expired = self.store.expire_chunk_leases()
        if expired:
            self.fabric_stats["leases_expired"] += expired
            logger.info("fabric tick requeued %d expired chunk lease(s)",
                        expired)
        for record in fabric:
            counts = self.store.chunk_counts(record.job_id)
            total = sum(counts.values())
            if not total:
                continue
            if record.state.phase == "queued":
                claimed = self.store.claim(record.job_id)
                if claimed is None:
                    continue
                record = live[record.job_id] = claimed
            if counts.get("done", 0) == total:
                finalize_fabric_job(self.store, self.cache, record)
                self.fabric_stats["jobs_finalized"] += 1
            elif counts.get("failed", 0) and \
                    counts.get("done", 0) + counts["failed"] == total:
                first = next(c for c in self.store.chunks(record.job_id)
                             if c.state == "failed")
                self.store.update(record.advanced(
                    phase="failed", finished_at=time.time(),
                    error=first.error,
                ))
                self.fabric_stats["jobs_failed"] += 1
            else:
                continue
            del live[record.job_id]
            self.settled.notify(record.job_id)

    def _claim_next(self, live: dict[str, JobRecord]) -> JobRecord | None:
        """Claim the scheduler's pick from the live snapshot, if any.

        A dedup follower whose primary is outside the snapshot is
        released without a lookup: the snapshot is one statement, a
        primary is always submitted before its followers, and a job
        never leaves a terminal phase — so that primary is terminal,
        which is what the scheduler assumes of an unlisted primary.
        """
        queued = [r for r in live.values()
                  if r.state.phase == "queued" and not r.spec.fabric]
        if not queued:
            return None
        running = [r for r in live.values() if r.state.phase == "running"]
        # walk the eligible ranking until a CAS claim wins (another
        # worker may take the front-runner between snapshot and claim)
        while True:
            best = select_next(queued, running, self.policy)
            if best is None:
                return None
            claimed = self.store.claim(best.job_id)
            if claimed is not None:
                return claimed
            queued = [r for r in queued if r.job_id != best.job_id]
