"""Durable job store: SQLite today, Postgres-shaped on purpose.

The store is the service's source of truth: every job submission,
state transition, lease chunk and per-point outcome lands here before
the HTTP layer acknowledges it, so a killed server process loses
nothing — on restart the pump re-queues orphaned ``running`` jobs with
their leased chunks, and the result cache makes the replay all hits.

Two layers:

* :class:`JobStore` — the abstract interface the scheduler, pump, and
  HTTP front end program against.  Nothing above this module may issue
  SQL.
* :class:`SQLiteJobStore` — the stdlib implementation.  Schema changes
  ship as ordered :data:`MIGRATIONS` recorded in a
  ``schema_migrations`` table (version + applied-at timestamp), so a
  store created by an older build upgrades in place at open — and a
  Postgres backend can replay the same ordered DDL.  Calls borrow a
  connection (WAL journal, busy timeout) from a small per-store pool
  and return it after the commit, so a store is thread-safe for the
  pump's workers and the HTTP handler threads without paying a
  connect per call, and process-safe for a sibling CLI poking at the
  same file.  The pool is fork-aware: a forked child never touches
  its parent's connections and opens its own.

Result *blobs* do not live here: finished sweep tables are written
through the checksummed :class:`~repro.engine.ResultCache` and the row
keeps only the cache key (``result_key``) — the store stays small and
the blobs inherit the cache's corruption detection.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sqlite3
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..engine.resilience import RetryPolicy, poll_fault
from ..errors import ServiceError
from .jobs import JobRecord, JobSpec, JobState

logger = logging.getLogger(__name__)

__all__ = [
    "CHUNK_STATES",
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "ChunkCompletion",
    "ChunkCounts",
    "ChunkRow",
    "JobStore",
    "PointOutcome",
    "SQLiteJobStore",
    "SettledJob",
    "has_settled",
    "open_job_store",
]

#: Ordered, append-only schema history.  Never edit a shipped entry —
#: add a new version; existing stores apply only what they are missing.
MIGRATIONS: tuple[tuple[int, tuple[str, ...]], ...] = (
    (
        1,
        (
            """
            CREATE TABLE IF NOT EXISTS jobs (
                job_id        TEXT PRIMARY KEY,
                tenant        TEXT NOT NULL,
                priority      INTEGER NOT NULL DEFAULT 0,
                phase         TEXT NOT NULL,
                work_hash     TEXT NOT NULL,
                dedup_of      TEXT,
                result_key    TEXT,
                spec_json     TEXT NOT NULL,
                state_json    TEXT NOT NULL,
                submitted_at  REAL NOT NULL,
                updated_at    REAL NOT NULL
            )
            """,
            "CREATE INDEX IF NOT EXISTS idx_jobs_phase ON jobs (phase)",
            "CREATE INDEX IF NOT EXISTS idx_jobs_work ON jobs (work_hash)",
            "CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs (tenant)",
            """
            CREATE TABLE IF NOT EXISTS outcomes (
                job_id   TEXT NOT NULL,
                idx      INTEGER NOT NULL,
                ok       INTEGER NOT NULL,
                cached   INTEGER NOT NULL DEFAULT 0,
                retries  INTEGER NOT NULL DEFAULT 0,
                error    TEXT NOT NULL DEFAULT '',
                health_json TEXT,
                PRIMARY KEY (job_id, idx)
            )
            """,
        ),
    ),
    (
        2,
        (
            # per-job resilience snapshot (kernel degrades, breaker trips)
            # surfaced in status payloads since the serve front end landed
            "ALTER TABLE jobs ADD COLUMN resilience_json TEXT",
        ),
    ),
    (
        3,
        (
            # sweep-fabric chunk leases: a fabric job's grid is split
            # into contiguous [start, stop) slices that workers lease,
            # heartbeat, and complete.  Lease expiry requeues the chunk;
            # attempts accumulate across leases so repeated failure can
            # park a chunk as 'failed' instead of looping forever.
            """
            CREATE TABLE IF NOT EXISTS chunks (
                job_id            TEXT NOT NULL,
                chunk_id          INTEGER NOT NULL,
                start             INTEGER NOT NULL,
                stop              INTEGER NOT NULL,
                state             TEXT NOT NULL DEFAULT 'queued',
                worker_id         TEXT,
                lease_expires_at  REAL,
                attempts          INTEGER NOT NULL DEFAULT 0,
                error             TEXT NOT NULL DEFAULT '',
                updated_at        REAL NOT NULL,
                PRIMARY KEY (job_id, chunk_id)
            )
            """,
            "CREATE INDEX IF NOT EXISTS idx_chunks_state ON chunks (state)",
        ),
    ),
    (
        4,
        (
            # one execution model: the five route-picking spec fields are
            # gone (JobSpec.from_dict rejects unknown keys) ...
            """
            UPDATE jobs SET spec_json = json_remove(
                spec_json, '$.backend', '$.workers', '$.retries',
                '$.timeout', '$.fabric')
            """,
            # ... and every live job runs as leased chunks, so a live job
            # the pump used to run whole gets its chunk plan now (the
            # plan_chunks partition, in SQL)
            """
            WITH RECURSIVE plan (job_id, chunk_id, start, n, size) AS (
                SELECT job_id, 0, 0,
                       json_array_length(spec_json, '$.values'),
                       COALESCE(json_extract(spec_json, '$.chunk_size'), 8)
                FROM jobs
                WHERE phase IN ('queued', 'running')
                  AND job_id NOT IN (SELECT job_id FROM chunks)
                UNION ALL
                SELECT job_id, chunk_id + 1, start + size, n, size
                FROM plan WHERE start + size < n
            )
            INSERT INTO chunks (job_id, chunk_id, start, stop, state,
                                updated_at)
            SELECT job_id, chunk_id, start, MIN(start + size, n), 'queued',
                   (julianday('now') - 2440587.5) * 86400.0
            FROM plan WHERE n > 0
            """,
        ),
    ),
)

#: Lifecycle of one chunk row.
CHUNK_STATES = ("queued", "leased", "done", "failed")

#: The schema version a fresh store is created at.
SCHEMA_VERSION = MIGRATIONS[-1][0]


class PointOutcome:
    """One persisted grid-point outcome row (plain value object).

    The durable twin of :class:`~repro.engine.TaskOutcome`: keeps the
    verdict (ok/cached/retries/error) and the PR-5
    :class:`~repro.core.health.ChannelHealth` dict, not the value — the
    value lives in the result cache.
    """

    __slots__ = ("index", "ok", "cached", "retries", "error", "health")

    def __init__(self, index: int, ok: bool, cached: bool = False,
                 retries: int = 0, error: str = "",
                 health: Mapping | None = None) -> None:
        self.index = int(index)
        self.ok = bool(ok)
        self.cached = bool(cached)
        self.retries = int(retries)
        self.error = str(error)
        self.health = dict(health) if health is not None else None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "ok": self.ok,
            "cached": self.cached,
            "retries": self.retries,
            "error": self.error,
            "health": self.health,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "ok" if self.ok else f"error={self.error!r}"
        return f"PointOutcome(index={self.index}, {verdict})"


@dataclass(frozen=True)
class SettledJob:
    """A job whose chunks have all settled, as one consistent snapshot.

    What the finalizer (:func:`repro.service.pump.finalize_job`) turns
    into a terminal record: the job row (progress counters already
    counted from the outcome rows), every outcome row, and the error of
    the first chunk parked ``failed`` (``""`` when none was).
    """

    record: JobRecord
    outcomes: list[PointOutcome]
    error: str = ""


@dataclass(frozen=True)
class ChunkCompletion:
    """What one :meth:`JobStore.complete_chunk` call did.

    ``ok`` is the completion's verdict — True when the caller held the
    lease, or already completed the chunk under it (a retried ack) —
    and is also the object's truth value.  ``settled`` says every chunk
    of the job has settled.  A store that settles jobs hands the
    :class:`SettledJob` back as ``job`` with it, for the caller to
    finalize; a remote one reports ``settled`` only.
    """

    ok: bool
    settled: bool = False
    job: SettledJob | None = None

    def __bool__(self) -> bool:
        return self.ok


class ChunkCounts(dict):
    """Chunks per state for one job (zero-states omitted); ``settled``
    is :func:`has_settled` of the counts and the job row, read together.
    """

    def __init__(self, counts: Mapping[str, int] = (),
                 settled: bool = False) -> None:
        super().__init__(counts)
        self.settled = bool(settled)


def has_settled(state: JobState, counts: Mapping[str, int]) -> bool:
    """The one rule for when a job has settled: no chunk is leased, and
    none is queued unless a cancel was requested or the job ended.  A
    live job without chunk rows has not settled.
    """
    if counts.get("leased") or not (counts or state.terminal):
        return False
    return (not counts.get("queued") or state.cancel_requested
            or state.terminal)


class ChunkRow:
    """One lease chunk: a ``[start, stop)`` slice of a job's grid."""

    __slots__ = ("job_id", "chunk_id", "start", "stop", "state",
                 "worker_id", "lease_expires_at", "attempts", "error")

    def __init__(self, job_id: str, chunk_id: int, start: int, stop: int,
                 state: str = "queued", worker_id: str | None = None,
                 lease_expires_at: float | None = None, attempts: int = 0,
                 error: str = "") -> None:
        self.job_id = str(job_id)
        self.chunk_id = int(chunk_id)
        self.start = int(start)
        self.stop = int(stop)
        self.state = str(state)
        self.worker_id = worker_id
        self.lease_expires_at = lease_expires_at
        self.attempts = int(attempts)
        self.error = str(error)

    @property
    def size(self) -> int:
        return self.stop - self.start

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "chunk_id": self.chunk_id,
            "start": self.start,
            "stop": self.stop,
            "state": self.state,
            "worker_id": self.worker_id,
            "lease_expires_at": self.lease_expires_at,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChunkRow":
        return cls(**{slot: data[slot] for slot in cls.__slots__})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkRow({self.job_id}/{self.chunk_id} "
            f"[{self.start}:{self.stop}) {self.state})"
        )


class JobStore:
    """Abstract durable job store (see :class:`SQLiteJobStore`).

    Implementations must make :meth:`claim` atomic — two pump workers
    claiming the same queued job must see exactly one winner — and make
    every mutation durable before returning.
    """

    def put(self, record: JobRecord) -> None:
        """Insert a new job row with its chunk plan; raises on duplicate id.

        A live record's grid is planned into
        :func:`~repro.analysis.plan_chunks` rows of ``spec.chunk_size``
        points in the same transaction, once: nothing re-plans a job.
        """
        raise NotImplementedError

    def get(self, job_id: str) -> JobRecord | None:
        """The current record for ``job_id``, or None."""
        raise NotImplementedError

    def update(self, record: JobRecord) -> None:
        """Replace the stored row for ``record.job_id``."""
        raise NotImplementedError

    def finish(self, record: JobRecord) -> JobRecord:
        """Write a terminal record unless the job ended (a CAS on the
        phase: the first terminal write wins); the record now stored."""
        raise NotImplementedError

    def list_jobs(self, tenant: str | None = None,
                  phase: str | Sequence[str] | None = None
                  ) -> list[JobRecord]:
        """All matching jobs, oldest submission first.

        ``phase`` is one phase or a sequence of them (any matches).
        """
        raise NotImplementedError

    def claim(self, job_id: str) -> JobRecord | None:
        """Atomic ``queued -> running`` transition; None if lost the race."""
        raise NotImplementedError

    def find_by_work_hash(self, work_hash: str) -> list[JobRecord]:
        """Jobs sharing an idempotency key, oldest first (dedup lookup)."""
        raise NotImplementedError

    def request_cancel(self, job_id: str) -> JobRecord | None:
        """Durably flag a job for cancellation; returns the new record."""
        raise NotImplementedError

    def requeue_running(self) -> int:
        """Re-queue jobs orphaned mid-run by a dead process; returns count.

        Their leased chunks go back to the queue with them, so the
        restart resumes them without waiting out a lease.
        """
        raise NotImplementedError

    def record_outcome(self, job_id: str, outcome: PointOutcome) -> None:
        """Upsert one per-point outcome row."""
        raise NotImplementedError

    def record_outcomes(self, job_id: str,
                        outcomes: Sequence[PointOutcome],
                        record: JobRecord | None = None) -> None:
        """Bulk upsert, then replace the job row with ``record`` if given."""
        raise NotImplementedError

    def outcomes(self, job_id: str) -> list[PointOutcome]:
        """All persisted point outcomes of a job, in grid order."""
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Jobs per phase (zero-phases omitted)."""
        raise NotImplementedError

    # -- chunk leases ---------------------------------------------------------

    def create_chunks(self, job_id: str,
                      bounds: Sequence[tuple[int, int]]) -> int:
        """Insert queued chunk rows (idempotent); returns rows created.

        Rows that already exist are left alone, so a plan given twice
        never duplicates work.
        """
        raise NotImplementedError

    def lease_chunk(self, worker_id: str, lease_seconds: float,
                    job_id: str | None = None) -> ChunkRow | None:
        """Atomically lease the oldest leasable chunk; None when idle.

        Exactly one worker wins each chunk (CAS on state); the lease
        expires at ``now + lease_seconds`` unless heartbeat-extended.
        Chunks of terminal and cancel-requested jobs are never leased.
        When nothing is queued, stale leases are expired first, so a
        dead worker's chunk goes to the next caller.  Leasing a queued
        job's first chunk moves the job to ``running``.
        """
        raise NotImplementedError

    def heartbeat_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                        lease_seconds: float) -> bool:
        """Extend a held lease; False when it was lost (expired/requeued)."""
        raise NotImplementedError

    def complete_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                       outcomes: Sequence[PointOutcome] = ()
                       ) -> ChunkCompletion:
        """Mark a held lease done with its points' outcome rows.

        One transaction: the CAS, the outcome rows, and the job's
        progress counters, counted from all of its outcome rows.  The
        result says whether the lease held and whether the job settled.
        """
        raise NotImplementedError

    def fail_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                   error: str, max_attempts: int = 3) -> str | None:
        """Record a chunk failure; the chunk's new state, or None.

        Requeues the chunk until its accumulated attempts reach
        ``max_attempts``, then parks it as ``'failed'``.  Returns None
        when the caller no longer held the lease.
        """
        raise NotImplementedError

    def expire_chunk_leases(self, now: float | None = None) -> int:
        """Requeue every leased chunk whose lease expired; returns count.

        The fabric's watchdog: a worker that died (or lost its network)
        stops heartbeating, its leases lapse, and the chunks go back in
        the queue for a live worker.  :meth:`lease_chunk` runs it
        whenever nothing is queued.
        """
        raise NotImplementedError

    def settled_job(self, job_id: str) -> SettledJob | None:
        """The job's :class:`SettledJob` snapshot once it has settled.

        The rule is :func:`has_settled`.  None while the job has not
        settled, for an unknown job, and from a store that does not
        settle jobs itself.
        """
        raise NotImplementedError

    def chunks(self, job_id: str) -> list[ChunkRow]:
        """All chunk rows of a job, in chunk order."""
        raise NotImplementedError

    def chunk_counts(self, job_id: str) -> ChunkCounts:
        """Chunks per state for one job, and whether it has settled."""
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources; a later call may acquire them again."""


def open_job_store(url: str | Path) -> JobStore:
    """Open a job store from a location string.

    Accepts a filesystem path or a ``sqlite:///path`` URL.  Other URL
    schemes (``postgres://...``) name backends the interface is shaped
    for but this build does not ship; they raise :class:`ServiceError`
    eagerly rather than half-working.
    """
    text = str(url)
    if text.startswith("sqlite:///"):
        return SQLiteJobStore(text[len("sqlite:///"):])
    if "://" in text:
        scheme = text.split("://", 1)[0]
        raise ServiceError(
            f"job-store backend {scheme!r} is not available in this build; "
            "use a filesystem path or sqlite:///path"
        )
    return SQLiteJobStore(text)


#: Bounded, deterministic backoff for SQLITE_BUSY contention.  SQLite's
#: own ``busy_timeout`` blocks *inside* one statement; this retries the
#: whole store call, covering the "database is locked" errors the busy
#: handler cannot (e.g. a write colliding with a lagging WAL checkpoint).
_LOCK_RETRY = RetryPolicy(
    retries=5, base_delay=0.01, multiplier=2.0, max_delay=0.25, jitter=0.1,
)


#: Idle connections one store keeps for reuse.  The service has at most
#: a pump worker and a few HTTP handler threads inside the store at
#: once; a busier moment opens extra connections and closes them on
#: release, so open connections never exceed concurrent callers.
_POOL_SIZE = 4

#: Connections a forked child inherited from its parent.  The child must
#: neither use nor close them (SQLite's locks are per process); keeping
#: a reference stops the garbage collector from closing them.
_FORK_ORPHANS: list[sqlite3.Connection] = []

_OUTCOME_UPSERT = (
    "INSERT OR REPLACE INTO outcomes "
    "(job_id, idx, ok, cached, retries, error, health_json) "
    "VALUES (?, ?, ?, ?, ?, ?, ?)"
)


#: Jobs whose chunks may be leased: live, and no cancel requested.
_LEASABLE_JOBS = (
    "SELECT job_id FROM jobs WHERE phase IN ('queued', 'running') "
    "AND NOT COALESCE(json_extract(state_json, '$.cancel_requested'), 0)"
)


def _outcome_params(job_id: str, outcome: PointOutcome) -> tuple:
    return (
        job_id, outcome.index, int(outcome.ok), int(outcome.cached),
        outcome.retries, outcome.error,
        json.dumps(outcome.health) if outcome.health is not None else None,
    )


def _is_locked(err: sqlite3.OperationalError) -> bool:
    msg = str(err).lower()
    return "locked" in msg or "busy" in msg


def _retry_locked(fn):
    """Retry a store call on ``sqlite3.OperationalError: database is locked``.

    Every public :class:`SQLiteJobStore` method wears this, so two
    workers hammering one ``--db`` never surface a raw lock error.  The
    ``store.op`` fault site injects the lock at the top of each attempt,
    which exercises exactly this loop.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        for attempt in range(_LOCK_RETRY.retries + 1):
            try:
                fault = poll_fault("store.op")
                if fault is not None:
                    raise sqlite3.OperationalError(
                        "database is locked (injected)")
                return fn(self, *args, **kwargs)
            except sqlite3.OperationalError as err:
                if not _is_locked(err) or attempt >= _LOCK_RETRY.retries:
                    raise
                delay = _LOCK_RETRY.delay(attempt, key=fn.__name__)
                logger.warning(
                    "store %s hit %s; retry %d/%d in %.3fs",
                    fn.__name__, err, attempt + 1, _LOCK_RETRY.retries, delay,
                )
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    return wrapper


class SQLiteJobStore(JobStore):
    """Stdlib SQLite implementation of :class:`JobStore`.

    Parameters
    ----------
    path:
        Database file (parent directories are created).  ``":memory:"``
        is rejected — a memory store cannot honor the durability
        contract (and every pooled connection would see its own
        database).

    Each public call is one transaction on a pooled connection, committed
    before the call returns.  :meth:`close` closes the idle connections;
    a later call opens a fresh one.
    """

    def __init__(self, path: str | Path) -> None:
        if str(path) == ":memory:":
            raise ServiceError(
                "SQLiteJobStore needs a file path; ':memory:' would not "
                "survive the process, which defeats the durable-store contract"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._pool_lock = threading.Lock()
        self._idle: list[sqlite3.Connection] = []
        self._pid = os.getpid()
        with self._conn() as conn:
            self._migrate(conn)

    # -- connection & schema -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        # the pool hands a connection to one thread at a time
        conn = sqlite3.connect(self.path, timeout=30.0,
                               check_same_thread=False)
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            # WAL lets the pump write while a status poll reads; quietly
            # ignored on filesystems that refuse it
            conn.execute("PRAGMA journal_mode = WAL")
        except BaseException:
            conn.close()
            raise
        return conn

    def _pool(self) -> list[sqlite3.Connection]:
        """This process's idle connections (caller holds the lock).

        In a forked child the inherited ones are set aside unused and
        the pool starts empty.
        """
        if self._pid != os.getpid():
            _FORK_ORPHANS.extend(self._idle)
            self._idle = []
            self._pid = os.getpid()
        return self._idle

    def _acquire(self) -> sqlite3.Connection:
        with self._pool_lock:
            idle = self._pool()
            if idle:
                return idle.pop()
        return self._connect()

    def _release(self, conn: sqlite3.Connection) -> None:
        with self._pool_lock:
            idle = self._pool()
            if len(idle) < _POOL_SIZE:
                idle.append(conn)
                return
        conn.close()

    @contextmanager
    def _conn(self) -> Iterator[sqlite3.Connection]:
        """One transaction on a pooled connection, committed on exit.

        Cursors must not outlive the block: an unfinished SELECT would
        pin the connection's read snapshot into the next call.  A
        connection whose transaction cannot be rolled back is closed,
        never pooled.
        """
        conn = self._acquire()
        try:
            yield conn
            conn.commit()
        except BaseException:
            try:
                conn.rollback()
                healthy = not conn.in_transaction
            except sqlite3.Error:
                healthy = False
            if healthy:
                self._release(conn)
            else:
                with suppress(sqlite3.Error):
                    conn.close()
            raise
        self._release(conn)

    def close(self) -> None:
        """Close the pooled connections (the store stays usable)."""
        with self._pool_lock:
            idle = self._pool()
            self._idle = []
        for conn in idle:
            conn.close()

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Apply every migration newer than the store's recorded version."""
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS schema_migrations (
                version    INTEGER PRIMARY KEY,
                applied_at TEXT NOT NULL
            )
            """
        )
        applied = {
            row[0]
            for row in conn.execute("SELECT version FROM schema_migrations")
        }
        for version, statements in MIGRATIONS:
            if version in applied:
                continue
            for statement in statements:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO schema_migrations (version, applied_at) "
                "VALUES (?, ?)",
                (version, time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
            )

    def schema_version(self) -> int:
        """Highest applied migration version."""
        with self._conn() as conn:
            row = conn.execute(
                "SELECT MAX(version) FROM schema_migrations"
            ).fetchone()
        return int(row[0] or 0)

    # -- row mapping ---------------------------------------------------------

    @staticmethod
    def _to_row(record: JobRecord) -> dict:
        return {
            "job_id": record.job_id,
            "tenant": record.spec.tenant,
            "priority": record.spec.priority,
            "phase": record.state.phase,
            "work_hash": record.work_hash,
            "dedup_of": record.dedup_of,
            "result_key": record.result_key,
            "spec_json": record.spec.to_json(),
            "state_json": json.dumps(record.state.to_dict()),
            "resilience_json": json.dumps(dict(record.resilience))
            if record.resilience is not None else None,
            "submitted_at": record.state.submitted_at,
            "updated_at": time.time(),
        }

    @staticmethod
    def _from_row(row: sqlite3.Row) -> JobRecord:
        resilience = None
        if row["resilience_json"]:
            resilience = json.loads(row["resilience_json"])
        return JobRecord(
            job_id=row["job_id"],
            spec=JobSpec.from_json(row["spec_json"]),
            state=JobState.from_dict(json.loads(row["state_json"])),
            work_hash=row["work_hash"],
            dedup_of=row["dedup_of"],
            result_key=row["result_key"],
            resilience=resilience,
        )

    # -- JobStore interface --------------------------------------------------

    @_retry_locked
    def put(self, record: JobRecord) -> None:
        from ..analysis.sweep import plan_chunks

        row = self._to_row(record)
        columns = ", ".join(row)
        holes = ", ".join(f":{c}" for c in row)
        try:
            with self._conn() as conn:
                conn.execute(
                    f"INSERT INTO jobs ({columns}) VALUES ({holes})", row
                )
                if not record.state.terminal:
                    spec = record.spec
                    self._insert_chunks(
                        conn, record.job_id,
                        plan_chunks(len(spec.values), spec.chunk_size),
                    )
        except sqlite3.IntegrityError:
            raise ServiceError(
                f"job {record.job_id!r} already exists"
            ) from None

    @_retry_locked
    def get(self, job_id: str) -> JobRecord | None:
        with self._conn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return self._from_row(row) if row is not None else None

    def _update_row(self, conn: sqlite3.Connection, record: JobRecord,
                    guard: str = "") -> bool:
        """Replace the row; False when ``guard`` (SQL) did not hold."""
        row = self._to_row(record)
        assignments = ", ".join(f"{c} = :{c}" for c in row if c != "job_id")
        cur = conn.execute(
            f"UPDATE jobs SET {assignments} WHERE job_id = :job_id{guard}",
            row,
        )
        if cur.rowcount != 1 and not guard:
            raise ServiceError(f"job {record.job_id!r} not found")
        return cur.rowcount == 1

    @_retry_locked
    def update(self, record: JobRecord) -> None:
        with self._conn() as conn:
            self._update_row(conn, record)

    @_retry_locked
    def finish(self, record: JobRecord) -> JobRecord:
        with self._conn() as conn:
            if self._update_row(conn, record,
                                " AND phase IN ('queued', 'running')"):
                return record
            stored = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (record.job_id,)
            ).fetchone()
        if stored is None:
            raise ServiceError(f"job {record.job_id!r} not found")
        return self._from_row(stored)

    @_retry_locked
    def list_jobs(self, tenant: str | None = None,
                  phase: str | Sequence[str] | None = None
                  ) -> list[JobRecord]:
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if phase is not None:
            phases = (phase,) if isinstance(phase, str) else tuple(phase)
            clauses.append(f"phase IN ({', '.join('?' * len(phases))})")
            params.extend(phases)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._conn() as conn:
            rows = conn.execute(
                f"SELECT * FROM jobs{where} "
                "ORDER BY submitted_at, job_id", params
            ).fetchall()
        return [self._from_row(r) for r in rows]

    @_retry_locked
    def claim(self, job_id: str) -> JobRecord | None:
        """CAS on the phase column: exactly one claimer wins.

        One transaction: the CAS, the read-back and the ``started_at``
        stamp commit together.
        """
        now = time.time()
        with self._conn() as conn:
            cur = conn.execute(
                "UPDATE jobs SET phase = 'running', updated_at = ? "
                "WHERE job_id = ? AND phase = 'queued'",
                (now, job_id),
            )
            if cur.rowcount != 1:
                return None
            row = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            record = self._from_row(row).advanced(
                phase="running", started_at=now)
            self._update_row(conn, record)
        return record

    @_retry_locked
    def find_by_work_hash(self, work_hash: str) -> list[JobRecord]:
        with self._conn() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE work_hash = ? "
                "ORDER BY submitted_at, job_id",
                (work_hash,),
            ).fetchall()
        return [self._from_row(r) for r in rows]

    @_retry_locked
    def request_cancel(self, job_id: str) -> JobRecord | None:
        with self._conn() as conn:
            # the write lock first, so the read-modify-write is atomic
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            record = self._from_row(row)
            if record.state.terminal:
                return record
            if record.state.phase == "queued":
                record = record.advanced(
                    phase="cancelled", cancel_requested=True,
                    finished_at=time.time(),
                )
            else:
                record = record.advanced(cancel_requested=True)
            self._update_row(conn, record)
        return record

    @_retry_locked
    def requeue_running(self) -> int:
        now = time.time()
        with self._conn() as conn:
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                "SELECT * FROM jobs WHERE phase = 'running'"
            ).fetchall()
            for row in rows:
                self._update_row(conn, self._from_row(row).advanced(
                    phase="queued", started_at=None))
                # a lease held across the crash is requeued too; should
                # its holder still complete, the completion CAS drops it
                conn.execute(
                    "UPDATE chunks SET state = 'queued', worker_id = NULL, "
                    "lease_expires_at = NULL, updated_at = ? "
                    "WHERE job_id = ? AND state = 'leased'",
                    (now, row["job_id"]),
                )
        return len(rows)

    @_retry_locked
    def record_outcome(self, job_id: str, outcome: PointOutcome) -> None:
        with self._conn() as conn:
            conn.execute(_OUTCOME_UPSERT, _outcome_params(job_id, outcome))

    @_retry_locked
    def record_outcomes(self, job_id: str,
                        outcomes: Sequence[PointOutcome],
                        record: JobRecord | None = None) -> None:
        """Bulk upsert plus the optional job row, in one transaction."""
        with self._conn() as conn:
            conn.executemany(
                _OUTCOME_UPSERT,
                [_outcome_params(job_id, o) for o in outcomes],
            )
            if record is not None:
                self._update_row(conn, record)

    @_retry_locked
    def outcomes(self, job_id: str) -> list[PointOutcome]:
        with self._conn() as conn:
            return self._outcome_rows(conn, job_id)

    @staticmethod
    def _outcome_rows(conn: sqlite3.Connection,
                      job_id: str) -> list[PointOutcome]:
        rows = conn.execute(
            "SELECT * FROM outcomes WHERE job_id = ? ORDER BY idx",
            (job_id,),
        ).fetchall()
        return [
            PointOutcome(
                index=row["idx"], ok=bool(row["ok"]),
                cached=bool(row["cached"]), retries=row["retries"],
                error=row["error"],
                health=json.loads(row["health_json"])
                if row["health_json"] else None,
            )
            for row in rows
        ]

    @_retry_locked
    def counts(self) -> dict[str, int]:
        with self._conn() as conn:
            rows = conn.execute(
                "SELECT phase, COUNT(*) AS n FROM jobs GROUP BY phase"
            ).fetchall()
        return {row["phase"]: row["n"] for row in rows}

    # -- chunk leases ---------------------------------------------------------

    @staticmethod
    def _chunk_from_row(row: sqlite3.Row) -> ChunkRow:
        return ChunkRow(
            job_id=row["job_id"], chunk_id=row["chunk_id"],
            start=row["start"], stop=row["stop"], state=row["state"],
            worker_id=row["worker_id"],
            lease_expires_at=row["lease_expires_at"],
            attempts=row["attempts"], error=row["error"],
        )

    @staticmethod
    def _insert_chunks(conn: sqlite3.Connection, job_id: str,
                       bounds: Sequence[tuple[int, int]]) -> int:
        now = time.time()
        cur = conn.executemany(
            "INSERT OR IGNORE INTO chunks "
            "(job_id, chunk_id, start, stop, state, updated_at) "
            "VALUES (?, ?, ?, ?, 'queued', ?)",
            [
                (job_id, i, int(start), int(stop), now)
                for i, (start, stop) in enumerate(bounds)
            ],
        )
        return max(cur.rowcount, 0)

    @_retry_locked
    def create_chunks(self, job_id: str,
                      bounds: Sequence[tuple[int, int]]) -> int:
        with self._conn() as conn:
            return self._insert_chunks(conn, job_id, bounds)

    @_retry_locked
    def lease_chunk(self, worker_id: str, lease_seconds: float,
                    job_id: str | None = None) -> ChunkRow | None:
        """Select-then-CAS loop: the UPDATE's guards pick one winner."""
        where = f"state = 'queued' AND job_id IN ({_LEASABLE_JOBS})"
        params: list = []
        if job_id is not None:
            where += " AND job_id = ?"
            params.append(job_id)
        select = (
            f"SELECT job_id, chunk_id FROM chunks WHERE {where} ORDER BY "
            "(SELECT submitted_at FROM jobs WHERE jobs.job_id = "
            "chunks.job_id), job_id, chunk_id LIMIT 1"
        )
        for _ in range(8):
            now = time.time()
            with self._conn() as conn:
                row = conn.execute(select, params).fetchone()
                if row is None and self._expire_leases(conn, now):
                    row = conn.execute(select, params).fetchone()
                if row is None:
                    return None
                if poll_fault("store.claim") is not None:
                    # injected CAS race: another worker "won" this row
                    # between our SELECT and UPDATE; go around again
                    continue
                cur = conn.execute(
                    "UPDATE chunks SET state = 'leased', worker_id = ?, "
                    "lease_expires_at = ?, attempts = attempts + 1, "
                    "updated_at = ? "
                    f"WHERE job_id = ? AND chunk_id = ? AND {where}",
                    (worker_id, now + float(lease_seconds), now,
                     row["job_id"], row["chunk_id"], *params),
                )
                if cur.rowcount == 1:
                    job = conn.execute(
                        "SELECT * FROM jobs "
                        "WHERE job_id = ? AND phase = 'queued'",
                        (row["job_id"],),
                    ).fetchone()
                    if job is not None:
                        self._update_row(conn, self._from_row(job).advanced(
                            phase="running", started_at=now))
                    full = conn.execute(
                        "SELECT * FROM chunks "
                        "WHERE job_id = ? AND chunk_id = ?",
                        (row["job_id"], row["chunk_id"]),
                    ).fetchone()
                    return self._chunk_from_row(full)
        return None  # pragma: no cover - 8 straight lost races

    @_retry_locked
    def heartbeat_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                        lease_seconds: float) -> bool:
        now = time.time()
        with self._conn() as conn:
            cur = conn.execute(
                "UPDATE chunks SET lease_expires_at = ?, updated_at = ? "
                "WHERE job_id = ? AND chunk_id = ? AND state = 'leased' "
                "AND worker_id = ?",
                (now + float(lease_seconds), now, job_id, chunk_id,
                 worker_id),
            )
            return cur.rowcount == 1

    @_retry_locked
    def complete_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                       outcomes: Sequence[PointOutcome] = ()
                       ) -> ChunkCompletion:
        """CAS the chunk to ``done``; idempotent for the completing worker.

        The CAS write comes first, so the rest of the transaction — the
        outcome rows, the progress count, the settle check — runs under
        the write lock: two workers completing at once cannot lose each
        other's counts.  A worker retrying a completion whose first ack
        was lost finds the chunk already ``done`` under its own
        ``worker_id`` and gets the same verdict back (nothing
        rewritten).  A worker whose lease was reassigned gets a falsy
        verdict — the stale completion is logged and dropped without
        touching the new owner's attempt counter.
        """
        now = time.time()
        with self._conn() as conn:
            cur = conn.execute(
                "UPDATE chunks SET state = 'done', lease_expires_at = NULL, "
                "error = '', updated_at = ? "
                "WHERE job_id = ? AND chunk_id = ? AND state = 'leased' "
                "AND worker_id = ?",
                (now, job_id, chunk_id, worker_id),
            )
            if cur.rowcount == 1:
                conn.executemany(
                    _OUTCOME_UPSERT,
                    [_outcome_params(job_id, o) for o in outcomes],
                )
                self._count_progress(conn, job_id)
                return self._completion(conn, job_id)
            row = conn.execute(
                "SELECT state, worker_id FROM chunks "
                "WHERE job_id = ? AND chunk_id = ?",
                (job_id, chunk_id),
            ).fetchone()
            if (row is not None and row["state"] == "done"
                    and row["worker_id"] == worker_id):
                logger.info(
                    "duplicate completion of chunk %s/%d by %s "
                    "acknowledged (first ack lost)", job_id, chunk_id,
                    worker_id,
                )
                return self._completion(conn, job_id)
        logger.warning(
            "dropping stale completion of chunk %s/%d by %s "
            "(row now %s)", job_id, chunk_id, worker_id,
            dict(row) if row is not None else None,
        )
        return ChunkCompletion(False)

    def _count_progress(self, conn: sqlite3.Connection, job_id: str) -> None:
        """Rewrite a live job's progress counters from its outcome rows."""
        row = conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"job {job_id!r} not found")
        record = self._from_row(row)
        if record.state.terminal:
            return
        completed, failed, hits, retries = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(ok = 0), 0), "
            "COALESCE(SUM(cached), 0), COALESCE(SUM(retries), 0) "
            "FROM outcomes WHERE job_id = ?", (job_id,),
        ).fetchone()
        self._update_row(conn, record.advanced(
            completed=completed, failed=failed, cache_hits=hits,
            retries=retries,
        ))

    def _completion(self, conn: sqlite3.Connection,
                    job_id: str) -> ChunkCompletion:
        settled = self._settled(conn, job_id)
        return ChunkCompletion(True, settled is not None, settled)

    @staticmethod
    def _state_counts(conn: sqlite3.Connection,
                      job_id: str) -> dict[str, int]:
        return {
            r["state"]: r["n"] for r in conn.execute(
                "SELECT state, COUNT(*) AS n FROM chunks "
                "WHERE job_id = ? GROUP BY state", (job_id,),
            )
        }

    def _settled(self, conn: sqlite3.Connection,
                 job_id: str) -> SettledJob | None:
        row = conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            return None
        record = self._from_row(row)
        if not has_settled(record.state, self._state_counts(conn, job_id)):
            return None
        parked = conn.execute(
            "SELECT error FROM chunks WHERE job_id = ? AND state = 'failed' "
            "ORDER BY chunk_id LIMIT 1", (job_id,),
        ).fetchone()
        return SettledJob(record, self._outcome_rows(conn, job_id),
                          parked["error"] if parked is not None else "")

    @_retry_locked
    def settled_job(self, job_id: str) -> SettledJob | None:
        with self._conn() as conn:
            conn.execute("BEGIN")  # one read snapshot for every SELECT
            return self._settled(conn, job_id)

    @_retry_locked
    def fail_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                   error: str, max_attempts: int = 3) -> str | None:
        now = time.time()
        with self._conn() as conn:
            row = conn.execute(
                "SELECT attempts FROM chunks "
                "WHERE job_id = ? AND chunk_id = ? AND state = 'leased' "
                "AND worker_id = ?",
                (job_id, chunk_id, worker_id),
            ).fetchone()
            if row is None:
                return None
            state = "failed" if row["attempts"] >= int(max_attempts) \
                else "queued"
            conn.execute(
                "UPDATE chunks SET state = ?, worker_id = NULL, "
                "lease_expires_at = NULL, error = ?, updated_at = ? "
                "WHERE job_id = ? AND chunk_id = ? AND state = 'leased' "
                "AND worker_id = ?",
                (state, str(error), now, job_id, chunk_id, worker_id),
            )
            return state

    @staticmethod
    def _expire_leases(conn: sqlite3.Connection, now: float) -> int:
        cur = conn.execute(
            "UPDATE chunks SET state = 'queued', worker_id = NULL, "
            "lease_expires_at = NULL, updated_at = ? "
            "WHERE state = 'leased' AND lease_expires_at < ?",
            (now, now),
        )
        return max(cur.rowcount, 0)

    @_retry_locked
    def expire_chunk_leases(self, now: float | None = None) -> int:
        now = time.time() if now is None else float(now)
        with self._conn() as conn:
            return self._expire_leases(conn, now)

    @_retry_locked
    def chunks(self, job_id: str) -> list[ChunkRow]:
        with self._conn() as conn:
            rows = conn.execute(
                "SELECT * FROM chunks WHERE job_id = ? ORDER BY chunk_id",
                (job_id,),
            ).fetchall()
        return [self._chunk_from_row(r) for r in rows]

    @_retry_locked
    def chunk_counts(self, job_id: str) -> ChunkCounts:
        with self._conn() as conn:
            conn.execute("BEGIN")  # the counts and the job row agree
            counts = self._state_counts(conn, job_id)
            row = conn.execute(
                "SELECT state_json FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        settled = row is not None and has_settled(
            JobState.from_dict(json.loads(row["state_json"])), counts)
        return ChunkCounts(counts, settled)
