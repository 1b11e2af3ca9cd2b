"""Durable store: CRUD, atomic claims, persistence, schema migrations,
and the connection pool's lifecycle (bounded, closable, fork-safe)."""

from __future__ import annotations

import gc
import json
import os
import sqlite3
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    SCHEMA_VERSION,
    JobRecord,
    JobSpec,
    JobState,
    PointOutcome,
    SQLiteJobStore,
    new_job_id,
    open_job_store,
)
from repro.service.store import MIGRATIONS


def make_record(tenant="default", priority=0, values=(1.0, 2.0),
                submitted_at=1000.0, chunk_size=8,
                **record_kwargs) -> JobRecord:
    spec = JobSpec(
        base={"$spec": "unit-test", "knob": len(values)},
        path="cantilever.length_um",
        values=values, duration=0.01, tenant=tenant, priority=priority,
        chunk_size=chunk_size,
    )
    return JobRecord(
        job_id=new_job_id(), spec=spec,
        state=JobState(total=len(values), submitted_at=submitted_at),
        **record_kwargs,
    )


@pytest.fixture
def store(tmp_path):
    return SQLiteJobStore(tmp_path / "jobs.sqlite")


class TestCrud:
    def test_put_get_round_trip(self, store):
        record = make_record(tenant="alice", priority=2,
                             resilience={"fallbacks": 1})
        store.put(record)
        assert store.get(record.job_id) == record

    def test_get_unknown_returns_none(self, store):
        assert store.get("job-missing") is None

    def test_duplicate_put_raises(self, store):
        record = make_record()
        store.put(record)
        with pytest.raises(ServiceError, match="already exists"):
            store.put(record)

    def test_update_unknown_raises(self, store):
        with pytest.raises(ServiceError, match="not found"):
            store.update(make_record())

    def test_update_replaces_state(self, store):
        record = make_record()
        store.put(record)
        store.update(record.advanced(phase="running", started_at=5.0))
        reread = store.get(record.job_id)
        assert reread.state.phase == "running"
        assert reread.state.started_at == 5.0

    def test_list_filters_by_tenant_and_phase(self, store):
        a = make_record(tenant="alice", submitted_at=1.0)
        b = make_record(tenant="bob", submitted_at=2.0)
        store.put(a)
        store.put(b)
        store.update(b.advanced(phase="running"))
        assert [r.job_id for r in store.list_jobs()] == [a.job_id, b.job_id]
        assert [r.job_id for r in store.list_jobs(tenant="alice")] == [a.job_id]
        assert [r.job_id for r in store.list_jobs(phase="running")] == [b.job_id]

    def test_find_by_work_hash_oldest_first(self, store):
        a = make_record(values=(7.0,), submitted_at=1.0)
        b = make_record(values=(7.0,), submitted_at=2.0, tenant="bob")
        other = make_record(values=(9.0,))
        for r in (b, a, other):
            store.put(r)
        assert a.work_hash == b.work_hash  # same grid, different tenant
        found = store.find_by_work_hash(a.work_hash)
        assert [r.job_id for r in found] == [a.job_id, b.job_id]

    def test_counts(self, store):
        a, b = make_record(), make_record()
        store.put(a)
        store.put(b)
        store.update(b.advanced(phase="done"))
        assert store.counts() == {"queued": 1, "done": 1}


class TestClaim:
    def test_claim_wins_exactly_once(self, store):
        record = make_record()
        store.put(record)
        claimed = store.claim(record.job_id)
        assert claimed.state.phase == "running"
        assert claimed.state.started_at is not None
        assert store.claim(record.job_id) is None  # second claimer loses

    def test_claim_refuses_non_queued(self, store):
        record = make_record()
        store.put(record)
        store.update(record.advanced(phase="cancelled"))
        assert store.claim(record.job_id) is None


class TestCancel:
    def test_queued_job_cancels_immediately(self, store):
        record = make_record()
        store.put(record)
        cancelled = store.request_cancel(record.job_id)
        assert cancelled.state.phase == "cancelled"
        assert cancelled.state.cancel_requested

    def test_running_job_gets_durable_flag(self, store):
        record = make_record()
        store.put(record)
        store.claim(record.job_id)
        flagged = store.request_cancel(record.job_id)
        assert flagged.state.phase == "running"
        assert flagged.state.cancel_requested

    def test_terminal_job_is_untouched(self, store):
        record = make_record()
        store.put(record)
        store.update(record.advanced(phase="done"))
        assert store.request_cancel(record.job_id).state.phase == "done"

    def test_unknown_job_returns_none(self, store):
        assert store.request_cancel("job-missing") is None


class TestRequeue:
    def test_orphaned_running_jobs_requeue(self, store):
        a, b = make_record(), make_record()
        store.put(a)
        store.put(b)
        store.claim(a.job_id)
        assert store.requeue_running() == 1
        assert store.get(a.job_id).state.phase == "queued"
        assert store.get(a.job_id).state.started_at is None
        assert store.counts() == {"queued": 2}


class TestOutcomes:
    def test_record_and_read_back_in_grid_order(self, store):
        record = make_record(values=(1.0, 2.0, 3.0))
        store.put(record)
        for i in (2, 0, 1):
            store.record_outcome(record.job_id, PointOutcome(
                index=i, ok=(i != 1), error="" if i != 1 else "boom",
                health={"channel": i, "status": "ok" if i != 1 else "failed"},
            ))
        outcomes = store.outcomes(record.job_id)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert not outcomes[1].ok
        assert outcomes[1].error == "boom"
        assert outcomes[2].health["channel"] == 2

    def test_upsert_replaces_a_point(self, store):
        record = make_record(values=(1.0,))
        store.put(record)
        store.record_outcome(record.job_id,
                             PointOutcome(index=0, ok=False, error="retry me"))
        store.record_outcome(record.job_id,
                             PointOutcome(index=0, ok=True, retries=1))
        (outcome,) = store.outcomes(record.job_id)
        assert outcome.ok
        assert outcome.retries == 1


class TestSettledGroup:
    def test_outcomes_and_progress_land_together(self, store):
        record = make_record(values=(1.0, 2.0, 3.0))
        store.put(record)
        live = record.advanced(phase="running", completed=2)
        store.record_outcomes(
            record.job_id,
            [PointOutcome(index=0, ok=True), PointOutcome(index=2, ok=True)],
            record=live,
        )
        assert [o.index for o in store.outcomes(record.job_id)] == [0, 2]
        assert store.get(record.job_id).state.completed == 2

    def test_unknown_job_row_rolls_the_outcomes_back(self, store):
        ghost = make_record()
        with pytest.raises(ServiceError, match="not found"):
            store.record_outcomes(ghost.job_id,
                                  [PointOutcome(index=0, ok=True)],
                                  record=ghost)
        assert store.outcomes(ghost.job_id) == []


class TestPersistence:
    def test_reopen_sees_everything(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        first = SQLiteJobStore(path)
        record = make_record(resilience={"degrades": 2})
        first.put(record)
        first.record_outcome(record.job_id, PointOutcome(index=0, ok=True))

        second = SQLiteJobStore(path)
        assert second.get(record.job_id) == record
        assert len(second.outcomes(record.job_id)) == 1
        assert second.schema_version() == SCHEMA_VERSION


class TestMigrations:
    def test_fresh_store_is_at_latest_version(self, store):
        assert store.schema_version() == SCHEMA_VERSION
        assert SCHEMA_VERSION == MIGRATIONS[-1][0]

    def test_v1_store_upgrades_in_place(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE schema_migrations ("
            "version INTEGER PRIMARY KEY, applied_at TEXT NOT NULL)"
        )
        for statement in MIGRATIONS[0][1]:
            conn.execute(statement)
        conn.execute(
            "INSERT INTO schema_migrations VALUES (1, '2025-01-01T00:00:00Z')"
        )
        conn.commit()
        conn.close()

        store = SQLiteJobStore(path)  # opening migrates
        assert store.schema_version() == SCHEMA_VERSION

        with sqlite3.connect(path) as conn:
            versions = [
                row[0] for row in conn.execute(
                    "SELECT version FROM schema_migrations ORDER BY version"
                )
            ]
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(jobs)")
            }
        assert versions == [version for version, _ in MIGRATIONS]
        assert "resilience_json" in columns  # the v2 column is usable

        record = make_record(resilience={"fallbacks": 0})
        store.put(record)
        assert store.get(record.job_id).resilience == {"fallbacks": 0}

    def test_migration_history_is_append_only_shape(self):
        versions = [version for version, _ in MIGRATIONS]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert all(statements for _, statements in MIGRATIONS)


class TestOpenJobStore:
    def test_accepts_path_and_sqlite_url(self, tmp_path):
        by_path = open_job_store(tmp_path / "a.sqlite")
        by_url = open_job_store(f"sqlite:///{tmp_path}/b.sqlite")
        assert isinstance(by_path, SQLiteJobStore)
        assert isinstance(by_url, SQLiteJobStore)
        assert by_url.path == tmp_path / "b.sqlite"

    def test_unknown_scheme_raises_eagerly(self, tmp_path):
        with pytest.raises(ServiceError, match="postgres"):
            open_job_store("postgres://db/jobs")

    def test_memory_store_is_rejected(self):
        with pytest.raises(ServiceError, match="memory"):
            SQLiteJobStore(":memory:")


class TestChunks:
    """Schema v3: the fabric's chunk-lease table."""

    def make_job_with_chunks(self, store, bounds=((0, 4), (4, 8), (8, 12))):
        # put plans the chunk rows: size the job so its plan is ``bounds``
        record = make_record(
            values=tuple(float(v) for v in range(bounds[-1][1])),
            chunk_size=bounds[0][1] - bounds[0][0],
        )
        store.put(record)
        assert [(c.start, c.stop) for c in store.chunks(record.job_id)] \
            == list(bounds)
        return record

    def test_create_is_idempotent(self, store):
        record = self.make_job_with_chunks(store)
        # resubmitting the same plan creates nothing new
        assert store.create_chunks(
            record.job_id, ((0, 4), (4, 8), (8, 12))) == 0
        assert store.chunk_counts(record.job_id) == {"queued": 3}

    def test_lease_wins_each_chunk_exactly_once(self, store):
        record = self.make_job_with_chunks(store)
        seen = set()
        for _ in range(3):
            chunk = store.lease_chunk("w1", 30.0, record.job_id)
            assert chunk is not None and chunk.worker_id == "w1"
            seen.add((chunk.start, chunk.stop))
        assert seen == {(0, 4), (4, 8), (8, 12)}
        assert store.lease_chunk("w2", 30.0, record.job_id) is None
        assert store.chunk_counts(record.job_id) == {"leased": 3}

    def test_lease_filters_by_job(self, store):
        a = self.make_job_with_chunks(store, ((0, 2),))
        b = self.make_job_with_chunks(store, ((0, 2),))
        chunk = store.lease_chunk("w1", 30.0, b.job_id)
        assert chunk.job_id == b.job_id
        assert store.lease_chunk("w1", 30.0, b.job_id) is None
        assert store.lease_chunk("w1", 30.0, a.job_id).job_id == a.job_id

    def test_heartbeat_extends_only_for_the_holder(self, store):
        record = self.make_job_with_chunks(store, ((0, 4),))
        chunk = store.lease_chunk("w1", 30.0, record.job_id)
        assert store.heartbeat_chunk(record.job_id, chunk.chunk_id,
                                     "w1", 30.0)
        assert not store.heartbeat_chunk(record.job_id, chunk.chunk_id,
                                         "intruder", 30.0)

    def test_complete_requires_the_lease(self, store):
        record = self.make_job_with_chunks(store, ((0, 4),))
        chunk = store.lease_chunk("w1", 30.0, record.job_id)
        assert not store.complete_chunk(record.job_id, chunk.chunk_id,
                                        "intruder")
        assert store.complete_chunk(record.job_id, chunk.chunk_id, "w1")
        assert store.chunk_counts(record.job_id) == {"done": 1}
        # done chunks are never leased again
        assert store.lease_chunk("w2", 30.0, record.job_id) is None

    def test_fail_requeues_until_attempts_exhausted(self, store):
        record = self.make_job_with_chunks(store, ((0, 4),))
        chunk = store.lease_chunk("w1", 30.0, record.job_id)
        # attempt 1 of 2: back to the queue
        assert store.fail_chunk(record.job_id, chunk.chunk_id, "w1",
                                "boom", max_attempts=2) == "queued"
        chunk = store.lease_chunk("w2", 30.0, record.job_id)
        assert chunk is not None
        # attempt 2 of 2: parked failed
        assert store.fail_chunk(record.job_id, chunk.chunk_id, "w2",
                                "boom again", max_attempts=2) == "failed"
        rows = store.chunks(record.job_id)
        assert rows[0].state == "failed"
        assert rows[0].error == "boom again"
        assert store.lease_chunk("w3", 30.0, record.job_id) is None

    def test_fail_by_non_holder_is_ignored(self, store):
        record = self.make_job_with_chunks(store, ((0, 4),))
        chunk = store.lease_chunk("w1", 30.0, record.job_id)
        assert store.fail_chunk(record.job_id, chunk.chunk_id, "intruder",
                                "nope") is None
        assert store.chunk_counts(record.job_id) == {"leased": 1}

    def test_expired_leases_requeue(self, store):
        record = self.make_job_with_chunks(store, ((0, 4), (4, 8)))
        store.lease_chunk("w1", 0.0, record.job_id)   # expires immediately
        store.lease_chunk("w2", 60.0, record.job_id)  # still live
        assert store.expire_chunk_leases() == 1
        counts = store.chunk_counts(record.job_id)
        assert counts == {"queued": 1, "leased": 1}
        # the requeued chunk is leasable again and keeps its attempt count
        chunk = store.lease_chunk("w3", 30.0, record.job_id)
        assert chunk is not None
        assert chunk.attempts == 2

    def test_chunks_survive_reopen(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "jobs.sqlite")
        record = self.make_job_with_chunks(store, ((0, 4),))
        store.lease_chunk("w1", 60.0, record.job_id)
        store.close()
        reopened = SQLiteJobStore(tmp_path / "jobs.sqlite")
        rows = reopened.chunks(record.job_id)
        assert len(rows) == 1
        assert rows[0].state == "leased"
        assert rows[0].worker_id == "w1"

    def test_v2_store_gains_chunks_table_on_open(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE schema_migrations ("
            "version INTEGER PRIMARY KEY, applied_at TEXT NOT NULL)"
        )
        for version, statements in MIGRATIONS[:2]:
            for statement in statements:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO schema_migrations VALUES "
                f"({version}, '2025-01-01T00:00:00Z')"
            )
        conn.commit()
        conn.close()

        store = SQLiteJobStore(path)  # opening migrates v2 -> v3
        assert store.schema_version() == SCHEMA_VERSION
        record = make_record()
        store.put(record)  # plans the job's one chunk
        assert store.create_chunks(record.job_id, ((0, 2),)) == 0
        assert store.chunk_counts(record.job_id) == {"queued": 1}


class TestOneModelMigration:
    """Schema v4: stores written before every job became a chunked job."""

    #: The five route-picking spec keys schema v4 strips.
    DELETED = {"backend": "kernel-batch", "workers": None, "retries": None,
               "timeout": None, "fabric": False}

    def v3_row(self, phase, values, **state):
        from repro.config import REFERENCE_RESONANT_SENSOR

        spec = JobSpec(
            base=REFERENCE_RESONANT_SENSOR.to_dict(),
            path="cantilever.length_um", values=values, duration=0.004,
            tenant="old", chunk_size=1,
        )
        record = JobRecord(
            job_id=new_job_id(), spec=spec,
            state=JobState(phase=phase, total=len(values),
                           submitted_at=time.time(), **state),
        )
        row = SQLiteJobStore._to_row(record)
        row["spec_json"] = json.dumps({**spec.to_dict(), **self.DELETED})
        return record, row

    def test_v3_store_opens_at_v4_and_runs_its_jobs(self, tmp_path):
        from repro.engine import TieredCache
        from repro.service import ReproService, sweep_result_key

        path = tmp_path / "old.sqlite"
        cache = TieredCache(str(tmp_path / "cache"))
        done, done_row = self.v3_row("done", (150.0,), completed=1,
                                     finished_at=time.time())
        done_row["result_key"] = sweep_result_key(done.work_hash)
        payload = {"parameter_name": "cantilever.length_um",
                   "parameters": [150.0], "columns": {"x": [1.0]},
                   "points": [{"index": 0, "ok": True}]}
        cache.put(done_row["result_key"], payload)
        queued, queued_row = self.v3_row("queued", (160.0, 170.0))
        running, running_row = self.v3_row("running", (180.0, 190.0),
                                           started_at=time.time())
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE schema_migrations ("
            "version INTEGER PRIMARY KEY, applied_at TEXT NOT NULL)"
        )
        for version, statements in MIGRATIONS[:3]:
            for statement in statements:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO schema_migrations VALUES "
                f"({version}, '2025-01-01T00:00:00Z')"
            )
        for row in (done_row, queued_row, running_row):
            conn.execute(
                f"INSERT INTO jobs ({', '.join(row)}) "
                f"VALUES ({', '.join(':' + c for c in row)})", row)
        conn.commit()
        conn.close()

        store = SQLiteJobStore(path)  # opening migrates v3 -> v4
        assert store.schema_version() == SCHEMA_VERSION == 4
        assert len(store.list_jobs()) == 3  # every spec decodes again
        assert store.chunk_counts(done.job_id) == {}
        for record in (queued, running):
            assert store.chunk_counts(record.job_id) == {"queued": 2}

        service = ReproService(store, cache, poll_interval=0.02)
        service.start()
        try:
            assert service.status(done.job_id)["state"]["phase"] == "done"
            assert service.results(done.job_id) == payload
            for record in (queued, running):
                final = service.status(record.job_id, wait=60)
                assert final["state"]["phase"] == "done"
                assert service.results(record.job_id)["parameters"] \
                    == list(record.spec.values)
        finally:
            service.stop()


class TestLockRetry:
    """Injected SQLITE_BUSY storms: every write path retries through them."""

    def test_locked_errors_are_absorbed(self, store):
        from repro.engine.resilience import FaultPlan, inject_faults

        record = make_record()
        with inject_faults(FaultPlan.single("store.op", count=2)) as inj:
            store.put(record)
        assert inj.fired["store.op"] == 2
        assert store.get(record.job_id) is not None

    def test_reads_retry_too(self, store):
        from repro.engine.resilience import FaultPlan, inject_faults

        store.put(make_record())
        with inject_faults(FaultPlan.single("store.op", count=3)) as inj:
            assert store.counts() == {"queued": 1}
        assert inj.fired["store.op"] == 3

    def test_exhausted_retries_reraise(self, store):
        from repro.engine.resilience import FaultPlan, inject_faults

        with inject_faults(FaultPlan.single("store.op", count=20)):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.put(make_record())

    def test_lost_cas_race_reselects_a_chunk(self, store):
        from repro.engine.resilience import FaultPlan, inject_faults

        record = make_record(values=tuple(float(v) for v in range(4)))
        store.put(record)
        store.create_chunks(record.job_id, ((0, 2), (2, 4)))
        # the first CAS iteration loses its race; the loop tries again
        with inject_faults(FaultPlan.single("store.claim", count=1)) as inj:
            chunk = store.lease_chunk("w1", 30.0, record.job_id)
        assert inj.fired["store.claim"] == 1
        assert chunk is not None and chunk.worker_id == "w1"
        assert store.chunk_counts(record.job_id) == {"queued": 1, "leased": 1}


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestConnectionPool:
    """Connections are reused, bounded, closable and never cross a fork."""

    def test_open_fds_stay_bounded_and_close_returns_them(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "jobs.sqlite")
        record = make_record()
        store.put(record)
        store.close()
        gc.collect()  # stores dropped by earlier tests close their pools
        baseline = _open_fds()
        store.get(record.job_id)
        per_connection = _open_fds() - baseline
        assert per_connection >= 1
        store.close()

        threads = 8
        peak = [0]
        peak_lock = threading.Lock()
        gate = threading.Semaphore(threads)
        indices = iter(range(200))

        def call() -> None:
            with gate:
                with peak_lock:
                    index = next(indices)
                store.record_outcome(record.job_id,
                                     PointOutcome(index=index, ok=True))
                with peak_lock:
                    peak[0] = max(peak[0], _open_fds())

        def long_lived() -> None:
            for _ in range(25):
                call()

        # 4 long-lived workers (25 calls each) beside 100 one-shot
        # threads, HTTP-handler style; at most 8 inside the store at once
        workers = [threading.Thread(target=long_lived) for _ in range(4)]
        one_shots = [threading.Thread(target=call) for _ in range(100)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool's bookkeeping
        try:
            for thread in workers + one_shots:
                thread.start()
            for thread in workers + one_shots:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + one_shots)

        # no write lost to a shared connection, and each call held one
        # connection: the bound is per concurrent caller, not per thread
        assert len(store.outcomes(record.job_id)) == 200
        assert peak[0] <= baseline + threads * per_connection
        store.close()
        assert _open_fds() == baseline
        # a call after close() simply opens a fresh connection
        assert store.get(record.job_id) == record
        store.close()
        assert _open_fds() == baseline

    def test_forked_child_opens_its_own_connection(self, tmp_path,
                                                   monkeypatch):
        store = SQLiteJobStore(tmp_path / "jobs.sqlite")
        first, second = make_record(), make_record()
        store.put(first)  # the parent now holds a pooled connection
        connects: list[int] = []
        original = sqlite3.connect

        def counting_connect(*args, **kwargs):
            connects.append(os.getpid())
            return original(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            verdict = b"0"
            try:
                ok = store.get(first.job_id) is not None
                store.put(second)
                if ok and connects == [os.getpid()]:
                    verdict = b"1"
            finally:
                os.write(write, verdict)
                os._exit(0)
        os.close(write)
        os.waitpid(pid, 0)
        assert os.read(read, 1) == b"1"
        os.close(read)
        # the parent's pooled connection still works and sees the
        # child's write; it needed no new connection
        assert store.get(second.job_id) == second
        assert connects == []
