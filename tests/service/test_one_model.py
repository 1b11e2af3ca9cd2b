"""One job execution model: every job runs as leased chunks.

* a cancel stops a chunked job — no lease is granted after it, and the
  pump's executor stops between points — on the pump and on a remote
  node alike, also when the node holding its chunk died; a queued job
  cancelled before any lease is never leased;
* a point that raises settles as a failed ``task-error`` outcome while
  its chunk completes, on the pump and on a remote node alike, and
  :func:`run_fabric_sweep` raises naming the point;
* progress counts each completed chunk, also when workers complete
  chunks of one job at the same moment;
* a job whose grid cannot be built fails without stopping the pump;
* a restart resumes a job whose chunk a dead worker held, without
  waiting out the lease, and a live pump finishes a job a dead worker
  node started;
* every job a pump thread runs leases under one worker identity, and a
  job whose chunks quarantine that worker fails alone;
* of two finalizers racing on one job the first wins, and a resumed
  sweep of a cancelled job ends as soon as the job has settled.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import LoopSweepTask
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import (
    HTTPRemoteStore,
    ResultCache,
    TieredCache,
    breaker_report,
)
from repro.engine.fabric import (
    FabricWorker,
    run_fabric_sweep,
    submit_fabric_job,
)
from repro.errors import FabricError
from repro.service import (
    JobRecord,
    JobState,
    PointOutcome,
    RemoteFabricStore,
    SQLiteJobStore,
    new_job_id,
    open_job_store,
)
from repro.service.pump import finalize_job

from .test_service_end_to_end import DURATION, make_spec, running_service

PATH = "cantilever.length_um"
TWELVE = tuple(160.0 + 4.0 * i for i in range(12))
#: The grid point the poisoned task raises on.
BAD = 175.0


def remote_service(tmp_path):
    """A coordinator-only service: jobs run on worker nodes only."""
    cache = TieredCache(str(tmp_path / "server-cache"))
    return running_service(tmp_path, cache=cache, pump_workers=0)


def remote_worker(box, job_id, cache_dir) -> FabricWorker:
    """A worker node on the far side of HTTP, bound to ``job_id``."""
    cache = TieredCache(str(cache_dir),
                        remote=HTTPRemoteStore(box.client.url))
    return FabricWorker(RemoteFabricStore(box.client), cache,
                        job_id=job_id, lease_seconds=20.0)


def spy_leases(monkeypatch) -> list:
    """(start time, granted chunk or None) of every store lease call."""
    leases: list = []
    original = SQLiteJobStore.lease_chunk

    def lease_chunk(self, *args, **kwargs):
        started = time.monotonic()
        chunk = original(self, *args, **kwargs)
        leases.append((started, chunk))
        return chunk

    monkeypatch.setattr(SQLiteJobStore, "lease_chunk", lease_chunk)
    return leases


def poison(monkeypatch) -> None:
    """Make the closed-loop task raise on the ``BAD`` grid point."""
    original = LoopSweepTask.__call__

    def call(self, spec):
        if spec.cantilever.length_um == BAD:
            raise RuntimeError("poisoned point")
        return original(self, spec)

    monkeypatch.setattr(LoopSweepTask, "__call__", call)


class TestCancel:
    def test_cancel_stops_a_running_job_on_the_pump(self, tmp_path,
                                                     monkeypatch):
        leases = spy_leases(monkeypatch)
        with running_service(tmp_path) as box:
            record = box.client.submit(make_spec(
                values=TWELVE, chunk_size=2, duration=0.05))
            job_id = record["job_id"]
            deadline = time.monotonic() + 60.0
            while not box.store.chunk_counts(job_id).get("done"):
                assert time.monotonic() < deadline, "no chunk completed"
                time.sleep(0.005)
            box.client.cancel(job_id)
            cancelled_at = time.monotonic()
            final = box.client.wait(job_id, timeout=60)
            counts = box.store.chunk_counts(job_id)
        assert final["state"]["phase"] == "cancelled"
        assert counts.get("done", 0) < 6
        assert "leased" not in counts
        assert [c for t, c in leases if t > cancelled_at and c] == []

    def test_cancel_stops_a_running_job_on_a_remote_node(self, tmp_path,
                                                          monkeypatch):
        leases = spy_leases(monkeypatch)
        with remote_service(tmp_path) as box:
            record = box.client.submit(make_spec(values=TWELVE,
                                                 chunk_size=2))
            job_id = record["job_id"]
            remote_worker(box, job_id, tmp_path / "w1").run(max_chunks=1)
            assert box.client.status(job_id)["state"]["phase"] == "running"
            box.client.cancel(job_id)
            cancelled_at = time.monotonic()
            stats = remote_worker(box, job_id, tmp_path / "w2").run(
                idle_exit=5.0)
            final = box.client.wait(job_id, timeout=60)
            counts = box.client.fabric_chunks(job_id)["counts"]
        assert final["state"]["phase"] == "cancelled"
        assert stats.chunks_done == 0 and stats.points_computed == 0
        assert counts == {"done": 1, "queued": 5}
        assert [c for t, c in leases if t > cancelled_at and c] == []

    def test_cancel_settles_when_a_dead_nodes_lease_lapses(self, tmp_path):
        with remote_service(tmp_path) as box:
            job_id = box.client.submit(make_spec(values=(160.0, 170.0)))[
                "job_id"]
            assert box.store.lease_chunk("dead-node", 0.2, job_id)
            box.client.cancel(job_id)  # a chunk is out: only flagged
            assert box.client.status(job_id)["state"]["phase"] == "running"
            time.sleep(0.3)
            stats = remote_worker(box, job_id, tmp_path / "w").run(
                idle_exit=5.0)
            final = box.client.wait(job_id, timeout=10)
        assert final["state"]["phase"] == "cancelled"
        assert stats.chunks_done == 0

    def test_queued_job_cancelled_before_any_lease_is_never_leased(
            self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, TWELVE[:4],
            duration=DURATION, chunk_size=2,
        )
        assert store.request_cancel(record.job_id).state.phase == "cancelled"
        worker = FabricWorker(store, TieredCache(tmp_path / "cache"),
                              job_id=record.job_id)
        started = time.monotonic()
        stats = worker.run(idle_exit=30.0)
        assert time.monotonic() - started < 10.0  # not the idle timer
        assert stats.chunks_done == 0 and stats.points_computed == 0
        assert store.chunk_counts(record.job_id) == {"queued": 2}


class TestPointErrors:
    """A point that raises fails alone; its chunk still completes."""

    def assert_point_failed(self, box, job_id) -> None:
        final = box.client.wait(job_id, timeout=60)
        assert final["state"]["phase"] == "done"
        assert final["progress"]["failed"] == 1
        bad = final["outcomes"][1]
        assert not bad["ok"]
        assert bad["health"]["reason"] == "task-error"
        assert "poisoned point" in bad["error"]
        table = box.client.results(job_id)
        assert not table["points"][1]["ok"]
        for column in table["columns"].values():
            assert column[1] is None
            assert column[0] is not None and column[2] is not None
        assert box.client.fabric_chunks(job_id)["counts"] == {"done": 2}

    def test_on_the_pump(self, tmp_path, monkeypatch):
        poison(monkeypatch)
        with running_service(tmp_path) as box:
            record = box.client.submit(make_spec(
                values=(160.0, BAD, 190.0), chunk_size=2))
            self.assert_point_failed(box, record["job_id"])

    def test_on_a_remote_node(self, tmp_path, monkeypatch):
        poison(monkeypatch)
        with remote_service(tmp_path) as box:
            record = box.client.submit(make_spec(
                values=(160.0, BAD, 190.0), chunk_size=2))
            stats = remote_worker(box, record["job_id"],
                                  tmp_path / "worker").run(idle_exit=None)
            assert stats.chunks_done == 2 and stats.chunks_failed == 0
            self.assert_point_failed(box, record["job_id"])

    def test_run_fabric_sweep_names_the_point(self, tmp_path, monkeypatch):
        poison(monkeypatch)
        with pytest.raises(FabricError, match=r"point 1 .*poisoned point"):
            run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, PATH, [160.0, BAD, 190.0],
                db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
                duration=DURATION, workers=0, chunk_size=2,
            )


class TestProgress:
    def test_progress_counts_each_completed_chunk(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, TWELVE[:6],
            duration=DURATION, chunk_size=2,
        )
        worker = FabricWorker(store, TieredCache(tmp_path / "cache"),
                              job_id=record.job_id)
        worker.run(max_chunks=1)
        state = store.get(record.job_id).state
        assert (state.phase, state.completed, state.total) \
            == ("running", 2, 6)

    def test_simultaneous_completions_keep_every_count(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        store = open_job_store(path)
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, TWELVE[:8],
            duration=DURATION, chunk_size=2,
        )
        leases = [store.lease_chunk(f"w{i}", 30.0, record.job_id)
                  for i in range(4)]
        barrier = threading.Barrier(len(leases))
        completions = []

        def complete(lease) -> None:
            own = SQLiteJobStore(path)  # one store per worker process
            rows = [PointOutcome(index=i, ok=True)
                    for i in range(lease.start, lease.stop)]
            barrier.wait()
            completions.append(own.complete_chunk(
                record.job_id, lease.chunk_id, lease.worker_id, rows))

        threads = [threading.Thread(target=complete, args=(lease,))
                   for lease in leases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert len(completions) == len(leases)
        assert all(c.ok for c in completions)
        assert sum(c.settled for c in completions) == 1
        state = store.get(record.job_id).state
        assert state.completed == state.total == 8


class TestPump:
    def test_unbuildable_grid_fails_the_job_not_the_pump(self, tmp_path):
        with running_service(tmp_path) as box:
            bad = box.client.submit(make_spec(path="cantilever.no_such"))
            failed = box.client.wait(bad["job_id"], timeout=60)
            good = box.client.submit(make_spec())
            done = box.client.wait(good["job_id"], timeout=60)
            counts = box.client.fabric_chunks(bad["job_id"])["counts"]
        assert failed["state"]["phase"] == "failed"
        assert "no_such" in failed["state"]["error"]
        assert counts == {"queued": 1}        # its chunk was never leased
        assert done["state"]["phase"] == "done"

    def test_restart_requeues_a_dead_workers_lease(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = JobRecord(
            job_id=new_job_id(), spec=make_spec(values=(170.0, 210.0)),
            state=JobState(total=2, submitted_at=time.time()),
        )
        store.put(record)
        store.claim(record.job_id)
        # a worker died holding the job's only chunk for 30 s more
        assert store.lease_chunk("dead-worker", 30.0, record.job_id)
        store.close()
        started = time.monotonic()
        with running_service(tmp_path) as box:
            final = box.client.wait(record.job_id, timeout=60)
        assert final["state"]["phase"] == "done"
        assert time.monotonic() - started < 10.0

    def test_a_pump_thread_keeps_one_worker_identity(self, tmp_path):
        def pump_breakers() -> set:
            return {name for name in breaker_report()
                    if name.startswith("fabric-worker:pump-")}

        before = pump_breakers()
        with running_service(tmp_path) as box:
            for values in ((161.0,), (162.0,), (163.0,)):
                record = box.client.submit(make_spec(values=values))
                box.client.wait(record["job_id"], timeout=60)
        assert len(pump_breakers() - before) <= 1

    def test_a_quarantined_job_does_not_quarantine_the_next(self, tmp_path):
        class FullDisk(ResultCache):
            """A cache whose first three writes hit a full disk."""

            failures = 3

            def put(self, key, value) -> None:
                if self.failures:
                    self.failures -= 1
                    raise OSError(28, "No space left on device")
                super().put(key, value)

        cache = FullDisk(str(tmp_path / "cache"))
        with running_service(tmp_path, cache=cache) as box:
            sick = box.client.submit(make_spec(values=(164.0,)))
            failed = box.client.wait(sick["job_id"], timeout=60)
            well = box.client.submit(make_spec(values=(165.0,)))
            done = box.client.wait(well["job_id"], timeout=60)
        assert failed["state"]["phase"] == "failed"
        assert "No space left" in failed["state"]["error"]
        assert done["state"]["phase"] == "done"

    def test_the_pump_finishes_a_job_a_dead_node_started(self, tmp_path,
                                                          monkeypatch):
        gate = threading.Event()
        original = LoopSweepTask.__call__

        def call(self, spec):
            if spec.cantilever.length_um == 150.0:  # the blocker's point
                gate.wait(30.0)
            return original(self, spec)

        monkeypatch.setattr(LoopSweepTask, "__call__", call)
        with running_service(tmp_path) as box:
            blocker = box.client.submit(make_spec(values=(150.0,)))
            deadline = time.monotonic() + 30.0
            while box.client.status(blocker["job_id"])["state"]["phase"] \
                    != "running":
                assert time.monotonic() < deadline, "blocker never ran"
                time.sleep(0.005)
            # while the pump is busy, a worker node starts a job — its
            # first chunk leased — and dies without completing it
            job_id = box.client.submit(make_spec(
                values=TWELVE[:4], chunk_size=2))["job_id"]
            assert box.client.fabric_lease("dead-node", 0.3, job_id)
            assert box.client.status(job_id)["state"]["phase"] == "running"
            gate.set()
            final = box.client.wait(job_id, timeout=30)
            counts = box.client.fabric_chunks(job_id)["counts"]
        assert final["state"]["phase"] == "done"
        assert final["progress"]["completed"] == 4
        assert counts == {"done": 2}


class TestFinalize:
    @pytest.mark.parametrize("first", ["cancelled", "done"])
    def test_the_first_of_two_finalizers_wins(self, tmp_path, first):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, TWELVE[:2],
            duration=DURATION, chunk_size=2,
        )
        lease = store.lease_chunk("w", 30.0, record.job_id)
        plain = store.complete_chunk(
            record.job_id, lease.chunk_id, "w",
            [PointOutcome(index=i, ok=True) for i in range(2)],
        ).job
        store.request_cancel(record.job_id)
        cancelled = store.settled_job(record.job_id)
        assert not plain.record.state.cancel_requested
        assert cancelled.record.state.cancel_requested
        snapshots = {"done": plain, "cancelled": cancelled}
        later = "done" if first == "cancelled" else "cancelled"
        cache = ResultCache(str(tmp_path / "cache"))
        winner = finalize_job(store, cache, snapshots[first])
        loser = finalize_job(store, cache, snapshots[later])
        stored = store.get(record.job_id)
        assert winner.state.phase == first
        assert loser.state.phase == stored.state.phase == first
        assert stored.state.finished_at == winner.state.finished_at

    def test_a_resumed_sweep_of_a_cancelled_job_ends_at_once(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        store = open_job_store(db)
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, TWELVE[:4],
            duration=DURATION, chunk_size=2,
        )
        FabricWorker(store, TieredCache(tmp_path / "cache"),
                     job_id=record.job_id).run(max_chunks=1)
        store.request_cancel(record.job_id)
        counts = store.chunk_counts(record.job_id)
        assert counts == {"done": 1, "queued": 1} and counts.settled
        started = time.monotonic()
        with pytest.raises(FabricError, match="cancelled"):
            run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, PATH, TWELVE[:4], db=db,
                cache_dir=tmp_path / "cache", duration=DURATION,
                workers=0, chunk_size=2, wait_timeout=5.0,
            )
        assert time.monotonic() - started < 5.0
        assert store.get(record.job_id).state.phase == "cancelled"
