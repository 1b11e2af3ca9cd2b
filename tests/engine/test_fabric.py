"""The distributed sweep fabric, pinned end to end.

The acceptance criteria of the fabric PR live here:

* a >= 64-point closed-loop sweep executed by two leased worker
  processes is ``np.array_equal`` to the serial reference — bit-exact,
  not merely close;
* killing a worker mid-grid and resuming completes the sweep with
  **zero** recomputed points (proved by per-tier cache counters and
  disk entry counts);
* repeated chunk failure parks the chunk and quarantines the worker
  through its circuit breaker;
* the chunk planner and job submission are idempotent, so resumes
  never duplicate work;
* a job ends when its last chunk settles: bound workers leave then,
  not after an idle timer.
"""

from __future__ import annotations

import multiprocessing as mp
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.analysis import LoopSweepTask, plan_chunks, run_spec_sweep
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import TieredCache
from repro.engine.fabric import (
    CRASH_EXIT_CODE,
    FabricWorker,
    _worker_process_main,
    run_fabric_sweep,
    submit_fabric_job,
)
from repro.errors import FabricError
from repro.service import JobRecord, JobSpec, JobState, new_job_id
from repro.service.store import SQLiteJobStore, open_job_store

DURATION = 0.003
PATH = "cantilever.length_um"


def values_for(n):
    return [round(170.0 + 0.5 * i, 3) for i in range(n)]


def serial_reference(values):
    return run_spec_sweep(
        REFERENCE_RESONANT_SENSOR, PATH, values,
        LoopSweepTask(duration=DURATION), workers=0, backend="serial",
    )


def assert_bit_exact(reference, result):
    assert list(reference.columns) == list(result.columns)
    for name in reference.columns:
        assert np.array_equal(
            np.asarray(reference.columns[name]),
            np.asarray(result.columns[name]),
        ), f"column {name} deviates from the serial reference"


class TestPlanChunks:
    def test_contiguous_cover(self):
        assert plan_chunks(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_exact_division(self):
        assert plan_chunks(8, 4) == [(0, 4), (4, 8)]

    def test_single_chunk(self):
        assert plan_chunks(3, 8) == [(0, 3)]

    def test_empty_grid_is_an_empty_plan(self):
        assert plan_chunks(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            plan_chunks(-1, 4)
        with pytest.raises(ValueError):
            plan_chunks(4, 0)


class TestSubmission:
    def test_resubmit_reuses_job_and_chunks(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        first = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values_for(8),
            duration=DURATION, chunk_size=4,
        )
        second = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values_for(8),
            duration=DURATION, chunk_size=4,
        )
        assert second.job_id == first.job_id
        assert store.chunk_counts(first.job_id) == {"queued": 2}

    def test_resume_never_replans_chunks(self, tmp_path):
        values = values_for(8)
        store = open_job_store(tmp_path / "jobs.sqlite")
        first = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values,
            duration=DURATION, chunk_size=4,
        )
        # the resume asks for another chunk size; the plan stands
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=0, chunk_size=2,
        )
        rows = store.chunks(first.job_id)
        assert [(c.start, c.stop, c.state) for c in rows] \
            == [(0, 4, "done"), (4, 8, "done")]
        assert_bit_exact(serial_reference(values), result)


class TestBitExactness:
    def test_in_process_fabric_equals_serial(self, tmp_path):
        values = values_for(16)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=0, chunk_size=4,
        )
        assert_bit_exact(serial_reference(values), result)

    def test_64_points_two_leased_workers_equal_serial(self, tmp_path):
        """The headline acceptance: 64 points, 2 worker processes."""
        values = values_for(64)
        store = open_job_store(tmp_path / "jobs.sqlite")
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=2, chunk_size=8,
            lease_seconds=30.0,
        )
        returned_at = time.time()
        assert_bit_exact(serial_reference(values), result)
        record = store.list_jobs()[0]
        assert record.state.phase == "done"
        counts = store.chunk_counts(record.job_id)
        assert counts == {"done": 8}
        # at least two distinct workers actually leased chunks
        workers = {c.worker_id for c in store.chunks(record.job_id)}
        assert len(workers) >= 2
        # the sweep ends with its last chunk: the workers leave then,
        # rather than after an idle timer the coordinator must join
        with sqlite3.connect(tmp_path / "jobs.sqlite") as conn:
            (last_settled,) = conn.execute(
                "SELECT MAX(updated_at) FROM chunks").fetchone()
        assert returned_at - last_settled < 1.0

    def test_rerun_is_pure_cache_hits(self, tmp_path):
        values = values_for(12)
        kwargs = dict(
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=0, chunk_size=4,
        )
        first = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values, **kwargs)
        cache = TieredCache(tmp_path / "cache")
        second = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values, cache=cache, **kwargs)
        assert_bit_exact(first, second)
        info = cache.cache_info()
        assert info.stores == 0          # nothing recomputed, nothing written
        assert info.misses == 0


class TestKillAndResume:
    def test_killed_worker_resumes_with_zero_recomputes(self, tmp_path):
        values = values_for(16)
        db = tmp_path / "jobs.sqlite"
        cache_dir = tmp_path / "cache"
        store = open_job_store(db)
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values,
            duration=DURATION, chunk_size=4,
        )
        store.claim(record.job_id)

        # phase 1: a worker hard-exits (os._exit) after 5 fresh points,
        # mid-chunk, lease still held
        ctx = mp.get_context("spawn")
        proc = ctx.Process(
            target=_worker_process_main,
            args=(str(db), str(cache_dir),
                  {"job_id": record.job_id, "lease_seconds": 5.0,
                   "points_limit": 5}),
        )
        proc.start()
        proc.join(timeout=180)
        assert proc.exitcode == CRASH_EXIT_CODE
        survivors = sum(1 for _ in cache_dir.rglob("*.pkl"))
        assert survivors == 5
        assert "leased" in store.chunk_counts(record.job_id)

        # phase 2: resume; only the missing 11 points are computed
        cache = TieredCache(cache_dir)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=db, cache_dir=cache_dir, duration=DURATION,
            workers=0, chunk_size=4, cache=cache,
        )
        info = cache.cache_info()
        assert info.stores == len(values) - survivors + 1  # + result blob
        # every pre-crash point was served from a tier, not recomputed
        entries = sum(1 for _ in cache_dir.rglob("*.pkl"))
        assert entries == len(values) + 1
        assert_bit_exact(serial_reference(values), result)


class TestJobEnd:
    """A job ends when its last chunk settles, not when a timer runs out."""

    def make_job(self, store, n=8):
        return submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values_for(n),
            duration=DURATION, chunk_size=4,
        )

    def test_bound_worker_returns_when_its_job_settles(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = self.make_job(store)
        worker = FabricWorker(store, TieredCache(tmp_path / "cache"),
                              job_id=record.job_id)
        started = time.monotonic()
        stats = worker.run(idle_exit=30.0)
        assert stats.chunks_done == 2
        assert time.monotonic() - started < 10.0  # not the 30 s timer

    def test_bound_worker_waits_out_a_siblings_lease(self, tmp_path):
        """Idle is not settled: a held lease may still come back."""
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = self.make_job(store)
        held = store.lease_chunk("worker-a", 30.0, record.job_id)
        worker = FabricWorker(store, TieredCache(tmp_path / "cache"),
                              job_id=record.job_id, poll_interval=0.02)
        runner = threading.Thread(target=worker.run,
                                  kwargs={"idle_exit": 30.0})
        runner.start()
        try:
            deadline = time.monotonic() + 30.0
            while worker.stats.chunks_done < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.2)
            assert runner.is_alive()  # chunk 0 is still leased to A
            assert store.complete_chunk(record.job_id, held.chunk_id,
                                        "worker-a")
        finally:
            runner.join(timeout=10.0)
        assert not runner.is_alive()
        assert worker.stats.chunks_done == 1

    def test_unbound_or_unplanned_worker_keeps_its_idle_timer(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        cache = TieredCache(tmp_path / "cache")
        for job_id in (None, "job-without-chunks"):
            worker = FabricWorker(store, cache, job_id=job_id,
                                  poll_interval=0.02)
            started = time.monotonic()
            worker.run(idle_exit=0.3)
            assert time.monotonic() - started >= 0.3

    def test_coordinator_waits_out_an_orphaned_lease_without_spinning(
            self, tmp_path, monkeypatch):
        values = values_for(8)
        db = tmp_path / "jobs.sqlite"
        store = open_job_store(db)
        record = self.make_job(store)
        # a worker died holding chunk 0; its lease runs out in 0.5 s
        assert store.lease_chunk("dead-worker", 0.5, record.job_id)
        polls = []
        original = SQLiteJobStore.chunk_counts

        def chunk_counts(self, job_id):
            polls.append(job_id)
            return original(self, job_id)

        monkeypatch.setattr(SQLiteJobStore, "chunk_counts", chunk_counts)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=db, cache_dir=tmp_path / "cache", duration=DURATION,
            workers=0, chunk_size=4, poll_interval=0.05,
        )
        assert_bit_exact(serial_reference(values), result)
        # about one poll per interval while the lease runs out
        assert len(polls) < 50


class TestQuarantine:
    def make_poisoned_job(self, store, n=8):
        """A fabric job whose every point raises (override path is bogus)."""
        spec = JobSpec(
            base=REFERENCE_RESONANT_SENSOR.to_dict(),
            path="cantilever.does_not_exist",
            values=tuple(float(v) for v in range(n)),
            duration=DURATION, chunk_size=4,
        )
        record = JobRecord(
            job_id=new_job_id(), spec=spec,
            state=JobState(total=n, submitted_at=1000.0),
        )
        store.put(record)
        store.create_chunks(record.job_id, plan_chunks(n, 4))
        return record

    def test_failing_chunks_trip_the_breaker(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = self.make_poisoned_job(store)
        worker = FabricWorker(
            store, TieredCache(tmp_path / "cache"),
            job_id=record.job_id, max_attempts=1, breaker_threshold=2,
            lease_seconds=30.0,
        )
        stats = worker.run(idle_exit=None)
        assert stats.quarantined
        assert stats.chunks_failed == 2      # threshold, then it stopped
        assert stats.chunks_done == 0
        assert not worker.breaker.allow()
        counts = store.chunk_counts(record.job_id)
        assert counts.get("failed", 0) == 2

    def test_parked_chunks_fail_the_sweep(self, tmp_path):
        with pytest.raises(FabricError, match="failed permanently"):
            run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, "cantilever.does_not_exist",
                [1.0, 2.0, 3.0, 4.0],
                db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
                duration=DURATION, workers=0, chunk_size=2, max_attempts=1,
            )
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = store.list_jobs()[0]
        assert record.state.phase == "failed"
        assert record.state.error
