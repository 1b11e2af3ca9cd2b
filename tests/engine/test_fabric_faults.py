"""Distributed fault sites of the fabric, injected and survived.

The chaos-fabric PR's worker-side guarantees, pinned deterministically
(the subprocess schedules live in ``tools/chaos_check.py``):

* a lease expired mid-chunk never double-finalizes: the second owner
  completes exactly once, the first owner's stale completion is
  dropped, and every point the loser computed is served back as a
  cache hit — zero recomputes, proved by worker stats;
* a lost completion ack (``fabric.complete`` fault) makes the worker
  complete twice; the store's idempotent CAS acknowledges the replay
  without disturbing the chunk row;
* a vanished heartbeat (``fabric.heartbeat`` fault) abandons the chunk
  mid-flight; the same worker re-leases it after expiry and finishes
  from cache hits;
* an injected lease-clock skew (``fabric.lease`` fault) collapses the
  heartbeat TTL so the watchdog can expire a *live* worker;
* ``fabric.crash`` (armed through :data:`FAULT_PLAN_ENV` exactly as
  the chaos harness does it) kills the worker process between
  cache-write and completion; resume recomputes nothing.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import TieredCache
from repro.engine.fabric import (
    CRASH_EXIT_CODE,
    FabricWorker,
    _worker_process_main,
    run_fabric_sweep,
    submit_fabric_job,
)
from repro.engine.resilience import FAULT_PLAN_ENV, FaultPlan, inject_faults
from repro.service.store import open_job_store

from .test_fabric import (
    DURATION,
    PATH,
    assert_bit_exact,
    serial_reference,
    values_for,
)


def make_job(store, tmp_path, n=8, chunk_size=4):
    record = submit_fabric_job(
        store, REFERENCE_RESONANT_SENSOR, PATH, values_for(n),
        duration=DURATION, chunk_size=chunk_size,
    )
    store.claim(record.job_id)
    return record


class TestLeaseExpiryRace:
    def test_two_workers_exactly_once_finalization(self, tmp_path):
        """A skewed watchdog steals A's live lease; B finishes from hits."""
        store = open_job_store(tmp_path / "jobs.sqlite")
        cache = TieredCache(tmp_path / "cache")
        record = make_job(store, tmp_path, n=4, chunk_size=4)

        loser = FabricWorker(store, cache, worker_id="worker-a",
                             lease_seconds=30.0)
        lease = store.lease_chunk("worker-a", 30.0, record.job_id)
        assert lease is not None
        context = loser._context_for(record.job_id)
        held = loser._run_points(context, lease)
        assert held  # every point computed and cached, lease never refused
        assert loser.stats.points_computed == 4

        # the watchdog's clock runs 60 s fast: A's live lease expires
        assert store.expire_chunk_leases(now=time.time() + 60.0) == 1

        winner = FabricWorker(store, cache, worker_id="worker-b",
                              lease_seconds=30.0, job_id=record.job_id)
        stats = winner.run(idle_exit=None)
        assert stats.chunks_done == 1
        assert stats.points_computed == 0      # zero recomputes
        assert stats.points_cached == 4        # A's work served as hits

        # A finally reports in: its completion must lose, quietly
        assert store.complete_chunk(record.job_id, lease.chunk_id,
                                    "worker-a").ok is False
        (row,) = store.chunks(record.job_id)
        assert row.state == "done"
        assert row.worker_id == "worker-b"     # B's attempt record stands
        assert row.attempts == 2
        assert store.chunk_counts(record.job_id) == {"done": 1}

    def test_duplicate_completion_ack_is_idempotent(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = make_job(store, tmp_path, n=4, chunk_size=4)
        lease = store.lease_chunk("worker-a", 30.0, record.job_id)
        assert store.complete_chunk(record.job_id, lease.chunk_id,
                                    "worker-a").ok is True
        # the ack was lost; the worker retries — same verdict, no churn
        assert store.complete_chunk(record.job_id, lease.chunk_id,
                                    "worker-a").ok is True
        assert store.chunk_counts(record.job_id) == {"done": 1}
        # a stranger replaying the completion is refused
        assert store.complete_chunk(record.job_id, lease.chunk_id,
                                    "worker-z").ok is False


class TestInjectedWorkerFaults:
    def test_lost_completion_ack_retries_through_idempotent_store(
            self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        cache = TieredCache(tmp_path / "cache")
        record = make_job(store, tmp_path, n=8, chunk_size=4)
        worker = FabricWorker(store, cache, job_id=record.job_id)
        with inject_faults(FaultPlan.single("fabric.complete", at=0)) as inj:
            stats = worker.run(idle_exit=None)
        assert inj.fired["fabric.complete"] == 1
        assert stats.chunks_done == 2          # counted once per chunk
        assert stats.points_computed == 8
        assert store.chunk_counts(record.job_id) == {"done": 2}

    def test_heartbeat_loss_abandons_then_resumes_from_hits(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        cache = TieredCache(tmp_path / "cache")
        record = make_job(store, tmp_path, n=8, chunk_size=4)
        # the heartbeat after the second point vanishes; a short lease
        # lets the worker's own watchdog sweep requeue the orphan
        worker = FabricWorker(store, cache, job_id=record.job_id,
                              lease_seconds=0.5, poll_interval=0.05)
        with inject_faults(FaultPlan.single("fabric.heartbeat", at=1)) as inj:
            stats = worker.run(idle_exit=2.0)
        assert inj.fired["fabric.heartbeat"] == 1
        assert stats.leases_lost >= 1
        assert stats.points_computed == 8      # abandoned points re-served
        assert store.chunk_counts(record.job_id) == {"done": 2}

    def test_lease_skew_collapses_heartbeat_ttl(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        cache = TieredCache(tmp_path / "cache")
        # slow points give the main thread a window to observe the lease
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values_for(4),
            duration=0.08, chunk_size=4,
        )
        store.claim(record.job_id)
        worker = FabricWorker(store, cache, job_id=record.job_id,
                              lease_seconds=30.0)
        observed: list[float] = []

        def observe() -> None:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                rows = store.chunks(record.job_id)
                if rows and rows[0].state == "leased" \
                        and rows[0].lease_expires_at:
                    observed.append(rows[0].lease_expires_at - time.time())
                if rows and rows[0].state == "done":
                    return
                time.sleep(0.01)

        watcher = threading.Thread(target=observe)
        with inject_faults(
            FaultPlan.single("fabric.lease", at=0, payload=0.05)
        ) as inj:
            watcher.start()
            stats = worker.run(idle_exit=None)
            watcher.join()
        assert inj.fired["fabric.lease"] == 1
        assert stats.chunks_done == 1
        # every heartbeat extended the lease by ~50 ms, not 30 s
        assert observed, "watcher never saw the leased chunk"
        assert min(observed) < 5.0


class TestCrashViaEnvPlan:
    def test_env_armed_crash_resumes_with_zero_recomputes(self, tmp_path):
        """The chaos harness path: plan rides the env into the spawn."""
        values = values_for(8)
        db = tmp_path / "jobs.sqlite"
        cache_dir = tmp_path / "cache"
        store = open_job_store(db)
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values,
            duration=DURATION, chunk_size=4,
        )
        store.claim(record.job_id)

        plan = FaultPlan.single("fabric.crash", at=2)  # die caching point 3
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
        try:
            ctx = mp.get_context("spawn")
            proc = ctx.Process(
                target=_worker_process_main,
                args=(str(db), str(cache_dir),
                      {"job_id": record.job_id, "lease_seconds": 2.0}),
            )
            proc.start()
            proc.join(timeout=180)
            assert proc.exitcode == CRASH_EXIT_CODE
        finally:
            del os.environ[FAULT_PLAN_ENV]

        survivors = sum(1 for _ in cache_dir.rglob("*.pkl"))
        assert survivors == 3                  # the crash window is exact
        assert "leased" in store.chunk_counts(record.job_id)

        time.sleep(2.1)                        # let the orphan lease expire
        cache = TieredCache(cache_dir)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=db, cache_dir=cache_dir, duration=DURATION,
            workers=0, chunk_size=4, cache=cache,
        )
        info = cache.cache_info()
        assert info.stores == len(values) - survivors + 1  # + result blob
        assert_bit_exact(serial_reference(values), result)
