"""End-to-end service tests: real HTTP, real store, real pump.

Each test boots an actual :class:`ThreadingHTTPServer` on an ephemeral
port and talks to it through the urllib :class:`ServiceClient` — the
same wire path ``repro submit`` uses.  The acceptance criteria from the
service PR live here:

* a sweep submitted over HTTP persists, executes, and serves results
  that match a direct in-process run;
* a server killed mid-flight resumes/reports jobs from the SQLite
  store on restart (orphaned ``running`` rows re-queue and finish);
* a second tenant submitting the identical grid performs **zero**
  recomputes — every point is a result-cache hit and the cache's
  store counter does not move.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import pytest

from repro.analysis import LoopSweepTask, override_grid
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import TieredCache
from repro.errors import ServiceError
from repro.service import (
    JobSpec,
    ReproService,
    SchedulerPolicy,
    ServiceClient,
    open_job_store,
    serve,
)

DURATION = 0.004
VALUES = (150.0, 200.0, 250.0)


def make_spec(tenant="alice", values=VALUES, **overrides) -> JobSpec:
    kwargs = dict(
        base=REFERENCE_RESONANT_SENSOR.to_dict(),
        path="cantilever.length_um",
        values=values,
        duration=DURATION,
        tenant=tenant,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


@contextlib.contextmanager
def running_service(tmp_path, cache=None, pump_workers=1, **service_kwargs):
    """A live server on an ephemeral port + its client and internals.

    ``pump_workers=0`` keeps every job unexecuted until a worker node
    leases it.
    """
    store = open_job_store(tmp_path / "jobs.sqlite")
    if cache is None:
        cache = TieredCache(str(tmp_path / "cache"))
    service = ReproService(
        store, cache, SchedulerPolicy(tenant_quota=2),
        pump_workers=pump_workers, poll_interval=0.02, **service_kwargs,
    )
    server = serve("127.0.0.1", 0, service, background=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30)
    try:
        yield SimpleNamespace(
            client=client, service=service, store=store, cache=cache,
        )
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestSubmitToResults:
    def test_http_submit_persists_executes_and_serves_results(self, tmp_path):
        with running_service(tmp_path) as box:
            record = box.client.submit(make_spec())
            job_id = record["job_id"]
            assert record["state"]["phase"] == "queued"
            # durable before acknowledged: the row is in SQLite already
            assert box.store.get(job_id) is not None

            final = box.client.wait(job_id, timeout=120)
            assert final["state"]["phase"] == "done"
            assert final["progress"]["completed"] == len(VALUES)
            assert final["progress"]["failed"] == 0
            assert len(final["outcomes"]) == len(VALUES)
            assert all(o["ok"] for o in final["outcomes"])
            assert final["resilience"] is not None  # snapshot at completion

            table = box.client.results(job_id)
            assert table["parameters"] == list(VALUES)

            # the served numbers must equal a direct in-process run
            grid = override_grid(
                REFERENCE_RESONANT_SENSOR, "cantilever.length_um",
                list(VALUES),
            )
            task = LoopSweepTask(duration=DURATION)
            expected = [task(point) for point in grid]
            for name, column in table["columns"].items():
                assert column == pytest.approx(
                    [row[name] for row in expected], rel=0, abs=0
                )

    def test_results_refused_until_done(self, tmp_path):
        with running_service(tmp_path) as box:
            box.service.pump.stop()  # freeze execution: job stays queued
            record = box.client.submit(make_spec())
            with pytest.raises(ServiceError, match="no results yet"):
                box.client.results(record["job_id"])

    def test_ndjson_stream_one_line_per_point(self, tmp_path):
        with running_service(tmp_path) as box:
            record = box.client.submit(make_spec())
            box.client.wait(record["job_id"], timeout=120)
            rows = box.client.results_ndjson(record["job_id"])
            assert len(rows) == len(VALUES)
            assert [r["cantilever.length_um"] for r in rows] == list(VALUES)
            assert all(r["ok"] for r in rows)

    def test_invalid_spec_is_a_400_job_error(self, tmp_path):
        from repro.errors import JobError

        with running_service(tmp_path) as box:
            with pytest.raises(JobError, match="values"):
                box.client._request("POST", "/v1/jobs", {
                    "base": {"$spec": "resonant_sensor"},
                    "path": "cantilever.length_um", "values": [],
                })

    def test_deleted_spec_field_is_a_400_naming_it(self, tmp_path):
        from repro.errors import JobError

        with running_service(tmp_path, pump_workers=0) as box:
            for name, value in (("fabric", True), ("backend", "serial"),
                                ("workers", 2), ("retries", 1),
                                ("timeout", 5.0)):
                with pytest.raises(JobError, match=name):
                    box.client._request("POST", "/v1/jobs", {
                        **make_spec().to_dict(), name: value,
                    })
            assert box.client.list_jobs() == []

    def test_unknown_job_is_a_404(self, tmp_path):
        with running_service(tmp_path) as box:
            with pytest.raises(ServiceError, match="404"):
                box.client.status("job-missing")

    def test_healthz_reports_ok_and_service_vitals(self, tmp_path):
        with running_service(tmp_path) as box:
            health = box.client.health()
            assert health["ok"] is True
            assert health["service"]["pump_alive"] is True
            assert health["service"]["tenant_quota"] == 2
            assert "cache" in health["service"]


class TestRestartResume:
    def test_new_server_on_same_store_reports_finished_jobs(self, tmp_path):
        with running_service(tmp_path) as first:
            record = first.client.submit(make_spec())
            job_id = record["job_id"]
            first.client.wait(job_id, timeout=120)

        # a brand-new server process (fresh store/cache handles, same
        # files) must see and serve the finished job
        with running_service(tmp_path) as second:
            status = second.client.status(job_id)
            assert status["state"]["phase"] == "done"
            table = second.client.results(job_id)
            assert table["parameters"] == list(VALUES)

    def test_orphaned_running_job_requeues_and_completes(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        from repro.service import JobRecord, JobState, new_job_id

        spec = make_spec(values=(170.0, 210.0))
        orphan = JobRecord(
            job_id=new_job_id(), spec=spec,
            state=JobState(phase="queued", total=2, submitted_at=1.0),
        )
        store.put(orphan)
        claimed = store.claim(orphan.job_id)  # simulate a crash mid-run
        assert claimed.state.phase == "running"
        store.close()

        with running_service(tmp_path) as box:
            final = box.client.wait(orphan.job_id, timeout=120)
            assert final["state"]["phase"] == "done"
            assert final["progress"]["completed"] == 2
            table = box.client.results(orphan.job_id)
            assert table["parameters"] == [170.0, 210.0]


class TestCrossTenantDedup:
    def test_identical_grid_from_second_tenant_recomputes_nothing(
        self, tmp_path
    ):
        with running_service(tmp_path) as box:
            primary = box.client.submit(make_spec(tenant="alice"))
            box.client.wait(primary["job_id"], timeout=120)

            stores_before = box.cache.cache_info().stores
            twin = box.client.submit(make_spec(tenant="bob"))
            assert twin["dedup_of"] == primary["job_id"]

            final = box.client.wait(twin["job_id"], timeout=120)
            assert final["state"]["phase"] == "done"
            # zero recomputes: every point a cache hit, store counter flat
            assert (final["progress"]["cache_hits"]
                    == final["progress"]["total"])
            assert all(o["cached"] for o in final["outcomes"])
            assert box.cache.cache_info().stores == stores_before

            # both tenants read the same table
            assert (box.client.results(twin["job_id"])
                    == box.client.results(primary["job_id"]))

    def test_different_grid_is_not_deduplicated(self, tmp_path):
        with running_service(tmp_path) as box:
            first = box.client.submit(make_spec(tenant="alice"))
            other = box.client.submit(
                make_spec(tenant="bob", values=(151.0, 201.0, 251.0))
            )
            assert other["dedup_of"] is None
            box.client.wait(first["job_id"], timeout=120)
            box.client.wait(other["job_id"], timeout=120)


class TestCancellation:
    def test_queued_job_cancels_before_running(self, tmp_path):
        with running_service(tmp_path) as box:
            box.service.pump.stop()  # nothing will claim the job
            record = box.client.submit(make_spec())
            cancelled = box.client.cancel(record["job_id"])
            assert cancelled["state"]["phase"] == "cancelled"
            status = box.client.status(record["job_id"])
            assert status["state"]["phase"] == "cancelled"


class TestFabricOverHTTP:
    """The fabric PR's wire path: remote worker nodes over real HTTP."""

    def fabric_spec(self, values=VALUES, **overrides):
        return make_spec(values=values, chunk_size=2, **overrides)

    def test_remote_worker_executes_a_fabric_job(self, tmp_path):
        from repro.engine import HTTPRemoteStore, TieredCache
        from repro.engine.fabric import FabricWorker
        from repro.service import RemoteFabricStore

        cache = TieredCache(str(tmp_path / "server-cache"))
        with running_service(tmp_path, cache=cache, pump_workers=0) as box:
            values = tuple(float(v) for v in range(160, 208, 4))  # 12 pts
            record = box.client.submit(self.fabric_spec(values=values))
            job_id = record["job_id"]

            # a worker node on the far side of HTTP: leases as JSON,
            # ships results through the cache's remote tier
            worker_cache = TieredCache(
                str(tmp_path / "worker-cache"),
                remote=HTTPRemoteStore(box.client.url),
            )
            worker = FabricWorker(
                RemoteFabricStore(box.client), worker_cache,
                job_id=job_id, lease_seconds=20.0,
            )
            stats = worker.run(idle_exit=None)
            assert stats.chunks_done == 6
            assert stats.points_computed == len(values)
            assert worker_cache.cache_info().tier("remote").stores \
                == len(values)

            # the completion that settled the job finalized it server-side
            final = box.client.wait(job_id, timeout=60)
            assert final["state"]["phase"] == "done"
            table = box.client.results(job_id)

            grid = override_grid(
                REFERENCE_RESONANT_SENSOR, "cantilever.length_um",
                list(values),
            )
            task = LoopSweepTask(duration=DURATION)
            expected = [task(point) for point in grid]
            for name, column in table["columns"].items():
                assert column == pytest.approx(
                    [row[name] for row in expected], rel=0, abs=0
                )

            # chunk telemetry is served too
            chunks = box.client.fabric_chunks(job_id)
            assert chunks["counts"] == {"done": 6}
            # and the health payload exposes per-tier cache counters
            tiers = box.client.health()["service"]["cache"]["tiers"]
            assert {t["name"] for t in tiers} \
                == {"memory", "disk", "remote"}

    def test_cache_blob_endpoints_validate_payloads(self, tmp_path):
        from repro.engine import TieredCache

        cache = TieredCache(str(tmp_path / "server-cache"))
        with running_service(tmp_path, cache=cache) as box:
            cache.put("somekey", {"v": 7})
            raw = box.client._request  # noqa: F841 - JSON helper unusable here

            import urllib.request

            # GET round-trips the exact checksummed payload
            with urllib.request.urlopen(
                    f"{box.client.url}/v1/cache/somekey") as response:
                blob = response.read()
            assert blob == cache.export_entry("somekey")

            # PUT of a valid payload under its own key is accepted
            request = urllib.request.Request(
                f"{box.client.url}/v1/cache/somekey", data=blob,
                method="PUT",
                headers={"Content-Type": "application/octet-stream"},
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200

            # a tampered payload is a 400, never a cache entry
            bad = blob[:-5] + b"XXXXX"
            request = urllib.request.Request(
                f"{box.client.url}/v1/cache/otherkey", data=bad,
                method="PUT",
                headers={"Content-Type": "application/octet-stream"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
            assert cache.get("otherkey") is cache.MISS

            # unknown key is a 404
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"{box.client.url}/v1/cache/doesnotexist")
            assert err.value.code == 404

    def test_remote_node_runs_a_job_as_the_pump(self, tmp_path):
        """One model: a coordinator's worker node runs a plain job bit
        for bit as the pump would."""
        import numpy as np

        from repro.engine import HTTPRemoteStore, TieredCache
        from repro.engine.fabric import FabricWorker
        from repro.service import RemoteFabricStore

        spec = self.fabric_spec(values=(160.0, 175.0, 190.0, 205.0, 220.0))
        cache = TieredCache(str(tmp_path / "server-cache"))
        with running_service(tmp_path / "remote", cache=cache,
                             pump_workers=0) as box:
            job_id = box.client.submit(spec)["job_id"]
            worker = FabricWorker(
                RemoteFabricStore(box.client),
                TieredCache(str(tmp_path / "worker-cache"),
                            remote=HTTPRemoteStore(box.client.url)),
                job_id=job_id,
            )
            assert worker.run(idle_exit=None).chunks_done == 3
            assert box.client.wait(job_id, timeout=60)["state"]["phase"] \
                == "done"
            remote = box.client.results(job_id)
        with running_service(tmp_path / "pump") as box:
            job_id = box.client.submit(spec)["job_id"]
            box.client.wait(job_id, timeout=60)
            pumped = box.client.results(job_id)
        assert list(remote["columns"]) == list(pumped["columns"])
        for name, column in pumped["columns"].items():
            assert np.array_equal(np.asarray(remote["columns"][name]),
                                  np.asarray(column))
