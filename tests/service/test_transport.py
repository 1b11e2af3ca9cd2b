"""HTTP transport hardening: retries, deadlines, backpressure.

Every test runs against a live :class:`ThreadingHTTPServer` (the
``running_service`` helper from the end-to-end suite) and injures the
wire with seeded ``http.request`` faults:

* connection refusals, injected 5xx, and truncated bodies are absorbed
  by the client's :class:`RetryPolicy` and counted in the transport
  counters — the caller never sees them;
* retry exhaustion surfaces one :class:`ServiceError`, counts one
  error, and feeds the ``transport:client`` breaker;
* a request stamped with an already-expired ``X-Repro-Deadline`` is
  shed by the server (503 + ``X-Repro-Shed: deadline``) and the client
  refuses to retry it — while ``/healthz`` stays exempt;
* a server at ``max_inflight`` sheds with ``Retry-After`` and the
  client rides the backpressure out.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.engine.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    get_breaker,
    inject_faults,
    reset_breakers,
)
from repro.errors import ServiceError
from repro.service import ServiceClient, health_snapshot
from repro.service.transport import reset_transport, transport_counters

from .test_service_end_to_end import make_spec, running_service

FAST_RETRY = RetryPolicy(retries=3, base_delay=0.001, max_delay=0.005,
                         jitter=0.0)


@pytest.fixture(autouse=True)
def clean_transport():
    """Process-global counters and breakers must not leak across tests."""
    reset_transport()
    reset_breakers()
    yield
    reset_transport()
    reset_breakers()


def fast_client(box) -> ServiceClient:
    return ServiceClient(box.client.url, timeout=30, retry=FAST_RETRY)


class TestRetryMatrix:
    def test_refused_connections_absorbed_over_wait(self, tmp_path):
        """Two injected refusals mid-poll; ``wait`` never notices."""
        with running_service(tmp_path) as box:
            client = fast_client(box)
            record = client.submit(make_spec())
            with inject_faults(
                FaultPlan.single("http.request", count=2)
            ) as inj:
                final = client.wait(record["job_id"], timeout=120)
            assert inj.fired["http.request"] == 2
            assert final["state"]["phase"] == "done"
        snap = transport_counters().snapshot()
        assert snap["retries"] >= 2
        assert snap["errors"] == 0

    def test_injected_5xx_absorbed(self, tmp_path):
        with running_service(tmp_path) as box:
            client = fast_client(box)
            with inject_faults(
                FaultPlan.single("http.request", kind="device", count=2)
            ) as inj:
                health = client.health()
            assert inj.fired["http.request"] == 2
            assert health["ok"]
        assert transport_counters().snapshot()["retries"] >= 2

    def test_truncated_body_reissued(self, tmp_path):
        """A mid-body disconnect fails JSON decode and retries clean."""
        with running_service(tmp_path) as box:
            client = fast_client(box)
            record = client.submit(make_spec())
            with inject_faults(
                FaultPlan.single("http.request", kind="corrupt")
            ) as inj:
                status = client.status(record["job_id"])
            assert inj.fired["http.request"] == 1
            assert status["job_id"] == record["job_id"]
        assert transport_counters().snapshot()["retries"] >= 1

    def test_hang_slows_but_succeeds(self, tmp_path):
        with running_service(tmp_path) as box:
            client = fast_client(box)
            with inject_faults(
                FaultPlan.single("http.request", kind="hang", payload=0.05)
            ) as inj:
                assert client.health()["ok"]
            assert inj.fired["http.request"] == 1
        # a hang is not a retry: the slow answer still counted as success
        assert transport_counters().snapshot()["errors"] == 0

    def test_exhaustion_surfaces_one_error_and_feeds_breaker(self, tmp_path):
        with running_service(tmp_path) as box:
            client = ServiceClient(
                box.client.url, timeout=30,
                retry=RetryPolicy(retries=1, base_delay=0.001, jitter=0.0),
            )
            with inject_faults(
                FaultPlan.single("http.request", count=10)
            ):
                with pytest.raises(ServiceError, match="injected refusal"):
                    client.health()
            snap = transport_counters().snapshot()
            assert snap["errors"] == 1
            assert get_breaker("transport:client").consecutive == 1
            # the next clean request closes the breaker again
            assert client.health()["ok"]
            assert get_breaker("transport:client").consecutive == 0


def dead_url() -> str:
    """A localhost URL whose port refuses connections."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestNdjsonTransport:
    def test_refused_ndjson_fetch_retries_then_service_error(self):
        client = ServiceClient(dead_url(), timeout=5, retry=FAST_RETRY)
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.results_ndjson("job-x")
        snap = transport_counters().snapshot()
        assert snap["requests"] == 1
        assert snap["retries"] == FAST_RETRY.retries
        assert snap["errors"] == 1
        assert get_breaker("transport:client").consecutive == 1

    def test_truncated_ndjson_body_refetched(self, tmp_path):
        with running_service(tmp_path) as box:
            client = fast_client(box)
            record = client.submit(make_spec())
            client.wait(record["job_id"], timeout=120)
            with inject_faults(
                FaultPlan.single("http.request", kind="corrupt")
            ) as inj:
                rows = client.results_ndjson(record["job_id"])
            assert inj.fired["http.request"] == 1
            assert len(rows) == 3
        assert transport_counters().snapshot()["retries"] >= 1


class TestDeadline:
    def test_expired_deadline_is_shed_not_retried(self, tmp_path):
        with running_service(tmp_path) as box:
            late = ServiceClient(box.client.url, timeout=30,
                                 retry=FAST_RETRY, deadline=-1.0)
            with pytest.raises(ServiceError, match="deadline exceeded"):
                late.submit(make_spec())
            snap = transport_counters().snapshot()
            assert snap["deadline_sheds"] >= 1
            assert snap["retries"] == 0          # a missed deadline is final
            # the server counted its side of the shed, and /healthz is
            # exempt from deadline admission — even for the late client
            health = late.health()
            assert health["ok"]
            assert health["service"]["transport"]["deadline_sheds"] >= 1

    def test_future_deadline_passes_through(self, tmp_path):
        with running_service(tmp_path) as box:
            client = ServiceClient(box.client.url, timeout=30,
                                   retry=FAST_RETRY, deadline=30.0)
            record = client.submit(make_spec())
            final = client.wait(record["job_id"], timeout=120)
            assert final["state"]["phase"] == "done"
            assert transport_counters().snapshot()["deadline_sheds"] == 0


class TestBackpressure:
    def test_full_server_sheds_then_recovers(self, tmp_path):
        with running_service(tmp_path, max_inflight=1,
                             shed_retry_after=0.02) as box:
            # occupy the only slot directly, release it shortly after
            assert box.service.begin_request()
            release = threading.Timer(0.15, box.service.end_request)
            release.start()
            try:
                client = ServiceClient(
                    box.client.url, timeout=30,
                    retry=RetryPolicy(retries=8, base_delay=0.01,
                                      max_delay=0.05, jitter=0.0),
                )
                record = client.submit(make_spec())
            finally:
                release.join()
            assert record["state"]["phase"] == "queued"
            snap = transport_counters().snapshot()
            assert snap["backpressure_rejections"] >= 1
            assert snap["retries"] >= 1
            assert snap["errors"] == 0
            inbound = client.health()["service"]["transport"]
            assert inbound["backpressure_rejections"] >= 1
            assert inbound["max_inflight"] == 1

    def test_healthz_exempt_from_admission(self, tmp_path):
        with running_service(tmp_path, max_inflight=1) as box:
            assert box.service.begin_request()     # saturate the server
            try:
                client = ServiceClient(
                    box.client.url, timeout=30,
                    retry=RetryPolicy(retries=0))
                assert client.health()["ok"]       # no slot needed
            finally:
                box.service.end_request()


class TestHealthSections:
    def test_transport_vitals_on_both_sides(self, tmp_path):
        with running_service(tmp_path) as box:
            client = fast_client(box)
            client.submit(make_spec())
            health = client.health()
        keys = ("requests", "retries", "errors", "deadline_sheds",
                "backpressure_rejections")
        outbound = health["transport"]
        assert all(isinstance(outbound[k], int) for k in keys)
        assert isinstance(outbound["breakers"], dict)
        inbound = health["service"]["transport"]
        assert all(isinstance(inbound[k], int) for k in keys)
        assert inbound["requests"] >= 1            # the submit (healthz is
        #                                            exempt, never counted)
        assert 0 <= inbound["inflight"] <= inbound["max_inflight"]
        assert inbound["peak_inflight"] >= 1
        # the local snapshot carries the same outbound counters
        local = health_snapshot()["transport"]
        assert local["requests"] == transport_counters().snapshot()["requests"]
