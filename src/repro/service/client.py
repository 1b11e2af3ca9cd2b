"""Stdlib HTTP client for the simulation service.

A thin, dependency-free (urllib) wrapper over the ``/v1/jobs`` API so
scripts, tests, and the ``repro submit|status|results|cancel`` CLI
commands share one request path.  Server-side errors come back as the
same exception types the service raises locally: a 400 is a
:class:`~repro.errors.JobError`, any other error status a
:class:`~repro.errors.ServiceError` carrying the server's message.

Transient transport failures — connection refused/reset, 5xx, a
truncated response body — are absorbed by a deterministic
:class:`~repro.engine.resilience.RetryPolicy` before any exception
escapes, and every retry is counted in the process-global transport
counters (``repro health --json`` → ``transport``).  A client created
with a ``deadline`` stamps each request with an absolute
:data:`~repro.service.transport.DEADLINE_HEADER`; the server sheds
(503) work it cannot start in time, which the client maps to a
non-retryable :class:`~repro.errors.ServiceError` — retrying a missed
deadline only misses it harder.

:meth:`ServiceClient.wait` long-polls: each status request asks the
server to hold it until the job settles, so a finished job is seen
within one round trip of its settle instead of one sleep interval.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable

from ..engine.resilience import RetryPolicy, get_breaker, poll_fault
from ..errors import JobError, ServiceError
from .jobs import JOB_TERMINAL_PHASES, JobRecord, JobSpec
from .transport import (
    DEADLINE_HEADER,
    RETRY_AFTER_HEADER,
    SHED_HEADER,
    transport_counters,
)

__all__ = ["RemoteFabricStore", "ServiceClient"]


def _decode_json(raw: bytes) -> Any:
    return json.loads(raw or b"null")


def _decode_ndjson(raw: bytes) -> list[dict[str, Any]]:
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


class _TransientError(Exception):
    """Internal: a failed attempt the retry loop may absorb."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    Parameters
    ----------
    url:
        Base URL, e.g. ``http://127.0.0.1:8347`` (trailing slash ok).
    timeout:
        Per-request socket timeout [s].
    retry:
        Backoff schedule for transient transport faults.  ``None``
        (default) uses 3 retries of seeded-jitter exponential backoff;
        pass ``RetryPolicy(retries=0)`` to fail fast.
    deadline:
        Per-request time budget [s].  Each request carries an absolute
        ``X-Repro-Deadline`` header this many seconds in the future;
        retries stop once it passes, and a server-side deadline shed is
        surfaced immediately instead of retried.
    """

    #: Consecutive *final* (post-retry) failures before the client
    #: breaker quarantines the transport and fails fast.
    BREAKER_THRESHOLD = 6

    def __init__(self, url: str, timeout: float = 30.0, *,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy(
            retries=3, base_delay=0.05, max_delay=1.0, jitter=0.1)
        self.deadline = deadline
        self.breaker = get_breaker(
            "transport:client", threshold=self.BREAKER_THRESHOLD)

    # -- raw request ---------------------------------------------------------

    def _request_once(self, method: str, path: str,
                      body: bytes | None, deadline_at: float | None,
                      decode: Callable[[bytes], Any]) -> Any:
        """One attempt; transient failures raise :class:`_TransientError`."""
        counters = transport_counters()
        fault = poll_fault("http.request")
        if fault is not None:
            if fault.kind == "hang":       # slow response
                time.sleep(fault.payload or 0.05)
                fault = None
            elif fault.kind == "raise":    # connection refused
                raise _TransientError(
                    f"cannot reach service at {self.url}: injected refusal")
            elif fault.kind == "device":   # server-side 5xx
                raise _TransientError("injected HTTP 500 from server")
        headers = {"Content-Type": "application/json"}
        if deadline_at is not None:
            headers[DEADLINE_HEADER] = f"{deadline_at:.6f}"
        request = urllib.request.Request(
            self.url + path, data=body, method=method, headers=headers,
        )
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as err:
            raw = err.read()
            try:
                message = json.loads(raw)["error"]
            except Exception:  # noqa: BLE001 - body may be anything
                message = raw.decode(errors="replace") or str(err)
            if err.code == 400:
                raise JobError(message) from None
            if err.code == 503:
                shed = err.headers.get(SHED_HEADER, "")
                retry_after = float(
                    err.headers.get(RETRY_AFTER_HEADER) or 0.0)
                if shed == "deadline":
                    counters.note("deadline_sheds")
                    raise ServiceError(
                        f"deadline exceeded: server shed {method} {path}"
                    ) from None
                if shed == "backpressure":
                    counters.note("backpressure_rejections")
                    raise _TransientError(
                        f"server at capacity for {method} {path}",
                        retry_after=retry_after,
                    ) from None
                raise _TransientError(
                    f"HTTP 503 from {method} {path}: {message}") from None
            if err.code >= 500:
                raise _TransientError(
                    f"HTTP {err.code} from {method} {path}: {message}"
                ) from None
            raise ServiceError(
                f"HTTP {err.code} from {method} {path}: {message}"
            ) from None
        except urllib.error.URLError as err:
            raise _TransientError(
                f"cannot reach service at {self.url}: {err.reason}"
            ) from None
        if fault is not None and fault.kind == "corrupt":
            # mid-body disconnect: the body below fails to decode and the
            # retry loop re-issues the request
            raw = raw[: max(1, len(raw) // 2)]
        try:
            return decode(raw)
        except ValueError:
            raise _TransientError(
                f"truncated response body from {method} {path}"
            ) from None

    def _request(self, method: str, path: str,
                 payload: dict | None = None, *,
                 decode: Callable[[bytes], Any] = _decode_json) -> Any:
        """One logical request: retries, deadline header, breaker, counters.

        ``decode`` turns the response body into the result; a body it
        rejects with ``ValueError`` counts as truncated and is retried.
        """
        counters = transport_counters()
        counters.note("requests")
        if not self.breaker.allow():
            counters.note("errors")
            raise ServiceError(
                f"transport breaker open after "
                f"{self.breaker.consecutive} consecutive failures "
                f"(last: {self.breaker.last_failure_reason})"
            )
        body = json.dumps(payload).encode() if payload is not None else None
        deadline_at = (
            time.time() + self.deadline if self.deadline is not None else None
        )
        last: _TransientError | None = None
        for attempt in range(self.retry.retries + 1):
            try:
                result = self._request_once(method, path, body, deadline_at,
                                            decode)
            except _TransientError as err:
                last = err
                if attempt >= self.retry.retries:
                    break
                if deadline_at is not None and time.time() >= deadline_at:
                    break
                counters.note("retries")
                time.sleep(max(self.retry.delay(attempt, key=path),
                               err.retry_after))
                continue
            except (JobError, ServiceError):
                # definitive server answer: the transport itself worked
                self.breaker.record_success()
                raise
            self.breaker.record_success()
            return result
        counters.note("errors")
        self.breaker.record_failure(str(last))
        raise ServiceError(str(last)) from None

    # -- API -----------------------------------------------------------------

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Submit a job spec; returns the queued job record."""
        return self._request("POST", "/v1/jobs", spec.to_dict())

    def status(self, job_id: str,
               wait: float | None = None) -> dict[str, Any]:
        """The job's status payload.

        With ``wait`` [s] it is a long-poll: the server holds the request
        until the job is terminal or ``wait`` runs out.  Keep ``wait``
        below the socket ``timeout``.
        """
        query = f"?wait={wait:g}" if wait else ""
        return self._request("GET", f"/v1/jobs/{job_id}{query}")

    def results(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/results")

    def results_ndjson(self, job_id: str) -> list[dict[str, Any]]:
        """The streaming fetch: one decoded dict per grid point."""
        return self._request(
            "GET", f"/v1/jobs/{job_id}/results?format=ndjson",
            decode=_decode_ndjson,
        )

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def list_jobs(self, tenant: str | None = None,
                  phase: str | None = None) -> list[dict[str, Any]]:
        query = "&".join(
            f"{k}={v}" for k, v in
            (("tenant", tenant), ("phase", phase)) if v
        )
        path = "/v1/jobs" + (f"?{query}" if query else "")
        return self._request("GET", path)["jobs"]

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_interval: float = 0.1) -> dict[str, Any]:
        """Long-poll until the job reaches a terminal phase; its status.

        Each request asks the server to hold it for the rest of
        ``timeout``, but at most half the socket timeout and at most
        the per-request ``deadline``.  A non-terminal answer that comes
        back in under half its hold — a server that ignores ``wait``,
        or one shutting down — is followed by a ``poll_interval``
        sleep, so the loop never spins.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = min(deadline - time.monotonic(), self.timeout / 2)
            if self.deadline is not None:
                hold = min(hold, self.deadline)
            hold = max(hold, 0.0)
            asked_at = time.monotonic()
            payload = self.status(job_id, wait=hold)
            if payload["state"]["phase"] in JOB_TERMINAL_PHASES:
                return payload
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"job {job_id} still {payload['state']['phase']!r} "
                    f"after {timeout}s"
                )
            if now - asked_at < hold / 2:
                time.sleep(min(poll_interval, deadline - now))

    # -- fabric (chunk-lease protocol) ---------------------------------------

    def fabric_lease(self, worker_id: str, lease_seconds: float = 30.0,
                     job_id: str | None = None) -> dict[str, Any] | None:
        payload = self._request("POST", "/v1/fabric/lease", {
            "worker_id": worker_id, "lease_seconds": lease_seconds,
            "job_id": job_id,
        })
        return payload["chunk"]

    def fabric_heartbeat(self, job_id: str, chunk_id: int, worker_id: str,
                         lease_seconds: float = 30.0) -> bool:
        return bool(self._request("POST", "/v1/fabric/heartbeat", {
            "job_id": job_id, "chunk_id": chunk_id,
            "worker_id": worker_id, "lease_seconds": lease_seconds,
        })["ok"])

    def fabric_complete(self, job_id: str, chunk_id: int,
                        worker_id: str) -> bool:
        return bool(self._request("POST", "/v1/fabric/complete", {
            "job_id": job_id, "chunk_id": chunk_id, "worker_id": worker_id,
        })["ok"])

    def fabric_fail(self, job_id: str, chunk_id: int, worker_id: str,
                    error: str, max_attempts: int = 3) -> str | None:
        return self._request("POST", "/v1/fabric/fail", {
            "job_id": job_id, "chunk_id": chunk_id, "worker_id": worker_id,
            "error": error, "max_attempts": max_attempts,
        })["state"]

    def fabric_outcomes(self, job_id: str,
                        outcomes: list[dict]) -> dict[str, Any]:
        return self._request("POST", "/v1/fabric/outcomes", {
            "job_id": job_id, "outcomes": outcomes,
        })

    def fabric_chunks(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/fabric/chunks/{job_id}")

    def job_record(self, job_id: str) -> JobRecord:
        """The typed job record (status payload minus view-only keys)."""
        payload = self.status(job_id)
        fields = set(JobRecord.__dataclass_fields__)
        return JobRecord.from_dict(
            {k: v for k, v in payload.items() if k in fields}
        )


class RemoteFabricStore:
    """The :class:`~repro.service.store.JobStore` face of a remote server.

    Adapts a :class:`ServiceClient` to the exact method subset
    :class:`repro.engine.fabric.FabricWorker` calls, so ``repro worker
    --url http://coordinator:8347`` runs the same leasing loop as a
    local worker — chunk leases travel as JSON, result values travel
    through the tiered cache's HTTP remote tier
    (:class:`repro.engine.HTTPRemoteStore`), and the server's store
    stays the single source of truth.

    Lease expiry is the server's duty (every ``/v1/fabric/lease`` call
    sweeps stale leases first), so :meth:`expire_chunk_leases` is a
    deliberate no-op here.

    Retries stack deliberately: the wrapped :class:`ServiceClient`
    absorbs *transport* faults (refused connections, 5xx, truncated
    bodies) under its own :class:`RetryPolicy`, while the
    :class:`~repro.engine.fabric.FabricWorker` retries whole *store
    calls* on top — the same division of labor a local worker gets from
    SQLite's busy handler below the store-level retry.  Pass ``retry``
    to override the transport schedule without rebuilding the client.
    """

    def __init__(self, client: ServiceClient, *,
                 retry: RetryPolicy | None = None) -> None:
        from .store import ChunkRow

        self.client = client
        if retry is not None:
            self.client.retry = retry
        self._chunk_row = ChunkRow

    def get(self, job_id: str):
        try:
            return self.client.job_record(job_id)
        except JobError:
            return None

    def expire_chunk_leases(self, now: float | None = None) -> int:
        return 0

    def lease_chunk(self, worker_id: str, lease_seconds: float,
                    job_id: str | None = None):
        chunk = self.client.fabric_lease(worker_id, lease_seconds, job_id)
        return self._chunk_row.from_dict(chunk) if chunk is not None else None

    def heartbeat_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                        lease_seconds: float) -> bool:
        return self.client.fabric_heartbeat(job_id, chunk_id, worker_id,
                                            lease_seconds)

    def complete_chunk(self, job_id: str, chunk_id: int,
                       worker_id: str) -> bool:
        return self.client.fabric_complete(job_id, chunk_id, worker_id)

    def fail_chunk(self, job_id: str, chunk_id: int, worker_id: str,
                   error: str, max_attempts: int = 3) -> str | None:
        return self.client.fabric_fail(job_id, chunk_id, worker_id, error,
                                       max_attempts)

    def record_outcomes(self, job_id: str, outcomes) -> None:
        self.client.fabric_outcomes(
            job_id, [o.to_dict() for o in outcomes]
        )

    def chunk_counts(self, job_id: str) -> dict[str, int]:
        return self.client.fabric_chunks(job_id)["counts"]

    def chunks(self, job_id: str):
        return [self._chunk_row.from_dict(c)
                for c in self.client.fabric_chunks(job_id)["chunks"]]
