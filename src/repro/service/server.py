"""Async HTTP front end: submit sweeps, poll status, fetch results.

Stdlib only — a :class:`http.server.ThreadingHTTPServer` (one thread
per connection) in front of a :class:`ReproService` facade.  Every job
runs as leased chunks: the :class:`~repro.service.pump.WorkerPump`'s
threads lease them in the background, and so may ``repro worker
--url`` nodes through the ``/v1/fabric`` endpoints — with
``pump_workers=0`` only they do.  Submission is asynchronous by
construction: ``POST /v1/jobs`` returns as soon as the job row and its
chunk rows are durable (and wakes the pump), and clients long-poll
``GET /v1/jobs/<id>?wait=S`` until the job reaches a terminal phase:
the server holds the request until the job settles, ``S`` seconds
pass, the request's deadline passes or the service stops, and only
then answers.

Endpoints (all JSON; errors are ``{"error": "..."}`` with a 4xx/5xx
status):

===========================================  =================================
``GET  /healthz``                            readiness probe (health snapshot
                                             + job counts + pump liveness)
``POST /v1/jobs``                            submit a :class:`JobSpec`; 201 +
                                             the job record (dedup happens
                                             here: same ``work_hash`` joins
                                             the earlier job's computation)
``GET  /v1/jobs``                            list jobs (``?tenant=``,
                                             ``?phase=`` filters)
``GET  /v1/jobs/<id>``                       status payload: state, progress,
                                             per-point outcomes, resilience
                                             (``?wait=S`` long-polls: held
                                             up to S s until terminal)
``GET  /v1/jobs/<id>/results``               finished table (404 until done;
                                             ``?format=ndjson`` streams one
                                             row per line)
``POST /v1/jobs/<id>/cancel``                request cancellation (also
``DELETE /v1/jobs/<id>``                     honored for queued jobs)
``POST /v1/fabric/lease``                    lease one chunk of any job for a
                                             ``repro worker`` node
``POST /v1/fabric/heartbeat|complete|fail``  chunk lease lifecycle (a
                                             completion carries its
                                             points' outcome rows; the
                                             one that settles a job
                                             finalizes it)
``GET  /v1/fabric/chunks/<id>``              chunk table + counts of a job,
                                             and whether it has settled
``GET|PUT /v1/cache/<key>``                  raw checksummed cache payloads
                                             (the remote tier transport;
                                             PUT re-validates the checksum)
===========================================  =================================

The facade is deliberately transport-free: tests and in-process
embedders call :class:`ReproService` directly; the HTTP layer only
parses, dispatches, and serializes.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..errors import JobError, ServiceError
from .health import health_snapshot, resilience_snapshot
from .jobs import JobRecord, JobSpec, JobState, new_job_id
from .pump import WorkerPump, finalize_job
from .scheduler import SchedulerPolicy
from .store import JobStore
from .transport import (
    DEADLINE_HEADER,
    RETRY_AFTER_HEADER,
    SHED_HEADER,
    TransportCounters,
)

__all__ = ["ReproHTTPServer", "ReproService", "serve"]

logger = logging.getLogger(__name__)


class ReproService:
    """The service facade: everything the HTTP layer (or a test) calls.

    Owns the durable store, the shared result cache, and the worker
    pump.  All public methods speak JSON-ready dicts (except
    :meth:`submit`, which takes the typed :class:`JobSpec`), so the
    transport layer never reaches around the facade.

    ``poll_interval`` is the pump's longest idle wait [s]: an
    in-process submit or cancel wakes the pump at once, so the interval
    only bounds how long work submitted or settled by another process
    goes unnoticed — by the pump, and by a held long-poll, which
    re-reads the store at most once per interval.  ``pump_workers=0``
    starts no executor thread: a coordinator-only server whose jobs run
    on ``repro worker --url`` nodes.
    """

    def __init__(
        self,
        store: JobStore,
        cache,
        policy: SchedulerPolicy | None = None,
        pump_workers: int = 1,
        poll_interval: float = 0.05,
        max_inflight: int = 32,
        shed_retry_after: float = 0.25,
    ) -> None:
        self.store = store
        self.cache = cache
        self.policy = policy or SchedulerPolicy()
        self.pump = WorkerPump(
            store, cache, self.policy,
            workers=pump_workers, poll_interval=poll_interval,
        )
        self._started_at = time.time()
        # -- backpressure + deadline shedding --------------------------------
        # max_inflight bounds the requests being served at once (the
        # ThreadingHTTPServer would otherwise grow a thread per socket
        # without limit); the 33rd gets 503 + Retry-After instead of a
        # seat.  /healthz is exempt so probes always answer.
        if max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.shed_retry_after = float(shed_retry_after)
        self.transport = TransportCounters()
        self._inflight = 0
        self._peak_inflight = 0
        self._inflight_lock = threading.Lock()

    # -- admission control ---------------------------------------------------

    def begin_request(self) -> bool:
        """Admit one request; False when the inflight bound is hit."""
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self.transport.note("backpressure_rejections")
                return False
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
        self.transport.note("requests")
        return True

    def end_request(self) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - 1)

    def note_deadline_shed(self) -> None:
        self.transport.note("deadline_sheds")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the pump (re-queues jobs orphaned by a previous process,
        with their leased chunks)."""
        self.pump.start()

    def stop(self) -> None:
        """Answer every held long-poll, then stop the pump."""
        self.pump.stop()

    # -- commands ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Durably enqueue a job; cross-tenant dedup happens here.

        If an earlier, non-failed job asked for the same computation
        (equal ``work_hash``), the new job is linked to it via
        ``dedup_of``: the scheduler holds it until the primary settles,
        after which every point — and the finished table itself — is a
        result-cache hit.  The link is metadata, not a shortcut: the
        follower still reports its own per-tenant record and status.
        """
        work_hash = spec.work_hash()
        primary = None
        for candidate in self.store.find_by_work_hash(work_hash):
            if candidate.dedup_of is None and candidate.state.phase not in (
                "failed", "cancelled"
            ):
                primary = candidate
                break
        record = JobRecord(
            job_id=new_job_id(),
            spec=spec,
            state=JobState(
                phase="queued",
                total=len(spec.values),
                submitted_at=time.time(),
            ),
            work_hash=work_hash,
            dedup_of=primary.job_id if primary is not None else None,
        )
        self.store.put(record)
        self.pump.wake()
        return record

    def status(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """Full status payload of one job (raises JobError on unknown id).

        With ``wait`` > 0 this is a long-poll: while the job is not
        terminal the call holds until it settles, ``wait`` seconds
        pass, or the service stops, and then answers the usual payload.
        """
        record = self._hold(job_id, wait) if wait > 0 else self._get(job_id)
        payload = record.to_dict()
        state = record.state
        payload["progress"] = {
            "total": state.total,
            "completed": state.completed,
            "failed": state.failed,
            "cache_hits": state.cache_hits,
            "retries": state.retries,
            "fraction": (state.completed / state.total) if state.total else 0.0,
        }
        payload["outcomes"] = [
            o.to_dict() for o in self.store.outcomes(job_id)
        ]
        if payload["resilience"] is None and not state.terminal:
            # a live job reports the engine's *current* resilience state;
            # finished jobs keep the snapshot taken at completion
            payload["resilience"] = resilience_snapshot()
        return payload

    def _hold(self, job_id: str, wait: float) -> JobRecord:
        """The job's record once terminal, or when ``wait`` runs out.

        Settles in this process wake the hold through the pump's
        :class:`~repro.service.pump.SettleBoard`.  A job settled by
        another process has no such signal, so the hold also re-reads
        the store once per ``poll_interval`` — but not while this pump
        executes the job: that settle is certain to be announced.
        """
        pump = self.pump
        end = time.monotonic() + wait
        with pump.settled.watch(job_id) as settled:
            record = self._get(job_id)
            while not record.state.terminal and not pump.settled.closed:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    break
                if settled.wait(min(remaining, pump.poll_interval)):
                    settled.clear()
                elif pump.executing(job_id):
                    continue
                record = self._get(job_id)
        return record

    def results(self, job_id: str) -> dict[str, Any]:
        """The finished sweep table (raises until the job is done)."""
        record = self._get(job_id)
        if record.state.phase != "done" or record.result_key is None:
            raise ServiceError(
                f"job {job_id} has no results yet (phase "
                f"{record.state.phase!r})"
            )
        payload = self.cache.get(record.result_key)
        if payload is self.cache.MISS:
            raise ServiceError(
                f"result blob for job {job_id} is no longer in the cache; "
                "resubmit the job to recompute it"
            )
        return dict(payload)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Request cancellation; immediate while no chunk is in flight.

        A queued job cancels at once.  A running job stops leasing; its
        pump thread stops at the next chunk boundary, and a chunk a
        remote node holds settles the job when it completes.  With
        nothing in flight the job settles ``cancelled`` here.
        """
        record = self.store.request_cancel(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        self.pump.request_cancel(job_id)
        if not record.state.terminal and not self.pump.executing(job_id):
            settled = self.store.settled_job(job_id)
            record = self._finalize(settled) or record
        if record.state.terminal:
            self.pump.settled.notify(job_id)
        # a cancelled primary releases its dedup followers
        self.pump.wake()
        return record.to_dict()

    def jobs(self, tenant: str | None = None,
             phase: str | None = None) -> list[dict[str, Any]]:
        """Compact listing rows (id, tenant, phase, progress)."""
        rows = []
        for record in self.store.list_jobs(tenant=tenant, phase=phase):
            state = record.state
            rows.append({
                "job_id": record.job_id,
                "tenant": record.spec.tenant,
                "priority": record.spec.priority,
                "phase": state.phase,
                "completed": state.completed,
                "total": state.total,
                "work_hash": record.work_hash,
                "dedup_of": record.dedup_of,
                "submitted_at": state.submitted_at,
            })
        return rows

    def health(self) -> dict[str, Any]:
        """Readiness payload: engine snapshot + service vitals."""
        snapshot = health_snapshot()
        snapshot["service"] = {
            "pump_alive": self.pump.alive,
            "pump_workers": self.pump.workers,
            "tenant_quota": self.policy.tenant_quota,
            "uptime_s": round(time.time() - self._started_at, 3),
            "jobs": self.store.counts(),
            "cache": self.cache.cache_info().as_dict(),
        }
        transport = self.transport.snapshot()
        with self._inflight_lock:
            transport["inflight"] = self._inflight
            transport["peak_inflight"] = self._peak_inflight
        transport["max_inflight"] = self.max_inflight
        transport["shed_retry_after_s"] = self.shed_retry_after
        snapshot["service"]["transport"] = transport
        pump_ok = self.pump.alive or self.pump.workers == 0
        snapshot["ok"] = bool(snapshot["ok"] and pump_ok)
        return snapshot

    # -- fabric (chunk-leasing worker nodes) ---------------------------------

    def fabric_lease(self, worker_id: str, lease_seconds: float,
                     job_id: str | None = None) -> dict[str, Any] | None:
        """Lease one chunk for ``worker_id`` (see ``JobStore.lease_chunk``).

        A node bound to a job that gets nothing may be watching a job
        no completion will settle — cancelled while its node died, or
        completed before a server crash — so that job settles here.
        """
        chunk = self.store.lease_chunk(worker_id, lease_seconds, job_id)
        if chunk is None and job_id is not None:
            self._finalize(self.store.settled_job(job_id))
        return chunk.to_dict() if chunk is not None else None

    def fabric_heartbeat(self, job_id: str, chunk_id: int, worker_id: str,
                         lease_seconds: float) -> dict[str, Any]:
        ok = self.store.heartbeat_chunk(job_id, chunk_id, worker_id,
                                        lease_seconds)
        return {"ok": ok}

    def fabric_complete(self, job_id: str, chunk_id: int, worker_id: str,
                        outcomes: list[dict]) -> dict[str, Any]:
        """Complete a remote node's chunk; finalize the job it settles."""
        from .store import PointOutcome

        rows = [PointOutcome(**{k: o[k] for k in
                                ("index", "ok", "cached", "retries",
                                 "error", "health") if k in o})
                for o in outcomes]
        completion = self.store.complete_chunk(job_id, chunk_id, worker_id,
                                               rows)
        self._finalize(completion.job)
        return {"ok": completion.ok, "settled": completion.settled}

    def fabric_fail(self, job_id: str, chunk_id: int, worker_id: str,
                    error: str, max_attempts: int = 3) -> dict[str, Any]:
        """Fail a remote node's chunk; a parked last chunk settles the job."""
        state = self.store.fail_chunk(job_id, chunk_id, worker_id, error,
                                      max_attempts)
        if state is not None:
            self._finalize(self.store.settled_job(job_id))
        return {"state": state}

    def _finalize(self, settled) -> JobRecord | None:
        """Finalize a settled job and wake its long-polls (None: not yet)."""
        final = finalize_job(self.store, self.cache, settled)
        if final is not None:
            self.pump.settled.notify(final.job_id)
        return final

    def fabric_chunks(self, job_id: str) -> dict[str, Any]:
        self._get(job_id)
        counts = self.store.chunk_counts(job_id)
        return {
            "counts": counts,
            "settled": counts.settled,
            "chunks": [c.to_dict() for c in self.store.chunks(job_id)],
        }

    def cache_export(self, key: str) -> bytes | None:
        """Raw checksummed cache payload, or None."""
        return self.cache.export_entry(key)

    def cache_import(self, key: str, raw: bytes) -> bool:
        """Store an uploaded payload if its checksum holds; whether it did."""
        return self.cache.import_entry(key, raw)

    def _get(self, job_id: str) -> JobRecord:
        record = self.store.get(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        return record


class _Handler(BaseHTTPRequestHandler):
    """Route/parse/serialize; all decisions live in :class:`ReproService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ReproService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("%s - %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_bytes(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_raw(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobError("request body: expected a JSON job spec")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as err:
            raise JobError(f"request body: invalid JSON: {err}") from None

    def _send_shed(self, why: str) -> None:
        """503 a request the service refuses to start (shed, not failed)."""
        service = self.service
        body = json.dumps({"error": f"request shed: {why}"}).encode()
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header(SHED_HEADER, why)
        self.send_header(RETRY_AFTER_HEADER,
                         f"{service.shed_retry_after:g}")
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        service = self.service
        self._admitted = False
        self._deadline_at = None
        # /healthz bypasses shedding and the inflight bound: the probe
        # that reports overload must keep answering while overloaded
        probe = parts == ["healthz"]
        if not probe:
            deadline = self.headers.get(DEADLINE_HEADER)
            if deadline is not None:
                try:
                    self._deadline_at = float(deadline)
                except ValueError:
                    self._send_error(
                        400, f"bad {DEADLINE_HEADER} header: {deadline!r}")
                    return
                if time.time() >= self._deadline_at:
                    service.note_deadline_shed()
                    self._send_shed("deadline")
                    return
            if not service.begin_request():
                self._send_shed("backpressure")
                return
            self._admitted = True
        try:
            handled = self._route(method, parts, query)
        except JobError as err:
            self._send_error(400, str(err))
            return
        except ServiceError as err:
            self._send_error(409, str(err))
            return
        except Exception as err:  # noqa: BLE001 - a request must answer
            logger.exception("unhandled error serving %s %s",
                             method, self.path)
            self._send_error(500, f"{type(err).__name__}: {err}")
            return
        finally:
            self._release_seat()
        if not handled:
            self._send_error(404, f"no route for {method} {url.path}")

    def _release_seat(self) -> None:
        """Give back this request's ``max_inflight`` seat (once)."""
        if self._admitted:
            self._admitted = False
            self.service.end_request()

    def _hold_seconds(self, query: dict) -> float:
        """The ``?wait=`` hold, cut at the request's deadline (0: none)."""
        text = query.get("wait")
        if text is None:
            return 0.0
        try:
            wait = float(text)
        except ValueError:
            wait = math.nan
        if not math.isfinite(wait) or wait < 0:
            raise JobError(f"bad wait parameter {text!r}: expected "
                           "a finite number of seconds >= 0")
        if self._deadline_at is not None:
            wait = min(wait, self._deadline_at - time.time())
        return max(wait, 0.0)

    # -- routes --------------------------------------------------------------

    def _route(self, method: str, parts: list[str], query: dict) -> bool:
        service = self.service
        if method == "GET" and parts == ["healthz"]:
            payload = service.health()
            self._send_json(200 if payload["ok"] else 503, payload)
            return True
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "cache":
            return self._route_cache(method, parts[2:])
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "fabric":
            return self._route_fabric(method, parts[2:])
        if len(parts) < 2 or parts[0] != "v1" or parts[1] != "jobs":
            return False
        rest = parts[2:]

        if not rest:
            if method == "POST":
                spec = JobSpec.from_dict(self._read_body())
                record = service.submit(spec)
                self._send_json(201, record.to_dict())
                return True
            if method == "GET":
                self._send_json(200, {
                    "jobs": service.jobs(
                        tenant=query.get("tenant"), phase=query.get("phase")
                    )
                })
                return True
            return False

        job_id = rest[0]
        action = rest[1] if len(rest) > 1 else None
        if action is None:
            if method == "GET":
                wait = self._hold_seconds(query)
                if wait > 0:
                    # a held poll only waits: it must not take the seat
                    # of a request that works
                    self._release_seat()
                try:
                    self._send_json(200, service.status(job_id, wait=wait))
                except JobError as err:
                    self._send_error(404, str(err))
                return True
            if method == "DELETE":
                self._send_json(200, service.cancel(job_id))
                return True
            return False
        if action == "results" and method == "GET":
            try:
                payload = service.results(job_id)
            except JobError as err:
                self._send_error(404, str(err))
                return True
            if query.get("format") == "ndjson":
                self._stream_ndjson(payload)
            else:
                self._send_json(200, payload)
            return True
        if action == "cancel" and method == "POST":
            self._send_json(200, service.cancel(job_id))
            return True
        return False

    def _route_cache(self, method: str, rest: list[str]) -> bool:
        """``GET|PUT /v1/cache/<key>`` — the tier-transport blob API.

        Raw octet streams, not JSON: the body is the cache's
        checksummed payload verbatim, and PUT re-validates checksum and
        key before accepting (a corrupt or mislabeled blob gets a 400,
        never a cache entry).
        """
        if len(rest) != 1 or not rest[0]:
            return False
        key = rest[0]
        if method == "GET":
            raw = self.service.cache_export(key)
            if raw is None:
                self._send_error(404, f"no cache entry {key!r}")
            else:
                self._send_bytes(200, raw)
            return True
        if method == "PUT":
            if self.service.cache_import(key, self._read_raw()):
                self._send_json(200, {"ok": True})
            else:
                self._send_error(400, f"rejected cache payload for {key!r}")
            return True
        return False

    def _route_fabric(self, method: str, rest: list[str]) -> bool:
        """``POST /v1/fabric/<verb>`` — the chunk-lease wire protocol."""
        service = self.service
        if method == "GET" and len(rest) == 2 and rest[0] == "chunks":
            self._send_json(200, service.fabric_chunks(rest[1]))
            return True
        if method != "POST" or len(rest) != 1:
            return False
        body = self._read_body()
        if rest[0] == "lease":
            chunk = service.fabric_lease(
                str(body["worker_id"]),
                float(body.get("lease_seconds", 30.0)),
                body.get("job_id"),
            )
            self._send_json(200, {"chunk": chunk})
            return True
        if rest[0] == "heartbeat":
            self._send_json(200, service.fabric_heartbeat(
                str(body["job_id"]), int(body["chunk_id"]),
                str(body["worker_id"]),
                float(body.get("lease_seconds", 30.0)),
            ))
            return True
        if rest[0] == "complete":
            self._send_json(200, service.fabric_complete(
                str(body["job_id"]), int(body["chunk_id"]),
                str(body["worker_id"]), list(body.get("outcomes", ())),
            ))
            return True
        if rest[0] == "fail":
            self._send_json(200, service.fabric_fail(
                str(body["job_id"]), int(body["chunk_id"]),
                str(body["worker_id"]), str(body.get("error", "")),
                int(body.get("max_attempts", 3)),
            ))
            return True
        return False

    def _stream_ndjson(self, payload: dict) -> None:
        """One JSON line per grid point (the streaming fetch path)."""
        names = list(payload.get("columns", {}))
        points = payload.get("points", [])
        lines = []
        for i, parameter in enumerate(payload.get("parameters", [])):
            row = {"index": i, payload.get("parameter_name", "parameter"):
                   parameter}
            for name in names:
                row[name] = payload["columns"][name][i]
            if i < len(points):
                row["ok"] = points[i]["ok"]
            lines.append(json.dumps(row))
        body = ("\n".join(lines) + "\n").encode() if lines else b""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")


class ReproHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service facade for its handlers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ReproService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def serve(
    host: str,
    port: int,
    service: ReproService,
    *,
    background: bool = False,
) -> ReproHTTPServer:
    """Bind, start the pump, and serve.

    With ``background=True`` the accept loop runs in a daemon thread and
    the bound server is returned immediately (``server.server_address``
    has the ephemeral port when ``port=0``) — the embedding used by
    tests and ``make serve-check``.  Otherwise the call blocks until
    interrupted.
    """
    server = ReproHTTPServer((host, port), service)
    service.start()
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return server
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        service.stop()
        server.server_close()
    return server
