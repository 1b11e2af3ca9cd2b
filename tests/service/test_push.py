"""Push-driven service path: long-poll, pump wake-up, lean store traffic.

* ``GET /v1/jobs/<id>?wait=S`` holds until the job settles, its hold
  runs out, the request's deadline passes or the service stops — and a
  held poll gives back its ``max_inflight`` seat;
* ``ServiceClient.wait`` never spins against a server that ignores
  ``wait``;
* a submit wakes an idle pump at once, whatever ``poll_interval``;
* a pump iteration reads only live rows, a hold reads nothing while
  its own pump executes the job, and an 8-point kernel-batch job costs
  at most 12 store calls end to end.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.engine import ResultCache
from repro.engine.resilience import RetryPolicy
from repro.errors import ServiceError
from repro.service import (
    JOB_TERMINAL_PHASES,
    JobRecord,
    JobState,
    JobStore,
    ReproService,
    ServiceClient,
    SQLiteJobStore,
    WorkerPump,
    new_job_id,
    open_job_store,
)
from repro.service.transport import DEADLINE_HEADER

from .test_service_end_to_end import make_spec, running_service

EIGHT = tuple(150.0 + 10.0 * i for i in range(8))


def raw_status(url: str, job_id: str, wait: float,
               deadline_at: float | None = None) -> tuple[int, dict]:
    """One bare HTTP status request (no client retry loop)."""
    headers = {}
    if deadline_at is not None:
        headers[DEADLINE_HEADER] = f"{deadline_at:.6f}"
    request = urllib.request.Request(
        f"{url}/v1/jobs/{job_id}?wait={wait}", headers=headers)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


class TestLongPoll:
    def test_one_request_sees_the_settle(self, tmp_path):
        # a 1 s poll interval: only the push path can answer in 0.2 s
        with running_service(tmp_path) as box:
            box.service.pump.poll_interval = 1.0
            record = box.client.submit(make_spec())
            status, payload = raw_status(box.client.url, record["job_id"],
                                         wait=30)
            seen_at = time.time()
        assert status == 200
        assert payload["state"]["phase"] == "done"
        assert seen_at - payload["state"]["finished_at"] < 0.2

    def test_deadline_bounds_the_hold(self, tmp_path):
        with running_service(tmp_path, pump_workers=0) as box:
            record = box.client.submit(make_spec())
            start = time.time()
            status, payload = raw_status(box.client.url, record["job_id"],
                                         wait=30, deadline_at=start + 0.4)
            held = time.time() - start
        # held to the deadline, then answered — not shed
        assert status == 200
        assert payload["state"]["phase"] not in JOB_TERMINAL_PHASES
        assert 0.35 <= held < 5.0

    def test_held_poll_takes_no_inflight_seat(self, tmp_path):
        with running_service(tmp_path, pump_workers=0,
                             max_inflight=1) as box:
            record = box.client.submit(make_spec())
            held = {}

            def hold() -> None:
                start = time.monotonic()
                raw_status(box.client.url, record["job_id"], wait=1.5)
                held["s"] = time.monotonic() - start

            poller = threading.Thread(target=hold)
            poller.start()
            time.sleep(0.2)
            fail_fast = ServiceClient(box.client.url, timeout=30,
                                      retry=RetryPolicy(retries=0))
            assert fail_fast.status(record["job_id"])["job_id"] \
                == record["job_id"]
            answered_while_held = poller.is_alive()
            poller.join()
        assert answered_while_held
        assert held["s"] >= 1.4

    def test_stop_answers_a_held_poll(self, tmp_path):
        with running_service(tmp_path, pump_workers=0) as box:
            record = box.client.submit(make_spec())
            answered = {}

            def hold() -> None:
                raw_status(box.client.url, record["job_id"], wait=30)
                answered["at"] = time.monotonic()

            poller = threading.Thread(target=hold)
            poller.start()
            time.sleep(0.3)
            still_held = poller.is_alive()
            stopped_at = time.monotonic()
            box.service.stop()
            poller.join(5.0)
        assert still_held
        assert answered["at"] - stopped_at < 0.5

    def test_bad_wait_is_a_400(self, tmp_path):
        from repro.errors import JobError

        with running_service(tmp_path, pump_workers=0) as box:
            record = box.client.submit(make_spec())
            for bad in ("soon", "-1", "inf"):
                with pytest.raises(JobError, match="wait"):
                    box.client._request(
                        "GET", f"/v1/jobs/{record['job_id']}?wait={bad}")


class _IgnoresWait(BaseHTTPRequestHandler):
    """A server from before long-polls: answers 'running' at once."""

    requests = 0

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        type(self).requests += 1
        body = json.dumps({"job_id": "job-x",
                           "state": {"phase": "running"}}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args) -> None:
        pass


def test_wait_does_not_spin_when_the_server_ignores_wait():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _IgnoresWait)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=30)
        with pytest.raises(ServiceError, match="still 'running'"):
            client.wait("job-x", timeout=0.6, poll_interval=0.1)
    finally:
        server.shutdown()
        server.server_close()
    # one request per poll_interval, not a busy loop
    assert _IgnoresWait.requests <= 8


def test_submit_wakes_an_idle_pump(tmp_path):
    store = open_job_store(tmp_path / "jobs.sqlite")
    service = ReproService(store, ResultCache(str(tmp_path / "cache")),
                           poll_interval=5.0)
    service.start()
    try:
        time.sleep(0.3)  # the pump is now in its 5 s idle wait
        record = service.submit(make_spec())
        deadline = time.monotonic() + 3.0
        state = record.state
        while state.started_at is None and time.monotonic() < deadline:
            time.sleep(0.01)
            state = store.get(record.job_id).state
    finally:
        service.stop()
    assert state.started_at is not None
    assert state.started_at - state.submitted_at < 0.5


def test_pump_iteration_decodes_no_finished_row(tmp_path, monkeypatch):
    store = SQLiteJobStore(tmp_path / "jobs.sqlite")
    for i in range(200):
        store.put(JobRecord(
            job_id=new_job_id(), spec=make_spec(values=(100.0 + i,)),
            state=JobState(phase="done", total=1, completed=1,
                           submitted_at=float(i), finished_at=float(i)),
        ))
    decoded: list[str] = []
    original = SQLiteJobStore._from_row

    def spy(row):
        decoded.append(row["phase"])
        return original(row)

    monkeypatch.setattr(SQLiteJobStore, "_from_row", staticmethod(spy))
    snapshots: list[tuple] = []
    list_jobs = SQLiteJobStore.list_jobs

    def counted_list_jobs(self, *args, **kwargs):
        snapshots.append(args)
        return list_jobs(self, *args, **kwargs)

    monkeypatch.setattr(SQLiteJobStore, "list_jobs", counted_list_jobs)
    pump = WorkerPump(store, ResultCache(str(tmp_path / "cache")),
                      poll_interval=0.01)
    pump.start()
    time.sleep(0.2)
    pump.stop()
    assert len(snapshots) >= 2     # several iterations ran
    assert not [p for p in decoded if p in JOB_TERMINAL_PHASES]


def test_hold_reads_nothing_while_this_pump_executes(tmp_path,
                                                     monkeypatch):
    store = SQLiteJobStore(tmp_path / "jobs.sqlite")
    service = ReproService(store, ResultCache(str(tmp_path / "cache")),
                           poll_interval=0.01)
    service.start()
    try:
        record = service.submit(make_spec(values=EIGHT, duration=0.3))
        deadline = time.monotonic() + 10.0
        while not service.pump.executing(record.job_id):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        reads: list[float] = []
        original = SQLiteJobStore.get

        def counted_get(self, job_id):
            reads.append(time.monotonic())
            return original(self, job_id)

        monkeypatch.setattr(SQLiteJobStore, "get", counted_get)
        start = time.monotonic()
        final = service.status(record.job_id, wait=60)
        held = time.monotonic() - start
    finally:
        service.stop()
    assert final["state"]["phase"] == "done"
    # many poll intervals passed, yet only the first read and the read
    # after the settle was announced hit the store
    assert held > 5 * 0.01
    assert len(reads) <= 2


def _count_store_calls(monkeypatch) -> list[str]:
    """Count every public store method call, nested calls included."""
    calls: list[str] = []
    names = {
        name for cls in (SQLiteJobStore, JobStore)
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    }
    for name in names:
        original = getattr(SQLiteJobStore, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SQLiteJobStore, name, counted)
    return calls


def test_eight_point_job_makes_at_most_12_store_calls(tmp_path, monkeypatch):
    store = SQLiteJobStore(tmp_path / "jobs.sqlite")
    # a long poll interval keeps idle re-reads out of the count; they
    # are timing, not per-job cost
    service = ReproService(store, ResultCache(str(tmp_path / "cache")),
                           poll_interval=5.0)
    service.start()
    try:
        time.sleep(0.2)  # the pump is idle
        calls = _count_store_calls(monkeypatch)
        record = service.submit(make_spec(values=EIGHT, duration=0.01))
        final = service.status(record.job_id, wait=60)
        table = service.results(record.job_id)
        time.sleep(0.2)  # the pump's next iteration is part of the job
    finally:
        service.stop()
    assert final["state"]["phase"] == "done"
    assert final["progress"]["completed"] == len(EIGHT)
    assert table["parameters"] == list(EIGHT)
    assert len(calls) <= 12, calls
