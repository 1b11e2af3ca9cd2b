"""Kill-anything-anytime chaos harness for the distributed fabric.

The capstone of the fault-injection PRs: every schedule here boots a
**real** ``repro serve --pump-workers 0`` subprocess on an ephemeral
port — a coordinator that runs no job itself — submits a plain job,
runs real ``repro worker`` subprocesses against it over HTTP, and
injures the
run with a seeded :class:`~repro.engine.resilience.FaultPlan` shipped
to the victim process through the :data:`~repro.engine.resilience.FAULT_PLAN_ENV`
environment variable (or, for the ``kill`` schedule, with a literal
``SIGKILL`` delivered mid-chunk).  Afterwards it proves the fabric's
contract held anyway:

* **bit-exactness** — the finished table is ``np.array_equal`` to the
  clean serial sweep of the same grid;
* **zero recomputes** — the sum of ``points_computed`` across workers
  equals exactly the points the disaster left missing, proven from the
  per-worker ``--stats-json`` dumps and the server cache's blob count;
* **no job stuck** — the job reaches ``done`` within a bounded wait;
* **no double completion** — the server's chunk table ends all-``done``
  and workers' ``chunks_done`` sum to the chunk count.

Schedules (one per distinct disaster, all derived from one seed):

=================  ==========================================================
``kill``           ``kill -9`` a worker mid-chunk, resume with two fresh ones
``crashpoint``     ``fabric.crash``: die between cache-write and complete
``brownout``       ``cache.remote``: remote tier errors until the breaker
                   trips; write-behind queue drains on recovery
``transport``      ``http.request``: refused / hung / 5xx requests absorbed
                   by the client retry policy
``lease_skew``     ``fabric.lease`` + ``fabric.heartbeat``: collapsed lease
                   TTL and a lost heartbeat force a mid-chunk abandon
``store_contention``  server-side ``store.op`` (SQLITE_BUSY) and
                   ``store.claim`` (CAS races) plus a worker-side
                   ``fabric.complete`` lost ack (duplicate completion)
=================  ==========================================================

``repro chaos`` and ``tools/chaos_check.py`` are thin drivers around
:func:`run_chaos_suite`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..engine.resilience import FAULT_PLAN_ENV, FaultPlan, FaultSpec

__all__ = ["ChaosReport", "SCHEDULES", "run_chaos_suite"]

#: Sweep path every schedule exercises (the paper's headline parameter).
PATH = "cantilever.length_um"

#: Worker exit code of an injected ``fabric.crash`` hard exit.
CRASH_EXIT_CODE = 43


@dataclass
class ChaosReport:
    """What one chaos schedule did and whether its invariants held."""

    schedule: str
    seed: int
    passed: bool = False
    duration_s: float = 0.0
    error: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule,
            "seed": self.seed,
            "passed": self.passed,
            "duration_s": round(self.duration_s, 3),
            "error": self.error,
            "details": self.details,
        }


class ChaosFailure(AssertionError):
    """An invariant a chaos schedule promised did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosFailure(message)


def _schedule_seed(seed: int, name: str) -> int:
    """Deterministic per-schedule sub-seed (sha256, not Python hash)."""
    digest = hashlib.sha256(f"repro-chaos:{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class _Scenario:
    """One schedule's disposable world: workdir, server, grid, reference."""

    def __init__(self, name: str, root: Path, seed: int, *,
                 points: int, chunk_size: int, duration: float) -> None:
        self.name = name
        self.seed = _schedule_seed(seed, name)
        self.dir = root / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.points = points
        self.chunk_size = chunk_size
        self.n_chunks = -(-points // chunk_size)
        self.duration = duration
        # a seed-derived grid offset so two seeds never share cache keys
        offset = (self.seed % 1000) / 100.0
        self.values = [round(170.0 + offset + 0.5 * i, 3)
                       for i in range(points)]
        self.server: subprocess.Popen | None = None
        self.client = None
        self.job_id: str | None = None

    # -- processes -----------------------------------------------------------

    def _env(self, plan: FaultPlan | None) -> dict:
        src = Path(__file__).resolve().parents[2]
        env = {"PYTHONPATH": str(src),
               "PATH": "/usr/bin:/bin:/usr/local/bin"}
        if plan is not None:
            env[FAULT_PLAN_ENV] = plan.to_json()
        return env

    def start_server(self, plan: FaultPlan | None = None) -> None:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pump-workers", "0",
             "--db", str(self.dir / "jobs.sqlite"),
             "--cache-dir", str(self.dir / "server-cache")],
            env=self._env(plan), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.server.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if not match:
            raise ChaosFailure(f"server printed no listening line: {line!r}")
        from .client import ServiceClient

        self.url = match.group(1)
        self.client = ServiceClient(self.url, timeout=30)

    def submit(self) -> str:
        from .jobs import JobSpec
        from ..config import REFERENCE_RESONANT_SENSOR

        record = self.client.submit(JobSpec(
            base=REFERENCE_RESONANT_SENSOR.to_dict(), path=PATH,
            values=tuple(self.values), duration=self.duration,
            tenant=f"chaos-{self.name}", chunk_size=self.chunk_size,
        ))
        self.job_id = record["job_id"]
        return self.job_id

    def worker(self, tag: str, plan: FaultPlan | None = None,
               *, lease_seconds: float = 2.0, idle_exit: float = 6.0,
               max_attempts: int = 3) -> subprocess.Popen:
        """Spawn one ``repro worker --url`` node; stats land per tag."""
        argv = [
            sys.executable, "-m", "repro.cli", "worker",
            "--url", self.url,
            "--cache-dir", str(self.dir / f"worker-{tag}-cache"),
            "--job-id", self.job_id,
            "--lease-seconds", str(lease_seconds),
            "--idle-exit", str(idle_exit),
            "--max-attempts", str(max_attempts),
            "--stats-json", str(self.dir / f"stats-{tag}.json"),
        ]
        return subprocess.Popen(
            argv, env=self._env(plan), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )

    def finish_worker(self, proc: subprocess.Popen, *,
                      expect: int = 0, timeout: float = 300.0) -> None:
        _, stderr = proc.communicate(timeout=timeout)
        _require(proc.returncode == expect,
                 f"worker exited {proc.returncode}, expected {expect}:\n"
                 f"{stderr}")

    def stats(self, tag: str) -> dict:
        return json.loads((self.dir / f"stats-{tag}.json").read_text())

    def server_blobs(self) -> int:
        """Checksummed result blobs in the server's cache directory."""
        cache = self.dir / "server-cache"
        return sum(1 for _ in cache.rglob("*.pkl")) if cache.exists() else 0

    def stop_server(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
            self.server.kill()
            self.server.wait()
        self.server = None

    # -- invariants ----------------------------------------------------------

    def wait_done(self, timeout: float = 120.0) -> dict:
        """No-job-stuck invariant: the job must settle ``done`` in time."""
        final = self.client.wait(self.job_id, timeout=timeout)
        _require(final["state"]["phase"] == "done",
                 f"job ended {final['state']['phase']!r}: "
                 f"{final['state'].get('error', '')}")
        return final

    def assert_all_chunks_done_once(self) -> None:
        counts = self.client.fabric_chunks(self.job_id)["counts"]
        _require(counts == {"done": self.n_chunks},
                 f"chunk table not exactly-once done: {counts}")

    def assert_bit_exact(self) -> None:
        """The served table must equal the clean serial sweep exactly."""
        import numpy as np

        table = self.client.results(self.job_id)
        reference = _serial_reference(tuple(self.values), self.duration)
        _require(list(table["parameters"]) == self.values,
                 "result parameters differ from the submitted grid")
        for name, column in reference.items():
            got = table["columns"].get(name)
            _require(got is not None, f"column {name} missing from results")
            _require(
                np.array_equal(np.asarray(got, dtype=float), column),
                f"column {name} deviates from the clean serial sweep",
            )


_REFERENCES: dict = {}


def _serial_reference(values: tuple, duration: float) -> dict:
    """Clean serial sweep columns for a grid (memoized per grid)."""
    import numpy as np

    key = (values, duration)
    if key not in _REFERENCES:
        from ..analysis import LoopSweepTask, override_grid
        from ..config import REFERENCE_RESONANT_SENSOR

        task = LoopSweepTask(duration=duration)
        grid = override_grid(REFERENCE_RESONANT_SENSOR, PATH, list(values))
        rows = [task(point) for point in grid]
        _REFERENCES[key] = {
            name: np.asarray([row[name] for row in rows], dtype=float)
            for name in rows[0]
        }
    return _REFERENCES[key]


# -- schedules ----------------------------------------------------------------


def _run_kill(sc: _Scenario) -> dict:
    """kill -9 a worker mid-chunk; two fresh workers resume, zero recompute."""
    sc.duration = 0.05  # slow points: a fat window to land the SIGKILL in
    sc.start_server()
    sc.submit()
    doomed = sc.worker("doomed", lease_seconds=2.0)
    deadline = time.monotonic() + 60.0
    # a chunk's blobs land together after its batch: strike once the
    # first chunk is done and the next is leased, inside the next batch
    counts: dict = {}
    while not (counts.get("done") and counts.get("leased")):
        _require(doomed.poll() is None, "worker exited before the kill")
        _require(time.monotonic() < deadline, "no blobs appeared to kill at")
        time.sleep(0.005)
        counts = sc.client.fabric_chunks(sc.job_id)["counts"]
    doomed.send_signal(signal.SIGKILL)
    doomed.wait(timeout=30)
    _require(doomed.returncode == -signal.SIGKILL,
             f"doomed worker exited {doomed.returncode}, not SIGKILL")
    survivors = sc.server_blobs()
    _require(survivors < sc.points,
             f"kill landed too late: all {survivors} points already pushed")
    counts = sc.client.fabric_chunks(sc.job_id)["counts"]
    _require(counts.get("leased", 0) >= 1,
             f"no orphaned lease after SIGKILL (not mid-chunk?): {counts}")

    resumers = [sc.worker(f"resume-{i}", lease_seconds=2.0, idle_exit=8.0)
                for i in range(2)]
    for proc in resumers:
        sc.finish_worker(proc)
    sc.wait_done(timeout=60.0)
    sc.assert_all_chunks_done_once()
    sc.assert_bit_exact()
    computed = sum(sc.stats(f"resume-{i}")["stats"]["points_computed"]
                   for i in range(2))
    _require(computed == sc.points - survivors,
             f"recompute detected: resumers computed {computed}, the kill "
             f"left only {sc.points - survivors} points missing")
    return {"survivors": survivors, "resumed_computed": computed}


def _run_crashpoint(sc: _Scenario) -> dict:
    """Die in the worst window: point cached, chunk not completed."""
    crash_after = sc.chunk_size + 1  # one point into the second chunk
    sc.start_server()
    sc.submit()
    plan = FaultPlan.single("fabric.crash", at=crash_after - 1, seed=sc.seed)
    doomed = sc.worker("doomed", plan, lease_seconds=2.0)
    sc.finish_worker(doomed, expect=CRASH_EXIT_CODE)
    survivors = sc.server_blobs()
    _require(survivors == crash_after,
             f"{survivors} blobs survived the crash, expected {crash_after}")

    resumers = [sc.worker(f"resume-{i}", lease_seconds=2.0, idle_exit=8.0)
                for i in range(2)]
    for proc in resumers:
        sc.finish_worker(proc)
    sc.wait_done(timeout=60.0)
    sc.assert_all_chunks_done_once()
    sc.assert_bit_exact()
    computed = sum(sc.stats(f"resume-{i}")["stats"]["points_computed"]
                   for i in range(2))
    _require(computed == sc.points - survivors,
             f"recompute detected: resumers computed {computed}, the crash "
             f"left only {sc.points - survivors} points missing")
    return {"survivors": survivors, "resumed_computed": computed}


def _run_brownout(sc: _Scenario) -> dict:
    """Remote cache tier browns out; the worker degrades, then drains."""
    sc.start_server()
    sc.submit()
    plan = FaultPlan(faults=(
        FaultSpec(site="cache.remote", kind="raise", count=4),
    ), seed=sc.seed)
    worker = sc.worker("solo", plan, max_attempts=5)
    sc.finish_worker(worker)
    sc.wait_done(timeout=60.0)
    sc.assert_all_chunks_done_once()
    sc.assert_bit_exact()
    stats = sc.stats("solo")
    remote = next(t for t in stats["cache"]["tiers"]
                  if t["name"] == "remote")
    _require(remote["trips"] >= 1,
             f"remote tier never tripped under brownout: {remote}")
    _require(remote["pending"] == 0,
             f"{remote['pending']} blob(s) stranded in the write-behind "
             f"queue after recovery")
    _require(stats["stats"]["points_computed"] == sc.points,
             f"recompute under brownout: computed "
             f"{stats['stats']['points_computed']} of {sc.points}")
    return {"remote_tier": remote,
            "computed": stats["stats"]["points_computed"]}


def _run_transport(sc: _Scenario) -> dict:
    """Refused, hung and 5xx HTTP requests absorbed by client retries."""
    sc.start_server()
    sc.submit()
    plan = FaultPlan(faults=(
        FaultSpec(site="http.request", kind="raise", count=2),
        FaultSpec(site="http.request", kind="hang", at=6, payload=0.05),
        FaultSpec(site="http.request", kind="device", at=10),
    ), seed=sc.seed)
    workers = [sc.worker(f"w{i}", plan) for i in range(2)]
    for proc in workers:
        sc.finish_worker(proc)
    sc.wait_done(timeout=60.0)
    sc.assert_all_chunks_done_once()
    sc.assert_bit_exact()
    computed = retries = 0
    for i in range(2):
        stats = sc.stats(f"w{i}")
        computed += stats["stats"]["points_computed"]
        retries += stats["transport"]["retries"]
        _require(stats["transport"]["retries"] >= 2,
                 f"worker w{i} absorbed no transport faults: "
                 f"{stats['transport']}")
        _require(stats["transport"]["errors"] == 0,
                 f"worker w{i} exhausted retries: {stats['transport']}")
    _require(computed == sc.points,
             f"recompute under transport faults: computed {computed}")
    return {"computed": computed, "retries": retries}


def _run_lease_skew(sc: _Scenario) -> dict:
    """Collapsed lease TTL + a lost heartbeat: abandon, requeue, resume."""
    sc.start_server()
    sc.submit()
    plan = FaultPlan(faults=(
        # chunk 0's heartbeats extend the lease by 20 ms only
        FaultSpec(site="fabric.lease", at=0, payload=0.02),
        # and the heartbeat after the third point vanishes outright
        FaultSpec(site="fabric.heartbeat", at=2),
    ), seed=sc.seed)
    worker = sc.worker("solo", plan, lease_seconds=1.5, idle_exit=6.0,
                       max_attempts=5)
    sc.finish_worker(worker)
    sc.wait_done(timeout=60.0)
    sc.assert_all_chunks_done_once()
    sc.assert_bit_exact()
    stats = sc.stats("solo")["stats"]
    _require(stats["leases_lost"] >= 1,
             f"injected heartbeat loss had no effect: {stats}")
    _require(stats["points_computed"] == sc.points,
             f"recompute after lease loss: computed "
             f"{stats['points_computed']} of {sc.points} (the abandoned "
             f"chunk must resume from cache hits)")
    return {"leases_lost": stats["leases_lost"],
            "computed": stats["points_computed"]}


def _run_store_contention(sc: _Scenario) -> dict:
    """SQLITE_BUSY storms + CAS races server-side, lost ack worker-side."""
    server_plan = FaultPlan(faults=(
        FaultSpec(site="store.op", kind="raise", count=4),
        FaultSpec(site="store.claim", kind="raise", count=2),
    ), seed=sc.seed)
    sc.start_server(server_plan)
    sc.submit()
    # each worker's second completion ack is lost -> duplicate complete
    worker_plan = FaultPlan.single("fabric.complete", at=1, seed=sc.seed)
    workers = [sc.worker(f"w{i}", worker_plan) for i in range(2)]
    for proc in workers:
        sc.finish_worker(proc)
    sc.wait_done(timeout=60.0)
    sc.assert_all_chunks_done_once()
    sc.assert_bit_exact()
    computed = sum(sc.stats(f"w{i}")["stats"]["points_computed"]
                   for i in range(2))
    done = sum(sc.stats(f"w{i}")["stats"]["chunks_done"] for i in range(2))
    _require(computed == sc.points,
             f"recompute under store contention: computed {computed}")
    _require(done == sc.n_chunks,
             f"double completion: workers report {done} chunks done, "
             f"the job has {sc.n_chunks}")
    return {"computed": computed, "chunks_done": done}


SCHEDULES = {
    "kill": _run_kill,
    "crashpoint": _run_crashpoint,
    "brownout": _run_brownout,
    "transport": _run_transport,
    "lease_skew": _run_lease_skew,
    "store_contention": _run_store_contention,
}


def run_chaos_suite(
    workdir: str | os.PathLike | None = None,
    *,
    seed: int = 2026,
    schedules: list[str] | None = None,
    points: int = 12,
    chunk_size: int = 4,
    duration: float = 0.004,
    keep: bool = False,
    echo=print,
) -> list[ChaosReport]:
    """Run the chaos schedules; one :class:`ChaosReport` each.

    Every schedule gets a fresh subdirectory (server store + cache,
    per-worker caches, stats dumps) under ``workdir`` (a temp dir by
    default, removed afterwards unless ``keep``).  Failures never
    raise: they land in the report so ``repro chaos`` can print the
    whole scorecard and exit non-zero once.
    """
    names = list(schedules) if schedules else list(SCHEDULES)
    unknown = [n for n in names if n not in SCHEDULES]
    if unknown:
        raise ValueError(
            f"unknown chaos schedule(s) {unknown}; known: {list(SCHEDULES)}"
        )
    root = Path(workdir) if workdir is not None else \
        Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    root.mkdir(parents=True, exist_ok=True)
    reports = []
    try:
        for name in names:
            scenario = _Scenario(
                name, root, seed, points=points,
                chunk_size=chunk_size, duration=duration,
            )
            report = ChaosReport(schedule=name, seed=scenario.seed)
            echo(f"chaos: [{name}] seed={scenario.seed} "
                 f"({points} points / {scenario.n_chunks} chunks)")
            started = time.monotonic()
            try:
                report.details = SCHEDULES[name](scenario)
                report.passed = True
            except Exception as err:  # noqa: BLE001 - scorecard, not crash
                report.error = f"{type(err).__name__}: {err}"
            finally:
                scenario.stop_server()
            report.duration_s = time.monotonic() - started
            verdict = "PASS" if report.passed else f"FAIL ({report.error})"
            echo(f"chaos: [{name}] {verdict} in {report.duration_s:.1f}s")
            reports.append(report)
    finally:
        if not keep:
            shutil.rmtree(root, ignore_errors=True)
        else:
            echo(f"chaos: artifacts kept in {root}")
    return reports
