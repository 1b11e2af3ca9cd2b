#!/usr/bin/env python3
"""Crash-and-resume check for the sweep fabric (``make fabric-check``).

Drives the real distributed path — a SQLite job store on disk and
``repro worker`` subprocesses — through the failure the fabric exists
to survive:

1. submits a 16-point closed-loop fabric job and claims it;
2. starts one worker with a ``fabric.crash`` fault armed through
   ``REPRO_FAULT_PLAN`` at its fifth cached point: it hard-exits
   (``os._exit``) mid-chunk with the lease still held, leaving 5
   checksummed points on disk;
3. waits out the lease and resumes with **two** concurrent workers,
   which must split the remaining chunks between them and compute
   exactly the missing points — every pre-crash point must be served
   from the cache, proved per worker by ``cache_info()`` store counts
   in the ``--stats-json`` dumps;
4. assembles the final table in-process with a zero-miss cache and
   requires it ``np.array_equal`` to the plain serial sweep;
5. runs ``repro sweep --fabric --fabric-workers 2`` in a session of its
   own, whose workers fork from the preloaded forkserver: its table
   must equal ``repro sweep --serial``, and once the command has
   exited no process of its session may be left (``/proc/*/stat``).

Exit code 0 means kill-and-resume works on this box with zero
recomputed points, and the forkserver leaves with its coordinator.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

POINTS = 16
CRASH_AFTER = 5
CHUNK_SIZE = 4
DURATION = 0.004
PATH = "cantilever.length_um"
LEASE_SECONDS = 3.0


def worker_argv(workdir: Path, job_id: str, **extra: object) -> list[str]:
    argv = [
        sys.executable, "-m", "repro.cli", "worker",
        "--db", str(workdir / "jobs.sqlite"),
        "--cache-dir", str(workdir / "cache"),
        "--job-id", job_id,
        "--lease-seconds", str(LEASE_SECONDS),
    ]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return argv


def session_processes(session: int) -> list[str]:
    """``pid (state) command`` of every process in ``session``, zombies too."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # gone meanwhile
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session:
            command = command.replace(b"\0", b" ").decode()[:120]
            found.append(f"{entry.name} ({fields[0]}) {command}")
    return found


def forkserver_leg(workdir: Path, env: dict) -> None:
    """``repro sweep --fabric`` equals serial and leaves no process behind."""
    sweep = [sys.executable, "-m", "repro.cli", "sweep",
             "--values", f"170:{170 + 0.5 * (POINTS - 1)}:{POINTS}",
             "--duration", str(DURATION)]
    fabric = subprocess.Popen(
        sweep + ["--fabric", "--fabric-workers", "2",
                 "--db", str(workdir / "forkserver.sqlite"),
                 "--cache-dir", str(workdir / "forkserver-cache")],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    table, stderr = fabric.communicate(timeout=300)
    left = session_processes(fabric.pid)  # its session id is its pid
    assert fabric.returncode == 0, (
        f"repro sweep --fabric exited {fabric.returncode}:\n{stderr}"
    )
    assert not left, f"processes outlived repro sweep --fabric: {left}"
    serial = subprocess.run(sweep + ["--serial"], cwd=REPO, env=env,
                            capture_output=True, text=True, timeout=300)
    assert serial.returncode == 0, serial.stderr
    assert table == serial.stdout, (
        f"fabric table differs from serial:\n{table}\n{serial.stdout}"
    )
    print("fabric-check: repro sweep --fabric (2 forked workers) equals "
          "--serial; no process of its session outlived it")


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.analysis import LoopSweepTask, run_spec_sweep
    from repro.config import REFERENCE_RESONANT_SENSOR
    from repro.engine import TieredCache
    from repro.engine.fabric import (
        CRASH_EXIT_CODE,
        run_fabric_sweep,
        submit_fabric_job,
    )
    from repro.engine.resilience import FAULT_PLAN_ENV, FaultPlan
    from repro.service import open_job_store

    workdir = Path(tempfile.mkdtemp(prefix="repro-fabric-check-"))
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    values = [round(170.0 + 0.5 * i, 3) for i in range(POINTS)]
    try:
        store = open_job_store(workdir / "jobs.sqlite")
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values,
            duration=DURATION, chunk_size=CHUNK_SIZE,
        )
        store.claim(record.job_id)
        print(f"fabric-check: job {record.job_id} submitted "
              f"({POINTS} points, {POINTS // CHUNK_SIZE} chunks)")

        # phase 1: a worker dies mid-chunk, lease still held
        plan = FaultPlan.single("fabric.crash", at=CRASH_AFTER - 1)
        crash = subprocess.run(
            worker_argv(workdir, record.job_id),
            cwd=REPO, env={**env, FAULT_PLAN_ENV: plan.to_json()},
            capture_output=True, text=True, timeout=300,
        )
        assert crash.returncode == CRASH_EXIT_CODE, (
            f"crash worker exited {crash.returncode}, expected "
            f"{CRASH_EXIT_CODE}:\n{crash.stderr}"
        )
        survivors = sum(1 for _ in (workdir / "cache").rglob("*.pkl"))
        assert survivors == CRASH_AFTER, (
            f"{survivors} points survived the crash, expected {CRASH_AFTER}"
        )
        counts = store.chunk_counts(record.job_id)
        assert "leased" in counts, f"no orphaned lease after crash: {counts}"
        print(f"fabric-check: worker killed mid-chunk "
              f"({survivors} points survive, chunks {counts})")

        # phase 2: two fresh workers resume once the orphan lease expires
        time.sleep(LEASE_SECONDS + 0.5)
        procs = [
            subprocess.Popen(
                worker_argv(workdir, record.job_id, idle_exit=3,
                            stats_json=workdir / f"stats-{i}.json"),
                cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, (
                f"resume worker exited {proc.returncode}:\n{stderr}"
            )
        stats = [
            json.loads((workdir / f"stats-{i}.json").read_text())
            for i in range(2)
        ]
        computed = sum(s["stats"]["points_computed"] for s in stats)
        assert computed == POINTS - survivors, (
            f"recompute detected: workers computed {computed}, the crash "
            f"left only {POINTS - survivors} points missing"
        )
        # the checksummed cache is the only write path: each worker
        # stores the points it computed, and the worker whose completion
        # settled the job also stores the job's one result blob
        extra = [s["cache"]["stores"] - s["stats"]["points_computed"]
                 for s in stats]
        assert sorted(extra) == [0, 1], (
            f"cache stores beyond computed points per worker: {extra} "
            f"(expected one result blob in total): {stats}"
        )
        assert store.chunk_counts(record.job_id) == {
            "done": POINTS // CHUNK_SIZE,
        }
        print(f"fabric-check: resumed with 2 workers, computed "
              f"{computed}/{POINTS} (zero recomputes), all chunks done")

        # assemble: a zero-miss coordinator cache, bit-exact vs serial
        cache = TieredCache(workdir / "cache")
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=workdir / "jobs.sqlite", cache_dir=workdir / "cache",
            duration=DURATION, workers=0, chunk_size=CHUNK_SIZE, cache=cache,
        )
        info = cache.cache_info()
        # the only tolerated miss/store pair is finalize probing for the
        # result blob and then writing it; every point read must hit
        assert info.misses <= 1 and info.stores == info.misses, (
            f"assembly recomputed points: {info}"
        )
        reference = run_spec_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            LoopSweepTask(duration=DURATION), backend="serial",
        )
        for name in reference.columns:
            assert np.array_equal(
                np.asarray(reference.columns[name]),
                np.asarray(result.columns[name]),
            ), f"column {name} deviates from the serial reference"
        print("fabric-check: table bit-identical to the serial sweep")

        forkserver_leg(workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("fabric-check: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
