#!/usr/bin/env python3
"""Smoke-check the simulation service end to end (``make serve-check``).

Boots a real ``repro serve`` subprocess on an ephemeral port with a
throwaway store/cache, then over plain HTTP:

1. probes ``/healthz`` and requires ``ok``;
2. submits a tiny sweep and long-polls it to completion: at most two
   status requests per ``client.wait`` (the push path, not a sleep
   loop), and the result table in hand within 0.25 s of the job's
   ``finished_at``;
3. fetches the result table and sanity-checks its shape;
4. submits the same grid as a second tenant and requires the dedup
   link plus an all-cache-hits completion;
5. shuts the server down and requires a clean exit.

Exit code 0 means the serve/submit/results path works on this box.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Status requests one ``ServiceClient.wait`` may make: the long-poll,
#: plus one re-ask should its hold run out first.
MAX_WAIT_REQUESTS = 2
#: Longest gap between a job's ``finished_at`` and its table in hand [s].
MAX_RESULT_LAG_S = 0.25


def waited(client, job_id: str) -> dict:
    """``client.wait`` that asserts the long-poll's request budget."""
    from repro.service import transport_counters

    before = transport_counters().snapshot()["requests"]
    final = client.wait(job_id, timeout=120)
    used = transport_counters().snapshot()["requests"] - before
    assert used <= MAX_WAIT_REQUESTS, (
        f"wait on {job_id} made {used} status requests; the long-poll "
        f"should need at most {MAX_WAIT_REQUESTS}"
    )
    return final


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.service import JobSpec, ServiceClient
    from repro.config import REFERENCE_RESONANT_SENSOR

    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-check-"))
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--db", str(workdir / "jobs.sqlite"),
            "--cache-dir", str(workdir / "cache"),
        ],
        cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if not match:
            print(f"serve-check: no listening line, got {line!r}")
            return 1
        url = match.group(1)
        print(f"serve-check: server up at {url}")
        client = ServiceClient(url, timeout=30)

        health = client.health()
        assert health["ok"], f"unhealthy at boot: {health}"
        print("serve-check: /healthz ok "
              f"(pump_alive={health['service']['pump_alive']})")

        # transport vitals: outbound counters in the engine snapshot,
        # inbound counters + inflight bounds in the service section
        counter_keys = ("requests", "retries", "errors",
                        "deadline_sheds", "backpressure_rejections")
        outbound = health["transport"]
        assert all(isinstance(outbound[k], int) for k in counter_keys), (
            f"malformed outbound transport section: {outbound}"
        )
        assert isinstance(outbound["breakers"], dict)
        inbound = health["service"]["transport"]
        assert all(isinstance(inbound[k], int) for k in counter_keys), (
            f"malformed service transport section: {inbound}"
        )
        assert inbound["max_inflight"] >= 1
        assert 0 <= inbound["inflight"] <= inbound["max_inflight"]
        from repro.service import health_snapshot

        local = health_snapshot()["transport"]
        assert local["requests"] >= 1, (
            f"local snapshot missed this client's traffic: {local}"
        )
        print("serve-check: transport vitals present "
              f"(client requests={local['requests']})")

        base = REFERENCE_RESONANT_SENSOR.to_dict()
        spec = JobSpec(
            base=base, path="cantilever.length_um",
            values=(150.0, 200.0, 250.0), duration=0.004, tenant="smoke-a",
        )
        record = client.submit(spec)
        job_id = record["job_id"]
        final = waited(client, job_id)
        phase = final["state"]["phase"]
        assert phase == "done", f"job {job_id} ended {phase}: {final}"
        assert final["progress"]["failed"] == 0
        print(f"serve-check: job {job_id} done "
              f"({final['progress']['completed']} points)")

        table = client.results(job_id)
        lag = time.time() - final["state"]["finished_at"]
        assert lag <= MAX_RESULT_LAG_S, (
            f"results arrived {lag:.3f}s after finished_at; the push path "
            f"should deliver within {MAX_RESULT_LAG_S}s"
        )
        print(f"serve-check: long-poll ok (results {lag * 1e3:.0f} ms "
              "after finished_at)")
        assert table["parameters"] == [150.0, 200.0, 250.0]
        assert table["columns"], "result table has no columns"
        for name, column in table["columns"].items():
            assert len(column) == 3, f"column {name} has {len(column)} rows"
        print(f"serve-check: results ok (columns: {sorted(table['columns'])})")

        twin = client.submit(JobSpec(
            base=base, path="cantilever.length_um",
            values=(150.0, 200.0, 250.0), duration=0.004, tenant="smoke-b",
        ))
        assert twin["dedup_of"] == job_id, (
            f"expected dedup against {job_id}, got {twin['dedup_of']!r}"
        )
        twin_final = waited(client, twin["job_id"])
        assert twin_final["state"]["phase"] == "done"
        assert (twin_final["progress"]["cache_hits"]
                == twin_final["progress"]["total"]), (
            f"dedup follower recomputed: {twin_final['progress']}"
        )
        print(f"serve-check: dedup ok (job {twin['job_id']} all cache hits)")

        # after real traffic the server-side admission counter must move
        after = client.health()["service"]["transport"]
        assert after["requests"] >= 4, (
            f"server admitted {after['requests']} requests, expected the "
            f"submit/status/results traffic to be counted"
        )
        print(f"serve-check: server admission counter ok "
              f"(requests={after['requests']}, "
              f"peak_inflight={after['peak_inflight']})")
    finally:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    print("serve-check: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
