"""Fabric workers start from a preloaded forkserver that leaves with them.

One child interpreter, run the way ``perfbench/run.py``, ``tools/`` and
these tests run the library (``PYTHONPATH`` unset, ``repro`` importable
only through a ``sys.path`` insert) and in a session of its own, serves
every test here:

* a 2-worker :func:`run_fabric_sweep` is bit-exact to serial, and once
  the child has exited no process of its session remains: the
  coordinator stopped and reaped the forkserver (and the resource
  tracker its start launched);
* a process started from that forkserver already holds ``scipy.signal``
  and the fabric and store modules before its target runs, and running
  a chunk through :func:`_worker_process_main` imports no ``repro`` or
  ``scipy`` module;
* a ``REPRO_FAULT_PLAN`` set after the forkserver started still reaches
  the next worker: its injected crash makes a chunk run twice, and the
  table stays bit-exact.

A second child, a coordinator script without the main-module guard,
shows what its workers' death at start costs: the job drains in the
coordinator, bit-exact, with one warning that names the cause.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from .test_fabric import DURATION, PATH, serial_reference, values_for

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="lists a session's processes through /proc")

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: The probe target: it records ``sys.modules`` on entry, runs one job
#: through the real worker entry (whose final ``os._exit`` it turns
#: into a return) and records the modules the chunk imported.
PROBE = '''
import importlib.util
import json
import os
import sys


class _Exited(Exception):
    pass


def probe(out, db, cache_dir, job_id, environ):
    before = set(sys.modules)
    real_exit = os._exit

    def exit_(code):
        raise _Exited(code)

    os._exit = exit_
    from repro.engine.fabric import _worker_process_main

    try:
        _worker_process_main(db, cache_dir, {"job_id": job_id}, environ)
    except _Exited:
        pass
    with open(out, "w") as fh:
        json.dump({"before": sorted(before),
                   "imported": sorted(set(sys.modules) - before)}, fh)
    real_exit(0)
'''

CHILD = '''
import multiprocessing
import os
import pickle
import sys

sys.path[:0] = [{src!r}, {work!r}]

from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine.fabric import run_fabric_sweep, submit_fabric_job
from repro.engine.resilience import FAULT_PLAN_ENV, FaultPlan
from repro.service.store import open_job_store

import fabric_probe

work = {work!r}
values = {values!r}
tables = {{}}
tables["two_workers"] = run_fabric_sweep(
    REFERENCE_RESONANT_SENSOR, {path!r}, values,
    db=os.path.join(work, "a.sqlite"), cache_dir=os.path.join(work, "a"),
    duration={duration!r}, workers=2, chunk_size=2).columns

# a process started from the forkserver the sweep started
store = open_job_store(os.path.join(work, "b.sqlite"))
record = submit_fabric_job(store, REFERENCE_RESONANT_SENSOR, {path!r},
                           values[:4], duration={duration!r}, chunk_size=4)
store.close()
proc = multiprocessing.get_context("forkserver").Process(
    target=fabric_probe.probe,
    args=(os.path.join(work, "probe.json"), os.path.join(work, "b.sqlite"),
          os.path.join(work, "b"), record.job_id, dict(os.environ)))
proc.start()
proc.join(120)

# set after the forkserver started: the next worker must still see it
os.environ[FAULT_PLAN_ENV] = FaultPlan.single("fabric.crash", at=1).to_json()
tables["crashed_worker"] = run_fabric_sweep(
    REFERENCE_RESONANT_SENSOR, {path!r}, values,
    db=os.path.join(work, "c.sqlite"), cache_dir=os.path.join(work, "c"),
    duration={duration!r}, workers=1, chunk_size=4, lease_seconds=1.0).columns
store = open_job_store(os.path.join(work, "c.sqlite"))
(job,) = store.list_jobs()
attempts = [chunk.attempts for chunk in store.chunks(job.job_id)]
with open(os.path.join(work, "tables.pkl"), "wb") as fh:
    pickle.dump({{"tables": tables, "crash_attempts": attempts,
                 "probe_exitcode": proc.exitcode}}, fh)
'''


#: A coordinator script with no ``if __name__ == "__main__":`` guard.
#: Each worker re-imports it as its main module, calls run_fabric_sweep
#: while still bootstrapping, and dies.
UNGUARDED = '''
import os
import pickle
import sys

sys.path[:0] = [{src!r}]

from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine.fabric import run_fabric_sweep

here = os.path.dirname(os.path.abspath(__file__))
columns = run_fabric_sweep(
    REFERENCE_RESONANT_SENSOR, {path!r}, {values!r},
    db=os.path.join(here, "jobs.sqlite"), cache_dir=os.path.join(here, "cache"),
    duration={duration!r}, workers=1, chunk_size=2).columns
with open(os.path.join(here, "table.pkl"), "wb") as fh:
    pickle.dump(columns, fh)
'''


def session_processes(session: int) -> list[str]:
    """``make fabric-check``'s session scan (``tools/fabric_check.py``)."""
    spec = importlib.util.spec_from_file_location(
        "fabric_check", REPO / "tools" / "fabric_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.session_processes(session)


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """Run the child once; its outputs and the processes it left."""
    work = tmp_path_factory.mktemp("forkserver")
    (work / "fabric_probe.py").write_text(PROBE)
    values = values_for(8)
    code = textwrap.dedent(CHILD).format(
        src=str(SRC), work=str(work), values=values, path=PATH,
        duration=DURATION)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "REPRO_FAULT_PLAN")}
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=env, cwd=work,
        start_new_session=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    _, stderr = proc.communicate(timeout=300)
    left = session_processes(proc.pid)  # its session id is its pid
    assert proc.returncode == 0, stderr
    with open(work / "tables.pkl", "rb") as fh:
        outputs = pickle.load(fh)
    outputs["left"] = left
    probe = work / "probe.json"  # absent if the probe failed
    outputs["probe"] = json.loads(probe.read_text()) if probe.exists() else {}
    outputs["reference"] = serial_reference(values)
    return outputs


def assert_columns_equal(reference, columns):
    assert list(reference.columns) == list(columns)
    for name in reference.columns:
        assert np.array_equal(np.asarray(reference.columns[name]),
                              np.asarray(columns[name])), name


def test_no_process_outlives_the_coordinator(child):
    assert_columns_equal(child["reference"], child["tables"]["two_workers"])
    assert child["left"] == []


def test_forked_worker_starts_with_the_chunk_modules_loaded(child):
    probe = child["probe"]
    assert child["probe_exitcode"] == 0 and probe
    for module in ("scipy.signal", "repro.engine.fabric",
                   "repro.service.store"):
        assert module in probe["before"], module
    assert [m for m in probe["imported"]
            if m.split(".")[0] in ("repro", "scipy")] == []


def test_fault_plan_set_after_the_server_started_reaches_the_worker(child):
    # the worker crashed mid-chunk; the chunk ran again once its lease
    # expired, and the table is still the serial one
    assert sorted(child["crash_attempts"]) == [1, 2]
    assert_columns_equal(child["reference"], child["tables"]["crashed_worker"])


def test_an_unguarded_coordinator_script_drains_inline_and_warns_once(
        tmp_path):
    values = values_for(4)
    # a file, not ``python -c``: only a main module with a ``__file__``
    # is re-imported by the workers
    script = tmp_path / "coordinator.py"
    script.write_text(textwrap.dedent(UNGUARDED).format(
        src=str(SRC), path=PATH, values=values, duration=DURATION))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "REPRO_FAULT_PLAN")}
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, cwd=tmp_path,
        start_new_session=True, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("exited with code(s) 1;") == 1, proc.stderr
    assert proc.stderr.count('`if __name__ == "__main__":`') == 1
    with open(tmp_path / "table.pkl", "rb") as fh:
        columns = pickle.load(fh)
    assert_columns_equal(serial_reference(values), columns)
    from repro.service.store import open_job_store

    store = open_job_store(tmp_path / "jobs.sqlite")
    (job,) = store.list_jobs()
    assert all(chunk.worker_id.endswith("-inline")
               for chunk in store.chunks(job.job_id))
    store.close()
