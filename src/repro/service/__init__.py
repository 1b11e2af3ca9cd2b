"""Simulation-as-a-service: durable jobs, a scheduler, and an HTTP face.

The service layer turns the repo's sweep machinery into a long-running
multi-tenant facility:

* :mod:`repro.service.jobs` — the job model (:class:`JobSpec`,
  :class:`JobState`, :class:`JobRecord`): frozen dataclasses with JSON
  round-trips and a content-addressed ``work_hash`` idempotency key.
* :mod:`repro.service.store` — the durable :class:`JobStore` (SQLite
  behind an abstract interface, versioned schema + migrations).
* :mod:`repro.service.scheduler` — pure multi-tenant scheduling:
  priorities, per-tenant quotas, dedup holds.
* :mod:`repro.service.pump` — worker threads claiming jobs and running
  their lease chunks in-process, and :func:`finalize_job`, the one
  place a settled job gets its terminal record.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  stdlib HTTP front end (``repro serve``) and its urllib client
  (``repro submit|status|results|cancel``).
* :mod:`repro.service.health` — the machine-readable health snapshot
  shared by ``/healthz`` and ``repro health --json``.
* :mod:`repro.service.transport` — the wire protocol the client and
  server share: deadline/shed headers and the process-global transport
  counters (retries, deadline sheds, backpressure rejections).
* :mod:`repro.service.chaos` — the kill-anything-anytime chaos
  harness (``repro chaos`` / ``make chaos-check``): seeded fault
  schedules against real server + worker subprocesses.

Everything is stdlib + the repo's own engine: no new dependencies.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "chaos": ("ChaosReport", "run_chaos_suite"),
    "client": ("RemoteFabricStore", "ServiceClient"),
    "health": ("health_snapshot", "resilience_snapshot"),
    "jobs": ("JOB_PHASES", "JOB_TERMINAL_PHASES", "JobRecord", "JobSpec",
             "JobState", "device_spec_from_dict", "new_job_id"),
    "pump": ("WorkerPump", "execute_job", "finalize_job",
             "sweep_result_key"),
    "scheduler": ("SchedulerPolicy", "eligible_jobs", "select_next"),
    "server": ("ReproHTTPServer", "ReproService", "serve"),
    "store": ("CHUNK_STATES", "SCHEMA_VERSION", "ChunkCompletion",
              "ChunkRow", "JobStore", "PointOutcome", "SettledJob",
              "SQLiteJobStore", "open_job_store"),
    "transport": ("TransportCounters", "reset_transport",
                  "transport_counters", "transport_report"),
})

__all__ = [
    "CHUNK_STATES",
    "ChaosReport",
    "ChunkCompletion",
    "ChunkRow",
    "JOB_PHASES",
    "JOB_TERMINAL_PHASES",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobStore",
    "PointOutcome",
    "RemoteFabricStore",
    "ReproHTTPServer",
    "ReproService",
    "SCHEMA_VERSION",
    "SQLiteJobStore",
    "SchedulerPolicy",
    "ServiceClient",
    "SettledJob",
    "TransportCounters",
    "WorkerPump",
    "device_spec_from_dict",
    "eligible_jobs",
    "execute_job",
    "finalize_job",
    "health_snapshot",
    "new_job_id",
    "open_job_store",
    "reset_transport",
    "resilience_snapshot",
    "run_chaos_suite",
    "select_next",
    "serve",
    "sweep_result_key",
    "transport_counters",
    "transport_report",
]
