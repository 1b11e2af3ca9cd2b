"""Parallel batch-sweep engine: executor, result cache, stage timing.

The scaling substrate under every sweep, bench, and array assay:

* :class:`BatchExecutor` — run a function over a parameter grid as one
  batch call, point by point under a watchdog, or as a plain loop
  (ordered results, per-task error capture, retries);
* :class:`TieredCache` — deterministic memoization keyed by a stable
  content hash, with versioned invalidation, kept in a memory LRU, a
  sharded disk tier and an optional shared remote store, with
  aggregate and per-tier hit/miss counters;
* :mod:`~repro.engine.fabric` — how every job runs:
  :class:`FabricWorker` nodes (a service pump thread, a worker
  process forked from a preloaded forkserver, a ``repro worker``)
  lease grid chunks from the service job store and stream results
  through the cache (:func:`run_fabric_sweep` is the one-call
  coordinator);
* :class:`StageTimer` — per-stage wall-clock timing so benches report
  real speedups;
* :mod:`~repro.engine.resilience` — deterministic fault injection
  (:func:`inject_faults`), seeded retry backoff (:class:`RetryPolicy`),
  and the circuit breakers that quarantine a misbehaving compiled
  backend (:func:`get_breaker`, :func:`breaker_report`);
* :mod:`~repro.engine.kernel` — the fused closed-loop kernel: circuit
  chains lowered to flat stage programs run by a compiled interpreter
  (``KERNEL_BACKENDS`` names the execution paths; the executor's
  ``BACKENDS`` says whether a grid may run as one batch call —
  different axes).

Entry points elsewhere in the library build on this module:
:func:`repro.analysis.run_parallel` (grid sweeps),
:meth:`repro.core.chip.BiosensorChip.run_array_assay` (``timeout=``)
and :meth:`repro.feedback.loop.ResonantFeedbackLoop.run`
(``backend=``) are the main consumers.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "cache": ("CACHE_VERSION", "CacheInfo", "FilesystemRemoteStore",
              "HTTPRemoteStore", "TieredCache", "TierInfo", "stable_hash"),
    "executor": ("BACKENDS", "BatchExecutor", "BatchResult", "TaskOutcome"),
    "fabric": ("FabricWorker", "WorkerStats", "fabric_worker_id",
               "run_fabric_sweep", "submit_fabric_job"),
    "kernel": ("AUTO_ORDER", "KERNEL_BACKENDS=BACKENDS", "BATCH_AUTO_ORDER",
               "CC_ENV", "FusedLoopKernel", "KERNEL_THREADS_ENV",
               "KernelBatch", "KernelInfo", "KernelOp", "KernelRunInfo",
               "KernelRunResult", "KernelStage", "ModeLowering",
               "batch_signature", "cc_available", "cc_usable",
               "compose_stages", "kernel_batch_threads", "kernel_info",
               "lower_block", "record_degrade", "record_fallback",
               "reset_compiler_probe", "reset_kernel_info",
               "resolve_backend"),
    "resilience": ("FAULT_KINDS", "FAULT_PLAN_ENV", "FAULT_SITES",
                   "BreakerInfo", "CircuitBreaker", "FaultInjector",
                   "FaultPlan", "FaultSpec", "RetryPolicy",
                   "arm_env_fault_plan", "breaker_report", "get_breaker",
                   "inject_faults", "poll_fault", "quarantined_backends",
                   "reset_breakers"),
    "timing": ("StageTimer", "StageTiming", "speedup"),
})

__all__ = [
    "AUTO_ORDER",
    "BACKENDS",
    "BATCH_AUTO_ORDER",
    "CACHE_VERSION",
    "CC_ENV",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "KERNEL_BACKENDS",
    "KERNEL_THREADS_ENV",
    "BatchExecutor",
    "BatchResult",
    "BreakerInfo",
    "CacheInfo",
    "CircuitBreaker",
    "FabricWorker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FilesystemRemoteStore",
    "FusedLoopKernel",
    "HTTPRemoteStore",
    "KernelBatch",
    "KernelInfo",
    "KernelOp",
    "KernelRunInfo",
    "KernelRunResult",
    "KernelStage",
    "ModeLowering",
    "RetryPolicy",
    "StageTimer",
    "StageTiming",
    "TaskOutcome",
    "TierInfo",
    "TieredCache",
    "WorkerStats",
    "batch_signature",
    "arm_env_fault_plan",
    "breaker_report",
    "cc_available",
    "cc_usable",
    "compose_stages",
    "fabric_worker_id",
    "get_breaker",
    "inject_faults",
    "kernel_batch_threads",
    "kernel_info",
    "lower_block",
    "poll_fault",
    "quarantined_backends",
    "record_degrade",
    "record_fallback",
    "reset_breakers",
    "reset_compiler_probe",
    "reset_kernel_info",
    "resolve_backend",
    "run_fabric_sweep",
    "speedup",
    "submit_fabric_job",
    "stable_hash",
]
