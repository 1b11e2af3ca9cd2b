"""Parallel batch-sweep engine: executor, result cache, stage timing.

The scaling substrate under every sweep, bench, and array assay:

* :class:`BatchExecutor` — fan a function out over a parameter grid
  (serial / thread / process backends, ordered results, per-task error
  capture);
* :class:`ResultCache` — deterministic on-disk memoization keyed by a
  stable content hash, with versioned invalidation and hit/miss
  counters — and :class:`TieredCache`, its memory → sharded-disk →
  remote-store extension with per-tier counters;
* :mod:`~repro.engine.fabric` — how every job runs:
  :class:`FabricWorker` nodes (a service pump thread, a spawned
  process, a ``repro worker``) lease grid chunks from the service job
  store and stream results through the cache
  (:func:`run_fabric_sweep` is the one-call coordinator);
* :class:`StageTimer` — per-stage wall-clock timing so benches report
  real speedups;
* :mod:`~repro.engine.resilience` — deterministic fault injection
  (:func:`inject_faults`), seeded retry backoff (:class:`RetryPolicy`),
  and the circuit breakers that quarantine a misbehaving compiled
  backend (:func:`get_breaker`, :func:`breaker_report`);
* :mod:`~repro.engine.kernel` — the fused closed-loop kernel: circuit
  chains lowered to flat stage programs run by a compiled interpreter
  (``KERNEL_BACKENDS`` names the execution paths; the executor's
  ``BACKENDS`` names the *parallelism* backends — different axes).

Entry points elsewhere in the library build on this module:
:func:`repro.analysis.run_parallel` (grid sweeps),
:meth:`repro.core.chip.BiosensorChip.run_array_assay` (``workers=``)
and :meth:`repro.feedback.loop.ResonantFeedbackLoop.run`
(``backend=``) are the main consumers.
"""

from .cache import (
    CACHE_VERSION,
    CacheInfo,
    FilesystemRemoteStore,
    HTTPRemoteStore,
    ResultCache,
    TieredCache,
    TieredCacheInfo,
    TierInfo,
    stable_hash,
)
from .executor import BACKENDS, BatchExecutor, BatchResult, TaskOutcome
from .fabric import (
    FabricWorker,
    WorkerStats,
    fabric_worker_id,
    run_fabric_sweep,
    submit_fabric_job,
)
from .kernel import (
    AUTO_ORDER,
    BACKENDS as KERNEL_BACKENDS,
    BATCH_AUTO_ORDER,
    CC_ENV,
    FusedLoopKernel,
    KERNEL_THREADS_ENV,
    KernelBatch,
    KernelInfo,
    KernelOp,
    KernelRunInfo,
    KernelRunResult,
    KernelStage,
    ModeLowering,
    batch_signature,
    cc_available,
    cc_usable,
    compose_stages,
    kernel_batch_threads,
    kernel_info,
    lower_block,
    record_degrade,
    record_fallback,
    reset_compiler_probe,
    reset_kernel_info,
    resolve_backend,
)
from .resilience import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FAULT_SITES,
    BreakerInfo,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    arm_env_fault_plan,
    breaker_report,
    get_breaker,
    inject_faults,
    poll_fault,
    quarantined_backends,
    reset_breakers,
)
from .timing import StageTimer, StageTiming, speedup

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
    "ResultCache",
    "RetryPolicy",
    "StageTimer",
    "StageTiming",
    "TaskOutcome",
    "TierInfo",
    "TieredCache",
    "TieredCacheInfo",
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
