"""Exception hierarchy for the repro library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class UnitError(ReproError, ValueError):
    """A quantity was outside its physically meaningful range."""


class MaterialError(ReproError, KeyError):
    """An unknown material or liquid was requested from the database."""


class GeometryError(ReproError, ValueError):
    """A cantilever or layout geometry is invalid or inconsistent."""


class FabricationError(ReproError, RuntimeError):
    """A process step cannot be applied to the current wafer state."""


class DesignRuleViolation(ReproError):
    """Raised by the DRC engine when `raise_on_error` is requested."""

    def __init__(self, violations: list) -> None:
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} design-rule violation(s): {lines}")


class CircuitError(ReproError, ValueError):
    """A circuit block was configured or driven inconsistently."""


class SignalError(ReproError, ValueError):
    """Two signals are incompatible (sampling rate, length) or malformed."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge."""


class OscillationError(ReproError, RuntimeError):
    """The closed feedback loop failed to start or sustain oscillation."""


class AssayError(ReproError, ValueError):
    """An assay protocol is malformed (bad step ordering or parameters)."""


class ExecutorError(ReproError, ValueError):
    """A batch executor was misconfigured or its task is unusable."""


class CacheError(ReproError, RuntimeError):
    """The result cache cannot hash a key or persist an entry."""


class KernelError(ReproError, RuntimeError):
    """The fused loop kernel was asked for an unavailable backend."""


class LoweringError(KernelError):
    """A loop cannot run on the fused kernel.

    Raised during kernel construction, when a block cannot be lowered to
    a fused kernel stage, and by a kernel run before any sample is
    computed, when no trusted C engine can run the lowered program.  The
    closed-loop simulators catch it and fall back to the per-sample
    reference path, so it is a performance event, never a correctness
    failure.
    """


class FaultInjectionError(ReproError, RuntimeError):
    """A deliberately injected fault fired (see :mod:`repro.engine.resilience`).

    Never raised in normal operation — only when a
    :class:`~repro.engine.resilience.FaultPlan` is active.  Recovery
    machinery (retries, fallbacks, channel health) treats it like any
    other task failure, which is the point: the fault-injection suite
    proves the recovery paths with a distinguishable error type.
    """


class WatchdogTimeout(ExecutorError):
    """A task exceeded its per-task watchdog timeout.

    The executor abandons the hung task on its daemon thread and
    captures this error as the task's outcome; with a retry policy the
    task is re-dispatched.  A sweep never stalls past its watchdog.
    """


class ServiceError(ReproError, RuntimeError):
    """The simulation service refused or could not complete a request.

    Raised by the job store, scheduler, HTTP front end, and client for
    malformed job specs, unknown job ids, transport failures, and
    illegal job-state transitions (see :mod:`repro.service`).
    """


class JobError(ServiceError):
    """A submitted job spec is invalid or references an unknown job.

    Messages carry the offending dotted field path (the
    :class:`ConfigError` convention), so a bad submission points at
    itself.
    """


class FabricError(ServiceError):
    """The distributed sweep fabric could not complete a grid.

    Raised by the fabric coordinator when chunks are parked as failed
    past their attempt budget, every worker dies with work remaining,
    or the completion wait times out (see :mod:`repro.engine.fabric`).
    """


class ConfigError(ReproError, ValueError):
    """A device spec is invalid, or an override path does not resolve.

    Messages carry the dotted field path of the offending value
    (e.g. ``cantilever.length_um: must be a positive finite number``)
    so a failing sweep grid or ``--set`` flag points at itself.
    """
