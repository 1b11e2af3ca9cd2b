"""Fused numeric kernel for the closed-loop (Fig. 5) simulators.

The sample-by-sample reference loop in :mod:`repro.feedback.loop`
dispatches ~6 Python ``step()`` calls per sample — the dominant cost of
every resonant bench and sweep.  This module lowers the whole loop to a
flat *stage program* and runs it in one allocation-free inner loop:

* every steppable circuit block exports its per-sample update as a
  :class:`KernelStage` — a short list of :class:`KernelOp` primitives
  (SOS biquad sections, one-pole RC, static nonlinearities, memoryless
  gains) plus its current state and a write-back hook;
* :class:`FusedLoopKernel` composes the stages with the bridge gain,
  the (linear) Lorentz actuator, and the exact-ZOH modal propagators
  into one program;
* :class:`KernelBatch` runs N same-shape programs at once, whatever N,
  and a single loop's :meth:`FusedLoopKernel.run` is a batch of one.
  The **fused** backend runs a batch on the C megakernel generated for
  its program shape (:mod:`~repro.engine.kernel_columnar`; strict IEEE
  flags, built once per shape per machine with the system C compiler,
  cached on disk) — ~50-100x the reference path.  When no compiler is
  trusted the batch declines with :class:`~repro.errors.LoweringError`
  and the loop simulators run the reference loop instead.

Equivalence is the contract: each primitive replicates the reference
``step()`` arithmetic operation-for-operation, so at any batch width
the fused waveforms match the per-sample loop bit-for-bit (pinned by
the golden test suites, ``make kernel-check`` and ``make
vector-check``).  Blocks that cannot lower — unknown user subclasses,
instance-patched ``step`` methods, amplifiers with per-sample noise —
raise :class:`~repro.errors.LoweringError` too; the loop simulators
catch it and fall back to the reference path with a logged reason,
recorded by :func:`kernel_info`.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import KernelError, LoweringError
from .resilience import get_breaker
from .timing import StageTimer

logger = logging.getLogger(__name__)

__all__ = [
    "AUTO_ORDER",
    "BACKENDS",
    "CC_ENV",
    "FusedLoopKernel",
    "KERNEL_THREADS_ENV",
    "KernelBatch",
    "KernelInfo",
    "KernelOp",
    "KernelRunInfo",
    "KernelRunResult",
    "KernelStage",
    "KernelError",
    "LoweringError",
    "MAX_BATCH_THREADS",
    "ModeLowering",
    "batch_signature",
    "cc_available",
    "cc_usable",
    "compose_stages",
    "kernel_batch_threads",
    "kernel_info",
    "lower_block",
    "record_batch",
    "record_degrade",
    "record_fallback",
    "reset_compiler_probe",
    "reset_kernel_info",
    "resolve_backend",
]

# -- stage-program primitives ----------------------------------------------------
#
# Each op transforms the running sample value ``v`` exactly as the
# corresponding reference ``step()`` does, using the same floating-point
# operation order (the bit-identity contract).

OP_BIAS = 0      # v = v + p0                      (amplifier input offset)
OP_GAIN = 1      # v = v * p0                      (memoryless gain)
OP_SOS = 2       # transposed direct-form II biquad section, 2 state slots
OP_RC = 3        # s += p0*(v - s); v = s          (one-pole RC low-pass)
OP_CLIP = 4      # v = min(max(v, p0), p1)         (rails / current limit)
OP_TANH = 5      # v = p1 * tanh(p0 * v / p1)      (limiting amplifier)
OP_DIFF = 6      # y = (v - s)*p0; s = v; v = y    (phase-lead differentiator)
OP_DEADZONE = 7  # crossover dead zone of half-width p0 (p1 = -p0)
OP_SLEW = 8      # slew-rate limit p0 per sample (p1 = -p0), 1 state slot
OP_LATCH = 9     # s = v (records last output; buffer state write-back)
OP_TAP_LIMIN = 10   # record v into the limiter-input waveform
OP_TAP_LIMOUT = 11  # record v into the limiter-output waveform
OP_TAP_DRIVE = 12   # record v into the drive waveform

_N_PARAMS = 5

#: Loop-level backend choices accepted by ``run(..., backend=)``.
BACKENDS = ("auto", "reference", "fused")

#: The routes under the ``fused`` backend (``auto`` resolves to it), in
#: the order :meth:`KernelBatch.run` and the loop simulators take them
#: for a batch of any width, a single loop's run included; pinned by
#: regression tests.  First the program shape's columnar C megakernel
#: (:mod:`~repro.engine.kernel_columnar`) when a compiler exists and is
#: trusted (:func:`cc_usable`), else the per-sample reference loop.  Both
#: give the reference loop's bits.
AUTO_ORDER = ("columnar:cc", "reference")


@dataclass(frozen=True)
class KernelOp:
    """One primitive per-sample update (see the OP_* table above)."""

    kind: int
    params: tuple[float, ...] = ()
    state: tuple[float, ...] = ()


@dataclass
class KernelStage:
    """One block's per-sample update, lowered to primitive ops.

    Parameters
    ----------
    label:
        Human-readable origin (block class name), used in fallback
        reasons and ``kernel_info`` reports.
    ops:
        The primitives, applied in order.
    sync:
        Called after a kernel run with the stage's final state values
        (flat, in op order) so the owning block's Python-side state
        matches what the reference path would have left behind.
    """

    label: str
    ops: list[KernelOp]
    sync: Callable[[Sequence[float]], None] | None = None

    @property
    def n_state(self) -> int:
        return sum(len(op.state) for op in self.ops)


@dataclass(frozen=True)
class ModeLowering:
    """One modal resonator as exact-ZOH propagator coefficients.

    ``coef`` is the mode's displacement-to-bridge-voltage gain [V/m]
    (sign included); ``x0``/``v0`` the state at the start of the run.
    """

    a11: float
    a12: float
    a21: float
    a22: float
    b1: float
    b2: float
    coef: float
    x0: float
    v0: float


@dataclass(frozen=True)
class KernelRunInfo:
    """How one closed-loop run executed (see also :func:`kernel_info`).

    ``engine`` names the machinery under the backend: always
    ``"cc-columnar"``, its program shape's columnar C megakernel, which
    runs a single loop as a batch of one.
    """

    backend: str
    engine: str
    n_samples: int
    n_ops: int
    n_state: int
    lower_seconds: float
    compile_seconds: float
    run_seconds: float
    fallback_reason: str | None = None

    @property
    def samples_per_second(self) -> float:
        if self.run_seconds <= 0.0:
            return float("inf")
        return self.n_samples / self.run_seconds


@dataclass(frozen=True)
class KernelRunResult:
    """Waveforms and final state of one fused kernel run."""

    displacement: np.ndarray
    bridge_voltage: np.ndarray
    limiter_input: np.ndarray
    limiter_output: np.ndarray
    drive_voltage: np.ndarray
    mode_state: list[float]
    info: KernelRunInfo


_CC_CHECKED = False
_CC: str | None = None
_CC_BUILD_ERROR: str | None = None

#: Environment variable overriding compiler discovery (``CC=/bin/false``
#: is the canonical way to force the build to fail and exercise the
#: fallback to the reference loop end-to-end).
CC_ENV = "CC"


def cc_available() -> bool:
    """True when a system C compiler is available (checked once, lazily).

    Honors the ``CC`` environment variable: when set, it names the only
    compiler tried; otherwise ``cc``/``gcc``/``clang`` are searched on
    PATH.  The probe is memoized for the process — a missing compiler
    costs one lookup, not one per lowering attempt.
    """
    global _CC_CHECKED, _CC
    if not _CC_CHECKED:
        override = os.environ.get(CC_ENV)
        if override:
            _CC = shutil.which(override)
        else:
            _CC = next(
                (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
            )
        _CC_CHECKED = True
    return _CC is not None


def reset_compiler_probe() -> None:
    """Forget the memoized compiler probe, build error, and loaded engines.

    For tests that flip the ``CC`` override mid-process; production code
    never needs this.  The on-disk ``.so`` cache is untouched — only the
    in-process memoization resets.
    """
    global _CC_CHECKED, _CC, _CC_BUILD_ERROR
    _CC_CHECKED = False
    _CC = None
    _CC_BUILD_ERROR = None
    from . import kernel_columnar

    kernel_columnar._reset_engine()


def _cc_engine_blocked() -> str | None:
    """Why the compiled C engine must not even be *tried*, else ``None``.

    Distinct from :func:`cc_available` (no compiler at all — a static
    platform fact): these are runtime verdicts.  A memoized build
    failure means the compiler exists but cannot build the kernel
    (probed once per process, never retried); an open ``kernel-cc``
    circuit breaker means the engine failed repeatedly and is
    quarantined until :func:`~repro.engine.resilience.reset_breakers`.
    """
    if _CC_BUILD_ERROR is not None:
        return f"compiler previously failed: {_CC_BUILD_ERROR}"
    breaker = get_breaker("kernel-cc")
    if not breaker.allow():
        return (
            f"quarantined after {breaker.consecutive} consecutive "
            f"failures ({breaker.last_failure_reason})"
        )
    return None


def cc_usable() -> bool:
    """True when the compiled C engine is available *and* trusted.

    ``cc_available() and`` no memoized build failure ``and`` the
    ``kernel-cc`` circuit breaker is closed — the condition under which
    fused runs try the C engine, so a quarantined engine degrades down
    :data:`AUTO_ORDER` instead of being retried forever.
    """
    return cc_available() and _cc_engine_blocked() is None


def _load_cc_engine(
    build: Callable[[], Callable], timer: StageTimer
) -> Callable:
    """Run ``build()`` under the C engine's trust machinery.

    Raises :class:`LoweringError` when there is no compiler, when the
    engine is blocked (a memoized build failure or an open ``kernel-cc``
    breaker), or when ``build()`` fails now; the loop simulators then
    run the reference loop.  The blocked and failed cases count as
    degrades; a failed build also counts against the breaker.
    """
    if not cc_available():
        raise LoweringError("no C compiler available")
    blocked = _cc_engine_blocked()
    if blocked is not None:
        record_degrade(blocked)
        logger.info("C kernel engine skipped (%s); running the reference "
                    "loop", blocked)
        raise LoweringError(f"C kernel engine skipped: {blocked}")
    breaker = get_breaker("kernel-cc")
    try:
        with timer.stage("compile"):
            fn = build()
    except KernelError as err:
        breaker.record_failure(str(err))
        record_degrade(str(err))
        logger.warning(
            "C kernel engine unavailable (%s); running the reference loop",
            err,
        )
        raise LoweringError(f"C kernel engine unavailable: {err}") from err
    breaker.record_success()
    return fn


def resolve_backend(backend: str) -> str:
    """Validate a requested backend and map ``auto`` to ``fused``.

    The engine under ``fused`` is chosen per run by
    :meth:`KernelBatch.run`, following :data:`AUTO_ORDER`.
    """
    if backend not in BACKENDS:
        raise KernelError(
            f"unknown backend {backend!r}; choose one of {BACKENDS}"
        )
    return "fused" if backend == "auto" else backend


# -- global counters ---------------------------------------------------------------


@dataclass(frozen=True)
class KernelInfo:
    """Snapshot of the module-wide kernel counters."""

    cc_available: bool
    runs: dict[str, int]
    total_samples: int
    fallbacks: int
    last_fallback_reason: str | None
    last_backend: str | None
    last_compile_seconds: float
    last_samples_per_second: float
    batch_runs: int = 0
    batch_instances: int = 0
    last_batch_threads: int = 0
    #: Memoized build failure of the C engine — a shape's columnar
    #: megakernel (probed once per process).
    cc_build_error: str | None = None
    #: True while the ``kernel-cc`` circuit breaker quarantines the C engine.
    cc_quarantined: bool = False
    #: Runs that executed below the compiled C engine for a *runtime*
    #: reason (build failure, quarantine) — platform facts like "no
    #: compiler installed" are not degrades.
    degrades: int = 0
    last_degrade_reason: str | None = None
    #: Every ``KernelBatch.run`` counts once in ``batch_runs`` and once
    #: in exactly one of these two: ``batch_columnar_runs`` (the
    #: shape's columnar megakernel) or ``batch_declined`` (no C engine
    #: is trusted, so each instance runs the reference loop and counts
    #: in ``fallbacks``).  A single loop's run is a batch of one, so it
    #: counts here too.
    batch_declined: int = 0
    batch_columnar_runs: int = 0
    last_batch_engine: str | None = None
    #: Per-op profile histogram: op name -> instance-samples executed
    #: (one instance running one op for n samples adds n).
    op_samples: dict[str, int] | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        runs = ", ".join(f"{k}={v}" for k, v in sorted(self.runs.items()))
        return (
            f"KernelInfo(runs=[{runs}], samples={self.total_samples}, "
            f"fallbacks={self.fallbacks}, last={self.last_backend}, "
            f"last_rate={self.last_samples_per_second:,.0f}/s)"
        )


_STATS: dict = {}


def reset_kernel_info() -> None:
    """Zero the module-wide kernel counters."""
    _STATS.clear()
    _STATS.update(
        runs={},
        total_samples=0,
        fallbacks=0,
        last_fallback_reason=None,
        last_backend=None,
        last_compile_seconds=0.0,
        last_samples_per_second=0.0,
        batch_runs=0,
        batch_instances=0,
        last_batch_threads=0,
        degrades=0,
        last_degrade_reason=None,
        batch_declined=0,
        batch_columnar_runs=0,
        last_batch_engine=None,
        op_samples={},
    )


reset_kernel_info()


def kernel_info() -> KernelInfo:
    """Backend usage, compile time, and throughput counters."""
    return KernelInfo(
        cc_available=cc_available(),
        runs=dict(_STATS["runs"]),
        total_samples=_STATS["total_samples"],
        fallbacks=_STATS["fallbacks"],
        last_fallback_reason=_STATS["last_fallback_reason"],
        last_backend=_STATS["last_backend"],
        last_compile_seconds=_STATS["last_compile_seconds"],
        last_samples_per_second=_STATS["last_samples_per_second"],
        batch_runs=_STATS["batch_runs"],
        batch_instances=_STATS["batch_instances"],
        last_batch_threads=_STATS["last_batch_threads"],
        cc_build_error=_CC_BUILD_ERROR,
        cc_quarantined=not get_breaker("kernel-cc").allow(),
        degrades=_STATS["degrades"],
        last_degrade_reason=_STATS["last_degrade_reason"],
        batch_declined=_STATS["batch_declined"],
        batch_columnar_runs=_STATS["batch_columnar_runs"],
        last_batch_engine=_STATS["last_batch_engine"],
        op_samples=dict(_STATS["op_samples"]),
    )


def record_run(
    backend: str, n_samples: int, run_seconds: float, compile_seconds: float = 0.0
) -> None:
    """Account one closed-loop run (kernel backends call this internally)."""
    _STATS["runs"][backend] = _STATS["runs"].get(backend, 0) + 1
    _STATS["total_samples"] += int(n_samples)
    _STATS["last_backend"] = backend
    _STATS["last_compile_seconds"] = float(compile_seconds)
    if run_seconds > 0.0:
        _STATS["last_samples_per_second"] = n_samples / run_seconds


def record_batch(
    n_instances: int, threads: int,
    total_samples: int = 0, run_seconds: float = 0.0,
    engine: str = "solo",
) -> None:
    """Account one :meth:`KernelBatch.run` call.

    ``engine`` is the batch machinery that ran: ``"columnar"`` (counted
    in ``batch_columnar_runs``) or ``"solo"`` — declined because no C
    engine is trusted, so each instance runs alone on the reference
    loop; counted in ``batch_declined``.
    """
    _STATS["batch_runs"] += 1
    _STATS["batch_instances"] += int(n_instances)
    _STATS["last_batch_threads"] = int(threads)
    _STATS["last_batch_engine"] = str(engine)
    if engine == "solo":
        _STATS["batch_declined"] += 1
        logger.info("kernel batch of %d instances declined to the "
                    "reference loop (no trusted C engine)", n_instances)
    else:
        _STATS["batch_columnar_runs"] += 1
    if run_seconds > 0.0 and total_samples:
        _STATS["last_samples_per_second"] = total_samples / run_seconds


#: Op-kind index -> display name (order matches the OP_* constants).
OP_NAMES = (
    "BIAS", "GAIN", "SOS", "RC", "CLIP", "TANH", "DIFF",
    "DEADZONE", "SLEW", "LATCH", "TAP_LIMIN", "TAP_LIMOUT", "TAP_DRIVE",
)

def record_op_profile(kinds: Sequence[int], samples: int) -> None:
    """Add ``samples`` instance-samples to each op's profile counter."""
    hist = _STATS["op_samples"]
    for k in kinds:
        name = OP_NAMES[k]
        hist[name] = hist.get(name, 0) + int(samples)


def record_fallback(reason: str) -> None:
    """Account one fused run that took the reference path instead.

    Its loop did not lower, or no C engine is trusted (loop simulators
    call this).
    """
    _STATS["fallbacks"] += 1
    _STATS["last_fallback_reason"] = str(reason)
    logger.info("fused kernel fallback to reference path: %s", reason)


def record_degrade(reason: str) -> None:
    """Account one run that degraded below the compiled C engine.

    Counted whenever a run wanted AUTO_ORDER[0] (``columnar:cc``) but
    executed further down the order for a *runtime* reason — a failed
    build, an injected compile fault, or a quarantined engine.
    """
    _STATS["degrades"] += 1
    _STATS["last_degrade_reason"] = str(reason)
    logger.info("kernel degraded down AUTO_ORDER: %s", reason)


# -- block lowering ---------------------------------------------------------------


def _defining_class(cls: type, name: str) -> type | None:
    for c in cls.__mro__:
        if name in c.__dict__:
            return c
    return None


def lower_block(block) -> KernelStage:
    """A block's :class:`KernelStage`, with safety checks.

    Refuses (raising :class:`LoweringError`) when the block's class does
    not export ``lower_stage``, when ``step`` was overridden without a
    matching ``lower_stage`` (an unknown subclass whose semantics the
    inherited lowering would silently misrepresent), or when ``step``
    was monkey-patched on the instance.
    """
    cls = type(block)
    if "step" in vars(block):
        raise LoweringError(
            f"{cls.__name__} instance has a patched step(); not lowerable"
        )
    if _defining_class(cls, "lower_stage") is None:
        raise LoweringError(
            f"{cls.__name__} does not export a kernel stage"
        )
    if _defining_class(cls, "step") is not _defining_class(cls, "lower_stage"):
        raise LoweringError(
            f"{cls.__name__} overrides step() without a matching "
            "lower_stage(); refusing to lower"
        )
    return block.lower_stage()


def compose_stages(label: str, stages: Sequence[KernelStage]) -> KernelStage:
    """Concatenate sub-stages into one stage (used by composite blocks).

    The composite's ``sync`` splits the final state back across the
    sub-stages' own ``sync`` hooks.
    """
    stages = list(stages)
    ops = [op for stage in stages for op in stage.ops]

    def sync(final: Sequence[float]) -> None:
        offset = 0
        for stage in stages:
            width = stage.n_state
            if stage.sync is not None:
                stage.sync(final[offset:offset + width])
            offset += width

    return KernelStage(label=label, ops=ops, sync=sync)


# -- the fused kernel --------------------------------------------------------------


class FusedLoopKernel:
    """The whole Fig. 5 loop as one flat stage program.

    Parameters
    ----------
    pre_stages / limiter_stages / buffer_stages:
        Lowered stages of the chain segments up to the limiter input,
        through the limiter, and through the output buffer — the three
        taps a :class:`~repro.feedback.loop.LoopRecord` captures.
    modes:
        One :class:`ModeLowering` per mechanical mode (>= 1); the bridge
        voltage is the coefficient-weighted sum of mode displacements.
    act_r / act_imax / act_fpc:
        Linear Lorentz actuator: coil resistance [Ohm], electromigration
        current limit [A], and force per ampere [N/A].
    include_taps:
        When False the limiter/drive tap ops are omitted — used by
        open-loop (driven) programs that only need the displacement and
        bridge waveforms; batched runs then skip allocating the three
        unused tap output matrices.
    """

    def __init__(
        self,
        pre_stages: Sequence[KernelStage],
        limiter_stages: Sequence[KernelStage],
        buffer_stages: Sequence[KernelStage],
        modes: Sequence[ModeLowering],
        act_r: float,
        act_imax: float,
        act_fpc: float,
        include_taps: bool = True,
    ) -> None:
        if not modes:
            raise KernelError("the kernel needs at least one mechanical mode")
        self.stages = list(pre_stages) + list(limiter_stages) + list(buffer_stages)
        self.modes = list(modes)
        self.act_r = float(act_r)
        self.act_imax = float(act_imax)
        self.act_fpc = float(act_fpc)

        kinds: list[int] = []
        params: list[tuple[float, ...]] = []
        sidx: list[int] = []
        state: list[float] = []
        slices: list[tuple[KernelStage, int, int]] = []

        def append_stage(stage: KernelStage) -> None:
            start = len(state)
            for op in stage.ops:
                kinds.append(op.kind)
                p = tuple(float(x) for x in op.params)
                params.append(p + (0.0,) * (_N_PARAMS - len(p)))
                sidx.append(len(state))
                state.extend(float(s) for s in op.state)
            slices.append((stage, start, len(state)))

        def append_tap(kind: int) -> None:
            kinds.append(kind)
            params.append((0.0,) * _N_PARAMS)
            sidx.append(0)

        for stage in pre_stages:
            append_stage(stage)
        if include_taps:
            append_tap(OP_TAP_LIMIN)
        for stage in limiter_stages:
            append_stage(stage)
        if include_taps:
            append_tap(OP_TAP_LIMOUT)
        for stage in buffer_stages:
            append_stage(stage)
        if include_taps:
            append_tap(OP_TAP_DRIVE)

        self._kinds = kinds
        self._params = params
        self._sidx = sidx
        self._state0 = state
        self._slices = slices

    @property
    def n_ops(self) -> int:
        return len(self._kinds)

    @property
    def n_state(self) -> int:
        return len(self._state0)

    @property
    def has_taps(self) -> bool:
        return any(
            k in (OP_TAP_LIMIN, OP_TAP_LIMOUT, OP_TAP_DRIVE)
            for k in self._kinds
        )

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        n: int,
        noise: np.ndarray,
        backend: str = "fused",
    ) -> KernelRunResult:
        """Execute the program for ``n`` samples.

        ``noise`` is the per-sample bridge-noise waveform (zeros when
        noise is disabled), at least ``n`` samples long.  The one kernel
        backend is ``fused``.  The run is a one-instance
        :class:`KernelBatch`, so it takes the batch's checks and runs on
        the shape's C megakernel; with no trusted compiler it raises
        :class:`LoweringError`, and the caller runs the reference loop.
        """
        if backend != "fused":
            raise KernelError(
                f"kernel backend must be 'fused', got {backend!r}"
            )
        return KernelBatch([self], [n], [noise]).run()[0]

    def _sync_stages(self, final_state: Sequence[float]) -> None:
        for stage, start, end in self._slices:
            if stage.sync is not None:
                stage.sync(final_state[start:end])


# -- batched multi-instance execution ----------------------------------------------
#
# A whole sweep as one call: N independent instances of the same
# program *shape* (op kinds + state layout), each with its own
# parameter/state/noise/actuator block.  Every batch, whatever its
# width (a single loop's run is a batch of one), runs on its shape's
# columnar megakernel (:mod:`~repro.engine.kernel_columnar`), partitioned
# across C pthreads, when a C engine is trusted; otherwise it declines,
# and each instance runs the reference loop.  Either way every instance
# gets the reference loop's bits.

#: Hard ceiling on C-level batch threads (matches the columnar C entry).
MAX_BATCH_THREADS = 64

#: Environment variable capping C-level batch threads: a ceiling on
#: whatever thread count a caller requests.
KERNEL_THREADS_ENV = "REPRO_KERNEL_THREADS"


def kernel_batch_threads(
    requested: int | None = None, n_instances: int | None = None
) -> int:
    """Resolve the C-level thread count for a batched kernel call.

    ``requested`` wins when given; otherwise the CPU count.  The
    ``REPRO_KERNEL_THREADS`` environment variable acts as a *ceiling*
    on either.  The result is clamped to
    ``[1, min(n_instances, MAX_BATCH_THREADS)]``.
    """
    threads = int(requested) if requested is not None else (os.cpu_count() or 1)
    env = os.environ.get(KERNEL_THREADS_ENV, "").strip()
    if env:
        try:
            threads = min(threads, int(env))
        except ValueError:
            logger.warning(
                "ignoring non-integer %s=%r", KERNEL_THREADS_ENV, env
            )
    threads = max(1, threads)
    if n_instances is not None:
        threads = min(threads, max(1, int(n_instances)))
    return min(threads, MAX_BATCH_THREADS)


def batch_signature(kernel: FusedLoopKernel) -> tuple:
    """The program *shape* a batch must share: op kinds, state-index
    layout, mode count and state width.  Kernels with equal signatures
    differ only in per-instance numeric blocks and can run in one
    :class:`KernelBatch`."""
    return (
        tuple(kernel._kinds),
        tuple(kernel._sidx),
        len(kernel.modes),
        kernel.n_state,
    )


class KernelBatch:
    """N same-shape kernel instances executed as one batch.

    Parameters
    ----------
    kernels:
        The per-instance :class:`FusedLoopKernel` programs; all must
        share one :func:`batch_signature` (group heterogeneous sweeps
        by signature first).
    ns:
        Per-instance sample counts (durations may differ; each
        instance computes, and holds result memory for, its own
        samples only).
    noises:
        Per-instance bridge-noise (or drive-force) waveforms, each at
        least ``ns[i]`` samples.

    ``run()`` executes the batch, whatever its width, on its shape's
    compiled columnar megakernel, and every instance is bit-identical to
    its reference-loop run (pinned with ``np.array_equal``).  With no
    trusted C engine it raises :class:`LoweringError` instead, and the
    loop simulators run the reference loop.
    :meth:`FusedLoopKernel.run` is a batch of one.
    """

    def __init__(
        self,
        kernels: Sequence[FusedLoopKernel],
        ns: Sequence[int],
        noises: Sequence[np.ndarray],
    ) -> None:
        kernels = list(kernels)
        if not kernels:
            raise KernelError("a kernel batch needs at least one instance")
        if not (len(kernels) == len(ns) == len(noises)):
            raise KernelError(
                f"mismatched batch lengths: {len(kernels)} kernels, "
                f"{len(ns)} durations, {len(noises)} noise waveforms"
            )
        signature = batch_signature(kernels[0])
        for k in kernels[1:]:
            if batch_signature(k) != signature:
                raise KernelError(
                    "kernel batch mixes program shapes; group instances "
                    "by batch_signature() first"
                )
        self.ns = [int(n) for n in ns]
        self.noises = [np.ascontiguousarray(w, dtype=float) for w in noises]
        for i, (n, w) in enumerate(zip(self.ns, self.noises)):
            if n < 1:
                raise KernelError(f"instance {i}: sample count must be >= 1")
            if len(w) < n:
                raise KernelError(
                    f"instance {i}: noise waveform has {len(w)} samples, "
                    f"needs {n}"
                )
        self.kernels = kernels
        self.signature = signature

    @property
    def n_instances(self) -> int:
        return len(self.kernels)

    def run(self, threads: int | None = None) -> list[KernelRunResult]:
        """Execute all instances; one :class:`KernelRunResult` each, in
        input order.

        Runs the shape's compiled columnar megakernel (built on first
        use); ``threads`` requests its C thread count (resolved by
        :func:`kernel_batch_threads`).  With no trusted C engine the
        batch is counted as declined and raises :class:`LoweringError`
        before any instance runs, which sends its loops down
        :data:`AUTO_ORDER` to the reference loop.
        """
        from . import kernel_columnar

        timer = StageTimer()
        try:
            fn = _load_cc_engine(
                lambda: kernel_columnar.columnar_interpreter(self.signature),
                timer,
            )
        except LoweringError:
            record_batch(self.n_instances, 1)
            raise
        return kernel_columnar.run_columnar_cc(
            self, fn, kernel_batch_threads(threads, self.n_instances), timer,
        )


# -- the C build cache ------------------------------------------------------------
#
# The C engine's shared objects (one megakernel per program shape, see
# :mod:`~repro.engine.kernel_columnar`) are cached on disk keyed by the
# hash of their source and flags; a cache hit makes "compile time" a
# dlopen.


def _cc_cache_dir() -> str:
    return os.path.join(
        tempfile.gettempdir(), f"repro-kernel-cc-{os.getuid()}"
    )


def _cc_compile_so(source: str, flags: Sequence[str], stem: str) -> ctypes.CDLL:
    """Compile a C source to a sha-keyed cached ``.so`` and dlopen it.

    The shared object lands in the per-user cache directory keyed by
    ``sha256(source + flags)`` with an atomic replace, so concurrent
    builders agree and a cache hit makes "compile time" a dlopen.  Each
    build writes its source and output under names private to it, so
    two builders of one source — threads or processes — never share a
    file before that replace.  The columnar megakernels build through it
    (``stem="columnar"``, :mod:`~repro.engine.kernel_columnar`).  Raises
    :class:`KernelError` on build failure.
    """
    digest = hashlib.sha256(
        (source + " ".join(flags) + "-lm").encode()
    ).hexdigest()[:16]
    cache_dir = _cc_cache_dir()
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    so_path = os.path.join(cache_dir, f"{stem}-{digest}.so")
    if not os.path.exists(so_path):
        fd, c_path = tempfile.mkstemp(
            dir=cache_dir, prefix=f"{stem}-{digest}.", suffix=".c"
        )
        tmp_so = f"{c_path[:-2]}.so.tmp"
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            subprocess.run(
                [_CC, *flags, "-o", tmp_so, c_path, "-lm"],
                check=True, capture_output=True, text=True, timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic: concurrent builders agree
        except (subprocess.SubprocessError, OSError) as err:
            detail = getattr(err, "stderr", "") or str(err)
            raise KernelError(
                f"C kernel compilation failed: {detail.strip()}"
            ) from err
        finally:
            for path in (c_path, tmp_so):
                if os.path.exists(path):
                    os.unlink(path)
        logger.info("C kernel engine compiled to %s", so_path)
    return ctypes.CDLL(so_path)
