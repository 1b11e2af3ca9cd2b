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
  cached on disk) — ~50-100x the reference path; when no compiler is
  trusted it runs each instance on a specialized straight-line Python
  inner loop generated from the program (no attribute lookups, no
  method dispatch, literal coefficients) — still several times the
  reference path.

Equivalence is the contract, and it is one contract for every route:
each primitive replicates the reference ``step()`` arithmetic
operation-for-operation, so on either engine and at any batch width
the fused waveforms match the per-sample loop bit-for-bit (pinned by
the golden test suites, ``make kernel-check`` and ``make
vector-check``).  Blocks that cannot lower — unknown user subclasses,
instance-patched ``step`` methods, amplifiers with per-sample noise —
raise :class:`~repro.errors.LoweringError`; the loop simulators catch
it and fall back to the reference path with a logged reason, recorded
by :func:`kernel_info`.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
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

#: The engines under the ``fused`` backend (``auto`` resolves to it), in
#: the order :meth:`KernelBatch.run` tries them for a batch of any width,
#: a single loop's run included; pinned by regression tests.  First the
#: program shape's columnar C megakernel
#: (:mod:`~repro.engine.kernel_columnar`) when a compiler exists and is
#: trusted (:func:`cc_usable`), else generated straight-line Python, one
#: instance at a time.  Both are bit-identical to the reference loop.
AUTO_ORDER = ("columnar:cc", "fused:codegen")


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

    ``engine`` names the machinery under the backend:
    ``"cc-columnar"`` (its program shape's columnar C megakernel, which
    runs a single loop as a batch of one) or ``"codegen"`` (generated
    Python source).
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
#: fallback chain end-to-end).
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
) -> Callable | None:
    """Run ``build()`` under the C engine's trust machinery.

    Returns ``None`` when there is no compiler, when the engine is
    blocked (a memoized build failure or an open ``kernel-cc`` breaker),
    or when ``build()`` fails now; the generated-Python engine then
    runs instead.  The blocked and failed cases count as degrades; a
    failed build also counts against the breaker.
    """
    if not cc_available():
        return None
    blocked = _cc_engine_blocked()
    if blocked is not None:
        record_degrade(blocked)
        logger.info("C kernel engine skipped (%s); using generated Python",
                    blocked)
        return None
    breaker = get_breaker("kernel-cc")
    try:
        with timer.stage("compile"):
            fn = build()
    except KernelError as err:
        breaker.record_failure(str(err))
        record_degrade(str(err))
        logger.warning(
            "C kernel engine unavailable (%s); using generated Python", err
        )
        return None
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
    #: shape's columnar megakernel) or ``batch_declined`` (per-instance
    #: generated-Python runs, because no C engine is trusted).  A single
    #: loop's run is a batch of one, so it counts here too.
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
    in ``batch_columnar_runs``) or ``"solo"`` — each instance run alone
    on the generated-Python engine because no C engine is trusted,
    counted in ``batch_declined``.
    """
    _STATS["batch_runs"] += 1
    _STATS["batch_instances"] += int(n_instances)
    _STATS["last_batch_threads"] = int(threads)
    _STATS["last_batch_engine"] = str(engine)
    if engine == "solo":
        _STATS["batch_declined"] += 1
        logger.info("kernel batch of %d instances ran on generated "
                    "Python (no trusted C engine)", n_instances)
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
    """Account one lowering failure (loop simulators call this)."""
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
        self._fused_fn = None

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
        :class:`KernelBatch`, so it takes the batch's checks and its
        engine follows :data:`AUTO_ORDER`: the shape's C megakernel when
        the compiler is trusted, else generated Python.
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

    # -- generated-Python backend -------------------------------------------------

    def _run_codegen(self, n: int, noise: np.ndarray) -> KernelRunResult:
        """One run on the generated-Python engine (``engine="codegen"``)."""
        timer = StageTimer()
        state = list(self._state0)
        mode_state = [c for m in self.modes for c in (m.x0, m.v0)]
        with timer.stage("compile"):
            fn = self._fused_function()
        out = _allocate_lists(n)
        with timer.stage("run"):
            fn(n, state, mode_state, noise.tolist(), *out)
        self._sync_stages(state)
        info = KernelRunInfo(
            backend="fused",
            engine="codegen",
            n_samples=n,
            n_ops=self.n_ops,
            n_state=self.n_state,
            lower_seconds=0.0,
            compile_seconds=timer.seconds("compile"),
            run_seconds=timer.seconds("run"),
        )
        record_op_profile(self._kinds, n)
        record_run("fused", n, timer.seconds("run"), timer.seconds("compile"))
        arrays = [np.asarray(o, dtype=float) for o in out]
        return KernelRunResult(
            displacement=arrays[0],
            bridge_voltage=arrays[1],
            limiter_input=arrays[2],
            limiter_output=arrays[3],
            drive_voltage=arrays[4],
            mode_state=mode_state,
            info=info,
        )

    def _fused_function(self):
        if self._fused_fn is None:
            source = _generate_source(
                self._kinds, self._params, self._sidx,
                len(self._state0), self.modes,
                self.act_r, self.act_imax, self.act_fpc,
            )
            self._fused_fn = _compile_source(source)
        return self._fused_fn


def _allocate_lists(n: int):
    return tuple([0.0] * n for _ in range(5))


# -- batched multi-instance execution ----------------------------------------------
#
# A whole sweep as one call: N independent instances of the same
# program *shape* (op kinds + state layout), each with its own
# parameter/state/noise/actuator block.  Every batch, whatever its
# width (a single loop's run is a batch of one), runs on its shape's
# columnar megakernel (:mod:`~repro.engine.kernel_columnar`), partitioned
# across C pthreads, when a C engine is trusted; otherwise each instance
# runs on the generated-Python engine.  Both are bit-identical to the
# reference loop.

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
    compiled columnar megakernel when a C engine is trusted, and each
    instance on the generated-Python engine otherwise; either way every
    instance is bit-identical to its reference-loop run (pinned with
    ``np.array_equal``).  :meth:`FusedLoopKernel.run` is a batch of one.
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

    @property
    def n_max(self) -> int:
        return max(self.ns)

    def run(self, threads: int | None = None) -> list[KernelRunResult]:
        """Execute all instances; one :class:`KernelRunResult` each, in
        input order.

        Follows :data:`AUTO_ORDER`: the shape's compiled columnar
        megakernel (built on first use) when a C engine is trusted,
        else each instance on the generated-Python engine.
        ``threads`` requests the megakernel's C thread count
        (resolved by :func:`kernel_batch_threads`).
        """
        from . import kernel_columnar

        timer = StageTimer()
        fn = _load_cc_engine(
            lambda: kernel_columnar.columnar_interpreter(self.signature),
            timer,
        )
        if fn is not None:
            return kernel_columnar.run_columnar_cc(
                self, fn, kernel_batch_threads(threads, self.n_instances),
                timer,
            )
        results = [
            kernel._run_codegen(n, noise)
            for kernel, n, noise in zip(self.kernels, self.ns, self.noises)
        ]
        record_batch(self.n_instances, 1)
        return results


# -- code generation ---------------------------------------------------------------

_SOURCE_CACHE: dict[str, Callable] = {}
_SOURCE_CACHE_MAX = 256


def _lit(x: float) -> str:
    """An exact round-trip literal for a float, parenthesized if signed."""
    r = repr(float(x))
    return f"({r})" if r.startswith("-") else r


def _generate_source(kinds, params, sidx, n_state, modes, act_r, act_imax, act_fpc):
    """Specialized straight-line inner loop for one stage program.

    Coefficients are embedded as exact literals; state lives in local
    variables; the only per-sample indexing is the five output writes
    and the noise read.
    """
    lines = [
        "def _fused(n, state, mode_state, noise, out_disp, out_bridge, "
        "out_limin, out_limout, out_drive):",
        "    _tanh = tanh",
    ]
    for s in range(n_state):
        lines.append(f"    s{s} = state[{s}]")
    for m in range(len(modes)):
        lines.append(f"    mx{m} = mode_state[{2 * m}]")
        lines.append(f"    mv{m} = mode_state[{2 * m + 1}]")
    lines.append("    i = 0")
    lines.append("    while i < n:")

    # bridge: coefficient-weighted mode sum plus the noise sample
    if len(modes) == 1:
        lines.append(f"        v = {_lit(modes[0].coef)}*mx0 + noise[i]")
    else:
        lines.append(f"        v = {_lit(modes[0].coef)}*mx0")
        for m in range(1, len(modes)):
            lines.append(f"        v = v + {_lit(modes[m].coef)}*mx{m}")
        lines.append("        v = v + noise[i]")
    lines.append("        out_bridge[i] = v")

    for j, kind in enumerate(kinds):
        p = params[j]
        s = sidx[j]
        if kind == OP_BIAS:
            lines.append(f"        v = v + {_lit(p[0])}")
        elif kind == OP_GAIN:
            lines.append(f"        v = v*{_lit(p[0])}")
        elif kind == OP_SOS:
            lines.append(f"        y = {_lit(p[0])}*v + s{s}")
            lines.append(
                f"        s{s} = {_lit(p[1])}*v - {_lit(p[3])}*y + s{s + 1}"
            )
            lines.append(f"        s{s + 1} = {_lit(p[2])}*v - {_lit(p[4])}*y")
            lines.append("        v = y")
        elif kind == OP_RC:
            lines.append(f"        s{s} = s{s} + {_lit(p[0])}*(v - s{s})")
            lines.append(f"        v = s{s}")
        elif kind == OP_CLIP:
            lines.append(f"        if v < {_lit(p[0])}: v = {_lit(p[0])}")
            lines.append(f"        elif v > {_lit(p[1])}: v = {_lit(p[1])}")
        elif kind == OP_TANH:
            lines.append(
                f"        v = {_lit(p[1])}*_tanh({_lit(p[0])}*v/{_lit(p[1])})"
            )
        elif kind == OP_DIFF:
            lines.append(f"        y = (v - s{s})*{_lit(p[0])}")
            lines.append(f"        s{s} = v")
            lines.append("        v = y")
        elif kind == OP_DEADZONE:
            lines.append(f"        if v <= {_lit(p[0])} and v >= {_lit(p[1])}:")
            lines.append("            v = 0.0")
            lines.append(f"        elif v > 0.0: v = v - {_lit(p[0])}")
            lines.append(f"        else: v = v - {_lit(p[1])}")
        elif kind == OP_SLEW:
            lines.append(f"        y = v - s{s}")
            lines.append(f"        if y > {_lit(p[0])}: v = s{s} + {_lit(p[0])}")
            lines.append(
                f"        elif y < {_lit(p[1])}: v = s{s} + {_lit(p[1])}"
            )
            lines.append(f"        s{s} = v")
        elif kind == OP_LATCH:
            lines.append(f"        s{s} = v")
        elif kind == OP_TAP_LIMIN:
            lines.append("        out_limin[i] = v")
        elif kind == OP_TAP_LIMOUT:
            lines.append("        out_limout[i] = v")
        elif kind == OP_TAP_DRIVE:
            lines.append("        out_drive[i] = v")
        else:  # pragma: no cover - defensive
            raise KernelError(f"unknown op kind {kind}")

    # actuator: current limit, then force per ampere
    lines.append(f"        cur = v/{_lit(act_r)}")
    lines.append(f"        if cur > {_lit(act_imax)}: cur = {_lit(act_imax)}")
    lines.append(
        f"        elif cur < {_lit(-act_imax)}: cur = {_lit(-act_imax)}"
    )
    lines.append(f"        f = {_lit(act_fpc)}*cur")

    # exact-ZOH mode propagation
    for m, mode in enumerate(modes):
        lines.append(f"        x0 = mx{m}")
        lines.append(f"        v0 = mv{m}")
        lines.append(
            f"        mx{m} = {_lit(mode.a11)}*x0 + {_lit(mode.a12)}*v0 "
            f"+ {_lit(mode.b1)}*f"
        )
        lines.append(
            f"        mv{m} = {_lit(mode.a21)}*x0 + {_lit(mode.a22)}*v0 "
            f"+ {_lit(mode.b2)}*f"
        )
    lines.append("        out_disp[i] = mx0")
    lines.append("        i += 1")

    for s in range(n_state):
        lines.append(f"    state[{s}] = s{s}")
    for m in range(len(modes)):
        lines.append(f"    mode_state[{2 * m}] = mx{m}")
        lines.append(f"    mode_state[{2 * m + 1}] = mv{m}")
    return "\n".join(lines) + "\n"


def _compile_source(source: str) -> Callable:
    fn = _SOURCE_CACHE.get(source)
    if fn is None:
        # repr(float("inf")) in _lit() emits the bare names inf/nan
        namespace = {"tanh": math.tanh, "inf": math.inf, "nan": math.nan}
        exec(compile(source, "<repro.engine.kernel generated>", "exec"), namespace)
        fn = namespace["_fused"]
        if len(_SOURCE_CACHE) >= _SOURCE_CACHE_MAX:
            _SOURCE_CACHE.pop(next(iter(_SOURCE_CACHE)))
        _SOURCE_CACHE[source] = fn
    return fn


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
