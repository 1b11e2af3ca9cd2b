"""Multi-mode loop dynamics: which mode does the oscillator pick?

The real cantilever has *many* modes inside the electrical chain's
bandwidth, and a self-oscillating loop locks onto whichever satisfies
Barkhausen with the most margin — a classic design trap: a loop meant
to run on mode 1 can wake up on mode 2 if the filters leave it more
gain.  This module closes the Fig. 5 loop around several modes at once:

* each mode advances with its own exact-ZOH propagator (the modes are
  orthogonal, so the mechanics stay block-diagonal);
* the bridge output sums the modes' contributions with their own
  displacement-to-stress gains (mode curvature at the bridge);
* the Lorentz tip force drives every mode (tip-normalized shapes all
  see the tip force with weight 1).

EXT10 demonstrates mode *selection by filtering*: identical hardware,
two filter configurations, two different winning modes.
"""

from __future__ import annotations

import numpy as np

from ..actuation.lorentz import LorentzActuator
from ..circuits.signal import Signal
from ..engine.kernel import (
    FusedLoopKernel,
    KernelBatch,
    batch_signature,
    lower_block,
    record_fallback,
    resolve_backend,
)
from ..engine.resilience import poll_fault
from ..errors import LoweringError, OscillationError
from ..mechanics.dynamics import ModalResonator
from ..transduction.placement import CLAMPED_EDGE
from ..transduction.wheatstone import WheatstoneBridge
from ..units import require_positive
from .loop import (
    ResonantFeedbackLoop,
    _linear_actuator_constants,
    displacement_to_stress_gain,
    lower_resonator_mode,
)


class MultiModeLoop:
    """The Fig. 5 loop closed around several cantilever modes at once.

    Parameters
    ----------
    resonators:
        One :class:`ModalResonator` per mode, all sharing the *same*
        timestep (enforced).
    mode_gains:
        Bridge stress-per-displacement gain of each mode [Pa/m] at the
        clamped-edge placement.
    loop:
        The electrical chain (a :class:`ResonantFeedbackLoop` whose
        resonator field is ignored except for the timestep reference).
    """

    def __init__(
        self,
        resonators: list[ModalResonator],
        mode_gains: list[float],
        loop: ResonantFeedbackLoop,
    ) -> None:
        if not resonators or len(resonators) != len(mode_gains):
            raise OscillationError(
                "need one bridge gain per modal resonator"
            )
        h0 = resonators[0].timestep
        for r in resonators[1:]:
            if abs(r.timestep - h0) > 1e-18:
                raise OscillationError("all modes must share one timestep")
        self.resonators = resonators
        self.mode_gains = [require_positive("mode_gain", abs(g)) for g in mode_gains]
        self.loop = loop
        #: :class:`~repro.engine.kernel.KernelRunInfo` of the last
        #: :meth:`run` (``None`` when the reference path executed).
        self.last_kernel_info = None

    @classmethod
    def for_geometry(
        cls,
        geometry,
        quality_factors: list[float],
        loop: ResonantFeedbackLoop,
        steps_per_cycle_of_highest: int = 40,
    ) -> "MultiModeLoop":
        """Build the first N modes of a beam (N = len(quality_factors))."""
        from ..mechanics.modal import analyze_modes

        count = len(quality_factors)
        modes = analyze_modes(geometry, count)
        # one common timestep resolving the highest mode
        timestep = 1.0 / (modes[-1].frequency * steps_per_cycle_of_highest)
        resonators = [
            ModalResonator(
                effective_mass=m.effective_mass,
                effective_stiffness=m.effective_stiffness,
                quality_factor=q,
                timestep=timestep,
            )
            for m, q in zip(modes, quality_factors)
        ]
        gains = [
            displacement_to_stress_gain(geometry, CLAMPED_EDGE, mode=m.number)
            for m in modes
        ]
        return cls(resonators, gains, loop)

    def run(
        self,
        duration: float,
        initial_kick: float = 1e-12,
        backend: str = "auto",
    ) -> Signal:
        """Close the loop; returns the bridge-output waveform.

        Every mode starts with the same tiny kick (broadband excitation,
        like thermal motion); the filters decide who wins.  ``backend``
        selects the execution path exactly as in
        :meth:`ResonantFeedbackLoop.run`.
        """
        resolved = resolve_backend(backend)
        n, sample_rate, bridge_sens = self._prepare_run(duration, initial_kick)
        loop = self.loop

        self.last_kernel_info = None
        if resolved != "reference":
            try:
                kernel = self._lower_kernel(bridge_sens)
            except LoweringError as err:
                record_fallback(str(err))
                resolved = "reference"
            else:
                result = kernel.run(n, np.zeros(n), backend=resolved)
                self._absorb_kernel_result(result)
                return Signal(result.bridge_voltage, sample_rate)

        act = _linear_actuator_constants(loop.actuator)
        out = np.empty(n)
        for i in range(n):
            v_bridge = sum(
                bridge_sens * g * r.state.displacement
                for g, r in zip(self.mode_gains, self.resonators)
            )
            v = loop.dda.step(v_bridge)
            for hp in loop.highpasses:
                v = hp.step(v)
            v = loop.phase_lead.step(v)
            v = loop.vga.step(v)
            v = loop.limiter.step(v)
            v_drive = loop.buffer.step(v)
            if act is not None:
                cur = v_drive / act[0]
                if cur > act[1]:
                    cur = act[1]
                elif cur < -act[1]:
                    cur = -act[1]
                force = act[2] * cur
            else:
                force = float(loop.actuator.tip_force_from_voltage(v_drive))
            for r in self.resonators:
                r.step(force)
            out[i] = v_bridge

        return Signal(out, sample_rate)

    def _prepare_run(
        self, duration: float, initial_kick: float
    ) -> tuple[int, float, float]:
        """Deterministic run prelude (shared by solo and batched paths):
        validate, prepare+reset the chain, kick every mode; returns
        ``(n, sample_rate, bridge_sens)``."""
        require_positive("duration", duration)
        h = self.resonators[0].timestep
        sample_rate = 1.0 / h
        n = max(2, int(round(duration * sample_rate)))

        loop = self.loop
        for hp in loop.highpasses:
            hp.reset()
            hp.prepare(sample_rate)
        loop.phase_lead.reset()
        loop.phase_lead.prepare(sample_rate)
        loop.dda.reset()
        loop.dda.prepare(sample_rate)
        loop.buffer.reset()
        loop.buffer.prepare(sample_rate)

        for r in self.resonators:
            r.reset(displacement=initial_kick)

        return n, sample_rate, abs(loop.bridge.sensitivity())

    def _absorb_kernel_result(self, result) -> None:
        for m, r in enumerate(self.resonators):
            r.state.displacement = result.mode_state[2 * m]
            r.state.velocity = result.mode_state[2 * m + 1]
        self.last_kernel_info = result.info

    def _lower_kernel(self, bridge_sens: float) -> FusedLoopKernel:
        """Lower the shared chain + every mode; raises LoweringError."""
        if poll_fault("kernel.lower") is not None:
            raise LoweringError("injected fault at kernel.lower")
        loop = self.loop
        act = _linear_actuator_constants(loop.actuator)
        if act is None:
            raise LoweringError(
                f"{type(loop.actuator).__name__} is not a stock linear "
                "LorentzActuator; not lowerable"
            )
        pre = [
            lower_block(b)
            for b in [loop.dda, *loop.highpasses, loop.phase_lead, loop.vga]
        ]
        modes = [
            lower_resonator_mode(r, bridge_sens * g)
            for g, r in zip(self.mode_gains, self.resonators)
        ]
        return FusedLoopKernel(
            pre_stages=pre,
            limiter_stages=[lower_block(loop.limiter)],
            buffer_stages=[lower_block(loop.buffer)],
            modes=modes,
            act_r=act[0],
            act_imax=act[1],
            act_fpc=act[2],
        )

    def modal_loop_gains(self, sample_rate: float) -> list[float]:
        """Small-signal |loop gain| at each mode's resonance.

        The startup race in numbers: the mode with the largest value
        above 1 wins (grows fastest).
        """
        elecs = self.loop.electrical_gain(
            [r.natural_frequency for r in self.resonators], sample_rate
        )
        gains = []
        for g, r, elec in zip(self.mode_gains, self.resonators, elecs):
            mech = r.transfer_function(np.asarray([r.natural_frequency]))[0]
            total = (
                abs(self.loop.bridge.sensitivity())
                * g
                * abs(elec)
                * self.loop.actuator.force_per_volt
                * abs(mech)
            )
            gains.append(float(total))
        return gains


def run_multimode_batch(
    loops,
    duration,
    initial_kick: float = 1e-12,
    backend: str = "auto",
    threads: int | None = None,
) -> list[Signal]:
    """Run N :class:`MultiModeLoop` instances as batched kernel calls.

    The multi-mode analogue of :func:`repro.feedback.loop.run_batch`:
    instances sharing one program shape run in one compiled call; each
    returned bridge waveform is bit-identical to the instance's solo
    fused run; non-lowerable instances fall back per-instance to the
    reference path without poisoning the batch.  ``duration`` may be a
    float or a per-instance sequence.
    """
    loops = list(loops)
    if np.isscalar(duration):
        durations = [float(duration)] * len(loops)
    else:
        durations = [float(d) for d in duration]
        if len(durations) != len(loops):
            raise ValueError(
                f"{len(loops)} loops but {len(durations)} durations"
            )
    resolved = resolve_backend(backend)
    signals: list[Signal | None] = [None] * len(loops)
    if resolved != "fused":
        for i, mm in enumerate(loops):
            signals[i] = mm.run(durations[i], initial_kick, backend=backend)
        return signals

    groups: dict[tuple, list[int]] = {}
    kernels = [None] * len(loops)
    ns = [0] * len(loops)
    rates = [0.0] * len(loops)
    for i, mm in enumerate(loops):
        n, sample_rate, bridge_sens = mm._prepare_run(durations[i], initial_kick)
        mm.last_kernel_info = None
        try:
            kernels[i] = mm._lower_kernel(bridge_sens)
        except LoweringError as err:
            record_fallback(str(err))
            signals[i] = mm.run(durations[i], initial_kick,
                                backend="reference")
        else:
            ns[i], rates[i] = n, sample_rate
            groups.setdefault(batch_signature(kernels[i]), []).append(i)

    for indices in groups.values():
        batch = KernelBatch(
            [kernels[i] for i in indices],
            [ns[i] for i in indices],
            [np.zeros(ns[i]) for i in indices],
        )
        for i, result in zip(indices, batch.run(threads=threads)):
            loops[i]._absorb_kernel_result(result)
            signals[i] = Signal(result.bridge_voltage, rates[i])
    return signals
