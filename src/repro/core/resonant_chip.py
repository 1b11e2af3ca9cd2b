"""Dual-oscillator resonant chip: sensing + reference beams on one die.

The resonant analogue of the static array's referencing.  Two
cantilever oscillators share the die (hence the temperature) and the
Fig. 5 loop architecture; one is functionalized, the other blocked.
The digital backend reads both counters and reports the frequency
ratio, cancelling the common -31 ppm/K temperature coefficient while
binding moves only the sensing beam.

The chip composes two full :class:`ResonantCantileverSensor` instances —
their loops really run (`measure_frequencies`), and assay-length records
use the same calibrated tracking model, with a shared temperature
profile applied to both beams through the common TCF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..biochem.assay import AssayProtocol
from ..biochem.functionalization import FunctionalizedSurface
from ..engine.resilience import poll_fault
from ..environment.temperature import frequency_temperature_coefficient
from ..errors import OscillationError
from ..materials.liquids import Liquid
from ..units import require_positive
from .health import (
    STATUS_DEGRADED,
    ChannelHealth,
    HealthReport,
    diagnose_loop_record,
)
from .resonant_sensor import ResonantCantileverSensor


@dataclass(frozen=True)
class CompensatedAssayResult:
    """Raw and ratio-compensated traces of a dual-oscillator assay."""

    times: np.ndarray
    temperature: np.ndarray
    sensing_frequency: np.ndarray
    reference_frequency: np.ndarray
    ratio: np.ndarray
    true_binding_ratio: np.ndarray
    gate_time: float

    @property
    def raw_shift(self) -> float:
        """Start-to-end sensing-beam frequency change [Hz] (drift + binding)."""
        return float(self.sensing_frequency[-1] - self.sensing_frequency[0])

    @property
    def compensated_shift_fraction(self) -> float:
        """Start-to-end fractional change of the ratio readout."""
        return float(self.ratio[-1] / self.ratio[0] - 1.0)


class ResonantArrayChip:
    """Sensing + blocked-reference resonant cantilevers on one die.

    Parameters
    ----------
    surface:
        Functionalized surface of the sensing beam; the reference beam
        reuses its geometry with a blocked (efficiency-0) coating.
    liquid:
        Shared operating liquid.
    reference_detune:
        Drawn-length detune of the reference beam so the two oscillators
        never injection-lock; its frequency sits this fraction higher.
    tcf_mismatch:
        Residual TCF difference between the beams [1/K] (across-die
        process gradient); the compensation floor.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        surface: FunctionalizedSurface,
        liquid: Liquid,
        reference_detune: float = 0.02,
        tcf_mismatch: float = 1e-7,
        seed: int = 777,
    ) -> None:
        require_positive("reference_detune", reference_detune)
        self.surface = surface
        self.liquid = liquid
        self.tcf = frequency_temperature_coefficient(surface.geometry)
        self.tcf_mismatch = float(tcf_mismatch)

        self.sensing = ResonantCantileverSensor(surface, liquid, seed=seed)
        reference_geometry = surface.geometry.scaled(
            length_factor=1.0 / math.sqrt(1.0 + reference_detune)
        )
        blocked = FunctionalizedSurface(
            analyte=surface.analyte,
            geometry=reference_geometry,
            immobilization_efficiency=0.0,
        )
        self.reference = ResonantCantileverSensor(blocked, liquid, seed=seed + 1)
        #: :class:`~repro.core.health.HealthReport` of the last
        #: :meth:`measure_frequencies` call (channel 0 = sensing,
        #: channel 1 = reference); ``None`` before the first call.
        self.last_health: HealthReport | None = None

    # -- live measurement ----------------------------------------------------

    def measure_frequencies(
        self, gate_time: float = 0.05, gates: int = 3
    ) -> tuple[float, float]:
        """Run both loops and count both beams: (f_sensing, f_reference).

        The sensing and reference loops run as ONE batched kernel call
        (see :func:`repro.feedback.run_batch`) — bit-identical to a pair
        of :meth:`ResonantCantileverSensor.measure_frequency` runs,
        which the tests pin.

        A beam that fails to oscillate (gain starvation, heavy damping,
        an injected ``loop.no-startup`` fault) or returns a damaged
        record does not raise: its frequency comes back NaN and the
        verdict lands in :attr:`last_health` — the other beam's reading
        stays valid, exactly like a yield-limited real array.
        """
        from ..feedback.loop import run_batch

        duration = ResonantCantileverSensor.measurement_duration(
            gate_time, gates
        )
        loops = [self.sensing.build_loop(), self.reference.build_loop()]
        for loop in loops:
            # polled in channel order (0 = sensing, 1 = reference), so
            # a FaultSpec with at=k starves channel k's loop gain —
            # the physically honest no-startup symptom: Barkhausen
            # unsatisfied, amplitude never grows past noise
            if poll_fault("loop.no-startup") is not None:
                loop.limiter.small_signal_gain = 1e-6
        rec_s, rec_r = run_batch(
            loops, duration, backend=self.sensing.loop_backend
        )
        f_s, h_s = self._count_channel(
            self.sensing, rec_s, gate_time, 0, "sensing"
        )
        f_r, h_r = self._count_channel(
            self.reference, rec_r, gate_time, 1, "reference"
        )
        self.last_health = HealthReport(channels=(h_s, h_r))
        return f_s, f_r

    @staticmethod
    def _count_channel(
        sensor: ResonantCantileverSensor,
        record,
        gate_time: float,
        channel: int,
        label: str,
    ) -> tuple[float, ChannelHealth]:
        """Count one beam's record, degrading instead of raising."""
        verdict = diagnose_loop_record(record, channel=channel, label=label)
        if not verdict.ok:
            return float("nan"), verdict
        try:
            frequency, _ = sensor.count_record(record, gate_time)
        except OscillationError as err:
            return float("nan"), ChannelHealth(
                channel=channel, status=STATUS_DEGRADED,
                reason="no-oscillation", detail=str(err), label=label,
            )
        return frequency, verdict

    # -- compensated assay -----------------------------------------------------

    def run_compensated_assay(
        self,
        protocol: AssayProtocol,
        temperature_profile,
        gate_time: float = 10.0,
        include_noise: bool = False,
    ) -> CompensatedAssayResult:
        """Track an assay under a wandering cell temperature.

        Parameters
        ----------
        temperature_profile:
            Callable ``T(t) -> delta_temperature`` [K] relative to the
            calibration point; applied to *both* beams (common mode) with
            the sensing beam using ``tcf`` and the reference beam
            ``tcf + tcf_mismatch``.
        """
        sensing_result = self.sensing.run_tracking_assay(
            protocol, gate_time=gate_time, include_noise=include_noise
        )
        times = sensing_result.times
        delta_t = np.asarray([temperature_profile(t) for t in times], dtype=float)

        f_sense = sensing_result.measured_frequency * (1.0 + self.tcf * delta_t)
        f_ref0 = self.reference.frequency_for_added_mass(0.0)
        f_ref = f_ref0 * (1.0 + (self.tcf + self.tcf_mismatch) * delta_t)
        if include_noise:
            rng = np.random.default_rng(99)
            f_ref = np.round(
                (f_ref + rng.normal(0.0, 0.05 / gate_time, len(f_ref)))
                * gate_time
            ) / gate_time

        ratio = f_sense / f_ref
        true_binding = (
            sensing_result.true_frequency
            / sensing_result.true_frequency[0]
        )
        return CompensatedAssayResult(
            times=times,
            temperature=delta_t,
            sensing_frequency=f_sense,
            reference_frequency=f_ref,
            ratio=ratio,
            true_binding_ratio=true_binding,
            gate_time=gate_time,
        )
