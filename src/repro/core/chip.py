"""The single-chip biosensor: 4-cantilever array + multiplexed readout.

"An array of four cantilevers is connected to the readout amplifiers by
an analog multiplexer."  The array exists for two reasons the chip model
makes concrete: multiple assays in parallel (different probes per beam)
and *referencing* — blocked beams see every common-mode disturbance
(temperature, nonspecific adsorption, drift) but no specific binding,
so the channel difference isolates the biology.

The chip owns the fabricated cantilevers, their functionalization, the
shared Fig. 4 readout (characterized once), the mux scan schedule, and
the differential post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..biochem.analytes import Analyte
from ..biochem.assay import AssayProtocol
from ..biochem.functionalization import FunctionalizedSurface
from ..circuits.mux import AnalogMultiplexer
from ..circuits.signal import Signal
from ..engine.resilience import poll_fault
from ..errors import AssayError, WatchdogTimeout
from ..fabrication.release import ReleasedCantilever
from ..units import require_positive
from . import presets
from .health import (
    STATUS_FAILED,
    ChannelHealth,
    HealthReport,
    diagnose_trace,
)
from .static_sensor import StaticCantileverSensor

#: CMOS supply rail [V] an open bridge resistor pins a channel against
#: (the readout saturates when one bridge arm floats).
SUPPLY_RAIL = 3.3


@dataclass(frozen=True)
class ChannelConfig:
    """Functionalization plan for one array channel.

    ``analyte = None`` makes the channel a blocked reference beam.
    """

    analyte: Analyte | None
    immobilization_efficiency: float = 0.7
    label: str = ""


@dataclass(frozen=True)
class ArrayAssayResult:
    """Per-channel and differential outputs of an array assay.

    ``health`` classifies every channel (see
    :class:`~repro.core.health.HealthReport`); a failed channel's trace
    is NaN-poisoned, a degraded channel's trace keeps its (symptomatic)
    data.  ``None`` only for results built by old callers.
    """

    times: np.ndarray
    channel_outputs: dict[int, np.ndarray]
    channel_labels: dict[int, str]
    reference_channels: tuple[int, ...]
    health: HealthReport | None = None

    def referenced(self, channel: int) -> np.ndarray:
        """Channel output minus the mean of the reference channels.

        This is the drift-cancelled trace the array architecture buys.
        """
        if channel in self.reference_channels:
            raise AssayError(f"channel {channel} is itself a reference")
        if not self.reference_channels:
            raise AssayError("no reference channels configured")
        reference = np.mean(
            [self.channel_outputs[r] for r in self.reference_channels], axis=0
        )
        return self.channel_outputs[channel] - reference


class BiosensorChip:
    """Four static cantilevers, an analog mux, and one shared readout.

    Parameters
    ----------
    channels:
        Functionalization plan, one entry per channel.  Required — a
        chip without a channel plan has no defined assay.
    cantilever:
        The fabricated beam replicated across the array (one mask, four
        copies — how the real chip is drawn).
    temperature_drift:
        Common-mode output drift rate [V/s] applied to *all* channels
        (what referencing exists to cancel).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        channels: list[ChannelConfig],
        cantilever: ReleasedCantilever | None = None,
        temperature_drift: float = 0.0,
        seed: int = 99,
    ) -> None:
        self.cantilever = (
            cantilever if cantilever is not None else presets.reference_cantilever()
        )
        if channels is None:
            raise AssayError(
                "a chip needs an explicit channel plan (use ChannelConfig; "
                "analyte=None marks a reference beam)"
            )
        if len(channels) != 4:
            raise AssayError(f"the array has exactly 4 channels, got {len(channels)}")
        self.channels = list(channels)
        self.temperature_drift = float(temperature_drift)
        self.seed = seed
        self.mux = AnalogMultiplexer(channel_count=4)

        self.sensors: list[StaticCantileverSensor] = []
        for i, config in enumerate(self.channels):
            if config.analyte is None:
                # reference beam: efficiency 0 surface with any chemistry
                surface = FunctionalizedSurface(
                    analyte=_reference_analyte(),
                    geometry=self.cantilever.geometry,
                    immobilization_efficiency=0.0,
                )
            else:
                surface = FunctionalizedSurface(
                    analyte=config.analyte,
                    geometry=self.cantilever.geometry,
                    immobilization_efficiency=config.immobilization_efficiency,
                )
            self.sensors.append(
                StaticCantileverSensor(
                    surface,
                    bridge=presets.static_bridge(seed=seed + i),
                    seed=seed + 10 * i,
                )
            )

    @classmethod
    def from_spec(cls, spec) -> "BiosensorChip":
        """Build the 4-channel array chip from a :class:`ChipSpec`.

        Each :class:`~repro.config.specs.ChannelSpec` names its analyte
        by registry key (``analyte=None`` marks a blocked reference
        beam).  Deterministic: equal specs build bit-identical chips.
        """
        from ..biochem.analytes import get_analyte
        from ..config.builders import build_cantilever

        channels = [
            ChannelConfig(
                analyte=(
                    get_analyte(ch.analyte) if ch.analyte is not None else None
                ),
                immobilization_efficiency=ch.immobilization_efficiency,
                label=ch.label,
            )
            for ch in spec.channels
        ]
        return cls(
            channels,
            cantilever=build_cantilever(spec.cantilever, spec.process),
            temperature_drift=spec.temperature_drift_v_per_s,
            seed=spec.seed,
        )

    @property
    def reference_channels(self) -> tuple[int, ...]:
        """Indices of the blocked reference beams."""
        return tuple(
            i for i, c in enumerate(self.channels) if c.analyte is None
        )

    def calibrate(self) -> list[float]:
        """Auto-zero every channel; returns residual offsets [V]."""
        return [sensor.calibrate_offset() for sensor in self.sensors]

    def run_array_assay(
        self,
        protocol: AssayProtocol,
        sample_interval: float = 2.0,
        include_noise: bool = True,
        timeout: float | None = None,
        retry=None,
    ) -> ArrayAssayResult:
        """Run the protocol on all four channels through the shared chain.

        The channels always flow through ONE
        :meth:`repro.engine.BatchExecutor.map` call — the batch — which
        runs them one by one, each under the watchdog when ``timeout``
        is set.  Every channel is seeded independently
        (``seed + 100 + i``), so both routes give the same bits.

        One sick channel never kills the assay: a channel whose task
        crashed or overran ``timeout`` (after exhausting ``retry``, a
        :class:`~repro.engine.resilience.RetryPolicy` or int) comes
        back NaN-poisoned and flagged ``failed`` in ``result.health``;
        a channel with a recognized device symptom (railed against the
        supply, frozen flat) keeps its trace and is flagged
        ``degraded``.  The other channels' data is untouched.
        """
        require_positive("sample_interval", sample_interval)
        from ..engine import BatchExecutor

        def run_channel(index: int):
            return self.sensors[index].run_assay(
                protocol,
                sample_interval=sample_interval,
                include_noise=include_noise,
                seed=self.seed + 100 + index,
            )

        channel_indices = range(len(self.sensors))
        executor = BatchExecutor(timeout=timeout, retry=retry)
        outcomes = executor.map(run_channel, channel_indices)

        times = next(
            (o.value.times for o in outcomes if o.ok), None
        )
        if times is None:
            # every channel failed: synthesize the protocol's sample grid
            # so the NaN traces still have the right shape
            end = protocol.step_boundaries()[-1]
            n = max(2, int(round(end / sample_interval)) + 1)
            times = np.linspace(0.0, end, n)

        outputs: dict[int, np.ndarray] = {}
        labels: dict[int, str] = {}
        verdicts: list[ChannelHealth] = []
        for outcome in outcomes:
            i = outcome.index
            labels[i] = self.channels[i].label or f"ch{i}"
            if not outcome.ok:
                outputs[i] = np.full(len(times), np.nan)
                reason = (
                    "timeout"
                    if isinstance(outcome.error, WatchdogTimeout)
                    else "task-error"
                )
                verdicts.append(ChannelHealth(
                    channel=i, status=STATUS_FAILED, reason=reason,
                    detail=str(outcome.error), label=labels[i],
                    retries=outcome.retries,
                ))
                continue
            result = outcome.value
            drifted = result.output_voltage + self.temperature_drift * result.times
            drifted = self._apply_device_fault(drifted)
            outputs[i] = drifted
            verdicts.append(diagnose_trace(
                drifted, channel=i, label=labels[i], rail=SUPPLY_RAIL,
                expect_variation=include_noise, retries=outcome.retries,
            ))
        return ArrayAssayResult(
            times=times,
            channel_outputs=outputs,
            channel_labels=labels,
            reference_channels=self.reference_channels,
            health=HealthReport(channels=tuple(verdicts)),
        )

    @staticmethod
    def _apply_device_fault(trace: np.ndarray) -> np.ndarray:
        """Inject armed array device faults as their electrical symptoms.

        Both sites are polled once per channel, in channel order, so a
        :class:`~repro.engine.resilience.FaultSpec` with ``at=k``
        targets channel ``k``.  An open bridge resistor floats one
        bridge arm, saturating the readout against the supply (the
        whole trace pins at :data:`SUPPLY_RAIL`); a stuck/unreleased
        beam never transduces, freezing the channel at its first
        reading.  The diagnostics must recognize the *symptom* — the
        injection carries no out-of-band marker.
        """
        if poll_fault("chip.bridge-open") is not None:
            return np.full_like(trace, SUPPLY_RAIL)
        if poll_fault("chip.stuck") is not None:
            return np.full_like(trace, trace[0] if len(trace) else 0.0)
        return trace

    def scan_bridges(
        self, dwell_time: float = 5e-3, duration: float = 0.05
    ) -> tuple[Signal, list]:
        """Mux scan of the four raw bridge outputs (full-rate, FIG4 bench).

        Each channel contributes its static mismatch offset — the scan
        shows the settling transients and per-channel levels the shared
        chain must handle.
        """
        rate = presets.CIRCUIT_SAMPLE_RATE
        signals = [
            Signal.constant(sensor.bridge_voltage(0.0), duration, rate)
            for sensor in self.sensors
        ]
        return self.mux.scan(signals, dwell_time)


def _reference_analyte() -> Analyte:
    """Inert placeholder chemistry for blocked reference beams."""
    from ..biochem.analytes import get_analyte

    return get_analyte("igg")
