"""Dual-oscillator resonant chip."""

import math

import numpy as np
import pytest

from repro.biochem import AssayProtocol, FunctionalizedSurface, get_analyte
from repro.core import ResonantArrayChip
from repro.units import nM


@pytest.fixture(scope="module")
def chip(geometry, water):
    surface = FunctionalizedSurface(get_analyte("streptavidin"), geometry)
    return ResonantArrayChip(surface, water)


class TestConstruction:
    def test_reference_is_blocked(self, chip):
        assert chip.reference.surface.is_reference
        assert not chip.sensing.surface.is_reference

    def test_reference_detuned_upward(self, chip):
        f_s = chip.sensing.frequency_for_added_mass(0.0)
        f_r = chip.reference.frequency_for_added_mass(0.0)
        assert f_r / f_s == pytest.approx(1.02, rel=5e-3)

    def test_same_liquid_same_q_class(self, chip):
        q_s = chip.sensing.fluid_mode.quality_factor
        q_r = chip.reference.fluid_mode.quality_factor
        assert q_r == pytest.approx(q_s, rel=0.1)


class TestLiveMeasurement:
    def test_batched_equals_serial_pair(self, chip):
        """Both loops as ONE kernel batch == two solo runs, exactly."""
        batched = chip.measure_frequencies(gate_time=0.02, gates=2)
        serial = tuple(
            sensor.measure_frequency(gate_time=0.02, gates=2)[0]
            for sensor in (chip.sensing, chip.reference)
        )
        assert batched == serial

    def test_both_loops_lock(self, chip):
        f_s, f_r = chip.measure_frequencies(gate_time=0.02, gates=2)
        assert f_s == pytest.approx(
            chip.sensing.fluid_mode.frequency, rel=0.02
        )
        assert f_r == pytest.approx(
            chip.reference.fluid_mode.frequency, rel=0.02
        )
        assert f_r > f_s


class TestCompensatedAssay:
    @pytest.fixture(scope="class")
    def result(self, chip):
        protocol = AssayProtocol.injection(
            nM(100), baseline=300, exposure=1800, wash=300
        )
        # +/-2 K swing: large enough that the raw thermal error
        # clearly exceeds the 30 s counter quantization
        wobble = lambda t: 2.0 * math.sin(2.0 * math.pi * t / 1200.0)
        return chip.run_compensated_assay(protocol, wobble, gate_time=30.0)

    def test_raw_trace_carries_temperature(self, chip, result):
        # the sensing frequency wobbles with the cell temperature
        detrended = result.sensing_frequency - np.mean(result.sensing_frequency)
        thermal_amp = abs(chip.tcf) * 2.0 * result.sensing_frequency[0]
        assert np.max(np.abs(detrended)) > 0.5 * thermal_amp

    def test_ratio_tracks_binding(self, chip, result):
        # the residual error floor is the counter's +/-1-count grid at
        # this gate time, in fractional units
        f0 = result.sensing_frequency[0]
        quantum = (1.0 / result.gate_time) / f0
        compensated = result.compensated_shift_fraction
        true_binding = float(result.true_binding_ratio[-1] - 1.0)
        assert abs(compensated - true_binding) <= 3.0 * quantum

    def test_ratio_rejects_temperature(self, chip, result):
        # residual thermal content of the ratio is bounded by counter
        # quantization, far below the raw thermal swing
        f0 = result.sensing_frequency[0]
        quantum = (1.0 / result.gate_time) / f0
        thermal_raw = abs(chip.tcf) * 2.0
        residual = np.abs(result.ratio / result.ratio[0] - result.true_binding_ratio)
        assert np.max(residual) < 3.0 * quantum
        assert 3.0 * quantum < 0.5 * thermal_raw  # compensation still wins

    def test_temperature_recorded(self, result):
        assert np.max(np.abs(result.temperature)) == pytest.approx(2.0, rel=0.05)
