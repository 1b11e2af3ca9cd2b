"""Small-signal Barkhausen analysis vs. the time-domain loop."""

import numpy as np
import pytest

from repro.analysis import zero_crossing_frequency
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.core import ResonantCantileverSensor
from repro.errors import OscillationError
from repro.feedback import analyze, loop_gain

#: The reference spec and the variants the golden suites run.
SPEC_VARIANTS = {
    "reference": {},
    "serum": {"liquid": "serum"},
    "glycerol": {"liquid": "glycerol_40pct"},
    "mode2": {"loop.mode": 2},
    "fast-sampling": {"loop.steps_per_cycle": 80},
}


def scalar_electrical_gain(loop, frequency, sample_rate):
    """The chain's gain at one frequency, one block at a time in Python
    complex arithmetic: the reference for the vector evaluation."""
    f = np.asarray([frequency])
    gain = complex(loop.dda.gain, 0.0)
    if loop.dda.gbw is not None:
        gain /= 1.0 + 1j * frequency / loop.dda.bandwidth
    for hp in loop.highpasses:
        gain *= hp.response(f, sample_rate)[0]
    gain *= loop.phase_lead.response(f, sample_rate)[0]
    gain *= loop.vga.gain
    gain *= loop.limiter.small_signal_gain
    return gain


def scalar_loop_gains(loop, frequency, electrical_gains):
    """Loop gain point by point from per-point electrical gains."""
    mech = loop.resonator.transfer_function(np.asarray(frequency, dtype=float))
    k, fpv = loop.displacement_to_voltage, loop.actuator.force_per_volt
    return np.array([k * e * fpv * m for e, m in zip(electrical_gains, mech)])


class TestVectorElectricalGain:
    RTOL = 8 * np.finfo(float).eps

    def analyze_grid(self, loop):
        f0 = loop.resonator.natural_frequency
        return np.linspace(0.8 * f0, 1.2 * f0, 4001)

    def test_matches_scalar_reference_on_analyze_grid(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        f = self.analyze_grid(loop)
        elec = [scalar_electrical_gain(loop, float(fi), fs) for fi in f]
        np.testing.assert_allclose(
            loop.electrical_gain(f, fs), elec, rtol=self.RTOL, atol=0.0
        )
        np.testing.assert_allclose(
            loop_gain(loop, f, fs), scalar_loop_gains(loop, f, elec),
            rtol=self.RTOL, atol=0.0,
        )

    def test_scalar_frequency_gives_one_element(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        f0 = loop.resonator.natural_frequency
        gain = loop.electrical_gain(f0, fs)
        assert gain.shape == (1,)
        assert gain[0] == loop.electrical_gain([f0], fs)[0]

    @pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
    def test_auto_gain_matches_scalar_reference(self, variant):
        spec = REFERENCE_RESONANT_SENSOR.with_overrides(SPEC_VARIANTS[variant])
        loop = ResonantCantileverSensor.from_spec(spec).build_loop()
        reference = ResonantCantileverSensor.from_spec(spec).build_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.vga.set_setting(0)
        reference.vga.set_setting(0)

        f0 = reference.resonator.natural_frequency
        elec = [scalar_electrical_gain(reference, f0, fs)]
        at_f0 = abs(scalar_loop_gains(reference, [f0], elec)[0])
        expected = reference.vga.set_gain_at_least(
            reference.vga.gain * 3.0 / at_f0
        )
        assert loop.auto_gain(fs, startup_factor=3.0) == expected
        assert loop.vga.setting == reference.vga.setting


class TestLoopGainCurve:
    def test_peak_near_resonance(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        f0 = loop.resonator.natural_frequency
        f = np.linspace(0.8 * f0, 1.2 * f0, 801)
        g = np.abs(loop_gain(loop, f, fs))
        f_peak = f[np.argmax(g)]
        assert f_peak == pytest.approx(loop.resonator.resonance_peak_frequency(), rel=0.05)

    def test_gain_proportional_to_vga(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        f0 = np.asarray([loop.resonator.natural_frequency])
        loop.vga.set_setting(0)
        g0 = abs(loop_gain(loop, f0, fs)[0])
        loop.vga.set_setting(4)
        g4 = abs(loop_gain(loop, f0, fs)[0])
        assert g4 / g0 == pytest.approx(loop.vga.gain, rel=1e-6)


class TestAnalyze:
    def test_zero_phase_near_resonance(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        result = analyze(loop, fs)
        assert result.oscillation_frequency == pytest.approx(
            loop.resonator.natural_frequency, rel=0.02
        )

    def test_predicts_startup(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.auto_gain(fs, startup_factor=3.0)
        result = analyze(loop, fs)
        assert result.will_oscillate
        assert result.gain_margin_db > 0.0

    def test_predicts_no_startup_when_gain_starved(self, make_loop):
        loop = make_loop(quality_factor=1.2)
        loop.vga.set_setting(0)
        loop.limiter.small_signal_gain = 0.2
        fs = 1.0 / loop.resonator.timestep
        result = analyze(loop, fs)
        assert not result.will_oscillate

    def test_agrees_with_time_domain(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.auto_gain(fs)
        predicted = analyze(loop, fs).oscillation_frequency
        record = loop.run(duration=0.1)
        measured = zero_crossing_frequency(
            record.displacement_signal().settle(0.5)
        )
        # the large-signal oscillation pulls slightly off the small-signal
        # zero-phase point (drive harmonics); ~1% agreement is physical
        assert measured == pytest.approx(predicted, rel=0.01)

    def test_broken_loop_raises(self, make_loop):
        from repro.circuits import Passthrough

        loop = make_loop()
        # remove the +90 phase conditioning: no zero-phase crossing exists
        loop.phase_lead = Passthrough()
        loop.phase_lead.response = lambda f, fs: np.ones(len(np.atleast_1d(f)))
        fs = 1.0 / loop.resonator.timestep
        with pytest.raises(OscillationError):
            analyze(loop, fs)
