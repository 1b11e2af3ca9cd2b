"""Golden-number regression net.

The calibrated headline values of the reference device, pinned with
loose-but-meaningful tolerances.  A failing test here means a model
change moved a number the documentation (EXPERIMENTS.md) quotes — either
fix the regression or update the docs *deliberately*.
"""

import pytest

from repro.fluidics import immersed_mode
from repro.materials import get_liquid
from repro.mechanics import natural_frequency
from repro.mechanics.beam import spring_constant


class TestMechanicsGolden:
    def test_reference_frequency(self, fabricated):
        assert natural_frequency(fabricated.geometry) == pytest.approx(
            27521.0, rel=1e-3
        )

    def test_reference_spring_constant(self, fabricated):
        assert spring_constant(fabricated.geometry) == pytest.approx(
            4.225, rel=1e-3
        )

    def test_water_immersion(self, fabricated, water):
        mode = immersed_mode(fabricated.geometry, water)
        assert mode.frequency == pytest.approx(8919.7, rel=1e-3)
        assert mode.quality_factor == pytest.approx(5.94, rel=0.01)


class TestFabricationGolden:
    def test_koh_time_hours(self, fabricated):
        assert fabricated.process.koh_time / 3600.0 == pytest.approx(
            6.12, rel=0.02
        )

    def test_silicon_thickness(self, fabricated):
        assert fabricated.silicon_thickness == pytest.approx(5e-6, rel=1e-9)


class TestTransductionGolden:
    def test_bridge_sensitivity(self, diffused_bridge):
        # 2.37 mV per MPa at 3.3 V excitation
        assert diffused_bridge.sensitivity() * 1e6 == pytest.approx(
            2.369e-3, rel=0.01
        )

    def test_bridge_powers(self, diffused_bridge, pmos_bridge):
        assert diffused_bridge.power_dissipation() * 1e3 == pytest.approx(
            1.089, rel=0.01
        )
        assert pmos_bridge.power_dissipation() * 1e3 == pytest.approx(
            0.300, rel=0.01
        )

    def test_corner_frequencies(self, diffused_bridge, pmos_bridge):
        assert diffused_bridge.corner_frequency() == pytest.approx(342.0, rel=0.05)
        assert pmos_bridge.corner_frequency() == pytest.approx(2.42e5, rel=0.05)


class TestChainGolden:
    def test_static_chain_dc_gain(self, igg_surface):
        from repro.core import StaticCantileverSensor

        sensor = StaticCantileverSensor(igg_surface)
        dc_gain, noise_rms = sensor.characterize_chain()
        assert dc_gain == pytest.approx(3858.0, rel=0.02)
        assert noise_rms == pytest.approx(1.66e-3, rel=0.3)


class TestLoopGolden:
    def test_water_loop_lock_and_amplitude(self, make_loop):
        from repro.feedback import analyze, predict_amplitude

        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.auto_gain(fs)
        result = analyze(loop, fs)
        assert result.oscillation_frequency == pytest.approx(8959.0, rel=5e-3)
        prediction = predict_amplitude(loop, fs)
        assert prediction.tip_amplitude == pytest.approx(339.6e-9, rel=0.05)

    def test_vga_requirement_in_water(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.auto_gain(fs)
        assert loop.vga.gain_db == pytest.approx(10.7, abs=0.1)


class TestEngineBenchGolden:
    """Headline numbers of the engine-ported benches, pinned.

    The three benches (EXT3 process variation, EXT4 resonance curve,
    ABL1 placement) now run through the batch engine; these pins prove
    the engine/cached port did not move a single physics result from
    the serial originals.
    """

    @pytest.fixture(scope="class")
    def bench_modules(self):
        import sys
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        if str(bench_dir) not in sys.path:
            sys.path.insert(0, str(bench_dir))
        import bench_abl_placement
        import bench_ext_process_variation
        import bench_ext_resonance_curve

        return (
            bench_ext_process_variation,
            bench_ext_resonance_curve,
            bench_abl_placement,
        )

    def test_process_variation_headline(self, bench_modules):
        headline = bench_modules[0].run_bench(quiet=True)
        assert headline["f_mean_Hz"] == pytest.approx(27370.3, rel=1e-3)
        assert headline["f_spread_pct"] == pytest.approx(2.930, rel=0.01)
        assert headline["thickness_spread_pct"] == pytest.approx(2.966, rel=0.01)
        assert headline["litho_spread_pct"] == pytest.approx(0.381, rel=0.01)
        assert headline["analytic_pct"] == pytest.approx(3.027, rel=1e-3)

    def test_resonance_curve_headline(self, bench_modules):
        headline = bench_modules[1].run_bench(quiet=True)
        assert headline["water_f0_Hz"] == pytest.approx(8919.2, rel=1e-3)
        assert headline["water_Q"] == pytest.approx(5.944, rel=0.01)
        assert headline["air_f0_Hz"] == pytest.approx(27349.2, rel=1e-3)
        assert headline["air_Q"] == pytest.approx(223.4, rel=0.02)

    def test_placement_headline(self, bench_modules):
        headline = bench_modules[2].run_bench(quiet=True)
        assert headline["resonant_clamp_kPa"] == pytest.approx(553.32, rel=1e-3)
        assert headline["clamp_to_tip_ratio"] == pytest.approx(164.57, rel=1e-3)
        assert headline["static_signal_kPa"] == pytest.approx(2.808, rel=1e-3)
        assert headline["static_best_rel_snr"] == pytest.approx(8.424, rel=1e-3)


class TestBiochemGolden:
    def test_igg_saturation_mass(self, igg_surface):
        assert igg_surface.saturation_mass * 1e15 == pytest.approx(104.6, rel=0.01)

    def test_mass_responsivity_in_water(self, geometry, water):
        from repro.biochem import FunctionalizedSurface, get_analyte
        from repro.core import ResonantCantileverSensor

        sensor = ResonantCantileverSensor(
            FunctionalizedSurface(get_analyte("igg"), geometry), water
        )
        assert sensor.mass_responsivity() * 1e-15 * 1e3 == pytest.approx(
            -0.8046, rel=0.01
        )
