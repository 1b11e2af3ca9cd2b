"""Clamped-free modal analysis against textbook anchors."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.mechanics import analyze_modes, natural_frequency
from repro.mechanics.modal import (
    effective_mass_fraction,
    eigenvalue,
    mode_shape,
    mode_shape_tip_normalized,
    modal_participation_of_uniform_load,
)


class TestEigenvalues:
    def test_first_eigenvalue(self):
        assert eigenvalue(1) == pytest.approx(1.8751040687, rel=1e-9)

    def test_characteristic_equation(self):
        # cos(l) cosh(l) = -1
        for n in range(1, 6):
            lam = eigenvalue(n)
            assert math.cos(lam) * math.cosh(lam) == pytest.approx(-1.0, abs=1e-6)

    def test_asymptotic_high_modes(self):
        lam = eigenvalue(10)
        assert lam == pytest.approx((2 * 10 - 1) * math.pi / 2.0, rel=1e-6)

    def test_invalid_mode(self):
        with pytest.raises(GeometryError):
            eigenvalue(0)


class TestModeShapes:
    def test_zero_at_clamp(self):
        for n in (1, 2, 3):
            assert mode_shape(n, np.asarray([0.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_tip_normalization(self):
        for n in (1, 2, 3):
            phi = mode_shape_tip_normalized(n, np.asarray([1.0]))
            assert phi[0] == pytest.approx(1.0)

    def test_mode_n_has_n_minus_1_interior_nodes(self):
        xi = np.linspace(0.01, 0.999, 5000)
        for n in (1, 2, 3):
            phi = mode_shape_tip_normalized(n, xi)
            sign_changes = int(np.sum(np.diff(np.sign(phi)) != 0))
            assert sign_changes == n - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            mode_shape(1, np.asarray([1.5]))

    def test_effective_mass_fraction_is_quarter(self):
        # exact identity for all clamped-free modes with tip normalization
        for n in (1, 2, 3):
            assert effective_mass_fraction(n) == pytest.approx(0.25, abs=1e-4)


class TestEffectiveMassMemo:
    def test_memo_is_bit_identical_to_the_integral(self):
        for n in (1, 2, 3, 4):
            assert effective_mass_fraction(n) \
                == effective_mass_fraction.__wrapped__(n)

    def test_second_build_is_a_cache_hit(self):
        from repro.config import REFERENCE_RESONANT_SENSOR, build

        build(REFERENCE_RESONANT_SENSOR)
        before = effective_mass_fraction.cache_info()
        build(REFERENCE_RESONANT_SENSOR)
        after = effective_mass_fraction.cache_info()
        assert after.hits > before.hits
        assert after.misses == before.misses


class TestFrequencies:
    def test_textbook_formula(self, geometry):
        # f1 = 0.1615 t/L^2 sqrt(E/rho) for rectangular beams
        e, rho = 169e9, 2329.0
        t, length = 5e-6, 500e-6
        expected = (
            (1.8751041**2 / (2 * math.pi))
            * math.sqrt(e * t**2 / (12.0 * rho))
            / length**2
        )
        assert natural_frequency(geometry, 1) == pytest.approx(expected, rel=1e-6)

    def test_mode_ratio(self, geometry):
        # f2/f1 = (lambda2/lambda1)^2 = 6.267
        f1 = natural_frequency(geometry, 1)
        f2 = natural_frequency(geometry, 2)
        assert f2 / f1 == pytest.approx(6.2669, rel=1e-3)

    def test_scaling_t_over_l_squared(self, geometry):
        f1 = natural_frequency(geometry)
        double_l = geometry.scaled(length_factor=2.0)
        assert natural_frequency(double_l) == pytest.approx(f1 / 4.0)
        double_t = geometry.scaled(thickness_factor=2.0)
        assert natural_frequency(double_t) == pytest.approx(2.0 * f1)

    def test_width_independent(self, geometry):
        wide = geometry.scaled(width_factor=3.0)
        assert natural_frequency(wide) == pytest.approx(natural_frequency(geometry))


class TestAnalyzeModes:
    def test_count_and_order(self, geometry):
        modes = analyze_modes(geometry, 3)
        assert [m.number for m in modes] == [1, 2, 3]
        assert modes[0].frequency < modes[1].frequency < modes[2].frequency

    def test_stiffness_consistency(self, geometry):
        mode = analyze_modes(geometry, 1)[0]
        omega = 2.0 * math.pi * mode.frequency
        assert mode.effective_stiffness == pytest.approx(
            mode.effective_mass * omega**2
        )

    def test_mode1_stiffness_near_static(self, geometry):
        # k_eff(mode 1) ~ 1.03 k_static for a cantilever
        from repro.mechanics.beam import spring_constant

        mode = analyze_modes(geometry, 1)[0]
        assert mode.effective_stiffness == pytest.approx(
            spring_constant(geometry), rel=0.05
        )

    def test_invalid_count(self, geometry):
        with pytest.raises(GeometryError):
            analyze_modes(geometry, 0)


class TestParticipation:
    def test_uniform_load_participation_mode1(self):
        # integral(phi)/integral(phi^2) = 0.3915/0.25 ~ 1.566 for mode 1
        p = modal_participation_of_uniform_load(1)
        assert p == pytest.approx(1.566, rel=0.01)

    def test_higher_modes_couple_weakly(self):
        p1 = abs(modal_participation_of_uniform_load(1))
        p2 = abs(modal_participation_of_uniform_load(2))
        p3 = abs(modal_participation_of_uniform_load(3))
        assert p2 < p1
        assert p3 < p2
