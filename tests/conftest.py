"""Shared fixtures for the repro test suite.

Expensive objects (fabricated cantilevers, characterized readout chains,
fluid-loaded modes) are session-scoped: they are deterministic, and
rebuilding them per test would dominate the suite's runtime.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.biochem import FunctionalizedSurface, get_analyte
from repro.core.presets import (
    reference_cantilever,
    reference_geometry,
    resonant_bridge,
    static_bridge,
)
from repro.materials import get_liquid
from repro.mechanics import CantileverGeometry
from repro.units import um


@pytest.fixture(scope="session")
def geometry() -> CantileverGeometry:
    """The reference 500 x 100 x 5 um silicon cantilever."""
    return CantileverGeometry.uniform(
        length=um(500), width=um(100), thickness=um(5)
    )


@pytest.fixture(scope="session")
def fabricated():
    """The reference cantilever produced by the full process flow."""
    return reference_cantilever()


@pytest.fixture(scope="session")
def water():
    """Water at room temperature."""
    return get_liquid("water")


@pytest.fixture(scope="session")
def igg_surface(geometry) -> FunctionalizedSurface:
    """IgG-functionalized reference cantilever surface."""
    return FunctionalizedSurface(analyte=get_analyte("igg"), geometry=geometry)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh, seeded random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def diffused_bridge():
    """Mismatch-free diffused bridge (deterministic outputs)."""
    return static_bridge(mismatch_sigma=0.0)


@pytest.fixture(scope="session")
def pmos_bridge():
    """Mismatch-free PMOS bridge."""
    return resonant_bridge(mismatch_sigma=0.0)


@pytest.fixture(scope="session")
def water_resonator(geometry, water):
    """Fluid-loaded mode-1 resonator of the reference beam in water."""
    from repro.fluidics import immersed_mode
    from repro.mechanics import ModalResonator, analyze_modes

    fl = immersed_mode(geometry, water)
    mode = analyze_modes(geometry, 1)[0]
    return ModalResonator(
        effective_mass=fl.effective_mass,
        effective_stiffness=mode.effective_stiffness,
        quality_factor=fl.quality_factor,
        timestep=1.0 / (fl.frequency * 40),
    )


@pytest.fixture()
def make_loop(geometry, water, pmos_bridge):
    """Factory for fresh loops (loops carry state; tests need their own)."""
    from repro.actuation import ActuationCoil, LorentzActuator, PermanentMagnet
    from repro.feedback import ResonantFeedbackLoop, displacement_to_stress_gain
    from repro.fluidics import immersed_mode
    from repro.mechanics import ModalResonator, analyze_modes

    def _make(quality_factor=None, include_noise=False, **kwargs):
        fl = immersed_mode(geometry, water)
        mode = analyze_modes(geometry, 1)[0]
        q = quality_factor if quality_factor is not None else fl.quality_factor
        resonator = ModalResonator(
            effective_mass=fl.effective_mass,
            effective_stiffness=mode.effective_stiffness,
            quality_factor=q,
            timestep=1.0 / (fl.frequency * 40),
        )
        actuator = LorentzActuator(
            ActuationCoil(geometry=geometry), PermanentMagnet()
        )
        return ResonantFeedbackLoop(
            resonator=resonator,
            bridge=pmos_bridge,
            displacement_to_stress=displacement_to_stress_gain(geometry),
            actuator=actuator,
            include_bridge_noise=include_noise,
            **kwargs,
        )

    return _make


@pytest.fixture()
def join_new_threads():
    """Join, at teardown, every thread the test started.

    A task the executor's watchdog abandoned still runs its real call
    once its hang ends; joining keeps that call, and the fault sites it
    polls, out of the next test.
    """
    before = set(threading.enumerate())
    yield
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=10.0)
