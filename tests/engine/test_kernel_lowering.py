"""Lowering rules and the kernel's fall-back contract.

A chain the kernel cannot prove equivalent must *never* lower: unknown
``step`` overrides, instance-patched methods, per-sample noise sources
and subclassed resonators all raise :class:`LoweringError`, and the
loop simulators catch it and run the reference path — with the reason
logged and counted, never an exception to the caller.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.circuits import LimitingAmplifier
from repro.circuits.amplifier import Amplifier
from repro.circuits.block import Block, Chain, Gain, Passthrough, Saturation
from repro.engine import kernel_info, lower_block, reset_kernel_info
from repro.engine.kernel import resolve_backend
from repro.errors import KernelError, LoweringError
from repro.feedback.loop import lower_resonator_mode
from repro.mechanics import ModalResonator


class CustomBlock(Block):
    """User subclass with its own step() and no lowering rule."""

    def process(self, signal):
        return signal

    def step(self, x: float) -> float:
        return x * 2.0


class CustomGain(Gain):
    """Subclass that overrides step() without updating lower_stage()."""

    def step(self, x: float) -> float:
        return x * self.gain + 1e-9


class TestLowerBlock:
    def test_known_blocks_lower(self):
        for block in (Gain(2.0), Passthrough(), Saturation(-1.0, 1.0),
                      LimitingAmplifier(40.0, 0.3)):
            stage = lower_block(block)
            assert stage.label == type(block).__name__

    def test_chain_lowers_recursively(self):
        stage = lower_block(Chain([Gain(2.0), Saturation(-1.0, 1.0)]))
        assert len(stage.ops) == 2

    def test_unknown_subclass_refuses(self):
        with pytest.raises(LoweringError, match="CustomBlock"):
            lower_block(CustomBlock())

    def test_step_override_without_lowering_refuses(self):
        with pytest.raises(LoweringError, match="CustomGain"):
            lower_block(CustomGain(2.0))

    def test_instance_patched_step_refuses(self):
        block = Gain(2.0)
        block.step = lambda x: -x
        with pytest.raises(LoweringError, match="patched"):
            lower_block(block)

    def test_noisy_amplifier_refuses(self):
        amp = Amplifier(gain=10.0, noise_density=5e-9)
        with pytest.raises(LoweringError, match="noise"):
            lower_block(amp)

    def test_quiet_amplifier_lowers(self):
        stage = lower_block(Amplifier(gain=10.0))
        assert stage.ops  # bias + gain at minimum


class TestResonatorLowering:
    def make(self):
        return ModalResonator(
            effective_mass=1e-11,
            effective_stiffness=0.4,
            quality_factor=5.0,
            timestep=1e-6,
        )

    def test_stock_resonator_lowers(self):
        mode = lower_resonator_mode(self.make(), 1.0)
        assert mode.coef == 1.0

    def test_subclassed_step_refuses(self):
        class Duffingish(ModalResonator):
            def step(self, force):
                return super().step(force * 1.0)

        r = Duffingish(
            effective_mass=1e-11, effective_stiffness=0.4,
            quality_factor=5.0, timestep=1e-6,
        )
        with pytest.raises(LoweringError):
            lower_resonator_mode(r, 1.0)

    def test_instance_patched_step_refuses(self):
        r = self.make()
        r.step = lambda force: 0.0
        with pytest.raises(LoweringError):
            lower_resonator_mode(r, 1.0)


class TestLoopFallback:
    def test_patched_block_falls_back_cleanly(self, make_loop, caplog):
        reset_kernel_info()
        loop = make_loop()
        loop.auto_gain(1.0 / loop.resonator.timestep)
        original = loop.vga.step
        loop.vga.step = lambda x: original(x)
        with caplog.at_level(logging.INFO, logger="repro.engine.kernel"):
            record = loop.run(0.005, backend="auto")
        assert loop.last_kernel_info is None  # reference path ran
        assert len(record.bridge_voltage) > 0
        info = kernel_info()
        assert info.fallbacks == 1
        assert "patched" in info.last_fallback_reason
        assert any("fallback to reference path" in m for m in caplog.messages)

    def test_fallback_waveform_matches_pure_reference(self, make_loop):
        def patched(loop):
            original = loop.vga.step
            loop.vga.step = lambda x: original(x)
            return loop

        ref = make_loop()
        ref.auto_gain(1.0 / ref.resonator.timestep)
        ref_rec = ref.run(0.005, backend="reference")

        fb = patched(make_loop())
        fb.auto_gain(1.0 / fb.resonator.timestep)
        fb_rec = fb.run(0.005, backend="fused")
        assert np.array_equal(ref_rec.bridge_voltage, fb_rec.bridge_voltage)

    def test_custom_actuator_falls_back(self, make_loop):
        reset_kernel_info()
        loop = make_loop()
        loop.auto_gain(1.0 / loop.resonator.timestep)

        class OddActuator:
            def tip_force_from_voltage(self, v):
                return 1e-9 * np.tanh(v)

        loop.actuator = OddActuator()
        loop.run(0.005, backend="auto")
        assert loop.last_kernel_info is None
        assert kernel_info().fallbacks == 1

    def test_multimode_falls_back(self, geometry, make_loop):
        from repro.feedback.multimode import MultiModeLoop

        reset_kernel_info()
        mm = MultiModeLoop.for_geometry(
            geometry, quality_factors=[5.0, 8.0], loop=make_loop()
        )
        mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
        mm.resonators[1].step = lambda force: 0.0
        out = mm.run(0.003, backend="auto")
        assert mm.last_kernel_info is None
        assert len(out.samples) > 0
        assert kernel_info().fallbacks == 1


class TestResolveBackend:
    def test_known_backends(self):
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("fused") == "fused"
        assert resolve_backend("auto") == "fused"

    def test_unknown_backend_raises(self):
        for backend in ("turbo", "row", "interp", "numba"):
            with pytest.raises(KernelError, match="unknown"):
                resolve_backend(backend)
