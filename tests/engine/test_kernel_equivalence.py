"""Golden suite: the fused kernel reproduces the reference loop exactly.

The kernel's contract is *bit identity* — every lowered op replicates
the reference ``step()`` arithmetic in the same floating-point order,
so every backend must return ``np.array_equal`` waveforms (far stricter
than the 1e-12 relative tolerance the acceptance bar asks for).  The
suite pins this across the reference device specs, spec variations
(liquids, modes, loop rates), noise on/off, the multi-mode loop, and
both routes under ``fused``: the compiled C megakernel, and the
reference loop every fused entry point runs when no C compiler is
trusted.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.kernel as kernel_mod
from repro.config import REFERENCE_RESONANT_SENSOR, build
from repro.core import ResonantCantileverSensor
from repro.engine import kernel_info, reset_kernel_info
from repro.errors import KernelError, LoweringError

DURATION = 0.01
WAVEFORMS = (
    "displacement",
    "bridge_voltage",
    "limiter_input",
    "limiter_output",
    "drive_voltage",
)

SPEC_VARIANTS = {
    "reference": {},
    "serum": {"liquid": "serum"},
    "glycerol": {"liquid": "glycerol_40pct"},
    "mode2": {"loop.mode": 2},
    "fast-sampling": {"loop.steps_per_cycle": 80},
}


def build_spec_loop(variant: str):
    spec = REFERENCE_RESONANT_SENSOR
    if SPEC_VARIANTS[variant]:
        spec = spec.with_overrides(SPEC_VARIANTS[variant])
    return ResonantCantileverSensor.from_spec(spec).build_loop()


def assert_records_equal(ref, other, backend):
    __tracebackhide__ = True
    for name in WAVEFORMS:
        a = np.asarray(getattr(ref, name))
        b = np.asarray(getattr(other, name))
        if not np.array_equal(a, b):
            worst = float(np.max(np.abs(a - b)))
            pytest.fail(
                f"{backend}.{name} differs from reference "
                f"(max abs diff {worst:.3e})"
            )


class TestGoldenSpecs:
    """Reference == fused on every reference-spec variant."""

    @pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
    def test_fused_matches_reference(self, variant):
        ref = build_spec_loop(variant).run(DURATION, backend="reference")
        rec = build_spec_loop(variant).run(DURATION, backend="fused")
        assert_records_equal(ref, rec, "fused")

    def test_auto_matches_reference(self):
        ref = build_spec_loop("reference").run(DURATION, backend="reference")
        loop = build_spec_loop("reference")
        rec = loop.run(DURATION, backend="auto")
        # asked after the run: a failed build is memoized by then
        assert (loop.last_kernel_info is not None) == kernel_mod.cc_usable()
        assert_records_equal(ref, rec, "auto")


class TestGoldenLoopStates:
    """Kernel runs leave the loop in the exact reference end state."""

    def collect_state(self, loop):
        return (
            loop.resonator.state.displacement,
            loop.resonator.state.velocity,
            tuple(tuple(hp._state) for hp in loop.highpasses),
            loop.phase_lead._last,
            loop.buffer._last_output,
        )

    def test_final_state_matches(self, make_loop):
        loops = []
        for backend in ("reference", "fused"):
            loop = make_loop(include_noise=True)
            loop.auto_gain(1.0 / loop.resonator.timestep)
            loop.run(DURATION, backend=backend)
            loops.append(self.collect_state(loop))
        assert loops[0] == loops[1]

    def test_consecutive_runs_continue_identically(self, make_loop):
        """State round-trips: run #2 picks up exactly where #1 ended."""
        records = {}
        for backend in ("reference", "fused"):
            loop = make_loop(include_noise=True)
            loop.auto_gain(1.0 / loop.resonator.timestep)
            loop.run(DURATION, backend=backend)
            records[backend] = loop.run(DURATION, backend=backend)
        assert_records_equal(
            records["reference"], records["fused"], "fused-second-run"
        )


class TestNoiseVariants:
    @pytest.mark.parametrize("include_noise", [False, True])
    def test_fused_matches_reference(self, make_loop, include_noise):
        recs = {}
        for backend in ("reference", "fused"):
            loop = make_loop(include_noise=include_noise)
            loop.auto_gain(1.0 / loop.resonator.timestep)
            recs[backend] = loop.run(DURATION, backend=backend)
        assert_records_equal(recs["reference"], recs["fused"], "fused")


class TestMultiMode:
    def build(self, geometry, make_loop):
        from repro.feedback.multimode import MultiModeLoop

        return MultiModeLoop.for_geometry(
            geometry, quality_factors=[5.0, 8.0, 11.0], loop=make_loop()
        )

    def test_fused_matches_reference(self, geometry, make_loop):
        outs = {}
        for backend in ("reference", "fused"):
            mm = self.build(geometry, make_loop)
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            outs[backend] = mm.run(0.005, backend=backend)
        assert np.array_equal(
            outs["reference"].samples, outs["fused"].samples
        )

    def test_mode_states_match(self, geometry, make_loop):
        states = {}
        for backend in ("reference", "fused"):
            mm = self.build(geometry, make_loop)
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            mm.run(0.005, backend=backend)
            states[backend] = [
                (r.state.displacement, r.state.velocity)
                for r in mm.resonators
            ]
        assert states["reference"] == states["fused"]


class TestFusedEngines:
    """The two routes under ``fused``: the compiled C megakernel when a
    compiler is trusted, the reference loop otherwise."""

    def test_cc_engine_selected_when_compiler_present(self, make_loop):
        loop = make_loop()
        loop.auto_gain(1.0 / loop.resonator.timestep)
        loop.run(DURATION, backend="fused")
        # asked after the run, when a compiler that cannot build the
        # kernel (CC=/bin/false) has memoized its failure
        if not kernel_mod.cc_usable():
            pytest.skip("no working C compiler on this machine")
        assert loop.last_kernel_info.engine == "cc-columnar"

    def test_no_compiler_runs_the_reference_loop(
        self, geometry, make_loop, monkeypatch
    ):
        """With no compiler every fused entry point runs the reference
        loop: a loop, a batch, a multimode loop and batch, and a swept
        sine each return the reference run's bits and no kernel run
        info, and count one declined batch per call and one fallback
        per loop (the swept sine falls back as one call)."""
        from repro.analysis import swept_sine_response
        from repro.feedback import run_batch, run_multimode_batch
        from repro.feedback.multimode import MultiModeLoop

        def make():
            loop = make_loop(include_noise=True)
            loop.auto_gain(1.0 / loop.resonator.timestep)
            return loop

        def make_mm():
            mm = MultiModeLoop.for_geometry(geometry, [20.0, 10.0], make_loop())
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            return mm

        ref = make().run(DURATION, backend="reference")
        ref_mm = make_mm().run(0.002, backend="reference")
        resonator = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        tones = np.linspace(0.8, 1.2, 7) * resonator.natural_frequency
        ref_sine = swept_sine_response(resonator, tones, 1e-9,
                                       backend="reference")
        monkeypatch.setattr(kernel_mod, "cc_available", lambda: False)

        def counted(call, declined, fallbacks):
            reset_kernel_info()
            out = call()
            info = kernel_info()
            assert (info.batch_declined, info.fallbacks) == (
                declined, fallbacks)
            assert info.batch_columnar_runs == info.degrades == 0
            assert "no C compiler" in info.last_fallback_reason
            return out

        loop = make()
        assert_records_equal(ref, counted(lambda: loop.run(DURATION), 1, 1),
                             "loop")
        loops = [make() for _ in range(3)]
        for rec in counted(lambda: run_batch(loops, DURATION), 1, 3):
            assert_records_equal(ref, rec, "batch")
        mm = make_mm()
        signal = counted(lambda: mm.run(0.002), 1, 1)
        assert np.array_equal(ref_mm.samples, signal.samples)
        pair = [make_mm(), make_mm()]
        for signal in counted(lambda: run_multimode_batch(pair, 0.002), 1, 2):
            assert np.array_equal(ref_mm.samples, signal.samples)
        for ran in (loop, *loops, mm, *pair):
            assert ran.last_kernel_info is None
        sine = counted(lambda: swept_sine_response(resonator, tones, 1e-9),
                       1, 1)
        assert np.array_equal(ref_sine, sine)

    @pytest.mark.parametrize("engine", ["cc-columnar", "no-compiler"])
    def test_run_rejects_short_noise_and_empty_runs(
        self, make_loop, monkeypatch, engine
    ):
        """A solo run checks ``n`` and its noise length as a batch does,
        with or without a compiler: a short waveform must not be read
        past its end.  With no compiler a valid run declines."""
        if engine == "no-compiler":
            monkeypatch.setattr(kernel_mod, "cc_available", lambda: False)
        elif not kernel_mod.cc_usable():
            pytest.skip("no working C compiler on this machine")
        loop = make_loop()
        loop.auto_gain(1.0 / loop.resonator.timestep)
        prep = loop._prepare_run(DURATION, None)
        kernel = loop._lower_kernel(prep.signed_coefficient)
        with pytest.raises(KernelError, match="has 10 samples, needs"):
            kernel.run(prep.n, np.zeros(10))
        with pytest.raises(KernelError, match="sample count must be >= 1"):
            kernel.run(0, np.zeros(10))
        if engine == "no-compiler":
            with pytest.raises(LoweringError, match="no C compiler"):
                kernel.run(prep.n, prep.bridge_noise)
            return
        result = kernel.run(prep.n, prep.bridge_noise)
        assert result.info.engine == engine
        assert np.all(np.isfinite(result.displacement))


class TestKernelCounters:
    def test_runs_and_samples_counted(self, make_loop):
        reset_kernel_info()
        loop = make_loop()
        loop.auto_gain(1.0 / loop.resonator.timestep)
        rec = loop.run(DURATION, backend="fused")
        info = kernel_info()
        if not kernel_mod.cc_usable():  # the reference loop ran instead
            assert (info.runs, info.total_samples, info.fallbacks) == ({}, 0, 1)
            assert loop.last_kernel_info is None
            return
        assert info.runs.get("fused") == 1
        assert info.total_samples == len(rec.bridge_voltage)
        assert info.last_backend == "fused"
        assert info.last_samples_per_second > 0.0
        assert info.last_compile_seconds == loop.last_kernel_info.compile_seconds
        assert info.fallbacks == 0

    def test_run_info_reports_program_shape(self, make_loop):
        loop = make_loop()
        loop.auto_gain(1.0 / loop.resonator.timestep)
        loop.run(DURATION, backend="fused")
        info = loop.last_kernel_info
        if not kernel_mod.cc_usable():  # the reference loop ran instead
            assert info is None
            return
        assert info.n_ops > 5          # DDA + HPs + phase + VGA + ...
        assert info.n_samples == len(loop.run(DURATION).bridge_voltage)
        assert info.samples_per_second > 0.0
        assert info.fallback_reason is None
