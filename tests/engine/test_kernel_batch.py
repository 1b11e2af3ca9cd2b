"""Golden suite for the batched multi-instance kernel.

The batching contract extends the fused kernel's bit-identity: every
instance of a batch must return waveforms ``np.array_equal`` to its
solo fused run — across heterogeneous durations, per-instance
fallbacks, open-loop swept-sine tones, and the executor/sweep-planner
plumbing above it.  Also pins the ``auto`` backend resolution, the
thread-resolution rules, and the double-parallelism guard.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.engine.kernel as kernel_mod
from repro.config import REFERENCE_RESONANT_SENSOR, build
from repro.core import ResonantCantileverSensor
from repro.engine import (
    AUTO_ORDER,
    BatchExecutor,
    KERNEL_THREADS_ENV,
    KernelBatch,
    batch_signature,
    kernel_batch_threads,
    kernel_info,
    reset_kernel_info,
)
from repro.engine.kernel import MAX_BATCH_THREADS, resolve_backend
from repro.errors import KernelError
from repro.feedback import run_batch

DURATION = 0.006
LENGTHS = (180.0, 200.0, 220.0)
WAVEFORMS = (
    "displacement",
    "bridge_voltage",
    "limiter_input",
    "limiter_output",
    "drive_voltage",
)


def build_loop(length_um: float = 200.0):
    spec = REFERENCE_RESONANT_SENSOR.with_overrides(
        {"cantilever.length_um": length_um}
    )
    return ResonantCantileverSensor.from_spec(spec).build_loop()


def assert_records_equal(ref, other, label):
    __tracebackhide__ = True
    for name in WAVEFORMS:
        a = np.asarray(getattr(ref, name))
        b = np.asarray(getattr(other, name))
        if not np.array_equal(a, b):
            worst = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("nan")
            pytest.fail(
                f"{label}.{name} differs from solo run "
                f"(max abs diff {worst:.3e})"
            )


class TestClosedLoopBatch:
    """run_batch == solo fused, instance for instance, bit for bit."""

    def test_batch_matches_solo_fused(self):
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in LENGTHS
        ]
        reset_kernel_info()
        # every batch runs its shape's megakernel, whatever its width;
        # only an untrusted C engine declines it to generated Python
        records = run_batch(
            [build_loop(length) for length in LENGTHS], DURATION, threads=2
        )
        assert len(records) == len(LENGTHS)
        for length, solo, rec in zip(LENGTHS, solos, records):
            assert_records_equal(solo, rec, f"batch[{length}]")
            assert np.array_equal(solo.times, rec.times)
            assert solo.sample_rate == rec.sample_rate
        info = kernel_info()
        assert info.fallbacks == 0
        assert info.batch_runs == 1
        # asked after the run: a failed build is memoized by then
        assert info.batch_columnar_runs == int(kernel_mod.cc_usable())
        assert info.batch_runs == info.batch_columnar_runs + info.batch_declined
        assert info.batch_instances == len(LENGTHS)
        assert info.runs.get("fused", 0) == len(LENGTHS)

    def test_heterogeneous_durations_pad_and_mask(self):
        """Five durations on 1, 2 and 3 C threads: every instance stops
        at its own end inside its thread's block, so its waveforms and
        its loop's final resonator state equal its solo run's."""
        lengths = (180.0, 190.0, 200.0, 210.0, 220.0)
        durations = (0.004, 0.008, 0.006, 0.003, 0.005)
        solo_loops = [build_loop(length) for length in lengths]
        solos = [
            loop.run(d, backend="fused")
            for loop, d in zip(solo_loops, durations)
        ]
        for threads in (1, 2, 3):
            loops = [build_loop(length) for length in lengths]
            records = run_batch(loops, durations, threads=threads)
            samples = {len(r.displacement) for r in records}
            assert len(samples) == 5, "per-instance durations must differ"
            for solo_loop, solo, loop, rec in zip(
                solo_loops, solos, loops, records
            ):
                label = f"hetero[{threads} threads]"
                assert len(solo.displacement) == len(rec.displacement)
                assert_records_equal(solo, rec, label)
                assert (
                    loop.resonator.state.displacement
                    == solo_loop.resonator.state.displacement
                ), f"{label}: final displacement"
                assert (
                    loop.resonator.state.velocity
                    == solo_loop.resonator.state.velocity
                ), f"{label}: final velocity"

    def test_batch_absorbs_final_loop_state(self):
        solo_loop = build_loop(200.0)
        solo_loop.run(DURATION, backend="fused")
        batch_loop = build_loop(200.0)
        run_batch([batch_loop], DURATION)
        assert (
            batch_loop.resonator.state.displacement
            == solo_loop.resonator.state.displacement
        )
        assert (
            batch_loop.resonator.state.velocity
            == solo_loop.resonator.state.velocity
        )

    def test_reference_backend_bypasses_batching(self):
        reset_kernel_info()
        records = run_batch(
            [build_loop(length) for length in LENGTHS],
            DURATION,
            backend="reference",
        )
        assert len(records) == len(LENGTHS)
        assert kernel_info().batch_runs == 0

    def test_duration_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="durations"):
            run_batch([build_loop(200.0)], [0.004, 0.008])


class TestPerInstanceFallback:
    """A non-lowerable instance falls back alone, never poisons the batch."""

    def test_patched_loop_falls_back_inside_batch(self):
        solo_ref = build_loop(200.0).run(DURATION, backend="reference")
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in (LENGTHS[0], LENGTHS[2])
        ]

        loops = [build_loop(length) for length in LENGTHS]
        original = loops[1].vga.step
        loops[1].vga.step = lambda x: original(x)  # instance patch: refuses

        reset_kernel_info()
        records = run_batch(loops, DURATION, threads=2)
        info = kernel_info()
        assert info.fallbacks == 1
        assert "patched" in info.last_fallback_reason
        # the other two instances still ran as one batch
        assert info.batch_runs == 1
        assert info.batch_instances == 2
        assert_records_equal(solos[0], records[0], "batch[0]")
        assert_records_equal(solo_ref, records[1], "fallback[1]")
        assert_records_equal(solos[1], records[2], "batch[2]")
        assert loops[1].last_kernel_info is None  # reference path ran


class TestKernelBatchValidation:
    def _kernel_and_prep(self, loop):
        prep = loop._prepare_run(DURATION, None)
        return loop._lower_kernel(prep.signed_coefficient), prep

    def test_same_shape_loops_share_signature(self):
        k1, _ = self._kernel_and_prep(build_loop(180.0))
        k2, _ = self._kernel_and_prep(build_loop(240.0))
        assert batch_signature(k1) == batch_signature(k2)

    def test_mixed_shapes_raise(self):
        import math

        from repro.engine.kernel import FusedLoopKernel
        from repro.feedback.loop import lower_resonator_mode

        loop = build_loop(200.0)
        closed, prep = self._kernel_and_prep(loop)
        mode = lower_resonator_mode(loop.resonator, 0.0)
        open_loop = FusedLoopKernel(
            [], [], [], [mode],
            act_r=1.0, act_imax=math.inf, act_fpc=1.0, include_taps=False,
        )
        assert batch_signature(closed) != batch_signature(open_loop)
        with pytest.raises(KernelError, match="batch_signature"):
            KernelBatch([closed, open_loop], [prep.n, prep.n],
                        [prep.bridge_noise, prep.bridge_noise])

    def test_empty_batch_raises(self):
        with pytest.raises(KernelError, match="at least one"):
            KernelBatch([], [], [])

    def test_short_noise_raises(self):
        loop = build_loop(200.0)
        kern, prep = self._kernel_and_prep(loop)
        with pytest.raises(KernelError):
            KernelBatch([kern], [prep.n], [prep.bridge_noise[: prep.n - 10]])


class TestSweptSineBatch:
    """The acceptance workload: a 64-point resonance curve, bit-identical."""

    def test_64_point_curve_matches_reference(self):
        from repro.analysis import swept_sine_response

        resonator = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        f0 = resonator.natural_frequency
        frequencies = np.linspace(0.6 * f0, 1.4 * f0, 64)

        serial = swept_sine_response(
            resonator, frequencies, 1e-9, backend="reference"
        )
        reset_kernel_info()
        batched = swept_sine_response(
            resonator, frequencies, 1e-9, backend="auto"
        )
        assert np.array_equal(serial, batched)
        info = kernel_info()
        assert info.batch_runs == 1
        assert info.batch_instances == 64
        assert info.fallbacks == 0

    def test_subclassed_resonator_falls_back(self):
        from repro.analysis import swept_sine_response
        from repro.mechanics import ModalResonator

        class OddResonator(ModalResonator):
            def step(self, force):
                return super().step(force)

        base = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        odd = OddResonator(
            effective_mass=base.effective_mass,
            effective_stiffness=base.effective_stiffness,
            quality_factor=base.quality_factor,
            timestep=base.timestep,
        )
        f = np.linspace(0.8, 1.2, 7) * odd.natural_frequency
        serial = swept_sine_response(odd, f, 1e-9, backend="reference")
        reset_kernel_info()
        fallback = swept_sine_response(odd, f, 1e-9, backend="auto")
        assert np.array_equal(serial, fallback)
        info = kernel_info()
        assert info.batch_runs == 0
        assert info.fallbacks == 1

    def test_measure_resonance_identical_fits(self):
        from repro.analysis import measure_resonance

        resonator = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        ref = measure_resonance(resonator, points=9, backend="reference")
        bat = measure_resonance(resonator, points=9, backend="auto")
        assert ref.frequency == bat.frequency
        assert ref.quality_factor == bat.quality_factor


class TestAutoResolution:
    """``auto`` resolves to ``fused``, whose engine follows AUTO_ORDER."""

    def test_auto_order_pinned(self):
        # one order for a single loop and a batch of any width
        assert AUTO_ORDER == ("columnar:cc", "fused:codegen")

    @pytest.mark.parametrize(
        "cc,expected",
        [
            (True, "fused"),   # AUTO_ORDER[0]: columnar:cc
            (False, "fused"),  # AUTO_ORDER[1]: fused:codegen
        ],
    )
    def test_resolution_order(self, monkeypatch, cc, expected):
        monkeypatch.setattr(kernel_mod, "_CC_CHECKED", True)
        monkeypatch.setattr(kernel_mod, "_CC", "cc" if cc else None)
        assert resolve_backend("auto") == expected


class TestThreadResolution:
    def test_requested_wins(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_batch_threads(4) == 4

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_batch_threads() == (os.cpu_count() or 1)

    def test_env_is_a_ceiling(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "2")
        assert kernel_batch_threads(8) == 2
        assert kernel_batch_threads(1) == 1

    def test_env_one_forces_serial(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "1")
        assert kernel_batch_threads() == 1

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "lots")
        assert kernel_batch_threads(3) == 3

    def test_clamped_to_instances_and_cap(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_batch_threads(8, n_instances=2) == 2
        assert kernel_batch_threads(500, n_instances=1000) == MAX_BATCH_THREADS
        assert kernel_batch_threads(0) == 1


class TestDoubleParallelismGuard:
    """The env ceiling caps C threads, whatever a caller requests."""

    def test_env_caps_batch_threads_end_to_end(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "1")
        reset_kernel_info()
        # as wide as the threads asked for, so only the ceiling caps them
        lengths = np.linspace(180.0, 220.0, 4)
        run_batch([build_loop(length) for length in lengths], 0.004, threads=4)
        info = kernel_info()
        assert info.batch_runs == 1
        assert info.last_batch_threads == 1


class _BatchySquare:
    """Minimal task implementing the ``batch_call`` protocol."""

    def __call__(self, p):
        return p * p

    def batch_call(self, parameters, threads=None):
        pairs = []
        for p in parameters:
            if p < 0:
                pairs.append((None, ValueError(f"negative {p}")))
            else:
                pairs.append((p * p, None))
        return pairs


class TestExecutorKernelBatch:
    def test_batch_call_protocol(self):
        batch = BatchExecutor(backend="kernel-batch").map(
            _BatchySquare(), [1, 2, 3]
        )
        assert batch.values() == [1, 4, 9]

    def test_per_task_error_capture_survives_batching(self):
        batch = BatchExecutor(backend="kernel-batch").map(
            _BatchySquare(), [1, -2, 3]
        )
        assert not batch.ok
        assert [o.ok for o in batch.outcomes] == [True, False, True]
        assert batch.outcomes[0].value == 1
        with pytest.raises(ValueError, match="negative"):
            batch.outcomes[1].unwrap()

    def test_function_without_batch_call_degrades_to_serial(self):
        batch = BatchExecutor(backend="kernel-batch").map(
            lambda p: p + 1, [1, 2, 3]
        )
        assert batch.values() == [2, 3, 4]

    def test_workers_one_still_batches(self):
        calls = []

        class Recorder(_BatchySquare):
            def batch_call(self, parameters, threads=None):
                calls.append(len(parameters))
                return super().batch_call(parameters, threads=threads)

        BatchExecutor(workers=1, backend="kernel-batch").map(
            Recorder(), [1, 2, 3]
        )
        assert calls == [3]


class TestLoopSweepTaskPlanner:
    def _sweep(self, backend, cache=None, lengths=LENGTHS):
        from repro.analysis import LoopSweepTask, run_spec_sweep

        return run_spec_sweep(
            REFERENCE_RESONANT_SENSOR,
            "cantilever.length_um",
            list(lengths),
            LoopSweepTask(duration=DURATION),
            backend=backend,
            cache=cache,
        )

    def test_kernel_batch_equals_serial(self):
        # three points and sixteen alike run the columnar megakernel
        # when a compiler is trusted, and generated Python otherwise
        grids = (LENGTHS, np.linspace(170.0, 260.0, 16))
        for lengths in grids:
            serial = self._sweep("serial", lengths=lengths)
            reset_kernel_info()
            batched = self._sweep("kernel-batch", lengths=lengths)
            assert serial.columns.keys() == batched.columns.keys()
            for key in serial.columns:
                assert serial.columns[key] == batched.columns[key], key
            info = kernel_info()
            # asked after the run: a failed build is memoized by then
            columnar_run = kernel_mod.cc_usable()
            assert info.batch_runs == 1
            assert info.batch_columnar_runs == int(columnar_run)
            assert info.batch_declined == int(not columnar_run)
            assert info.batch_instances == len(lengths)

    def test_warm_cache_skips_the_batch(self, tmp_path):
        from repro.engine import TieredCache

        cache = TieredCache(str(tmp_path))
        cold = self._sweep("kernel-batch", cache=cache)
        assert cache.cache_info().stores == len(LENGTHS)
        reset_kernel_info()
        warm = self._sweep("kernel-batch", cache=cache)
        assert cache.cache_info().hits == len(LENGTHS)
        assert cache.cache_info().stores == len(LENGTHS)  # no new stores
        assert kernel_info().batch_runs == 0  # nothing entered the batch
        for key in cold.columns:
            assert cold.columns[key] == warm.columns[key]

    def test_build_error_captured_per_instance(self):
        from repro.analysis import LoopSweepTask

        task = LoopSweepTask(duration=DURATION)
        good = REFERENCE_RESONANT_SENSOR
        pairs = task.batch_call([good, object()])
        assert pairs[0][1] is None
        assert pairs[0][0]["amplitude_m"] > 0.0
        assert pairs[1][0] is None
        assert isinstance(pairs[1][1], Exception)


class TestMultimodeBatch:
    def test_batch_matches_solo(self, geometry, make_loop):
        from repro.feedback import run_multimode_batch
        from repro.feedback.multimode import MultiModeLoop

        def make_mm():
            mm = MultiModeLoop.for_geometry(geometry, [20.0, 10.0], make_loop())
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            return mm

        solos = [make_mm().run(0.002, backend="fused") for _ in range(2)]
        records = run_multimode_batch([make_mm(), make_mm()], 0.002)
        for solo, rec in zip(solos, records):
            assert np.array_equal(solo.samples, rec.samples)
            assert solo.sample_rate == rec.sample_rate
