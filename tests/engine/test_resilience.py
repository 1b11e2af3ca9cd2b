"""Fault-injection & resilient-execution suite.

Every scenario injects a deterministic fault through a
:class:`repro.engine.FaultPlan` and asserts one of the two acceptable
outcomes: the stack *recovers bit-identically* (``np.array_equal``
against the fault-free run) or it *degrades visibly* (a flagged
:class:`~repro.core.ChannelHealth`, a counted fallback, an opened
breaker) — never raising out of a sweep, never stalling past its
watchdog, never silently returning damaged numbers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.biochem import AssayProtocol, FunctionalizedSurface, get_analyte
from repro.core import (
    SUPPLY_RAIL,
    BiosensorChip,
    ChannelConfig,
    HealthReport,
    ResonantArrayChip,
    diagnose_loop_record,
    diagnose_trace,
)
from repro.engine import (
    BatchExecutor,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    ResultCache,
    RetryPolicy,
    breaker_report,
    cc_available,
    cc_usable,
    get_breaker,
    inject_faults,
    kernel_info,
    poll_fault,
    quarantined_backends,
    reset_breakers,
    reset_compiler_probe,
    reset_kernel_info,
)
from repro.engine.resilience import corruption_offsets, fire_fault
from repro.errors import (
    FaultInjectionError,
    LoweringError,
    WatchdogTimeout,
)
from repro.feedback import run_batch, startup_check

from .test_kernel_batch import (
    DURATION,
    LENGTHS,
    assert_records_equal,
    build_loop,
)


@pytest.fixture(autouse=True)
def _clean_engine_state():
    """Breakers and kernel counters are process globals; isolate tests."""
    reset_breakers()
    reset_kernel_info()
    yield
    reset_breakers()
    reset_kernel_info()


def square(x):
    return x * x


def tenx(x):
    return x * 10


# -- injector mechanics -------------------------------------------------------


class TestFaultInjector:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="not.a.site")

    def test_bad_count_and_at_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="executor.task", count=0)
        with pytest.raises(ValueError):
            FaultSpec(site="executor.task", at=-1)

    def test_no_plan_poll_is_noop(self):
        assert poll_fault("executor.task") is None
        assert fire_fault("executor.task") is None

    def test_count_exhausts(self):
        with inject_faults(FaultPlan.single("executor.task", count=2)) as inj:
            assert poll_fault("executor.task") is not None
            assert poll_fault("executor.task") is not None
            assert poll_fault("executor.task") is None  # budget spent
        assert inj.fired["executor.task"] == 2
        assert inj.polls["executor.task"] == 3

    def test_at_targets_occurrence(self):
        plan = FaultPlan.single("cache.entry", at=2)
        with inject_faults(plan):
            assert poll_fault("cache.entry") is None   # occurrence 0
            assert poll_fault("cache.entry") is None   # occurrence 1
            assert poll_fault("cache.entry") is not None  # occurrence 2
            assert poll_fault("cache.entry") is None   # exhausted

    def test_sites_are_independent(self):
        with inject_faults(FaultPlan.single("chip.stuck", kind="device")):
            assert poll_fault("chip.bridge-open") is None
            assert poll_fault("chip.stuck") is not None

    def test_fire_applies_raise(self):
        with inject_faults(FaultPlan.single("executor.task")):
            with pytest.raises(FaultInjectionError, match="executor.task"):
                fire_fault("executor.task")

    def test_nested_activation_rejected(self):
        with inject_faults(FaultPlan.single("executor.task")):
            with pytest.raises(FaultInjectionError, match="already active"):
                with inject_faults(FaultPlan.single("cache.entry")):
                    pass  # pragma: no cover

    def test_plan_clears_on_exit(self):
        with inject_faults(FaultPlan.single("executor.task")):
            pass
        assert poll_fault("executor.task") is None


# -- deterministic retry ------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        p = RetryPolicy(retries=3, seed=7)
        assert p.delays(key="x") == RetryPolicy(retries=3, seed=7).delays(key="x")
        assert p.delays(key="x") != p.delays(key="y")
        assert p.delays(key="x") != RetryPolicy(retries=3, seed=8).delays(key="x")

    def test_capped_exponential_without_jitter(self):
        p = RetryPolicy(
            retries=5, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert p.delays() == (0.1, 0.2, 0.4, 0.5, 0.5)

    def test_jitter_bounded(self):
        p = RetryPolicy(retries=4, base_delay=0.1, jitter=0.25, max_delay=1.0)
        for attempt, d in enumerate(p.delays()):
            base = min(1.0, 0.1 * 2.0**attempt)
            assert base <= d <= base * 1.25

    def test_run_retries_then_succeeds(self):
        p = RetryPolicy(retries=3, seed=1)
        attempts, sleeps = [], []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("boom")
            return "ok"

        assert p.run(flaky, sleep=sleeps.append, key="k") == "ok"
        assert len(attempts) == 3
        assert sleeps == [p.delay(0, "k"), p.delay(1, "k")]

    def test_run_exhausts_and_reraises(self):
        p = RetryPolicy(retries=1)

        def dead():
            raise RuntimeError("still dead")

        with pytest.raises(RuntimeError, match="still dead"):
            p.run(dead, sleep=lambda _: None)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        b = CircuitBreaker(name="t", threshold=3)
        b.record_failure("one")
        b.record_failure("two")
        assert b.allow()
        b.record_failure("three")
        assert not b.allow() and b.open
        assert b.trips == 1
        assert b.info().last_failure_reason == "three"

    def test_success_clears_streak(self):
        b = CircuitBreaker(name="t", threshold=2)
        b.record_failure("x")
        b.record_success()
        b.record_failure("x")
        assert b.allow()  # streak broken: 1, not 2

    def test_reset_closes(self):
        b = CircuitBreaker(name="t", threshold=1)
        b.record_failure("x")
        assert b.open
        b.reset()
        assert b.allow()
        assert b.trips == 1  # history survives reset

    def test_registry_and_report(self):
        assert get_breaker("engine-x", threshold=1) is get_breaker("engine-x")
        get_breaker("engine-x").record_failure("dead")
        assert "engine-x" in breaker_report()
        assert breaker_report()["engine-x"].open
        assert quarantined_backends() == ("engine-x",)


# -- executor: crash, retry, watchdog ----------------------------------------


class TestExecutorCrashRetry:
    def test_injected_crash_recovered_parallel_equals_serial(self):
        baseline = BatchExecutor(workers=1, backend="serial").map(
            square, range(6)
        ).values()
        with inject_faults(FaultPlan.single("executor.task", at=2)) as inj:
            result = BatchExecutor(backend="serial", retry=1).map(
                square, range(6)
            )
        assert inj.fired["executor.task"] == 1
        assert result.ok
        assert result.values() == baseline
        assert result.outcomes[2].retries == 1
        assert result.total_retries == 1

    def test_crash_without_retry_is_captured_not_raised(self):
        with inject_faults(FaultPlan.single("executor.task", at=1)):
            result = BatchExecutor(backend="serial").map(square, range(4))
        assert not result.ok
        [failed] = result.errors()
        assert failed.index == 1
        assert isinstance(failed.error, FaultInjectionError)
        for o in result.outcomes:
            if o.index != 1:
                assert o.value == o.index**2

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(retries=2, seed=3)
        executor = BatchExecutor(backend="serial", retry=policy)
        sleeps: list[float] = []
        executor._sleep = sleeps.append
        # occurrences 1 and 2 of round 0 -> tasks 1 and 2 crash once
        with inject_faults(FaultPlan.single("executor.task", at=1, count=2)):
            result = executor.map(square, range(6))
        assert result.ok
        assert sleeps == [policy.delay(0, key=2)]
        assert result.total_retries == 2

    def test_exhausted_budget_keeps_last_error(self):
        # the fault out-lives the retry budget: 1 retry, 2 planned hits
        with inject_faults(
            FaultPlan(faults=(
                FaultSpec(site="executor.task", at=0),
                FaultSpec(site="executor.task", at=3),
            ))
        ):
            result = BatchExecutor(workers=1, backend="serial", retry=1).map(
                square, range(3)
            )
        assert not result.ok
        assert isinstance(result.outcomes[0].error, FaultInjectionError)
        assert result.outcomes[0].retries == 1


class TestExecutorWatchdog:
    def test_hang_abandoned_and_retried(self):
        # the default backend: a set timeout still runs the watchdog
        start = time.monotonic()
        plan = FaultPlan.single(
            "executor.task", kind="hang", payload=1.0, at=1
        )
        with inject_faults(plan):
            result = BatchExecutor(timeout=0.25, retry=1).map(
                square, range(4)
            )
        assert result.ok
        assert result.values() == [x * x for x in range(4)]
        assert result.outcomes[1].retries == 1
        assert time.monotonic() - start < 5.0  # bounded, never stalls

    @pytest.mark.parametrize("retry", [None, 1])
    def test_hang_times_out_only_the_hung_task(self, retry):
        """Each deadline counts from its own task's start, so the tasks
        queued behind a hang run and settle on their first try."""
        plan = FaultPlan.single(
            "executor.task", kind="hang", payload=1.0, at=1
        )
        with inject_faults(plan):
            result = BatchExecutor(
                backend="serial", timeout=0.3, retry=retry
            ).map(square, range(5))
        retried = retry is not None
        assert [o.ok for o in result.outcomes] == [True, retried, True, True, True]
        assert [o.retries for o in result.outcomes] == [0, int(retried), 0, 0, 0]
        if not retried:
            assert isinstance(result.outcomes[1].error, WatchdogTimeout)

    def test_timeout_honoured_on_the_batch_route(self):
        """A spec sweep on ``kernel-batch`` (the default) raises the
        watchdog's error well before the hung point would have finished."""
        from repro.analysis import LoopSweepTask, run_spec_sweep
        from repro.config import REFERENCE_RESONANT_SENSOR

        def spec_sweep(**kwargs):
            return run_spec_sweep(
                REFERENCE_RESONANT_SENSOR, "cantilever.length_um",
                list(LENGTHS), LoopSweepTask(duration=DURATION),
                backend="kernel-batch", **kwargs,
            )

        spec_sweep()  # warm the kernel build and the bridge-noise memo
        plan = FaultPlan.single(
            "executor.task", kind="hang", payload=1.0, at=1
        )
        start = time.monotonic()
        with inject_faults(plan), pytest.raises(WatchdogTimeout):
            spec_sweep(timeout=0.3)
        assert time.monotonic() - start < 0.9

    def test_abandoned_hang_never_calls_its_task(self):
        """Once the watchdog abandons an injected hang, the hang ends
        without the real call: nothing of the task runs after the
        sweep has moved on."""
        calls: list[int] = []

        def spy(x):
            calls.append(x)
            return x * x

        plan = FaultPlan.single(
            "executor.task", kind="hang", payload=0.5, at=1
        )
        start = time.monotonic()
        with inject_faults(plan):
            result = BatchExecutor(backend="serial", timeout=0.1).map(
                spy, range(3)
            )
        time.sleep(max(0.0, start + 1.0 - time.monotonic()))  # hang over
        assert isinstance(result.outcomes[1].error, WatchdogTimeout)
        assert calls == [0, 2]

    @pytest.mark.parametrize("hang", ["injected", "task"])
    def test_abandoned_hang_does_not_hold_the_process_at_exit(self, hang):
        """A 30 s hang the watchdog abandoned — an injected one, or the
        task's own call — does not keep the process alive."""
        script = textwrap.dedent(f"""
            import time
            from repro.engine import BatchExecutor, FaultPlan, inject_faults

            def task(x):
                if x == 1 and {hang == "task"}:
                    time.sleep(30.0)
                return x

            plan = FaultPlan.single(
                "executor.task", kind="hang", payload=30.0,
                at=1 if {hang == "injected"} else 99,
            )
            with inject_faults(plan):
                result = BatchExecutor(timeout=0.3).map(task, range(3))
            print([type(o.error).__name__ for o in result.outcomes])
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=15.0,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[0] == (
            "['NoneType', 'WatchdogTimeout', 'NoneType']"
        )

    def test_timeout_without_retry_is_watchdog_outcome(self):
        plan = FaultPlan.single(
            "executor.task", kind="hang", payload=1.0, at=0
        )
        with inject_faults(plan):
            result = BatchExecutor(workers=1, backend="serial", timeout=0.2).map(
                square, [7]
            )
        [outcome] = result.outcomes
        assert isinstance(outcome.error, WatchdogTimeout)
        assert "watchdog" in str(outcome.error)


# -- cache corruption ---------------------------------------------------------


class TestCacheCorruption:
    def test_injected_corruption_evicted_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        calls: list[int] = []

        def counted(x, _calls=calls):
            _calls.append(x)
            return tenx(x)

        key = cache.key_for(tenx, 4)
        cache.put(key, tenx(4))
        assert cache.get(key) == 40  # intact entry hits
        with inject_faults(
            FaultPlan.single("cache.entry", kind="corrupt", seed=11)
        ) as inj:
            assert cache.get(key) is cache.MISS
        assert inj.fired["cache.entry"] == 1
        info = cache.cache_info()
        assert info.corruptions == 1
        assert info.misses == 1
        # evicted: a recompute-and-store round-trips cleanly again
        cache.put(key, tenx(4))
        assert cache.get(key) == 40
        assert calls == []  # helper never needed (explicit puts)

    def test_truncation_fault_also_recovers(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key_for(tenx, 2)
        cache.put(key, 20)
        # any non-"corrupt" kind truncates the file to half: the
        # killed-mid-write shape
        with inject_faults(FaultPlan.single("cache.entry", kind="device")):
            assert cache.get(key) is cache.MISS
        assert cache.cache_info().corruptions == 1
        assert not cache._path_for(key).exists()  # evicted

    def test_verify_scan_counts_and_evicts(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        good = cache.key_for(tenx, 1)
        bad = cache.key_for(tenx, 2)
        cache.put(good, 10)
        cache.put(bad, 20)
        raw = cache._path_for(bad).read_bytes()
        cache._path_for(bad).write_bytes(raw[: len(raw) // 2])
        assert cache.verify(evict=True) == (1, 1)
        assert cache.get(good) == 10
        assert cache.get(bad) is cache.MISS
        # verify is an audit: the damaged entry it evicted is a plain
        # miss now, not another corruption
        assert cache.cache_info().corruptions == 0


# -- kernel: compile faults, quarantine, degrade ------------------------------


needs_cc = pytest.mark.skipif(
    not cc_available(), reason="no C compiler on this machine"
)


@needs_cc
class TestKernelCompileFault:
    def test_compile_fault_degrades_bit_identically(self):
        baseline = build_loop().run(DURATION, backend="fused")
        reset_kernel_info()
        with inject_faults(FaultPlan.single("kernel.compile")) as inj:
            record = build_loop().run(DURATION, backend="fused")
        assert inj.fired["kernel.compile"] == 1
        assert_records_equal(baseline, record, "compile-faulted")
        info = kernel_info()
        assert info.degrades == 1
        assert "kernel.compile" in info.last_degrade_reason
        assert get_breaker("kernel-cc").consecutive == 1

    def test_repeated_failures_quarantine_the_engine(self):
        baseline = build_loop().run(DURATION, backend="fused")
        threshold = get_breaker("kernel-cc").threshold
        reset_kernel_info()
        with inject_faults(
            FaultPlan.single("kernel.compile", count=threshold)
        ):
            for _ in range(threshold):
                build_loop().run(DURATION, backend="fused")
        assert not cc_usable()
        assert quarantined_backends() == ("kernel-cc",)
        info = kernel_info()
        assert info.cc_quarantined
        assert info.degrades == threshold
        # quarantined: the next run (no fault armed) degrades without
        # even trying the C engine, still bit-identical
        record = build_loop().run(DURATION, backend="fused")
        assert_records_equal(baseline, record, "quarantined")
        assert kernel_info().degrades == threshold + 1
        assert "quarantined" in kernel_info().last_degrade_reason
        reset_breakers()
        assert cc_usable()

    def test_batch_compile_fault_degrades_bit_identically(self):
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in LENGTHS
        ]
        reset_kernel_info()
        with inject_faults(FaultPlan.single("kernel.compile")):
            records = run_batch(
                [build_loop(length) for length in LENGTHS], DURATION
            )
        for length, solo, rec in zip(LENGTHS, solos, records):
            assert_records_equal(solo, rec, f"batch[{length}]")
        assert kernel_info().degrades >= 1


@contextmanager
def broken_compiler(tmp_path):
    """CC=/bin/false with the disk-cached .so stashed: every build fails."""
    import pathlib
    import shutil

    from repro.engine.kernel import _cc_cache_dir

    cache = pathlib.Path(_cc_cache_dir())
    stashed = []
    if cache.is_dir():
        for so in cache.glob("kernel-*.so"):
            target = tmp_path / so.name
            shutil.move(str(so), str(target))
            stashed.append((so, target))
    saved = os.environ.get("CC")
    os.environ["CC"] = "/bin/false"
    reset_compiler_probe()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("CC", None)
        else:
            os.environ["CC"] = saved
        for so, target in stashed:
            shutil.move(str(target), str(so))
        reset_compiler_probe()


@needs_cc
class TestBrokenCompiler:
    def test_cc_false_build_failure_memoized_and_bit_identical(self, tmp_path):
        # the fault-free reference runs with the real compiler
        baseline = build_loop().run(DURATION, backend="fused")
        with broken_compiler(tmp_path):
            reset_kernel_info()
            # /bin/false resolves as a compiler, but every build fails
            assert cc_available()
            record = build_loop().run(DURATION, backend="fused")
            assert_records_equal(baseline, record, "broken-cc")
            info = kernel_info()
            assert info.cc_build_error is not None
            assert not cc_usable()
            # memoized: a second run degrades again without re-probing
            build_loop().run(DURATION, backend="fused")
            assert kernel_info().degrades >= 2


# -- lowering fault mid-batch -------------------------------------------------


class TestLowerFaultMidBatch:
    def test_faulted_instance_falls_back_without_poisoning_batch(self):
        solo_fused = {
            length: build_loop(length).run(DURATION, backend="fused")
            for length in (LENGTHS[0], LENGTHS[2])
        }
        solo_reference = build_loop(LENGTHS[1]).run(
            DURATION, backend="reference"
        )
        reset_kernel_info()
        with inject_faults(FaultPlan.single("kernel.lower", at=1)) as inj:
            records = run_batch(
                [build_loop(length) for length in LENGTHS], DURATION
            )
        assert inj.fired["kernel.lower"] == 1
        assert_records_equal(solo_fused[LENGTHS[0]], records[0], "batch[0]")
        assert_records_equal(solo_reference, records[1], "batch[1](fallback)")
        assert_records_equal(solo_fused[LENGTHS[2]], records[2], "batch[2]")
        info = kernel_info()
        assert info.fallbacks == 1
        assert "kernel.lower" in info.last_fallback_reason

    def test_solo_lower_fault_raises_lowering_error_on_explicit_fused(self):
        loop = build_loop()
        with inject_faults(FaultPlan.single("kernel.lower")):
            with pytest.raises(LoweringError, match="kernel.lower"):
                loop._lower_kernel(1.0)


# -- loop record poisoning ----------------------------------------------------


class TestLoopRecordFault:
    def test_nan_poison_is_deterministic_and_diagnosed(self):
        with inject_faults(
            FaultPlan.single("loop.record", kind="nan", seed=5)
        ):
            record = build_loop().run(DURATION, backend="reference")
        n = len(record.displacement)
        offsets = corruption_offsets(5, n, 4, "loop.record")
        assert all(np.isnan(record.displacement[i]) for i in offsets)
        assert all(np.isnan(record.bridge_voltage[i]) for i in offsets)
        assert np.isnan(record.displacement).sum() <= 4
        verdict = diagnose_loop_record(record, channel=0, label="sensing")
        assert verdict.status == "failed"
        assert verdict.reason == "diverged"

    def test_inf_variant(self):
        with inject_faults(
            FaultPlan.single("loop.record", kind="inf", seed=5, payload=2)
        ):
            record = build_loop().run(DURATION, backend="reference")
        assert np.isinf(record.displacement).any()
        assert not diagnose_loop_record(record, channel=0).ok


# -- array assay: device faults, failed channels ------------------------------


CHANNEL_PLAN = [
    ChannelConfig(analyte=get_analyte("igg"), label="anti-IgG"),
    ChannelConfig(analyte=get_analyte("crp"), label="anti-CRP"),
    ChannelConfig(analyte=None, label="ref1"),
    ChannelConfig(analyte=None, label="ref2"),
]
PROTOCOL = AssayProtocol.injection(10e-9, baseline=30, exposure=60, wash=30)


def run_assay_chip(fabricated, **kwargs):
    chip = BiosensorChip(channels=CHANNEL_PLAN, cantilever=fabricated)
    chip.calibrate()
    return chip.run_array_assay(
        PROTOCOL, sample_interval=10.0, include_noise=True, **kwargs
    )


class TestArrayDeviceFaults:
    def test_open_bridge_rails_one_channel_only(self, fabricated):
        baseline = run_assay_chip(fabricated)
        with inject_faults(
            FaultPlan.single("chip.bridge-open", kind="device", at=1)
        ):
            result = run_assay_chip(fabricated)
        assert np.all(result.channel_outputs[1] == SUPPLY_RAIL)
        verdict = result.health[1]
        assert verdict.status == "degraded"
        assert verdict.reason == "railed"
        for ch in (0, 2, 3):
            assert np.array_equal(
                result.channel_outputs[ch], baseline.channel_outputs[ch]
            )
            assert result.health[ch].ok
        assert result.health.worst == "degraded"
        assert result.health.ok_channels() == (0, 2, 3)

    def test_stuck_beam_flagged_frozen_flat(self, fabricated):
        baseline = run_assay_chip(fabricated)
        with inject_faults(
            FaultPlan.single("chip.stuck", kind="device", at=2)
        ):
            result = run_assay_chip(fabricated)
        trace = result.channel_outputs[2]
        assert np.ptp(trace) == 0.0
        assert result.health[2].reason == "stuck"
        for ch in (0, 1, 3):
            assert np.array_equal(
                result.channel_outputs[ch], baseline.channel_outputs[ch]
            )
        assert "stuck" in result.health.summary()

    def test_crashed_channel_fails_flagged_others_intact(self, fabricated):
        baseline = run_assay_chip(fabricated)
        with inject_faults(FaultPlan.single("executor.task", at=0)):
            result = run_assay_chip(fabricated)
        assert result.health[0].status == "failed"
        assert result.health[0].reason == "task-error"
        assert np.isnan(result.channel_outputs[0]).all()
        for ch in (1, 2, 3):
            assert np.array_equal(
                result.channel_outputs[ch], baseline.channel_outputs[ch]
            )
        # the referenced() difference math still works off the intact
        # reference beams
        assert np.isfinite(result.referenced(1)).all()

    def test_retry_recovers_crashed_channel_bit_identically(self, fabricated):
        baseline = run_assay_chip(fabricated)
        with inject_faults(FaultPlan.single("executor.task", at=0)):
            result = run_assay_chip(fabricated, retry=1)
        assert result.health.ok
        assert result.health[0].retries == 1
        for ch in range(4):
            assert np.array_equal(
                result.channel_outputs[ch], baseline.channel_outputs[ch]
            )

    def test_all_channels_failed_still_returns_shaped_result(self, fabricated):
        with inject_faults(FaultPlan.single("executor.task", count=4)):
            result = run_assay_chip(fabricated)
        assert result.health.worst == "failed"
        assert len(result.times) > 1
        for ch in range(4):
            assert np.isnan(result.channel_outputs[ch]).all()


# -- resonant chip: start-up faults -------------------------------------------


class TestNoStartupFault:
    @pytest.fixture(scope="class")
    def resonant_chip(self, geometry, water):
        surface = FunctionalizedSurface(get_analyte("streptavidin"), geometry)
        return ResonantArrayChip(surface, water)

    def test_sensing_beam_starved_reference_survives(self, resonant_chip):
        f_s0, f_r0 = resonant_chip.measure_frequencies(gate_time=0.02, gates=2)
        with inject_faults(
            FaultPlan.single("loop.no-startup", kind="device", at=0)
        ):
            f_s, f_r = resonant_chip.measure_frequencies(
                gate_time=0.02, gates=2
            )
        assert np.isnan(f_s)
        assert f_r == f_r0  # the healthy beam's count is untouched
        health = resonant_chip.last_health
        assert isinstance(health, HealthReport)
        assert health[0].status == "degraded"
        assert health[0].reason == "no-oscillation"
        assert health[1].ok
        # fault exhausted: the next measurement is healthy again
        f_s2, f_r2 = resonant_chip.measure_frequencies(gate_time=0.02, gates=2)
        assert (f_s2, f_r2) == (f_s0, f_r0)
        assert resonant_chip.last_health.ok

    def test_reference_beam_starved(self, resonant_chip):
        f_s0, _ = resonant_chip.measure_frequencies(gate_time=0.02, gates=2)
        with inject_faults(
            FaultPlan.single("loop.no-startup", kind="device", at=1)
        ):
            f_s, f_r = resonant_chip.measure_frequencies(
                gate_time=0.02, gates=2
            )
        assert f_s == f_s0
        assert np.isnan(f_r)
        assert resonant_chip.last_health[1].reason == "no-oscillation"


# -- small-signal start-up verdict --------------------------------------------


class TestStartupCheck:
    def test_healthy_loop_passes(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.auto_gain(fs)
        assert startup_check(loop, fs) == (True, None)

    def test_gain_starved_loop_reports_reason(self, make_loop):
        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        loop.auto_gain(fs)
        loop.displacement_to_stress = loop.displacement_to_stress * 1e-9
        ok, reason = startup_check(loop, fs)
        assert not ok
        assert reason == "insufficient-loop-gain"

    def test_broken_phase_reports_reason(self, make_loop):
        from repro.circuits import Passthrough

        loop = make_loop()
        fs = 1.0 / loop.resonator.timestep
        stub = Passthrough()
        stub.response = lambda f, fs: np.ones(len(np.atleast_1d(f)))
        stub.prepare = lambda fs: None
        loop.phase_lead = stub
        ok, reason = startup_check(loop, fs)
        assert not ok
        assert reason == "no-zero-phase-crossing"


# -- health vocabulary --------------------------------------------------------


class TestHealthDiagnostics:
    def test_trace_verdicts(self):
        rail = SUPPLY_RAIL
        assert diagnose_trace(np.array([0.1, 0.2, 0.3])).ok
        railed = diagnose_trace(np.full(8, rail), rail=rail)
        assert (railed.status, railed.reason) == ("degraded", "railed")
        stuck = diagnose_trace(np.full(8, 0.7), expect_variation=True)
        assert (stuck.status, stuck.reason) == ("degraded", "stuck")
        # noise-free channels are legitimately flat: no expect_variation,
        # no stuck verdict
        assert diagnose_trace(np.full(8, 0.7)).ok
        diverged = diagnose_trace(np.array([0.1, np.nan, 0.3]))
        assert (diverged.status, diverged.reason) == ("failed", "diverged")

    def test_report_aggregation(self):
        from repro.core import ChannelHealth

        report = HealthReport(channels=(
            ChannelHealth(channel=0),
            ChannelHealth(channel=1, status="degraded", reason="railed"),
            ChannelHealth(channel=2, status="failed", reason="timeout"),
        ))
        assert not report.ok
        assert report.worst == "failed"
        assert report.ok_channels() == (0,)
        assert [h.channel for h in report.sick()] == [1, 2]
        assert "1 degraded" in report.summary()
        with pytest.raises(KeyError):
            report[9]

    def test_bad_status_rejected(self):
        from repro.core import ChannelHealth

        with pytest.raises(ValueError, match="unknown health status"):
            ChannelHealth(channel=0, status="wounded")
