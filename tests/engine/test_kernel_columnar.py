"""Golden suite for the columnar SoA batch engine.

The columnar engine keeps the fused kernel's contract
(``docs/FASTPATH.md``): every waveform of every instance is
``np.array_equal`` to its run on the per-sample reference loop (a solo
fused run would be the same megakernel at width one).  This suite pins
that contract on the one C engine, each program shape's generated
megakernel, in cold processes and hot ones (stale buffers), across
reference-spec variants, liquids, modes, noise on/off, multimode
stacks, heterogeneous durations, per-instance lowering fallbacks and a
property-based sweep, at every width from one instance up — plus the
packed rows' memory, the columns' thread blocks, the no-compiler and
untrusted-compiler routes (declined batches that run the reference
loop), the once-per-shape build, the shared ``.so`` build cache, and
the profile counters surfaced through ``kernel_info()`` and ``repro
health``.
"""

from __future__ import annotations

import ctypes
import json
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

import repro.engine as engine_pkg
import repro.engine.kernel as kernel_mod
import repro.engine.kernel_columnar as columnar
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.core import ResonantCantileverSensor
from repro.engine import (
    cc_available,
    kernel_info,
    reset_compiler_probe,
    reset_kernel_info,
)
from repro.engine.kernel import OP_NAMES
from repro.feedback import run_batch
from repro.service.health import resilience_snapshot

from .test_resilience import broken_compiler

DURATION = 0.004
LENGTHS = (170.0, 185.0, 200.0, 215.0, 230.0)
WAVEFORMS = (
    "displacement",
    "bridge_voltage",
    "limiter_input",
    "limiter_output",
    "drive_voltage",
)

#: Same grid as the fused-kernel equivalence suite: geometry is swept
#: separately (LENGTHS); these change the medium, mode, and sampling.
SPEC_VARIANTS = {
    "reference": {},
    "serum": {"liquid": "serum"},
    "glycerol": {"liquid": "glycerol_40pct"},
    "mode2": {"loop.mode": 2},
    "fast-sampling": {"loop.steps_per_cycle": 80},
}

#: Mode 2 runs ~6x higher in frequency: short beams push the Reynolds
#: number past the hydrodynamic fit's validity range, so that variant
#: sweeps longer geometries.
VARIANT_LENGTHS = {"mode2": (280.0, 290.0, 300.0, 310.0, 320.0)}

#: The golden batches run on one C thread, so each batch is a single
#: instance block as wide as the batch: the engines' vectorized main
#: loops run, not only their scalar remainders.
THREADS = 1

needs_cc = pytest.mark.skipif(not cc_available(), reason="needs a C compiler")


def build_loop(length_um: float = 200.0, variant: str = "reference"):
    spec = REFERENCE_RESONANT_SENSOR.with_overrides(
        {"cantilever.length_um": length_um, **SPEC_VARIANTS[variant]}
    )
    return ResonantCantileverSensor.from_spec(spec).build_loop()


def assert_arrays_equal(a, b, label):
    """``b`` is bit-identical to reference ``a``."""
    __tracebackhide__ = True
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        pytest.fail(f"{label}: shape {b.shape} != reference {a.shape}")
    if not np.array_equal(a, b):
        pytest.fail(
            f"{label} not bit-identical "
            f"(max ulp distance {columnar.max_ulp_distance(a, b)})"
        )


def assert_records_equal(ref, rec, label):
    __tracebackhide__ = True
    for name in WAVEFORMS:
        assert_arrays_equal(
            getattr(ref, name), getattr(rec, name), f"{label}.{name}"
        )


def assert_batches_ran(n_batches, n_instances, lowering_fallbacks=0):
    """Since the last counter reset, ``n_batches`` batches of
    ``n_instances`` loops in all ran, each on its shape's megakernel —
    or, with no compiler, declined, so each of those loops ran the
    reference loop and counts as a fallback, next to the
    ``lowering_fallbacks`` loops that did not lower."""
    __tracebackhide__ = True
    info = kernel_info()
    assert info.batch_runs == n_batches
    assert info.batch_instances == n_instances
    if cc_available():
        assert info.batch_columnar_runs == n_batches
        assert info.fallbacks == lowering_fallbacks
    else:
        assert info.batch_declined == n_batches
        assert info.fallbacks == lowering_fallbacks + n_instances


@contextmanager
def no_compiler():
    """``CC`` names a compiler that does not exist: no C engine at all."""
    saved = os.environ.get("CC")
    os.environ["CC"] = "no-such-compiler"
    reset_compiler_probe()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("CC", None)
        else:
            os.environ["CC"] = saved
        reset_compiler_probe()


class TestToleranceContract:
    """The comparison tolerances harnesses import, and the ulp-distance
    reporter the bit-exact assertions print on failure."""

    def test_tolerances_pinned(self):
        assert columnar.RTOL == 1e-9
        assert columnar.ATOL_SCALE == 1e-12

    def test_ulp_distance_identical_is_zero(self):
        a = np.array([0.0, 1.0, -3.5e-9])
        assert columnar.max_ulp_distance(a, a.copy()) == 0

    def test_ulp_distance_counts_representable_steps(self):
        a = np.array([1.0])
        b = np.nextafter(a, np.inf)
        assert columnar.max_ulp_distance(a, b) == 1
        c = np.nextafter(b, np.inf)
        assert columnar.max_ulp_distance(a, c) == 2


class TestColumnarGolden:
    """Columnar vs the reference loop, bit for bit, instance for
    instance: every batch runs on its shape's megakernel.

    Cold process: each test starts with no megakernel loaded, so its
    first batch loads its shape's kernel.
    """

    ENGINE = "cc-columnar"
    HOT = False

    @pytest.fixture(autouse=True)
    def process_state(self, monkeypatch):
        if not self.HOT:
            reset_compiler_probe()
            return
        aligned_rows = columnar._aligned_rows

        def stale_rows(size):
            rows = aligned_rows(size)
            rows.fill(np.nan)
            return rows

        monkeypatch.setattr(columnar, "_aligned_rows", stale_rows)

    @pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
    def test_spec_variants(self, variant):
        lengths = VARIANT_LENGTHS.get(variant, LENGTHS)
        solos = [
            build_loop(length, variant).run(DURATION, backend="reference")
            for length in lengths
        ]
        reset_kernel_info()
        records = run_batch(
            [build_loop(length, variant) for length in lengths], DURATION,
            threads=THREADS,
        )
        assert len(records) == len(lengths)
        for length, solo, rec in zip(lengths, solos, records):
            assert_records_equal(solo, rec, f"{variant}[{length}]")
            assert np.array_equal(solo.times, rec.times)
            assert solo.sample_rate == rec.sample_rate
        assert_batches_ran(1, len(lengths))

    def test_one_instance(self):
        """A batch of one: what a chunk or a sweep with a single cache
        miss runs."""
        solo = build_loop(LENGTHS[2]).run(DURATION, backend="reference")
        reset_kernel_info()
        (record,) = run_batch([build_loop(LENGTHS[2])], DURATION,
                              threads=THREADS)
        assert_records_equal(solo, record, "one")
        assert np.array_equal(solo.times, record.times)
        assert_batches_ran(1, 1)

    def test_noise_disabled(self, make_loop):
        solos = [
            make_loop(include_noise=False).run(DURATION, backend="reference")
            for _ in range(3)
        ]
        reset_kernel_info()
        records = run_batch(
            [make_loop(include_noise=False) for _ in range(3)], DURATION,
            threads=THREADS,
        )
        for i, (solo, rec) in enumerate(zip(solos, records)):
            assert_records_equal(solo, rec, f"quiet[{i}]")
        assert_batches_ran(1, 3)

    def test_heterogeneous_durations(self):
        durations = (0.003, 0.005, 0.002, 0.004)
        lengths = LENGTHS[: len(durations)]
        solos = [
            build_loop(length).run(d, backend="reference")
            for length, d in zip(lengths, durations)
        ]
        reset_kernel_info()
        records = run_batch(
            [build_loop(length) for length in lengths], durations,
            threads=THREADS,
        )
        assert len({len(r.displacement) for r in records}) == len(durations)
        for solo, rec in zip(solos, records):
            assert len(solo.displacement) == len(rec.displacement)
            assert_records_equal(solo, rec, "hetero")
        assert_batches_ran(1, len(durations))

    def test_multimode_batch(self, geometry, make_loop):
        from repro.feedback import run_multimode_batch
        from repro.feedback.multimode import MultiModeLoop

        def make_mm():
            mm = MultiModeLoop.for_geometry(geometry, [20.0, 10.0], make_loop())
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            return mm

        solos = [make_mm().run(0.002, backend="reference") for _ in range(2)]
        pair = [make_mm(), make_mm()]
        reset_kernel_info()
        records = run_multimode_batch(pair, 0.002, threads=THREADS)
        for i, (solo, rec) in enumerate(zip(solos, records)):
            assert_arrays_equal(solo.samples, rec.samples, f"multimode[{i}]")
            assert solo.sample_rate == rec.sample_rate
        assert_batches_ran(1, 2)

    def test_per_instance_fallback(self):
        solos = [
            build_loop(length).run(DURATION, backend="reference")
            for length in LENGTHS[:3]
        ]
        loops = [build_loop(length) for length in LENGTHS[:3]]
        original = loops[1].vga.step
        loops[1].vga.step = lambda x: original(x)  # instance patch: refuses

        reset_kernel_info()
        records = run_batch(loops, DURATION, threads=THREADS)
        # with no compiler the declined batch's fallbacks come last
        reason = "patched" if cc_available() else "no C compiler"
        assert reason in kernel_info().last_fallback_reason
        assert_batches_ran(1, 2, lowering_fallbacks=1)
        assert_records_equal(solos[0], records[0], "columnar[0]")
        assert_records_equal(solos[1], records[1], "fallback[1]")
        assert_records_equal(solos[2], records[2], "columnar[2]")

    @needs_cc
    def test_compiled_engine_tag_recorded(self):
        loops = [build_loop(length) for length in LENGTHS]
        run_batch(loops, DURATION, threads=THREADS)
        for loop in loops:
            assert loop.last_kernel_info is not None
            assert loop.last_kernel_info.engine == self.ENGINE


class TestColumnarGoldenHot(TestColumnarGolden):
    """The same cases in a hot process: every buffer the kernel gets —
    staging tiles, value row and output rows — still holds an earlier
    batch's values (NaN here), as recycled heap pages can, so any sample
    the kernel reads before writing shows up as a mismatch."""

    HOT = True


@needs_cc
class TestPackedRows:
    """Each instance's waveforms hold the memory of its own samples, not
    of the batch's longest instance."""

    def test_memory_follows_samples(self):
        ns = (50_000, 40, 8)
        sample_rate = 1.0 / build_loop().resonator.timestep
        durations = [n / sample_rate for n in ns]
        solos = [build_loop().run(d, backend="reference") for d in durations]
        records = run_batch([build_loop() for _ in ns], durations,
                            threads=THREADS)
        packed = sum((n + 7) // 8 * 8 for n in ns) + 8
        for n, solo, record in zip(ns, solos, records):
            assert len(record.displacement) == n
            assert_records_equal(solo, record, f"n={n}")
            for name in WAVEFORMS:
                root = getattr(record, name)
                while root.base is not None:
                    root = root.base
                assert root.size <= packed, (
                    f"n={n}: {name} sits in a buffer of {root.size} "
                    f"doubles, more than the batch's {packed} packed ones"
                )


class TestThreadBlocks:
    """The columns dealt to C threads: every instance once, each block
    non-increasing in sample count, block sums within the largest
    instance of each other."""

    @pytest.mark.parametrize("width, threads", [(5, 2), (10, 4), (3, 8)])
    def test_blocks_cover_descend_and_balance(self, width, threads):
        ns = np.random.default_rng(width).integers(1, 50_000, width)
        ns[-1] = ns[0]  # a tie
        order, bounds = columnar._thread_blocks(ns, threads)
        assert sorted(order.tolist()) == list(range(width))
        assert (bounds[0], bounds[-1], len(bounds)) == (0, width, threads + 1)
        sums = []
        for t in range(threads):
            block = ns[order[bounds[t]:bounds[t + 1]]]
            assert np.all(np.diff(block) <= 0), f"block {t}: {block}"
            sums.append(int(block.sum()))
        assert max(sums) - min(sums) <= ns.max()

    def test_one_thread_is_one_descending_block(self):
        ns = np.array([3, 9, 9, 1, 5])
        order, bounds = columnar._thread_blocks(ns, 1)
        assert bounds.tolist() == [0, 5]
        assert order.tolist() == [1, 2, 4, 0, 3]


class TestEngineSelection:
    """The megakernel when a compiler is trusted, the reference loop
    otherwise."""

    def test_batch_engines_pinned(self):
        """A batch follows the one ``AUTO_ORDER`` a single loop follows:
        there is no batch-only route order."""
        assert kernel_mod.AUTO_ORDER == ("columnar:cc", "reference")
        assert not hasattr(kernel_mod, "BATCH_AUTO_ORDER")
        assert "BATCH_AUTO_ORDER" not in dir(engine_pkg)

    @needs_cc
    def test_wide_auto_batch_selects_columnar(self):
        loops = [build_loop(length) for length in np.linspace(170, 230, 8)]
        reset_kernel_info()
        run_batch(loops, 0.002)
        info = kernel_info()
        assert info.batch_columnar_runs == 1
        assert info.batch_declined == 0
        assert info.batch_runs == info.batch_columnar_runs + info.batch_declined
        for loop in loops:
            assert loop.last_kernel_info.engine.startswith("cc-columnar")

    def test_batch_declined_runs_reference(self):
        """With no C compiler a batch declines, and each of its loops
        runs the reference loop: bit-exact, counted once in
        ``batch_runs``, once in ``batch_declined`` and once per loop in
        ``fallbacks`` — the regression pin for declined batches."""
        lengths = LENGTHS[:3]
        solos = [
            build_loop(length).run(DURATION, backend="reference")
            for length in lengths
        ]
        with no_compiler():
            reset_kernel_info()
            loops = [build_loop(length) for length in lengths]
            records = run_batch(loops, DURATION)
            info = kernel_info()
        assert info.batch_runs == 1
        assert info.batch_declined == 1
        assert info.batch_columnar_runs == 0
        assert info.last_batch_engine == "solo"
        assert info.degrades == 0  # no compiler is a platform fact
        assert info.runs.get("fused", 0) == 0
        assert info.fallbacks == len(lengths)
        assert "no C compiler" in info.last_fallback_reason
        for length, solo, rec in zip(lengths, solos, records):
            assert_records_equal(solo, rec, f"declined[{length}]")
        for loop in loops:
            assert loop.last_kernel_info is None
        assert resilience_snapshot()["batch_declined"] == 1

    def test_untrusted_compiler_declines_to_solo(self, tmp_path):
        """A columnar batch whose C engine cannot build declines: each
        loop runs the reference loop, bit-exact, and the counters say
        why."""
        lengths = LENGTHS[:3]
        solos = [
            build_loop(length).run(0.002, backend="reference")
            for length in lengths
        ]
        with broken_compiler(tmp_path):
            loops = [build_loop(length) for length in lengths]
            reset_kernel_info()
            records = run_batch(loops, 0.002)
            info = kernel_info()
        for length, solo, rec in zip(lengths, solos, records):
            assert_records_equal(solo, rec, f"untrusted[{length}]")
        for loop in loops:
            assert loop.last_kernel_info is None
        assert info.batch_runs == info.batch_declined == 1
        assert info.last_batch_engine == "solo"
        assert info.fallbacks == len(lengths)
        assert info.degrades == 1  # a failed build is a runtime reason
        assert "compilation failed" in info.last_degrade_reason


class TestFusionProfile:
    """Profile counters and the once-per-shape megakernel build."""

    def test_op_samples_histogram(self):
        reset_kernel_info()
        build_loop().run(DURATION, backend="fused")
        hist = kernel_info().op_samples
        if not cc_available():
            assert hist == {}, "a reference-loop run runs no kernel op"
            return
        assert hist, "a solo fused run must feed the op profile"
        assert set(hist) <= set(OP_NAMES)
        assert all(v > 0 for v in hist.values())
        assert hist.get("SOS", 0) > 0  # every loop has biquad sections

    @needs_cc
    def test_megakernel_built_once_per_shape(self, monkeypatch):
        """A shape's first batch runs its megakernel, and the next batch
        of that shape reuses it without building again."""
        reset_compiler_probe()
        builds = []
        build = columnar._build_so_tuned

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(columnar, "_build_so_tuned", counting_build)
        reset_kernel_info()
        loops = [build_loop(length) for length in LENGTHS]
        run_batch(loops, 0.002)
        assert kernel_info().batch_columnar_runs == 1
        assert len(builds) == 1
        for loop in loops:
            assert loop.last_kernel_info.engine == "cc-columnar"
        run_batch([build_loop(length) for length in LENGTHS], 0.002)
        assert kernel_info().batch_columnar_runs == 2
        assert len(builds) == 1

    def test_health_snapshot_surfaces_columnar_counters(self):
        reset_kernel_info()
        run_batch([build_loop(length) for length in LENGTHS], 0.002)
        snap = resilience_snapshot()
        for key in ("batch_declined", "batch_columnar_runs", "op_samples"):
            assert key in snap
        assert snap["batch_columnar_runs"] == (1 if cc_available() else 0)
        json.dumps(snap)  # the whole snapshot must stay JSON-clean


class TestBuildCache:
    """The sha-keyed ``.so`` cache every C engine builds through."""

    @needs_cc
    def test_two_threads_build_one_new_source(self, tmp_path, monkeypatch):
        """Two threads building one new source at once both get a
        loadable library, and no build file is left behind."""
        assert kernel_mod.cc_available()  # re-probe after any reset
        wrapper = tmp_path / "slow-cc"
        wrapper.write_text(
            f'#!/bin/sh\n"{kernel_mod._CC}" "$@" && sleep 0.5\n'
        )
        wrapper.chmod(0o755)
        cache = tmp_path / "cache"
        monkeypatch.setattr(kernel_mod, "_CC", str(wrapper))
        monkeypatch.setattr(kernel_mod, "_cc_cache_dir", lambda: str(cache))
        source = "double probe_twice(double x) { return 2.0 * x; }\n"
        barrier = threading.Barrier(2, timeout=30)
        libs, errors = [], []

        def build():
            barrier.wait()
            try:
                libs.append(kernel_mod._cc_compile_so(
                    source, ["-O0", "-fPIC", "-shared"], "probe"
                ))
            except Exception as err:  # noqa: BLE001 - reported below
                errors.append(err)

        threads = [threading.Thread(target=build) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert len(libs) == 2
        for lib in libs:
            lib.probe_twice.restype = ctypes.c_double
            lib.probe_twice.argtypes = (ctypes.c_double,)
            assert lib.probe_twice(1.5) == 3.0
        leftovers = sorted(p.name for p in cache.iterdir())
        assert len(leftovers) == 1 and leftovers[0].endswith(".so")


pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestPropertyAgreement:
    """Any geometry mix: columnar bit-identical to the reference loop."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.floats(min_value=165.0, max_value=235.0,
                              allow_nan=False),
                    min_size=2, max_size=4))
    def test_columnar_agrees_with_reference(self, lengths):
        solos = [
            build_loop(length).run(0.0015, backend="reference")
            for length in lengths
        ]
        reset_kernel_info()
        records = run_batch([build_loop(length) for length in lengths],
                            0.0015)
        for length, solo, rec in zip(lengths, solos, records):
            assert_records_equal(solo, rec, f"prop[{length:.1f}]")
        assert_batches_ran(1, len(lengths))
