"""``run_batch`` synthesizes bridge noise on a pool as wide as its kernel
batch, and stays bit-identical to solo fused runs."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from scipy.fft import next_fast_len

import repro.feedback.loop as loop_mod
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.core import ResonantCantileverSensor
from repro.engine import KERNEL_THREADS_ENV
from repro.errors import SignalError
from repro.feedback import run_batch

DURATION = 0.006
LENGTHS = (180.0, 200.0, 220.0, 240.0)
WAVEFORMS = (
    "displacement",
    "bridge_voltage",
    "limiter_input",
    "limiter_output",
    "drive_voltage",
)


def build_loop(length_um: float):
    spec = REFERENCE_RESONANT_SENSOR.with_overrides(
        {"cantilever.length_um": length_um}
    )
    return ResonantCantileverSensor.from_spec(spec).build_loop()


def samples(loop) -> int:
    return max(2, int(round(DURATION / loop.resonator.timestep)))


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty noise memo, so every loop synthesizes; no env ceiling."""
    monkeypatch.setattr(loop_mod, "_NOISE_MEMO", OrderedDict())
    monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)


@pytest.fixture
def synthesis_threads(fresh_memo, monkeypatch):
    """Thread idents of every ``amplifier_input_noise`` call."""
    idents = []
    synthesize = loop_mod.amplifier_input_noise

    def spy(*args):
        idents.append(threading.get_ident())
        return synthesize(*args)

    monkeypatch.setattr(loop_mod, "amplifier_input_noise", spy)
    return idents


class TestNoisePool:
    def test_pool_synthesizes_off_the_calling_thread(self, synthesis_threads):
        run_batch([build_loop(length) for length in LENGTHS], DURATION,
                  threads=2)
        assert len(synthesis_threads) == len(LENGTHS)
        assert threading.get_ident() not in synthesis_threads

    def test_every_loop_lowers_before_synthesis_starts(
        self, fresh_memo, monkeypatch
    ):
        """The pure-Python lowering runs alone: no pool thread
        synthesizes while it holds the GIL."""
        loops = [build_loop(length) for length in LENGTHS]
        events = []
        lower = loop_mod.ResonantFeedbackLoop._lower_kernel
        synthesize = loop_mod.amplifier_input_noise

        def lower_spy(self, *args):
            kernel = lower(self, *args)
            events.append("lowered")
            return kernel

        def synthesis_spy(*args):
            events.append("synthesis")
            return synthesize(*args)

        monkeypatch.setattr(loop_mod.ResonantFeedbackLoop, "_lower_kernel",
                            lower_spy)
        monkeypatch.setattr(loop_mod, "amplifier_input_noise", synthesis_spy)
        run_batch(loops, DURATION, threads=2)
        assert events == (
            ["lowered"] * len(LENGTHS) + ["synthesis"] * len(LENGTHS)
        )

    def test_one_thread_synthesizes_inline(self, synthesis_threads):
        run_batch([build_loop(length) for length in LENGTHS], DURATION,
                  threads=1)
        assert synthesis_threads == [threading.get_ident()] * len(LENGTHS)

    def test_env_ceiling_of_one_synthesizes_inline(
        self, synthesis_threads, monkeypatch
    ):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "1")
        run_batch([build_loop(length) for length in LENGTHS], DURATION)
        assert synthesis_threads == [threading.get_ident()] * len(LENGTHS)

    def test_shared_memo_under_contention(self, fresh_memo, monkeypatch):
        """16 loops, four per spec, on more threads than cores, with a
        two-entry memo, a seed stream bounded below what the longest
        records draw, and a fast GIL switch: every record still equals
        its solo fused run, and the memo and the stream stay bounded."""
        lengths = LENGTHS * 4
        solos = {
            length: build_loop(length).run(DURATION, backend="fused")
            for length in LENGTHS
        }
        loop_mod._NOISE_MEMO.clear()
        monkeypatch.setattr(loop_mod, "_NOISE_MEMO_ENTRIES", 2)
        loops = [build_loop(length) for length in lengths]
        # the normals a record of n samples draws: n white, then two
        # per positive-frequency bin of its smooth FFT length
        draws = sorted(
            samples(loop) + 2 * (next_fast_len(samples(loop), real=True) // 2)
            for loop in loops
        )
        bound = draws[len(draws) // 2]
        monkeypatch.setattr(loop_mod, "_SEED_STREAMS", {})
        monkeypatch.setattr(loop_mod, "_SEED_STREAM_DOUBLES", bound)
        out: dict = {}

        def batch():
            try:
                out["records"] = run_batch(loops, DURATION, threads=4)
            except BaseException as err:  # noqa: BLE001 - reported below
                out["error"] = err

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(target=batch, daemon=True)
            worker.start()
            worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "run_batch did not finish in 120 s"
        assert "error" not in out, out.get("error")
        for length, record in zip(lengths, out["records"]):
            for name in WAVEFORMS:
                assert np.array_equal(
                    getattr(solos[length], name), getattr(record, name)
                ), f"{length} um: {name} differs from its solo fused run"
        assert len(loop_mod._NOISE_MEMO) <= 2
        [stream] = loop_mod._SEED_STREAMS.values()
        assert 0 < len(stream.normals) <= bound < draws[-1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_synthesis_error_leaves_run_batch(
        self, fresh_memo, monkeypatch, threads
    ):
        loops = [build_loop(length) for length in LENGTHS]
        bad_n = samples(loops[2])
        assert bad_n not in {samples(loop) for loop in loops[:2] + loops[3:]}
        synthesize = loop_mod.amplifier_input_noise

        def failing(white, corner, n, *rest):
            if n == bad_n:
                raise SignalError("synthesis failed")
            return synthesize(white, corner, n, *rest)

        monkeypatch.setattr(loop_mod, "amplifier_input_noise", failing)
        baseline = threading.active_count()
        with pytest.raises(SignalError, match="synthesis failed"):
            run_batch(loops, DURATION, threads=threads)
        assert threading.active_count() == baseline
