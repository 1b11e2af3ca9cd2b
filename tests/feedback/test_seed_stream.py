"""The per-seed normal streams of :mod:`repro.feedback.loop`: every
bridge-noise synthesis reads the bits a fresh ``default_rng(seed)``
draws, a grid sharing one seed draws them once, and the streams stay
within their bounds."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

import repro.feedback.loop as loop_mod
from repro.circuits.noise import amplifier_input_noise
from repro.config import REFERENCE_RESONANT_SENSOR, build
from repro.feedback import run_batch

FS = 1.0e6
#: (psd, corner, n) requests, served in order from one seed's stream.
SHORT_THEN_LONG = ((1e-14, 2e4, 300), (1e-14, 2e4, 40_000))
LONG_THEN_SHORT = ((1e-14, 2e4, 40_000), (1e-14, 2e4, 300))
PSD_ZERO = ((0.0, 2e4, 5_000), (1e-14, 2e4, 5_000))
CORNER_ZERO = ((1e-14, 0.0, 5_000), (1e-14, 2e4, 5_000))
TINY = ((1e-14, 2e4, 1), (1e-14, 2e4, 2), (1e-14, 0.0, 1), (1e-14, 2e4, 3))


@pytest.fixture
def fresh_streams(monkeypatch):
    """No stream and no memoized record, so every request synthesizes."""
    monkeypatch.setattr(loop_mod, "_SEED_STREAMS", {})
    monkeypatch.setattr(loop_mod, "_NOISE_MEMO", OrderedDict())


def fresh(seed, psd, corner, n):
    return amplifier_input_noise(psd, corner, n, FS, np.random.default_rng(seed))


def held() -> int:
    return sum(len(s.normals) for s in loop_mod._SEED_STREAMS.values())


@pytest.mark.parametrize(
    "requests",
    [SHORT_THEN_LONG, LONG_THEN_SHORT, PSD_ZERO, CORNER_ZERO, TINY],
    ids=["short-then-long", "long-then-short", "psd-0", "corner-0", "n-1-2"],
)
@pytest.mark.parametrize("seed", [0, 1234])
def test_stream_matches_a_fresh_generator(fresh_streams, seed, requests):
    for psd, corner, n in requests:
        noise = loop_mod._memoized_bridge_noise(seed, psd, corner, n, FS)
        assert noise.tobytes() == fresh(seed, psd, corner, n).tobytes()
    assert list(loop_mod._SEED_STREAMS) == [seed]


def test_zero_psd_draws_nothing(fresh_streams):
    noise = loop_mod._memoized_bridge_noise(7, 0.0, 2e4, 5_000, FS)
    assert not noise.any()
    assert held() == 0


@pytest.mark.parametrize("bound", [0, 500, 5_000])
def test_request_past_the_bound_matches_a_fresh_generator(
    fresh_streams, monkeypatch, bound
):
    """Past the doubles bound — before the white draw, between white and
    pink, or on a later, longer request — a synthesis goes on from a
    fresh generator and still returns the same bits."""
    monkeypatch.setattr(loop_mod, "_SEED_STREAM_DOUBLES", bound)
    for psd, corner, n in ((1e-14, 2e4, 400), (1e-14, 2e4, 2_000),
                           (1e-14, 2e4, 9_000), (1e-14, 2e4, 400)):
        noise = loop_mod._memoized_bridge_noise(3, psd, corner, n, FS)
        assert noise.tobytes() == fresh(3, psd, corner, n).tobytes()
        assert held() <= bound


def test_seeds_past_the_bound_match_a_fresh_generator(
    fresh_streams, monkeypatch
):
    monkeypatch.setattr(loop_mod, "_SEED_STREAM_SEEDS", 2)
    for seed in (5, 6, 7, 5, 7):
        noise = loop_mod._memoized_bridge_noise(seed, 1e-14, 2e4, 1_000, FS)
        assert noise.tobytes() == fresh(seed, 1e-14, 2e4, 1_000).tobytes()
    assert sorted(loop_mod._SEED_STREAMS) == [5, 6]


def test_slices_are_read_only(fresh_streams):
    cursor = loop_mod._seed_normals(11)
    white = cursor.normal(0.0, 2.0, size=100)
    white[:] = 0.0  # the caller's array is its own
    stream = loop_mod._SEED_STREAMS[11]
    assert not stream.normals.flags.writeable
    assert not stream.take(0, 100).flags.writeable
    assert stream.take(0, 100).tobytes() == (
        np.random.default_rng(11).standard_normal(100).tobytes()
    )


def test_unseeded_loops_are_not_streamed(fresh_streams):
    for seed in (None, np.int64(4)):
        loop_mod._memoized_bridge_noise(seed, 1e-14, 2e4, 1_000, FS)
    assert loop_mod._SEED_STREAMS == {}


def test_grid_sharing_a_seed_builds_one_generator(fresh_streams, monkeypatch):
    """96 loops sharing ``loop.seed``: the first synthesis seeds a
    generator, every other one reads its stream."""
    loops = [
        build(REFERENCE_RESONANT_SENSOR.with_overrides(
            {"cantilever.length_um": float(length)}
        )).build_loop()
        for length in np.linspace(300.0, 700.0, 96)
    ]
    seeds = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    records = run_batch(loops, 0.002)
    assert len(records) == len(loops)
    assert seeds.count(loops[0].seed) == 1
    assert {loop.seed for loop in loops} == {loops[0].seed}
