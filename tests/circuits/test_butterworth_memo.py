"""The Butterworth design and its memo in :mod:`repro.circuits.filters`.

The NumPy design and frequency response are bit-identical to SciPy's
``sps.butter(..., output="sos")`` and ``sps.sosfreqz``; the memo makes
one design per key and gives every filter a private, writable copy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

import repro.circuits.filters as filters_mod
from repro.circuits.filters import HighPassFilter, LowPassFilter
from repro.circuits.signal import Signal
from repro.config import REFERENCE_RESONANT_SENSOR, build
from repro.errors import CircuitError

FILTERS = {"lowpass": LowPassFilter, "highpass": HighPassFilter}


@pytest.fixture
def butter_calls(monkeypatch):
    """An empty design memo, and the arguments of every design the
    filters make."""
    filters_mod._butter_sos.cache_clear()
    calls = []
    design = filters_mod._butter_design

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return design(*args, **kwargs)

    monkeypatch.setattr(filters_mod, "_butter_design", spy)
    yield calls
    filters_mod._butter_sos.cache_clear()


@settings(max_examples=300, deadline=None)
@given(order=st.integers(min_value=1, max_value=8),
       kind=st.sampled_from(sorted(FILTERS)),
       wn=st.floats(min_value=0.0, max_value=1.0,
                    exclude_min=True, exclude_max=True))
def test_port_is_bit_identical_to_scipy_butter(order, kind, wn):
    want = sps.butter(order, wn, btype=kind, output="sos")
    got = filters_mod._butter_design(order, kind, wn)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(FILTERS))
@pytest.mark.parametrize("order", range(1, 9))
def test_response_is_bit_identical_to_scipy_sosfreqz(kind, order):
    rng = np.random.default_rng(100 + order)
    for fs in (1e3, 44_100.0, 987_654.321):
        nyquist = fs / 2.0
        for fraction in (1e-5, *rng.uniform(1e-3, 0.999, 4), 1.0 - 1e-9):
            flt = FILTERS[kind](fraction * nyquist, order)
            flt.prepare(fs)
            grids = (
                np.array([0.0, *np.sort(rng.uniform(0.0, nyquist, 6)), nyquist]),
                np.linspace(0.0, nyquist, 2 * 3 * 5).reshape(2, 3, 5),
                *(np.asarray(f) for f in (0.0, fraction * nyquist, nyquist)),
            )
            for f in grids:
                want = sps.sosfreqz(flt._sos, worN=f, fs=fs)[1]
                got = flt.response(f, fs)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(FILTERS))
@pytest.mark.parametrize("order", range(1, 9))
def test_design_is_bit_identical_to_a_fresh_design(kind, order):
    rng = np.random.default_rng(order)
    for fs in (1e3, 44_100.0, 987_654.321, 4.2e6):
        nyquist = fs / 2.0
        fractions = [*rng.uniform(1e-4, 0.999, 8), 1.0 - 1e-6, 1.0 - 1e-9]
        for cutoff in (float(f * nyquist) for f in fractions):
            want = sps.butter(order, cutoff, btype=kind, fs=fs, output="sos")
            first = FILTERS[kind](cutoff, order)
            first.prepare(fs)
            hit = FILTERS[kind](cutoff, order)
            hit.prepare(fs)
            assert first._sos.tobytes() == want.tobytes()
            assert hit._sos.tobytes() == want.tobytes()
            assert hit._sos is not first._sos


def test_nyquist_is_checked_before_the_memo(butter_calls):
    for cutoff in (500.0, 600.0):
        with pytest.raises(CircuitError, match="Nyquist"):
            HighPassFilter(cutoff).prepare(1_000.0)
    assert butter_calls == []
    assert filters_mod._butter_sos.cache_info().currsize == 0


def test_process_after_a_memo_hit(butter_calls):
    fs, cutoff = 48_000.0, 1_000.0
    x = np.random.default_rng(3).standard_normal(512)
    first, hit = HighPassFilter(cutoff), HighPassFilter(cutoff)
    first.prepare(fs)
    out = hit.process(Signal(x, fs)).samples
    again = first.process(Signal(x, fs)).samples
    assert len(butter_calls) == 1
    want = sps.sosfilt(
        sps.butter(2, cutoff, btype="highpass", fs=fs, output="sos"), x,
        zi=np.zeros((1, 2)),
    )[0]
    assert out.tobytes() == want.tobytes()
    assert again.tobytes() == want.tobytes()


def test_length_grid_designs_each_key_once(butter_calls):
    """96 lengths: Fig. 5's two high-passes of every loop share a few
    designs, because cutoff and sample rate both scale with f0."""
    loops = [
        build(REFERENCE_RESONANT_SENSOR.with_overrides(
            {"cantilever.length_um": float(length)}
        )).build_loop()
        for length in np.linspace(300.0, 700.0, 96)
    ]
    keys = {
        (hp.order, hp._kind, hp.cutoff / ((1.0 / loop.resonator.timestep) / 2.0))
        for loop in loops
        for hp in loop.highpasses
    }
    assert len(butter_calls) == len(keys) < len(loops)
