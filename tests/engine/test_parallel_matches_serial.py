"""Property test: run_parallel == sweep, element-for-element.

Determinism is the engine's contract: for any grid, on any of the
executor's routes and at any thread count, the engine-run sweep must
reproduce the serial sweep bit-for-bit.  Seeded random grids (no
hypothesis dependency) probe the property over sizes, routes, and cache
states.
"""

import functools

import numpy as np
import pytest

from repro.analysis import run_parallel, sweep
from repro.engine import TieredCache

from .test_executor import Batchy


def physics_like_point(x, gain=2.5):
    """A deterministic stand-in for a device simulation.

    Mixes transcendental math and a parameter-seeded RNG, so any
    ordering or seeding bug in the engine shows up as a bit difference.
    """
    rng = np.random.default_rng(int(abs(x) * 1e6) % (2**31))
    noise = float(rng.standard_normal(4).sum())
    return {
        "response": float(np.sin(gain * x) * np.exp(-0.1 * x)),
        "noise": noise,
        "snr": float(np.sin(gain * x) / (abs(noise) + 1e-9)),
    }


def assert_sweeps_identical(a, b):
    assert a.parameters == b.parameters
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        np.testing.assert_array_equal(a.column(name), b.column(name))


#: run_parallel keywords selecting each executor route; the batch route
#: needs a task with ``batch_call`` (see :class:`Batchy`).
ROUTES = {
    "serial": dict(backend="serial"),
    "kernel-batch": dict(backend="kernel-batch"),
    "watchdog": dict(timeout=30.0),
}


class TestRandomGrids:
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_random_grids_match_serial(self, route):
        rng = np.random.default_rng(987654321)
        task = Batchy(physics_like_point)
        for trial in range(8):
            size = int(rng.integers(1, 13))
            grid = [float(v) for v in rng.uniform(-5.0, 5.0, size)]
            serial = sweep("x", grid, physics_like_point)
            parallel = run_parallel("x", grid, task, workers=3, **ROUTES[route])
            assert_sweeps_identical(parallel, serial)
        # only the batch route hands the grid to batch_call, once per sweep
        assert len(task.calls) == (8 if route == "kernel-batch" else 0)

    def test_worker_count_irrelevant(self):
        grid = [0.1 * i for i in range(11)]
        serial = sweep("x", grid, physics_like_point)
        for workers in (1, 2, 5):
            parallel = run_parallel(
                "x", grid, physics_like_point, workers=workers
            )
            assert_sweeps_identical(parallel, serial)

    def test_partial_evaluate_matches(self):
        grid = [0.5, 1.5, 2.5]
        evaluate = functools.partial(physics_like_point, gain=4.0)
        serial = sweep("x", grid, evaluate)
        parallel = run_parallel("x", grid, evaluate, workers=2)
        assert_sweeps_identical(parallel, serial)

    def test_empty_grid(self):
        result = run_parallel("x", [], physics_like_point, workers=4)
        assert result.parameters == []
        assert result.columns == {}


class TestCachedPath:
    def test_cold_and_warm_cache_match_serial(self, tmp_path):
        grid = [float(i) for i in range(9)]
        serial = sweep("x", grid, physics_like_point)
        cache = TieredCache(tmp_path / "cache")

        cold = run_parallel("x", grid, physics_like_point, workers=3, cache=cache)
        assert_sweeps_identical(cold, serial)
        assert cache.cache_info().stores == len(grid)

        warm = run_parallel("x", grid, physics_like_point, workers=3, cache=cache)
        assert_sweeps_identical(warm, serial)
        info = cache.cache_info()
        assert info.hits == len(grid)
        assert info.stores == len(grid)  # no new stores on the warm run

    def test_partially_warm_cache(self, tmp_path):
        cache = TieredCache(tmp_path / "cache")
        run_parallel("x", [1.0, 2.0], physics_like_point, workers=2, cache=cache)
        mixed = run_parallel(
            "x", [1.0, 2.0, 3.0, 4.0], physics_like_point, workers=2, cache=cache
        )
        serial = sweep("x", [1.0, 2.0, 3.0, 4.0], physics_like_point)
        assert_sweeps_identical(mixed, serial)
        info = cache.cache_info()
        assert info.hits == 2
        assert info.stores == 4


class TestErrorParity:
    def test_task_error_reraised_like_serial(self):
        with pytest.raises(ZeroDivisionError):
            sweep("x", [1.0, 0.0], reciprocal_point)
        with pytest.raises(ZeroDivisionError):
            run_parallel("x", [1.0, 0.0], reciprocal_point, workers=2)

    def test_key_mismatch_detected(self):
        with pytest.raises(KeyError):
            run_parallel("x", [0.0, 1.0], shape_shifting_point, workers=1)


def reciprocal_point(x):
    return {"y": 1.0 / x}


def shape_shifting_point(x):
    return {"a": x} if x < 0.5 else {"b": x}
