"""BatchExecutor contract: ordering, routes, error capture, edge grids."""

import inspect

import numpy as np
import pytest

from repro.analysis import run_parallel, run_spec_sweep
from repro.engine import BACKENDS, BatchExecutor, BatchResult
from repro.errors import ExecutorError


def square(x):
    return x * x


def flaky(x):
    if x % 3 == 0:
        raise ValueError(f"bad point {x}")
    return 2 * x


def noisy_point(seed):
    """Deterministic-per-parameter pseudo-random task."""
    rng = np.random.default_rng(seed)
    return float(rng.standard_normal(8).sum())


class Batchy:
    """``fn`` with the ``batch_call`` protocol, recording each call's width."""

    def __init__(self, fn):
        self.fn = fn
        self.calls: list[int] = []

    def __call__(self, p):
        return self.fn(p)

    def batch_call(self, parameters, threads=None):
        self.calls.append(len(parameters))
        pairs = []
        for p in parameters:
            try:
                pairs.append((self.fn(p), None))
            except Exception as err:  # noqa: BLE001 - per-task capture
                pairs.append((None, err))
        return pairs


#: The executor's three routes: a plain loop, one batch call (the task
#: has ``batch_call``), and the per-task watchdog (a ``timeout`` is set).
ROUTES = ("serial", "kernel-batch", "watchdog")


def run_route(route, fn, grid):
    """``fn`` over ``grid`` on one route; asserts the route was taken."""
    if route == "serial":
        return BatchExecutor(backend="serial").map(fn, grid)
    task = Batchy(fn)
    if route == "kernel-batch":
        batch = BatchExecutor().map(task, grid)
        assert task.calls == ([len(grid)] if grid else [])
        return batch
    batch = BatchExecutor(timeout=30.0).map(task, grid)
    assert task.calls == []  # a set timeout never takes the batch route
    return batch


GRID = list(range(17))


class TestConfiguration:
    def test_unknown_backend_rejected(self):
        for backend in ("mpi", "thread", "process"):
            with pytest.raises(ExecutorError, match="serial.*kernel-batch"):
                BatchExecutor(backend=backend)

    def test_two_backends_kernel_batch_default(self):
        assert BACKENDS == ("serial", "kernel-batch")
        for entry in (BatchExecutor, run_parallel, run_spec_sweep):
            default = inspect.signature(entry).parameters["backend"].default
            assert default == "kernel-batch"

    def test_negative_workers_rejected(self):
        with pytest.raises(ExecutorError):
            BatchExecutor(workers=-1)

    def test_default_workers_positive(self):
        assert BatchExecutor().workers >= 1


class TestBackendEquivalence:
    @pytest.mark.parametrize("route", ["kernel-batch", "watchdog"])
    def test_route_matches_serial(self, route):
        serial = run_route("serial", square, GRID).values()
        assert run_route(route, square, GRID).values() == serial

    def test_seeded_random_tasks_bit_identical(self):
        serial = run_route("serial", noisy_point, GRID).values()
        for route in ("kernel-batch", "watchdog"):
            # exact float equality — same bits
            assert run_route(route, noisy_point, GRID).values() == serial


class TestOrdering:
    def test_outcomes_carry_grid_index_and_parameter(self):
        batch = BatchExecutor().map(square, [5, 3, 8])
        assert [o.index for o in batch.outcomes] == [0, 1, 2]
        assert [o.parameter for o in batch.outcomes] == [5, 3, 8]
        assert [o.value for o in batch.outcomes] == [25, 9, 64]


class TestErrorCapture:
    @pytest.mark.parametrize("route", ROUTES)
    def test_per_task_errors_captured(self, route):
        batch = run_route(route, flaky, range(7))
        assert not batch.ok
        failed = batch.errors()
        assert [o.index for o in failed] == [0, 3, 6]
        for outcome in failed:
            assert isinstance(outcome.error, ValueError)
            assert f"bad point {outcome.parameter}" in str(outcome.error)
        # the healthy points still computed
        good = [o for o in batch if o.ok]
        assert [o.value for o in good] == [2, 4, 8, 10]

    def test_values_raises_first_error(self):
        batch = BatchExecutor(workers=1).map(flaky, range(7))
        with pytest.raises(ValueError, match="bad point 0"):
            batch.values()

    def test_unwrap_reraises(self):
        batch = BatchExecutor(workers=1).map(flaky, [3])
        with pytest.raises(ValueError):
            batch.outcomes[0].unwrap()


class TestEdgeGrids:
    @pytest.mark.parametrize("route", ROUTES)
    def test_empty_grid(self, route):
        batch = run_route(route, square, [])
        assert isinstance(batch, BatchResult)
        assert len(batch) == 0
        assert batch.ok
        assert batch.values() == []

    @pytest.mark.parametrize("route", ROUTES)
    def test_single_point(self, route):
        batch = run_route(route, square, [6])
        assert batch.values() == [36]

    def test_generator_input_materialized_in_order(self):
        batch = BatchExecutor(timeout=30.0).map(square, (x for x in range(5)))
        assert batch.values() == [0, 1, 4, 9, 16]
