"""Parameter-sweep utilities for benches and characterization scripts.

Thin, dependency-free helpers that keep every bench's sweep loop
identical: run a function over a parameter grid, collect named result
columns, and render an aligned text table (the "same rows the paper
reports" output format required of the benchmark harness).

Two execution paths share one result format: :func:`sweep` is the
serial loop, :func:`run_parallel` runs the same grid through
:class:`repro.engine.BatchExecutor` (optionally memoized through a
:class:`repro.engine.TieredCache`) and must return element-for-element
identical results — that determinism is the engine's contract and is
pinned by ``tests/engine``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np


@dataclass
class SweepResult:
    """Columnar results of a parameter sweep."""

    parameter_name: str
    parameters: list
    columns: dict[str, list] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        """One result column as an array."""
        return np.asarray(self.columns[name], dtype=float)

    def rows(self) -> list[tuple]:
        """Row tuples: (parameter, col1, col2, ...)."""
        names = list(self.columns)
        return [
            (p, *[self.columns[n][i] for n in names])
            for i, p in enumerate(self.parameters)
        ]

    def format_table(self) -> str:
        """Aligned text table of the sweep.

        Column widths adapt to the header names so long labels never run
        together.
        """
        names = list(self.columns)
        p_width = max(12, len(self.parameter_name) + 2)
        widths = [max(14, len(n) + 2) for n in names]
        header = f"{self.parameter_name:>{p_width}s}" + "".join(
            f"{n:>{w + 1}s}" for n, w in zip(names, widths)
        )
        lines = [header, "-" * len(header)]
        for i, p in enumerate(self.parameters):
            cells = [f"{p:>{p_width}.4g}" if not isinstance(p, str) else f"{p:>{p_width}s}"]
            for n, w in zip(names, widths):
                value = self.columns[n][i]
                if isinstance(value, str):
                    cells.append(f"{value:>{w}s} ")
                else:
                    cells.append(f"{value:>{w}.5g} ")
            lines.append("".join(cells))
        return "\n".join(lines)


def sweep(
    parameter_name: str,
    values: Iterable,
    evaluate: Callable[[object], Mapping[str, object]],
) -> SweepResult:
    """Evaluate ``evaluate(v)`` over values; collect dict results by key.

    Every call must return the same keys; a missing key raises
    immediately so a half-filled table never silently prints.
    """
    values = list(values)
    return _collect(values, map(evaluate, values), parameter_name)


def _collect(
    parameters: list, outcomes: Iterable[Mapping], parameter_name: str
) -> SweepResult:
    """Assemble ordered (parameter, mapping) pairs into a SweepResult.

    Every outcome must carry the first one's keys, so a half-filled
    table never silently prints; a lazy ``outcomes`` stops at the first
    mismatch.
    """
    result = SweepResult(parameter_name=parameter_name, parameters=[])
    expected: list[str] | None = None
    for value, outcome in zip(parameters, outcomes):
        if expected is None:
            expected = list(outcome)
            for key in expected:
                result.columns[key] = []
        if list(outcome) != expected:
            raise KeyError(
                f"sweep result keys changed: expected {expected}, "
                f"got {list(outcome)}"
            )
        result.parameters.append(value)
        for key in expected:
            result.columns[key].append(outcome[key])
    return result


def _cache_parameter(value):
    """The cache-key form of one grid point.

    Spec grid points are keyed by their declarative dict form
    (the :func:`repro.config.spec_hash` contract): the key captures the
    *full device description*, not the Python object, so equal specs hit
    regardless of how they were constructed.
    """
    from ..config.specs import Spec

    if isinstance(value, Spec):
        return value.to_dict()
    return value


def dispatch_misses(grid: list, evaluate, *, cache=None, cache_extra=None,
                    **executor) -> tuple[list | None, dict, dict]:
    """Serve ``grid`` from ``cache``; run its misses in one dispatch.

    Returns each point's cache key (``None`` without a cache), then the
    hits' values and the misses' :class:`~repro.engine.TaskOutcome` by
    grid index.  The misses run in one ``BatchExecutor(**executor).map``
    (one ``batch_call`` for a :class:`LoopSweepTask`); nothing is stored.
    """
    from ..engine import BatchExecutor

    keys = None if cache is None else [
        cache.key_for(evaluate, _cache_parameter(v), cache_extra)
        for v in grid
    ]
    hits = {}
    for i, key in enumerate(keys or ()):
        value = cache.get(key)
        if value is not cache.MISS:
            hits[i] = value
    pending = [i for i in range(len(grid)) if i not in hits]
    if not pending:
        return keys, hits, {}
    batch = BatchExecutor(**executor).map(evaluate, [grid[i] for i in pending])
    return keys, hits, dict(zip(pending, batch.outcomes))


def run_parallel(
    parameter_name: str,
    values: Iterable,
    evaluate: Callable[[object], Mapping[str, object]],
    *,
    workers: int | None = None,
    backend: str = "kernel-batch",
    cache=None,
    cache_extra=None,
    timeout: float | None = None,
    retry=None,
) -> SweepResult:
    """:func:`sweep` through the batch engine: same grid, same result.

    Runs ``evaluate`` over ``values`` through a
    :class:`repro.engine.BatchExecutor` (:func:`dispatch_misses`) and
    returns a :class:`SweepResult` element-for-element identical to the
    serial :func:`sweep` (results are collected in grid order; any task
    error is re-raised exactly as the serial loop would have raised it).

    Parameters
    ----------
    workers / backend:
        Executor configuration.  On ``"kernel-batch"`` (default) an
        ``evaluate`` with a ``batch_call`` method (a
        :class:`LoopSweepTask`) gets the whole pending grid in one call
        with ``workers`` C-level threads; any other ``evaluate``, and
        every point on ``"serial"``, runs solo.
    cache:
        Optional :class:`repro.engine.TieredCache`.  Hits skip the
        executor entirely; only the missing grid points are dispatched,
        and their results are stored back — every successful point,
        even when another point fails.  Keys include ``evaluate``'s
        qualified name and ``cache_extra`` (pass config objects the
        function closes over, so context changes invalidate correctly).
    timeout / retry:
        Per-task watchdog [s] and retry policy
        (:class:`repro.engine.RetryPolicy` or an int), forwarded to the
        executor: a set ``timeout`` runs the grid point by point, a hung
        point is abandoned, a crashed point re-dispatched with
        deterministic backoff, and only a point that *stays* dead after
        its retry budget re-raises here.
    """
    grid = list(values)
    keys, results, fresh = dispatch_misses(
        grid, evaluate, cache=cache, cache_extra=cache_extra,
        workers=workers, backend=backend, timeout=timeout, retry=retry,
    )
    for i, outcome in fresh.items():
        if outcome.ok:
            results[i] = outcome.value
            if cache is not None:
                cache.put(keys[i], outcome.value)
    # re-raise the first (grid-order) task error, like the serial loop
    for outcome in fresh.values():
        outcome.unwrap()
    return _collect(grid, map(results.get, range(len(grid))), parameter_name)


def override_grid(base_spec, path: str, values: Iterable) -> list:
    """Specs derived from one base, ``path`` set to each of ``values``.

    The grid a spec-first sweep runs over: each point is the *entire*
    device description with exactly one dotted-path field changed.
    Invalid values fail here, eagerly, with the offending path in the
    error — not mid-sweep.
    """
    return [base_spec.with_overrides({path: v}) for v in values]


def run_spec_sweep(
    base_spec,
    path: str,
    values: Iterable,
    evaluate: Callable[[object], Mapping[str, object]],
    *,
    parameter_name: str | None = None,
    workers: int | None = None,
    backend: str = "kernel-batch",
    cache=None,
    cache_extra=None,
    timeout: float | None = None,
    retry=None,
) -> SweepResult:
    """Sweep one dotted spec path over ``values``.

    ``evaluate`` receives the fully-overridden spec at each grid point
    (build it with :func:`repro.config.build`); the returned table's
    parameter column holds the raw swept values, so it prints exactly
    like a plain :func:`sweep`.  With a ``cache``, each point is keyed
    by the spec's dict form — the full device description — so a warm
    re-run of the same grid is 100 % hits with zero stores.
    ``timeout``/``retry`` forward to the executor (see
    :func:`run_parallel`).
    """
    raw = list(values)
    result = run_parallel(
        parameter_name if parameter_name is not None else path,
        override_grid(base_spec, path, raw),
        evaluate,
        workers=workers,
        backend=backend,
        cache=cache,
        cache_extra=cache_extra,
        timeout=timeout,
        retry=retry,
    )
    result.parameters = raw
    return result


# -- batched sweep planner ---------------------------------------------------


def plan_chunks(n_points: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` grid slices covering ``n_points``.

    Every job's unit of leasing: the job store plans a job's chunks
    once, with the job row; a worker leases one chunk, runs its points,
    and completes or requeues it atomically.  Chunk boundaries never
    affect results — every point is cached under its own spec-keyed
    entry — so the planner is free to pick any partition; contiguous
    slices keep the store rows readable.
    """
    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, n_points))
        for start in range(0, n_points, chunk_size)
    ]


def loop_headline(spec, record) -> dict:
    """Default per-point reduction of one closed-loop run.

    Module-level on purpose: the reduce function is part of the cache
    key, so it needs a stable qualified name — closures and lambdas are
    rejected by :class:`repro.engine.TieredCache`.
    """
    return {
        "amplitude_m": record.steady_amplitude(),
        "drive_v_rms": float(np.sqrt(np.mean(np.square(record.drive_voltage)))),
    }


@dataclass(frozen=True)
class LoopSweepTask:
    """Spec -> headline-numbers task that knows how to run as one batch.

    The sweep planner of the batched kernel path: pass an instance as
    the ``evaluate`` of :func:`run_parallel`/:func:`run_spec_sweep` on
    the default ``backend="kernel-batch"`` and the whole pending grid
    (unless a ``timeout`` asks for the watchdog) is handed to
    :func:`repro.feedback.run_batch` in ONE call — specs whose loops
    lower to the same program shape (:func:`repro.engine.batch_signature`)
    share a single compiled kernel dispatch; non-lowerable specs fall
    back per instance without poisoning the batch.

    The planner composes with the cache contract for free:
    :func:`run_parallel` consults the :class:`repro.engine.TieredCache`
    *before* dispatching, so only uncached grid points ever enter the
    batch, and results fan back under the same spec-keyed entries the
    serial path writes.  A frozen dataclass (rather than a closure) so
    the task itself — duration, reduce function, backend — is part of
    each point's cache key.

    Parameters
    ----------
    duration:
        Seconds of closed-loop settling to simulate per point.
    reduce:
        ``(spec, record) -> mapping`` turning one
        :class:`~repro.feedback.LoopRecord` into table columns.  Must be
        a module-level function (cache keying).
    initial_kick:
        Initial tip displacement [m]; ``None`` uses the loop default.
    backend:
        Loop backend for solo calls and the batch (``"auto"`` resolves
        per :data:`repro.engine.AUTO_ORDER`).
    """

    duration: float
    reduce: Callable = loop_headline
    initial_kick: float | None = None
    backend: str = "auto"

    def _loop_for(self, spec):
        from ..config import build

        return build(spec).build_loop()

    def __call__(self, spec) -> Mapping[str, object]:
        """One grid point, solo — the plain-loop and watchdog route."""
        loop = self._loop_for(spec)
        record = loop.run(self.duration, self.initial_kick, backend=self.backend)
        return self.reduce(spec, record)

    def batch_call(self, specs, threads: int | None = None) -> list[tuple]:
        """The whole grid as one batched kernel call.

        The ``BatchExecutor(backend="kernel-batch")`` protocol: returns
        one ``(value, error)`` pair per spec, in order.  Specs that fail
        to *build* are captured per instance (the batch still runs for
        the rest); specs that build but cannot *lower* are handled
        inside :func:`repro.feedback.run_batch` (per-instance reference
        fallback, reason logged and counted).
        """
        specs = list(specs)
        loops: dict[int, object] = {}
        errors: dict[int, Exception] = {}
        for i, spec in enumerate(specs):
            try:
                loops[i] = self._loop_for(spec)
            except Exception as err:  # noqa: BLE001 - per-task capture
                errors[i] = err

        records: dict[int, object] = {}
        if loops:
            from ..feedback.loop import run_batch

            records = dict(zip(loops, run_batch(
                list(loops.values()), self.duration,
                initial_kick=self.initial_kick, backend=self.backend,
                threads=threads,
            )))

        pairs: list[tuple] = []
        for i, spec in enumerate(specs):
            if i in errors:
                pairs.append((None, errors[i]))
                continue
            try:
                pairs.append((self.reduce(spec, records[i]), None))
            except Exception as err:  # noqa: BLE001 - per-task capture
                pairs.append((None, err))
        return pairs


def geometric_space(start: float, stop: float, count: int) -> np.ndarray:
    """Log-spaced grid including both endpoints."""
    if start <= 0.0 or stop <= 0.0:
        raise ValueError("geometric_space needs positive endpoints")
    return np.geomspace(start, stop, count)
