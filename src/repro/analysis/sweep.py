"""Parameter-sweep utilities for benches and characterization scripts.

Thin, dependency-free helpers that keep every bench's sweep loop
identical: run a function over a parameter grid, collect named result
columns, and render an aligned text table (the "same rows the paper
reports" output format required of the benchmark harness).

Two execution paths share one result format: :func:`sweep` is the
serial loop, :func:`run_parallel` fans the same grid out through
:class:`repro.engine.BatchExecutor` (optionally memoized through a
:class:`repro.engine.ResultCache`) and must return element-for-element
identical results — that determinism is the engine's contract and is
pinned by ``tests/engine``.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
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
    result = SweepResult(parameter_name=parameter_name, parameters=[])
    expected: list[str] | None = None
    for value in values:
        outcome = evaluate(value)
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


def _collect(parameters: list, outcomes: list[Mapping], parameter_name: str) -> SweepResult:
    """Assemble ordered (parameter, mapping) pairs into a SweepResult.

    Applies the same same-keys-everywhere check as the serial loop so a
    half-filled table never silently prints.
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


def run_parallel(
    parameter_name: str,
    values: Iterable,
    evaluate: Callable[[object], Mapping[str, object]],
    *,
    workers: int | None = None,
    backend: str = "process",
    cache=None,
    cache_extra=None,
    timeout: float | None = None,
    retry=None,
) -> SweepResult:
    """Parallel :func:`sweep`: same grid, same result, fanned out.

    Runs ``evaluate`` over ``values`` through a
    :class:`repro.engine.BatchExecutor` and returns a
    :class:`SweepResult` element-for-element identical to the serial
    :func:`sweep` (results are collected in grid order; any task error
    is re-raised exactly as the serial loop would have raised it).

    Parameters
    ----------
    workers / backend:
        Executor configuration; ``workers<=1`` degrades to the serial
        path with zero pool overhead.  The ``process`` backend needs a
        picklable ``evaluate`` (module-level function or a
        ``functools.partial`` of one).
    cache:
        Optional :class:`repro.engine.ResultCache`.  Hits skip the
        executor entirely; only the missing grid points are dispatched,
        and their results are stored back — every successful point,
        even when another point fails.  Keys include ``evaluate``'s
        qualified name and ``cache_extra`` (pass config objects the
        function closes over, so context changes invalidate correctly).
    timeout / retry:
        Per-task watchdog [s] and retry policy
        (:class:`repro.engine.RetryPolicy` or an int), forwarded to the
        executor: a hung point is killed, a crashed point re-dispatched
        with deterministic backoff, and only a point that *stays* dead
        after its retry budget re-raises here.
    """
    from ..engine import BatchExecutor

    grid = list(values)
    results: list = [None] * len(grid)
    pending = list(range(len(grid)))
    keys = None
    if cache is not None:
        keys = [
            cache.key_for(evaluate, _cache_parameter(v), cache_extra)
            for v in grid
        ]
        pending = []
        for i, key in enumerate(keys):
            hit = cache.get(key)
            if hit is cache.MISS:
                pending.append(i)
            else:
                results[i] = hit

    if pending:
        executor = BatchExecutor(
            workers=workers, backend=backend, timeout=timeout, retry=retry
        )
        batch = executor.map(evaluate, [grid[i] for i in pending])
        for i, outcome in zip(pending, batch.outcomes):
            if outcome.ok:
                results[i] = outcome.value
                if cache is not None:
                    cache.put(keys[i], outcome.value)
        # re-raise the first (grid-order) task error, like the serial loop
        batch.values()
    return _collect(grid, results, parameter_name)


def override_grid(base_spec, path: str, values: Iterable) -> list:
    """Specs derived from one base, ``path`` set to each of ``values``.

    The grid a spec-first sweep runs over: each point is the *entire*
    device description with exactly one dotted-path field changed.
    Invalid values fail here, eagerly, with the offending path in the
    error — not mid-sweep inside a worker process.
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
    backend: str = "process",
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


#: Pristine built-loop templates, keyed by (device spec hash).  Building
#: a loop from a spec is the dominant whole-pipeline cost of a batched
#: closed-loop sweep (mode-shape integrals, Butterworth design inside
#: auto-gain) and is a pure function of the spec — so the batch path
#: builds each distinct device once and deep-copies the never-run
#: template per evaluation.  Copies are bit-identical to fresh builds
#: (same floats, same pristine state), preserving the engine's
#: bit-exactness contract; the serial ``__call__`` path stays
#: memo-free as the reference.
_LOOP_TEMPLATES: OrderedDict[str, object] = OrderedDict()
_LOOP_TEMPLATES_LOCK = threading.Lock()
_LOOP_TEMPLATE_ENTRIES = 128


def _reset_loop_templates() -> None:
    """Drop all memoized loop templates (test isolation)."""
    with _LOOP_TEMPLATES_LOCK:
        _LOOP_TEMPLATES.clear()


def loop_headline(spec, record) -> dict:
    """Default per-point reduction of one closed-loop run.

    Module-level on purpose: the reduce function is part of the cache
    key (and must be picklable for process pools), so it needs a stable
    qualified name — closures and lambdas are rejected by
    :class:`repro.engine.ResultCache`.
    """
    return {
        "amplitude_m": record.steady_amplitude(),
        "drive_v_rms": float(np.sqrt(np.mean(np.square(record.drive_voltage)))),
    }


@dataclass(frozen=True)
class LoopSweepTask:
    """Spec -> headline-numbers task that knows how to run as one batch.

    The sweep planner of the batched kernel path: pass an instance as
    the ``evaluate`` of :func:`run_parallel`/:func:`run_spec_sweep` with
    ``backend="kernel-batch"`` and the whole pending grid is handed to
    :func:`repro.feedback.run_batch` in ONE call — specs whose loops
    lower to the same program shape (:func:`repro.engine.batch_signature`)
    share a single compiled kernel dispatch; non-lowerable specs fall
    back per instance without poisoning the batch.

    The planner composes with the cache contract for free:
    :func:`run_parallel` consults the :class:`repro.engine.ResultCache`
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
        a module-level function (cache keying + pickling).
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

    def _amortized_loop_for(self, spec):
        """A fresh loop via the pristine-template memo (batch path only).

        Falls back to a plain build when the spec cannot hash or the
        template cannot deep-copy (exotic custom blocks) — amortization
        must never change which sweeps succeed.
        """
        from ..config import spec_hash

        try:
            key = spec_hash(spec)
        except Exception:  # noqa: BLE001 - unhashable spec: no memo
            return self._loop_for(spec)
        with _LOOP_TEMPLATES_LOCK:
            template = _LOOP_TEMPLATES.get(key)
            if template is not None:
                _LOOP_TEMPLATES.move_to_end(key)
        if template is None:
            loop = self._loop_for(spec)
            try:
                template = copy.deepcopy(loop)
            except Exception:  # noqa: BLE001 - uncopyable loop: no memo
                return loop
            with _LOOP_TEMPLATES_LOCK:
                _LOOP_TEMPLATES[key] = template
                while len(_LOOP_TEMPLATES) > _LOOP_TEMPLATE_ENTRIES:
                    _LOOP_TEMPLATES.popitem(last=False)
            return loop
        try:
            return copy.deepcopy(template)
        except Exception:  # noqa: BLE001 - uncopyable loop: no memo
            return self._loop_for(spec)

    def __call__(self, spec) -> Mapping[str, object]:
        """One grid point, solo — the serial/thread/process path."""
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
        loops: list = [None] * len(specs)
        errors: dict[int, Exception] = {}
        for i, spec in enumerate(specs):
            try:
                loops[i] = self._amortized_loop_for(spec)
            except Exception as err:  # noqa: BLE001 - per-task capture
                errors[i] = err

        good = [i for i in range(len(specs)) if i not in errors]
        records: dict[int, object] = {}
        if good:
            from ..feedback.loop import run_batch

            batch_records = run_batch(
                [loops[i] for i in good],
                self.duration,
                initial_kick=self.initial_kick,
                backend=self.backend,
                threads=threads,
            )
            records.update(zip(good, batch_records))

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
