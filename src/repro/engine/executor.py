"""Batch execution of a function over a parameter grid.

Cantilever-array workloads are embarrassingly parallel: every sweep
point, Monte-Carlo sample, and array channel is an independent device
simulation.  :class:`BatchExecutor` is the one place that runs those
tasks over a grid — as one batch call, point by point under a
watchdog, or as a plain loop — while keeping the contract every caller
relies on:

* **ordered results** — outcome ``i`` always belongs to parameter ``i``,
  whatever route ran it;
* **per-task error capture** — one failing point does not kill the
  batch; each :class:`TaskOutcome` carries either a value or the
  exception, and callers decide whether to raise;
* **determinism** — the executor adds no randomness of its own, so a
  task function that is deterministic per-parameter produces
  bit-identical results on every route;
* **resilience** — an optional per-task watchdog ``timeout`` bounds how
  long any one task can stall the sweep (a hung task is abandoned on
  its thread), and an optional
  :class:`~repro.engine.resilience.RetryPolicy` re-dispatches failed
  tasks with deterministic capped-exponential backoff.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import ExecutorError, FaultInjectionError, WatchdogTimeout
from .resilience import RetryPolicy, poll_fault

BACKENDS = ("serial", "kernel-batch")


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one grid point: a value or a captured exception."""

    index: int
    parameter: object
    value: object = None
    error: BaseException | None = None
    #: Retry attempts this task consumed before settling (0 = first try).
    retries: int = 0

    @property
    def ok(self) -> bool:
        """True when the task completed without raising."""
        return self.error is None

    def unwrap(self) -> object:
        """The value, re-raising the captured exception if there is one."""
        if self.error is not None:
            raise self.error
        return self.value


@dataclass(frozen=True)
class BatchResult:
    """Ordered outcomes of a :meth:`BatchExecutor.map` call."""

    outcomes: tuple[TaskOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def ok(self) -> bool:
        """True when every task completed."""
        return all(o.ok for o in self.outcomes)

    def errors(self) -> list[TaskOutcome]:
        """The failed outcomes, in grid order."""
        return [o for o in self.outcomes if not o.ok]

    def values(self) -> list:
        """All task values in grid order; raises the first captured error."""
        return [o.unwrap() for o in self.outcomes]

    @property
    def total_retries(self) -> int:
        """Retry attempts consumed across the whole grid."""
        return sum(o.retries for o in self.outcomes)


class _Task:
    """One (fn, index, parameter, retries) dispatch of a round."""

    __slots__ = ("fn", "index", "parameter", "retries")

    def __init__(
        self, fn: Callable, index: int, parameter: object, retries: int = 0
    ) -> None:
        self.fn = fn
        self.index = index
        self.parameter = parameter
        self.retries = retries


def _run_task(task: _Task) -> TaskOutcome:
    """Run one task, converting any exception into data."""
    try:
        return TaskOutcome(
            index=task.index, parameter=task.parameter,
            value=task.fn(task.parameter), retries=task.retries,
        )
    except Exception as exc:  # noqa: BLE001 - capture is the contract
        return TaskOutcome(
            index=task.index, parameter=task.parameter, error=exc,
            retries=task.retries,
        )


class _FaultedCall:
    """Task-fn wrapper applying one injected ``executor.task`` fault.

    Built in the calling thread at dispatch time (so fault accounting
    stays global and deterministic in task order); it crashes
    (``"raise"``) or hangs (``"hang"``, ``payload`` seconds) before the
    real call.
    """

    __slots__ = ("fn", "kind", "payload")

    def __init__(self, fn: Callable, kind: str, payload: float) -> None:
        self.fn = fn
        self.kind = kind
        self.payload = payload

    def __call__(self, parameter: object) -> object:
        if self.kind == "raise":
            raise FaultInjectionError("injected fault at executor.task")
        if self.kind == "hang":
            time.sleep(self.payload)
        return self.fn(parameter)


class BatchExecutor:
    """Run a function over a parameter grid: batch call, watchdog or loop.

    Each round (the first try, then one per retry) takes one of three
    routes, picked from what the executor can observe:

    1. with a ``timeout``, the tasks run one at a time under the
       watchdog;
    2. otherwise, on ``"kernel-batch"``, a task function with a
       ``batch_call(parameters, threads=)`` method gets the whole round
       in one call (the batched fused kernel: C-level threads, one
       ctypes dispatch for the whole sweep);
    3. otherwise the round runs as a plain loop.

    Parameters
    ----------
    workers:
        C-level threads handed to ``batch_call`` as ``threads=``.
        ``None`` uses the CPU count; the ``REPRO_KERNEL_THREADS``
        environment variable caps either (see
        :func:`~repro.engine.kernel.kernel_batch_threads`).  The other
        routes run one task at a time.
    backend:
        ``"kernel-batch"`` (default) or ``"serial"``.  ``"serial"``
        never takes the batch route, so each task runs solo.
    timeout:
        Per-task watchdog [s], on either backend.  Each task's deadline
        counts from its own start; a task still running after
        ``timeout`` is captured as
        :class:`~repro.errors.WatchdogTimeout` and abandoned on its
        thread (a thread cannot be killed), and the round goes on.  One
        round of n tasks stalls at most ``n * timeout`` even if every
        task hangs — a sweep never waits forever.
    retry:
        Re-dispatch policy for failed (crashed, faulted, or timed-out)
        tasks: a :class:`~repro.engine.resilience.RetryPolicy`, an int
        (shorthand for ``RetryPolicy(retries=n)``), or ``None`` (no
        retries).  Backoff between rounds is deterministic (seeded
        jitter); each outcome records the retries it consumed.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "kernel-batch",
        timeout: float | None = None,
        retry: RetryPolicy | int | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ExecutorError(
                f"unknown backend {backend!r}; pick one of {BACKENDS}"
            )
        if workers is not None and workers < 0:
            raise ExecutorError(f"workers must be >= 0, got {workers}")
        if timeout is not None and not timeout > 0.0:
            raise ExecutorError(f"timeout must be > 0, got {timeout}")
        if isinstance(retry, int) and not isinstance(retry, bool):
            retry = RetryPolicy(retries=retry)
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ExecutorError(
                f"retry must be a RetryPolicy or int, got {type(retry).__name__}"
            )
        self.backend = backend
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.timeout = timeout
        self.retry = retry
        # injectable for tests asserting the backoff schedule
        self._sleep: Callable[[float], None] = time.sleep

    def map(self, fn: Callable, parameters: Iterable) -> BatchResult:
        """Evaluate ``fn`` at every parameter; ordered, error-capturing.

        Returns a :class:`BatchResult` whose outcome ``i`` corresponds to
        the ``i``-th parameter.  Errors are captured per task, never
        raised here — call :meth:`BatchResult.values` for fail-on-first
        semantics.  With a :class:`RetryPolicy`, failed tasks are
        re-dispatched (same route, deterministic backoff between
        rounds) until they succeed or the retry budget is spent; the
        final outcome reflects the last attempt.
        """
        grid: Sequence = list(parameters)
        pending = [_Task(fn, i, p) for i, p in enumerate(grid)]
        outcomes: list[TaskOutcome | None] = [None] * len(grid)

        attempt = 0
        while True:
            for outcome in self._run_round(fn, pending):
                outcomes[outcome.index] = outcome
            failed = [t for t in pending if not outcomes[t.index].ok]
            if not failed or self.retry is None \
                    or attempt >= self.retry.retries:
                break
            self._sleep(self.retry.delay(attempt, key=len(failed)))
            attempt += 1
            pending = [
                _Task(fn, t.index, t.parameter, retries=attempt) for t in failed
            ]
        return BatchResult(outcomes=tuple(outcomes))  # type: ignore[arg-type]

    # -- one dispatch round ----------------------------------------------------

    def _run_round(self, fn: Callable, tasks: list[_Task]) -> list[TaskOutcome]:
        """Dispatch ``tasks`` once: watchdog, batch call, or plain loop."""
        tasks = [self._apply_fault(t) for t in tasks]
        if self.timeout is not None:
            return self._run_watchdog(tasks)
        batch_call = getattr(fn, "batch_call", None)
        if self.backend == "kernel-batch" and batch_call is not None:
            return self._run_batch_call(batch_call, tasks)
        return [_run_task(t) for t in tasks]

    def _apply_fault(self, task: _Task) -> _Task:
        """Poll the ``executor.task`` site for this dispatch.

        Polled in the calling thread, in task order, once per dispatch
        attempt — so a :class:`FaultSpec` with ``at=k`` hits the k-th
        dispatch deterministically, and a retried task polls again (an
        exhausted fault lets the retry through: the recovery the tests
        pin).
        """
        spec = poll_fault("executor.task")
        if spec is None:
            return task
        return _Task(
            _FaultedCall(task.fn, spec.kind, spec.payload),
            task.index,
            task.parameter,
            task.retries,
        )

    def _run_watchdog(self, tasks: list[_Task]) -> list[TaskOutcome]:
        """Run ``tasks`` one at a time, each under its own ``timeout``.

        A task is submitted only once the one before it has settled, so
        its deadline counts from its own start and a hang never eats
        the deadlines of the tasks behind it.  After a timeout the hung
        thread is abandoned with its pool and the round goes on in a
        fresh one-thread pool.
        """
        outcomes: list[TaskOutcome] = []
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            for task in tasks:
                future = pool.submit(_run_task, task)
                try:
                    outcomes.append(future.result(self.timeout))
                except FutureTimeoutError:
                    outcomes.append(self._timeout_outcome(task))
                    pool.shutdown(wait=False)
                    pool = ThreadPoolExecutor(max_workers=1)
        finally:
            pool.shutdown(wait=False)
        return outcomes

    def _timeout_outcome(self, task: _Task) -> TaskOutcome:
        return TaskOutcome(
            index=task.index,
            parameter=task.parameter,
            error=WatchdogTimeout(
                f"task {task.index} exceeded its {self.timeout}s watchdog"
            ),
            retries=task.retries,
        )

    def _run_batch_call(
        self, batch_call: Callable, tasks: list[_Task]
    ) -> list[TaskOutcome]:
        """Hand the round's grid to ``batch_call`` in one call.

        ``batch_call(parameters, threads=)`` must return one
        ``(value, error)`` pair per parameter, in order — per-task error
        capture survives batching.  Tasks carrying an injected fault
        are split out and run through the plain captured path (their
        wrapper is not the batchable task object), so a faulted task
        never poisons the compiled batch around it.
        """
        faulted = [t for t in tasks if isinstance(t.fn, _FaultedCall)]
        clean = [t for t in tasks if not isinstance(t.fn, _FaultedCall)]
        if not clean:
            return [_run_task(t) for t in tasks]
        grid = [t.parameter for t in clean]
        pairs = batch_call(grid, threads=self.workers)
        if len(pairs) != len(grid):  # pragma: no cover - defensive
            raise ExecutorError(
                f"batch_call returned {len(pairs)} results for "
                f"{len(grid)} parameters"
            )
        outcomes = [
            TaskOutcome(
                index=t.index, parameter=t.parameter,
                value=value, error=error, retries=t.retries,
            )
            for t, (value, error) in zip(clean, pairs)
        ]
        outcomes.extend(_run_task(t) for t in faulted)
        outcomes.sort(key=lambda o: o.index)
        return outcomes
