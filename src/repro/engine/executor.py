"""Batch execution of a function over a parameter grid.

Cantilever-array workloads are embarrassingly parallel: every sweep
point, Monte-Carlo sample, and array channel is an independent device
simulation.  :class:`BatchExecutor` is the one place that knows how to
fan those tasks out — serially, over threads, or over processes — while
keeping the contract every caller relies on:

* **ordered results** — outcome ``i`` always belongs to parameter ``i``,
  whatever order the workers finished in;
* **per-task error capture** — one failing point does not kill the
  batch; each :class:`TaskOutcome` carries either a value or the
  exception, and callers decide whether to raise;
* **determinism** — the executor adds no randomness of its own, so a
  task function that is deterministic per-parameter produces
  bit-identical results at any worker count;
* **resilience** — an optional per-task watchdog ``timeout`` bounds how
  long any one task can stall the sweep (a hung process worker is
  killed, a hung thread abandoned), and an optional
  :class:`~repro.engine.resilience.RetryPolicy` re-dispatches failed
  tasks with deterministic capped-exponential backoff.

Process-pool tasks must be picklable: module-level functions (or
:func:`functools.partial` of one) with picklable arguments.  Closures
work with the ``thread`` and ``serial`` backends only.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import (
    ExecutorError,
    FaultInjectionError,
    TaskCancelled,
    WatchdogTimeout,
)
from .kernel import KERNEL_THREADS_ENV
from .resilience import RetryPolicy, poll_fault

BACKENDS = ("serial", "thread", "process", "kernel-batch")

#: Signature of the progress hook: called once per settled group of
#: tasks (successes, failures, timeouts, cancellations).  A batched
#: round settles as one group; per-task backends settle one task at a
#: time, in settlement order within a dispatch round.
ProgressFn = Callable[[Sequence["TaskOutcome"]], None]
#: Signature of the cooperative cancellation probe: return True to stop
#: dispatching further tasks (e.g. ``threading.Event.is_set``).
CancelFn = Callable[[], bool]


def _limit_worker_kernel_threads() -> None:
    """Process-pool worker initializer: cap C-level kernel threads at 1.

    A batched kernel inside a process-pool sweep would otherwise
    multiply parallelism (workers x pthreads); the env ceiling makes
    each worker's batched calls single-threaded C.
    """
    os.environ[KERNEL_THREADS_ENV] = "1"


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one grid point: a value or a captured exception."""

    index: int
    parameter: object
    value: object = None
    error: BaseException | None = None
    #: Retry attempts this task consumed before settling (0 = first try).
    retries: int = 0
    #: True when the value was served from a :class:`ResultCache` rather
    #: than computed (set by cache-aware callers, never by the executor).
    cached: bool = False

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


def _call_captured(
    fn: Callable, index: int, parameter: object, retries: int = 0
) -> TaskOutcome:
    """Run one task, converting any exception into data.

    Module-level so process pools can pickle it.  Exceptions that cannot
    themselves be pickled (rare, but e.g. ones holding open handles) are
    replaced by an ``ExecutorError`` carrying their repr, so the outcome
    always survives the trip back to the parent.
    """
    try:
        return TaskOutcome(
            index=index, parameter=parameter, value=fn(parameter),
            retries=retries,
        )
    except Exception as exc:  # noqa: BLE001 - capture is the contract
        try:
            pickle.dumps(exc)
            captured: BaseException = exc
        except Exception:  # pragma: no cover - exotic unpicklable exception
            captured = ExecutorError(f"task {index} failed: {exc!r}")
        return TaskOutcome(
            index=index, parameter=parameter, error=captured, retries=retries,
        )


class _Task:
    """Picklable (fn, index, parameter, retries) bundle for pool submission."""

    __slots__ = ("fn", "index", "parameter", "retries")

    def __init__(
        self, fn: Callable, index: int, parameter: object, retries: int = 0
    ) -> None:
        self.fn = fn
        self.index = index
        self.parameter = parameter
        self.retries = retries


def _run_task(task: _Task) -> TaskOutcome:
    return _call_captured(task.fn, task.index, task.parameter, task.retries)


class _FaultedCall:
    """Picklable task-fn wrapper applying one injected ``executor.task`` fault.

    Built in the *parent* at dispatch time (so fault accounting stays
    global and deterministic in task order) and shipped to the worker,
    where it crashes (``"raise"``) or hangs (``"hang"``, ``payload``
    seconds) before/instead of the real call.
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
    """Run a function over a parameter grid with a configurable backend.

    Parameters
    ----------
    workers:
        Worker count.  ``None`` uses the CPU count; ``0`` or ``1`` runs
        serially regardless of backend (no pool spin-up for tiny grids).
    backend:
        ``"serial"``, ``"thread"``, ``"process"``, or
        ``"kernel-batch"``.  Threads suit tasks that release the GIL or
        share unpicklable state (e.g. live sensor objects); processes
        suit pure-Python numeric tasks.  ``"kernel-batch"`` hands the
        *whole* grid to the task object's ``batch_call(parameters,
        threads=)`` method in one call (the batched fused kernel:
        C-level threads, one ctypes dispatch for the whole sweep);
        task functions without ``batch_call`` degrade to serial.
    chunk_size:
        Tasks handed to a process worker per dispatch.  ``None`` picks
        ``ceil(n / (4 * workers))`` so each worker sees a few chunks —
        large enough to amortize pickling, small enough to balance load.
    timeout:
        Per-task watchdog [s].  A task still running after ``timeout``
        is captured as :class:`~repro.errors.WatchdogTimeout`: the
        process backend kills the hung worker (the pool is terminated
        after the round), the thread/serial backends abandon it.  One
        round of n tasks stalls at most ``n * timeout`` even if every
        task hangs — a sweep never waits forever.  Not applicable to
        ``kernel-batch`` (one compiled call, no per-task boundary).
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
        backend: str = "process",
        chunk_size: int | None = None,
        timeout: float | None = None,
        retry: RetryPolicy | int | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ExecutorError(
                f"unknown backend {backend!r}; pick one of {BACKENDS}"
            )
        if workers is not None and workers < 0:
            raise ExecutorError(f"workers must be >= 0, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ExecutorError(f"chunk_size must be >= 1, got {chunk_size}")
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
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.retry = retry
        # injectable for tests asserting the backoff schedule
        self._sleep: Callable[[float], None] = time.sleep

    def _effective_backend(self, task_count: int) -> str:
        if self.backend == "kernel-batch":
            # batching is one compiled call, not a worker pool: it pays
            # off even with workers=1 or a single task
            return "kernel-batch"
        if self.backend == "serial" or self.workers <= 1 or task_count <= 1:
            return "serial"
        return self.backend

    def _chunk_size_for(self, task_count: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-task_count // (4 * max(self.workers, 1))))

    def map(
        self,
        fn: Callable,
        parameters: Iterable,
        *,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> BatchResult:
        """Evaluate ``fn`` at every parameter; ordered, error-capturing.

        Returns a :class:`BatchResult` whose outcome ``i`` corresponds to
        the ``i``-th parameter.  Errors are captured per task, never
        raised here — call :meth:`BatchResult.values` for fail-on-first
        semantics.  With a :class:`RetryPolicy`, failed tasks are
        re-dispatched (same backend, deterministic backoff between
        rounds) until they succeed or the retry budget is spent; the
        final outcome reflects the last attempt.

        Parameters
        ----------
        progress:
            Optional hook called with each settled group of
            :class:`TaskOutcome` (the service pump's live-status feed):
            a ``kernel-batch`` round is one group, every other backend
            settles one outcome per call, in settlement order (for
            pooled backends, submission order within a round).
            Exceptions it raises propagate.
        cancel:
            Optional zero-argument probe polled between tasks and
            between retry rounds.  Once it returns True, undispached
            tasks settle as :class:`~repro.errors.TaskCancelled`
            outcomes (in-flight process tasks are terminated with the
            pool) and no further retry rounds run.
        """
        grid: Sequence = list(parameters)
        pending = [_Task(fn, i, p) for i, p in enumerate(grid)]
        outcomes: list[TaskOutcome | None] = [None] * len(grid)

        attempt = 0
        while True:
            for outcome in self._run_round(fn, pending, attempt, progress, cancel):
                outcomes[outcome.index] = outcome
            failed = [
                t for t in pending
                if not outcomes[t.index].ok
                and not isinstance(outcomes[t.index].error, TaskCancelled)
            ]
            if (
                not failed
                or self.retry is None
                or attempt >= self.retry.retries
                or (cancel is not None and cancel())
            ):
                break
            self._sleep(self.retry.delay(attempt, key=len(failed)))
            attempt += 1
            pending = [
                _Task(fn, t.index, t.parameter, retries=attempt) for t in failed
            ]
        return BatchResult(outcomes=tuple(outcomes))  # type: ignore[arg-type]

    # -- one dispatch round ----------------------------------------------------

    def _run_round(
        self,
        fn: Callable,
        tasks: list[_Task],
        attempt: int,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[TaskOutcome]:
        """Dispatch ``tasks`` once over the configured backend."""
        tasks = [self._apply_fault(t) for t in tasks]
        backend = self._effective_backend(len(tasks))
        if backend == "kernel-batch":
            if cancel is not None and cancel():
                return self._settle(
                    [self._cancelled_outcome(t) for t in tasks], progress
                )
            return self._settle(self._map_kernel_batch(fn, tasks), progress)
        if backend == "serial" and self.timeout is None:
            return self._run_serial(tasks, progress, cancel)
        if backend == "process":
            if self.timeout is None and progress is None and cancel is None:
                return self._run_process_pool(tasks)
            return self._run_process_async(tasks, progress, cancel)
        # thread backend, and serial-with-watchdog (a 1-thread pool so the
        # parent can time out and abandon a hung task)
        workers = 1 if backend == "serial" else min(self.workers, len(tasks))
        return self._run_thread_pool(tasks, workers, progress, cancel)

    def _settle(
        self, outcomes: list[TaskOutcome], progress: ProgressFn | None
    ) -> list[TaskOutcome]:
        """Feed already-collected outcomes to the hook as one group."""
        if progress is not None and outcomes:
            progress(outcomes)
        return outcomes

    def _run_serial(
        self,
        tasks: list[_Task],
        progress: ProgressFn | None,
        cancel: CancelFn | None,
    ) -> list[TaskOutcome]:
        outcomes: list[TaskOutcome] = []
        cancelled = False
        for task in tasks:
            cancelled = cancelled or (cancel is not None and cancel())
            outcome = (
                self._cancelled_outcome(task) if cancelled else _run_task(task)
            )
            if progress is not None:
                progress([outcome])
            outcomes.append(outcome)
        return outcomes

    def _apply_fault(self, task: _Task) -> _Task:
        """Poll the ``executor.task`` site for this dispatch.

        Polled in the parent, in task order, once per dispatch attempt —
        so a :class:`FaultSpec` with ``at=k`` hits the k-th dispatch
        deterministically, and a retried task polls again (an exhausted
        fault lets the retry through: the recovery the tests pin).
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

    def _run_thread_pool(
        self,
        tasks: list[_Task],
        workers: int,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[TaskOutcome]:
        pool = ThreadPoolExecutor(max_workers=workers)
        futures = [pool.submit(_run_task, t) for t in tasks]
        outcomes: list[TaskOutcome] = []
        timed_out = False
        cancelled = False
        for task, future in zip(tasks, futures):
            cancelled = cancelled or (cancel is not None and cancel())
            # a queued future can still be withdrawn; a running one is
            # collected normally (threads cannot be killed)
            if cancelled and future.cancel():
                outcome = self._cancelled_outcome(task)
            else:
                try:
                    outcome = future.result(self.timeout)
                except FutureTimeoutError:
                    timed_out = True
                    outcome = self._timeout_outcome(task)
            if progress is not None:
                progress([outcome])
            outcomes.append(outcome)
        # cancel_futures stops queued tasks; an actually-hung thread is
        # abandoned (daemonic exit at interpreter shutdown)
        pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
        return outcomes

    def _run_process_pool(self, tasks: list[_Task]) -> list[TaskOutcome]:
        workers = min(self.workers, len(tasks))
        with multiprocessing.Pool(
            processes=workers, initializer=_limit_worker_kernel_threads
        ) as pool:
            return pool.map(
                _run_task, tasks, chunksize=self._chunk_size_for(len(tasks))
            )

    def _run_process_async(
        self,
        tasks: list[_Task],
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[TaskOutcome]:
        """Process round with watchdog / progress / cancellation support.

        Tasks are dispatched individually (no chunking — a chunk would
        make one hung task time out its innocent chunk-mates) and
        collected in order with a per-task deadline; every task has been
        in flight at least ``timeout`` seconds before being declared
        hung.  The pool is terminated afterwards whenever anything timed
        out or was cancelled, which is what actually kills stuck or
        no-longer-wanted worker processes.
        """
        workers = min(self.workers, len(tasks))
        pool = multiprocessing.Pool(
            processes=workers, initializer=_limit_worker_kernel_threads
        )
        outcomes: list[TaskOutcome] = []
        timed_out = False
        cancelled = False
        try:
            handles = [pool.apply_async(_run_task, (t,)) for t in tasks]
            for task, handle in zip(tasks, handles):
                cancelled = cancelled or (cancel is not None and cancel())
                if cancelled:
                    outcome = self._cancelled_outcome(task)
                else:
                    try:
                        outcome = handle.get(self.timeout)
                    except multiprocessing.TimeoutError:
                        timed_out = True
                        outcome = self._timeout_outcome(task)
                if progress is not None:
                    progress([outcome])
                outcomes.append(outcome)
        finally:
            if timed_out or cancelled:
                pool.terminate()
            else:
                pool.close()
            pool.join()
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

    def _cancelled_outcome(self, task: _Task) -> TaskOutcome:
        return TaskOutcome(
            index=task.index,
            parameter=task.parameter,
            error=TaskCancelled(f"task {task.index} cancelled before it ran"),
            retries=task.retries,
        )

    def _map_kernel_batch(
        self, fn: Callable, tasks: list[_Task]
    ) -> list[TaskOutcome]:
        """Hand the round's grid to ``fn.batch_call`` in one call.

        ``batch_call(parameters, threads=)`` must return one
        ``(value, error)`` pair per parameter, in order — per-task error
        capture survives batching.  Task functions without
        ``batch_call`` degrade to the serial loop (same results, no
        batch speedup).  Tasks carrying an injected fault are split out
        and run through the plain captured path (their wrapper is not
        the batchable task object), so a faulted task never poisons the
        compiled batch around it.
        """
        batch_call = getattr(fn, "batch_call", None)
        faulted = [t for t in tasks if isinstance(t.fn, _FaultedCall)]
        clean = [t for t in tasks if not isinstance(t.fn, _FaultedCall)]
        if batch_call is None or not clean:
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
