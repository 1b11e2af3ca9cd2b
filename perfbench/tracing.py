"""In-memory spans around the public calls of each layer, from outside ``src/``.

The benchmark's traced run wraps the functions and methods named in
:func:`install` (the program itself carries no spans yet), records one
:class:`Span` per call — name, start, end, parent span and the job or
sweep it served — and, at the end of the run, splits the measured wall
among the layers with :func:`attribute`.

Self time is a span's duration minus the part its child spans (same
thread) cover.  Where several threads are inside spans at once — the
service runs client, HTTP handler and pump threads side by side — each
of the ``k`` busy threads gets ``1/k`` of that interval, so the layer
shares plus ``unattributed_s`` (no thread inside any span) add up to the
wall exactly.  With one busy thread this is plain self time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

#: The job or sweep a span serves; set by the load generator and by the
#: pump wrapper (``execute_job`` knows its record).
CURRENT_JOB: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_job", default=None)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    job: str | None


class Tracer:
    """Collects spans while :attr:`enabled`; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        """Record one ``name`` span around the block.

        ``job`` tags this span and every span below it in this thread.
        """
        if not self.enabled:
            yield
            return
        token = CURRENT_JOB.set(job) if job is not None else None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   threading.get_ident(), CURRENT_JOB.get()))
            if token is not None:
                CURRENT_JOB.reset(token)

    def wrap(self, name: str, fn, job_from=None):
        """``fn`` recording a ``name`` span per call.

        ``job_from(args)`` names the job the call serves, if it knows.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = job_from(args) if job_from is not None else None
            with self.span(name, job):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        """All spans as JSON lines (times in ``perf_counter`` seconds)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def patch(patches: list, owner, attr: str, replacement) -> None:
    """Set ``owner.attr``, remembering the original for :func:`uninstall`."""
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the patches for :func:`uninstall`.

    Span names are the per-layer metric names without the ``_s``.
    """
    import repro.config
    import repro.config.builders
    import repro.feedback.loop
    import repro.service.pump
    from repro.core.resonant_sensor import ResonantCantileverSensor
    from repro.engine import kernel
    from repro.engine.cache import TieredCache
    from repro.feedback.loop import ResonantFeedbackLoop
    from repro.service.client import ServiceClient
    from repro.service.server import ReproService
    from repro.service.store import SQLiteJobStore

    # repro.analysis re-exports a function named ``sweep``
    analysis_sweep = importlib.import_module("repro.analysis.sweep")
    patches: list = []
    wrap = tracer.wrap

    build = wrap("config.build", repro.config.builders.build)
    patch(patches, repro.config, "build", build)
    patch(patches, repro.config.builders, "build", build)
    patch(patches, ResonantCantileverSensor, "build_loop",
          wrap("feedback.build_loop", ResonantCantileverSensor.build_loop))
    patch(patches, repro.feedback.loop, "amplifier_input_noise",
          wrap("circuits.noise", repro.feedback.loop.amplifier_input_noise))
    patch(patches, ResonantFeedbackLoop, "_lower_kernel",
          wrap("engine.kernel.lower", ResonantFeedbackLoop._lower_kernel))
    patch(patches, kernel.KernelBatch, "run",
          wrap("engine.kernel.batch", kernel.KernelBatch.run))
    patch(patches, kernel.FusedLoopKernel, "run",
          wrap("engine.kernel.solo", kernel.FusedLoopKernel.run))

    # The reduce function is a LoopSweepTask dataclass default, bound when
    # the class was defined, so the default is swapped too.  The wrapper
    # keeps the qualified name, so cache keys do not change.
    headline = analysis_sweep.loop_headline
    reduce = wrap("analysis.reduce", headline)
    patch(patches, analysis_sweep, "loop_headline", reduce)
    task_init = analysis_sweep.LoopSweepTask.__init__
    patch(patches, task_init, "__defaults__", tuple(
        reduce if d is headline else d for d in task_init.__defaults__))

    for method in ("get", "put"):
        patch(patches, TieredCache, method,
              wrap(f"engine.cache.{method}", getattr(TieredCache, method)))

    for method in ("get", "list_jobs", "find_by_work_hash", "outcomes",
                   "counts", "chunks", "chunk_counts"):
        patch(patches, SQLiteJobStore, method,
              wrap("service.store.read", getattr(SQLiteJobStore, method)))
    for method in ("put", "update", "claim", "request_cancel",
                   "requeue_running", "record_outcome", "record_outcomes",
                   "create_chunks", "lease_chunk", "heartbeat_chunk",
                   "complete_chunk", "fail_chunk", "expire_chunk_leases"):
        patch(patches, SQLiteJobStore, method,
              wrap("service.store.write", getattr(SQLiteJobStore, method)))

    for method in ("submit", "status", "results", "health"):
        patch(patches, ServiceClient, method,
              wrap("service.client.request", getattr(ServiceClient, method)))
        patch(patches, ReproService, method,
              wrap("service.server", getattr(ReproService, method)))
    patch(patches, ServiceClient, "wait",
          wrap("service.client.wait", ServiceClient.wait))
    patch(patches, repro.service.pump, "execute_job",
          wrap("service.pump.execute", repro.service.pump.execute_job,
               job_from=lambda args: args[0].job_id))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def attribute(spans: list[Span], t0: float, t1: float) -> dict:
    """Split the wall ``[t0, t1]`` among span names; see the module doc.

    Returns ``{"layers": {name: s}, "busy": {name: s}, "unattributed_s": s,
    "wall_s": s}``.  ``busy`` is plain self time summed over threads,
    which exceeds the wall when threads overlap; ``layers`` plus
    ``unattributed_s`` equals ``wall_s``.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    events: list[tuple[float, int, str]] = []
    busy: Counter = Counter()
    for span in spans:
        cursor = max(span.start, t0)
        stop = min(span.end, t1)
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda c: c.start):
            if child.start > cursor:
                _segment(events, busy, span.name, cursor,
                         min(child.start, stop))
            cursor = max(cursor, child.end)
        _segment(events, busy, span.name, cursor, stop)

    # ends sort before starts at equal times: (t, -1) < (t, +1)
    events.sort()
    layers: Counter = Counter()
    active: Counter = Counter()
    covered = 0.0
    last = t0
    for when, delta, name in events:
        k = sum(active.values())
        if k and when > last:
            share = (when - last) / k
            for active_name, count in active.items():
                layers[active_name] += share * count
            covered += when - last
        last = when
        active[name] += delta
        if not active[name]:
            del active[name]
    wall = t1 - t0
    return {
        "layers": dict(layers),
        "busy": dict(busy),
        "unattributed_s": wall - covered,
        "wall_s": wall,
    }


def _segment(events: list, busy: Counter, name: str,
             start: float, stop: float) -> None:
    if stop > start:
        events.append((start, 1, name))
        events.append((stop, -1, name))
        busy[name] += stop - start
