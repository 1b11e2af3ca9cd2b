"""The service job model: what a client submits, what the store keeps.

Mirrors the :mod:`repro.config` idiom — frozen dataclasses, eager
validation with dotted field paths, exact ``to_dict``/``from_dict``/JSON
round-trips — for the unit of work the simulation service schedules:

* :class:`JobSpec` — a declarative sweep request: a device spec (its
  ``to_dict`` form), one dotted override path, the values to sweep,
  scheduling metadata (tenant, priority) and the lease-chunk size the
  grid is split into.  Every job runs the same way: as leased chunks
  (:mod:`repro.engine.fabric`), on the pump's thread or on ``repro
  worker`` nodes.
* :class:`JobState` — one immutable snapshot of a job's lifecycle:
  phase, per-point progress counters, timestamps, error text.
* :class:`JobRecord` — the durable row: id, spec, state, idempotency
  key, dedup linkage, and the :class:`~repro.engine.TieredCache` key
  the finished result blob lives under.

The idempotency key (:meth:`JobSpec.work_hash`) hashes only the fields
that determine the *answer* — device spec dict, sweep path, values,
loop duration — through the same :func:`repro.engine.stable_hash` that
keys the result cache.  Tenant, priority, and the chunk size are
excluded on purpose: two tenants submitting the same grid share one
computation (the cross-tenant dedup contract), and a sweep gives
bit-identical results however its grid is chunked.
"""

from __future__ import annotations

import json
import math
import uuid
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from ..errors import JobError

__all__ = [
    "JOB_PHASES",
    "JOB_TERMINAL_PHASES",
    "JobRecord",
    "JobSpec",
    "JobState",
    "device_spec_from_dict",
    "new_job_id",
]

#: Lifecycle phases, in nominal order.  ``queued -> running`` happens
#: atomically in the store, when the pump claims the job or a worker
#: leases its first chunk; ``running`` ends in exactly one of the
#: terminal phases.
JOB_PHASES = ("queued", "running", "done", "failed", "cancelled")
#: Phases a job never leaves.
JOB_TERMINAL_PHASES = ("done", "failed", "cancelled")


def _fail(path: str, message: str):
    raise JobError(f"{path}: {message}")


def device_spec_from_dict(data: Mapping[str, Any]):
    """Rebuild a device :class:`~repro.config.Spec` from its dict form.

    Dispatches on the ``"$spec"`` meta key to the matching registered
    spec class (the inverse of ``Spec.to_dict`` for any node type), so
    the service can deserialize whatever device a client submitted.
    """
    from ..config.specs import Spec

    if not isinstance(data, Mapping):
        raise JobError(
            f"base: expected a device-spec mapping, got {type(data).__name__}"
        )
    kind = data.get("$spec")
    if not kind:
        raise JobError("base.$spec: missing device spec kind")

    def walk(cls):
        for sub in cls.__subclasses__():
            if sub.spec_kind == kind:
                return sub
            found = walk(sub)
            if found is not None:
                return found
        return None

    spec_cls = walk(Spec)
    if spec_cls is None:
        raise JobError(f"base.$spec: unknown device spec kind {kind!r}")
    return spec_cls.from_dict(data)


def new_job_id() -> str:
    """A fresh, collision-resistant job id (``job-<12 hex>``)."""
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass(frozen=True)
class JobSpec:
    """One submitted sweep campaign, as a pure value object.

    Parameters
    ----------
    base:
        The device spec's ``to_dict`` form (any registered ``$spec``
        kind).  Kept as a plain dict so the job row round-trips through
        JSON without importing device classes.
    path:
        Dotted spec path to sweep (``"cantilever.length_um"``).
    values:
        The grid values, one closed-loop point each.
    duration:
        Closed-loop settling seconds per point.
    tenant / priority:
        Scheduling metadata: quota bucket and urgency (higher runs
        first).  Not part of :meth:`work_hash`.
    chunk_size:
        Grid points per lease chunk.  The store plans the chunk rows
        when it writes the job row, once.  Chunking never changes a
        result, so it does not enter :meth:`work_hash` either.
    """

    base: Mapping[str, Any]
    path: str
    values: tuple = ()
    duration: float = 0.01
    tenant: str = "default"
    priority: int = 0
    chunk_size: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.base, Mapping) or "$spec" not in self.base:
            _fail("base", "expected a device spec dict with a '$spec' key")
        # normalize to hashable, JSON-stable forms
        object.__setattr__(self, "base", _freeze(self.base))
        if not isinstance(self.path, str) or not self.path.strip():
            _fail("path", "expected a non-empty dotted spec path")
        try:
            values = tuple(float(v) for v in self.values)
        except (TypeError, ValueError):
            _fail("values", f"expected a sequence of numbers, got {self.values!r}")
        if not values:
            _fail("values", "sweep needs at least one value")
        if not all(math.isfinite(v) for v in values):
            _fail("values", "sweep values must be finite")
        object.__setattr__(self, "values", values)
        if not (isinstance(self.duration, (int, float))
                and math.isfinite(self.duration) and self.duration > 0):
            _fail("duration", f"must be a positive finite number, "
                              f"got {self.duration!r}")
        if not isinstance(self.tenant, str) or not self.tenant.strip():
            _fail("tenant", "expected a non-empty tenant name")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            _fail("priority", f"expected an int, got {self.priority!r}")
        if not isinstance(self.chunk_size, int) \
                or isinstance(self.chunk_size, bool) or self.chunk_size < 1:
            _fail("chunk_size", f"must be an int >= 1, got {self.chunk_size!r}")

    # -- idempotency ---------------------------------------------------------

    def work_hash(self) -> str:
        """Stable idempotency key of the *computation* this job asks for.

        Hashes (device dict, path, values, duration) through
        :func:`repro.engine.stable_hash` — the same primitive under
        ``spec_hash`` and the result cache — and deliberately excludes
        tenant, priority, and the chunk size, so identical grids from
        different tenants (or chunked differently) share one key.
        """
        from ..engine.cache import stable_hash

        return stable_hash(
            "repro-job", _thaw(self.base), self.path, list(self.values),
            self.duration,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        # not asdict(): the frozen base mapping must thaw, not deep-copy
        return {
            "base": _thaw(self.base),
            "path": self.path,
            "values": list(self.values),
            "duration": self.duration,
            "tenant": self.tenant,
            "priority": self.priority,
            "chunk_size": self.chunk_size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(data, Mapping):
            raise JobError(f"job spec: expected a mapping, got "
                           f"{type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        for name in data:
            if name not in known:
                _fail(name, f"unknown job-spec field; "
                            f"known: {', '.join(sorted(known))}")
        kwargs = dict(data)
        if "values" in kwargs and isinstance(kwargs["values"], list):
            kwargs["values"] = tuple(kwargs["values"])
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise JobError(f"job spec: invalid JSON: {err}") from None
        return cls.from_dict(data)


def _freeze(value):
    """Recursively convert dicts/lists to hashable immutable twins."""
    if isinstance(value, Mapping):
        return _FrozenDict({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze`: back to plain JSON types."""
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


class _FrozenDict(dict):
    """A dict that refuses mutation (so frozen specs stay value objects)."""

    def _readonly(self, *args, **kwargs):
        raise TypeError("job spec contents are immutable")

    __setitem__ = __delitem__ = _readonly
    pop = popitem = clear = update = setdefault = _readonly

    def __hash__(self) -> int:  # content hash, like the tuples around it
        return hash(tuple(sorted(self.items())))


@dataclass(frozen=True)
class JobState:
    """One immutable snapshot of a job's lifecycle and progress.

    ``completed`` counts every settled point (ok, failed, or cache
    hit); ``failed``/``cache_hits``/``retries`` break the total down.
    Timestamps are POSIX seconds (0 / None = not reached yet).
    """

    phase: str = "queued"
    total: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0
    retries: int = 0
    error: str = ""
    cancel_requested: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    def __post_init__(self) -> None:
        if self.phase not in JOB_PHASES:
            _fail("phase", f"unknown phase {self.phase!r}; "
                           f"known: {JOB_PHASES}")
        for name in ("total", "completed", "failed", "cache_hits", "retries"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                _fail(name, f"must be a non-negative int, got {v!r}")

    @property
    def terminal(self) -> bool:
        """True once the job can never change again."""
        return self.phase in JOB_TERMINAL_PHASES

    def advanced(self, **changes) -> "JobState":
        """A new snapshot with ``changes`` applied (frozen-friendly)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobState":
        known = {f for f in cls.__dataclass_fields__}
        for name in data:
            if name not in known:
                _fail(name, "unknown job-state field")
        return cls(**dict(data))


@dataclass(frozen=True)
class JobRecord:
    """The durable job row: spec + state + dedup linkage + result pointer.

    Parameters
    ----------
    job_id:
        Unique id minted at submission (:func:`new_job_id`).
    spec / state:
        The request and its current lifecycle snapshot.
    work_hash:
        Cached :meth:`JobSpec.work_hash` (indexed by the store for
        dedup lookups).
    dedup_of:
        Id of the earlier job with the same ``work_hash`` this one
        shares a computation with (``None`` = this job is the primary).
    result_key:
        :class:`~repro.engine.TieredCache` key of the finished result
        blob (``None`` until done).  Derived from ``work_hash``, so
        deduplicated jobs point at the same blob.
    resilience:
        Snapshot of the engine's resilience state (kernel degrades,
        breaker trips, retry totals) captured when the job finished.
    """

    job_id: str
    spec: JobSpec
    state: JobState = field(default_factory=JobState)
    work_hash: str = ""
    dedup_of: str | None = None
    result_key: str | None = None
    resilience: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id:
            _fail("job_id", "expected a non-empty string")
        if not self.work_hash:
            object.__setattr__(self, "work_hash", self.spec.work_hash())
        if self.resilience is not None:
            object.__setattr__(self, "resilience", _freeze(self.resilience))

    def advanced(self, **state_changes) -> "JobRecord":
        """A new record whose state snapshot has ``state_changes`` applied."""
        return replace(self, state=self.state.advanced(**state_changes))

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state.to_dict(),
            "work_hash": self.work_hash,
            "dedup_of": self.dedup_of,
            "result_key": self.result_key,
            "resilience": _thaw(self.resilience)
            if self.resilience is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}
        for name in data:
            if name not in known:
                _fail(name, "unknown job-record field")
        kwargs = dict(data)
        kwargs["spec"] = JobSpec.from_dict(kwargs["spec"])
        if "state" in kwargs:
            kwargs["state"] = JobState.from_dict(kwargs["state"])
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise JobError(f"job record: invalid JSON: {err}") from None
        return cls.from_dict(data)
