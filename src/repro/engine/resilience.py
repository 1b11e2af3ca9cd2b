"""Deterministic fault injection and resilient-execution primitives.

Real monolithic cantilever arrays ship broken: open bridge resistors,
unreleased (stuck) beams, loops that fail Barkhausen start-up — and the
software stack around them fails too: corrupted cache entries, missing
compilers, crashed or hung sweep tasks.  This module is the one place
that knows how to *inject* those faults deterministically and how to
*survive* them:

* :class:`FaultPlan` / :class:`FaultInjector` — a seeded, countable
  plan of faults at named sites (:data:`FAULT_SITES`).  Instrumented
  code polls its site through :func:`poll_fault`; with no active
  injector the poll is a single attribute read, so production sweeps
  pay nothing.
* :class:`RetryPolicy` — capped exponential backoff with *seeded*
  jitter: every delay is a pure function of ``(seed, attempt, key)``,
  so a retried sweep is reproducible down to its sleep schedule.
* :class:`CircuitBreaker` — consecutive-failure quarantine for
  unreliable backends.  The kernel uses one (``"kernel-cc"``) to stop
  hammering a compiled engine that keeps failing and degrade down
  ``AUTO_ORDER`` with a logged, counted reason.

Injection sites are *names*, not hooks: the instrumented module decides
what the fault means physically (a corrupt cache file, a railed bridge,
a hung worker).  ``docs/ROBUSTNESS.md`` catalogues every site and its
recovery semantics.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import FaultInjectionError

logger = logging.getLogger(__name__)

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "BreakerInfo",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "active_injector",
    "arm_env_fault_plan",
    "breaker_report",
    "faults_muted",
    "get_breaker",
    "inject_faults",
    "poll_fault",
    "reset_breakers",
]


#: Every named injection site in the stack, with the module that polls
#: it.  A :class:`FaultSpec` naming an unknown site is rejected eagerly.
FAULT_SITES = (
    "cache.entry",        # engine.cache: corrupt the on-disk entry before read
    "kernel.compile",     # engine.kernel: the C engine fails at build/load
    "kernel.lower",       # feedback loop lowering raises LoweringError
    "executor.task",      # engine.executor: task crash ("raise") or hang
    "loop.record",        # feedback.loop: NaN/Inf into recorded waveforms
    "chip.bridge-open",   # core.chip: open bridge resistor rails a channel
    "chip.stuck",         # core.chip: stuck/unreleased beam, flat channel
    "loop.no-startup",    # core.resonant_chip: loop fails Barkhausen start-up
    # -- distributed plane (service + fabric) --------------------------------
    "http.request",       # service.client: refused / slow / truncated / 5xx
    "cache.remote",       # engine.cache: remote tier error or truncated blob
    "store.op",           # service.store: SQLITE_BUSY ("database is locked")
    "store.claim",        # service.store: chunk-lease CAS race lost
    "fabric.lease",       # engine.fabric: lease clock skew, TTL collapses
    "fabric.heartbeat",   # engine.fabric: heartbeat lost mid-chunk
    "fabric.complete",    # engine.fabric: completion ack lost -> duplicate
    "fabric.crash",       # engine.fabric: die between cache-write and complete
)

#: Fault kinds with stack-wide meaning; sites may define extras.
FAULT_KINDS = ("raise", "hang", "corrupt", "nan", "device")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *where* (site), *what* (kind), *when* (at/count).

    Parameters
    ----------
    site:
        One of :data:`FAULT_SITES`.
    kind:
        What the fault does at that site — ``"raise"`` (crash),
        ``"hang"`` (sleep ``payload`` seconds), ``"corrupt"`` /
        ``"nan"`` (data damage), ``"device"`` (physical device fault;
        the site defines the symptom).
    at:
        Fire on the ``at``-th poll of the site (0-based occurrence
        index, e.g. grid index or channel number); ``None`` fires on
        the first ``count`` polls.
    count:
        How many times the fault fires in total (with ``at`` set, the
        occurrences ``at, at+1, ... at+count-1``).
    payload:
        Site-specific magnitude (hang duration [s], corruption byte
        count, ...).
    """

    site: str
    kind: str = "raise"
    at: int | None = None
    count: int = 1
    payload: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {FAULT_SITES}"
            )
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")
        if self.at is not None and self.at < 0:
            raise ValueError(f"fault occurrence index must be >= 0, got {self.at}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of faults plus the plan seed.

    The seed feeds deterministic data damage (which bytes a
    ``"corrupt"`` fault flips, which samples a ``"nan"`` fault
    poisons), so two runs of the same plan injure the system
    identically.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def single(cls, site: str, kind: str = "raise", **kwargs) -> "FaultPlan":
        """A one-fault plan (the common test-case shape)."""
        seed = kwargs.pop("seed", 0)
        return cls(faults=(FaultSpec(site=site, kind=kind, **kwargs),), seed=seed)

    def to_dict(self) -> dict:
        """JSON-ready form (the :data:`FAULT_PLAN_ENV` wire format)."""
        return {
            "seed": self.seed,
            "faults": [
                {
                    "site": spec.site,
                    "kind": spec.kind,
                    "at": spec.at,
                    "count": spec.count,
                    "payload": spec.payload,
                }
                for spec in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        faults = tuple(
            FaultSpec(
                site=item["site"],
                kind=item.get("kind", "raise"),
                at=item.get("at"),
                count=int(item.get("count", 1)),
                payload=float(item.get("payload", 0.0)),
            )
            for item in payload.get("faults", ())
        )
        return cls(faults=faults, seed=int(payload.get("seed", 0)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        return cls.from_dict(json.loads(raw))


class FaultInjector:
    """Executes a :class:`FaultPlan`: counts site polls, fires matching faults.

    Thread-safe; deterministic: the n-th poll of a site always sees the
    same decision for a given plan.  ``fired`` / ``polls`` expose what
    actually happened so tests assert on injection *and* recovery.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self.polls: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self._remaining = [spec.count for spec in plan.faults]

    def poll(self, site: str) -> FaultSpec | None:
        """Record one poll of ``site``; the matching armed fault, if any.

        At most one fault fires per poll (plan order wins); its
        remaining count is decremented, so exhausted faults never
        re-fire — the property every recover-and-retry test relies on.
        """
        with self._lock:
            occurrence = self.polls.get(site, 0)
            self.polls[site] = occurrence + 1
            for i, spec in enumerate(self.plan.faults):
                if spec.site != site or self._remaining[i] <= 0:
                    continue
                if spec.at is not None and not (
                    spec.at <= occurrence < spec.at + spec.count
                ):
                    continue
                self._remaining[i] -= 1
                self.fired[site] = self.fired.get(site, 0) + 1
                logger.info(
                    "fault injected at %s (kind=%s, occurrence=%d)",
                    site, spec.kind, occurrence,
                )
                return spec
        return None

    def fire(self, site: str) -> FaultSpec | None:
        """Poll and apply the *generic* kinds in place.

        ``"raise"`` raises :class:`~repro.errors.FaultInjectionError`;
        ``"hang"`` sleeps ``payload`` seconds.  Data-damage kinds
        (``"corrupt"``, ``"nan"``, ``"device"``) are returned for the
        site to apply with its own semantics.
        """
        spec = self.poll(site)
        if spec is None:
            return None
        if spec.kind == "raise":
            raise FaultInjectionError(f"injected fault at {site}")
        if spec.kind == "hang":
            time.sleep(spec.payload)
            return None
        return spec


_ACTIVE: FaultInjector | None = None
_ACTIVE_LOCK = threading.Lock()
#: Per-thread flag: set while a thread runs under :func:`faults_muted`.
_MUTED = threading.local()


def active_injector() -> FaultInjector | None:
    """The currently active injector (``None`` outside fault tests)."""
    return _ACTIVE


def poll_fault(site: str) -> FaultSpec | None:
    """Instrumentation-point helper: poll the active injector, if any.

    A plain ``None`` check when no plan is active — the per-call cost
    instrumented hot paths pay in production.
    """
    injector = _ACTIVE
    if injector is None or getattr(_MUTED, "on", False):
        return None
    return injector.poll(site)


def fire_fault(site: str) -> FaultSpec | None:
    """Like :func:`poll_fault` but applies generic raise/hang kinds."""
    injector = _ACTIVE
    if injector is None or getattr(_MUTED, "on", False):
        return None
    return injector.fire(site)


@contextmanager
def faults_muted():
    """Keep this thread out of the active fault plan inside the block.

    Its polls neither fire nor count: for a helper thread on its own
    clock (a fabric heartbeat), so every ``at=`` stays deterministic.
    """
    _MUTED.on = True
    try:
        yield
    finally:
        _MUTED.on = False


@contextmanager
def inject_faults(plan: FaultPlan | FaultInjector):
    """Activate a fault plan for the dynamic extent of the block.

    Yields the :class:`FaultInjector` so the caller can assert on
    ``fired`` counts afterwards.  Nested activation is rejected — a
    fault test that silently stacked plans would assert on the wrong
    counters.
    """
    global _ACTIVE
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise FaultInjectionError("a fault plan is already active")
        _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


#: Env var carrying a JSON :class:`FaultPlan` into subprocesses — the
#: chaos harness arms server/worker processes it cannot reach in-process.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


def arm_env_fault_plan() -> FaultInjector | None:
    """Activate the :data:`FAULT_PLAN_ENV` plan for the process lifetime.

    Called at entry by ``repro worker`` / ``repro serve`` (and the
    local fabric worker's entry, after it installs the coordinator's
    environment) so the chaos harness can injure real subprocesses with
    the same seeded determinism as in-process tests.
    No-op (returns ``None``) when the variable is unset; refuses to
    stack on an already-active injector.
    """
    global _ACTIVE
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    injector = FaultInjector(FaultPlan.from_json(raw))
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise FaultInjectionError(
                "a fault plan is already active; cannot arm the env plan")
        _ACTIVE = injector
    logger.warning(
        "fault plan armed from %s: %d fault(s), seed %d",
        FAULT_PLAN_ENV, len(injector.plan.faults), injector.plan.seed,
    )
    return injector


# -- deterministic retry ------------------------------------------------------


def _unit_uniform(*parts) -> float:
    """A uniform in [0, 1) as a pure function of the parts (no RNG state)."""
    digest = hashlib.sha256(
        ":".join(str(p) for p in parts).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    ``delay(attempt) = min(max_delay, base_delay * multiplier**attempt)
    * (1 + jitter * u)`` where ``u`` is a deterministic uniform derived
    from ``(seed, attempt, key)`` — no global RNG, so a retried sweep
    reproduces its exact sleep schedule and total wall-time bound:
    ``sum(delays) <= retries * max_delay * (1 + jitter)``.

    Parameters
    ----------
    retries:
        Re-dispatch attempts after the first failure (0 disables).
    base_delay / multiplier / max_delay:
        The capped exponential schedule [s].
    jitter:
        Fractional spread added on top (0 disables).
    seed:
        Folds into every jitter draw.
    """

    retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int, key: object = 0) -> float:
        """Backoff before retry ``attempt`` (0-based), deterministic."""
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * _unit_uniform(self.seed, attempt, key))

    def delays(self, key: object = 0) -> tuple[float, ...]:
        """The full backoff schedule, one entry per retry attempt."""
        return tuple(self.delay(a, key) for a in range(self.retries))

    def run(
        self,
        fn: Callable,
        *args,
        key: object = 0,
        sleep: Callable[[float], None] = time.sleep,
        retry_on: tuple[type, ...] = (Exception,),
    ):
        """Call ``fn(*args)`` with this policy; re-raises the last error."""
        for attempt in range(self.retries + 1):
            try:
                return fn(*args)
            except retry_on:
                if attempt >= self.retries:
                    raise
                sleep(self.delay(attempt, key))
        raise AssertionError("unreachable")  # pragma: no cover


# -- circuit breaker ----------------------------------------------------------


@dataclass(frozen=True)
class BreakerInfo:
    """Snapshot of one :class:`CircuitBreaker`'s counters."""

    name: str
    open: bool
    failures: int
    consecutive_failures: int
    successes: int
    trips: int
    threshold: int
    last_failure_reason: str | None = None


@dataclass
class CircuitBreaker:
    """Quarantine a backend after ``threshold`` consecutive failures.

    Deliberately *not* time-based: a quarantined backend stays
    quarantined until :meth:`reset` — time-based half-open probes would
    make sweep results depend on wall clock, breaking determinism.
    ``allow()`` is the gate callers check before trying the protected
    path; ``record_failure`` / ``record_success`` feed it.
    """

    name: str
    threshold: int = 3
    failures: int = 0
    consecutive: int = 0
    successes: int = 0
    trips: int = 0
    last_failure_reason: str | None = None
    _open: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")

    @property
    def open(self) -> bool:
        """True when the protected path is quarantined."""
        return self._open

    def allow(self) -> bool:
        """Should a caller attempt the protected path right now?"""
        return not self._open

    def record_failure(self, reason: str) -> None:
        """Count one failure; opens the breaker at the threshold."""
        self.failures += 1
        self.consecutive += 1
        self.last_failure_reason = str(reason)
        if not self._open and self.consecutive >= self.threshold:
            self._open = True
            self.trips += 1
            logger.warning(
                "circuit breaker %r opened after %d consecutive failures: %s",
                self.name, self.consecutive, reason,
            )

    def record_success(self) -> None:
        """Count one success; closes the consecutive-failure streak."""
        self.successes += 1
        self.consecutive = 0

    def reset(self) -> None:
        """Close the breaker and clear the failure streak (not counters)."""
        self._open = False
        self.consecutive = 0

    def info(self) -> BreakerInfo:
        return BreakerInfo(
            name=self.name,
            open=self._open,
            failures=self.failures,
            consecutive_failures=self.consecutive,
            successes=self.successes,
            trips=self.trips,
            threshold=self.threshold,
            last_failure_reason=self.last_failure_reason,
        )


_BREAKERS: dict[str, CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def get_breaker(name: str, threshold: int = 3) -> CircuitBreaker:
    """The process-wide breaker registered under ``name`` (created lazily)."""
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(name)
        if breaker is None:
            breaker = CircuitBreaker(name=name, threshold=threshold)
            _BREAKERS[name] = breaker
        return breaker


def breaker_report() -> dict[str, BreakerInfo]:
    """Snapshots of every registered breaker, by name."""
    with _BREAKERS_LOCK:
        return {name: b.info() for name, b in sorted(_BREAKERS.items())}


def quarantined_backends() -> tuple[str, ...]:
    """Names of the currently open (quarantined) breakers."""
    with _BREAKERS_LOCK:
        return tuple(name for name, b in sorted(_BREAKERS.items()) if b.open)


def reset_breakers() -> None:
    """Close and forget every registered breaker (test isolation)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()


def corruption_offsets(
    seed: int, size: int, n: int = 8, *parts
) -> tuple[int, ...]:
    """Deterministic byte offsets a ``"corrupt"`` fault damages.

    A pure function of ``(seed, size, parts)`` so the same plan always
    injures the same bytes of the same file.
    """
    if size <= 0:
        return ()
    return tuple(
        int(_unit_uniform(seed, size, i, *parts) * size) for i in range(n)
    )
