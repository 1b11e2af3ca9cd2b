"""Machine-readable engine/service health (the readiness probe's food).

One function, one dict: :func:`health_snapshot` collects the execution
engine's state — compiler availability, kernel run/degrade counters,
circuit breakers, optionally a cache integrity audit — as plain JSON
types.  ``repro health --json`` prints it verbatim and the serve
layer's ``/healthz`` endpoint embeds it, so a load balancer and a
human read the same numbers.
"""

from __future__ import annotations

from typing import Any

__all__ = ["health_snapshot", "resilience_snapshot"]


def resilience_snapshot() -> dict[str, Any]:
    """The engine's current resilience counters, as plain JSON types.

    The per-job slice of :func:`health_snapshot`: kernel degrade /
    fallback counters and breaker states, captured into each finished
    :class:`~repro.service.JobRecord` so a job's status payload shows
    what the engine survived while computing it.
    """
    from ..engine import breaker_report, kernel_info

    info = kernel_info()
    return {
        "cc_quarantined": bool(info.cc_quarantined),
        "kernel_runs": dict(info.runs),
        "batch_runs": info.batch_runs,
        "batch_instances": info.batch_instances,
        "batch_declined": info.batch_declined,
        "batch_columnar_runs": info.batch_columnar_runs,
        "op_samples": dict(info.op_samples or {}),
        "fallbacks": info.fallbacks,
        "last_fallback_reason": info.last_fallback_reason or None,
        "degrades": info.degrades,
        "last_degrade_reason": info.last_degrade_reason or None,
        "breakers": {
            name: {
                "open": b.open,
                "failures": b.failures,
                "trips": b.trips,
            }
            for name, b in sorted(breaker_report().items())
        },
    }


def health_snapshot(
    cache_dir: str | None = None, evict: bool = False
) -> dict[str, Any]:
    """Full engine health as one JSON-ready dict.

    Parameters
    ----------
    cache_dir:
        When given, also integrity-scan that
        :class:`~repro.engine.TieredCache` directory and report
        intact/damaged counts (the scan is an audit: hit/miss counters
        are untouched).
    evict:
        Forwarded to :meth:`~repro.engine.TieredCache.verify` — evict
        damaged entries found by the scan.

    The top-level ``"ok"`` field is the readiness verdict: True unless
    the compiled engine is quarantined, a breaker is open, or the cache
    scan found damage it was not allowed to evict.
    """
    from ..engine import cc_available, kernel_info
    from .transport import transport_report

    info = kernel_info()
    resilience = resilience_snapshot()
    snapshot: dict[str, Any] = {
        "compiler_available": bool(cc_available()),
        "compiler_error": info.cc_build_error or None,
        **resilience,
        # outbound HTTP vitals: retry / deadline-shed / breaker counters
        # for this process's ServiceClient + HTTPRemoteStore traffic
        "transport": transport_report(),
    }

    ok = not resilience["cc_quarantined"] and not any(
        b["open"] for b in resilience["breakers"].values()
    )
    if cache_dir is not None:
        from ..engine import TieredCache

        intact, damaged = TieredCache(cache_dir).verify(evict=evict)
        snapshot["cache"] = {
            "directory": str(cache_dir),
            "intact": intact,
            "damaged": damaged,
            "evicted": bool(evict),
        }
        ok = ok and (damaged == 0 or evict)
    snapshot["ok"] = ok
    return snapshot
