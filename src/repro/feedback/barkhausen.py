"""Small-signal loop analysis: Barkhausen criterion.

A feedback oscillator starts when, at some frequency, the loop gain
magnitude exceeds one while its phase crosses zero.  This module
evaluates the complex loop gain of a :class:`ResonantFeedbackLoop`
across frequency, finds the zero-phase frequency, and reports startup
margin — the design-review companion to the time-domain simulation
(they must agree, and the tests check that they do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import OscillationError
from ..units import require_positive
from .loop import ResonantFeedbackLoop


@dataclass(frozen=True)
class BarkhausenResult:
    """Outcome of the small-signal loop analysis."""

    oscillation_frequency: float
    loop_gain_magnitude: float
    will_oscillate: bool
    gain_margin_db: float


def loop_gain(
    loop: ResonantFeedbackLoop, frequency: np.ndarray, sample_rate: float
) -> np.ndarray:
    """Complex loop gain over a frequency grid."""
    f = np.asarray(frequency, dtype=float)
    return (
        loop.displacement_to_voltage
        * loop.electrical_gain(f, sample_rate)
        * loop.actuator.force_per_volt
        * loop.resonator.transfer_function(f)
    )


def analyze(
    loop: ResonantFeedbackLoop,
    sample_rate: float,
    span_factor: float = 0.2,
    points: int = 4001,
) -> BarkhausenResult:
    """Find the zero-phase frequency near resonance and the gain there.

    Searches ``f0 * (1 +/- span_factor)``; raises when no zero-phase
    crossing exists in the span (a broken loop, e.g. missing phase
    conditioning).
    """
    require_positive("span_factor", span_factor)
    f0 = loop.resonator.natural_frequency
    f = np.linspace(f0 * (1.0 - span_factor), f0 * (1.0 + span_factor), points)
    g = loop_gain(loop, f, sample_rate)
    phase = np.angle(g)

    crossings = np.where(np.diff(np.sign(phase)) != 0)[0]
    # keep crossings where the phase goes through zero (not +/- pi wraps)
    valid = [
        i for i in crossings
        if abs(phase[i]) < math.pi / 2 and abs(phase[i + 1]) < math.pi / 2
    ]
    if not valid:
        raise OscillationError(
            "no zero-phase crossing near resonance; the loop cannot satisfy "
            "the Barkhausen phase condition"
        )
    # choose the crossing with the highest gain magnitude
    best = max(valid, key=lambda i: abs(g[i]))
    # linear interpolation of the crossing frequency
    p0, p1 = phase[best], phase[best + 1]
    frac = 0.0 if p1 == p0 else -p0 / (p1 - p0)
    f_osc = f[best] + frac * (f[best + 1] - f[best])
    magnitude = float(abs(g[best]) + frac * (abs(g[best + 1]) - abs(g[best])))

    return BarkhausenResult(
        oscillation_frequency=float(f_osc),
        loop_gain_magnitude=magnitude,
        will_oscillate=magnitude > 1.0,
        gain_margin_db=20.0 * math.log10(magnitude) if magnitude > 0.0 else -math.inf,
    )


def startup_check(
    loop: ResonantFeedbackLoop,
    sample_rate: float,
    span_factor: float = 0.2,
    points: int = 4001,
) -> tuple[bool, str | None]:
    """Non-raising startup verdict: ``(will_start, reason_if_not)``.

    The health-layer companion to :func:`analyze`: a loop that cannot
    satisfy Barkhausen is a *channel diagnosis* during an array
    measurement, not an exception — the array keeps measuring its other
    channels.  Returns ``(True, None)`` for a healthy loop,
    ``(False, "no-zero-phase-crossing")`` when the phase condition is
    unsatisfiable, ``(False, "insufficient-loop-gain")`` when the
    crossing exists but |gain| <= 1.
    """
    try:
        result = analyze(loop, sample_rate, span_factor, points)
    except OscillationError:
        return (False, "no-zero-phase-crossing")
    if not result.will_oscillate:
        return (False, "insufficient-loop-gain")
    return (True, None)
