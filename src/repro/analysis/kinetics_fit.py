"""Binding-kinetics extraction from sensor transients (SPR-style analysis).

A binding transient at constant concentration is exponential with
observed rate ``k_obs = k_on C + k_off``; a titration therefore yields
the kinetic constants from a straight line: slope ``k_on``, intercept
``k_off`` — and their ratio is ``K_D``, cross-checkable against the
equilibrium isotherm fit of :mod:`repro.analysis.detection`.  This is
how surface-binding instruments (SPR, and cantilever sensors alike)
turn raw traces into publishable kinetics.

Provided: single-transient ``k_obs`` fitting (exponential least squares),
the ``k_obs``-vs-C line fit, and the end-to-end pipeline from a set of
sensor output traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, SignalError


@dataclass(frozen=True)
class TransientFit:
    """Exponential fit of one binding transient."""

    k_obs: float
    amplitude: float
    offset: float
    residual_rms: float


def fit_transient(times: np.ndarray, response: np.ndarray) -> TransientFit:
    """Fit ``y(t) = offset + amplitude (1 - exp(-k_obs t))``.

    Works on any monotone binding trace (coverage, output volts,
    frequency shift); the sign of ``amplitude`` carries the direction.
    """
    from scipy.optimize import curve_fit

    t = np.asarray(times, dtype=float)
    y = np.asarray(response, dtype=float)
    if t.shape != y.shape or len(t) < 5:
        raise SignalError("need matching arrays of at least 5 samples")
    if np.any(np.diff(t) <= 0.0):
        raise SignalError("times must be strictly increasing")

    span = float(y[-1] - y[0])
    t_span = float(t[-1] - t[0])
    k_guess = 3.0 / t_span
    # refine: time to ~63% of the span
    if span != 0.0:
        progress = (y - y[0]) / span
        reached = t[progress >= 0.632]
        if len(reached):
            k_guess = 1.0 / max(float(reached[0] - t[0]), t_span / 1e3)

    def model(x, k, a, c):
        return c + a * (1.0 - np.exp(-k * (x - t[0])))

    try:
        popt, _ = curve_fit(
            model, t, y, p0=(k_guess, span, float(y[0])), maxfev=20000
        )
    except RuntimeError as exc:
        raise ConvergenceError(f"transient fit failed: {exc}") from exc

    k_obs, amplitude, offset = (float(v) for v in popt)
    if k_obs <= 0.0:
        raise ConvergenceError(f"transient fit returned k_obs = {k_obs}")
    residual = y - model(t, *popt)
    return TransientFit(
        k_obs=k_obs,
        amplitude=amplitude,
        offset=offset,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


@dataclass(frozen=True)
class KineticsFit:
    """k_on / k_off extracted from a k_obs-vs-concentration line."""

    k_on: float
    k_off: float
    residual_rms: float

    @property
    def dissociation_constant(self) -> float:
        """``K_D = k_off / k_on`` [molecules/m^3]."""
        return self.k_off / self.k_on


def fit_kobs_line(
    concentrations: np.ndarray, k_obs_values: np.ndarray
) -> KineticsFit:
    """Fit ``k_obs = k_on C + k_off`` across a titration.

    Requires at least three concentrations; a negative fitted intercept
    (possible with noisy data and tight binders) is clamped to zero with
    the residual reported honestly.
    """
    c = np.asarray(concentrations, dtype=float)
    k = np.asarray(k_obs_values, dtype=float)
    if c.shape != k.shape or len(c) < 3:
        raise SignalError("need at least 3 matching titration points")
    if np.any(c < 0.0) or np.any(k <= 0.0):
        raise SignalError("concentrations must be >= 0 and k_obs > 0")

    slope, intercept = np.polyfit(c, k, 1)
    if slope <= 0.0:
        raise ConvergenceError(
            f"k_obs line has non-positive slope ({slope:.3g}): the data do "
            "not show concentration-dependent kinetics"
        )
    residual = k - (slope * c + intercept)
    return KineticsFit(
        k_on=float(slope),
        k_off=float(max(intercept, 0.0)),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def extract_kinetics(
    concentrations: list[float],
    traces: list[tuple[np.ndarray, np.ndarray]],
) -> KineticsFit:
    """End-to-end: per-trace exponential fits, then the k_obs line.

    Parameters
    ----------
    concentrations:
        Analyte concentration of each transient [molecules/m^3].
    traces:
        Matching ``(times, response)`` pairs (exposure segments only).
    """
    if len(concentrations) != len(traces):
        raise SignalError("need one trace per concentration")
    k_obs = [fit_transient(t, y).k_obs for t, y in traces]
    return fit_kobs_line(np.asarray(concentrations), np.asarray(k_obs))
