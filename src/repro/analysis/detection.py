"""Autonomous detection algorithms for the digital backend.

"...enables autonomous device operation" — the chip is meant to decide
*by itself* whether something bound.  This module supplies the
algorithms that decision needs, operating on the sensor output traces
the core systems produce:

* **baseline estimation** with linear drift removal (the residual drift
  the analog referencing didn't catch);
* **CUSUM step detection** — the standard change-point detector, tuned
  by noise level, announcing binding onset;
* **dose-response (Langmuir isotherm) fitting** — turning a titration's
  equilibrium plateaus into ``K_D`` and a concentration estimate for an
  unknown sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, SignalError
from ..units import require_positive


@dataclass(frozen=True)
class Baseline:
    """Linear baseline fitted to the pre-injection segment."""

    offset: float
    slope: float
    noise_rms: float

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """Baseline value at given times."""
        return self.offset + self.slope * np.asarray(times, dtype=float)


def fit_baseline(
    times: np.ndarray, values: np.ndarray, window: float
) -> Baseline:
    """Fit offset + drift to the first ``window`` seconds of a trace."""
    require_positive("window", window)
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = t <= t[0] + window
    if int(np.sum(mask)) < 4:
        raise SignalError("baseline window contains fewer than 4 samples")
    slope, offset = np.polyfit(t[mask], v[mask], 1)
    residual = v[mask] - (offset + slope * t[mask])
    return Baseline(
        offset=float(offset),
        slope=float(slope),
        noise_rms=float(np.std(residual)),
    )


@dataclass(frozen=True)
class StepDetection:
    """Outcome of the CUSUM change detector."""

    detected: bool
    onset_time: float | None
    final_level: float
    threshold: float


def cusum_detect(
    times: np.ndarray,
    values: np.ndarray,
    baseline: Baseline,
    *,
    sigmas: float = 5.0,
    drift_sigmas: float = 0.5,
) -> StepDetection:
    """Two-sided CUSUM change detection against a fitted baseline.

    Parameters
    ----------
    sigmas:
        Decision threshold in units of the baseline noise.
    drift_sigmas:
        CUSUM drift (slack) term in noise units; absorbs residual
        wander below this rate so slow drift does not alarm.
    """
    require_positive("sigmas", sigmas)
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    residual = v - baseline.evaluate(t)
    noise = max(baseline.noise_rms, 1e-15)
    threshold = sigmas * noise
    slack = drift_sigmas * noise

    up = 0.0
    down = 0.0
    onset: float | None = None
    for ti, r in zip(t, residual):
        up = max(0.0, up + r - slack)
        down = max(0.0, down - r - slack)
        if up > threshold or down > threshold:
            onset = float(ti)
            break

    return StepDetection(
        detected=onset is not None,
        onset_time=onset,
        final_level=float(residual[-1]),
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# dose-response fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoseResponseFit:
    """Langmuir isotherm fitted to titration plateaus."""

    k_d: float
    max_response: float
    residual_rms: float

    def response_at(self, concentration: np.ndarray) -> np.ndarray:
        """Model response at given concentrations."""
        c = np.asarray(concentration, dtype=float)
        return self.max_response * c / (c + self.k_d)

    def concentration_from_response(self, response: float) -> float:
        """Invert the isotherm for an unknown sample's concentration.

        Raises when the response is outside (0, max_response).
        """
        if not 0.0 < response < self.max_response:
            raise SignalError(
                f"response {response} outside the invertible range "
                f"(0, {self.max_response})"
            )
        return self.k_d * response / (self.max_response - response)


def fit_dose_response(
    concentrations: np.ndarray, responses: np.ndarray
) -> DoseResponseFit:
    """Fit ``R = R_max C / (C + K_D)`` to titration data.

    Sign-agnostic: negative-going responses (the static sensor's
    compressive steps) are folded to magnitudes before fitting.
    """
    from scipy.optimize import curve_fit

    c = np.asarray(concentrations, dtype=float)
    r = np.abs(np.asarray(responses, dtype=float))
    if c.shape != r.shape or len(c) < 3:
        raise SignalError("need at least 3 matching titration points")
    if np.any(c < 0.0):
        raise SignalError("concentrations must be non-negative")

    r_max_guess = float(np.max(r)) * 1.2 + 1e-30
    # K_D guess: concentration nearest half response
    half = r_max_guess / 2.0
    kd_guess = float(c[np.argmin(np.abs(r - half))]) or float(np.median(c[c > 0]))

    def model(x, kd, rmax):
        return rmax * x / (x + kd)

    try:
        popt, _ = curve_fit(
            model, c, r, p0=(kd_guess, r_max_guess), maxfev=20000
        )
    except RuntimeError as exc:
        raise ConvergenceError(f"dose-response fit failed: {exc}") from exc

    kd, rmax = (float(abs(v)) for v in popt)
    residual = r - model(c, kd, rmax)
    return DoseResponseFit(
        k_d=kd,
        max_response=rmax,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )
