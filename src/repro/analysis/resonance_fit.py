"""Resonance-curve measurement and fitting (open-loop characterization).

Before the Fig. 5 loop is closed, a real bring-up measures the
cantilever's response curve: drive the coil with tones across a span,
record the bridge amplitude at each, and fit the driven-oscillator
magnitude

    |H(f)| = A f0^2 / sqrt((f0^2 - f^2)^2 + (f f0 / Q)^2)

to extract ``f0`` and ``Q``.  This module provides both halves: the
swept-sine measurement (on any force-to-displacement resonator model)
and the non-linear least-squares fit, cross-validated in the tests
against the ring-down estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, SignalError
from ..mechanics.dynamics import ModalResonator
from ..units import require_positive


@dataclass(frozen=True)
class ResonanceFit:
    """Result of a Lorentzian fit to a measured response curve."""

    frequency: float
    quality_factor: float
    peak_amplitude: float
    residual_rms: float


def _magnitude_model(f, f0, q, a):
    return (
        a * f0**2 / np.sqrt((f0**2 - f**2) ** 2 + (f * f0 / q) ** 2)
    )


def fit_resonance(
    frequencies: np.ndarray, amplitudes: np.ndarray
) -> ResonanceFit:
    """Fit ``f0``, ``Q``, and the drive scale to a measured magnitude curve.

    Initial guesses come from the peak location and the half-power
    width, so the fit converges from any reasonable sweep.

    Raises
    ------
    ConvergenceError
        If the optimizer fails or returns unphysical parameters.
    """
    from scipy.optimize import curve_fit

    f = np.asarray(frequencies, dtype=float)
    a = np.asarray(amplitudes, dtype=float)
    if f.shape != a.shape or len(f) < 5:
        raise SignalError("need matching arrays of at least 5 sweep points")
    if np.any(a < 0.0):
        raise SignalError("amplitudes must be non-negative")

    i_peak = int(np.argmax(a))
    f0_guess = float(f[i_peak])
    peak = float(a[i_peak])
    half = peak / math.sqrt(2.0)
    above = f[a >= half]
    width = float(above[-1] - above[0]) if len(above) >= 2 else f0_guess / 10.0
    q_guess = max(0.6, f0_guess / max(width, 1e-12))

    try:
        popt, _ = curve_fit(
            _magnitude_model,
            f,
            a,
            p0=(f0_guess, q_guess, peak / q_guess),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise ConvergenceError(f"resonance fit failed: {exc}") from exc

    f0, q, scale = (float(v) for v in popt)
    q = abs(q)
    if not (0.0 < f0 < 2.0 * f.max()) or q <= 0.0:
        raise ConvergenceError(
            f"resonance fit returned unphysical parameters f0={f0}, Q={q}"
        )
    residuals = a - _magnitude_model(f, f0, q, scale)
    return ResonanceFit(
        frequency=f0,
        quality_factor=q,
        peak_amplitude=float(_magnitude_model(np.asarray([f0]), f0, q, scale)[0]),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


def _swept_sine_batched(
    resonator: ModalResonator,
    f: np.ndarray,
    force_amplitude: float,
    settle_cycles: float,
    measure_cycles: float,
    threads: int | None,
) -> np.ndarray:
    """All tones of a swept-sine measurement as ONE batched kernel call.

    Each tone becomes an open-loop kernel instance: the force waveform
    enters through the noise slot (``coef = 0`` so the bridge node *is*
    the force sample, exactly), the actuator is the identity
    (``R = 1 Ohm``, no current limit, ``1 N/A``), and the mode update is
    the very arithmetic of :meth:`ModalResonator.step` — so every
    displacement waveform is bit-identical to the per-sample Python
    drive, which the golden suite pins.  Raises
    :class:`~repro.errors.LoweringError` for subclassed/patched
    resonators and when no C engine is trusted (the caller falls back
    to the Python loop).
    """
    from ..engine.kernel import FusedLoopKernel, KernelBatch
    from ..feedback.loop import lower_resonator_mode

    h = resonator.timestep
    kernels, ns, forces, n_settles = [], [], [], []
    for fi in f:
        resonator.reset()
        mode = lower_resonator_mode(resonator, 0.0)
        kernels.append(FusedLoopKernel(
            pre_stages=[], limiter_stages=[], buffer_stages=[],
            modes=[mode],
            act_r=1.0, act_imax=math.inf, act_fpc=1.0,
            include_taps=False,
        ))
        n_settle = max(1, int(round(settle_cycles / (fi * h))))
        n_measure = max(2, int(round(measure_cycles / (fi * h))))
        t = np.arange(n_settle + n_measure) * h
        forces.append(force_amplitude * np.sin(2.0 * math.pi * fi * t))
        ns.append(n_settle + n_measure)
        n_settles.append(n_settle)

    results = KernelBatch(kernels, ns, forces).run(threads=threads)
    amplitudes = np.empty(len(f))
    for i, result in enumerate(results):
        steady = result.displacement[n_settles[i]:]
        amplitudes[i] = math.sqrt(2.0) * float(np.std(steady))
    resonator.reset()
    return amplitudes


def swept_sine_response(
    resonator: ModalResonator,
    frequencies: np.ndarray,
    force_amplitude: float,
    settle_cycles: float = None,
    measure_cycles: float = 40.0,
    backend: str = "auto",
    threads: int | None = None,
) -> np.ndarray:
    """Measure the steady-state amplitude at each drive frequency [m].

    Drives the time-domain resonator with a tone, waits several decay
    times, and reads the rms amplitude — exactly the bring-up experiment,
    run on the model.

    ``backend="auto"`` (default) runs all tones as one batched kernel
    call (bit-identical to the per-sample drive, ~10-40x faster);
    ``backend="reference"`` forces the per-sample Python path.
    Resonators the kernel cannot prove equivalent (subclassed or
    patched ``step``), and machines with no trusted C compiler, fall
    back to the reference path with the reason logged and counted.
    """
    require_positive("force_amplitude", force_amplitude)
    f = np.asarray(frequencies, dtype=float)
    h = resonator.timestep
    if settle_cycles is None:
        settle_cycles = 8.0 * resonator.quality_factor

    if backend != "reference" and len(f):
        from ..engine.kernel import resolve_backend, record_fallback
        from ..errors import LoweringError

        if resolve_backend(backend) != "reference":
            try:
                return _swept_sine_batched(
                    resonator, f, force_amplitude,
                    settle_cycles, measure_cycles, threads,
                )
            except LoweringError as err:
                record_fallback(str(err))

    amplitudes = np.empty(len(f))
    for i, fi in enumerate(f):
        resonator.reset()
        n_settle = max(1, int(round(settle_cycles / (fi * h))))
        n_measure = max(2, int(round(measure_cycles / (fi * h))))
        t = np.arange(n_settle + n_measure) * h
        force = force_amplitude * np.sin(2.0 * math.pi * fi * t)
        x = resonator.run(force)
        steady = x[n_settle:]
        amplitudes[i] = math.sqrt(2.0) * float(np.std(steady))
    resonator.reset()
    return amplitudes


def measure_resonance(
    resonator: ModalResonator,
    span_factor: float = 0.4,
    points: int = 41,
    force_amplitude: float = 1e-9,
    backend: str = "auto",
) -> ResonanceFit:
    """Full bring-up: sweep around the expected resonance and fit.

    The sweep is centred on the resonator's (possibly mistuned) nominal
    frequency with a fractional span wide enough to capture the skirt.
    ``backend`` selects the swept-sine execution path (see
    :func:`swept_sine_response`); the batched default is bit-identical.
    """
    require_positive("span_factor", span_factor)
    if points < 7:
        raise SignalError("a resonance sweep needs at least 7 points")
    f0 = resonator.natural_frequency
    frequencies = np.linspace(
        f0 * (1.0 - span_factor), f0 * (1.0 + span_factor), points
    )
    amplitudes = swept_sine_response(
        resonator, frequencies, force_amplitude, backend=backend
    )
    return fit_resonance(frequencies, amplitudes)
