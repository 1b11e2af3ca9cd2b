"""Noise waveform synthesis: white and 1/f generators.

Circuit blocks need sample-domain noise consistent with the PSDs of
:mod:`repro.transduction.noise`.  White noise of one-sided density
``S0`` [V^2/Hz] sampled at ``fs`` has per-sample variance ``S0 fs / 2``.
Flicker noise is synthesized by shaping a white spectrum with
``1/sqrt(f)`` in the frequency domain at a smooth FFT length (the next
2·3·5-smooth length at or above the record's) and keeping the leading
samples, so the inverse FFT never runs at a length with a large prime
factor.

All generators take an explicit :class:`numpy.random.Generator` so
simulations are reproducible and blocks sharing an RNG stay
uncorrelated.  They call only its ``normal(loc, scale, size)``, in a
fixed order: :func:`white_noise` draws one normal per sample (none at
zero density), then :func:`pink_noise` draws the real and then the
imaginary parts of every positive-frequency bin of the smooth length
(none at zero density or for one sample).  :mod:`repro.feedback.loop`
relies on that order to serve a loop's draws from its seed's memoized
normal stream, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SignalError
from ..units import require_nonnegative, require_positive
from .signal import Signal


def white_noise(
    density: float,
    n_samples: int,
    sample_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """White noise samples with one-sided PSD ``density`` [V^2/Hz]."""
    require_nonnegative("density", density)
    require_positive("sample_rate", sample_rate)
    if n_samples < 1:
        raise SignalError("n_samples must be >= 1")
    sigma = math.sqrt(density * sample_rate / 2.0)
    return rng.normal(0.0, sigma, size=n_samples) if sigma > 0.0 else np.zeros(n_samples)


def pink_noise(
    density_at_1hz: float,
    n_samples: int,
    sample_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """1/f noise with one-sided PSD ``density_at_1hz / f`` [V^2/Hz].

    Synthesized in the frequency domain at the smooth length
    ``m = scipy.fft.next_fast_len(n_samples, real=True)``: each
    positive-frequency bin ``k fs/m`` gets a complex Gaussian amplitude
    scaled by ``1/sqrt(f)``; DC is zeroed (an infinite-power bin has no
    finite sample realization).  The first ``n_samples`` of the inverse
    transform are returned; truncation keeps the 1/f PSD above ``fs/m``.
    An inverse FFT at a length with a large prime factor can cost ten
    times more than at the smooth length.
    """
    from scipy.fft import next_fast_len

    require_nonnegative("density_at_1hz", density_at_1hz)
    require_positive("sample_rate", sample_rate)
    if n_samples < 1:
        raise SignalError("n_samples must be >= 1")
    if density_at_1hz == 0.0 or n_samples == 1:
        return np.zeros(n_samples)

    m = next_fast_len(n_samples, real=True)
    freqs = np.fft.rfftfreq(m, d=1.0 / sample_rate)
    spectrum = np.zeros(len(freqs), dtype=complex)
    # target one-sided PSD S(f) = density_at_1hz / f; bin spacing df = fs/m
    df = sample_rate / m
    positive = freqs > 0.0
    psd = density_at_1hz / freqs[positive]
    # one-sided PSD -> rFFT amplitude: |X_k|^2 = S(f) * df * m^2 / 2
    amplitude = np.sqrt(psd * df / 2.0) * m
    phases = rng.normal(size=amplitude.shape) + 1j * rng.normal(size=amplitude.shape)
    spectrum[positive] = amplitude * phases / math.sqrt(2.0)
    return np.fft.irfft(spectrum, n=m)[:n_samples]


def amplifier_input_noise(
    white_density: float,
    corner_frequency: float,
    n_samples: int,
    sample_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Standard amplifier input-referred noise: white + 1/f with a corner.

    ``S(f) = white_density * (1 + corner_frequency / f)`` — the canonical
    en-model of a CMOS amplifier datasheet.
    """
    require_nonnegative("corner_frequency", corner_frequency)
    noise = white_noise(white_density, n_samples, sample_rate, rng)
    if corner_frequency > 0.0:
        noise = noise + pink_noise(
            white_density * corner_frequency, n_samples, sample_rate, rng
        )
    return noise


def noise_signal(
    white_density: float,
    corner_frequency: float,
    duration: float,
    sample_rate: float,
    rng: np.random.Generator,
) -> Signal:
    """Convenience: an amplifier-noise waveform as a :class:`Signal`."""
    n = max(1, int(round(duration * sample_rate)))
    return Signal(
        amplifier_input_noise(white_density, corner_frequency, n, sample_rate, rng),
        sample_rate,
    )
