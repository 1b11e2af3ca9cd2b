"""Power-spectral-density estimation (Welch) for signals.

Used by benches and tests to verify noise models: the synthesized 1/f
waveforms must actually have 1/f spectra, the chopper must actually move
offset to the carrier, and the loop's bridge node must show the HP
filters removing the LF shelf.
"""

from __future__ import annotations

import numpy as np

from ..circuits.signal import Signal
from ..errors import SignalError


def welch_psd(
    signal: Signal, segments: int = 8, detrend: str = "constant"
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD: (frequencies [Hz], PSD [V^2/Hz]).

    Segment length is chosen from the requested segment count with 50 %
    overlap, Hann windowed — the standard robust estimate.
    """
    from scipy.signal import welch

    n = len(signal)
    if segments < 1:
        raise SignalError("need at least one segment")
    nperseg = max(8, n // segments)
    freqs, psd = welch(
        signal.samples,
        fs=signal.sample_rate,
        nperseg=nperseg,
        detrend=detrend,
    )
    return freqs, psd


def band_power(
    signal: Signal, f_low: float, f_high: float, segments: int = 8
) -> float:
    """Integrated power [V^2] in a frequency band from the Welch PSD."""
    if not 0.0 <= f_low < f_high:
        raise SignalError(f"need 0 <= f_low < f_high, got [{f_low}, {f_high}]")
    freqs, psd = welch_psd(signal, segments)
    mask = (freqs >= f_low) & (freqs <= f_high)
    if not np.any(mask):
        raise SignalError("no PSD bins inside the requested band")
    return float(np.trapezoid(psd[mask], freqs[mask]))


def band_rms(signal: Signal, f_low: float, f_high: float, segments: int = 8) -> float:
    """RMS voltage in a band [V]."""
    return float(np.sqrt(band_power(signal, f_low, f_high, segments)))


def psd_slope(
    signal: Signal, f_low: float, f_high: float, segments: int = 8
) -> float:
    """Log-log slope of the PSD over a band (e.g. ~-1 for 1/f noise)."""
    freqs, psd = welch_psd(signal, segments)
    mask = (freqs >= f_low) & (freqs <= f_high) & (psd > 0.0)
    if int(np.sum(mask)) < 4:
        raise SignalError("too few PSD bins for a slope fit")
    return float(np.polyfit(np.log(freqs[mask]), np.log(psd[mask]), 1)[0])
