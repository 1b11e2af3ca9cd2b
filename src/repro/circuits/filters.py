"""Low-pass and high-pass filter blocks.

Fig. 4 places a low-pass filter after the chopper amplifier "to improve
the signal-to-noise ratio"; Fig. 5 places high-pass filters in the
feedback loop to damp the MOS bridge's low-frequency noise.  Both are
modeled as Butterworth sections discretized with the bilinear transform,
with per-sample stepping (transposed direct-form II state) so they can
run inside the closed loop.

A Butterworth design depends only on its order, its kind and the
normalized cutoff ``cutoff / (sample_rate / 2)`` — the value SciPy
itself derives from ``fs=`` — so designs are memoized on that key
(bounded LRU, process-local).  Loops whose cutoff and sample rate both
scale with the resonance, as Fig. 5's high-pass pair does, share a few
designs across a whole length sweep, and every filter gets its own
copy, bit-identical to a fresh ``sps.butter(..., fs=sample_rate)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import signal as sps

from ..errors import CircuitError
from ..units import require_positive
from .block import Block
from .signal import Signal


@functools.lru_cache(maxsize=128)
def _butter_sos(order: int, kind: str, wn: float) -> np.ndarray:
    """The read-only SOS design of a digital Butterworth at normalized
    cutoff ``wn`` (1 = Nyquist); callers copy it."""
    sos = sps.butter(order, wn, btype=kind, output="sos")
    sos.flags.writeable = False
    return sos


class _SOSFilter(Block):
    """Shared machinery: an SOS-cascade IIR filter with stepping state.

    The design is kept twice: the scipy ``sos`` array for batch
    :meth:`process` / :meth:`response`, and a flattened list of per
    section ``(b0, b1, b2, a1, a2)`` Python-float tuples plus a flat
    state list for :meth:`step`, so the per-sample path pays no numpy
    row indexing.  Both views update the same state.
    """

    def __init__(self, cutoff: float, order: int, kind: str) -> None:
        self.cutoff = require_positive("cutoff", cutoff)
        if order < 1:
            raise CircuitError(f"filter order must be >= 1, got {order}")
        self.order = int(order)
        self._kind = kind
        self._sos: np.ndarray | None = None
        self._coeffs: list[tuple[float, float, float, float, float]] = []
        self._state: list[float] = []
        self._design_rate: float | None = None

    def _ensure_designed(self, sample_rate: float) -> None:
        if self._sos is not None and self._design_rate == sample_rate:
            return
        nyquist = sample_rate / 2.0
        if self.cutoff >= nyquist:
            raise CircuitError(
                f"cutoff {self.cutoff} Hz is at/above Nyquist ({nyquist} Hz)"
            )
        # sosfilt rejects a read-only SOS array: each filter owns a copy
        self._sos = _butter_sos(
            self.order, self._kind, self.cutoff / (sample_rate / 2.0)
        ).copy()
        self._coeffs = [
            (float(b0), float(b1), float(b2), float(a1), float(a2))
            for b0, b1, b2, _, a1, a2 in self._sos
        ]
        self._state = [0.0] * (2 * self._sos.shape[0])
        self._design_rate = sample_rate

    def process(self, signal: Signal) -> Signal:
        self._ensure_designed(signal.sample_rate)
        zi = np.asarray(self._state, dtype=float).reshape(-1, 2)
        out, zi = sps.sosfilt(self._sos, signal.samples, zi=zi)
        self._state = [float(z) for z in zi.ravel()]
        return Signal(out, signal.sample_rate)

    def step(self, x: float) -> float:
        if self._sos is None:
            raise CircuitError(
                "call prepare(sample_rate) or process() once before stepping"
            )
        # transposed direct-form II per SOS section, flat state
        st = self._state
        p = 0
        for b0, b1, b2, a1, a2 in self._coeffs:
            y = b0 * x + st[p]
            st[p] = b1 * x - a1 * y + st[p + 1]
            st[p + 1] = b2 * x - a2 * y
            x = y
            p += 2
        return x

    def prepare(self, sample_rate: float) -> None:
        """Design the filter for a sample rate before per-sample stepping."""
        self._ensure_designed(sample_rate)

    def reset(self) -> None:
        self._state = [0.0] * len(self._state)

    def lower_stage(self):
        from ..engine.kernel import OP_SOS, KernelOp, KernelStage

        if self._sos is None:
            raise CircuitError(
                "call prepare(sample_rate) or process() once before stepping"
            )
        ops = [
            KernelOp(OP_SOS, coeffs, tuple(self._state[2 * i:2 * i + 2]))
            for i, coeffs in enumerate(self._coeffs)
        ]

        def sync(final) -> None:
            self._state = [float(z) for z in final]

        return KernelStage(type(self).__name__, ops, sync)

    def response(self, frequency: np.ndarray, sample_rate: float) -> np.ndarray:
        """Complex frequency response at the given sample rate."""
        self._ensure_designed(sample_rate)
        _, h = sps.sosfreqz(
            self._sos, worN=np.asarray(frequency, dtype=float), fs=sample_rate
        )
        return h


class LowPassFilter(_SOSFilter):
    """Butterworth low-pass (Fig. 4's post-chopper SNR filter).

    Parameters
    ----------
    cutoff:
        -3 dB frequency [Hz].
    order:
        Butterworth order (default 2: one biquad, what a compact on-chip
        gm-C filter realizes).
    """

    def __init__(self, cutoff: float, order: int = 2) -> None:
        super().__init__(cutoff, order, "lowpass")


class HighPassFilter(_SOSFilter):
    """Butterworth high-pass (Fig. 5's loop LF-noise dampers)."""

    def __init__(self, cutoff: float, order: int = 2) -> None:
        super().__init__(cutoff, order, "highpass")


class RCLowPass(Block):
    """Single-pole RC low-pass with exact per-sample recursion.

    ``y[n] = y[n-1] + (1 - exp(-2 pi fc / fs)) (x[n] - y[n-1])`` — the
    lightest-weight anti-alias/settling model, used for pole roll-offs
    inside other blocks.
    """

    def __init__(self, cutoff: float) -> None:
        self.cutoff = require_positive("cutoff", cutoff)
        self._y = 0.0
        self._alpha: float | None = None
        self._design_rate: float | None = None

    def _ensure(self, sample_rate: float) -> None:
        if self._alpha is None or self._design_rate != sample_rate:
            self._alpha = 1.0 - math.exp(-2.0 * math.pi * self.cutoff / sample_rate)
            self._design_rate = sample_rate

    def prepare(self, sample_rate: float) -> None:
        """Fix the sample rate before per-sample stepping."""
        self._ensure(sample_rate)

    def process(self, signal: Signal) -> Signal:
        self._ensure(signal.sample_rate)
        out = np.empty_like(signal.samples)
        y = self._y
        a = self._alpha
        for i, x in enumerate(signal.samples):
            y += a * (x - y)
            out[i] = y
        self._y = y
        return Signal(out, signal.sample_rate)

    def step(self, x: float) -> float:
        if self._alpha is None:
            raise CircuitError("call prepare(sample_rate) before stepping")
        self._y += self._alpha * (x - self._y)
        return self._y

    def reset(self) -> None:
        self._y = 0.0

    def lower_stage(self):
        from ..engine.kernel import OP_RC, KernelOp, KernelStage

        if self._alpha is None:
            raise CircuitError("call prepare(sample_rate) before stepping")
        op = KernelOp(OP_RC, (self._alpha,), (self._y,))

        def sync(final) -> None:
            self._y = float(final[0])

        return KernelStage("RCLowPass", [op], sync)
