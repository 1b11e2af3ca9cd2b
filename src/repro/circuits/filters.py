"""Low-pass and high-pass filter blocks.

Fig. 4 places a low-pass filter after the chopper amplifier "to improve
the signal-to-noise ratio"; Fig. 5 places high-pass filters in the
feedback loop to damp the MOS bridge's low-frequency noise.  Both are
modeled as Butterworth sections discretized with the bilinear transform,
with per-sample stepping (transposed direct-form II state) so they can
run inside the closed loop.

The design and the frequency response are NumPy ports of the code path
SciPy 1.17 runs for ``scipy.signal.butter(..., output="sos")`` and
``scipy.signal.sosfreqz`` on a digital Butterworth low- or high-pass,
operation for operation, so both are bit-identical (``tobytes``) to
SciPy's (the tests pin both against SciPy) and the loop never imports
``scipy.signal``.  Only the block-level :meth:`_SOSFilter.process` of
the static Fig. 4 chain still calls it (``sosfilt``).

A Butterworth design depends only on its order, its kind and the
normalized cutoff ``cutoff / (sample_rate / 2)`` — the value SciPy
itself derives from ``fs=`` — so designs are memoized on that key
(bounded LRU, process-local).  Loops whose cutoff and sample rate both
scale with the resonance, as Fig. 5's high-pass pair does, share a few
designs across a whole length sweep, and every filter gets its own
copy, bit-identical to a fresh design.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import CircuitError
from ..units import require_positive
from .block import Block
from .signal import Signal


def _butter_design(order: int, kind: str, wn: float) -> np.ndarray:
    """SOS design of a digital Butterworth ``kind`` (``"lowpass"`` or
    ``"highpass"``) at normalized cutoff ``wn`` (1 = Nyquist).

    SciPy's path: ``buttap``, ``lp2lp_zpk`` or ``lp2hp_zpk`` at the
    pre-warped cutoff, ``bilinear_zpk`` at ``fs = 2``, then ``zpk2sos``
    with ``nearest`` pairing.
    """
    if not 0.0 < wn < 1.0:
        raise CircuitError(f"normalized cutoff must be in (0, 1), got {wn}")
    z = np.asarray([], dtype=np.float64)
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    k = 1.0
    fs = 2.0
    wo = float(2 * fs * np.tan(np.pi * np.asarray(wn, dtype=np.float64) / fs))
    if kind == "lowpass":
        z, p, k = wo * z, wo * p, k * wo**order
    else:
        z, p, k = (np.concatenate((wo / z, np.zeros(order))), wo / p,
                   k * np.real(np.prod(-z) / np.prod(-p)))
    fs2 = 2.0 * fs
    degree = len(p) - len(z)
    z, p, k = (np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(degree))),
               (fs2 + p) / (fs2 - p),
               k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p)))

    # zpk2sos: every zero is real (-1, +1, or the 0 an odd order pads)
    n_sections = (order + 1) // 2
    if order % 2:
        p = np.concatenate((p, [0.0]))
        z = np.concatenate((z, [0.0]))
    z = np.concatenate(_cplxreal(z))
    p = np.concatenate(_cplxreal(p))
    sos = np.zeros((n_sections, 6))
    for si in reversed(range(n_sections)):
        # the pole nearest the unit circle, with its conjugate or the
        # next-worst real pole, and the two zeros nearest to it
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[i]
        p = np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2 = p[i]
            p = np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[si, :3] = _poly(np.asarray(zeros))
        sos[si, 3:] = _poly(np.asarray([p1, p2]))
    sos[0, :3] *= k
    return sos


def _cplxreal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SciPy's ``_cplxreal``: one representative per conjugate pair
    (positive imaginary part, pair averaged) and the real values."""
    tol = 100 * np.finfo((1.0 * z).dtype).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    # runs of equal real part are ordered by |imag|
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    run_starts = np.nonzero(diffs > 0)[0]
    run_stops = np.nonzero(diffs < 0)[0]
    for start, stop in zip(run_starts, run_stops + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    zc = (zp + zn.conj()) / 2
    return zc, zr


def _poly(roots: np.ndarray) -> np.ndarray:
    """The monic polynomial with these roots, as ``zpk2tf`` expands it:
    one full convolution per root in the roots' dtype, then taken real
    (a section's roots are real or a conjugate pair)."""
    a = np.ones((1,), dtype=roots.dtype)
    for root in roots:
        a = np.convolve(a, np.stack((np.ones_like(root), -root)), mode="full")
    return a.real


def _sos_response(sos: np.ndarray, frequency, sample_rate: float) -> np.ndarray:
    """``sosfreqz(sos, worN=frequency, fs=sample_rate)[1]``, as SciPy
    computes it: each section's numerator and denominator by Horner's
    rule in ``exp(-1j w)``, the sections multiplied in one at a time."""
    w = np.atleast_1d(np.asarray(frequency, dtype=np.float64))
    w = 2 * np.pi * w / float(sample_rate)
    zm1 = np.exp(-1j * w)
    h = 1.0
    for row in sos:
        h *= _polyval(zm1, row[:3]) / _polyval(zm1, row[3:])
    return h


def _polyval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SciPy's ``npp_polyval``: the constant term is promoted to complex
    and broadcast to ``x`` before the first Horner step."""
    y = np.broadcast_to(np.asarray(c[-1], dtype=x.dtype), x.shape)
    for coefficient in c[-2::-1]:
        y = coefficient + y * x
    return y


@functools.lru_cache(maxsize=128)
def _butter_sos(order: int, kind: str, wn: float) -> np.ndarray:
    """The read-only SOS design of a digital Butterworth at normalized
    cutoff ``wn`` (1 = Nyquist); callers copy it."""
    sos = _butter_design(order, kind, wn)
    sos.flags.writeable = False
    return sos


class _SOSFilter(Block):
    """Shared machinery: an SOS-cascade IIR filter with stepping state.

    The design is kept twice: the ``(n_sections, 6)`` SOS array (SciPy's
    ``sos`` layout) for batch :meth:`process` / :meth:`response`, and a
    flattened list of per
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
        from scipy.signal import sosfilt

        self._ensure_designed(signal.sample_rate)
        zi = np.asarray(self._state, dtype=float).reshape(-1, 2)
        out, zi = sosfilt(self._sos, signal.samples, zi=zi)
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
        return _sos_response(
            self._sos, np.asarray(frequency, dtype=float), sample_rate
        )


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
