"""The resonant feedback loop of Fig. 5, simulated in the time domain.

The loop closes the full physical path:

    cantilever tip displacement
      -> surface stress at the clamped-edge PMOS bridge
      -> bridge differential voltage (plus its thermal + 1/f noise)
      -> DDA instrumentation amplifier
      -> high-pass filters (LF-noise damping)
      -> +90-degree phase conditioning
      -> variable-gain amplifier
      -> non-linear limiting amplifier
      -> class-AB buffer
      -> coil current -> Lorentz tip force
      -> cantilever dynamics (exact ZOH integration)

Every stage is the corresponding block from :mod:`repro.circuits` /
:mod:`repro.actuation`, stepped sample-by-sample, so every claimed
behaviour of the paper — startup, amplitude limiting, gain adjustment to
liquid damping, LF-noise suppression — emerges from the same simulation
rather than being asserted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from ..actuation.lorentz import ActuationCoil, LorentzActuator
from ..circuits.buffer import ClassABBuffer
from ..circuits.dda import DDAInstrumentationAmplifier
from ..circuits.filters import HighPassFilter
from ..circuits.limiter import LimitingAmplifier
from ..circuits.noise import amplifier_input_noise
from ..circuits.phase import PhaseLead
from ..circuits.signal import Signal
from ..circuits.vga import VariableGainAmplifier
from ..engine.kernel import (
    FusedLoopKernel,
    KernelBatch,
    ModeLowering,
    batch_signature,
    kernel_batch_threads,
    lower_block,
    record_fallback,
    resolve_backend,
)
from ..engine.resilience import active_injector, corruption_offsets, poll_fault
from ..errors import LoweringError, OscillationError
from ..mechanics.dynamics import ModalResonator
from ..transduction.placement import BridgePlacement, CLAMPED_EDGE, bridge_average_stress
from ..transduction.wheatstone import WheatstoneBridge
from ..units import require_positive


@dataclass
class LoopRecord:
    """Waveforms captured during a closed-loop run."""

    times: np.ndarray
    displacement: np.ndarray
    bridge_voltage: np.ndarray
    limiter_input: np.ndarray
    limiter_output: np.ndarray
    drive_voltage: np.ndarray
    sample_rate: float

    def displacement_signal(self) -> Signal:
        """Tip displacement as a Signal [m]."""
        return Signal(self.displacement, self.sample_rate)

    def bridge_signal(self) -> Signal:
        """Bridge output as a Signal [V]."""
        return Signal(self.bridge_voltage, self.sample_rate)

    def limiter_input_signal(self) -> Signal:
        """Pre-limiter node as a Signal [V] — where the high-pass
        filters' low-frequency cleanup is visible."""
        return Signal(self.limiter_input, self.sample_rate)

    def drive_signal(self) -> Signal:
        """Buffer output as a Signal [V]."""
        return Signal(self.drive_voltage, self.sample_rate)

    def steady_amplitude(self, tail_fraction: float = 0.25) -> float:
        """Tip oscillation amplitude over the trailing fraction [m]."""
        n = len(self.displacement)
        tail = self.displacement[int(n * (1.0 - tail_fraction)):]
        return float(np.sqrt(2.0) * np.std(tail))


#: Memoized bridge-noise realizations.  A noise block is a pure function
#: of (seed, scaled white PSD, corner, n, sample_rate) — its normal draws
#: are those of a fresh ``default_rng(seed)`` — so identical loops (sweep
#: repeats, fabric chunk re-runs, best-of bench rounds) can share one
#: synthesis instead of paying the FFT shaping every run.  Entries hold
#: a private copy and hand out copies, so callers may mutate freely;
#: the cache is bounded LRU and process-local.  The lock guards only the
#: table: :func:`run_batch` synthesizes on pool threads, so two loops
#: with one key may both synthesize, and they store equal arrays.
_NOISE_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()
_NOISE_MEMO_LOCK = threading.Lock()
_NOISE_MEMO_ENTRIES = 64

#: Memoized normal streams, one per ``int`` seed.  The draws of
#: ``default_rng(seed)`` are prefix-consistent, so the white and pink
#: draws of every synthesis with one seed are leading slices of one
#: stream — and every loop of a spec grid shares ``loop.seed``.  A
#: stream only grows, by drawing more from the generator that drew it,
#: and each grown array is read-only, so a slice handed out stays valid
#: while another thread grows the stream.  Growth takes the lock.  The
#: first :data:`_SEED_STREAM_SEEDS` seeds get a stream, and the streams
#: hold at most :data:`_SEED_STREAM_DOUBLES` doubles together; a
#: synthesis past either bound draws from a fresh ``default_rng(seed)``.
_SEED_STREAMS: dict[int, _SeedStream] = {}
_SEED_STREAM_LOCK = threading.Lock()
_SEED_STREAM_SEEDS = 8
_SEED_STREAM_DOUBLES = 1 << 21


class _SeedStream:
    """The leading standard normals of ``default_rng(seed)`` and the
    generator that drew them."""

    __slots__ = ("rng", "normals")

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.normals = np.empty(0)
        self.normals.flags.writeable = False

    def take(self, start: int, stop: int) -> np.ndarray | None:
        """Read-only normals ``start:stop`` of the stream, drawing the
        missing tail; ``None`` when that would pass the doubles bound."""
        normals = self.normals
        if stop > len(normals):
            with _SEED_STREAM_LOCK:
                normals = self.normals
                missing = stop - len(normals)
                if missing > 0:
                    held = sum(len(s.normals) for s in _SEED_STREAMS.values())
                    if held + missing > _SEED_STREAM_DOUBLES:
                        return None
                    normals = np.concatenate(
                        (normals, self.rng.standard_normal(missing))
                    )
                    normals.flags.writeable = False
                    self.normals = normals
        return normals[start:stop]


class _StreamCursor:
    """A stand-in for a fresh ``default_rng(seed)`` that answers the
    ``normal(loc, scale, size)`` calls of :func:`amplifier_input_noise`,
    in order, from the seed's memoized stream.

    Each call returns ``loc + scale * z``, the expression NumPy's C
    ``random_normal`` computes; with ``loc`` 0.0, as every call there
    has, it rounds once whether or not the C compiler fuses it.  Past
    the stream's bound the cursor goes on with a fresh generator,
    advanced past the normals it already handed out.
    """

    def __init__(self, seed: int, stream: _SeedStream) -> None:
        self._seed = seed
        self._stream = stream
        self._drawn = 0
        self._rng: np.random.Generator | None = None

    def normal(self, loc=0.0, scale=1.0, size=None):
        if self._rng is None:
            count = int(np.prod(size))
            z = self._stream.take(self._drawn, self._drawn + count)
            if z is not None:
                self._drawn += count
                return loc + scale * z.reshape(size)
            self._rng = np.random.default_rng(self._seed)
            self._rng.standard_normal(self._drawn)
        return self._rng.normal(loc, scale, size)


def _seed_normals(seed: int):
    """The normal source of one synthesis with an ``int`` seed: a cursor
    over the seed's stream, or a fresh generator past the seeds bound."""
    stream = _SEED_STREAMS.get(seed)
    if stream is None:
        with _SEED_STREAM_LOCK:
            stream = _SEED_STREAMS.get(seed)
            if stream is None:
                if len(_SEED_STREAMS) >= _SEED_STREAM_SEEDS:
                    return np.random.default_rng(seed)
                stream = _SEED_STREAMS[seed] = _SeedStream(seed)
    return _StreamCursor(seed, stream)


def _memoized_bridge_noise(
    seed, psd_scaled: float, corner: float, n: int, sample_rate: float
) -> np.ndarray:
    """Bit-identical to ``amplifier_input_noise(...)`` with a fresh
    seeded RNG; memoized when the seed is deterministic."""
    if not isinstance(seed, int):
        # an unseeded loop is intentionally nondeterministic: never memoize
        return amplifier_input_noise(
            psd_scaled, corner, n, sample_rate, np.random.default_rng(seed)
        )
    key = (seed, psd_scaled, corner, n, sample_rate)
    with _NOISE_MEMO_LOCK:
        cached = _NOISE_MEMO.get(key)
        if cached is not None:
            _NOISE_MEMO.move_to_end(key)
            return cached.copy()
    noise = amplifier_input_noise(
        psd_scaled, corner, n, sample_rate, _seed_normals(seed)
    )
    with _NOISE_MEMO_LOCK:
        _NOISE_MEMO[key] = noise.copy()
        while len(_NOISE_MEMO) > _NOISE_MEMO_ENTRIES:
            _NOISE_MEMO.popitem(last=False)
    return noise


def _synthesize_bridge_noise(n: int, noise: tuple | None) -> np.ndarray:
    """One run's bridge-noise record: ``n`` zeros for a noiseless loop,
    else :func:`_memoized_bridge_noise` of the ``noise`` arguments.

    Reads nothing but its arguments — numbers taken off the loop by
    :meth:`ResonantFeedbackLoop._prepare_blocks` — so :func:`run_batch`
    can run it on a pool thread while the calling thread lowers loops.
    """
    return np.zeros(n) if noise is None else _memoized_bridge_noise(*noise)


@dataclass(frozen=True)
class _PreparedRun:
    """The deterministic prelude of one closed-loop run: sample grid,
    synthesized bridge noise, and the signed bridge coefficient —
    identical whether the run then executes solo or inside a batch."""

    n: int
    sample_rate: float
    times: np.ndarray
    #: ``None`` in the half :meth:`ResonantFeedbackLoop._prepare_blocks`
    #: returns, before the synthesis ran.
    bridge_noise: np.ndarray | None
    signed_coefficient: float


class ResonantFeedbackLoop:
    """Closed-loop oscillator around one cantilever mode.

    Parameters
    ----------
    resonator:
        The cantilever mode (vacuum or fluid-loaded parameters).
    bridge:
        The PMOS Wheatstone bridge at the clamped edge.
    displacement_to_stress:
        Longitudinal bridge-average surface stress per metre of tip
        displacement [Pa/m]; compute with
        :func:`displacement_to_stress_gain`.
    actuator:
        Coil + magnet converting drive voltage to tip force.
    dda / highpasses / phase_lead / vga / limiter / buffer:
        The electrical chain of Fig. 5; any may be replaced for
        ablations (e.g. no high-pass filters).
    include_bridge_noise:
        Synthesize the bridge's thermal + 1/f noise into the loop.
    seed:
        RNG seed for noise realizations.
    """

    def __init__(
        self,
        resonator: ModalResonator,
        bridge: WheatstoneBridge,
        displacement_to_stress: float,
        actuator: LorentzActuator,
        dda: DDAInstrumentationAmplifier | None = None,
        highpasses: list[HighPassFilter] | None = None,
        phase_lead: PhaseLead | None = None,
        vga: VariableGainAmplifier | None = None,
        limiter: LimitingAmplifier | None = None,
        buffer: ClassABBuffer | None = None,
        include_bridge_noise: bool = True,
        seed: int = 1234,
    ) -> None:
        self.resonator = resonator
        self.bridge = bridge
        self.displacement_to_stress = require_positive(
            "displacement_to_stress", abs(displacement_to_stress)
        )
        self.actuator = actuator

        f0 = resonator.natural_frequency
        self.dda = dda if dda is not None else DDAInstrumentationAmplifier(
            feedback_r2=9e3, noise_density=0.0
        )
        self.highpasses = (
            highpasses
            if highpasses is not None
            else [HighPassFilter(f0 / 20.0), HighPassFilter(f0 / 20.0)]
        )
        self.phase_lead = phase_lead if phase_lead is not None else PhaseLead(f0)
        self.vga = vga if vga is not None else VariableGainAmplifier()
        self.buffer = (
            buffer
            if buffer is not None
            else ClassABBuffer(
                load_resistance=self.actuator.coil.resistance,
                max_current=self.actuator.coil.max_current,
            )
        )
        # The limiter must saturate *below* the buffer's current-limit
        # ceiling, otherwise the class-AB clip (not the designed
        # non-linearity) would set the amplitude.
        self.limiter = (
            limiter
            if limiter is not None
            else LimitingAmplifier(2.0, 0.5 * self.buffer.max_output_voltage)
        )
        self.include_bridge_noise = include_bridge_noise
        self.seed = seed
        #: :class:`~repro.engine.kernel.KernelRunInfo` of the last
        #: :meth:`run` (``None`` when the reference path executed).
        self.last_kernel_info = None

    # -- gains -------------------------------------------------------------------

    @property
    def displacement_to_voltage(self) -> float:
        """Bridge output per metre of tip displacement [V/m]."""
        return abs(self.bridge.sensitivity()) * self.displacement_to_stress

    def electrical_gain(self, frequencies, sample_rate: float) -> np.ndarray:
        """Complex gain of the electrical chain at each frequency [Hz].

        Returns a 1-D array; a scalar frequency gives one element.
        """
        f = np.atleast_1d(np.asarray(frequencies, dtype=float))
        gain = np.full(f.shape, complex(self.dda.gain, 0.0))
        if self.dda.gbw is not None:
            gain /= 1.0 + 1j * f / self.dda.bandwidth
        for hp in self.highpasses:
            gain *= hp.response(f, sample_rate)
        gain *= self.phase_lead.response(f, sample_rate)
        gain *= self.vga.gain
        gain *= self.limiter.small_signal_gain
        return gain

    def loop_gain_at_resonance(self, sample_rate: float) -> complex:
        """Small-signal Barkhausen loop gain at the resonator frequency.

        |value| > 1 with phase near 0 means the loop starts up.
        """
        f0 = np.asarray([self.resonator.natural_frequency])
        mech = self.resonator.transfer_function(f0)[0]
        elec = self.electrical_gain(f0, sample_rate)[0]
        return (
            self.displacement_to_voltage
            * elec
            * self.actuator.force_per_volt
            * mech
        )

    def required_vga_gain(self, sample_rate: float, startup_factor: float = 3.0) -> float:
        """VGA gain needed for |loop gain| = ``startup_factor``."""
        require_positive("startup_factor", startup_factor)
        current = abs(self.loop_gain_at_resonance(sample_rate))
        if current == 0.0:
            raise OscillationError("loop gain is zero; check the chain")
        return self.vga.gain * startup_factor / current

    def auto_gain(self, sample_rate: float, startup_factor: float = 3.0) -> float:
        """Program the VGA for reliable startup; returns the set gain.

        Raises :class:`OscillationError` (via the VGA) when the damping
        is too heavy for the available range — the real failure mode in
        viscous samples.
        """
        needed = self.required_vga_gain(sample_rate, startup_factor)
        return self.vga.set_gain_at_least(needed)

    # -- simulation -----------------------------------------------------------------

    def run(
        self,
        duration: float,
        initial_kick: float | None = None,
        backend: str = "auto",
    ) -> LoopRecord:
        """Close the loop for ``duration`` seconds.

        Parameters
        ----------
        initial_kick:
            Initial tip displacement [m]; defaults to a thermal-scale
            1 pm so startup happens from noise-level motion, as on the
            real chip.
        backend:
            Execution path: ``"reference"`` steps every block in Python
            sample-by-sample; ``"fused"`` lowers the loop to the fused
            kernel (same waveforms, ~20x faster); ``"auto"`` (default)
            means ``"fused"``.  Blocks that cannot lower (custom
            subclasses, patched ``step``, per-sample noise sources)
            make the kernel fall back to the reference path with a
            logged reason — never an error.  See ``docs/FASTPATH.md``.
        """
        resolved = resolve_backend(backend)
        prep = self._prepare_run(duration, initial_kick)
        n = prep.n
        sample_rate = prep.sample_rate
        bridge_noise = prep.bridge_noise
        times = prep.times

        self.last_kernel_info = None
        if resolved != "reference":
            try:
                kernel = self._lower_kernel(prep.signed_coefficient)
            except LoweringError as err:
                record_fallback(str(err))
                resolved = "reference"
            else:
                result = kernel.run(n, bridge_noise, backend=resolved)
                self._absorb_kernel_result(result)
                return _record_from_result(prep, result)

        displacement = np.empty(n)
        bridge_voltage = np.empty(n)
        limiter_input = np.empty(n)
        limiter_output = np.empty(n)
        drive_voltage = np.empty(n)

        # a stock linear actuator is three constants; hoist them so the
        # inner loop skips the per-sample property lookups and np.clip
        act = _linear_actuator_constants(self.actuator)
        coef = prep.signed_coefficient

        x = self.resonator.state.displacement
        for i in range(n):
            v_bridge = coef * x + bridge_noise[i]
            v = self.dda.step(v_bridge)
            for hp in self.highpasses:
                v = hp.step(v)
            v = self.phase_lead.step(v)
            v = self.vga.step(v)
            v_lim = self.limiter.step(v)
            v_drive = self.buffer.step(v_lim)
            if act is not None:
                cur = v_drive / act[0]
                if cur > act[1]:
                    cur = act[1]
                elif cur < -act[1]:
                    cur = -act[1]
                force = act[2] * cur
            else:
                force = float(self.actuator.tip_force_from_voltage(v_drive))
            x = self.resonator.step(force)

            displacement[i] = x
            bridge_voltage[i] = v_bridge
            limiter_input[i] = v
            limiter_output[i] = v_lim
            drive_voltage[i] = v_drive

        return _poison_record(LoopRecord(
            times=times,
            displacement=displacement,
            bridge_voltage=bridge_voltage,
            limiter_input=limiter_input,
            limiter_output=limiter_output,
            drive_voltage=drive_voltage,
            sample_rate=sample_rate,
        ))

    def _prepare_run(
        self, duration: float, initial_kick: float | None = None
    ) -> _PreparedRun:
        """Run the deterministic prelude of a solo run: the blocks'
        half (:meth:`_prepare_blocks`), then the bridge-noise synthesis
        inline."""
        prep, noise = self._prepare_blocks(duration, initial_kick)
        return replace(
            prep, bridge_noise=_synthesize_bridge_noise(prep.n, noise)
        )

    def _prepare_blocks(
        self, duration: float, initial_kick: float | None = None
    ) -> tuple[_PreparedRun, tuple | None]:
        """Run the prelude shared by solo and batched execution, up to
        the bridge noise: validate the duration, prepare the
        discrete-time blocks, reset the resonator to the initial kick,
        and read the noise synthesis's arguments off the bridge.

        Returns the run (``bridge_noise=None``) and the arguments for
        :func:`_synthesize_bridge_noise` (``None`` without bridge
        noise).  The same floating-point sequence as the body of
        :meth:`run` once produced inline — extracted so
        :func:`run_batch` is bit-identical to solo runs."""
        require_positive("duration", duration)
        h = self.resonator.timestep
        sample_rate = 1.0 / h
        n = max(2, int(round(duration * sample_rate)))

        for hp in self.highpasses:
            hp.prepare(sample_rate)
        self.phase_lead.prepare(sample_rate)
        self.dda.prepare(sample_rate)
        self.buffer.prepare(sample_rate)

        if initial_kick is None:
            initial_kick = 1e-12
        self.resonator.reset(displacement=initial_kick)

        noise = None
        if self.include_bridge_noise:
            psd_white = float(
                self.bridge.noise_psd(np.asarray([self.resonator.natural_frequency]))[0]
            )
            corner = self.bridge.corner_frequency()
            noise = (
                self.seed,
                psd_white / (1.0 + corner / self.resonator.natural_frequency),
                corner,
                n,
                sample_rate,
            )

        k_dv = self.displacement_to_voltage
        sign = 1.0 if self.bridge.sensitivity() >= 0.0 else -1.0
        return _PreparedRun(
            n=n,
            sample_rate=sample_rate,
            times=np.arange(n) * h,
            bridge_noise=None,
            signed_coefficient=sign * k_dv,
        ), noise

    def _absorb_kernel_result(self, result) -> None:
        """Write a kernel run's final mechanical state + run info back."""
        self.resonator.state.displacement = result.mode_state[0]
        self.resonator.state.velocity = result.mode_state[1]
        self.last_kernel_info = result.info

    def _lower_kernel(self, bridge_coefficient: float) -> FusedLoopKernel:
        """Lower the whole loop; :class:`LoweringError` if any piece can't."""
        if poll_fault("kernel.lower") is not None:
            raise LoweringError("injected fault at kernel.lower")
        act = _linear_actuator_constants(self.actuator)
        if act is None:
            raise LoweringError(
                f"{type(self.actuator).__name__} is not a stock linear "
                "LorentzActuator; not lowerable"
            )
        pre = [
            lower_block(b)
            for b in [self.dda, *self.highpasses, self.phase_lead, self.vga]
        ]
        mode = lower_resonator_mode(self.resonator, bridge_coefficient)
        return FusedLoopKernel(
            pre_stages=pre,
            limiter_stages=[lower_block(self.limiter)],
            buffer_stages=[lower_block(self.buffer)],
            modes=[mode],
            act_r=act[0],
            act_imax=act[1],
            act_fpc=act[2],
        )

    def reset(self) -> None:
        """Clear all loop state for a fresh run."""
        self.dda.reset()
        for hp in self.highpasses:
            hp.reset()
        self.phase_lead.reset()
        self.limiter.reset()
        self.buffer.reset()
        self.resonator.reset()


def _record_from_result(prep: _PreparedRun, result) -> LoopRecord:
    return _poison_record(LoopRecord(
        times=prep.times,
        displacement=result.displacement,
        bridge_voltage=result.bridge_voltage,
        limiter_input=result.limiter_input,
        limiter_output=result.limiter_output,
        drive_voltage=result.drive_voltage,
        sample_rate=prep.sample_rate,
    ))


def _poison_record(record: LoopRecord) -> LoopRecord:
    """Apply an armed ``loop.record`` fault: non-finite recorded samples.

    Models an acquisition glitch (ADC dropout, DMA corruption): a few
    plan-seeded sample positions of the displacement and bridge
    waveforms turn NaN (or Inf for ``kind="inf"``).  Downstream the
    health layer must flag the channel as diverged — the injection
    proves nothing averages NaN into a "measurement".
    """
    spec = poll_fault("loop.record")
    if spec is None:
        return record
    injector = active_injector()
    seed = injector.plan.seed if injector is not None else 0
    n = len(record.displacement)
    bad = float("inf") if spec.kind == "inf" else float("nan")
    count = max(1, int(spec.payload)) if spec.payload else 4
    for idx in corruption_offsets(seed, n, count, "loop.record"):
        record.displacement[idx] = bad
        record.bridge_voltage[idx] = bad
    return record


def run_batch(
    loops,
    duration,
    initial_kick: float | None = None,
    backend: str = "auto",
    threads: int | None = None,
) -> list[LoopRecord]:
    """Run N independent closed loops as batched kernel calls.

    Loops whose chains lower to the same program *shape* (see
    :func:`~repro.engine.kernel.batch_signature`) are grouped into one
    :class:`~repro.engine.kernel.KernelBatch`.  A group at least
    :data:`~repro.engine.kernel.COLUMNAR_MIN_INSTANCES` wide runs as one
    compiled columnar call, pthread-partitioned across instances; a
    narrower group runs each loop solo fused.  Either way every record
    is ``np.array_equal`` to the loop's solo fused run.

    Parameters
    ----------
    loops:
        The :class:`ResonantFeedbackLoop` instances.
    duration:
        Seconds to simulate — one float for all loops, or a sequence
        with one entry per loop (shorter instances are padded inside
        the batch and masked on return).
    initial_kick:
        Initial tip displacement [m] applied to every loop (default:
        the same 1 pm thermal kick as :meth:`ResonantFeedbackLoop.run`).
    backend:
        Loop backend; ``"auto"``/``"fused"`` batch through the kernel,
        anything else runs each loop solo through :meth:`run`.
    threads:
        C-level threads for the batched call (default: CPU count,
        capped by the ``REPRO_KERNEL_THREADS`` environment variable —
        see ``docs/FASTPATH.md`` on double-parallelism).  The same
        width, resolved by
        :func:`~repro.engine.kernel.kernel_batch_threads`, sizes the
        thread pool that synthesizes each loop's bridge noise while
        this thread lowers the loops in grid order; a width of 1
        synthesizes inline.  The pool ends with the call.

    Loops that cannot lower (patched ``step``, custom actuators, noisy
    amplifiers) fall back *per instance* to the reference path with the
    reason logged and counted — they never poison the rest of the
    batch.
    """
    loops = list(loops)
    if np.isscalar(duration):
        durations = [float(duration)] * len(loops)
    else:
        durations = [float(d) for d in duration]
        if len(durations) != len(loops):
            raise ValueError(
                f"{len(loops)} loops but {len(durations)} durations"
            )
    resolved = resolve_backend(backend)
    records: list[LoopRecord | None] = [None] * len(loops)
    if resolved != "fused":
        for i, loop in enumerate(loops):
            records[i] = loop.run(durations[i], initial_kick, backend=backend)
        return records

    groups: dict[tuple, list[int]] = {}
    kernels: list[FusedLoopKernel | None] = [None] * len(loops)
    preps: list[_PreparedRun | None] = [None] * len(loops)
    width = kernel_batch_threads(threads, len(loops))
    with ThreadPoolExecutor(width) if width > 1 else nullcontext() as pool:
        noises = []
        for i, loop in enumerate(loops):
            prep, noise = loop._prepare_blocks(durations[i], initial_kick)
            noises.append(
                pool.submit(_synthesize_bridge_noise, prep.n, noise)
                if pool is not None
                else _synthesize_bridge_noise(prep.n, noise)
            )
            loop.last_kernel_info = None
            try:
                kernels[i] = loop._lower_kernel(prep.signed_coefficient)
            except LoweringError as err:
                record_fallback(str(err))
                records[i] = loop.run(durations[i], initial_kick,
                                      backend="reference")
            else:
                preps[i] = prep
                groups.setdefault(batch_signature(kernels[i]), []).append(i)
        # every result, in grid order: a synthesis error leaves here as
        # it left the inline prelude
        if pool is not None:
            noises = [future.result() for future in noises]

    for indices in groups.values():
        batch = KernelBatch(
            [kernels[i] for i in indices],
            [preps[i].n for i in indices],
            [noises[i] for i in indices],
        )
        for i, result in zip(indices, batch.run(threads=threads)):
            loops[i]._absorb_kernel_result(result)
            records[i] = _record_from_result(preps[i], result)
    return records


def _linear_actuator_constants(actuator) -> tuple[float, float, float] | None:
    """``(R_coil, I_max, F_per_A)`` of a stock actuator, else ``None``.

    Exact-type checks: a subclassed actuator or coil may shape the
    force arbitrarily (e.g. the Duffing benches), so only the known
    linear pair is reduced to constants.
    """
    if type(actuator) is not LorentzActuator:
        return None
    coil = actuator.coil
    if type(coil) is not ActuationCoil:
        return None
    return (
        coil.resistance,
        coil.max_current,
        coil.force_per_current(actuator.magnet),
    )


def lower_resonator_mode(
    resonator: ModalResonator, bridge_coefficient: float
) -> ModeLowering:
    """One resonator as a :class:`~repro.engine.kernel.ModeLowering`.

    ``bridge_coefficient`` is the displacement-to-bridge-voltage gain
    [V/m] (sign included).  Subclassed or instance-patched ``step``
    means unknown dynamics: :class:`LoweringError`.
    """
    if "step" in vars(resonator):
        raise LoweringError(
            f"{type(resonator).__name__} instance has a patched step(); "
            "not lowerable"
        )
    if type(resonator).step is not ModalResonator.step:
        raise LoweringError(
            f"{type(resonator).__name__} overrides ModalResonator.step(); "
            "not lowerable"
        )
    ad, bd = resonator.propagator()
    return ModeLowering(
        a11=float(ad[0, 0]), a12=float(ad[0, 1]),
        a21=float(ad[1, 0]), a22=float(ad[1, 1]),
        b1=float(bd[0]), b2=float(bd[1]),
        coef=float(bridge_coefficient),
        x0=resonator.state.displacement,
        v0=resonator.state.velocity,
    )


def displacement_to_stress_gain(
    geometry,
    placement: BridgePlacement = CLAMPED_EDGE,
    mode: int = 1,
) -> float:
    """Bridge-average longitudinal stress per metre of tip displacement.

    [Pa/m]; multiply by the bridge's V/Pa sensitivity for the loop's
    displacement-to-voltage gain.
    """
    return abs(
        bridge_average_stress(
            geometry,
            placement,
            operation="resonant",
            tip_amplitude=1.0,
            mode=mode,
        )
    )
