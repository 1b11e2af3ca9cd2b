"""FIG5 — the resonant feedback loop, closed in the time domain.

Regenerates the behaviour of the Figure 5 block diagram: oscillator
startup from pm-scale motion, amplitude limiting by the non-linear
amplifier, agreement between the small-signal Barkhausen analysis, the
describing-function amplitude prediction, and the sample-by-sample
simulation, the counter readout, and the VGA's adaptation across
liquids of increasing damping.

Shape targets:
* the loop starts and locks within ~2% of the fluid-loaded resonance;
* the measured amplitude matches the describing-function prediction;
* more viscous liquids demand monotonically more VGA gain;
* the counter tracks the oscillation to its +/-1-count resolution;
* the fused kernel reproduces the reference waveform bit-for-bit at
  >= 5x the samples/sec.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.biochem import FunctionalizedSurface, get_analyte
from repro.circuits import FrequencyCounter
from repro.core import ResonantCantileverSensor
from repro.feedback import analyze, predict_amplitude, predicted_startup_time
from repro.materials import get_liquid


def startup_experiment(device):
    surface = FunctionalizedSurface(get_analyte("igg"), device.geometry)
    sensor = ResonantCantileverSensor(surface, get_liquid("water"))
    loop = sensor.build_loop()
    fs = 1.0 / loop.resonator.timestep

    barkhausen = analyze(loop, fs)
    prediction = predict_amplitude(loop, fs)
    startup = predicted_startup_time(loop, fs)
    record = loop.run(duration=0.12)
    counter = FrequencyCounter(gate_time=0.02)
    _, readings = counter.frequency_series(record.bridge_signal())
    return sensor, barkhausen, prediction, startup, record, readings


def test_fig5_startup_and_lock(benchmark, reference_device):
    sensor, barkhausen, prediction, startup, record, readings = benchmark.pedantic(
        startup_experiment, args=(reference_device,), rounds=1, iterations=1
    )
    f_true = sensor.fluid_mode.frequency
    amp_measured = record.steady_amplitude()
    print("\nFIG5: closed-loop startup in water")
    print(f"  fluid-loaded resonance        : {f_true:9.1f} Hz "
          f"(Q = {sensor.fluid_mode.quality_factor:.2f})")
    print(f"  Barkhausen zero-phase point   : "
          f"{barkhausen.oscillation_frequency:9.1f} Hz "
          f"(|L| = {barkhausen.loop_gain_magnitude:.2f})")
    print(f"  predicted tip amplitude       : "
          f"{prediction.tip_amplitude * 1e9:9.1f} nm")
    print(f"  measured tip amplitude        : {amp_measured * 1e9:9.1f} nm")
    print(f"  predicted startup time        : {startup * 1e3:9.2f} ms")
    print(f"  counter readings (20 ms gates): {readings[2:]}")

    assert barkhausen.will_oscillate
    assert startup < 5e-3  # counter valid milliseconds after power-on
    assert barkhausen.oscillation_frequency == pytest.approx(f_true, rel=0.02)
    assert amp_measured == pytest.approx(prediction.tip_amplitude, rel=0.05)
    # counter agrees with the *actual* lock frequency (which sits ~0.5%
    # below the small-signal zero-phase point) to its +/-1-count grid
    from repro.analysis import zero_crossing_frequency

    f_lock = zero_crossing_frequency(record.bridge_signal().settle(0.5))
    settled = readings[2:]
    assert np.all(np.abs(settled - f_lock) <= 2 * 50.0)


def vga_adaptation_experiment(device):
    surface = FunctionalizedSurface(get_analyte("igg"), device.geometry)
    rows = []
    for name in ("water", "serum", "glycerol_40pct", "glycerol_60pct"):
        sensor = ResonantCantileverSensor(surface, get_liquid(name))
        loop = sensor.build_loop()  # auto-gains internally
        fs = 1.0 / loop.resonator.timestep
        prediction = predict_amplitude(loop, fs)
        rows.append(
            {
                "liquid": name,
                "Q": sensor.fluid_mode.quality_factor,
                "f_Hz": sensor.fluid_mode.frequency,
                "vga_dB": loop.vga.gain_db,
                "amp_nm": prediction.tip_amplitude * 1e9,
            }
        )
    return rows


def test_fig5_vga_adapts_to_liquids(benchmark, reference_device):
    rows = benchmark.pedantic(
        vga_adaptation_experiment, args=(reference_device,), rounds=1, iterations=1
    )
    print("\nFIG5: VGA adaptation to liquid damping")
    print(f"{'liquid':>16s} {'Q':>7s} {'f [Hz]':>9s} {'VGA [dB]':>9s} {'amp [nm]':>9s}")
    for r in rows:
        print(f"{r['liquid']:>16s} {r['Q']:7.2f} {r['f_Hz']:9.1f} "
              f"{r['vga_dB']:9.1f} {r['amp_nm']:9.1f}")

    qs = [r["Q"] for r in rows]
    gains = [r["vga_dB"] for r in rows]
    # damping rises monotonically through the series...
    assert all(a > b for a, b in zip(qs, qs[1:]))
    # ...and the VGA responds monotonically (allowing equal adjacent
    # steps from the discrete gain grid)
    assert all(a <= b for a, b in zip(gains, gains[1:]))
    assert gains[-1] > gains[0]


def backend_speedup_experiment(device, duration=0.12, repeats=3):
    """Wall-clock samples/sec of each closed-loop backend, same physics.

    Every backend consumes the identical synthesized bridge-noise
    record, so the waveforms must agree bit-for-bit — the speedup is
    pure execution efficiency, not a model change.
    """
    surface = FunctionalizedSurface(get_analyte("igg"), device.geometry)
    sensor = ResonantCantileverSensor(surface, get_liquid("water"))
    loop = sensor.build_loop()
    loop.run(0.002, backend="fused")  # warm the one-time compile cache

    def reset_chain():
        # run() re-seeds the noise but deliberately leaves block state
        # alone; equal starting state is what makes the waveforms
        # comparable across backends.
        for block in (loop.dda, *loop.highpasses, loop.phase_lead,
                      loop.vga, loop.limiter, loop.buffer):
            block.reset()

    rows = []
    baseline = None
    for backend in ("reference", "fused"):
        best, record = np.inf, None
        for _ in range(repeats):
            reset_chain()
            t0 = time.perf_counter()
            record = loop.run(duration, backend=backend)
            best = min(best, time.perf_counter() - t0)
        n = len(record.bridge_voltage)
        info = loop.last_kernel_info
        rows.append(
            {
                "backend": backend,
                "engine": info.engine if info else "python",
                "samples": n,
                "wall_s": best,
                "samples_per_sec": n / best,
                "kernel_samples_per_sec": (
                    info.samples_per_second if info else n / best
                ),
            }
        )
        if backend == "reference":
            baseline = record
        else:
            for name in ("displacement", "bridge_voltage", "drive_voltage"):
                assert np.array_equal(
                    getattr(baseline, name), getattr(record, name)
                ), f"{backend}.{name} diverged from the reference waveform"
    for r in rows:
        r["speedup"] = r["samples_per_sec"] / rows[0]["samples_per_sec"]
    return rows


def test_fig5_backend_speedup(benchmark, reference_device):
    rows = benchmark.pedantic(
        backend_speedup_experiment, args=(reference_device,),
        rounds=1, iterations=1,
    )
    print("\nFIG5: closed-loop backend throughput (identical waveforms)")
    print(f"{'backend':>10s} {'engine':>8s} {'samples':>9s} "
          f"{'wall [s]':>9s} {'samp/s':>12s} {'speedup':>8s}")
    for r in rows:
        print(f"{r['backend']:>10s} {r['engine']:>8s} {r['samples']:9d} "
              f"{r['wall_s']:9.3f} {r['samples_per_sec']:12,.0f} "
              f"{r['speedup']:7.1f}x")

    by_backend = {r["backend"]: r for r in rows}
    assert by_backend["fused"]["speedup"] >= 5.0


def tracking_experiment(device):
    from repro.biochem import AssayProtocol
    from repro.units import nM

    surface = FunctionalizedSurface(get_analyte("streptavidin"), device.geometry)
    sensor = ResonantCantileverSensor(surface, get_liquid("pbs"))
    protocol = AssayProtocol.injection(nM(100), baseline=120, exposure=1800, wash=120)
    # 30 s gates: 0.033 Hz resolution, enough to resolve the ~0.07 Hz shift
    return sensor, sensor.run_tracking_assay(protocol, gate_time=30.0)


def test_fig5_binding_tracking(benchmark, reference_device):
    sensor, result = benchmark.pedantic(
        tracking_experiment, args=(reference_device,), rounds=1, iterations=1
    )
    true_shift = result.true_frequency[-1] - result.true_frequency[0]
    print("\nFIG5: counter-tracked streptavidin binding (PBS, 30 s gates)")
    print(f"  bound mass at end  : {result.added_mass[-1] * 1e15:8.1f} pg")
    print(f"  true shift         : {true_shift:+8.3f} Hz")
    print(f"  measured shift     : {result.total_shift:+8.3f} Hz")
    print(f"  counter resolution : {1.0 / result.gate_time:8.3f} Hz")
    print(f"  mass responsivity  : "
          f"{sensor.mass_responsivity() * 1e-15 * 1e3:8.3f} mHz/pg")

    assert true_shift < 0.0
    # the counter resolves the shift: measured is negative and within
    # quantization of the truth
    assert result.total_shift < 0.0
    assert abs(result.total_shift - true_shift) <= 3.0 / result.gate_time


if __name__ == "__main__":
    from repro.core.presets import reference_cantilever

    startup_experiment(reference_cantilever())
