"""EXT4 — open-loop bring-up: the resonance curve behind Fig. 2.

Extension experiment: the swept-sine characterization every die gets
before its loop is closed.  Drives the fluid-loaded cantilever model
with tones across the resonance, fits the Lorentzian, and
cross-validates the extracted (f0, Q) against the Sader prediction and
the closed-loop lock — three independent paths to the same numbers.

Ported to the batch engine: each liquid's characterization is an
independent grid point, run through a
:class:`repro.engine.BatchExecutor` and memoized through a
:class:`repro.engine.TieredCache` (``--no-cache``).

Shape targets:
* swept-sine fit recovers the Sader-model f0 within 1% and Q within
  15% in water;
* in-air sweep of the same beam shows the textbook contrast: ~3x higher
  f0 and a Q tens of times larger (viscous air damping still limits it).
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis import measure_resonance
from repro.engine import BatchExecutor, StageTimer, TieredCache
from repro.fluidics import immersed_mode
from repro.materials import get_liquid
from repro.mechanics import ModalResonator, analyze_modes


def characterize(device, liquid_name, points: int = 31):
    geometry = device.geometry
    liquid = get_liquid(liquid_name)
    fl = immersed_mode(geometry, liquid)
    mode = analyze_modes(geometry, 1)[0]
    resonator = ModalResonator(
        effective_mass=fl.effective_mass,
        effective_stiffness=mode.effective_stiffness,
        quality_factor=fl.quality_factor,
        timestep=1.0 / (fl.frequency * 40),
    )
    span = 0.5 if fl.quality_factor < 20 else 0.05
    fit = measure_resonance(resonator, span_factor=span, points=points)
    return fl, fit


def characterize_reference(liquid_name: str, points: int = 31):
    """Characterize the reference beam in one liquid (cache-keyable task).

    Rebuilds the (deterministic) reference cantilever from its spec, so
    the task's cache key holds only its parameter, not a device object.
    """
    from repro.config import (
        REFERENCE_CANTILEVER,
        REFERENCE_PROCESS,
        build_cantilever,
    )

    device = build_cantilever(REFERENCE_CANTILEVER, REFERENCE_PROCESS)
    return characterize(device, liquid_name, points=points)


def characterize_grid(
    liquids,
    points: int = 31,
    cache: TieredCache | None = None,
) -> dict[str, tuple]:
    """(fl, fit) per liquid through the engine, keyed by liquid name."""
    task = functools.partial(characterize_reference, points=points)
    liquids = list(liquids)
    results: dict[str, tuple] = {}
    pending = list(liquids)
    keys = {}
    if cache is not None:
        keys = {name: cache.key_for(task, name) for name in liquids}
        pending = []
        for name in liquids:
            value = cache.get(keys[name])
            if value is cache.MISS:
                pending.append(name)
            else:
                results[name] = value
    if pending:
        computed = BatchExecutor().map(task, pending).values()
        for name, value in zip(pending, computed):
            results[name] = value
            if cache is not None:
                cache.put(keys[name], value)
    return {name: results[name] for name in liquids}


def run_bench(
    points: int = 31,
    cache: TieredCache | None = None,
    quiet: bool = False,
) -> dict[str, float]:
    """Air + water bring-up through the engine; returns headline numbers."""
    timer = StageTimer()
    with timer.stage("characterize x2"):
        grid = characterize_grid(["air", "water"], points=points, cache=cache)
    (air_fl, air_fit) = grid["air"]
    (water_fl, water_fit) = grid["water"]
    headline = {
        "water_f0_Hz": water_fit.frequency,
        "water_Q": water_fit.quality_factor,
        "water_model_f0_Hz": water_fl.frequency,
        "air_f0_Hz": air_fit.frequency,
        "air_Q": air_fit.quality_factor,
    }
    if not quiet:
        print("\nEXT4: swept-sine bring-up through the engine")
        print(f"  water: f0 = {headline['water_f0_Hz']:8.1f} Hz "
              f"(model {headline['water_model_f0_Hz']:8.1f} Hz), "
              f"Q = {headline['water_Q']:6.2f}")
        print(f"  air  : f0 = {headline['air_f0_Hz'] / 1e3:6.2f} kHz, "
              f"Q = {headline['air_Q']:8.1f}")
        print(timer.format_report())
    return headline


def test_ext_resonance_curve_water(benchmark, reference_device):
    fl, fit = benchmark.pedantic(
        characterize, args=(reference_device, "water"), rounds=1, iterations=1
    )
    print("\nEXT4: swept-sine bring-up in water")
    print(f"  Sader model : f0 = {fl.frequency:8.1f} Hz, "
          f"Q = {fl.quality_factor:6.2f}")
    print(f"  sweep + fit : f0 = {fit.frequency:8.1f} Hz, "
          f"Q = {fit.quality_factor:6.2f} "
          f"(residual {fit.residual_rms:.2e})")
    assert fit.frequency == pytest.approx(fl.frequency, rel=0.01)
    assert fit.quality_factor == pytest.approx(fl.quality_factor, rel=0.15)


def test_ext_resonance_curve_air_vs_water(benchmark):
    def both():
        grid = characterize_grid(["air", "water"])
        return grid["air"], grid["water"]

    (air_fl, air_fit), (water_fl, water_fit) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    print("\nEXT4b: air vs water characterization of the same beam")
    print(f"  air  : f0 = {air_fit.frequency / 1e3:6.2f} kHz, "
          f"Q = {air_fit.quality_factor:8.1f}")
    print(f"  water: f0 = {water_fit.frequency / 1e3:6.2f} kHz, "
          f"Q = {water_fit.quality_factor:8.1f}")

    assert air_fit.frequency > 2.5 * water_fit.frequency
    assert air_fit.quality_factor > 20.0 * water_fit.quality_factor


def main(argv=None) -> int:
    from _engine_cli import cache_from_args, engine_argument_parser, report_engine_stats

    parser = engine_argument_parser(
        "EXT4 swept-sine bring-up through the batch engine"
    )
    args = parser.parse_args(argv)
    cache = cache_from_args(args)
    timer = StageTimer()
    with timer.stage("bench"):
        run_bench(points=15 if args.smoke else 31, cache=cache)
    report_engine_stats(timer, cache)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
