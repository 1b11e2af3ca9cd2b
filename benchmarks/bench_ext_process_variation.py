"""EXT3 — process variation: "well-defined thickness" quantified.

Extension experiment on the paper's fabrication claim: the
electrochemical etch stop defines the beam thickness, but the n-well
depth itself varies a few percent across a wafer.  A Monte-Carlo run of
the full fabrication model shows what arrives at test: the resonant
frequencies spread by percent (so every die needs a frequency search at
bring-up — the open-loop sweep of EXT4), while the closed loop's
auto-gain absorbs the same spread without reconfiguration.

Ported to the batch engine: the three Monte-Carlo cases run through a
:class:`repro.engine.BatchExecutor` and memoize through a
:class:`repro.engine.TieredCache` (``--no-cache``), and the cached
results are bit-identical to fresh ones because every case carries its
own seed.

Shape targets:
* frequency spread ~3% (sigma), matching the first-order analytic law
  ``sigma_f/f = sqrt(sigma_t^2 + (2 sigma_L)^2)``;
* the spread is dominated by the n-well depth knob, not lithography;
* every sampled device still starts up in the closed loop with the same
  VGA policy.
"""

from __future__ import annotations

import functools

import pytest

from repro.config import REFERENCE_CANTILEVER
from repro.engine import BatchExecutor, StageTimer, TieredCache
from repro.fabrication import (
    ProcessCorners,
    expected_frequency_spread,
    monte_carlo_devices,
)
from repro.units import um

#: The three wafer-spread cases, in reporting order.
CASES: dict[str, ProcessCorners] = {
    "nominal": ProcessCorners(),
    "thickness_only": ProcessCorners(
        nwell_depth_sigma=0.03, length_sigma=0.0, width_sigma=0.0
    ),
    "lithography_only": ProcessCorners(
        nwell_depth_sigma=0.0, length_sigma=0.002, width_sigma=0.01
    ),
}


def monte_carlo_case(case: str, samples: int = 80):
    """One Monte-Carlo case of the reference beam (module-level: cache-keyable)."""
    return monte_carlo_devices(
        um(REFERENCE_CANTILEVER.length_um),
        um(REFERENCE_CANTILEVER.width_um),
        CASES[case],
        samples=samples,
        seed=31,
    )


def run_monte_carlo(
    samples: int = 80,
    cache: TieredCache | None = None,
    timer: StageTimer | None = None,
):
    """All three cases through the engine; returns them in CASES order."""
    task = functools.partial(monte_carlo_case, samples=samples)
    timer = timer if timer is not None else StageTimer()
    with timer.stage(f"monte-carlo x{len(CASES)}"):
        if cache is not None:
            keys = [cache.key_for(task, case) for case in CASES]
            cached = [cache.get(k) for k in keys]
            pending = [c for c, v in zip(CASES, cached) if v is cache.MISS]
            computed = iter(BatchExecutor().map(task, pending).values())
            results = []
            for case, key, value in zip(CASES, keys, cached):
                if value is cache.MISS:
                    value = next(computed)
                    cache.put(key, value)
                results.append(value)
        else:
            results = BatchExecutor().map(task, CASES).values()
    return tuple(results)


def run_bench(
    samples: int = 80,
    cache: TieredCache | None = None,
    quiet: bool = False,
) -> dict[str, float]:
    """Full bench through the engine; returns the headline numbers."""
    timer = StageTimer()
    nominal, thickness_only, litho_only = run_monte_carlo(
        samples=samples, cache=cache, timer=timer
    )
    summary = nominal.summary()
    headline = {
        "f_mean_Hz": summary["f_mean_Hz"],
        "f_sigma_Hz": summary["f_sigma_Hz"],
        "f_spread_pct": summary["f_spread_ppm"] / 1e4,
        "k_mean_N_per_m": summary["k_mean_N_per_m"],
        "resp_sigma_pct": summary["resp_sigma_frac"] * 100,
        "thickness_spread_pct": thickness_only.frequency_spread_ppm() / 1e4,
        "litho_spread_pct": litho_only.frequency_spread_ppm() / 1e4,
        "analytic_pct": expected_frequency_spread() * 100,
    }
    if not quiet:
        print(f"\nEXT3: wafer-level device spread ({samples}-sample Monte Carlo)")
        print(f"  f mean / sigma      : {headline['f_mean_Hz'] / 1e3:8.2f} kHz / "
              f"{headline['f_sigma_Hz']:6.0f} Hz "
              f"({headline['f_spread_pct']:.2f} %)")
        print(f"  spring constant     : {headline['k_mean_N_per_m']:8.2f} N/m")
        print(f"  static responsivity : {headline['resp_sigma_pct']:.1f} % sigma")
        print(f"  thickness-only spread: {headline['thickness_spread_pct']:.2f} %")
        print(f"  lithography-only     : {headline['litho_spread_pct']:.2f} %")
        print(f"  analytic first order : {headline['analytic_pct']:.2f} %")
        print(timer.format_report())
    return headline


def test_ext_process_variation(benchmark):
    nominal, thickness_only, litho_only = benchmark.pedantic(
        run_monte_carlo, rounds=1, iterations=1
    )
    summary = nominal.summary()
    print("\nEXT3: wafer-level device spread (80-sample Monte Carlo)")
    print(f"  f mean / sigma      : {summary['f_mean_Hz'] / 1e3:8.2f} kHz / "
          f"{summary['f_sigma_Hz']:6.0f} Hz "
          f"({summary['f_spread_ppm'] / 1e4:.2f} %)")
    print(f"  spring constant     : {summary['k_mean_N_per_m']:8.2f} +/- "
          f"{summary['k_sigma_N_per_m']:.2f} N/m")
    print(f"  static responsivity : {summary['resp_sigma_frac'] * 100:.1f} % sigma")
    print(f"  thickness-only spread: "
          f"{thickness_only.frequency_spread_ppm() / 1e4:.2f} %")
    print(f"  lithography-only     : "
          f"{litho_only.frequency_spread_ppm() / 1e4:.2f} %")
    print(f"  analytic first order : {expected_frequency_spread() * 100:.2f} %")

    measured = summary["f_spread_ppm"] / 1e6
    assert measured == pytest.approx(expected_frequency_spread(), rel=0.35)
    # the etch-stop depth dominates over lithography
    assert (
        thickness_only.frequency_spread_ppm()
        > 3.0 * litho_only.frequency_spread_ppm()
    )


def startup_across_corners():
    """Every corner device must start in the loop with the same policy."""
    from repro.config import REFERENCE_RESONANT_SENSOR, build

    results = []
    for depth_um in (4.7, 5.0, 5.3):  # +/-2 sigma corners
        sensor = build(
            REFERENCE_RESONANT_SENSOR.with_overrides(
                {"process.nwell_depth_um": depth_um, "liquid": "water"}
            )
        )
        mean_f, _ = sensor.measure_frequency(gate_time=0.05, gates=2)
        results.append((um(depth_um), sensor.fluid_mode.frequency, mean_f))
    return results


def test_ext_corners_all_start(benchmark):
    results = benchmark.pedantic(startup_across_corners, rounds=1, iterations=1)
    print("\nEXT3b: closed-loop startup across etch-stop corners")
    for depth, f_true, f_meas in results:
        print(f"  nwell {depth * 1e6:.1f} um: resonance {f_true:8.1f} Hz, "
              f"loop locks at {f_meas:8.1f} Hz")
        assert f_meas == pytest.approx(f_true, rel=0.02)


def main(argv=None) -> int:
    from _engine_cli import cache_from_args, engine_argument_parser, report_engine_stats

    parser = engine_argument_parser(
        "EXT3 Monte-Carlo process variation through the batch engine"
    )
    args = parser.parse_args(argv)
    cache = cache_from_args(args)
    timer = StageTimer()
    samples = 12 if args.smoke else 80
    with timer.stage("bench"):
        run_bench(samples=samples, cache=cache)
    report_engine_stats(timer, cache)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
