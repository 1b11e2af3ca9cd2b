"""ABL1 — ablation of the bridge placement (paper, Section 3).

The paper places the resonant bridge "on the clamped edge of the
cantilever, where the maximum mechanical stress is induced", while the
static bridge "is distributed over the cantilever length and covers a
larger area".  This bench sweeps the placement for both operating modes
and reports the signal each position collects, plus the area-dependent
1/f-noise factor for the static mode.

Ported to the batch engine: both tables are built with
:func:`repro.analysis.run_parallel` (the grid through the executor,
optional result cache) and are element-for-element identical to the
serial :func:`repro.analysis.sweep`.

Shape targets:
* resonant mode: clamped-edge placement collects several times the
  signal of mid-beam or tip placements of equal area;
* static mode: signal is placement-independent, so the widest bridge
  maximizes SNR through its lower 1/f noise.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.analysis import run_parallel
from repro.engine import StageTimer, TieredCache
from repro.transduction import BridgePlacement, bridge_average_stress

RESONANT_STARTS = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
STATIC_EXTENTS = [0.1, 0.3, 0.5, 0.7, 0.9]


def resonant_placement_point(start, geometry) -> dict[str, float]:
    """Equal-area bridge at ``start`` in resonant mode (cache-keyable task)."""
    placement = BridgePlacement(start=start, end=start + 0.1)
    signal = abs(
        bridge_average_stress(
            geometry, placement, operation="resonant", tip_amplitude=100e-9
        )
    )
    return {"signal_kPa": signal / 1e3}


def static_extent_point(extent, geometry) -> dict[str, float]:
    """Clamp-anchored bridge of ``extent`` in static mode (cache-keyable task)."""
    placement = BridgePlacement(start=0.0, end=extent)
    signal = abs(
        bridge_average_stress(
            geometry, placement, operation="static", surface_stress=5e-3
        )
    )
    noise_factor = 1.0 / math.sqrt(extent / 0.1)
    return {
        "signal_kPa": signal / 1e3,
        "rel_1f_noise": noise_factor,
        "rel_snr": (signal / 1e3) / noise_factor,
    }


def build_resonant_placement_table(geometry, cache: TieredCache | None = None):
    return run_parallel(
        "start_xi",
        RESONANT_STARTS,
        functools.partial(resonant_placement_point, geometry=geometry),
        cache=cache,
    )


def build_static_extent_table(geometry, cache: TieredCache | None = None):
    return run_parallel(
        "extent_xi",
        STATIC_EXTENTS,
        functools.partial(static_extent_point, geometry=geometry),
        cache=cache,
    )


def run_bench(
    cache: TieredCache | None = None,
    quiet: bool = False,
) -> dict[str, float]:
    """Both placement tables through the engine; returns headline numbers."""
    from repro.config import (
        REFERENCE_CANTILEVER,
        REFERENCE_PROCESS,
        build_cantilever,
    )

    geometry = build_cantilever(REFERENCE_CANTILEVER, REFERENCE_PROCESS).geometry
    timer = StageTimer()
    with timer.stage("placement tables"):
        resonant = build_resonant_placement_table(geometry, cache=cache)
        static = build_static_extent_table(geometry, cache=cache)
    res_signal = resonant.column("signal_kPa")
    headline = {
        "resonant_clamp_kPa": float(res_signal[0]),
        "resonant_tip_kPa": float(res_signal[-1]),
        "clamp_to_tip_ratio": float(res_signal[0] / res_signal[-1]),
        "static_signal_kPa": float(static.column("signal_kPa")[0]),
        "static_best_rel_snr": float(static.column("rel_snr")[-1]),
    }
    if not quiet:
        print("\nABL1a: resonant mode — equal-area bridge at varying position")
        print(resonant.format_table())
        print("\nABL1b: static mode — bridge extent from the clamp (5 mN/m)")
        print(static.format_table())
        print(timer.format_report())
    return headline


def test_abl_placement(benchmark, reference_device):
    geometry = reference_device.geometry

    def experiment():
        return (
            build_resonant_placement_table(geometry),
            build_static_extent_table(geometry),
        )

    resonant, static = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print("\nABL1a: resonant mode — equal-area bridge at varying position "
          "(100 nm tip amplitude)")
    print(resonant.format_table())
    print("\nABL1b: static mode — bridge extent from the clamp (5 mN/m)")
    print(static.format_table())

    res_signal = resonant.column("signal_kPa")
    # clamped edge wins and the signal decays monotonically along the beam
    assert np.argmax(res_signal) == 0
    assert res_signal[0] > 2.5 * res_signal[3]
    assert res_signal[0] > 5.0 * res_signal[4]
    assert np.all(np.diff(res_signal) < 0.0)

    # static: signal flat (placement-independent), SNR rises with extent
    static_signal = static.column("signal_kPa")
    assert np.allclose(static_signal, static_signal[0], rtol=1e-9)
    snr = static.column("rel_snr")
    assert np.all(np.diff(snr) > 0.0)


def main(argv=None) -> int:
    from _engine_cli import cache_from_args, engine_argument_parser, report_engine_stats

    parser = engine_argument_parser(
        "ABL1 bridge-placement tables through the batch engine"
    )
    args = parser.parse_args(argv)
    cache = cache_from_args(args)
    timer = StageTimer()
    with timer.stage("bench"):
        run_bench(cache=cache)
    report_engine_stats(timer, cache)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
