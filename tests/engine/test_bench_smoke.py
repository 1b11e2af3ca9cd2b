"""Tier-1 smoke net over the engine-ported benches.

Runs the three ported benches (`bench_ext_process_variation`,
`bench_ext_resonance_curve`, `bench_abl_placement`) on tiny grids
through the engine with a cache, so breakage of the engine or cached
path is caught by the ordinary test run — not only by the (separately
invoked) benchmark suite.  `make bench-smoke` drives the same three
benches through their CLIs.
"""

import sys
from pathlib import Path

import pytest

from repro.engine import TieredCache

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

bench_abl_placement = pytest.importorskip("bench_abl_placement")
bench_ext_process_variation = pytest.importorskip("bench_ext_process_variation")
bench_ext_resonance_curve = pytest.importorskip("bench_ext_resonance_curve")


class TestProcessVariationSmoke:
    def test_parallel_cached_run(self, tmp_path):
        cache = TieredCache(tmp_path / "cache")
        cold = bench_ext_process_variation.run_bench(
            samples=8, cache=cache, quiet=True
        )
        serial = bench_ext_process_variation.run_bench(samples=8, quiet=True)
        assert cold == serial  # cached == uncached, bit-identical
        warm = bench_ext_process_variation.run_bench(
            samples=8, cache=cache, quiet=True
        )
        assert warm == serial
        info = cache.cache_info()
        assert info.hits == 3  # warm run skipped all three Monte-Carlo cases
        assert info.stores == 3


class TestResonanceCurveSmoke:
    def test_parallel_cached_run(self, tmp_path):
        cache = TieredCache(tmp_path / "cache")
        cold = bench_ext_resonance_curve.run_bench(
            points=15, cache=cache, quiet=True
        )
        warm = bench_ext_resonance_curve.run_bench(
            points=15, cache=cache, quiet=True
        )
        assert warm == cold
        info = cache.cache_info()
        assert info.hits == 2
        assert info.stores == 2
        # physics sanity survives the tiny grid: air f0 well above water's
        assert cold["air_f0_Hz"] > 2.5 * cold["water_f0_Hz"]


class TestPlacementSmoke:
    def test_parallel_cached_run(self, tmp_path):
        cache = TieredCache(tmp_path / "cache")
        cold = bench_abl_placement.run_bench(cache=cache, quiet=True)
        serial = bench_abl_placement.run_bench(quiet=True)
        assert cold == serial
        warm = bench_abl_placement.run_bench(cache=cache, quiet=True)
        assert warm == serial
        info = cache.cache_info()
        assert info.hits == len(bench_abl_placement.RESONANT_STARTS) + len(
            bench_abl_placement.STATIC_EXTENTS
        )
        assert cold["clamp_to_tip_ratio"] > 5.0
