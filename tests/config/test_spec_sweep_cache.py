"""Spec-keyed sweeps: grids of whole device descriptions, warm-cacheable."""

import pytest

from repro.analysis import override_grid, run_spec_sweep, sweep
from repro.config import REFERENCE_STATIC_SENSOR, StaticSensorSpec
from repro.engine import TieredCache
from repro.errors import ConfigError

LENGTHS = [300.0, 400.0, 500.0]


def evaluate_point(spec):
    """Cheap deterministic per-spec result (module-level: picklable)."""
    beam = spec.cantilever
    return {
        "length_um": beam.length_um,
        "area_um2": beam.length_um * beam.width_um,
        "sigma": spec.bridge.mismatch_sigma,
    }


class TestOverrideGrid:
    def test_grid_points_are_full_specs(self):
        grid = override_grid(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS
        )
        assert [g.cantilever.length_um for g in grid] == LENGTHS
        # everything else is untouched reference state
        assert all(g.bridge == REFERENCE_STATIC_SENSOR.bridge for g in grid)

    def test_invalid_value_fails_eagerly_with_path(self):
        with pytest.raises(ConfigError, match="cantilever.length_um"):
            override_grid(
                REFERENCE_STATIC_SENSOR, "cantilever.length_um", [300.0, -1.0]
            )


class TestRunSpecSweep:
    def test_table_shows_raw_values(self):
        result = run_spec_sweep(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1,
        )
        assert result.parameters == LENGTHS
        assert result.parameter_name == "cantilever.length_um"
        assert list(result.column("length_um")) == LENGTHS

    def test_matches_serial_sweep(self):
        grid = override_grid(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS
        )
        serial = sweep("cantilever.length_um", grid, evaluate_point)
        fanned = run_spec_sweep(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1,
        )
        for name in serial.columns:
            assert fanned.columns[name] == serial.columns[name]


class TestWarmCache:
    def test_rerun_is_all_hits_zero_stores(self, tmp_path):
        cold = TieredCache(tmp_path)
        first = run_spec_sweep(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1, cache=cold,
        )
        info = cold.cache_info()
        assert info.misses == len(LENGTHS)
        assert info.stores == len(LENGTHS)

        warm = TieredCache(tmp_path)
        second = run_spec_sweep(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1, cache=warm,
        )
        info = warm.cache_info()
        assert info.hits == len(LENGTHS)
        assert info.misses == 0
        assert info.stores == 0
        for name in first.columns:
            assert second.columns[name] == first.columns[name]

    def test_equal_specs_hit_regardless_of_construction(self, tmp_path):
        """The key is the spec's *content*, not the object or its history."""
        cache = TieredCache(tmp_path)
        run_spec_sweep(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1, cache=cache,
        )
        # same grid, rebuilt from scratch through the JSON round-trip
        rebuilt_base = StaticSensorSpec.from_json(
            REFERENCE_STATIC_SENSOR.to_json()
        )
        warm = TieredCache(tmp_path)
        run_spec_sweep(
            rebuilt_base, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1, cache=warm,
        )
        assert warm.cache_info().hits == len(LENGTHS)
        assert warm.cache_info().stores == 0

    def test_different_spec_misses(self, tmp_path):
        cache = TieredCache(tmp_path)
        run_spec_sweep(
            REFERENCE_STATIC_SENSOR, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1, cache=cache,
        )
        other = REFERENCE_STATIC_SENSOR.with_overrides(
            {"bridge.mismatch_sigma": 1e-3}
        )
        probe = TieredCache(tmp_path)
        run_spec_sweep(
            other, "cantilever.length_um", LENGTHS,
            evaluate_point, workers=1, cache=probe,
        )
        assert probe.cache_info().hits == 0
        assert probe.cache_info().misses == len(LENGTHS)
