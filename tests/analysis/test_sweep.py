"""Sweep utilities used by the bench harness."""

import numpy as np
import pytest

from repro.analysis import SweepResult, geometric_space, sweep


class TestSweep:
    def test_collects_columns(self):
        result = sweep("x", (v for v in [1.0, 2.0, 3.0]),
                       lambda x: {"square": x**2, "cube": x**3})
        assert result.parameters == [1.0, 2.0, 3.0]
        assert list(result.column("square")) == [1.0, 4.0, 9.0]
        assert list(result.column("cube")) == [1.0, 8.0, 27.0]

    def test_rows(self):
        result = sweep("x", [1, 2], lambda x: {"y": x * 10})
        assert result.rows() == [(1, 10), (2, 20)]

    def test_changed_keys_rejected(self):
        calls = []

        def unstable(x):
            calls.append(x)
            return {"a": x} if x < 2 else {"b": x}

        with pytest.raises(KeyError):
            sweep("x", [1, 2, 3], unstable)
        assert calls == [1, 2]  # stops at the first changed key

    def test_format_table_contains_everything(self):
        result = sweep("freq", [10.0, 20.0], lambda f: {"gain": 1.0 / f})
        table = result.format_table()
        assert "freq" in table
        assert "gain" in table
        assert "0.05" in table

    def test_format_table_string_cells(self):
        result = sweep("x", [1], lambda x: {"verdict": "ok"})
        assert "ok" in result.format_table()


class TestGeometricSpace:
    def test_endpoints(self):
        grid = geometric_space(1.0, 100.0, 5)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(100.0)

    def test_log_spacing(self):
        grid = geometric_space(1.0, 16.0, 5)
        assert np.allclose(grid[1:] / grid[:-1], 2.0)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            geometric_space(0.0, 10.0, 3)
