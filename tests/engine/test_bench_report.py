"""Smoke test for the BENCH_fig5.json generator (``make bench-json``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def load_bench_report_module():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_report"] = module
    spec.loader.exec_module(module)
    return module


def test_report_written_and_well_formed(tmp_path):
    bench_report = load_bench_report_module()
    out = tmp_path / "BENCH_fig5.json"
    code = bench_report.main(
        ["--output", str(out), "--duration", "0.01",
         "--repeats", "1", "--quick"]
    )
    assert code == 0

    report = json.loads(out.read_text())
    backends = {r["backend"]: r for r in report["backends"]}
    assert set(backends) == {"reference", "fused"}
    for row in backends.values():
        assert row["samples_per_sec"] > 0
        assert row["samples"] > 0
    assert backends["reference"]["speedup_vs_reference"] == 1.0
    assert report["fused_speedup"] == backends["fused"]["speedup_vs_reference"]
    assert report["kernel_fallbacks"] == 0
    # the committed report at the repo root asserts >= 5x; the smoke run
    # uses a tiny duration, so only require the fused path to be faster
    assert report["fused_speedup"] > 1.0
