"""Self-test of the benchmark: ``python3 -m pytest perfbench/tests -q``.

Runs every workload at toy size, untraced and traced, and checks the
output contract: every named metric present with its unit, the output
checks ran and passed, and layer seconds plus ``unattributed_s`` equal
the traced wall.  Takes about a minute, most of it fabric worker spawns.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
MANIFEST = json.loads((HERE / "manifest.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_manifest_names_what_benchmark_json_gates():
    def entries(section):
        return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}

    for section in ("end_to_end", "per_layer"):
        assert entries(section) == {
            name: (meta["unit"], meta["better"])
            for name, meta in MANIFEST[section].items()}
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: meta["why"] for name, meta in MANIFEST["workloads"].items()}
    for meta in MANIFEST["per_layer"].values():
        for metric, workload in meta.get("moves", ()):
            assert workload in MANIFEST["workloads"]
            assert (metric in MANIFEST["end_to_end"]
                    or metric in MANIFEST["per_layer"])


def test_attribute_splits_concurrent_spans_exactly():
    span = tracing.Span
    spans = [
        span(1, None, "outer", 0.0, 10.0, 1, None),
        span(2, 1, "inner", 2.0, 4.0, 1, None),
        span(3, None, "other", 3.0, 5.0, 2, None),
    ]
    split = tracing.attribute(spans, 0.0, 12.0)
    assert split["layers"] == pytest.approx(
        {"outer": 7.5, "inner": 1.5, "other": 1.0})
    assert split["busy"] == pytest.approx(
        {"outer": 8.0, "inner": 2.0, "other": 2.0})
    assert split["unattributed_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("workload", list(MANIFEST["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    section = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == list(section)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == section[name]["unit"]
        assert math.isfinite(metric["value"])

    details_path = lines[-3].split(" in ", 1)[1]
    details = json.loads(Path(details_path).read_text())
    assert details["checks"]["ok"] is True
    assert details["checks"]["reference"]["points"] >= 1
    assert details["environment"]["nproc"] >= 1
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = details["layer_split"]
        assert set(layers) <= {name[:-2] for name in MANIFEST["per_layer"]}
        for name, seconds in layers.items():
            assert metrics[f"{name}_s"] == seconds
        assert sum(layers.values()) + metrics["unattributed_s"] == \
            pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        assert Path(details["spans"]).is_file()
    else:
        assert all(result["metrics"][k]["value"] > 0
                   for k in MANIFEST["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep-long", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
