#!/usr/bin/env python3
"""Benchmark of the library's three user paths, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 20 --trace 0

Workloads (``manifest.json`` records why each exists and what it loads):
``sweep-long``, ``service-mixed``, ``fabric-1w``.

One run times several set-ups in child processes (``setup_s``), sets the
workload up in this process, and measures one closed-loop pass of
``--seconds``.  With ``--trace 1`` a second, traced pass follows: the
layer boundaries are wrapped from here (see ``tracing.py``), the spans
are written under ``.bench_work/traces`` and the wall is split among the
layers.  Sampled outputs are then checked against solo serial runs, off
the timed path.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (grid points) and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Everything else (samples, environment stamp, checks,
busy times) goes to ``.bench_work/results``.  Every temporary file,
including the compiled kernel cache, stays under ``.bench_work``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MANIFEST = json.loads((HERE / "manifest.json").read_text())
#: End-to-end figures reported in the per-layer section, ungated: only
#: service-mixed has samples for some, and a healthy run fails nothing.
UNGATED_END_TO_END = ("latency_p50_s", "latency_p90_s", "hit_latency_p50_s",
                      "failed_fraction")


def prepare_environment() -> None:
    """Import the checkout's ``src`` and keep temporary files in the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def measure_setup(name: str, probes: int, toy: bool) -> list[float]:
    """Seconds from process start to ready, once per probe process."""
    times = []
    command = [sys.executable, str(HERE / "probe.py"), "--workload", name]
    if toy:
        command.append("--toy")
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} failed "
                               f"(exit {proc.returncode})")
        times.append(elapsed)
    return times


def environment_stamp() -> dict:
    """Hardware and software the numbers came from."""
    import platform

    import numpy

    from repro.engine.kernel import _cc_cache_dir, cc_available

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    so_dir = Path(_cc_cache_dir())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc_available": cc_available(),
        "so_cache_warm": (any(so_dir.glob("kernel-*.so"))
                          and any(so_dir.glob("columnar-*.so"))),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def traced_pass(workload, tracer, seconds: float, untraced: dict) -> tuple:
    """The traced pass and its per-layer metrics."""
    import tracing

    patches = tracing.install(tracer)
    workload.observe_polls(patches)
    before = workload.layer_counters()
    tracer.enabled = True
    try:
        result = workload.run_pass(seconds, 1)
    finally:
        tracer.enabled = False
        tracing.uninstall(patches)
    after = workload.layer_counters()

    split = tracing.attribute(tracer.spans, result.t0, result.t1)
    metrics = {f"{name}_s": share for name, share in split["layers"].items()}
    metrics["unattributed_s"] = split["unattributed_s"]
    metrics["trace.wall_s"] = split["wall_s"]
    counts = {k: after[k] - before[k] for k in after}
    hits = counts.pop("engine.cache.hits", 0)
    lookups = hits + counts.pop("engine.cache.misses", 0)
    metrics["engine.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics.update(counts)
    in_window = [s for s in tracer.spans if result.t0 <= s.start <= result.t1]
    metrics["engine.cache.gets"] = sum(s.name == "engine.cache.get"
                                       for s in in_window)
    metrics["engine.cache.puts"] = sum(s.name == "engine.cache.put"
                                       for s in in_window)
    metrics["service.store.calls"] = sum(s.name.startswith("service.store.")
                                         for s in in_window)
    metrics.update(workload.pass_layers(result))
    metrics["engine.cache.bytes_per_point"] = workload.bytes_per_point(result)
    traced = result.end_to_end()
    metrics["trace.overhead_s"] = (traced["latency_mean_s"]
                                   - untraced["latency_mean_s"])
    metrics["trace.points"] = result.returned
    for name in UNGATED_END_TO_END:
        metrics[name] = untraced[name]
    return result, metrics, split


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (last-line result, details)."""
    import tracing
    import workloads
    from repro.engine import kernel_info

    sizes = workloads.TOY if args.toy else workloads.FULL
    details: dict = {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "toy": args.toy, "environment": environment_stamp()}
    setup_times = measure_setup(args.workload, sizes.probes, args.toy)
    details["setup_probes_s"] = setup_times

    tracer = tracing.Tracer()
    rundir = WORK / f"run-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](sizes, rundir, tracer,
                                                   args.seed)
    try:
        workload.setup()
        passes = [workload.run_pass(args.seconds, 0)]
        untraced = passes[0].end_to_end()
        layers = split = None
        if args.trace:
            traced, layers, split = traced_pass(workload, tracer,
                                                args.seconds, untraced)
            passes.append(traced)
        checks = workload.check([s for p in passes for s in p.samples])
    finally:
        workload.close()
        shutil.rmtree(rundir, ignore_errors=True)

    details["environment"]["batch_engine"] = (
        kernel_info().last_batch_engine
        or "none in this process (fabric workers run solo fused)")
    details["untraced"] = untraced
    details["latencies_s"] = [p.latencies() for p in passes]
    details["errors"] = [e for p in passes for e in p.errors]
    details["checks"] = checks

    if args.trace:
        details["layer_split"] = split["layers"]
        details["busy_s"] = split["busy"]
        details["traced"] = passes[1].end_to_end()
        spans_dir = WORK / "traces"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        details["spans"] = str(spans_path)
        values = {name: float(layers.get(name, 0.0))
                  for name in MANIFEST["per_layer"]}
        units = MANIFEST["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "points_per_s": untraced["points_per_s"],
            "latency_mean_s": untraced["latency_mean_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        units = MANIFEST["end_to_end"]
    result = {
        "correct": bool(checks["ok"]),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in values.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark one workload; the last output line is JSON.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(MANIFEST["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny grids and one set-up probe (self-test)")
    args = parser.parse_args(argv)
    prepare_environment()

    result, details = run(args)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    path.write_text(json.dumps({"result": result, **details}, indent=2,
                               default=str))
    print(f"perfbench: details in {path}")
    print(json.dumps({"environment": details["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
