"""Machine-readable performance reports (``make bench-json`` / ``bench-batch``).

Default mode runs the closed-loop backend-throughput experiment plus the
three FIG5 bench experiments and writes ``BENCH_fig5.json``: samples/sec
per backend, the fused speedup over the reference path, and the
wall time of each bench (median with quartiles over interleaved
rounds) — the numbers the README performance table and the
perf-trajectory tracking across PRs are built from.

``--sweep`` instead writes ``BENCH_sweep.json``: the batched-kernel
sweep report — a 64-point resonance curve timed serial-reference (the
per-sample Python path) vs batched (points/sec, speedup, bit-identical
flag), a closed-loop spec sweep serial-fused vs ``kernel-batch``, the
C-level thread-scaling curve (annotated and truncated to one row on a
1-CPU box, where multi-thread rows measure nothing), the columnar
kernel family: a pre-lowered
16-instance closed-loop batch timed serial-fused vs the columnar SoA
engine, with its bit-identity flag, and the fabric scaling curve: the
chunk-leasing worker fabric at 1/2/4 leased workers (points/sec,
per-tier cache counters, bit-identity vs serial), truncated to one row
on a 1-CPU box with the same skip-note convention as the thread curve.
The resonance curve, the thread curve, the closed-loop sweep and the
fabric curve interleave their variants in rounds and report median
walls with quartiles.

Usage::

    PYTHONPATH=src python tools/bench_report.py [--output BENCH_fig5.json]
                                                [--duration 0.12] [--quick]
    PYTHONPATH=src python tools/bench_report.py --sweep [--points 64]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from repro.core.presets import reference_cantilever  # noqa: E402
from repro.engine import cc_available, kernel_info  # noqa: E402

from bench_fig5_feedback_loop import (  # noqa: E402
    backend_speedup_experiment,
    startup_experiment,
    tracking_experiment,
    vga_adaptation_experiment,
)

BENCH_EXPERIMENTS = {
    "fig5_startup_and_lock": startup_experiment,
    "fig5_vga_adaptation": vga_adaptation_experiment,
    "fig5_binding_tracking": tracking_experiment,
}


def build_report(duration: float, repeats: int, quick: bool) -> dict:
    device = reference_cantilever()

    backends = backend_speedup_experiment(
        device, duration=duration, repeats=repeats
    )

    # one call of a ~20 ms experiment swings with co-tenant load, so the
    # experiments take turns in every round, after one untimed call each
    rounds = max(repeats, 7)
    benches, quartiles = {}, {}
    if not quick:
        calls = {name: lambda experiment=experiment: experiment(device)
                 for name, experiment in BENCH_EXPERIMENTS.items()}
        for call in calls.values():
            call()  # warm: noise and design memos, the megakernel build
        walls, _ = _interleaved_walls(calls, rounds)
        for name in calls:
            q1, wall, q3 = statistics.quantiles(walls[name], n=4)
            benches[name] = round(wall, 4)
            quartiles[name] = [round(q1, 4), round(q3, 4)]

    info = kernel_info()
    by_backend = {r["backend"]: r for r in backends}
    return {
        "report": "FIG5 closed-loop performance",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cc_available": cc_available(),
        "loop_duration_s": duration,
        "backends": [
            {
                "backend": r["backend"],
                "engine": r["engine"],
                "samples": r["samples"],
                "wall_s": round(r["wall_s"], 5),
                "samples_per_sec": round(r["samples_per_sec"]),
                "kernel_samples_per_sec": round(r["kernel_samples_per_sec"]),
                "speedup_vs_reference": round(r["speedup"], 2),
            }
            for r in backends
        ],
        "fused_speedup": round(by_backend["fused"]["speedup"], 2),
        "bench_wall_s": benches,
        "bench_wall_quartiles_s": quartiles,
        "bench_sampling": {
            "rounds": rounds,
            "strategy": (
                "median with quartiles, after one untimed call per "
                "experiment; experiments interleaved in every round, "
                "order alternating"
            ),
        },
        "kernel_runs": dict(info.runs),
        "kernel_fallbacks": info.fallbacks,
    }


def _reference_wet_resonator():
    """The reference resonant sensor's in-liquid bring-up resonator."""
    from repro.config import REFERENCE_RESONANT_SENSOR, build

    return build(REFERENCE_RESONANT_SENSOR).build_resonator()


def _interleaved_walls(calls: dict, rounds: int) -> tuple[dict, dict]:
    """Each call's walls over ``rounds`` rounds, and its last result.

    Every call runs once per round, in alternating order, so all of
    them sample the same machine states and none always goes first.
    """
    walls: dict = {name: [] for name in calls}
    results: dict = {}
    for rnd in range(rounds):
        for name in list(calls)[::-1] if rnd % 2 else calls:
            t0 = time.perf_counter()
            results[name] = calls[name]()
            walls[name].append(time.perf_counter() - t0)
    return walls, results


def _fabric_scaling_section(n_cpu: int, rounds: int) -> dict:
    """Points/sec of the chunk-leasing fabric at 1/2/4 leased workers.

    Every fabric call runs against a fresh job db and cache directory —
    a warm cache would serve points instead of computing them and fake
    the scaling curve.  The baseline is the plain in-process serial
    sweep over the same grid.  The process's first fabric call starts
    the worker forkserver, which imports the library once; it is
    reported on its own (``first_call``).  Then every route gets one
    untimed call, and serial and each worker count are interleaved in
    ``rounds`` rounds and reported as median walls with quartiles.
    Each fabric row carries the coordinator cache's per-tier counters
    (worker-process counters live in the worker and die with it) and
    the bit-identical flag, because a fabric that scales by drifting
    from the serial answer scales nothing.
    """
    import tempfile

    import numpy as np

    from repro.analysis import LoopSweepTask, run_spec_sweep
    from repro.config import REFERENCE_RESONANT_SENSOR
    from repro.engine import TieredCache
    from repro.engine.fabric import run_fabric_sweep

    points = 16
    duration = 0.004
    path = "cantilever.length_um"
    values = [float(v) for v in np.linspace(170.0, 260.0, points)]

    def serial_call():
        return run_spec_sweep(
            REFERENCE_RESONANT_SENSOR, path, values,
            LoopSweepTask(duration=duration), backend="serial",
        )

    def fabric_call(workers):
        with tempfile.TemporaryDirectory() as td:
            base = Path(td)
            cache = TieredCache(base / "cache")
            result = run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, path, values,
                db=base / "jobs.sqlite", cache_dir=base / "cache",
                duration=duration, workers=workers,
                chunk_size=max(1, points // max(2 * workers, 1)),
                cache=cache,
            )
        return result, cache.cache_info()

    if n_cpu == 1:
        worker_counts = [1]
        fabric_note = (
            "cpu_count == 1: multi-worker rows skipped (workers would "
            "time-slice one core; rows would only measure process start "
            "overhead, not scaling)"
        )
    else:
        worker_counts = [w for w in (1, 2, 4) if w <= n_cpu] or [1]
        fabric_note = None

    t0 = time.perf_counter()
    fabric_call(worker_counts[0])
    first_wall = time.perf_counter() - t0
    calls = {"serial": serial_call}
    for workers in worker_counts:
        calls[workers] = lambda workers=workers: fabric_call(workers)
    for call in calls.values():
        call()  # warm: kernel builds, memos, a running forkserver
    walls, results = _interleaved_walls(calls, rounds)
    serial = results["serial"]
    serial_q1, serial_wall, serial_q3 = statistics.quantiles(
        walls["serial"], n=4)

    rows = []
    for workers in worker_counts:
        result, info = results[workers]
        q1, wall, q3 = statistics.quantiles(walls[workers], n=4)
        identical = all(
            np.array_equal(np.asarray(serial.columns[k]),
                           np.asarray(result.columns[k]))
            for k in serial.columns
        )
        rows.append({
            "workers": workers,
            "wall_s": round(wall, 5),
            "wall_quartiles_s": [round(q1, 5), round(q3, 5)],
            "points_per_sec": round(points / wall, 2),
            "speedup_vs_serial": round(serial_wall / wall, 2),
            "bit_identical": bool(identical),
            "coordinator_cache_tiers": [t.as_dict() for t in info.tiers],
        })

    return {
        "points": points,
        "loop_duration_s": duration,
        "serial_wall_s": round(serial_wall, 5),
        "serial_wall_quartiles_s": [round(serial_q1, 5),
                                    round(serial_q3, 5)],
        "serial_points_per_sec": round(points / serial_wall, 2),
        "first_call": {
            "workers": worker_counts[0],
            "wall_s": round(first_wall, 5),
            "note": (
                "the process's first fabric call: it starts the worker "
                "forkserver, which imports the library once before it "
                "forks the first worker"
            ),
        },
        "note": fabric_note,
        "rows": rows,
        "sampling": {
            "rounds": rounds,
            "strategy": (
                "median with quartiles, after one untimed call per "
                "route; serial and every worker count interleaved in "
                "every round, order alternating"
            ),
        },
        "overhead_note": (
            "fabric rows include forking each worker from the "
            "forkserver, sqlite chunk leasing, and checksummed cache "
            "writes — overhead the fabric pays to buy crash-resume and "
            "multi-node scale-out, not to win single-node "
            "microbenchmarks"
        ),
    }


def build_sweep_report(points: int, loop_points: int, repeats: int) -> dict:
    """The batched-kernel sweep report (``BENCH_sweep.json``)."""
    import os

    import numpy as np

    from repro.analysis import LoopSweepTask, run_spec_sweep, swept_sine_response
    from repro.config import REFERENCE_RESONANT_SENSOR
    from repro.engine import kernel_batch_threads, reset_kernel_info

    # every timed section takes the median of at least 7 interleaved
    # rounds except the columnar kernel family, which takes its best-of
    rounds = max(repeats, 7)

    # -- 64-point resonance curve: serial reference vs one batched call ------
    resonator = _reference_wet_resonator()
    f0 = resonator.natural_frequency
    frequencies = np.linspace(0.6 * f0, 1.4 * f0, points)
    force = 1e-9

    curve_calls = {
        "serial": lambda: swept_sine_response(
            resonator, frequencies, force, backend="reference"),
        "batched": lambda: swept_sine_response(
            resonator, frequencies, force, backend="auto"),
    }
    curve_calls["serial"]()  # warm
    reset_kernel_info()
    curve_calls["batched"]()  # warm, and the counters of one batched call
    curve_info = kernel_info()
    curve_walls, curve_amps = _interleaved_walls(curve_calls, rounds)
    identical = bool(np.array_equal(curve_amps["serial"],
                                    curve_amps["batched"]))
    (serial_q1, serial_wall, serial_q3), (batch_q1, batch_wall, batch_q3) = (
        statistics.quantiles(curve_walls[route], n=4) for route in curve_calls
    )

    # -- thread-scaling curve (C-level pthreads across instances) ------------
    n_cpu = os.cpu_count() or 1
    if n_cpu == 1:
        # a 1-CPU box cannot scale C-level threads: multi-thread rows
        # only measure pthread overhead and read as a meaningless curve
        thread_counts = [1]
        scaling_note = (
            "cpu_count == 1: multi-thread rows skipped (no cores to "
            "scale across; rows would only measure pthread overhead)"
        )
    else:
        thread_counts = sorted({1, 2, 4, min(8, n_cpu)})
        scaling_note = None
    # each wall is ~15 ms, so a co-tenant burst can swing one by more
    # than the curve: the counts take turns in every round, and a row
    # whose quartiles overlap the 1-thread row's is marked unresolved
    thread_calls = {
        t: lambda t=t: swept_sine_response(
            resonator, frequencies, force, backend="auto", threads=t)
        for t in thread_counts
    }
    for call in thread_calls.values():
        call()  # warm: one untimed call per count
    thread_walls, _ = _interleaved_walls(thread_calls, rounds)
    one_q1, _, one_q3 = statistics.quantiles(thread_walls[1], n=4)
    scaling = []
    for t in thread_counts:
        q1, wall, q3 = statistics.quantiles(thread_walls[t], n=4)
        scaling.append({
            "threads": t,
            "wall_s": round(wall, 5),
            "wall_quartiles_s": [round(q1, 5), round(q3, 5)],
            "points_per_sec": round(points / wall, 1),
            "vs_one_thread": (
                None if t == 1 else "faster" if q3 < one_q1
                else "slower" if q1 > one_q3 else "unresolved"
            ),
        })

    # -- closed-loop spec sweep: serial fused vs kernel-batch ----------------
    task = LoopSweepTask(duration=0.01)
    lengths = [float(v) for v in np.linspace(170.0, 260.0, loop_points)]

    def sweep_with(backend):
        return run_spec_sweep(
            REFERENCE_RESONANT_SENSOR, "cantilever.length_um", lengths,
            task, backend=backend,
        )

    # whole-pipeline walls of one grid swing with co-tenant load from one
    # call to the next, so the routes take turns within every round
    # (both sample the same machine states, neither always goes first)
    # and each is reported as the median of its rounds with quartiles
    routes = ("serial", "kernel-batch")
    loop_calls = {backend: lambda backend=backend: sweep_with(backend)
                  for backend in routes}
    for call in loop_calls.values():
        call()  # warm: kernel builds, noise and design memos
    reset_kernel_info()
    loop_walls, loop_tables = _interleaved_walls(loop_calls, rounds)
    loop_info = kernel_info()
    loop_serial, loop_batch = loop_tables["serial"], loop_tables["kernel-batch"]
    loop_identical = bool(all(
        loop_serial.columns[k] == loop_batch.columns[k]
        for k in loop_serial.columns
    ))
    (loop_serial_q1, loop_serial_wall, loop_serial_q3), (
        loop_batch_q1, loop_batch_wall, loop_batch_q3
    ) = (statistics.quantiles(loop_walls[b], n=4) for b in routes)

    # -- columnar kernel family: pre-lowered closed-loop kernels -------------
    # The whole-pipeline sweep above times spec build, loop
    # construction, the run prelude and lowering together with the
    # kernel, so it cannot show what the batch *kernel* buys.  This
    # family lowers the same closed-loop sweep once and times only the
    # kernel execution: serial fused vs the columnar SoA engine.  A
    # single kernel's run is a one-instance call of the same
    # megakernel, so this compares one wide call with one call per
    # instance.
    from repro.core import ResonantCantileverSensor
    from repro.engine import KernelBatch

    col_points = loop_points
    col_lengths = np.linspace(170.0, 260.0, col_points)
    # the golden-suite batch duration (tests/engine): short enough that
    # the working set stays cache-friendly
    col_duration = 0.006

    def make_loops():
        out = []
        for length in col_lengths:
            spec = REFERENCE_RESONANT_SENSOR.with_overrides(
                {"cantilever.length_um": float(length)}
            )
            out.append(ResonantCantileverSensor.from_spec(spec).build_loop())
        return out

    preps = [
        loop._prepare_run(col_duration, None) for loop in make_loops()
    ]
    ns = [p.n for p in preps]
    noises = [p.bridge_noise for p in preps]

    def fresh_kernels():
        # a lowered kernel shares state with its loop's filters and a
        # run writes final state back, so every timed run prepares and
        # lowers freshly built loops (outside the timed region); noise
        # and coefficients are deterministic per spec, so ns/noises
        # from the first prep set stay valid
        loops = make_loops()
        fresh = [loop._prepare_run(col_duration, None) for loop in loops]
        return [
            loop._lower_kernel(p.signed_coefficient)
            for loop, p in zip(loops, fresh)
        ]

    def run_engine(engine):
        kernels = fresh_kernels()
        if engine == "serial":
            t0 = time.perf_counter()
            result = [
                k.run(n, noise, backend="fused")
                for k, n, noise in zip(kernels, ns, noises)
            ]
            return time.perf_counter() - t0, result
        batch = KernelBatch(kernels, ns, noises)
        t0 = time.perf_counter()
        result = batch.run()
        return time.perf_counter() - t0, result

    # kernel-only walls are a few ms and the columnar engine streams a
    # multi-MB working set, so co-tenant memory pressure can double a
    # single wall: interleave the engines round-robin (both sample the
    # same machine states) and take best-of, with the rounds spread
    # across a multi-second window (contention comes in bursts — spaced
    # sampling gives every engine a shot at a quiet slice of the
    # machine, where back-to-back repeats would all land in one burst)
    col_repeats = max(repeats, 12)
    col_round_gap_s = 1.5
    run_engine("columnar")  # warm: engine build
    walls = dict.fromkeys(("serial", "columnar"), float("inf"))
    outputs = {}
    for rnd in range(col_repeats):
        if rnd:
            time.sleep(col_round_gap_s)
        for engine in walls:
            wall, result = run_engine(engine)
            if wall < walls[engine]:
                walls[engine], outputs[engine] = wall, result
    col_serial_wall, col_serial = walls["serial"], outputs["serial"]
    col_wall, col_records = walls["columnar"], outputs["columnar"]

    waveforms = ("displacement", "bridge_voltage", "limiter_input",
                 "limiter_output", "drive_voltage")
    col_identical = all(
        np.array_equal(getattr(s, w), getattr(r, w))
        for s, r in zip(col_serial, col_records) for w in waveforms
    )
    columnar_family = {
        "instances": col_points,
        "loop_duration_s": col_duration,
        "samples_per_instance": int(np.mean(ns)),
        "serial_fused_wall_s": round(col_serial_wall, 5),
        "columnar_wall_s": round(col_wall, 5),
        "columnar_speedup": round(col_serial_wall / col_wall, 2),
        "columnar_engine": col_records[0].info.engine,
        "columnar_bit_identical": bool(col_identical),
        "note": (
            "the serial side runs each pre-lowered kernel alone, which "
            "is a one-instance call of the same megakernel; the "
            "columnar side runs all instances in one call"
        ),
        "sampling": {
            "rounds": col_repeats,
            "round_gap_s": col_round_gap_s,
            "strategy": "best-of, engines interleaved, rounds spaced",
        },
    }

    # -- fabric scaling: leased worker processes over a shared store ---------
    fabric_scaling = _fabric_scaling_section(n_cpu, rounds)

    return {
        "report": "batched multi-instance kernel sweeps",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": n_cpu,
        "cc_available": cc_available(),
        "default_batch_threads": kernel_batch_threads(),
        "resonance_curve": {
            "points": points,
            "serial_reference_wall_s": round(serial_wall, 5),
            "serial_reference_wall_quartiles_s": [
                round(serial_q1, 5), round(serial_q3, 5)
            ],
            "batched_wall_s": round(batch_wall, 5),
            "batched_wall_quartiles_s": [
                round(batch_q1, 5), round(batch_q3, 5)
            ],
            "serial_reference_points_per_sec": round(points / serial_wall, 1),
            "batched_points_per_sec": round(points / batch_wall, 1),
            "speedup": round(serial_wall / batch_wall, 2),
            "waveforms_identical": identical,
            "batch_runs": curve_info.batch_runs,
            "batch_instances": curve_info.batch_instances,
            "fallbacks": curve_info.fallbacks,
            "sampling": {
                "rounds": rounds,
                "strategy": (
                    "median with quartiles, after one untimed call per "
                    "route (the batch counters are that batched call's); "
                    "routes interleaved in every round, order alternating"
                ),
            },
        },
        "thread_scaling": {
            "cpu_count": n_cpu,
            "note": scaling_note,
            "rows": scaling,
            "sampling": {
                "rounds": rounds,
                "strategy": (
                    "median with quartiles, after one untimed call per "
                    "thread count; counts interleaved in every round, "
                    "order alternating; vs_one_thread is unresolved "
                    "where a row's quartiles overlap the 1-thread row's"
                ),
            },
        },
        "closed_loop_columnar_kernel": columnar_family,
        "closed_loop_sweep": {
            "points": loop_points,
            "loop_duration_s": task.duration,
            "serial_fused_wall_s": round(loop_serial_wall, 5),
            "serial_fused_wall_quartiles_s": [
                round(loop_serial_q1, 5), round(loop_serial_q3, 5)
            ],
            "kernel_batch_wall_s": round(loop_batch_wall, 5),
            "kernel_batch_wall_quartiles_s": [
                round(loop_batch_q1, 5), round(loop_batch_q3, 5)
            ],
            "serial_points_per_sec": round(loop_points / loop_serial_wall, 2),
            "batched_points_per_sec": round(loop_points / loop_batch_wall, 2),
            "speedup": round(loop_serial_wall / loop_batch_wall, 2),
            "columns_identical": loop_identical,
            "batch_columnar_runs": loop_info.batch_columnar_runs,
            "batch_runs": loop_info.batch_runs,
            "batch_declined": loop_info.batch_declined,
            "batch_instances": loop_info.batch_instances,
            "fallbacks": loop_info.fallbacks,
            "sampling": {
                "rounds": rounds,
                "strategy": (
                    "median with quartiles, routes interleaved in every "
                    "round, order alternating"
                ),
            },
            "note": (
                "whole-pipeline wall over one repeated grid, after one "
                "untimed call per route: the bridge-noise and "
                "Butterworth-design memos are warm on both sides, so "
                "neither side pays noise synthesis; both sides build "
                "every loop from its spec — see "
                "closed_loop_columnar_kernel for the kernel-only "
                "comparison"
            ),
        },
        "fabric_scaling": fabric_scaling,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None,
        help="report path (default BENCH_fig5.json, or BENCH_sweep.json "
             "with --sweep, at the repo root)",
    )
    parser.add_argument(
        "--duration", type=float, default=0.12,
        help="simulated seconds per backend timing run (default 0.12)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per backend, best-of (default 3; the "
             "FIG5 bench walls, the resonance curve, the thread curve, "
             "the closed-loop sweep and the fabric curve take the median "
             "of at least 7 rounds)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the full FIG5 bench wall-time section",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="write the batched-sweep report (BENCH_sweep.json) instead",
    )
    parser.add_argument(
        "--points", type=int, default=64,
        help="resonance-curve points for --sweep (default 64)",
    )
    parser.add_argument(
        "--loop-points", type=int, default=16, dest="loop_points",
        help="closed-loop sweep points for --sweep (default 16)",
    )
    args = parser.parse_args(argv)

    if args.sweep:
        output = args.output or str(REPO / "BENCH_sweep.json")
        report = build_sweep_report(args.points, args.loop_points, args.repeats)
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
        curve = report["resonance_curve"]
        print(f"  resonance curve ({curve['points']} pts): "
              f"{curve['serial_reference_points_per_sec']:,.0f} -> "
              f"{curve['batched_points_per_sec']:,.0f} pts/s  "
              f"{curve['speedup']:.1f}x  "
              f"identical={curve['waveforms_identical']}")
        scaling = report["thread_scaling"]
        if scaling["note"]:
            print(f"  thread scaling: {scaling['note']}")
        for s in scaling["rows"]:
            print(f"  threads={s['threads']}: {s['points_per_sec']:,.0f} pts/s"
                  + (f"  ({s['vs_one_thread']})" if s["vs_one_thread"]
                     else ""))
        ck = report["closed_loop_columnar_kernel"]
        print(f"  columnar kernel ({ck['instances']} instances): "
              f"columnar {ck['columnar_speedup']:.2f}x "
              f"({ck['columnar_engine']}, "
              f"identical={ck['columnar_bit_identical']})")
        loop = report["closed_loop_sweep"]
        print(f"  closed-loop sweep ({loop['points']} pts): "
              f"{loop['serial_points_per_sec']:,.2f} -> "
              f"{loop['batched_points_per_sec']:,.2f} pts/s  "
              f"{loop['speedup']:.1f}x  "
              f"identical={loop['columns_identical']}")
        fabric = report["fabric_scaling"]
        if fabric["note"]:
            print(f"  fabric scaling: {fabric['note']}")
        first = fabric["first_call"]
        print(f"  fabric first call (workers={first['workers']}, starts "
              f"the forkserver): {first['wall_s']:.2f} s")
        print(f"  fabric serial baseline ({fabric['points']} pts): "
              f"{fabric['serial_points_per_sec']:,.2f} pts/s")
        for row in fabric["rows"]:
            print(f"  fabric workers={row['workers']}: "
                  f"{row['points_per_sec']:,.2f} pts/s  "
                  f"identical={row['bit_identical']}")
        return 0

    output = args.output or str(REPO / "BENCH_fig5.json")
    report = build_report(args.duration, args.repeats, args.quick)
    Path(output).write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {output}")
    for r in report["backends"]:
        print(f"  {r['backend']:>10s} ({r['engine']:>11s}): "
              f"{r['samples_per_sec']:>12,} samp/s  "
              f"{r['speedup_vs_reference']:6.1f}x")
    for name, wall in report["bench_wall_s"].items():
        q1, q3 = report["bench_wall_quartiles_s"][name]
        print(f"  {name:>26s}: {wall:.4f} s [{q1:.4f}, {q3:.4f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
