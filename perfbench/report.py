#!/usr/bin/env python3
"""Print every perfbench metric by name and unit, with the correctness verdict.

    python3 perfbench/report.py                                # all workloads
    python3 perfbench/report.py --workloads sweep-long,fabric-1w --runs 3

For each chosen workload this runs ``run.py`` ``--runs`` times untraced
(seeds ``--seed`` onwards) and once traced, then prints the end-to-end
metrics as median and quartiles across the untraced runs with their
sample counts, every per-layer metric of the traced run with the check
that layer seconds plus ``unattributed_s`` equal the traced wall, the
output checks and the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, MANIFEST, UNGATED_END_TO_END


def run_once(workload: str, seed: int, seconds: float, trace: int,
             toy: bool) -> tuple[dict, dict]:
    """One ``run.py`` invocation: (last-line result, details file)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if toy:
        command.append("--toy")
    proc = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench: {workload} run failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    details_path = next(line.split(" in ", 1)[1] for line in lines
                        if line.startswith("perfbench: details in "))
    return json.loads(lines[-1]), json.loads(Path(details_path).read_text())


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  [q1 {q1:.6g}, q3 {q3:.6g}]"


def report(workload: str, args) -> bool:
    runs = [run_once(workload, args.seed + i, args.seconds, 0, args.toy)
            for i in range(args.runs)]
    traced, traced_details = run_once(workload, args.seed, args.seconds, 1,
                                      args.toy)
    correct = all(r["correct"] for r, _ in runs) and traced["correct"]
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    stamp = traced_details["environment"]
    print(f"== {workload}: {'correct' if correct else 'INCORRECT'}; "
          f"{attempted} points attempted, {failed} failed "
          f"over {args.runs} untraced run(s)")
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))

    print(f"   end-to-end, untraced, median over {args.runs} run(s):")
    for name, meta in MANIFEST["end_to_end"].items():
        values = [r["metrics"][name]["value"] for r, _ in runs]
        note = ""
        if name == "setup_s":
            probes = sum(len(d["setup_probes_s"]) for _, d in runs)
            note = f"  ({probes} set-up probes)"
        elif name == "latency_mean_s":
            note = ("  (samples per run: "
                    f"{[d['untraced']['samples'] for _, d in runs]})")
        print(f"     {name:<40} {statistics.median(values):>14.6g} "
              f"{meta['unit']:<9}{spread(values)}{note}")
    for name in UNGATED_END_TO_END:
        values = [d["untraced"][name] for _, d in runs]
        print(f"     {name:<40} {statistics.median(values):>14.6g} "
              f"{MANIFEST['per_layer'][name]['unit']:<9}{spread(values)}  "
              "(ungated)")

    metrics = traced["metrics"]
    print(f"   per-layer, traced run (seed {args.seed}):")
    for name, meta in MANIFEST["per_layer"].items():
        print(f"     {name:<40} {metrics[name]['value']:>14.6g} {meta['unit']}")
    layer_sum = sum(traced_details["layer_split"].values())
    wall = metrics["trace.wall_s"]["value"]
    residual = layer_sum + metrics["unattributed_s"]["value"] - wall
    print(f"     layer seconds {layer_sum:.6g} + unattributed_s "
          f"{metrics['unattributed_s']['value']:.6g} - trace.wall_s "
          f"{wall:.6g} = {residual:.3g}")
    unreachable = MANIFEST["workloads"][workload].get("unreachable")
    if unreachable:
        print(f"     note: {unreachable}")
    print("   checks: " + json.dumps(traced_details["checks"]))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(MANIFEST["workloads"]),
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    names = [w for w in args.workloads.split(",") if w]
    unknown = set(names) - set(MANIFEST["workloads"])
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    verdicts = [report(name, args) for name in names]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
