#!/usr/bin/env python3
"""One timed set-up of a workload, in a fresh process.

``run.py`` starts this several times per run and times each from
process start to the ``ready`` line: interpreter start, imports, the
workload's warm-up call and, for ``service-mixed``, server start and
the first ``/healthz``.  ``setup_s`` is the median.
"""

from __future__ import annotations

import argparse
import os
import shutil

from run import WORK, prepare_environment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()
    prepare_environment()
    import tracing
    import workloads

    workdir = WORK / f"probe-{os.getpid()}"
    sizes = workloads.TOY if args.toy else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](
        sizes, workdir, tracing.Tracer(), seed=0)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
