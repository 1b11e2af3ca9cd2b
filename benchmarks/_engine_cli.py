"""Shared CLI plumbing for engine-ported benches.

Every ported bench (`bench_ext_process_variation`,
`bench_ext_resonance_curve`, `bench_abl_placement`) accepts the same
engine flags, so `make bench-smoke` and ad-hoc runs drive them
uniformly:

* ``--no-cache``    — disable the on-disk result cache
* ``--cache-dir D`` — cache location (default ``.repro_cache``)
* ``--smoke``       — tiny grid, for the <30 s CI smoke run

Run as scripts the benches print their tables plus a timing report and
the cache counters, so a warm re-run visibly reports hits and zero
stores.
"""

from __future__ import annotations

import argparse

from repro.engine import TieredCache


def engine_argument_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default .repro_cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny grid for the CI smoke run",
    )
    return parser


def cache_from_args(args: argparse.Namespace) -> TieredCache | None:
    """The bench's cache, or None when ``--no-cache`` was given."""
    if args.no_cache:
        return None
    return TieredCache(args.cache_dir)


def report_engine_stats(timer, cache: TieredCache | None) -> None:
    """Print the timing table and cache counters every bench ends with."""
    print("\nengine timing:")
    print(timer.format_report())
    if cache is not None:
        print(f"cache: {cache.cache_info()} [{cache.directory}]")
    else:
        print("cache: disabled")
