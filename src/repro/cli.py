"""Command-line interface: `python -m repro.cli <command>`.

Gives the library a tool face for quick, scriptable use:

* ``info``         — reference-device datasheet (geometry, modes, bridges)
* ``fabricate``    — run the post-CMOS flow, print before/after + DRC
* ``characterize`` — swept-sine bring-up of the resonant beam in a liquid
* ``assay``        — run a static immunoassay and print the trace
* ``track``        — run a resonant tracking assay and print the trace
* ``sweep``        — spec-path sweep of the closed loop (``--batch`` runs
  the whole grid as one batched kernel call; ``--retries``/``--timeout``
  arm the resilient executor)
* ``health``       — execution-engine health: kernel backend state,
  circuit breakers, degrade counters, optional cache integrity scan
  (``--json`` prints the machine-readable snapshot probes consume)
* ``serve``        — run the simulation service: durable SQLite job
  store + HTTP API (``--port 0`` binds an ephemeral port and prints it;
  ``--pump-workers 0`` leaves every job to ``worker --url`` nodes)
* ``worker``       — lease and run job chunks from a store or a server
* ``submit``       — submit a sweep to a running service (``--wait``
  long-polls to completion and prints the result table)
* ``status``       — one job's status, or the job listing without an id
* ``results``      — fetch a finished job's sweep table
* ``cancel``       — request cancellation of a queued/running job

Every command is rooted in a reference device spec
(:data:`~repro.config.REFERENCE_STATIC_SENSOR` or
:data:`~repro.config.REFERENCE_RESONANT_SENSOR`).  The legacy
``--length/--width`` (um) flags still work and map onto spec fields; any
spec field is reachable through the generic override flag::

    repro assay --set cantilever.length_um=350 --set bridge.mismatch_sigma=0.001

``--set`` accepts dotted spec paths (see ``docs/CONFIG.md``), may be
repeated, and wins over the dedicated flags.  Output is plain text, one
value per line where scripts want to parse it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config.reference import (
    REFERENCE_CANTILEVER,
    REFERENCE_PROCESS,
    REFERENCE_RESONANT_BRIDGE,
    REFERENCE_RESONANT_SENSOR,
    REFERENCE_STATIC_SENSOR,
)
from .units import nM, um


def _cli_overrides(args) -> dict[str, object]:
    """Merged ``--set`` overrides (top-level flags, then subcommand's)."""
    from .config import parse_value
    from .errors import ConfigError

    pairs = list(getattr(args, "set_global", None) or [])
    pairs += list(getattr(args, "set_cmd", None) or [])
    overrides: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects PATH=VALUE, got {pair!r}")
        overrides[key.strip()] = parse_value(raw.strip())
    return overrides


def _root_spec(args, base):
    """The command's device spec: geometry flags first, then ``--set``."""
    overrides: dict[str, object] = {
        "process.nwell_depth_um": args.nwell_um,
        "process.keep_dielectrics": bool(args.coated),
        "cantilever.length_um": args.length,
        "cantilever.width_um": args.width,
    }
    overrides.update(_cli_overrides(args))
    return base.with_overrides(overrides)


def _build_device(spec):
    from .config.builders import build_cantilever

    return build_cantilever(spec.cantilever, spec.process)


def cmd_info(args) -> int:
    from .config.builders import build_bridge
    from .fluidics import immersed_mode
    from .materials import get_liquid
    from .mechanics import analyze_modes
    from .mechanics.beam import spring_constant

    spec = _root_spec(args, REFERENCE_STATIC_SENSOR)
    device = _build_device(spec)
    g = device.geometry
    print(f"device: {g.length * 1e6:.0f} x {g.width * 1e6:.0f} x "
          f"{g.thickness * 1e6:.2f} um released silicon cantilever")
    print(f"spring constant : {spring_constant(g):.3f} N/m")
    for mode in analyze_modes(g, 2):
        print(f"mode {mode.number}          : {mode.frequency / 1e3:.2f} kHz "
              f"(m_eff {mode.effective_mass * 1e12:.1f} ng)")
    wet = immersed_mode(g, get_liquid(args.liquid))
    print(f"in {args.liquid:<12s} : {wet.frequency / 1e3:.2f} kHz, "
          f"Q = {wet.quality_factor:.2f}")
    # datasheet bridges are nominal: mismatch zeroed, everything else spec'd
    sb = build_bridge(replace(spec.bridge, mismatch_sigma=0.0))
    rb = build_bridge(replace(REFERENCE_RESONANT_BRIDGE, mismatch_sigma=0.0))
    print(f"static bridge   : {sb.output_resistance() / 1e3:.1f} kOhm, "
          f"{sb.power_dissipation() * 1e3:.2f} mW")
    print(f"resonant bridge : {rb.output_resistance() / 1e3:.1f} kOhm, "
          f"{rb.power_dissipation() * 1e3:.2f} mW")
    return 0


def cmd_fabricate(args) -> int:
    from .fabrication import cantilever_layout, post_cmos_rule_deck

    spec = _root_spec(args, REFERENCE_STATIC_SENSOR)
    device = _build_device(spec)
    print("== before post-processing ==")
    print(device.process.before.describe())
    print("== after (beam site) ==")
    print(device.process.beam_site.describe())
    print(f"KOH etch time   : {device.process.koh_time / 3600:.2f} h")
    print(f"backside opening: {device.backside_opening * 1e6:.0f} um")
    layout = cantilever_layout(
        um(spec.cantilever.length_um), um(spec.cantilever.width_um)
    )
    violations = post_cmos_rule_deck().check(layout)
    print(f"DRC             : {'clean' if not violations else violations}")
    return 0 if not violations else 1


def cmd_characterize(args) -> int:
    from .analysis import measure_resonance
    from .fluidics import immersed_mode
    from .materials import get_liquid
    from .mechanics import ModalResonator, analyze_modes

    spec = _root_spec(args, REFERENCE_RESONANT_SENSOR).with_overrides(
        {"liquid": args.liquid}
    )
    device = _build_device(spec)
    liquid = get_liquid(spec.liquid)
    wet = immersed_mode(device.geometry, liquid)
    mode = analyze_modes(device.geometry, 1)[0]
    resonator = ModalResonator(
        effective_mass=wet.effective_mass,
        effective_stiffness=mode.effective_stiffness,
        quality_factor=wet.quality_factor,
        timestep=1.0 / (wet.frequency * 40),
    )
    span = 0.5 if wet.quality_factor < 20 else 0.05
    fit = measure_resonance(resonator, span_factor=span, points=25)
    print(f"model f0 = {wet.frequency:.1f} Hz, Q = {wet.quality_factor:.2f}")
    print(f"sweep f0 = {fit.frequency:.1f} Hz, Q = {fit.quality_factor:.2f}")
    return 0


def cmd_assay(args) -> int:
    from .biochem import AssayProtocol
    from .config import build

    spec = _root_spec(
        args, REFERENCE_STATIC_SENSOR.with_overrides({"analyte": args.analyte})
    )
    sensor = build(spec)
    sensor.calibrate_offset()
    protocol = AssayProtocol.injection(
        nM(args.conc_nm), baseline=300, exposure=args.exposure, wash=600
    )
    result = sensor.run_assay(protocol, sample_interval=args.interval)
    step = result.output_step()
    for t, v in zip(result.times[:: args.stride], result.output_voltage[:: args.stride]):
        print(f"{t:10.1f} {v * 1e3:+10.3f}")
    print(f"# step = {step * 1e3:+.2f} mV "
          f"({abs(step) / sensor.output_noise_rms:.1f} x noise)", file=sys.stderr)
    return 0 if abs(step) > 3.0 * sensor.output_noise_rms else 1


def cmd_track(args) -> int:
    from .biochem import AssayProtocol
    from .config import build

    spec = _root_spec(
        args,
        REFERENCE_RESONANT_SENSOR.with_overrides({
            "analyte": args.analyte,
            "liquid": args.liquid,
            "loop.mode": args.mode,
        }),
    )
    sensor = build(spec)
    sensor.loop_backend = args.backend
    protocol = AssayProtocol.injection(
        nM(args.conc_nm), baseline=300, exposure=args.exposure, wash=600
    )
    result = sensor.run_tracking_assay(protocol, gate_time=args.gate)
    for t, f in zip(
        result.times[:: args.stride], result.measured_frequency[:: args.stride]
    ):
        print(f"{t:10.1f} {f:14.3f}")
    print(f"# shift = {result.total_shift:+.3f} Hz "
          f"(resolution {1.0 / result.gate_time:.3f} Hz)", file=sys.stderr)
    return 0


def _sweep_values(raw: str) -> list[float]:
    """Parse ``--values``: a comma list or a ``start:stop:count`` linspace."""
    from .errors import ConfigError

    import numpy as np

    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"--values range expects start:stop:count, got {raw!r}"
            )
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as err:
            raise ConfigError(f"bad --values range {raw!r}: {err}") from None
        if count < 2:
            raise ConfigError(f"--values range needs count >= 2, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --values list {raw!r}: {err}") from None


def cmd_sweep(args) -> int:
    from .analysis import LoopSweepTask, run_spec_sweep
    from .engine import TieredCache, kernel_info

    spec = _root_spec(args, REFERENCE_RESONANT_SENSOR)
    values = _sweep_values(args.values)
    if args.fabric:
        from .engine import run_fabric_sweep

        cache_dir = args.cache_dir or ".repro_fabric/cache"
        cache = TieredCache(cache_dir)
        result = run_fabric_sweep(
            spec, args.path, values,
            db=args.db, cache_dir=cache_dir,
            duration=args.duration,
            workers=args.fabric_workers,
            chunk_size=args.chunk_size,
            cache=cache,
        )
        print(result.format_table())
        info = cache.cache_info()
        tiers = " ".join(
            f"{t.name}[hits={t.hits} stores={t.stores}]" for t in info.tiers
        )
        print(f"# fabric: workers={args.fabric_workers} "
              f"chunk_size={args.chunk_size} {tiers}", file=sys.stderr)
        return 0
    # every route writes the same bits, so a serial or batch sweep may
    # serve, and fill, a fabric sweep's entries
    cache = TieredCache(args.cache_dir) if args.cache_dir else None
    result = run_spec_sweep(
        spec,
        args.path,
        values,
        LoopSweepTask(duration=args.duration),
        workers=args.workers,
        backend="kernel-batch" if args.batch else "serial",
        cache=cache,
        timeout=args.timeout,
        retry=args.retries,
    )
    print(result.format_table())
    info = kernel_info()
    print(
        f"# kernel: runs={info.runs} batch_runs={info.batch_runs} "
        f"batch_instances={info.batch_instances} fallbacks={info.fallbacks}",
        file=sys.stderr,
    )
    return 0


def cmd_worker(args) -> int:
    """One fabric worker node: lease chunks until the queue or job is done."""
    import json

    from .engine import HTTPRemoteStore, TieredCache
    from .engine.fabric import FabricWorker
    from .engine.resilience import arm_env_fault_plan

    arm_env_fault_plan()  # chaos harness: seeded fault plan via env
    if bool(args.url) == bool(args.db):
        print("worker: give exactly one of --url or --db", file=sys.stderr)
        return 2
    if args.url:
        from .service import RemoteFabricStore, ServiceClient

        store = RemoteFabricStore(ServiceClient(args.url))
        remote = HTTPRemoteStore(args.url)
    else:
        from .service import open_job_store

        store = open_job_store(args.db)
        remote = None
    cache = TieredCache(args.cache_dir, remote=remote)
    worker = FabricWorker(
        store, cache,
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        job_id=args.job_id,
    )
    print(f"worker {worker.worker_id} leasing "
          f"({'url ' + args.url if args.url else 'db ' + args.db})",
          file=sys.stderr)
    stats = worker.run(
        max_chunks=args.max_chunks,
        idle_exit=None if args.once else args.idle_exit,
    )
    from .service.transport import transport_report

    payload = {"stats": stats.to_dict(),
               "cache": cache.cache_info().as_dict(),
               "transport": transport_report()}
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    print(f"worker {worker.worker_id}: {stats.chunks_done} chunk(s) done, "
          f"{stats.points_computed} computed, {stats.points_cached} cached"
          + (", QUARANTINED" if stats.quarantined else ""), file=sys.stderr)
    return 3 if stats.quarantined else 0


def cmd_health(args) -> int:
    import json

    if args.url:
        from .service import ServiceClient

        snapshot = ServiceClient(args.url).health()
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0 if snapshot.get("ok") else 1
    from .service import health_snapshot

    snapshot = health_snapshot(cache_dir=args.cache_dir, evict=args.evict)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        _print_health(snapshot)
    return 0 if snapshot["ok"] else 1


def _print_health(snapshot: dict) -> None:
    """The text form of ``repro health``: the same snapshot, for humans."""
    compiler = "available" if snapshot["compiler_available"] else "absent"
    print(f"compiler        : {compiler}")
    if snapshot["compiler_error"]:
        print(f"compiler error  : {snapshot['compiler_error']}")
    print(f"cc quarantined  : {'yes' if snapshot['cc_quarantined'] else 'no'}")
    runs = " ".join(f"{k}={v}" for k, v in sorted(
        snapshot["kernel_runs"].items())) or "none"
    print(f"kernel runs     : {runs} (batch {snapshot['batch_runs']} / "
          f"{snapshot['batch_instances']} instances)")
    last = snapshot["last_fallback_reason"]
    print(f"fallbacks       : {snapshot['fallbacks']}"
          + (f" (last: {last})" if last else ""))
    last = snapshot["last_degrade_reason"]
    print(f"degrades        : {snapshot['degrades']}"
          + (f" (last: {last})" if last else ""))
    breakers = snapshot["breakers"]
    if not breakers:
        print("breakers        : none registered")
    for name, b in breakers.items():
        state = "OPEN" if b["open"] else "closed"
        print(f"breaker {name:<12s}: {state} "
              f"(failures {b['failures']}, trips {b['trips']})")
    t = snapshot["transport"]
    print(f"transport       : {t['requests']} requests, "
          f"{t['retries']} retries, {t['errors']} errors, "
          f"{t['deadline_sheds']} deadline sheds, "
          f"{t['backpressure_rejections']} backpressure rejections")
    cache = snapshot.get("cache")
    if cache is not None:
        verb = "evicted" if cache["evicted"] else "found"
        print(f"cache           : {cache['intact']} intact, "
              f"{cache['damaged']} damaged ({verb})")
    print(f"ok              : {'yes' if snapshot['ok'] else 'no'}")


def cmd_chaos(args) -> int:
    """Seeded chaos schedules against a real server + worker processes."""
    import json

    from .service.chaos import run_chaos_suite

    echo = (lambda _msg: None) if args.json else \
        (lambda msg: print(msg, file=sys.stderr))
    reports = run_chaos_suite(
        args.workdir, seed=args.seed,
        schedules=args.schedules.split(",") if args.schedules else None,
        points=args.points, chunk_size=args.chunk_size,
        duration=args.duration, keep=args.keep, echo=echo,
    )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            verdict = "PASS" if r.passed else f"FAIL  {r.error}"
            print(f"{r.schedule:<18s} {r.duration_s:6.1f}s  {verdict}")
    return 0 if all(r.passed for r in reports) else 1


def _print_result_table(payload: dict) -> None:
    """Render a service result payload as the familiar sweep table."""
    names = list(payload.get("columns", {}))
    name = payload.get("parameter_name", "parameter")
    print("  ".join([f"{name:>24s}"] + [f"{n:>14s}" for n in names]))
    for i, parameter in enumerate(payload.get("parameters", [])):
        cells = [f"{parameter:>24.6g}"]
        for n in names:
            value = payload["columns"][n][i]
            cells.append(f"{'failed':>14s}" if value is None
                         else f"{value:>14.6g}")
        print("  ".join(cells))


def cmd_serve(args) -> int:
    from .engine import TieredCache
    from .engine.resilience import arm_env_fault_plan
    from .service import (
        ReproHTTPServer,
        ReproService,
        SchedulerPolicy,
        open_job_store,
    )

    arm_env_fault_plan()  # chaos harness: seeded fault plan via env
    store = open_job_store(args.db)
    # tiered so remote fabric workers can push/pull raw cache payloads
    cache = TieredCache(args.cache_dir)
    service = ReproService(
        store,
        cache,
        SchedulerPolicy(tenant_quota=args.tenant_quota),
        pump_workers=args.pump_workers,
    )
    server = ReproHTTPServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    # scripts (make serve-check) parse this line to find an ephemeral port
    print(f"listening on http://{host}:{port}", flush=True)
    print(f"job store: {args.db} (schema v{store.schema_version()})",
          file=sys.stderr)
    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        server.server_close()
        store.close()
    return 0


def cmd_submit(args) -> int:
    from .service import JobSpec, ServiceClient

    spec = JobSpec(
        base=_root_spec(args, REFERENCE_RESONANT_SENSOR).to_dict(),
        path=args.path,
        values=tuple(_sweep_values(args.values)),
        duration=args.duration,
        tenant=args.tenant,
        priority=args.priority,
    )
    client = ServiceClient(args.url)
    record = client.submit(spec)
    job_id = record["job_id"]
    dedup = record.get("dedup_of")
    print(f"job {job_id} queued"
          + (f" (deduplicated against {dedup})" if dedup else ""))
    if not args.wait:
        return 0
    payload = client.wait(job_id, timeout=args.wait_timeout)
    phase = payload["state"]["phase"]
    print(f"job {job_id} {phase} "
          f"({payload['progress']['completed']}/{payload['progress']['total']} "
          f"points, {payload['progress']['failed']} failed, "
          f"{payload['progress']['cache_hits']} cache hits)",
          file=sys.stderr)
    if phase == "done":
        _print_result_table(client.results(job_id))
        return 0
    return 1


def cmd_status(args) -> int:
    import json

    from .service import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id:
        print(json.dumps(client.status(args.job_id), indent=2))
        return 0
    rows = client.list_jobs(tenant=args.tenant)
    if not rows:
        print("no jobs")
        return 0
    print(f"{'job':<18s} {'tenant':<10s} {'phase':<10s} "
          f"{'progress':>9s}  dedup")
    for row in rows:
        progress = f"{row['completed']}/{row['total']}"
        print(f"{row['job_id']:<18s} {row['tenant']:<10s} "
              f"{row['phase']:<10s} {progress:>9s}  "
              f"{row['dedup_of'] or '-'}")
    return 0


def cmd_results(args) -> int:
    import json

    from .service import ServiceClient

    client = ServiceClient(args.url)
    if args.ndjson:
        for row in client.results_ndjson(args.job_id):
            print(json.dumps(row))
        return 0
    _print_result_table(client.results(args.job_id))
    return 0


def cmd_cancel(args) -> int:
    from .service import ServiceClient

    record = ServiceClient(args.url).cancel(args.job_id)
    phase = record["state"]["phase"]
    if phase == "cancelled":
        print(f"job {args.job_id} cancelled")
    elif phase in ("done", "failed"):
        print(f"job {args.job_id} already {phase}; nothing to cancel")
    else:
        print(f"job {args.job_id} {phase} (cancellation requested)")
    return 0


def _add_set_flag(parser: argparse.ArgumentParser, dest: str) -> None:
    # the top-level and per-subcommand copies need *different* dests:
    # argparse lets a subparser's defaults clobber already-parsed
    # top-level values, so sharing one dest would drop `--set`s given
    # before the command word.
    parser.add_argument(
        "--set", action="append", dest=dest, metavar="PATH=VALUE",
        default=None,
        help="override any spec field by dotted path "
             "(e.g. cantilever.length_um=350); repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CMOS cantilever biosensor simulator (DATE 2005 repro)",
    )
    parser.add_argument("--length", type=float,
                        default=REFERENCE_CANTILEVER.length_um,
                        help="beam length [um]")
    parser.add_argument("--width", type=float,
                        default=REFERENCE_CANTILEVER.width_um,
                        help="beam width [um]")
    parser.add_argument("--nwell-um", type=float,
                        default=REFERENCE_PROCESS.nwell_depth_um,
                        dest="nwell_um", help="n-well etch-stop depth [um]")
    parser.add_argument("--coated", action="store_true",
                        help="keep CMOS dielectrics on the beam")
    _add_set_flag(parser, "set_global")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="device datasheet")
    p.add_argument("--liquid", default="water")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("fabricate", help="run the post-CMOS flow + DRC")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_fabricate)

    p = sub.add_parser("characterize", help="swept-sine bring-up")
    p.add_argument("--liquid", default="water")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("assay", help="static immunoassay")
    p.add_argument("--analyte", default="igg")
    p.add_argument("--conc-nm", type=float, default=10.0, dest="conc_nm")
    p.add_argument("--exposure", type=float, default=1800.0)
    p.add_argument("--interval", type=float, default=5.0)
    p.add_argument("--stride", type=int, default=30)
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_assay)

    p = sub.add_parser("track", help="resonant tracking assay")
    p.add_argument("--analyte", default="streptavidin")
    p.add_argument("--liquid", default="pbs")
    p.add_argument("--conc-nm", type=float, default=100.0, dest="conc_nm")
    p.add_argument("--exposure", type=float, default=1800.0)
    p.add_argument("--gate", type=float, default=10.0)
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--stride", type=int, default=30)
    p.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "reference", "fused"],
        help="closed-loop execution backend (default: auto)",
    )
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser(
        "sweep",
        help="closed-loop spec sweep (batched kernel path unless --serial)",
    )
    p.add_argument("--path", default="cantilever.length_um",
                   help="dotted spec path to sweep")
    p.add_argument("--values", default="160:260:6",
                   help="comma list (a,b,c) or start:stop:count linspace")
    p.add_argument("--duration", type=float, default=0.01,
                   help="closed-loop settling time per point [s]")
    batch_group = p.add_mutually_exclusive_group()
    batch_group.add_argument(
        "--batch", action="store_true", default=True,
        help="run the whole sweep as one batched kernel call (default)",
    )
    batch_group.add_argument(
        "--serial", action="store_false", dest="batch",
        help="run each point solo (the pre-batching path)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="C-level threads for the batched call (default: CPU count, "
             "capped by REPRO_KERNEL_THREADS)",
    )
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help="tiered result cache directory (spec-keyed "
                        "memoization), shared by serial, batch and "
                        "--fabric sweeps (default with --fabric: "
                        ".repro_fabric/cache; none otherwise)")
    p.add_argument(
        "--retries", type=int, default=None,
        help="re-dispatch a crashed point up to N times "
             "(deterministic seeded backoff)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-point watchdog [s]; the sweep runs point by point and "
             "a hung point is abandoned and retried",
    )
    p.add_argument(
        "--fabric", action="store_true",
        help="distribute the grid over chunk-leasing worker processes "
             "(crash-resumable via the tiered cache)",
    )
    p.add_argument("--fabric-workers", type=int, default=2,
                   dest="fabric_workers",
                   help="worker processes to start (0 = run in-process)")
    p.add_argument("--chunk-size", type=int, default=8, dest="chunk_size",
                   help="grid points per leased chunk")
    p.add_argument("--db", default=".repro_fabric/jobs.sqlite",
                   help="fabric job/lease store (shared by resumed runs)")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "health",
        help="engine health: kernel state, breakers, cache integrity",
    )
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help="also integrity-scan this cache directory")
    p.add_argument("--evict", action="store_true",
                   help="evict damaged cache entries found by the scan")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable health snapshot "
                        "(what the serve layer's /healthz probe embeds)")
    p.add_argument("--url", default=None,
                   help="query a running service's /healthz instead "
                        "(includes live per-tier cache counters)")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "worker",
        help="fabric worker node: lease sweep chunks from a store or server",
    )
    p.add_argument("--url", default=None,
                   help="coordinator base URL (remote node; results travel "
                        "through the cache's HTTP tier)")
    p.add_argument("--db", default=None,
                   help="shared job-store path (local node)")
    p.add_argument("--cache-dir", default=".repro_fabric/cache",
                   dest="cache_dir", help="tiered cache directory")
    p.add_argument("--worker-id", default=None, dest="worker_id",
                   help="stable identity (default: host-pid-hex)")
    p.add_argument("--job-id", default=None, dest="job_id",
                   help="only lease chunks of this job")
    p.add_argument("--lease-seconds", type=float, default=30.0,
                   dest="lease_seconds",
                   help="chunk lease TTL; heartbeats extend it")
    p.add_argument("--max-attempts", type=int, default=3, dest="max_attempts",
                   help="chunk attempts before it is parked failed")
    p.add_argument("--max-chunks", type=int, default=None, dest="max_chunks",
                   help="stop after this many chunks")
    p.add_argument("--idle-exit", type=float, default=5.0, dest="idle_exit",
                   help="exit after this many idle seconds (a --job-id "
                        "worker exits as soon as its job's chunks settle)")
    p.add_argument("--once", action="store_true",
                   help="exit on the first idle poll (drain mode)")
    p.add_argument("--stats-json", default=None, dest="stats_json",
                   help="write worker stats + cache counters to this file")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the simulation service (durable job store + HTTP API)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 binds an ephemeral port and prints it)")
    p.add_argument("--db", default=".repro_service/jobs.sqlite",
                   help="job-store location (path or sqlite:///path)")
    p.add_argument("--cache-dir", default=".repro_service/cache",
                   dest="cache_dir", help="cache directory shared by "
                                          "all jobs (the dedup substrate)")
    p.add_argument("--pump-workers", type=int, default=1, dest="pump_workers",
                   help="concurrent jobs run in-process; 0 runs none, so "
                        "jobs run only on `repro worker --url` nodes")
    p.add_argument("--tenant-quota", type=int, default=2, dest="tenant_quota",
                   help="max running jobs per tenant")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="seeded fault schedules against a real server + workers "
             "(kill -9, brownouts, lost heartbeats); proves bit-exact "
             "results with zero recomputes",
    )
    p.add_argument("--seed", type=int, default=2026,
                   help="suite seed; every schedule derives its own")
    p.add_argument("--schedules", default=None,
                   help="comma-separated subset (default: all)")
    p.add_argument("--points", type=int, default=12,
                   help="grid points per schedule")
    p.add_argument("--chunk-size", type=int, default=4, dest="chunk_size",
                   help="points per lease chunk")
    p.add_argument("--duration", type=float, default=0.004,
                   help="closed-loop seconds per point")
    p.add_argument("--workdir", default=None,
                   help="artifact directory (default: fresh temp dir)")
    p.add_argument("--keep", action="store_true",
                   help="keep stores/caches/stats dumps for post-mortems")
    p.add_argument("--json", action="store_true",
                   help="print the report list as JSON")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("submit", help="submit a sweep to a running service")
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="service base URL")
    p.add_argument("--path", default="cantilever.length_um",
                   help="dotted spec path to sweep")
    p.add_argument("--values", default="160:260:6",
                   help="comma list (a,b,c) or start:stop:count linspace")
    p.add_argument("--duration", type=float, default=0.01,
                   help="closed-loop settling time per point [s]")
    p.add_argument("--tenant", default="default",
                   help="tenant the job is accounted to")
    p.add_argument("--priority", type=int, default=0,
                   help="scheduling priority (higher runs first)")
    p.add_argument("--wait", action="store_true",
                   help="long-poll until terminal and print the result "
                        "table")
    p.add_argument("--wait-timeout", type=float, default=300.0,
                   dest="wait_timeout", help="--wait deadline [s]")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="job status (or listing without an id)")
    p.add_argument("job_id", nargs="?", default=None)
    p.add_argument("--url", default="http://127.0.0.1:8765")
    p.add_argument("--tenant", default=None,
                   help="filter the listing to one tenant")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("results", help="fetch a finished job's sweep table")
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8765")
    p.add_argument("--ndjson", action="store_true",
                   help="print one JSON line per grid point")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_results)

    p = sub.add_parser("cancel", help="cancel a queued/running job")
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8765")
    _add_set_flag(p, "set_cmd")
    p.set_defaults(func=cmd_cancel)

    return parser


def main(argv: list[str] | None = None) -> int:
    from .errors import ConfigError, LoweringError, ServiceError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, LoweringError, ServiceError) as err:
        # user-facing configuration/lowering/service problems get a
        # one-line message and a nonzero exit, never a traceback
        print(f"repro: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
