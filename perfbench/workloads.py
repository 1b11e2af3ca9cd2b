"""The three user paths the benchmark drives, each a closed loop.

* ``sweep-long`` — sequential ``run_spec_sweep`` calls on the batch path;
* ``service-mixed`` — an in-process ``repro.service`` server driven by
  two ``ServiceClient`` threads over localhost HTTP;
* ``fabric-1w`` — sequential ``run_fabric_sweep`` jobs with one spawned
  worker.

A workload is set up once (:meth:`Workload.setup`, which the set-up
probes time in a fresh process), then runs one or two measured passes
(:meth:`Workload.run_pass`) and finally checks sampled outputs against
a solo serial reference (:meth:`Workload.check`), off the timed path.
Grids come only from the seed; the program sees only the generated
specs.  See ``manifest.json`` for why each workload exists.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import LoopSweepTask, override_grid, run_spec_sweep
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import TieredCache, kernel_info, run_fabric_sweep
from repro.engine.kernel_columnar import ATOL_SCALE, RTOL
from repro.errors import ReproError
from repro.service import JobSpec, ReproService, ServiceClient, serve
from repro.service.store import SQLiteJobStore

import tracing

PATH = "cantilever.length_um"
#: Measured grids draw lengths from here; warm-up grids sit below it.
LENGTH_RANGE_UM = (300.0, 700.0)
WARM_LENGTHS_UM = tuple(250.0 + 0.5 * i for i in range(8))
#: Closed-loop clients of service-mixed, one per core of the reference box.
SERVICE_CLIENTS = 2
#: Share of service-mixed jobs that repeat an earlier grid (dedup path).
REPEAT_SHARE = 0.25
#: Reference points checked per run at most, to bound the check's cost.
MAX_CHECKED = 40


@dataclass(frozen=True)
class Sizes:
    """Per-run sizes; :data:`TOY` shrinks them for the self-test."""

    sweep_points: int = 96
    sweep_duration: float = 0.1
    service_points: int = 8
    service_duration: float = 0.01
    fabric_points: int = 64
    fabric_duration: float = 0.01
    fabric_chunk: int = 32
    #: set-up probes per run (setup_s is their median)
    probes: int = 3
    #: reference points checked per sweep call or job
    check_points: int = 2


FULL = Sizes()
TOY = Sizes(sweep_points=8, sweep_duration=0.005, service_duration=0.002,
            fabric_points=8, fabric_duration=0.002, fabric_chunk=4,
            probes=1, check_points=1)


def fresh_grid(rng: np.random.Generator, n: int) -> tuple:
    """``n`` lengths no other call of the run repeats (1e-6 um grid)."""
    lo, hi = LENGTH_RANGE_UM
    return tuple(float(v) for v in np.round(rng.uniform(lo, hi, n), 6))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for no samples."""
    values = list(values)
    return float(np.quantile(values, q)) if values else 0.0


def median(values) -> float:
    return quantile(values, 0.5)


@dataclass
class Sample:
    """One sweep call or job of a pass, kept for the output checks."""

    label: str
    values: tuple
    latency_s: float
    columns: dict
    repeat_of: str | None = None
    state: dict = field(default_factory=dict)
    progress: dict = field(default_factory=dict)
    seen_at: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class PassResult:
    """What one measured pass did."""

    t0: float
    t1: float
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def returned(self) -> int:
        return sum(len(s.values) for s in self.samples)

    def latencies(self, hits: bool | None = None) -> list[float]:
        return [s.latency_s for s in self.samples
                if hits is None or (s.repeat_of is not None) == hits]

    def end_to_end(self) -> dict:
        lat = self.latencies()
        return {
            "points_per_s": self.returned / self.wall_s,
            "latency_mean_s": _mean(lat),
            "latency_p50_s": quantile(lat, 0.5),
            # p90 needs at least ten samples beyond it
            "latency_p90_s": quantile(lat, 0.9) if len(lat) >= 100 else 0.0,
            "hit_latency_p50_s": quantile(self.latencies(hits=True), 0.5),
            "failed_fraction": self.failed / max(1, self.attempted),
            "samples": len(lat),
            "hit_samples": len(self.latencies(hits=True)),
        }


class Workload:
    """Base: seeded grids, reference checks, counters."""

    name = ""
    salt = 0

    def __init__(self, sizes: Sizes, workdir: Path, tracer: tracing.Tracer,
                 seed: int) -> None:
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.seed = seed

    def rng(self, pass_index: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.salt, pass_index, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, seconds: float, pass_index: int) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_counters(self) -> dict:
        """Program counters for the traced pass (deltas taken by the caller)."""
        info = kernel_info()
        return {
            "engine.kernel.runs": sum(info.runs.values()),
            "engine.kernel.batch_columnar_runs": info.batch_columnar_runs,
            "engine.kernel.fallbacks": info.fallbacks,
            "engine.kernel.batch_declined": info.batch_declined,
        }

    def observe_polls(self, patches: list) -> None:
        """Hook for extra observers of the traced pass (see Fabric1W)."""

    def pass_layers(self, result: PassResult) -> dict:
        """Per-job layer figures of a traced pass (medians, counts)."""
        return {}

    def bytes_per_point(self, result: PassResult) -> float:
        """Mean serialized cache entry per point; 0 without a cache."""
        return 0.0

    # -- output checks (off the timed path) ---------------------------------

    def _sampled(self, samples: list[Sample]) -> list[tuple[Sample, int]]:
        """Seeded points of fresh samples, at most ``MAX_CHECKED`` of them."""
        rng = np.random.default_rng([self.seed, self.salt, 99])
        picks = []
        for sample in samples:
            if sample.repeat_of is not None:
                continue
            k = min(self.sizes.check_points, len(sample.values))
            for index in rng.choice(len(sample.values), k, replace=False):
                picks.append((sample, int(index)))
        if len(picks) > MAX_CHECKED:
            keep = rng.choice(len(picks), MAX_CHECKED, replace=False)
            picks = [picks[i] for i in sorted(keep)]
        return picks

    def compare(self, samples: list[Sample], duration: float,
                exact: bool) -> dict:
        """Sampled points against solo serial runs.

        ``exact`` demands ``np.array_equal``; otherwise the columnar
        contract (``RTOL``, ``ATOL_SCALE`` of the largest reference).
        Reports the bit-exact share and the largest ULP distance either way.
        """
        task = LoopSweepTask(duration=duration)
        picks = self._sampled(samples)
        got: dict[str, list] = {}
        ref: dict[str, list] = {}
        for sample, index in picks:
            want = task(REFERENCE_RESONANT_SENSOR.with_overrides(
                {PATH: sample.values[index]}))
            for name, value in want.items():
                ref.setdefault(name, []).append(float(value))
                got.setdefault(name, []).append(float(sample.columns[name][index]))
        ok = bool(picks)
        max_ulp = 0
        bit_exact = np.ones(len(picks), dtype=bool)
        for name in ref:
            r = np.asarray(ref[name])
            g = np.asarray(got[name])
            if exact:
                ok = ok and bool(np.array_equal(r, g))
            else:
                atol = ATOL_SCALE * max(1e-300, float(np.max(np.abs(r))))
                ok = ok and bool(np.allclose(g, r, rtol=RTOL, atol=atol))
            max_ulp = max(max_ulp, ulp_distance(r, g))
            bit_exact &= r == g
        return {
            "contract": "array_equal" if exact else f"allclose rtol={RTOL}",
            "points": len(picks),
            "bit_exact_points": int(bit_exact.sum()),
            "max_ulp": max_ulp,
            "ok": ok,
        }

    def check(self, samples: list[Sample]) -> dict:
        """Output checks over the samples of every pass; ``ok`` is the verdict."""
        raise NotImplementedError


def ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Largest distance in units of last place between matching doubles."""
    if a.size == 0:
        return 0

    def ordered(x):
        bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.int64(-(2**63)) - bits, bits)

    diff = np.abs(ordered(a).astype(object) - ordered(b).astype(object))
    return int(max(diff))


class SweepLong(Workload):
    name = "sweep-long"
    salt = 1

    def setup(self) -> None:
        run_spec_sweep(REFERENCE_RESONANT_SENSOR, PATH, WARM_LENGTHS_UM,
                       LoopSweepTask(duration=0.002), backend="kernel-batch")

    def run_pass(self, seconds: float, pass_index: int) -> PassResult:
        sizes = self.sizes
        task = LoopSweepTask(duration=sizes.sweep_duration)
        rng = self.rng(pass_index)
        result = PassResult(t0=time.perf_counter(), t1=0.0)
        deadline = result.t0 + seconds
        call = 0
        while time.perf_counter() < deadline:
            grid = fresh_grid(rng, sizes.sweep_points)
            label = f"sweep-{pass_index}-{call}"
            call += 1
            result.attempted += len(grid)
            start = time.perf_counter()
            try:
                with self.tracer.span("analysis.sweep", label):
                    table = run_spec_sweep(REFERENCE_RESONANT_SENSOR, PATH,
                                           grid, task, backend="kernel-batch")
            except ReproError as err:
                result.failed += len(grid)
                result.errors.append(f"{label}: {err}")
                continue
            result.samples.append(Sample(
                label=label, values=grid,
                latency_s=time.perf_counter() - start,
                columns={k: list(v) for k, v in table.columns.items()}))
        result.t1 = time.perf_counter()
        return result

    def check(self, samples: list[Sample]) -> dict:
        outcome = self.compare(samples, self.sizes.sweep_duration, exact=False)
        return {"reference": outcome, "ok": outcome["ok"]}


class ServiceMixed(Workload):
    name = "service-mixed"
    salt = 2

    def setup(self) -> None:
        root = self.workdir / "service"
        self.store = SQLiteJobStore(root / "jobs.sqlite")
        self.cache = TieredCache(root / "cache")
        self.service = ReproService(self.store, self.cache, pump_workers=1)
        self.server = serve("127.0.0.1", 0, self.service, background=True)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        client = ServiceClient(self.url)
        client.health()
        job = client.submit(self._spec(WARM_LENGTHS_UM, "warm-up", 0.002))
        client.wait(job["job_id"])
        client.results(job["job_id"])

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            server.server_close()
            self.service.stop()
            self.server = None

    def _spec(self, values, tenant: str, duration: float | None = None):
        return JobSpec(
            base=REFERENCE_RESONANT_SENSOR.to_dict(), path=PATH,
            values=tuple(values), tenant=tenant,
            duration=duration if duration is not None
            else self.sizes.service_duration)

    def run_pass(self, seconds: float, pass_index: int) -> PassResult:
        result = PassResult(t0=time.perf_counter(), t1=0.0)
        deadline = result.t0 + seconds
        lock = threading.Lock()
        with ThreadPoolExecutor(SERVICE_CLIENTS,
                                thread_name_prefix="perfbench-client") as pool:
            clients = [pool.submit(self._client_loop, pass_index, i, deadline,
                                   result, lock)
                       for i in range(SERVICE_CLIENTS)]
            for client in clients:
                client.result()
        result.t1 = time.perf_counter()
        return result

    def _client_loop(self, pass_index: int, index: int, deadline: float,
                     result: PassResult, lock: threading.Lock) -> None:
        rng = self.rng(pass_index, index)
        client = ServiceClient(self.url)
        done: list[Sample] = []
        job = 0
        while time.perf_counter() < deadline:
            primary = None
            if done and rng.random() < REPEAT_SHARE:
                primary = done[int(rng.integers(len(done)))]
                values, tenant = primary.values, f"client{index}-repeat"
            else:
                values = fresh_grid(rng, self.sizes.service_points)
                tenant = f"client{index}"
            label = f"c{index}-{pass_index}-{job}"
            job += 1
            token = tracing.CURRENT_JOB.set(label)
            start = time.perf_counter()
            try:
                record = client.submit(self._spec(values, tenant))
                status = client.wait(record["job_id"])
                seen_at = time.time()
                table = (client.results(record["job_id"])
                         if status["state"]["phase"] == "done" else None)
            except ReproError as err:
                with lock:
                    result.attempted += len(values)
                    result.failed += len(values)
                    result.errors.append(f"{label}: {err}")
                continue
            finally:
                tracing.CURRENT_JOB.reset(token)
            latency = time.perf_counter() - start
            failed = (len(values) if table is None
                      else status["progress"]["failed"])
            with lock:
                result.attempted += len(values)
                result.failed += failed
                if table is None:
                    result.errors.append(
                        f"{label}: job ended {status['state']['phase']}")
                    continue
                sample = Sample(
                    label=label, values=values, latency_s=latency,
                    columns=table["columns"],
                    repeat_of=primary.label if primary else None,
                    state=status["state"],
                    progress=status["progress"], seen_at=seen_at)
                result.samples.append(sample)
            if primary is None:
                done.append(sample)

    def pass_layers(self, result: PassResult) -> dict:
        states = [s.state for s in result.samples]
        return {
            "service.pump.queue_wait_s": median(
                s["started_at"] - s["submitted_at"] for s in states),
            "service.pump.exec_s": median(
                s["finished_at"] - s["started_at"] for s in states),
            "service.client.poll_lag_s": median(
                s.seen_at - s.state["finished_at"]
                for s in result.samples),
        }

    def layer_counters(self) -> dict:
        from repro.service.transport import transport_counters

        counters = super().layer_counters()
        client = transport_counters().snapshot()
        server = self.service.health()["service"]["transport"]
        counters.update({
            "service.client.requests": client["requests"],
            "service.client.retries": client["retries"],
            "service.client.errors": client["errors"],
            "service.client.sheds": (server["backpressure_rejections"]
                                     + server["deadline_sheds"]),
        })
        counters.update(cache_counters([self.cache]))
        return counters

    def bytes_per_point(self, result: PassResult) -> float:
        return entry_bytes(self.cache, self.sizes.service_duration,
                           [s.values for s in result.samples])

    def check(self, samples: list[Sample]) -> dict:
        # 8-point jobs cross COLUMNAR_MIN_INSTANCES, so the pump batches
        # them on the columnar engine: tolerance-bound, not bit-exact.
        columnar = kernel_info().batch_columnar_runs > 0
        reference = self.compare(samples, self.sizes.service_duration,
                                 exact=not columnar)
        by_label = {s.label: s for s in samples}
        repeats = [s for s in samples if s.repeat_of is not None]
        all_hits = all(s.progress["cache_hits"] == s.progress["total"]
                       for s in repeats)
        same_table = all(
            all(np.array_equal(np.asarray(s.columns[k], dtype=float),
                               np.asarray(by_label[s.repeat_of].columns[k],
                                          dtype=float))
                for k in s.columns)
            for s in repeats)
        return {
            "reference": reference,
            "repeats": len(repeats),
            "repeats_all_cache_hits": all_hits,
            "repeats_equal_primary": same_table,
            "ok": reference["ok"] and all_hits and same_table,
        }


class Fabric1W(Workload):
    name = "fabric-1w"
    salt = 3

    def setup(self) -> None:
        # the worker processes load the kernel .so; make sure it is built
        LoopSweepTask(duration=0.002)(
            REFERENCE_RESONANT_SENSOR.with_overrides({PATH: WARM_LENGTHS_UM[0]}))
        self.caches: list[TieredCache] = []
        self.polls: list[tuple[float, dict]] | None = None

    def close(self) -> None:
        # run_fabric_sweep spawns workers, which starts multiprocessing's
        # resource tracker; stop it so no process outlives the run
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def run_pass(self, seconds: float, pass_index: int) -> PassResult:
        sizes = self.sizes
        rng = self.rng(pass_index)
        result = PassResult(t0=time.perf_counter(), t1=0.0)
        deadline = result.t0 + seconds
        job = 0
        while time.perf_counter() < deadline:
            grid = fresh_grid(rng, sizes.fabric_points)
            label = f"fabric-{pass_index}-{job}"
            job_dir = self.workdir / label
            job += 1
            cache = TieredCache(job_dir / "cache")
            self.caches.append(cache)
            result.attempted += len(grid)
            polls_before = len(self.polls) if self.polls is not None else 0
            start = time.perf_counter()
            try:
                with self.tracer.span("engine.fabric.coordinator", label):
                    table = run_fabric_sweep(
                        REFERENCE_RESONANT_SENSOR, PATH, grid,
                        db=job_dir / "jobs.sqlite", cache_dir=job_dir / "cache",
                        duration=sizes.fabric_duration, workers=1,
                        chunk_size=sizes.fabric_chunk, cache=cache)
            except ReproError as err:
                result.failed += len(grid)
                result.errors.append(f"{label}: {err}")
                continue
            end = time.perf_counter()
            extra = {"dir": job_dir, "cache": cache}
            if self.polls is not None:
                extra.update(fabric_phases(start, end,
                                           self.polls[polls_before:]))
            result.samples.append(Sample(
                label=label, values=grid, latency_s=end - start,
                columns={k: list(v) for k, v in table.columns.items()},
                extra=extra))
        result.t1 = time.perf_counter()
        return result

    def observe_polls(self, patches: list) -> None:
        """Record every coordinator ``chunk_counts`` poll of the traced pass."""
        self.polls = []
        polls = self.polls
        original = SQLiteJobStore.chunk_counts

        def chunk_counts(store, job_id):
            counts = original(store, job_id)
            polls.append((time.perf_counter(), dict(counts)))
            return counts

        tracing.patch(patches, SQLiteJobStore, "chunk_counts", chunk_counts)

    def pass_layers(self, result: PassResult) -> dict:
        extras = [s.extra for s in result.samples if "polls" in s.extra]
        for extra in extras:
            store = SQLiteJobStore(extra["dir"] / "jobs.sqlite")
            (job,) = store.list_jobs()
            extra["chunk_attempts"] = sum(c.attempts
                                          for c in store.chunks(job.job_id))
        return {
            "engine.fabric.spawn_to_first_chunk_s": median(
                e["spawn_to_first_chunk_s"] for e in extras),
            "engine.fabric.compute_window_s": median(
                e["compute_window_s"] for e in extras),
            "engine.fabric.teardown_s": median(
                e["teardown_s"] for e in extras),
            "engine.fabric.coordinator_polls": median(
                e["polls"] for e in extras),
            "engine.fabric.chunk_attempts": median(
                e["chunk_attempts"] for e in extras),
        }

    def layer_counters(self) -> dict:
        counters = super().layer_counters()
        counters.update(cache_counters(self.caches))
        return counters

    def bytes_per_point(self, result: PassResult) -> float:
        return _mean(entry_bytes(s.extra["cache"], self.sizes.fabric_duration,
                                 [s.values]) for s in result.samples)

    def check(self, samples: list[Sample]) -> dict:
        reference = self.compare(samples, self.sizes.fabric_duration, exact=True)
        return {"reference": reference, "ok": reference["ok"]}


def fabric_phases(start: float, end: float, polls: list) -> dict:
    """Spawn / compute / teardown split of one job from its polls."""
    first_done = settled = end
    for when, counts in polls:
        total = sum(counts.values())
        done = counts.get("done", 0)
        if done and first_done == end:
            first_done = when
        if total and done + counts.get("failed", 0) == total:
            settled = when
            break
    return {
        "spawn_to_first_chunk_s": first_done - start,
        "compute_window_s": settled - first_done,
        "teardown_s": end - settled,
        "polls": len(polls),
    }


def cache_counters(caches: list) -> dict:
    """Summed ``cache_info()`` tier counters of the given caches."""
    counters: dict[str, float] = {"engine.cache.hits": 0,
                                  "engine.cache.misses": 0}
    for tier in ("memory", "disk", "remote"):
        for field_name in ("hits", "misses", "stores"):
            counters[f"engine.cache.{tier}.{field_name}"] = 0
    for cache in caches:
        info = cache.cache_info()
        counters["engine.cache.hits"] += info.hits
        counters["engine.cache.misses"] += info.misses
        for tier in info.tiers:
            for field_name in ("hits", "misses", "stores"):
                counters[f"engine.cache.{tier.name}.{field_name}"] += \
                    getattr(tier, field_name)
    return counters


def entry_bytes(cache, duration: float, grids: list) -> float:
    """Mean ``export_entry`` length of the point entries of ``grids``."""
    from repro.analysis.sweep import _cache_parameter

    task = LoopSweepTask(duration=duration)
    sizes = []
    for values in grids:
        for spec in override_grid(REFERENCE_RESONANT_SENSOR, PATH, list(values)):
            raw = cache.export_entry(
                cache.key_for(task, _cache_parameter(spec), None))
            if raw is not None:
                sizes.append(len(raw))
    return _mean(sizes)


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


WORKLOADS = {cls.name: cls for cls in (SweepLong, ServiceMixed, Fabric1W)}
