"""Deterministic on-disk result cache for sweep and Monte-Carlo points.

Every simulation in this library is a pure function of its explicit
parameters (geometry, process knobs, seeds) — which makes results
memoizable *if* the key is stable.  The cache keys an entry by a SHA-256
content hash of

* the task function's module-qualified name,
* a canonical encoding of its parameters (dataclasses, dicts, numpy
  arrays, partials — see :func:`stable_hash`),
* the caller-supplied ``extra`` context (e.g. config dataclasses the
  function closes over), and
* the cache schema version, so bumping :data:`CACHE_VERSION` invalidates
  every old entry at once.

Entries are pickle files written atomically (temp file + ``os.replace``)
so a killed run never leaves a half-written entry.  The value itself is
stored as an inner pickle blob with a SHA-256 integrity checksum, so a
bit-flipped or truncated file — whether it breaks the outer pickle or
silently damages the payload — is *detected*, counted, evicted, and
treated as a miss, never returned as data and never raised.  Hit/miss/
corruption counters are exposed through :meth:`ResultCache.cache_info`
so benches can *prove* a warm re-run skipped recomputation and fault
tests can prove a corrupt entry was recomputed.

:class:`TieredCache` extends the flat cache into a three-tier
hierarchy for distributed sweeps: an in-process LRU of decoded blobs,
a local disk tier sharded by hash prefix (so a million-entry grid does
not put a million files in one directory), and an optional *shared*
remote store — filesystem-backed (:class:`FilesystemRemoteStore`, e.g.
an NFS mount) or HTTP-backed against a running ``repro serve``
(:class:`HTTPRemoteStore`).  Entries flow downward on miss and are
*promoted* upward on hit; every tier keeps its own hit/miss/store/
promotion/eviction counters (:class:`TierInfo`) surfaced through
:meth:`TieredCache.cache_info` and ``repro health``.  The remote tier
transports the *outer checksummed payload* verbatim, so a damaged blob
is detected at the receiving end exactly like a damaged local file.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import logging
import os
import pickle
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import CacheError, FaultInjectionError
from .resilience import (
    RetryPolicy,
    active_injector,
    corruption_offsets,
    poll_fault,
)

logger = logging.getLogger(__name__)

#: Bump to invalidate every previously written cache entry.
#: 2: checksummed inner-blob payload layout (integrity verification).
#: 3: 1/f noise is synthesized at a smooth FFT length, which moves the
#: bits of every noisy waveform; older entries hold the old realization.
CACHE_VERSION = 3

_MISSING = object()


@dataclass(frozen=True)
class CacheInfo:
    """Counters of one :class:`ResultCache` instance's activity."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found damaged (checksum or format) and evicted; every
    #: corruption is also counted as a miss, so hits+misses still totals
    #: the requests.
    corruptions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    def __str__(self) -> str:
        return (
            f"CacheInfo(hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores}, corruptions={self.corruptions})"
        )


def _encode(obj, out: list[bytes]) -> None:
    """Append a canonical byte encoding of ``obj`` to ``out``.

    The encoding is type-tagged so ``1`` and ``1.0`` and ``"1"`` hash
    differently, and recursive so nested containers, dataclasses, and
    partials all reduce to stable bytes.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        out.append(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        # repr round-trips doubles exactly; hex would too but is less greppable
        out.append(f"float:{obj!r};".encode())
    elif isinstance(obj, complex):
        out.append(f"complex:{obj!r};".encode())
    elif isinstance(obj, np.ndarray):
        out.append(f"ndarray:{obj.dtype.str}:{obj.shape};".encode())
        out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _encode(obj.item(), out)
    elif isinstance(obj, (list, tuple)):
        out.append(f"{type(obj).__name__}[{len(obj)}]:".encode())
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, (set, frozenset)):
        out.append(f"set[{len(obj)}]:".encode())
        for item in sorted(obj, key=repr):
            _encode(item, out)
    elif isinstance(obj, dict):
        out.append(f"dict[{len(obj)}]:".encode())
        for key in sorted(obj, key=repr):
            _encode(key, out)
            _encode(obj[key], out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        out.append(f"dataclass:{cls.__module__}.{cls.__qualname__};".encode())
        for field in dataclasses.fields(obj):
            out.append(f"field:{field.name};".encode())
            _encode(getattr(obj, field.name), out)
    elif isinstance(obj, functools.partial):
        out.append(b"partial:")
        _encode(obj.func, out)
        _encode(obj.args, out)
        _encode(obj.keywords, out)
    elif callable(obj):
        name = getattr(obj, "__qualname__", getattr(obj, "__name__", None))
        module = getattr(obj, "__module__", None)
        if name is None:
            raise CacheError(f"cannot stably hash callable {obj!r}")
        if "<locals>" in name or "<lambda>" in name:
            raise CacheError(
                f"cannot stably hash {module}.{name}: closures and lambdas "
                "have no stable identity across runs — use a module-level "
                "function or functools.partial of one"
            )
        out.append(f"callable:{module}.{name};".encode())
    else:
        # plain value objects (e.g. LayerStack): type identity + state.
        # Deterministic as long as the state itself is encodable; objects
        # carrying handles or memo caches will (correctly) raise below.
        cls = type(obj)
        state = getattr(obj, "__dict__", None)
        if state is None and hasattr(cls, "__slots__"):
            state = {
                slot: getattr(obj, slot)
                for slot in cls.__slots__
                if hasattr(obj, slot)
            }
        if state is None:
            raise CacheError(
                f"cannot stably hash {type(obj).__name__!r} value {obj!r}; "
                "supported: scalars, str/bytes, containers, numpy arrays, "
                "dataclasses, plain value objects, module-level callables, "
                "partials"
            )
        out.append(f"object:{cls.__module__}.{cls.__qualname__};".encode())
        _encode(state, out)


def stable_hash(*parts) -> str:
    """Deterministic SHA-256 hex digest of the canonical part encoding.

    Stable across processes and sessions (unlike ``hash()``, which is
    salted per-interpreter for strings).
    """
    chunks: list[bytes] = []
    for part in parts:
        _encode(part, chunks)
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def _damage_file(path: Path, fault) -> None:
    """Apply one injected ``cache.entry`` fault to the on-disk entry.

    ``"corrupt"`` XOR-flips a handful of deterministically chosen bytes
    (plan-seeded, so the same plan always injures the same bytes);
    anything else truncates the file to half — the killed-mid-write
    shape.  Both damages must be caught by the read path's checksum or
    unpickling, never surfaced to the caller.
    """
    raw = path.read_bytes()
    if not raw:
        return
    if fault.kind == "corrupt":
        injector = active_injector()
        seed = injector.plan.seed if injector is not None else 0
        n = max(1, int(fault.payload)) if fault.payload else 8
        damaged = bytearray(raw)
        for offset in corruption_offsets(seed, len(raw), n, path.name):
            damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))
    else:
        path.write_bytes(raw[: len(raw) // 2])


class ResultCache:
    """On-disk memo table keyed by stable content hashes.

    Parameters
    ----------
    directory:
        Cache directory (created on first store).  Defaults to the
        ``REPRO_CACHE_DIR`` environment variable, else ``.repro_cache``
        under the current working directory.
    version:
        Cache schema version folded into every key; defaults to
        :data:`CACHE_VERSION`.  Bump to orphan all existing entries.
    """

    def __init__(
        self, directory: str | os.PathLike | None = None,
        version: int = CACHE_VERSION,
    ) -> None:
        root = directory or os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
        self.directory = Path(root)
        self.version = int(version)
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corruptions = 0

    # -- keys ----------------------------------------------------------------

    def key_for(self, fn: Callable, parameter, extra=None) -> str:
        """Cache key of one (function, parameter, context) evaluation."""
        return stable_hash("repro-cache", self.version, fn, parameter, extra)

    def _path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -- storage -------------------------------------------------------------

    def get(self, key: str):
        """Cached value for ``key``, or the ``MISS`` sentinel.

        A missing, corrupted, or version-mismatched entry counts as a
        miss; damaged files (broken pickle, wrong key, failed checksum)
        additionally count as corruptions and are evicted so the next
        store is clean.  The ``cache.entry`` fault site damages the
        on-disk file *before* the read, so injection exercises exactly
        this recovery path.
        """
        path = self._path_for(key)
        fault = poll_fault("cache.entry")
        if fault is not None and path.is_file():
            _damage_file(path, fault)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            value = self._decode_payload(payload, key, path)
        except FileNotFoundError:
            self._misses += 1
            return self.MISS
        except Exception as err:
            # corrupted / truncated / incompatible entry: evict + recompute
            self._misses += 1
            self._corruptions += 1
            logger.warning("evicting corrupt cache entry %s: %s", path.name, err)
            try:
                path.unlink()
            except OSError:
                pass
            return self.MISS
        self._hits += 1
        return value

    def _decode_payload(self, payload, key: str, path: Path):
        """Validate one loaded payload dict; raises CacheError on damage."""
        if (
            not isinstance(payload, dict)
            or payload.get("version") != self.version
            or payload.get("key") != key
        ):
            raise CacheError(f"stale or foreign cache entry {path.name}")
        blob = payload.get("blob")
        if not isinstance(blob, bytes):
            raise CacheError(f"malformed cache entry {path.name}")
        if hashlib.sha256(blob).hexdigest() != payload.get("sha256"):
            raise CacheError(f"checksum mismatch in cache entry {path.name}")
        return pickle.loads(blob)

    def put(self, key: str, value) -> None:
        """Atomically persist ``value`` under ``key`` (checksummed)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "version": self.version,
            "key": key,
            "blob": blob,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._stores += 1

    #: Sentinel returned by :meth:`get` for absent entries (never a value).
    MISS = _MISSING

    def get_or_compute(self, fn: Callable, parameter, extra=None):
        """Memoized ``fn(parameter)``: load on hit, compute + store on miss."""
        key = self.key_for(fn, parameter, extra)
        value = self.get(key)
        if value is not self.MISS:
            return value
        value = fn(parameter)
        self.put(key, value)
        return value

    # -- introspection -------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Hit/miss/store counters since this instance was created."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            corruptions=self._corruptions,
        )

    def verify(self, evict: bool = True) -> tuple[int, int]:
        """Integrity-scan every entry: ``(intact, damaged)`` counts.

        Damaged entries (unreadable pickle, checksum mismatch, wrong
        schema version) are evicted when ``evict`` is true, so the next
        lookup recomputes them.  Does not touch the hit/miss counters —
        this is an audit, not a lookup.
        """
        intact = damaged = 0
        if not self.directory.is_dir():
            return (0, 0)
        # rglob, not glob: scans both the flat layout and the sharded
        # hash-prefix layout TieredCache writes, so one audit covers any
        # directory regardless of which cache class produced it.
        for path in sorted(self.directory.rglob("*.pkl")):
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
                self._decode_payload(payload, path.stem, path)
                intact += 1
            except Exception as err:
                damaged += 1
                logger.warning("cache entry %s is damaged: %s", path.name, err)
                if evict:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return (intact, damaged)

    def clear(self) -> int:
        """Delete every entry in the cache directory; returns the count."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.rglob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# -- tiered cache -------------------------------------------------------------


@dataclass(frozen=True)
class TierInfo:
    """Counters of one tier of a :class:`TieredCache`.

    ``promotions`` counts entries copied *into* this tier after a hit in
    a slower tier (memory gains one on every disk or remote hit; disk
    gains one on every remote hit).  ``evictions`` counts LRU drops
    (memory tier only).  ``errors`` counts failed remote round-trips —
    the remote tier is best-effort and never fails a lookup or store.

    The brownout counters are remote-tier only: ``trips`` counts
    error-threshold trips into local-only mode, ``skips`` counts remote
    round-trips elided while tripped, ``probes`` counts the periodic
    recovery attempts, and ``pending`` is the current depth of the
    write-behind queue holding entries stranded by the brownout (see
    :meth:`TieredCache.flush_remote`).
    """

    name: str
    hits: int = 0
    misses: int = 0
    stores: int = 0
    promotions: int = 0
    evictions: int = 0
    errors: int = 0
    trips: int = 0
    skips: int = 0
    probes: int = 0
    pending: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class TieredCacheInfo(CacheInfo):
    """Aggregate counters plus the per-tier breakdown.

    The inherited ``hits``/``misses``/``stores``/``corruptions`` keep
    the flat-cache meaning (one count per :meth:`TieredCache.get` /
    :meth:`TieredCache.put`, whichever tier served it), so every caller
    written against :class:`CacheInfo` — warm-sweep asserts, the service
    health snapshot, ``bench_report`` — reads a tiered cache unchanged.
    """

    tiers: tuple[TierInfo, ...] = ()

    def tier(self, name: str) -> TierInfo:
        """The named tier's counters (``"memory"``/``"disk"``/``"remote"``)."""
        for info in self.tiers:
            if info.name == name:
                return info
        raise KeyError(f"no cache tier named {name!r}")

    def __str__(self) -> str:
        parts = ", ".join(
            f"{t.name}={t.hits}h/{t.misses}m" for t in self.tiers
        )
        return (
            f"TieredCacheInfo(hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores}, corruptions={self.corruptions}, {parts})"
        )


class _TierCounters:
    """Mutable counter block behind one :class:`TierInfo` snapshot."""

    __slots__ = ("name", "hits", "misses", "stores", "promotions",
                 "evictions", "errors", "trips", "skips", "probes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = self.misses = self.stores = 0
        self.promotions = self.evictions = self.errors = 0
        self.trips = self.skips = self.probes = 0

    def info(self, pending: int = 0) -> TierInfo:
        return TierInfo(
            name=self.name, hits=self.hits, misses=self.misses,
            stores=self.stores, promotions=self.promotions,
            evictions=self.evictions, errors=self.errors,
            trips=self.trips, skips=self.skips, probes=self.probes,
            pending=pending,
        )


class FilesystemRemoteStore:
    """Shared-directory remote tier (NFS mount, bind mount, tmpfs).

    Stores the *outer payload bytes* of a cache entry verbatim under the
    same shard-by-hash-prefix layout the local disk tier uses, written
    atomically, so N workers on N nodes can share one directory with no
    coordination beyond the filesystem's own rename atomicity.
    """

    def __init__(self, directory: str | os.PathLike,
                 shard_width: int = 2) -> None:
        self.directory = Path(directory)
        self.shard_width = int(shard_width)

    def _path_for(self, key: str) -> Path:
        return self.directory / key[: self.shard_width] / f"{key}.pkl"

    def get(self, key: str) -> bytes | None:
        try:
            return self._path_for(key).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, raw: bytes) -> None:
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> None:
        try:
            self._path_for(key).unlink()
        except OSError:
            pass


class HTTPRemoteStore:
    """Remote tier speaking the ``repro serve`` blob API.

    ``GET /v1/cache/<key>`` returns the outer payload bytes (404 on
    miss); ``PUT /v1/cache/<key>`` uploads them.  The server validates
    the checksum before accepting a blob, so a worker can never poison
    the shared store with a damaged entry.

    Transient transport failures (connection refused/reset, 5xx) are
    retried under ``retry`` — a deterministic :class:`RetryPolicy` with
    seeded jitter.  With ``deadline`` set, every request carries an
    absolute ``X-Repro-Deadline`` header ``deadline`` seconds in the
    future; the server sheds (503) work it cannot start in time, and
    this store stops retrying once the deadline has passed.
    """

    #: Absolute-epoch deadline header (mirrors service.transport).
    DEADLINE_HEADER = "X-Repro-Deadline"

    def __init__(
        self, base_url: str, timeout: float = 10.0, *,
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry if retry is not None else RetryPolicy(
            retries=2, base_delay=0.05, max_delay=0.5)
        self.deadline = deadline

    def _url(self, key: str) -> str:
        return f"{self.base_url}/v1/cache/{key}"

    def _send(self, request: urllib.request.Request) -> bytes:
        """One logical request, retried on transient transport faults."""
        deadline_at = None
        if self.deadline is not None:
            deadline_at = time.time() + self.deadline
            request.add_header(self.DEADLINE_HEADER, f"{deadline_at:.6f}")
        last_err: Exception | None = None
        for attempt in range(self.retry.retries + 1):
            try:
                fault = poll_fault("http.request")
                if fault is not None:
                    if fault.kind == "hang":          # slow response
                        time.sleep(fault.payload or 0.05)
                    else:                             # refused / reset / 5xx
                        raise urllib.error.URLError(
                            ConnectionRefusedError("injected refusal"))
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as resp:
                    return resp.read()
            except urllib.error.HTTPError as err:
                if err.code < 500:
                    raise                              # 404 etc.: not transient
                last_err = err
            except urllib.error.URLError as err:
                last_err = err
            if attempt >= self.retry.retries:
                break
            if deadline_at is not None and time.time() >= deadline_at:
                break
            time.sleep(self.retry.delay(attempt, key=request.full_url))
        raise last_err  # type: ignore[misc]

    def get(self, key: str) -> bytes | None:
        request = urllib.request.Request(self._url(key), method="GET")
        try:
            return self._send(request)
        except urllib.error.HTTPError as err:
            if err.code == 404:
                return None
            raise

    def put(self, key: str, raw: bytes) -> None:
        request = urllib.request.Request(
            self._url(key), data=raw, method="PUT",
            headers={"Content-Type": "application/octet-stream"},
        )
        self._send(request)


class TieredCache(ResultCache):
    """Three-tier result cache: in-process LRU → sharded disk → remote.

    Lookups fall through memory → disk → remote and *promote* on hit, so
    a grid point computed on any node is one memory access on its next
    use anywhere the tiers are shared.  Keys, payload layout, checksums,
    and the ``cache.entry`` fault site are identical to
    :class:`ResultCache` — a ``TieredCache`` pointed at an existing flat
    cache directory still serves (and transparently re-shards) its
    entries, and every result it stores remains readable by the base
    class through :meth:`verify`.

    Parameters
    ----------
    directory / version:
        As :class:`ResultCache`.
    memory_entries:
        LRU capacity of the in-process tier (0 disables it).  The tier
        holds encoded blobs, not live objects, so a hit always returns a
        fresh deserialization — callers may mutate results freely.
    remote:
        Optional shared store (:class:`FilesystemRemoteStore`,
        :class:`HTTPRemoteStore`, or anything with ``get(key) ->
        bytes | None`` / ``put(key, raw)``).  Best-effort: a failing
        remote degrades to a two-tier cache, counted under
        ``tier("remote").errors``, and never raises into a sweep.
    shard_width:
        Hash-prefix length of the disk shard directories.
    remote_trip_threshold / remote_probe_interval:
        Brownout protection for the remote tier.  After
        ``remote_trip_threshold`` *consecutive* remote errors the tier
        trips to local-only mode: remote round-trips are skipped
        (counted under ``tier("remote").skips``) except every
        ``remote_probe_interval``-th one, which goes through as a
        recovery probe.  Writes made while tripped queue in a bounded
        write-behind buffer and drain on recovery or via
        :meth:`flush_remote`.
    pending_limit:
        Capacity of the write-behind queue (oldest entries drop first;
        a drop only costs a future remote miss, never correctness —
        the local disk tier already holds the entry).
    """

    def __init__(
        self, directory: str | os.PathLike | None = None,
        version: int = CACHE_VERSION, *,
        memory_entries: int = 256,
        remote=None,
        shard_width: int = 2,
        remote_trip_threshold: int = 3,
        remote_probe_interval: int = 4,
        pending_limit: int = 1024,
    ) -> None:
        super().__init__(directory, version)
        if memory_entries < 0:
            raise CacheError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        if not 1 <= int(shard_width) <= 8:
            raise CacheError(f"shard_width must be in 1..8, got {shard_width}")
        if remote_trip_threshold < 1:
            raise CacheError(
                f"remote_trip_threshold must be >= 1, got {remote_trip_threshold}"
            )
        if remote_probe_interval < 1:
            raise CacheError(
                f"remote_probe_interval must be >= 1, got {remote_probe_interval}"
            )
        self.memory_entries = int(memory_entries)
        self.shard_width = int(shard_width)
        self.remote = remote
        self.remote_trip_threshold = int(remote_trip_threshold)
        self.remote_probe_interval = int(remote_probe_interval)
        self.pending_limit = int(pending_limit)
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self._mem_lock = threading.Lock()
        self._remote_lock = threading.Lock()
        self._remote_open = False          # True while in local-only mode
        self._remote_consecutive = 0       # consecutive remote errors
        self._remote_skipped = 0           # gated calls since the trip
        self._pending_remote: OrderedDict[str, bytes] = OrderedDict()
        self._tiers = {
            "memory": _TierCounters("memory"),
            "disk": _TierCounters("disk"),
            "remote": _TierCounters("remote"),
        }

    # -- layout ---------------------------------------------------------------

    def _path_for(self, key: str) -> Path:
        return self.directory / key[: self.shard_width] / f"{key}.pkl"

    def _flat_path_for(self, key: str) -> Path:
        """Legacy flat-layout location (pre-tiering caches)."""
        return self.directory / f"{key}.pkl"

    # -- memory tier ----------------------------------------------------------

    def _mem_get(self, key: str):
        if self.memory_entries <= 0:
            return None
        with self._mem_lock:
            blob = self._mem.get(key)
            if blob is not None:
                self._mem.move_to_end(key)
            return blob

    def _mem_insert(self, key: str, blob: bytes, *, promotion: bool) -> None:
        if self.memory_entries <= 0:
            return
        mem = self._tiers["memory"]
        with self._mem_lock:
            self._mem[key] = blob
            self._mem.move_to_end(key)
            if promotion:
                mem.promotions += 1
            else:
                mem.stores += 1
            while len(self._mem) > self.memory_entries:
                self._mem.popitem(last=False)
                mem.evictions += 1

    # -- lookups --------------------------------------------------------------

    def get(self, key: str):
        """Tier-walking lookup; same contract as :meth:`ResultCache.get`."""
        mem, disk, remote = (
            self._tiers["memory"], self._tiers["disk"], self._tiers["remote"]
        )
        blob = self._mem_get(key)
        if blob is not None:
            mem.hits += 1
            self._hits += 1
            return pickle.loads(blob)
        if self.memory_entries > 0:
            mem.misses += 1

        path = self._path_for(key)
        if not path.is_file() and self._flat_path_for(key).is_file():
            path = self._flat_path_for(key)
        fault = poll_fault("cache.entry")
        if fault is not None and path.is_file():
            _damage_file(path, fault)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            value = self._decode_payload(payload, key, path)
        except FileNotFoundError:
            disk.misses += 1
        except Exception as err:
            disk.misses += 1
            self._corruptions += 1
            logger.warning("evicting corrupt cache entry %s: %s", path.name, err)
            try:
                path.unlink()
            except OSError:
                pass
        else:
            disk.hits += 1
            self._hits += 1
            self._mem_insert(key, payload["blob"], promotion=True)
            if path.name == f"{key}.pkl" and path.parent == self.directory:
                self._reshard(key, path)
            return value

        raw = self._remote_get(key)
        if raw is not None:
            try:
                payload = pickle.loads(raw)
                value = self._decode_payload(payload, key, Path(f"{key}.pkl"))
            except Exception as err:
                self._corruptions += 1
                self._remote_failed(key, err)
                logger.warning("damaged remote cache entry %s: %s", key, err)
            else:
                remote.hits += 1
                self._hits += 1
                self._write_raw(key, raw)
                disk.promotions += 1
                self._mem_insert(key, payload["blob"], promotion=True)
                return value
        elif self.remote is not None:
            remote.misses += 1

        self._misses += 1
        return self.MISS

    def put(self, key: str, value) -> None:
        """Write-through store: disk (atomic) + memory + remote."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "version": self.version,
            "key": key,
            "blob": blob,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._write_raw(key, raw)
        self._tiers["disk"].stores += 1
        self._stores += 1
        self._mem_insert(key, blob, promotion=False)
        if self.remote is not None:
            self._remote_put(key, raw)

    def _write_raw(self, key: str, raw: bytes) -> None:
        """Atomically place outer payload bytes at the sharded path."""
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- remote tier: brownout gate + write-behind queue ----------------------

    def remote_degraded(self) -> bool:
        """True while the remote tier is tripped to local-only mode."""
        with self._remote_lock:
            return self._remote_open

    def _remote_gate(self) -> bool:
        """May this operation attempt a remote round-trip right now?

        Untripped: always.  Tripped (brownout): every
        ``remote_probe_interval``-th gated call goes through as a
        recovery probe; the rest are skipped and counted.
        """
        remote = self._tiers["remote"]
        with self._remote_lock:
            if not self._remote_open:
                return True
            self._remote_skipped += 1
            if self._remote_skipped % self.remote_probe_interval == 0:
                remote.probes += 1
                return True
            remote.skips += 1
            return False

    def _remote_failed(self, key: str, err: Exception) -> None:
        """Count one remote error; trips to local-only at the threshold."""
        remote = self._tiers["remote"]
        remote.errors += 1
        with self._remote_lock:
            self._remote_consecutive += 1
            if (not self._remote_open
                    and self._remote_consecutive >= self.remote_trip_threshold):
                self._remote_open = True
                self._remote_skipped = 0
                remote.trips += 1
                logger.warning(
                    "remote cache tier tripped to local-only after %d "
                    "consecutive errors (last: %s: %s)",
                    self._remote_consecutive, key, err,
                )

    def _remote_recovered(self) -> None:
        """A remote round-trip succeeded: close the brownout, if open."""
        with self._remote_lock:
            self._remote_consecutive = 0
            if self._remote_open:
                self._remote_open = False
                self._remote_skipped = 0
                logger.info(
                    "remote cache tier recovered; resuming write-through")

    def _stash_pending(self, key: str, raw: bytes) -> None:
        with self._remote_lock:
            self._pending_remote[key] = raw
            self._pending_remote.move_to_end(key)
            while len(self._pending_remote) > self.pending_limit:
                dropped, _ = self._pending_remote.popitem(last=False)
                logger.warning(
                    "pending-remote queue full; dropping %s "
                    "(local tiers still hold it)", dropped,
                )

    def _remote_get(self, key: str) -> bytes | None:
        if self.remote is None or not self._remote_gate():
            return None
        fault = poll_fault("cache.remote")
        if fault is not None and fault.kind != "corrupt":
            self._remote_failed(
                key, FaultInjectionError("injected remote-tier fault"))
            return None
        try:
            raw = self.remote.get(key)
        except Exception as err:
            self._remote_failed(key, err)
            logger.warning("remote cache lookup failed for %s: %s", key, err)
            return None
        if fault is not None and raw:
            # "corrupt": the blob was truncated in flight; the caller's
            # checksum check catches it and counts the failure.
            return raw[: max(1, len(raw) // 2)]
        self._remote_recovered()
        return raw

    def _remote_put(self, key: str, raw: bytes) -> None:
        """Best-effort write-through; failures queue for later flush."""
        if not self._remote_gate():
            self._stash_pending(key, raw)
            return
        fault = poll_fault("cache.remote")
        if fault is not None:
            self._remote_failed(
                key, FaultInjectionError("injected remote-tier fault"))
            self._stash_pending(key, raw)
            return
        try:
            self.remote.put(key, raw)
        except Exception as err:
            self._remote_failed(key, err)
            self._stash_pending(key, raw)
            logger.warning("remote cache store failed for %s: %s", key, err)
            return
        self._tiers["remote"].stores += 1
        self._remote_recovered()
        self.flush_remote()

    def flush_remote(self, force: bool = False) -> int:
        """Drain the write-behind queue; returns the depth still pending.

        Called automatically when a remote round-trip succeeds after a
        brownout, and explicitly by the fabric worker before completing
        a chunk (a chunk is only *done* once its points are visible to
        every other worker).  ``force=True`` bypasses the probe gate so
        recovery is attempted immediately rather than on the next
        scheduled probe.
        """
        if self.remote is None:
            return 0
        while True:
            with self._remote_lock:
                if not self._pending_remote:
                    return 0
                key, raw = next(iter(self._pending_remote.items()))
            if not force and not self._remote_gate():
                break
            fault = poll_fault("cache.remote")
            if fault is not None:
                self._remote_failed(
                    key, FaultInjectionError("injected remote-tier fault"))
                break
            try:
                self.remote.put(key, raw)
            except Exception as err:
                self._remote_failed(key, err)
                logger.warning(
                    "remote cache flush failed for %s: %s", key, err)
                break
            self._tiers["remote"].stores += 1
            self._remote_recovered()
            with self._remote_lock:
                self._pending_remote.pop(key, None)
        with self._remote_lock:
            return len(self._pending_remote)

    def _reshard(self, key: str, flat_path: Path) -> None:
        """Migrate a legacy flat entry into its shard directory."""
        try:
            target = self.directory / key[: self.shard_width] / flat_path.name
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(flat_path, target)
        except OSError:
            pass

    # -- raw entry transport (server blob API) --------------------------------

    def export_entry(self, key: str) -> bytes | None:
        """Outer payload bytes for ``key``, or None (no counters touched)."""
        for path in (self._path_for(key), self._flat_path_for(key)):
            try:
                return path.read_bytes()
            except FileNotFoundError:
                continue
        return None

    def import_entry(self, key: str, raw: bytes) -> bool:
        """Accept uploaded payload bytes after validating the checksum.

        Returns False (and stores nothing) when the bytes do not decode
        to an intact entry for exactly ``key`` — the gate that keeps a
        misbehaving worker from poisoning a shared store.
        """
        try:
            payload = pickle.loads(raw)
            blob = self._decode_payload(payload, key, Path(f"{key}.pkl"))
        except Exception as err:
            logger.warning("rejecting uploaded cache entry %s: %s", key, err)
            return False
        del blob
        self._write_raw(key, raw)
        self._tiers["disk"].stores += 1
        self._stores += 1
        return True

    # -- introspection --------------------------------------------------------

    def cache_info(self) -> TieredCacheInfo:
        """Aggregate + per-tier counters since this instance was created."""
        with self._remote_lock:
            pending = len(self._pending_remote)
        return TieredCacheInfo(
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            corruptions=self._corruptions,
            tiers=tuple(
                self._tiers[name].info(
                    pending=pending if name == "remote" else 0)
                for name in ("memory", "disk", "remote")
            ),
        )

    def clear(self) -> int:
        with self._mem_lock:
            self._mem.clear()
        return super().clear()
