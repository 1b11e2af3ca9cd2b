"""TieredCache semantics: memory LRU, sharded disk, remote store.

The distributed fabric hangs its zero-recompute guarantee on this
cache, so the tier mechanics are pinned here:

* shard-by-hash-prefix disk layout; a ``{key}.pkl`` left at the cache
  root by the removed flat layout is a miss that recomputes;
* promotion on hit — a disk hit lands in memory, a remote hit lands on
  disk *and* in memory — observable through per-tier counters;
* bounded memory with LRU eviction (evictions counted, never lost
  data: the disk copy remains);
* checksummed raw import/export (the HTTP tier transport) rejecting
  tampered or mislabeled payloads;
* aggregate ``CacheInfo`` counters (``hits + misses == requests``
  regardless of which tier answered).

The tier sizes and brownout thresholds are module constants; tests
that need other values patch them.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.engine import (
    CACHE_VERSION,
    FilesystemRemoteStore,
    TieredCache,
)
from repro.engine import cache as cache_module


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 4)
    return TieredCache(tmp_path / "cache")


def tier(cache, name):
    return cache.cache_info().tier(name)


class TestShardLayout:
    def test_entries_land_in_prefix_shards(self, cache):
        cache.put("abcdef", {"v": 1})
        path = cache.directory / "ab" / "abcdef.pkl"
        assert path.is_file()

    def test_verify_walks_sharded_layout(self, cache):
        for i in range(6):
            cache.put(f"key-{i}", {"i": i})
        intact, damaged = cache.verify(evict=False)
        assert (intact, damaged) == (6, 0)

    def test_clear_empties_shards_and_memory(self, cache):
        cache.put("abcdef", {"v": 1})
        assert cache.clear() == 1
        assert cache.get("abcdef") is cache.MISS
        assert tier(cache, "memory").hits == 0


def write_flat_entry(root, key, value) -> None:
    """Write ``{root}/{key}.pkl`` as the removed flat layout wrote it."""
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    payload = {
        "version": CACHE_VERSION,
        "key": key,
        "blob": blob,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    root.mkdir(parents=True, exist_ok=True)
    with open(root / f"{key}.pkl", "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


class TestLeftoverFlatEntry:
    """An intact entry at the cache root, outside its shard."""

    @staticmethod
    def sweep(cache):
        from repro.analysis import LoopSweepTask, run_spec_sweep
        from repro.config import REFERENCE_RESONANT_SENSOR

        return run_spec_sweep(
            REFERENCE_RESONANT_SENSOR, "cantilever.length_um", [200.0],
            LoopSweepTask(duration=0.002), backend="serial", cache=cache,
        )

    def test_flat_entry_is_a_miss_that_recomputes(self, tmp_path):
        seed = TieredCache(tmp_path / "seed")
        expected = self.sweep(seed)
        (entry,) = seed.directory.rglob("*.pkl")
        key = entry.stem
        root = tmp_path / "cache"
        write_flat_entry(root, key, seed.get(key))

        probe = TieredCache(root)
        assert probe.get(key) is probe.MISS
        assert probe.export_entry(key) is None

        cache = TieredCache(root)
        result = self.sweep(cache)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.stores) == (0, 1, 1)
        for name in expected.columns:
            assert np.array_equal(result.columns[name],
                                  expected.columns[name]), name
        assert (root / key[:2] / f"{key}.pkl").is_file()
        assert (root / f"{key}.pkl").is_file()  # not read, not moved

        # verify and clear walk the whole tree, the stray file too
        assert cache.verify(evict=False) == (2, 0)
        assert cache.clear() == 2
        assert list(root.rglob("*.pkl")) == []


class TestPromotion:
    def test_disk_hit_promotes_to_memory(self, cache):
        TieredCache(cache.directory).put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}          # disk hit, promoted
        assert cache.get("k") == {"v": 1}          # memory hit
        info = cache.cache_info()
        assert info.tier("disk").hits == 1
        assert info.tier("memory").hits == 1
        assert info.tier("memory").promotions == 1

    def test_put_populates_memory(self, cache):
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert tier(cache, "memory").hits == 1
        assert tier(cache, "disk").hits == 0

    def test_memory_hit_returns_fresh_object(self, cache):
        cache.put("k", {"v": [1, 2]})
        first = cache.get("k")
        first["v"].append(3)  # caller mutates its copy
        assert cache.get("k") == {"v": [1, 2]}


class TestLruEviction:
    def test_overflow_evicts_oldest_and_counts(self, cache):
        for i in range(6):                       # MEMORY_ENTRIES=4
            cache.put(f"key-{i}", {"i": i})
        info = cache.cache_info()
        assert info.tier("memory").evictions == 2
        # evicted keys still served (from disk) and re-promoted
        assert cache.get("key-0") == {"i": 0}
        assert cache.cache_info().tier("disk").hits == 1

    def test_lru_order_is_recency_not_insertion(self, cache):
        for i in range(4):
            cache.put(f"key-{i}", {"i": i})
        assert cache.get("key-0") == {"i": 0}    # refresh key-0
        cache.put("key-4", {"i": 4})             # evicts key-1, not key-0
        info_before = cache.cache_info().tier("disk").hits
        assert cache.get("key-0") == {"i": 0}    # still in memory
        assert cache.cache_info().tier("disk").hits == info_before


class TestRemoteTier:
    def make_pair(self, tmp_path):
        shared = FilesystemRemoteStore(tmp_path / "shared")
        a = TieredCache(tmp_path / "node-a", remote=shared)
        b = TieredCache(tmp_path / "node-b", remote=shared)
        return a, b

    def test_put_replicates_to_remote(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        a.put("k", {"v": 7})
        assert a.cache_info().tier("remote").stores == 1
        assert b.get("k") == {"v": 7}
        info = b.cache_info()
        assert info.tier("remote").hits == 1
        assert info.hits == 1 and info.misses == 0

    def test_remote_hit_promotes_to_local_disk(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        a.put("abcdef", {"v": 7})
        assert b.get("abcdef") == {"v": 7}
        assert (b.directory / "ab" / "abcdef.pkl").is_file()
        assert b.cache_info().tier("disk").promotions == 1
        # and the next read never touches the remote again
        assert b.get("abcdef") == {"v": 7}
        assert b.cache_info().tier("remote").hits == 1

    def test_corrupt_remote_payload_is_a_miss_not_a_crash(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        a.put("k", {"v": 7})
        # tamper with the shared copy
        store = FilesystemRemoteStore(tmp_path / "shared")
        path = store._path_for("k")
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")
        assert b.get("k") is b.MISS
        info = b.cache_info()
        assert info.tier("remote").errors == 1
        assert info.misses == 1

    def test_remote_write_failure_is_best_effort(self, tmp_path):
        class Broken:
            def get(self, key):
                raise OSError("down")

            def put(self, key, raw):
                raise OSError("down")

        cache = TieredCache(tmp_path / "cache", remote=Broken())
        cache.put("k", {"v": 1})                  # must not raise
        assert cache.get("k") == {"v": 1}
        cache2 = TieredCache(tmp_path / "cache2", remote=Broken())
        assert cache2.get("k") is cache2.MISS     # must not raise either
        assert cache2.cache_info().tier("remote").errors >= 1


class TestRawTransport:
    def test_export_import_round_trip(self, tmp_path):
        a = TieredCache(tmp_path / "a")
        b = TieredCache(tmp_path / "b")
        a.put("k", {"v": [1, 2, 3]})
        raw = a.export_entry("k")
        assert raw is not None
        assert b.import_entry("k", raw)
        assert b.get("k") == {"v": [1, 2, 3]}

    def test_export_unknown_key_is_none(self, cache):
        assert cache.export_entry("nope") is None

    def test_tampered_payload_rejected(self, tmp_path):
        a = TieredCache(tmp_path / "a")
        b = TieredCache(tmp_path / "b")
        a.put("k", {"v": 1})
        raw = bytearray(a.export_entry("k"))
        raw[-3] ^= 0xFF
        assert not b.import_entry("k", bytes(raw))
        assert b.get("k") is b.MISS

    def test_mislabeled_key_rejected(self, tmp_path):
        a = TieredCache(tmp_path / "a")
        b = TieredCache(tmp_path / "b")
        a.put("k", {"v": 1})
        raw = a.export_entry("k")
        # replaying a valid payload under a different key must fail
        assert not b.import_entry("other", raw)

    def test_garbage_bytes_rejected(self, cache):
        assert not cache.import_entry("k", b"not a pickle")
        assert not cache.import_entry("k", pickle.dumps(["wrong", "shape"]))


class TestCounterCompat:
    def test_hits_plus_misses_equals_requests(self, tmp_path, monkeypatch):
        shared = FilesystemRemoteStore(tmp_path / "shared")
        seed = TieredCache(tmp_path / "seed", remote=shared)
        seed.put("remote-only", {"v": 3})

        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        cache = TieredCache(tmp_path / "cache", remote=shared)
        cache.put("local", {"v": 1})
        assert cache.get("local") == {"v": 1}          # memory hit
        assert cache.get("missing") is cache.MISS      # full miss
        assert cache.get("remote-only") == {"v": 3}    # remote hit
        info = cache.cache_info()
        assert info.hits == 2 and info.misses == 1
        assert info.hits + info.misses == info.requests
        assert info.stores >= 1

    def test_version_bump_still_invalidates(self, tmp_path, monkeypatch):
        old = TieredCache(tmp_path / "cache")
        old.put("k", {"v": 1})
        monkeypatch.setattr(cache_module, "CACHE_VERSION", CACHE_VERSION + 1)
        newer = TieredCache(tmp_path / "cache")
        assert newer.get("k") is newer.MISS

    def test_as_dict_is_the_health_payload(self, cache):
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        payload = cache.cache_info().as_dict()
        assert {k: payload[k] for k in
                ("hits", "misses", "stores", "corruptions")} == {
            "hits": 1, "misses": 0, "stores": 1, "corruptions": 0}
        assert [t["name"] for t in payload["tiers"]] == [
            "memory", "disk", "remote"]
        assert payload["tiers"][0]["hits"] == 1


class TestRemoteBrownout:
    """Injected remote-tier faults: trip to local-only, probe, drain."""

    def make_cache(self, tmp_path, monkeypatch, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(cache_module, name, value)
        shared = FilesystemRemoteStore(tmp_path / "shared")
        return TieredCache(tmp_path / "node", remote=shared), shared

    def test_consecutive_errors_trip_to_local_only(self, tmp_path,
                                                   monkeypatch):
        from repro.engine.resilience import FaultPlan, inject_faults

        cache, _ = self.make_cache(tmp_path, monkeypatch,
                                   REMOTE_TRIP_THRESHOLD=3)
        with inject_faults(
            FaultPlan.single("cache.remote", count=3)
        ) as inj:
            for i in range(5):
                cache.put(f"key-{i}", {"i": i})
        assert inj.fired["cache.remote"] == 3
        assert cache.remote_degraded()
        remote = tier(cache, "remote")
        assert remote.trips == 1
        assert remote.errors == 3
        assert remote.skips >= 1          # post-trip puts never hit the wire
        assert remote.pending == 5        # everything parked write-behind
        # local service is unimpaired throughout
        assert all(cache.get(f"key-{i}") == {"i": i} for i in range(5))

    def test_recovery_probe_reopens_and_drains(self, tmp_path, monkeypatch):
        from repro.engine.resilience import FaultPlan, inject_faults

        cache, shared = self.make_cache(
            tmp_path, monkeypatch,
            REMOTE_TRIP_THRESHOLD=2, REMOTE_PROBE_INTERVAL=2,
        )
        with inject_faults(FaultPlan.single("cache.remote", count=2)):
            cache.put("k0", {"v": 0})
            cache.put("k1", {"v": 1})     # second error trips the tier
            assert cache.remote_degraded()
            # faults exhausted: the second gated call is a probe, it
            # succeeds, the tier reopens and the pending queue drains
            cache.put("k2", {"v": 2})     # gated call 1: skip
            cache.put("k3", {"v": 3})     # gated call 2: probe -> recover
        assert not cache.remote_degraded()
        remote = tier(cache, "remote")
        assert remote.probes >= 1
        assert remote.pending == 0
        # every blob is on the shared store, visible to a fresh node
        other = TieredCache(tmp_path / "other", remote=shared)
        assert all(other.get(f"k{i}") == {"v": i} for i in range(4))

    def test_flush_remote_force_drains_while_tripped(self, tmp_path,
                                                      monkeypatch):
        from repro.engine.resilience import FaultPlan, inject_faults

        cache, shared = self.make_cache(tmp_path, monkeypatch,
                                        REMOTE_TRIP_THRESHOLD=1)
        with inject_faults(FaultPlan.single("cache.remote", count=1)):
            cache.put("k", {"v": 7})
            assert cache.remote_degraded()
            assert tier(cache, "remote").pending == 1
            assert cache.flush_remote(force=True) == 0
        other = TieredCache(tmp_path / "other", remote=shared)
        assert other.get("k") == {"v": 7}

    def test_pending_queue_is_bounded(self, tmp_path, monkeypatch):
        from repro.engine.resilience import FaultPlan, inject_faults

        cache, _ = self.make_cache(
            tmp_path, monkeypatch, REMOTE_TRIP_THRESHOLD=1, PENDING_LIMIT=2,
        )
        with inject_faults(FaultPlan.single("cache.remote", count=1)):
            for i in range(4):
                cache.put(f"key-{i}", {"i": i})
        assert tier(cache, "remote").pending == 2   # oldest were dropped

    def test_truncated_remote_blob_is_caught_by_checksum(self, tmp_path,
                                                          monkeypatch):
        from repro.engine.resilience import FaultPlan, inject_faults

        cache, shared = self.make_cache(tmp_path, monkeypatch)
        cache.put("k", {"v": 7})
        reader = TieredCache(tmp_path / "reader", remote=shared)
        with inject_faults(
            FaultPlan.single("cache.remote", kind="corrupt")
        ) as inj:
            assert reader.get("k") is reader.MISS
        assert inj.fired["cache.remote"] == 1
        assert tier(reader, "remote").errors == 1
        # the clean retry still serves the blob
        assert reader.get("k") == {"v": 7}
