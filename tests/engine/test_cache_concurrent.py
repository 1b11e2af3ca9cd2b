"""TieredCache under concurrent writers: two processes, one directory.

The service layer hangs its dedup guarantee on the cache surviving
concurrent access — pump workers, a sibling CLI, and a second server
process may all read/write one cache directory.  These tests drive real
``multiprocessing`` workers (not threads: thread tests cannot catch
torn cross-process writes) against a shared directory and assert:

* every write lands intact (``verify()`` finds zero damaged entries);
* readers see either a miss or the complete value — never a torn blob;
* racing writers of the *same* key converge on one intact value;
* the cache actually deduplicates work across processes (a warmed key
  is a hit, not a recompute, from a fresh process).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle

from repro.engine import FilesystemRemoteStore, TieredCache
from repro.engine import cache as cache_module


def _writer(cache_dir, worker, keys_per_worker, barrier, results):
    """Write ``keys_per_worker`` distinct payloads, then re-read them all."""
    cache = TieredCache(cache_dir)
    barrier.wait()  # maximize overlap between the two processes
    wrote, read_back = 0, 0
    for i in range(keys_per_worker):
        key = f"worker{worker}-key{i}"
        cache.put(key, {"worker": worker, "i": i, "blob": list(range(50))})
        wrote += 1
    reader = TieredCache(cache_dir)  # a cold memory tier: reads hit disk
    for i in range(keys_per_worker):
        value = reader.get(f"worker{worker}-key{i}")
        if value is not reader.MISS and value["i"] == i:
            read_back += 1
    results.put((worker, wrote, read_back))


def _same_key_writer(cache_dir, worker, rounds, barrier, results):
    """Hammer one shared key; any surviving value must be intact."""
    cache = TieredCache(cache_dir)
    barrier.wait()
    for i in range(rounds):
        cache.put("shared-key", {"worker": worker, "round": i})
        # a fresh reader's get reaches the disk the sibling writes to:
        # it may race a writer to a miss/evict, but never to garbage
        reader = TieredCache(cache_dir)
        value = reader.get("shared-key")
        if value is not reader.MISS:
            assert set(value) == {"worker", "round"}
    results.put(worker)


def _spawn(target, args):
    ctx = mp.get_context("spawn")  # fresh interpreters: no shared fds/state
    results = ctx.Queue()
    barrier = ctx.Barrier(2)
    workers = [
        ctx.Process(target=target, args=(args[0], w, args[1], barrier, results))
        for w in range(2)
    ]
    for p in workers:
        p.start()
    for p in workers:
        p.join(timeout=120)
        assert p.exitcode == 0, f"worker crashed with exit code {p.exitcode}"
    out = [results.get(timeout=10) for _ in workers]
    return out


def test_two_processes_disjoint_keys_no_corruption(tmp_path):
    cache_dir = str(tmp_path / "cache")
    keys = 25
    reports = _spawn(_writer, (cache_dir, keys))
    for _worker, wrote, read_back in reports:
        assert wrote == keys
        assert read_back == keys

    cache = TieredCache(cache_dir)
    intact, damaged = cache.verify(evict=False)
    assert damaged == 0
    assert intact == 2 * keys
    # spot-check a value from each worker from this third process
    for worker in (0, 1):
        value = cache.get(f"worker{worker}-key0")
        assert value is not cache.MISS
        assert value["worker"] == worker


def test_two_processes_same_key_last_writer_wins_intact(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _spawn(_same_key_writer, (cache_dir, 30))

    cache = TieredCache(cache_dir)
    intact, damaged = cache.verify(evict=False)
    assert damaged == 0
    value = cache.get("shared-key")
    assert value is not cache.MISS
    assert value["worker"] in (0, 1)
    assert value["round"] == 29  # both wrote `rounds` times; last round wins


def test_warm_key_is_cross_process_hit_not_recompute(tmp_path):
    """The dedup substrate: process B finds process A's work already done."""
    cache_dir = str(tmp_path / "cache")

    first = TieredCache(cache_dir)
    first.put("expensive", {"answer": 42})

    ctx = mp.get_context("spawn")
    results = ctx.Queue()
    p = ctx.Process(target=_probe_entry, args=(cache_dir, results))
    p.start()
    p.join(timeout=60)
    assert p.exitcode == 0
    value, hits, misses, stores = results.get(timeout=10)
    assert value == {"answer": 42}
    assert (hits, misses, stores) == (1, 0, 0)


def _probe_entry(cache_dir, queue):
    """Spawn target (must be module-level to be importable by the child)."""
    cache = TieredCache(cache_dir)
    value = cache.get("expensive")
    info = cache.cache_info()
    queue.put((value, info.hits, info.misses, info.stores))


def test_payloads_survive_pickling_boundary(tmp_path):
    """Values round-trip the same whether read in-process or across one."""
    cache = TieredCache(str(tmp_path / "cache"))
    payload = {"cols": {"a": [1.5, None, 3.25]}, "n": 3}
    cache.put("k", payload)
    assert cache.get("k") == pickle.loads(pickle.dumps(payload))


# -- tiered path --------------------------------------------------------------


def _tiered_writer(cache_dir, worker, keys_per_worker, barrier, results):
    """Hammer one shared *tiered* directory + one shared remote store.

    Both processes write disjoint keys through all three tiers, then
    read back their own keys and a sample of the sibling's (which must
    arrive via disk or the shared remote, never torn).
    """
    # a fresh interpreter: a small memory tier sends most reads to disk
    cache_module.MEMORY_ENTRIES = 8
    shared = FilesystemRemoteStore(cache_dir + "-remote")
    cache = TieredCache(cache_dir, remote=shared)
    barrier.wait()
    wrote, read_back = 0, 0
    for i in range(keys_per_worker):
        cache.put(f"worker{worker}-key{i}", {"worker": worker, "i": i})
        wrote += 1
    for i in range(keys_per_worker):
        value = cache.get(f"worker{worker}-key{i}")
        if value is not cache.MISS and value["i"] == i:
            read_back += 1
    sibling_seen = 0
    for i in range(keys_per_worker):
        value = cache.get(f"worker{1 - worker}-key{i}")
        if value is not cache.MISS:
            assert value == {"worker": 1 - worker, "i": i}
            sibling_seen += 1
    results.put((worker, wrote, read_back, sibling_seen))


def test_two_processes_tiered_shared_directory_no_corruption(tmp_path):
    """The fabric path: two nodes, one sharded dir, one remote store."""
    cache_dir = str(tmp_path / "cache")
    keys = 25
    ctx = mp.get_context("spawn")
    results = ctx.Queue()
    barrier = ctx.Barrier(2)
    workers = [
        ctx.Process(target=_tiered_writer,
                    args=(cache_dir, w, keys, barrier, results))
        for w in range(2)
    ]
    for p in workers:
        p.start()
    for p in workers:
        p.join(timeout=120)
        assert p.exitcode == 0, f"worker crashed with exit code {p.exitcode}"
    reports = [results.get(timeout=10) for _ in workers]
    for _worker, wrote, read_back, _sibling in reports:
        assert wrote == keys
        assert read_back == keys

    # a third process sees every entry intact through every tier
    cache = TieredCache(cache_dir, remote=FilesystemRemoteStore(
        cache_dir + "-remote"))
    intact, damaged = cache.verify(evict=False)
    assert damaged == 0
    assert intact == 2 * keys
    for worker in (0, 1):
        for i in range(keys):
            assert cache.get(f"worker{worker}-key{i}") == {
                "worker": worker, "i": i,
            }
    info = cache.cache_info()
    assert info.misses == 0

    # a node with a cold local disk still sees everything via the remote
    cold = TieredCache(str(tmp_path / "cold"),
                       remote=FilesystemRemoteStore(cache_dir + "-remote"))
    assert cold.get("worker0-key0") == {"worker": 0, "i": 0}
    assert cold.cache_info().tier("remote").hits == 1
