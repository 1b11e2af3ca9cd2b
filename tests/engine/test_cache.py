"""TieredCache contract: hits, invalidation, corruption recovery, hashing."""

import functools
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import CACHE_VERSION, TieredCache, stable_hash
from repro.engine import cache as cache_module
from repro.errors import CacheError

CALLS = []


def expensive(x):
    CALLS.append(x)
    return x * 10


def other_function(x):
    return -x


@dataclass(frozen=True)
class Config:
    gain: float = 3.0
    points: int = 7


@pytest.fixture()
def cache(tmp_path):
    CALLS.clear()
    return TieredCache(tmp_path / "cache")


class TestHitMiss:
    def test_hit_after_identical_call(self, cache):
        first = cache.get_or_compute(expensive, 4)
        second = cache.get_or_compute(expensive, 4)
        assert first == second == 40
        assert CALLS == [4]  # computed exactly once
        info = cache.cache_info()
        assert (info.hits, info.misses, info.stores) == (1, 1, 1)

    def test_miss_after_parameter_change(self, cache):
        cache.get_or_compute(expensive, 4)
        cache.get_or_compute(expensive, 5)
        assert CALLS == [4, 5]
        assert cache.cache_info().misses == 2

    def test_miss_after_extra_context_change(self, cache):
        cache.get_or_compute(expensive, 4, extra=Config(gain=3.0))
        cache.get_or_compute(expensive, 4, extra=Config(gain=4.0))
        assert CALLS == [4, 4]

    def test_builtin_function_is_memoized(self, cache):
        assert cache.get_or_compute(len, "abc") == 3
        assert cache.get_or_compute(len, "abc") == 3
        assert cache.cache_info().hits == 1

    def test_hit_survives_new_cache_instance(self, cache):
        cache.get_or_compute(expensive, 4)
        reopened = TieredCache(cache.directory)
        assert reopened.get_or_compute(expensive, 4) == 40
        assert CALLS == [4]
        assert reopened.cache_info().hits == 1


class TestInvalidation:
    def test_miss_after_version_bump(self, cache, monkeypatch):
        cache.get_or_compute(expensive, 4)
        monkeypatch.setattr(cache_module, "CACHE_VERSION", CACHE_VERSION + 1)
        bumped = TieredCache(cache.directory)
        assert bumped.get_or_compute(expensive, 4) == 40
        assert CALLS == [4, 4]  # old entry not visible to the new version

    def test_loop_point_cached_before_smooth_length_noise_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        """Version 2 entries hold the 1/f noise synthesized at the record
        length; a default cache must recompute them, not mix them in."""
        from repro.analysis import LoopSweepTask, run_spec_sweep
        from repro.config import REFERENCE_RESONANT_SENSOR

        def sweep(cache):
            return run_spec_sweep(
                REFERENCE_RESONANT_SENSOR, "cantilever.length_um", [200.0],
                LoopSweepTask(duration=0.002), backend="serial", cache=cache,
            )

        monkeypatch.setattr(cache_module, "CACHE_VERSION", 2)
        old = TieredCache(tmp_path / "cache")
        sweep(old)
        assert old.cache_info().stores == 1
        monkeypatch.undo()
        current = TieredCache(tmp_path / "cache")
        sweep(current)
        info = current.cache_info()
        assert (info.hits, info.misses, info.stores) == (0, 1, 1)

    def test_different_functions_do_not_collide(self, cache):
        assert cache.key_for(expensive, 4) != cache.key_for(other_function, 4)

    def test_clear_removes_entries(self, cache):
        cache.get_or_compute(expensive, 4)
        assert cache.clear() == 1
        cache.get_or_compute(expensive, 4)
        assert CALLS == [4, 4]


class TestCorruption:
    """Damage the disk file, then read it through a fresh instance.

    The writer's memory tier still holds the intact blob, so only a new
    instance on the same directory reaches the damaged file.
    """

    def test_corrupted_file_falls_back_to_recompute(self, cache):
        key = cache.key_for(expensive, 4)
        cache.get_or_compute(expensive, 4)
        path = cache._path_for(key)
        path.write_bytes(b"not a pickle at all")
        reader = TieredCache(cache.directory)
        assert reader.get_or_compute(expensive, 4) == 40
        assert CALLS == [4, 4]
        # the corrupted entry was replaced with a good one
        assert TieredCache(cache.directory).get(key) == 40

    def test_truncated_pickle_falls_back(self, cache):
        key = cache.key_for(expensive, 4)
        cache.get_or_compute(expensive, 4)
        path = cache._path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        reader = TieredCache(cache.directory)
        assert reader.get_or_compute(expensive, 4) == 40
        assert CALLS == [4, 4]

    def test_foreign_payload_rejected(self, cache):
        key = cache.key_for(expensive, 4)
        path = cache._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({"version": CACHE_VERSION, "key": "someone-else"}, fh)
        assert cache.get(key) is cache.MISS

    def test_hand_corrupted_blob_counted_evicted_recomputed(self, cache):
        # flip one byte mid-file: the outer pickle still loads, but the
        # blob's sha256 no longer matches — the checksum is the only
        # thing standing between this and silently wrong numbers
        key = cache.key_for(expensive, 4)
        cache.get_or_compute(expensive, 4)
        path = cache._path_for(key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        reader = TieredCache(cache.directory)
        assert reader.get(key) is reader.MISS
        info = reader.cache_info()
        assert info.corruptions == 1
        assert not path.exists()  # evicted, not left to fail again
        assert reader.get_or_compute(expensive, 4) == 40
        assert CALLS == [4, 4]
        # clean entry back on disk
        assert TieredCache(cache.directory).get(key) == 40


class TestStableHash:
    def test_stable_across_instances(self):
        assert stable_hash(Config(), [1, 2.0, "x"]) == stable_hash(
            Config(), [1, 2.0, "x"]
        )

    def test_type_tagged(self):
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)

    def test_ndarray_content_hashed(self):
        a = np.arange(6, dtype=float)
        b = np.arange(6, dtype=float)
        assert stable_hash(a) == stable_hash(b)
        b[3] = 99.0
        assert stable_hash(a) != stable_hash(b)
        assert stable_hash(a) != stable_hash(a.astype(np.float32))

    def test_dict_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_partial_identity(self):
        p1 = functools.partial(expensive, scale=2)
        p2 = functools.partial(expensive, scale=2)
        p3 = functools.partial(expensive, scale=3)
        assert stable_hash(p1) == stable_hash(p2)
        assert stable_hash(p1) != stable_hash(p3)

    def test_lambda_rejected(self):
        with pytest.raises(CacheError):
            stable_hash(lambda x: x)

    def test_plain_value_object_hashed_by_state(self):
        from repro.core.presets import reference_geometry

        g1, g2 = reference_geometry(), reference_geometry()
        assert stable_hash(g1) == stable_hash(g2)

    def test_stateless_opaque_object_rejected(self):
        with pytest.raises(CacheError):
            stable_hash(object())
