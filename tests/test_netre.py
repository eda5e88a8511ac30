"""Tests for the redundancy-elimination middlebox subsystem."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import chunk_hash
from repro.netre import (
    ChunkCache,
    Decoder,
    Encoder,
    REConfig,
    RETunnel,
    Shim,
    TrafficConfig,
    TrafficGenerator,
)
from repro.workloads import seeded_bytes
from tests.conftest import reference_chunks


class TestChunkCache:
    def test_insert_get(self):
        cache = ChunkCache(1024)
        d = chunk_hash(b"abc")
        cache.insert(d, b"abc")
        assert cache.get(d) == b"abc"
        assert d in cache

    def test_lru_eviction(self):
        cache = ChunkCache(100)
        items = [(chunk_hash(bytes([i]) * 40), bytes([i]) * 40) for i in range(3)]
        for d, data in items:
            cache.insert(d, data)
        assert items[0][0] not in cache  # evicted
        assert items[1][0] in cache and items[2][0] in cache
        assert cache.evictions == 1

    def test_touch_protects_from_eviction(self):
        cache = ChunkCache(100)
        items = [(chunk_hash(bytes([i]) * 40), bytes([i]) * 40) for i in range(3)]
        cache.insert(*items[0])
        cache.insert(*items[1])
        cache.get(items[0][0])  # touch: 1 becomes LRU
        cache.insert(*items[2])
        assert items[0][0] in cache
        assert items[1][0] not in cache

    def test_oversized_chunk_not_cached(self):
        cache = ChunkCache(10)
        cache.insert(chunk_hash(b"x" * 20), b"x" * 20)
        assert len(cache) == 0

    def test_reinsert_is_touch(self):
        cache = ChunkCache(1000)
        d = chunk_hash(b"abc")
        cache.insert(d, b"abc")
        cache.insert(d, b"abc")
        assert cache.used_bytes == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ChunkCache(0)

    @given(sizes=st.lists(st.integers(1, 50), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, sizes):
        cache = ChunkCache(200)
        for i, size in enumerate(sizes):
            data = bytes([i % 256]) * size
            cache.insert(chunk_hash(data), data)
            assert cache.used_bytes <= 200


class TestTunnel:
    def test_roundtrip(self):
        tunnel = RETunnel()
        payload = seeded_bytes(50_000, seed=1)
        assert tunnel.send(payload) == payload

    def test_repeat_transfer_mostly_shims(self):
        tunnel = RETunnel()
        payload = seeded_bytes(50_000, seed=2)
        tunnel.send(payload)
        encoded = tunnel.encoder.encode(payload)
        shims = sum(isinstance(i, Shim) for i in encoded.items)
        assert shims / len(encoded.items) > 0.95
        assert encoded.savings > 0.9

    def test_savings_accumulate(self):
        tunnel = RETunnel()
        payload = seeded_bytes(30_000, seed=3)
        tunnel.send(payload)
        first = tunnel.savings
        tunnel.send(payload)
        assert tunnel.savings > first

    def test_unique_traffic_no_savings(self):
        tunnel = RETunnel()
        tunnel.send(seeded_bytes(30_000, seed=4))
        assert tunnel.savings < 0.05

    def test_caches_stay_synchronized(self):
        tunnel = RETunnel()
        gen = TrafficGenerator(TrafficConfig(n_objects=10, object_size=8 * 1024))
        for payload in gen.requests(40):
            tunnel.send(payload)
            assert (
                tunnel.encoder.cache.state_digest()
                == tunnel.decoder.cache.state_digest()
            )

    def test_desync_detected(self):
        encoder = Encoder()
        decoder = Decoder()
        payload = seeded_bytes(20_000, seed=5)
        encoder.encode(payload)  # primes only the encoder cache
        second = encoder.encode(payload)  # now full of shims
        with pytest.raises(KeyError, match="desync"):
            decoder.decode(second)

    def test_first_pass_items_are_reference_chunks(self):
        """A cold encoder forwards exactly the packet-scale chunks of the
        reference chunking (min/max limits applied), in order."""
        cfg = REConfig()
        payload = seeded_bytes(40_000, seed=6)
        items = Encoder(cfg).encode(payload).items
        expected = reference_chunks(cfg.chunker, payload)
        assert not any(isinstance(i, Shim) for i in items)
        assert [(len(i), chunk_hash(i)) for i in items] == [
            (length, digest) for _, length, digest in expected
        ]

    def test_eviction_pressure_keeps_correctness(self):
        """Tiny caches force constant eviction; payloads still roundtrip."""
        cfg = REConfig(cache_bytes=16 * 1024)
        tunnel = RETunnel(cfg)
        gen = TrafficGenerator(TrafficConfig(n_objects=8, object_size=4 * 1024))
        tunnel.send_all(gen.requests(50))
        assert tunnel.encoder.cache.evictions > 0


class TestTraffic:
    def test_deterministic(self):
        a = list(TrafficGenerator(TrafficConfig(seed=9)).requests(10))
        b = list(TrafficGenerator(TrafficConfig(seed=9)).requests(10))
        assert a == b

    def test_popular_objects_repeat(self):
        gen = TrafficGenerator(TrafficConfig(n_objects=20, update_probability=0.0))
        seen = list(gen.requests(50))
        assert len({bytes(p) for p in seen}) < 30  # repeats happen

    def test_updates_mutate(self):
        gen = TrafficGenerator(
            TrafficConfig(n_objects=1, update_probability=1.0, object_size=4096)
        )
        a = gen.request()
        b = gen.request()
        assert a != b and len(a) == len(b)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrafficConfig(n_objects=0)
        with pytest.raises(ValueError):
            TrafficConfig(update_probability=2.0)
