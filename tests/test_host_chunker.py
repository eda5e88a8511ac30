"""Tests for the SPMD host-parallel chunker (§5.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import ChunkerConfig
from repro.core.host_chunker import HOARD, MALLOC, HostParallelChunker
from tests.conftest import seeded_bytes

CFG = ChunkerConfig(mask_bits=6, marker=0x2A)


@pytest.fixture(scope="module")
def chunker() -> HostParallelChunker:
    return HostParallelChunker(CFG, threads=4)


class TestParallelCorrectness:
    """§5.1 step 3: merged parallel results == sequential results, so
    the thread count changes only the cost model, never the chunks."""

    def test_candidates_match_sequential(self, chunker, data_64k):
        from repro.core.chunking import Chunker

        sequential = Chunker(CFG).candidate_cuts(data_64k)
        assert chunker.candidate_cuts(data_64k) == sequential

    @given(n=st.integers(0, 4000), threads=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_thread_count_invariance(self, n, threads):
        data = seeded_bytes(n, seed=31)
        reference = HostParallelChunker(CFG, threads=1).candidate_cuts(data)
        parallel = HostParallelChunker(CFG, threads=threads).candidate_cuts(data)
        assert parallel == reference

    @pytest.mark.parametrize("threads", [1, 3, 12])
    def test_chunks_match_sequential(self, threads, data_64k):
        """Offsets, lengths and digests, not just candidates."""
        from repro.core.chunking import Chunker

        cfg = CFG.with_limits(256, 4096)
        expect = [(c.offset, c.length, c.digest) for c in Chunker(cfg).chunk(data_64k)]
        got = HostParallelChunker(cfg, threads=threads).chunk(data_64k)
        assert [(c.offset, c.length, c.digest) for c in got] == expect

    def test_empty(self, chunker):
        assert chunker.candidate_cuts(b"") == []
        assert chunker.chunk(b"") == []

    def test_region_smaller_than_window(self):
        """More threads than window-sized regions still correct."""
        data = seeded_bytes(100, seed=37)
        hc = HostParallelChunker(CFG, threads=8)
        assert hc.candidate_cuts(data) == HostParallelChunker(CFG, threads=1).candidate_cuts(data)


class TestAllocatorModel:
    def test_malloc_contention_grows_with_threads(self):
        assert MALLOC.contention(12) > MALLOC.contention(1) == 1.0

    def test_hoard_nearly_flat(self):
        assert HOARD.contention(12) < 1.2

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            MALLOC.contention(0)


class TestCostModel:
    def test_hoard_faster(self):
        malloc = HostParallelChunker(threads=12, allocator=MALLOC)
        hoard = HostParallelChunker(threads=12, allocator=HOARD)
        assert hoard.throughput_bps() > malloc.throughput_bps()

    def test_fig12_cpu_calibration(self):
        """CPU bars of Fig. 12: w/o Hoard ~0.25-0.30, w/ Hoard ~0.30-0.40 GBps."""
        malloc_bps = HostParallelChunker(threads=12, allocator=MALLOC).throughput_bps()
        hoard_bps = HostParallelChunker(threads=12, allocator=HOARD).throughput_bps()
        assert 0.20e9 < malloc_bps < 0.32e9
        assert 0.30e9 < hoard_bps < 0.45e9

    def test_throughput_scales_with_threads(self):
        t1 = HostParallelChunker(threads=1).throughput_bps()
        t12 = HostParallelChunker(threads=12).throughput_bps()
        assert 6 < t12 / t1 <= 12.5

    def test_estimate_monotone_in_bytes(self):
        hc = HostParallelChunker(threads=12)
        assert hc.estimate_seconds(1 << 30) > hc.estimate_seconds(1 << 20)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            HostParallelChunker(threads=0)
