"""Tests for the statistics helpers and the dedup index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chunk, DedupIndex, dedup_ratio, size_stats, unique_bytes
from repro.core.chunking import Chunker, ChunkerConfig
from tests.conftest import probe, seeded_bytes


def make_chunk(data: bytes, offset: int = 0) -> Chunk:
    return Chunk.from_bytes(offset, data)


class TestSizeStats:
    def test_empty(self):
        s = size_stats([])
        assert s.count == 0 and s.mean == 0.0

    def test_single(self):
        s = size_stats([100])
        assert (s.count, s.total, s.mean, s.stdev) == (1, 100, 100.0, 0.0)

    def test_known_values(self):
        s = size_stats([2, 4, 6])
        assert s.mean == 4.0
        assert s.minimum == 2 and s.maximum == 6
        assert s.stdev == pytest.approx(1.632993, rel=1e-5)

    @given(sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_invariants(self, sizes):
        s = size_stats(sizes)
        assert s.minimum <= s.mean <= s.maximum
        assert s.total == sum(sizes)
        assert s.coefficient_of_variation >= 0

    def test_exponential_like_distribution(self):
        """Unbounded content-defined chunk sizes have CoV near 1
        (geometric/exponential boundary spacing)."""
        data = seeded_bytes(512 * 1024, seed=91)
        chunks = Chunker(ChunkerConfig(mask_bits=9, marker=0x155)).chunk(data)
        s = size_stats([c.length for c in chunks])
        assert 0.6 < s.coefficient_of_variation < 1.4


class TestUniqueBytesAndRatio:
    def test_no_duplicates(self):
        chunks = [make_chunk(bytes([i]) * 10) for i in range(5)]
        assert unique_bytes(chunks) == 50
        assert dedup_ratio(chunks) == 0.0

    def test_all_duplicates(self):
        chunks = [make_chunk(b"same-content")] * 4
        assert unique_bytes(chunks) == 12
        assert dedup_ratio(chunks) == pytest.approx(0.75)

    def test_empty(self):
        assert dedup_ratio([]) == 0.0
        assert unique_bytes([]) == 0

    @given(
        contents=st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=40)
    )
    @settings(max_examples=100)
    def test_ratio_bounds(self, contents):
        chunks = [make_chunk(c) for c in contents]
        ratio = dedup_ratio(chunks)
        assert 0.0 <= ratio < 1.0


class TestDedupIndex:
    def test_first_occurrence_kept(self):
        index = DedupIndex()
        a = make_chunk(b"hello", offset=0)
        b = make_chunk(b"hello", offset=100)
        assert probe(index, [a]).hits == [False]
        assert probe(index, [b]).hits == [True]
        # The canonical copy is the first.
        assert index.lookup_batch([b.digest]) == [0]

    def test_repeat_within_a_batch_is_not_a_hit(self):
        index = DedupIndex()
        chunks = [make_chunk(b"a"), make_chunk(b"b", 1), make_chunk(b"a", 2)]
        result = probe(index, chunks)
        assert result.hits == [False, False, False]
        assert result.repeats == {2: 0}
        again = probe(index, chunks)
        assert again.hits == [True, True, True] and again.repeats == {}

    def test_pointers_check_hits_but_not_repeats(self):
        index = DedupIndex()
        old, gone = make_chunk(b"old"), make_chunk(b"gone", 3)
        probe(index, [old, gone])
        fresh = make_chunk(b"new", 7)
        batch = [old, fresh, gone, make_chunk(b"new", 10)]
        asked = []

        def has_chunks(digests):
            asked.append(digests)
            return [d == old.digest for d in digests]

        flags = probe(index, batch).pointers([c.digest for c in batch], has_chunks)
        assert flags == [True, False, False, True]
        assert asked == [[old.digest, gone.digest]]

    def test_lookup_without_insert(self):
        index = DedupIndex()
        assert index.lookup_batch([make_chunk(b"x").digest]) == [None]

    def test_contains(self):
        index = DedupIndex()
        chunk = make_chunk(b"x")
        probe(index, [chunk])
        assert chunk.digest in index
        assert len(index) == 1

    def test_stats_bytes(self):
        index = DedupIndex()
        probe(index, [make_chunk(b"aaaa")])
        probe(index, [make_chunk(b"aaaa", offset=50)])
        probe(index, [make_chunk(b"bb")])
        s = index.stats
        assert s.total_chunks == 3 and s.unique_chunks == 2
        assert s.total_bytes == 10 and s.unique_bytes == 6
        assert s.duplicate_bytes == 4
        assert s.dedup_ratio == pytest.approx(0.4)

    def test_empty_stats(self):
        assert DedupIndex().stats.dedup_ratio == 0.0

    @given(contents=st.lists(st.binary(min_size=1, max_size=8), max_size=50))
    @settings(max_examples=100)
    def test_index_matches_set_semantics(self, contents):
        index = DedupIndex()
        chunks = [make_chunk(c, offset=i * 10) for i, c in enumerate(contents)]
        index.add_all(chunks)
        assert len(index) == len({c.digest for c in chunks})
        assert index.stats.unique_bytes == unique_bytes(chunks)
