"""Tests for chunk-boundary selection, the Chunker API, and streaming."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf2
from repro.core.chunking import (
    Chunk,
    Chunker,
    ChunkerConfig,
    _resolve_batch_chunks,
    chunk_sizes,
    select_cuts,
)
from repro.core.engines import VectorEngine
from repro.core.hashing import chunk_hash
from repro.core.rabin import RabinFingerprinter
from repro.core.stats import reset_stage_times, stage_times
from tests.conftest import chunk_shape, reference_chunks, seeded_bytes

# Every test here runs with the native scan kernel and with the NumPy fallback.
pytestmark = pytest.mark.usefixtures("scan_kernel")


class TestChunkerConfig:
    def test_defaults_match_paper(self):
        cfg = ChunkerConfig()
        assert cfg.window_size == 48
        assert cfg.mask_bits == 13
        assert cfg.min_size == 0
        assert cfg.max_size is None
        assert cfg.expected_chunk_size == 8192

    def test_marker_must_fit_mask(self):
        with pytest.raises(ValueError, match="marker"):
            ChunkerConfig(mask_bits=4, marker=0x1F)

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="max_size"):
            ChunkerConfig(min_size=100, max_size=50)

    def test_max_below_window_rejected(self):
        with pytest.raises(ValueError, match="window_size"):
            ChunkerConfig(max_size=20)

    def test_negative_min_rejected(self):
        with pytest.raises(ValueError, match="min_size"):
            ChunkerConfig(min_size=-1)

    def test_with_limits(self):
        cfg = ChunkerConfig().with_limits(1024, 16384)
        assert (cfg.min_size, cfg.max_size) == (1024, 16384)
        assert cfg.mask_bits == ChunkerConfig().mask_bits


class TestSelectCuts:
    def test_empty(self):
        assert select_cuts([], 0) == []

    def test_no_candidates_gives_tail(self):
        assert select_cuts([], 100) == [100]

    def test_plain_passthrough(self):
        assert select_cuts([10, 30, 70], 100) == [10, 30, 70, 100]

    def test_candidate_at_length_not_duplicated(self):
        assert select_cuts([10, 100], 100) == [10, 100]

    def test_min_size_skips(self):
        # 10 is within min of the start; 26 is within min of the cut at 20.
        assert select_cuts([10, 20, 26, 40], 50, min_size=15) == [20, 40, 50]

    def test_min_size_skip_from_start(self):
        assert select_cuts([4, 9, 20], 30, min_size=10) == [20, 30]

    def test_max_size_forces(self):
        assert select_cuts([], 100, max_size=30) == [30, 60, 90, 100]

    def test_max_size_with_candidates(self):
        # Candidate at 80: forced cuts at 30, 60 come first.
        assert select_cuts([80], 100, max_size=30) == [30, 60, 80, 100]

    def test_candidate_within_min_after_forced_cut_skipped(self):
        # Forced cut at 30; candidate at 35 violates min 10 from there.
        assert select_cuts([35], 60, min_size=10, max_size=30) == [30, 60]

    def test_candidate_beyond_length_raises(self):
        with pytest.raises(ValueError, match="beyond"):
            select_cuts([200], 100)

    def test_sizes_respect_limits(self):
        cuts = select_cuts([13, 64, 91, 130, 180], 200, min_size=20, max_size=50)
        sizes = chunk_sizes(cuts)
        assert all(s <= 50 for s in sizes)
        assert all(s >= 20 for s in sizes[:-1])  # tail may be short

    @given(
        candidates=st.lists(st.integers(1, 499), max_size=40).map(sorted),
        min_size=st.integers(0, 60),
        max_gap=st.integers(60, 200),
    )
    @settings(max_examples=200)
    def test_invariants_random(self, candidates, min_size, max_gap):
        length = 500
        cuts = select_cuts(sorted(set(candidates)), length, min_size, max_gap)
        assert cuts[-1] == length
        assert cuts == sorted(set(cuts))
        sizes = chunk_sizes(cuts)
        assert all(s <= max_gap for s in sizes)
        assert all(s >= min_size for s in sizes[:-1])
        assert sum(sizes) == length


class TestChunker:
    def test_chunks_reassemble(self, small_chunker, data_64k):
        chunks = small_chunker.chunk(data_64k)
        assert b"".join(c.data for c in chunks) == data_64k

    def test_offsets_contiguous(self, small_chunker, data_64k):
        chunks = small_chunker.chunk(data_64k)
        pos = 0
        for c in chunks:
            assert c.offset == pos
            assert c.length == len(c.data)
            pos = c.end
        assert pos == len(data_64k)

    def test_digests_are_content_hashes(self, small_chunker, data_64k):
        for c in small_chunker.chunk(data_64k[:4096]):
            assert c.digest == chunk_hash(c.data)

    @pytest.mark.parametrize("kind", ["bytearray", "ndarray"])
    def test_writable_input_is_snapshotted(self, kind, small_chunker, data_64k):
        """Refilling a chunked writable buffer leaves every chunk's payload
        matching its digest: writable input is copied, not aliased."""
        buf = bytearray(data_64k) if kind == "bytearray" else np.frombuffer(
            data_64k, dtype=np.uint8
        ).copy()
        chunks = small_chunker.chunk(buf)
        buf[:] = bytes(len(buf)) if kind == "bytearray" else 0
        assert chunks and all(chunk_hash(c.data) == c.digest for c in chunks)
        assert b"".join(c.data for c in chunks) == data_64k

    def test_output_spans_hash_batches(self, small_config, small_chunker):
        """Input with more chunks than one hash batch holds comes back
        flattened in stream order, equal to the reference."""
        data = seeded_bytes(320 * 1024, seed=31)
        chunks = small_chunker.chunk(data)
        assert len(chunks) > _resolve_batch_chunks(small_config)
        assert chunk_shape(chunks) == reference_chunks(small_config, data)

    def test_records_scan_and_hash_stages(self, small_chunker, data_64k):
        """The stage timers ``repro chunk --profile`` prints are fed by
        the call the plain run makes."""
        reset_stage_times()
        small_chunker.chunk(data_64k)
        times = stage_times()
        assert times.get("scan", 0.0) > 0.0
        assert times.get("hash", 0.0) > 0.0
        reset_stage_times()

    def test_non_contiguous_input_rejected(self, small_chunker, data_64k):
        with pytest.raises(BufferError):
            small_chunker.chunk(memoryview(data_64k)[::2])

    def test_empty_input(self, small_chunker):
        assert small_chunker.chunk(b"") == []

    def test_deterministic(self, small_chunker, data_64k):
        assert small_chunker.chunk(data_64k) == small_chunker.chunk(data_64k)

    def test_mean_size_tracks_mask_bits(self, data_1m):
        for bits in (6, 8, 10):
            cfg = ChunkerConfig(mask_bits=bits, marker=1)
            chunks = Chunker(cfg).chunk(data_1m)
            mean = len(data_1m) / len(chunks)
            assert 0.6 * 2**bits < mean < 1.6 * 2**bits, bits

    def test_min_max_respected(self, data_64k):
        cfg = ChunkerConfig(mask_bits=6, marker=0x2A, min_size=64, max_size=256)
        chunks = Chunker(cfg).chunk(data_64k)
        assert all(c.length <= 256 for c in chunks)
        assert all(c.length >= 64 for c in chunks[:-1])

    def test_engine_window_mismatch_rejected(self, vector_engine):
        cfg = ChunkerConfig(window_size=16)
        with pytest.raises(ValueError, match="window size"):
            Chunker(cfg, vector_engine)

    def test_custom_polynomial(self, data_64k):
        poly = gf2.find_irreducible(33, seed=11)
        cfg = ChunkerConfig(mask_bits=6, marker=0x2A, polynomial=poly)
        chunks = Chunker(cfg).chunk(data_64k)
        assert b"".join(c.data for c in chunks) == data_64k

    def test_custom_window_size(self, data_64k):
        cfg = ChunkerConfig(window_size=16, mask_bits=6, marker=0x2A)
        chunks = Chunker(cfg).chunk(data_64k)
        assert b"".join(c.data for c in chunks) == data_64k


class TestChunkStream:
    """Cross-buffer streaming must match the whole-stream reference exactly."""

    CONFIG = ChunkerConfig(mask_bits=6, marker=0x2A)

    def chunker(self):
        return Chunker(self.CONFIG)

    def test_stream_equals_whole(self, data_64k):
        pieces = [data_64k[i : i + 7000] for i in range(0, len(data_64k), 7000)]
        streamed = list(self.chunker().chunk_stream(pieces))
        assert chunk_shape(streamed) == reference_chunks(self.CONFIG, data_64k)

    @given(split=st.lists(st.integers(1, 5000), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_stream_split_invariance(self, split):
        data = seeded_bytes(sum(split), seed=17)
        pieces = []
        pos = 0
        for s in split:
            pieces.append(data[pos : pos + s])
            pos += s
        streamed = list(self.chunker().chunk_stream(pieces))
        assert chunk_shape(streamed) == reference_chunks(self.CONFIG, data)

    def test_stream_with_min_max(self, data_64k):
        cfg = ChunkerConfig(mask_bits=6, marker=0x2A, min_size=64, max_size=512)
        pieces = [data_64k[i : i + 9999] for i in range(0, len(data_64k), 9999)]
        streamed = list(Chunker(cfg).chunk_stream(pieces))
        assert chunk_shape(streamed) == reference_chunks(cfg, data_64k)

    def test_empty_stream(self):
        assert list(self.chunker().chunk_stream([])) == []

    def test_stream_of_empty_buffers(self):
        assert list(self.chunker().chunk_stream([b"", b"", b""])) == []

    def test_carry_limit_forces_emit(self):
        chunker = Chunker(ChunkerConfig(mask_bits=13, marker=0x1A2B))
        # Zero data never matches the nonzero marker; the carry limit must
        # bound memory by force-emitting.
        pieces = [bytes(4096)] * 10
        chunks = list(chunker.chunk_stream(pieces, carry_limit=8192))
        assert sum(c.length for c in chunks) == 40960
        assert max(c.length for c in chunks) <= 8192 + 4096


class TestEditLocality:
    """A localized edit changes only nearby chunks (dedup's foundation)."""

    def test_suffix_chunks_survive_prefix_edit(self):
        chunker = Chunker(ChunkerConfig(mask_bits=8, marker=0x55))
        data = seeded_bytes(128 * 1024, seed=23)
        edited = b"X" * 10 + data[10:]  # overwrite first 10 bytes
        a = {c.digest for c in chunker.chunk(data)}
        b = {c.digest for c in chunker.chunk(edited)}
        # Everything after the first chunk boundary past the edit is shared.
        assert len(a & b) >= len(a) - 2

    def test_insertion_shifts_but_preserves_content_chunks(self):
        chunker = Chunker(ChunkerConfig(mask_bits=8, marker=0x55))
        data = seeded_bytes(128 * 1024, seed=29)
        edited = data[:5000] + b"INSERTED" + data[5000:]
        a = [c.digest for c in chunker.chunk(data)]
        b = [c.digest for c in chunker.chunk(edited)]
        shared = set(a) & set(b)
        # Content-defined boundaries realign after the insertion; the vast
        # majority of chunks dedup (this is why Inc-HDFS uses CDC, §6.2).
        assert len(shared) >= len(a) - 3
