"""Zero-copy fast path: differential fuzz, laziness, caches, batching.

Covers the streaming/vectorized data path end to end:

* differential fuzz of SerialEngine vs VectorEngine vs the zero-copy
  ``stream_chunks`` across input types, odd buffer splits, all-zero runs
  and sub-window buffers — cuts and digests must be bit-identical;
* the O(N) guarantee of the streaming scan (regression test for the
  quadratic carry re-concatenation);
* lazy ``Chunk`` semantics (on-demand data/digest, release, pickling);
* the vectorized ``select_cuts_fast`` vs the Python reference;
* module-level table caches (Rabin position tables, engine pair tables);
* batched hashing (``digest_chunks`` / ``ensure_digests``).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf2
from repro.core.chunking import (
    Chunk,
    Chunker,
    ChunkerConfig,
    ensure_digests,
    select_cuts,
    select_cuts_fast,
    stream_chunks,
)
from repro.core.engines import (
    SerialEngine,
    VectorEngine,
    as_uint8,
    _GATHER_MAX_POSITIONS,
    _TABLE_CACHE,
    engine_tables,
)
from repro.core.stats import reset_scan_counters, scan_counters
from repro.core.hashing import chunk_hash, digest_chunks, digest_many
from repro.core.rabin import RabinFingerprinter
from tests.conftest import seeded_bytes

# Small window/mask so random test inputs contain many boundaries.
SMALL_POLY = gf2.find_irreducible(19, seed=3)
SMALL_FP = RabinFingerprinter(SMALL_POLY, window_size=8)
SMALL_MASK = (1 << 5) - 1
SMALL_MARKER = 0x0B


def small_config(**kw) -> ChunkerConfig:
    return ChunkerConfig(
        window_size=8, mask_bits=5, marker=SMALL_MARKER, polynomial=SMALL_POLY, **kw
    )


def kernel_cuts(engine: VectorEngine, data, mask: int, marker: int) -> list[int]:
    """Cuts straight from the roll kernel, below the gather crossover too."""
    d = as_uint8(data)
    if d.size < engine.window_size:
        return []
    return (engine._roll_hits(d, mask, marker) + engine.window_size).tolist()


def split_buffers(data: bytes, sizes):
    """Split ``data`` into buffers with the (cycled) given sizes."""
    out, pos, i = [], 0, 0
    while pos < len(data):
        size = sizes[i % len(sizes)]
        out.append(data[pos : pos + size])
        pos += size
        i += 1
    return out


class TestDifferentialFuzz:
    """Serial vs vector vs zero-copy streaming: bit-identical everything."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "memoryview", "ndarray"])
    def test_engines_agree_across_input_types(self, seed, kind):
        raw = random.Random(seed).randbytes(4096 + seed * 997)
        data = {
            "bytes": raw,
            "bytearray": bytearray(raw),
            "memoryview": memoryview(raw),
            "ndarray": np.frombuffer(raw, dtype=np.uint8),
        }[kind]
        serial = SerialEngine(SMALL_FP).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
        vector = VectorEngine(SMALL_FP).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
        assert serial == vector

    def test_striped_path_matches_gather_path(self):
        """Inputs past the gather crossover exercise the striped roll kernel."""
        data = seeded_bytes(256 * 1024, seed=5)
        wide = VectorEngine(SMALL_FP)
        tiny = VectorEngine(SMALL_FP, lanes=64, tile_bytes=4096)  # many tiles
        serial = SerialEngine(SMALL_FP)
        expect = serial.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
        assert wide.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == expect
        assert tiny.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == expect

    def test_striped_path_wide_mask(self):
        """Masks wider than 16 bits roll with full-width fingerprints."""
        data = seeded_bytes(128 * 1024, seed=6)
        mask = (1 << 17) - 1
        eng = VectorEngine(SMALL_FP, lanes=128, tile_bytes=8192)
        assert eng.candidate_cuts(data, mask, 3) == SerialEngine(SMALL_FP).candidate_cuts(
            data, mask, 3
        )

    def test_all_zero_runs(self):
        data = bytes(16 * 1024) + seeded_bytes(1024, seed=7) + bytes(8 * 1024)
        eng = VectorEngine(SMALL_FP, lanes=64, tile_bytes=2048)
        assert eng.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == SerialEngine(
            SMALL_FP
        ).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)

    @pytest.mark.parametrize("kind", ["bytearray", "memoryview", "ndarray"])
    def test_stream_buffer_protocol_inputs(self, kind):
        data = seeded_bytes(10000, seed=13)
        wrap = {
            "bytearray": lambda b: bytearray(b),
            "memoryview": lambda b: memoryview(b),
            "ndarray": lambda b: np.frombuffer(b, dtype=np.uint8),
        }[kind]
        chunker = Chunker(small_config())
        whole = chunker.chunk(data)
        pieces = [wrap(p) for p in split_buffers(data, [777, 41, 2048])]
        streamed = list(chunker.chunk_stream(pieces))
        assert [c.digest for c in streamed] == [c.digest for c in whole]

    @given(
        seed=st.integers(0, 1000),
        split=st.lists(st.integers(1, 3000), min_size=1, max_size=8),
        min_size=st.sampled_from([0, 16, 100]),
        max_size=st.sampled_from([None, 256, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_fuzz_minmax(self, seed, split, min_size, max_size):
        data = seeded_bytes(sum(split), seed=seed)
        cfg = small_config(min_size=min_size, max_size=max_size)
        chunker = Chunker(cfg)
        whole = chunker.chunk(data)
        pieces, pos = [], 0
        for s in split:
            pieces.append(data[pos : pos + s])
            pos += s
        streamed = list(chunker.chunk_stream(pieces))
        assert [(c.offset, c.length, c.digest) for c in streamed] == [
            (c.offset, c.length, c.digest) for c in whole
        ]

    def test_serial_engine_stream_agrees(self):
        """The streaming layer is engine-agnostic: serial == vector."""
        data = seeded_bytes(6000, seed=17)
        cfg = small_config()
        serial = Chunker(cfg, SerialEngine(SMALL_FP))
        vector = Chunker(cfg, VectorEngine(SMALL_FP))
        pieces = split_buffers(data, [501, 7, 1999])
        a = list(serial.chunk_stream(pieces))
        b = list(vector.chunk_stream(pieces))
        assert [(c.offset, c.digest) for c in a] == [(c.offset, c.digest) for c in b]


class TestFusedRollKernel:
    """The roll kernel at every block size: bit-identical always.

    ``roll_steps`` is the block of rows whose data terms one lookup
    fetches; ``1`` is a block of one.  Every setting must reproduce the
    pure-Python SerialEngine exactly, across padding boundaries,
    degenerate geometries, zero runs, and wide masks.
    """

    @pytest.mark.parametrize("steps", [1, 2, 8, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_differential_fuzz_vs_one_step_and_serial(self, steps, seed):
        data = random.Random(seed).randbytes(48 * 1024 + seed * 1237)
        expect = SerialEngine(SMALL_FP).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
        one = VectorEngine(SMALL_FP, lanes=64, tile_bytes=4096, roll_steps=1)
        fused = VectorEngine(SMALL_FP, lanes=64, tile_bytes=4096, roll_steps=steps)
        assert one.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == expect
        assert fused.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == expect

    @pytest.mark.parametrize("steps", [2, 8, 32])
    @pytest.mark.parametrize(
        "size_fn",
        [
            lambda lanes, steps: 2 * lanes + 1,  # a few positions per lane
            lambda lanes, steps: lanes * steps * 3,  # exact launch multiple
            lambda lanes, steps: lanes * steps * 3 + 1,  # one over
            lambda lanes, steps: lanes * steps * 3 - 1,  # one under
            lambda lanes, steps: lanes * steps + steps - 1,  # partial last block
        ],
    )
    def test_padding_boundaries(self, steps, size_fn):
        lanes = 32
        size = size_fn(lanes, steps) + SMALL_FP.window_size - 1
        data = random.Random(steps * size).randbytes(size)
        fused = VectorEngine(SMALL_FP, lanes=lanes, tile_bytes=2048, roll_steps=steps)
        assert kernel_cuts(fused, data, SMALL_MASK, SMALL_MARKER) == SerialEngine(
            SMALL_FP
        ).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)

    @pytest.mark.parametrize("steps", [2, 8, 32])
    def test_window_larger_than_tile(self, steps):
        """Tiles smaller than the window still roll seam-exact."""
        data = random.Random(11).randbytes(4096)
        fused = VectorEngine(SMALL_FP, lanes=2, tile_bytes=4, roll_steps=steps)
        assert kernel_cuts(fused, data, SMALL_MASK, SMALL_MARKER) == SerialEngine(
            SMALL_FP
        ).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)

    @pytest.mark.parametrize("steps", [2, 8, 32])
    def test_lanes_exceed_buffer(self, steps):
        """More lanes than window positions: lanes clamp, pads filter."""
        serial = SerialEngine(SMALL_FP)
        fused = VectorEngine(SMALL_FP, lanes=4096, tile_bytes=1 << 20, roll_steps=steps)
        for size in (SMALL_FP.window_size - 1, 100, 3000, 2 * 4096 + 7):
            data = random.Random(size).randbytes(size)
            expect = serial.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
            assert kernel_cuts(fused, data, SMALL_MASK, SMALL_MARKER) == expect
            assert fused.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == expect

    def test_all_zero_runs_fused(self):
        data = bytes(16 * 1024) + seeded_bytes(1024, seed=7) + bytes(8 * 1024)
        fused = VectorEngine(SMALL_FP, lanes=64, tile_bytes=2048, roll_steps=8)
        assert fused.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == SerialEngine(
            SMALL_FP
        ).candidate_cuts(data, SMALL_MASK, SMALL_MARKER)

    def test_wide_mask_fused(self):
        """Masks past 16 bits take the uint64 history path of the kernel."""
        data = seeded_bytes(128 * 1024, seed=6)
        mask = (1 << 17) - 1
        fused = VectorEngine(SMALL_FP, lanes=128, tile_bytes=8192, roll_steps=8)
        assert fused.candidate_cuts(data, mask, 3) == SerialEngine(
            SMALL_FP
        ).candidate_cuts(data, mask, 3)

    def test_default_window_48(self):
        """The production 48-byte window, default polynomial."""
        data = seeded_bytes(96 * 1024, seed=12)
        mask, marker = (1 << 13) - 1, 0x1A2B & ((1 << 13) - 1)
        serial = SerialEngine()
        for steps in (2, 8, 32):
            fused = VectorEngine(lanes=256, tile_bytes=16384, roll_steps=steps)
            assert fused.candidate_cuts(data, mask, marker) == serial.candidate_cuts(
                data, mask, marker
            )

    def test_roll_steps_validation(self):
        with pytest.raises(ValueError, match="roll_steps"):
            VectorEngine(SMALL_FP, lanes=8, tile_bytes=1024, roll_steps=0)

    #: Fingerprinters of the seam fuzz: the small and the production
    #: window, one wider than the lane floor (the floor must follow it),
    #: and the two extreme degrees (56: the shifted state fills the
    #: int64 sign bit; 8: the fold byte is the whole state).
    SEAM_FPS = [
        SMALL_FP,
        RabinFingerprinter(),
        RabinFingerprinter(SMALL_POLY, window_size=80),
        RabinFingerprinter(gf2.find_irreducible(56, seed=5), window_size=16),
        RabinFingerprinter(gf2.find_irreducible(8, seed=5), window_size=8),
    ]

    @given(
        fp=st.sampled_from(SEAM_FPS),
        lanes=st.sampled_from([1, 2, 3, 16, 61, 4096]),
        tile=st.sampled_from([3, 64, 257, 1024, 2048, 1 << 20]),
        steps=st.sampled_from([1, 2, 3, 8, 32]),
        mask=st.sampled_from([SMALL_MASK, 0x10007]),
        anchor=st.sampled_from(["tile", "crossover", "free"]),
        k=st.integers(1, 3),
        delta=st.integers(-1, 1),
        free=st.integers(0, 6000),
        seed=st.integers(0, 1 << 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_seam_fuzz_vs_serial(
        self, fp, lanes, tile, steps, mask, anchor, k, delta, free, seed
    ):
        """Sizes within a window of a tile edge and of the gather
        crossover, over every geometry seam: entering rows that straddle
        into the spill lane mid-block, a lone lane padded up to the
        window, the zero-padded last tile, one lane, a wide mask."""
        w = fp.window_size
        rng = random.Random(seed)
        positions = {
            "tile": k * min(tile, 2048),
            "crossover": _GATHER_MAX_POSITIONS,
            "free": free,
        }[anchor] + delta * rng.randint(0, w)
        data = rng.randbytes(max(0, positions + w - 1))
        marker = 0x0B & mask
        engine = VectorEngine(fp, lanes=lanes, tile_bytes=tile, roll_steps=steps, threads=1)
        expect = SerialEngine(fp).candidate_cuts(data, mask, marker)
        assert kernel_cuts(engine, data, mask, marker) == expect
        assert engine.candidate_cuts(data, mask, marker) == expect

    def test_dispatch_counters_report_reduction(self):
        """S=8 issues >= 4x fewer kernel dispatches per MiB than S=1."""
        data = seeded_bytes(1 << 20, seed=3)
        rates = {}
        for steps in (1, 8):
            engine = VectorEngine(
                lanes=1024, tile_bytes=1 << 18, roll_steps=steps, threads=1
            )
            reset_scan_counters()
            engine.candidate_cut_array(data, (1 << 13) - 1, 0x0123)
            counters = scan_counters()
            assert counters.dispatches > 0
            assert counters.scanned_bytes == len(data)
            assert counters.geometry["roll_steps"] == steps
            rates[steps] = counters.dispatches_per_mib
        reset_scan_counters()
        assert rates[1] / rates[8] >= 4.0


class TestStreamLinearity:
    """Regression test for the quadratic carry re-concatenation."""

    def test_markerless_stream_scans_linear_bytes(self):
        # Zero bytes never match the nonzero marker, so nothing is ever
        # emitted mid-stream: the old implementation re-scanned (and
        # re-copied) the whole growing carry for every buffer — O(N^2).
        cfg = ChunkerConfig(mask_bits=13, marker=0x1A2B)
        chunker = Chunker(cfg)
        n_buffers, buf_size = 64, 8192
        scanned = 0

        def counting(data):
            nonlocal scanned
            scanned += len(data)
            return chunker.candidate_cuts(data)

        pieces = [bytes(buf_size)] * n_buffers
        chunks = list(stream_chunks(counting, cfg, pieces, carry_limit=1 << 30))
        total = n_buffers * buf_size
        assert sum(c.length for c in chunks) == total
        # Each buffer is scanned once, plus a <=2(w-1)-byte boundary splice.
        assert scanned <= total + n_buffers * 2 * cfg.window_size
        # The quadratic path would have scanned sum(i * buf) ~ N^2 / 2.
        assert scanned < total * 2

    def test_stream_chunks_are_lazy_views(self):
        cfg = small_config()
        chunker = Chunker(cfg)
        data = seeded_bytes(32 * 1024, seed=19)
        chunks = list(chunker.chunk_stream(split_buffers(data, [4096])))
        assert all(c._data is None for c in chunks)  # nothing materialized
        ensure_digests(chunks)
        assert all(c._data is None for c in chunks)  # hashing didn't copy
        assert b"".join(c.data for c in chunks) == data


class TestLazyChunk:
    def test_digest_without_materializing_data(self):
        payload = seeded_bytes(4096, seed=23)
        chunk = Chunk(0, 4096, views=(memoryview(payload),))
        assert chunk._data is None
        assert chunk.digest == chunk_hash(payload)
        assert chunk._data is None
        assert chunk.data == payload

    def test_multi_view_chunk(self):
        a, b = b"hello ", b"world"
        chunk = Chunk(10, 11, views=(memoryview(a), memoryview(b)))
        assert chunk.data == b"hello world"
        assert chunk.digest == chunk_hash(b"hello world")

    def test_equality_and_hash(self):
        payload = b"x" * 100
        eager = Chunk.from_bytes(5, payload)
        lazy = Chunk(5, 100, views=(memoryview(payload),))
        assert eager == lazy
        assert hash(eager) == hash(lazy)
        assert eager != Chunk.from_bytes(6, payload)

    def test_release_keeps_digest_drops_data(self):
        payload = b"y" * 64
        chunk = Chunk(0, 64, views=(memoryview(payload),))
        chunk.release()
        assert chunk.digest == chunk_hash(payload)
        with pytest.raises(ValueError, match="released"):
            chunk.data

    def test_pickle_materializes(self):
        payload = seeded_bytes(512, seed=29)
        chunk = Chunk(7, 512, views=(memoryview(payload),))
        clone = pickle.loads(pickle.dumps(chunk))
        assert clone == chunk
        assert clone.data == payload

    def test_requires_some_payload_source(self):
        with pytest.raises(ValueError, match="needs"):
            Chunk(0, 10)

    def test_constructor_keyword_compat(self):
        data = b"z" * 32
        chunk = Chunk(offset=1, length=32, data=data, digest=chunk_hash(data))
        assert chunk.data == data


class TestSelectCutsFast:
    @given(
        candidates=st.lists(st.integers(1, 499), max_size=40).map(sorted),
        min_size=st.integers(0, 60),
        max_size=st.sampled_from([None, 60, 100, 200]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, candidates, min_size, max_size):
        if max_size is not None and max_size < min_size:
            min_size, max_size = max_size, min_size
        assert select_cuts_fast(candidates, 500, min_size, max_size) == select_cuts(
            candidates, 500, min_size, max_size
        )

    def test_empty(self):
        assert select_cuts_fast([], 0) == []
        assert select_cuts_fast([], 100) == [100]

    def test_beyond_length_raises(self):
        with pytest.raises(ValueError, match="beyond"):
            select_cuts_fast([200], 100)

    def test_accepts_ndarray_candidates(self):
        cand = np.array([10, 30, 70], dtype=np.int64)
        assert select_cuts_fast(cand, 100) == [10, 30, 70, 100]


class TestTableCaches:
    def test_engine_pair_tables_shared(self):
        a = VectorEngine(RabinFingerprinter(SMALL_POLY, window_size=8))
        b = VectorEngine(RabinFingerprinter(SMALL_POLY, window_size=8))
        assert engine_tables(a.fingerprinter) is engine_tables(b.fingerprinter)

    def test_roll_scan_builds_no_pair_tables(self):
        """Constructing an engine and scanning past the crossover reads
        only the two 256-entry roll tables; the first small scan (or
        ``fingerprints()``) is what builds the gather tables."""
        fp = RabinFingerprinter(gf2.find_irreducible(23, seed=41), window_size=12)
        key = (fp.polynomial, fp.window_size)
        assert key not in _TABLE_CACHE
        engine = VectorEngine(fp)
        data = seeded_bytes(64 * 1024, seed=37)
        cuts = engine.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
        assert key not in _TABLE_CACHE
        small = data[: _GATHER_MAX_POSITIONS]
        assert engine.candidate_cuts(small, SMALL_MASK, SMALL_MARKER) == [
            c for c in cuts if c <= len(small)
        ]
        assert key in _TABLE_CACHE

    def test_position_tables_shared(self):
        a = RabinFingerprinter(SMALL_POLY, window_size=8)
        b = RabinFingerprinter(SMALL_POLY, window_size=8)
        assert a.position_tables() is b.position_tables()

    def test_cache_keyed_by_polynomial_and_window(self):
        base = engine_tables(RabinFingerprinter(SMALL_POLY, window_size=8))
        other_w = engine_tables(RabinFingerprinter(SMALL_POLY, window_size=10))
        assert base is not other_w
        other_poly = engine_tables(
            RabinFingerprinter(gf2.find_irreducible(21, seed=9), window_size=8)
        )
        assert base is not other_poly

    def test_fresh_chunkers_share_default_tables(self):
        a = Chunker(ChunkerConfig(mask_bits=12, marker=0xABC, min_size=1024, max_size=16384))
        b = Chunker(ChunkerConfig())
        assert engine_tables(a.engine.fingerprinter) is engine_tables(b.engine.fingerprinter)


class TestBatchedHashing:
    def test_digest_chunks_matches_per_chunk(self):
        data = seeded_bytes(64 * 1024, seed=31)
        cuts = [1000, 5000, 5001, 40000, len(data)]
        expect = []
        prev = 0
        for cut in cuts:
            expect.append(chunk_hash(data[prev:cut]))
            prev = cut
        assert digest_chunks(data, cuts) == expect
        assert digest_chunks(memoryview(data), cuts, parallel=True) == expect

    def test_digest_many_parallel_identical(self):
        pieces = [seeded_bytes(3000 + i, seed=i) for i in range(50)]
        assert digest_many(pieces, parallel=True) == digest_many(pieces, parallel=False)

    def test_ensure_digests_fills_only_missing(self):
        data = seeded_bytes(8192, seed=37)
        precomputed = Chunk.from_bytes(0, data[:4096])
        lazy = Chunk(4096, 4096, views=(memoryview(data)[4096:],))
        marker = precomputed._digest
        ensure_digests([precomputed, lazy])
        assert precomputed._digest is marker
        assert lazy._digest == chunk_hash(data[4096:])

    def test_as_uint8_zero_copy(self):
        raw = bytearray(b"abcdef" * 100)
        arr = as_uint8(raw)
        assert np.shares_memory(arr, np.frombuffer(memoryview(raw), dtype=np.uint8))
        raw[0] = 0x7A  # view reflects mutation: no copy was made
        assert arr[0] == 0x7A

    def test_non_contiguous_buffers(self):
        """Strided views can't be zero-copy viewed; Shredder flattens them."""
        from repro.core import Shredder, ShredderConfig
        from repro.core.engines import as_byte_view

        data = seeded_bytes(16 * 1024, seed=41)
        strided = memoryview(data)[::2]
        with pytest.raises(BufferError):
            as_byte_view(strided)
        with Shredder(ShredderConfig.cpu()) as shredder:
            chunks, _ = shredder.process(strided)
        assert b"".join(c.data for c in chunks) == bytes(strided)

    def test_non_contiguous_ndarray(self):
        """N-D strided arrays raise BufferError too, so the Shredder
        fallback (one-time flatten) fires instead of misrouting."""
        from repro.core import Shredder, ShredderConfig
        from repro.core.engines import as_byte_view

        arr = np.frombuffer(seeded_bytes(8192, seed=43), dtype=np.uint8)
        strided_2d = arr.reshape(64, 128)[:, ::2]
        with pytest.raises(BufferError):
            as_byte_view(strided_2d)
        with Shredder(ShredderConfig.cpu()) as shredder:
            chunks, _ = shredder.process(strided_2d)
        assert b"".join(c.data for c in chunks) == strided_2d.tobytes()

    def test_stream_snapshots_recycled_writable_buffers(self):
        """A producer that refills one bytearray between yields (the
        classic read-into-buffer loop) must still produce correct chunks:
        writable buffers are snapshotted, never aliased."""
        data = seeded_bytes(96 * 1024, seed=47)
        chunker = Chunker(small_config())
        whole = chunker.chunk(data)

        def recycling_producer(piece_size=8192):
            scratch = bytearray(piece_size)
            for pos in range(0, len(data), piece_size):
                piece = data[pos : pos + piece_size]
                scratch[: len(piece)] = piece
                yield memoryview(scratch)[: len(piece)]

        streamed = list(chunker.chunk_stream(recycling_producer()))
        assert [(c.offset, c.length, c.digest) for c in streamed] == [
            (c.offset, c.length, c.digest) for c in whole
        ]
