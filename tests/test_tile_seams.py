"""VectorEngine tile and lane seams at the production window.

The roll kernel cuts a large input into tiles of ``tile_bytes`` window
positions and every tile into lane sub-streams, all scanned on the
calling thread; a marker window may straddle any of those seams.  With
small geometries a few KiB of data crosses hundreds of seams, and every
pairing of lanes, tile size and ``roll_steps`` must reproduce
``SerialEngine`` bit-exactly:

* cuts exactly on (and one byte either side of) a tile seam;
* tiles shorter than the window;
* tiny inputs, markerless data, every buffer type, a wide mask;
* the full ``Chunker`` (min/max + digests) over a small-tile engine.

It also pins the engine's geometry contract: a defaulted engine runs the
three static constants, explicit arguments are kept, degenerate values
are refused, the scan counters report the geometry and the dispatches
that ran, and hash batch boundaries do not move with the tile.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core import (
    Chunker,
    ChunkerConfig,
    SerialEngine,
    VectorEngine,
    default_engine,
    pipeline_chunks,
)
from repro.core.chunking import HASH_BATCH_BYTES, _resolve_batch_chunks
from repro.core.engines import DEFAULT_LANES, DEFAULT_ROLL_STEPS, DEFAULT_TILE_BYTES
from repro.core.rabin import RabinFingerprinter
from repro.core.stats import reset_scan_counters, scan_counters
from repro.workloads import seeded_bytes

MASK = (1 << 13) - 1
MARKER = 0x1A2B & MASK
#: Small-geometry config so a few KiB of data crosses many tiles/seams.
SMALL = dict(lanes=16, tile_bytes=512)
MB = 1 << 20


def chunk_shape(chunks):
    return [(c.offset, c.length, c.digest) for c in chunks]


@lru_cache(maxsize=None)
def reference_cuts(size: int, seed: int, mask: int = MASK, marker: int = MARKER) -> list[int]:
    return SerialEngine().candidate_cuts(seeded_bytes(size, seed=seed), mask, marker)


@pytest.fixture(scope="module")
def serial() -> SerialEngine:
    return SerialEngine()


class TestTileSeamDifferential:
    """One-step-per-row geometries vs the pure-Python rolling reference."""

    @pytest.mark.parametrize("lanes", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_small_tiles(self, lanes, seed):
        data = seeded_bytes(16 * 1024, seed=seed)
        ve = VectorEngine(lanes=lanes, tile_bytes=512)
        assert ve.candidate_cuts(data, MASK, MARKER) == reference_cuts(16 * 1024, seed)

    def test_cut_exactly_on_seam(self, serial):
        """Put a tile seam exactly at (and around) a known cut."""
        data = seeded_bytes(32 * 1024, seed=7)
        cuts = serial.candidate_cuts(data, MASK, MARKER)
        assert cuts, "fixture data must contain at least one marker"
        w = serial.fingerprinter.window_size
        for cut in cuts[:3]:
            start = cut - w  # window-start offset of the marker window
            for tile in (start - 1, start, start + 1):
                if tile < 1:
                    continue
                # Seams land at multiples of ``tile`` in window-start space.
                ve = VectorEngine(lanes=8, tile_bytes=tile)
                assert ve.candidate_cuts(data, MASK, MARKER) == cuts

    def test_window_larger_than_tile(self, serial):
        data = seeded_bytes(8 * 1024, seed=11)
        w = serial.fingerprinter.window_size
        ve = VectorEngine(lanes=4, tile_bytes=w // 3)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_tiny_inputs(self, serial):
        ve = VectorEngine(lanes=4, tile_bytes=8)
        w = ve.window_size
        for n in (0, 1, w - 1, w, w + 1, w + 7):
            data = seeded_bytes(max(n, 1), seed=n)[:n]
            assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
                data, MASK, MARKER
            )

    def test_markerless_data(self, serial):
        # A constant-byte run yields one fingerprint for every window;
        # pick a byte whose fingerprint misses the marker.
        for fill in range(256):
            data = bytes([fill]) * 8192
            if not serial.candidate_cuts(data[:256], MASK, MARKER):
                break
        else:  # pragma: no cover - defensive
            raise AssertionError("every constant byte hits the marker")
        ve = VectorEngine(lanes=8, tile_bytes=256)
        assert ve.candidate_cuts(data, MASK, MARKER) == []

    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "memoryview", "ndarray"])
    def test_buffer_types_across_seams(self, kind):
        raw = seeded_bytes(12 * 1024, seed=9)
        data = {
            "bytes": raw,
            "bytearray": bytearray(raw),
            "memoryview": memoryview(raw),
            "ndarray": np.frombuffer(raw, dtype=np.uint8),
        }[kind]
        ve = VectorEngine(**SMALL)
        assert ve.candidate_cuts(data, MASK, MARKER) == reference_cuts(12 * 1024, 9)

    @pytest.mark.parametrize("steps", [1, 8])
    def test_wide_mask_across_seams(self, steps):
        """A mask past 16 bits records full-width fingerprints per row."""
        mask, marker = 0x10007, 0x10003
        data = seeded_bytes(16 * 1024, seed=19)
        ve = VectorEngine(roll_steps=steps, **SMALL)
        expect = reference_cuts(16 * 1024, 19, mask, marker)
        assert expect
        assert ve.candidate_cuts(data, mask, marker) == expect

    def test_chunker_end_to_end(self):
        """Full Chunker (min/max + digests) over a small-tile engine."""
        config = ChunkerConfig(min_size=512, max_size=4096)
        data = seeded_bytes(96 * 1024, seed=21)
        reference = Chunker(config, SerialEngine()).chunk(data)
        tiled = Chunker(config, VectorEngine(roll_steps=1, **SMALL)).chunk(data)
        assert chunk_shape(tiled) == chunk_shape(reference)


class TestFusedKernelAcrossSeams:
    """The fused S-row block across tile seams: seam-exact at any width,
    including seams that land in the middle of a block."""

    @pytest.mark.parametrize("lanes", [2, 4])
    @pytest.mark.parametrize("steps", [2, 8, 32])
    def test_fuzz_lanes_x_steps(self, lanes, steps):
        seed = steps * 7 + lanes
        data = seeded_bytes(24 * 1024, seed=seed)
        ve = VectorEngine(lanes=lanes, tile_bytes=512, roll_steps=steps)
        assert ve.candidate_cuts(data, MASK, MARKER) == reference_cuts(24 * 1024, seed)

    def test_cut_on_seam_fused(self, serial):
        """Seams placed exactly at (and around) known cuts, fused kernel."""
        data = seeded_bytes(32 * 1024, seed=7)
        cuts = serial.candidate_cuts(data, MASK, MARKER)
        assert cuts, "fixture data must contain at least one marker"
        w = serial.fingerprinter.window_size
        for cut in cuts[:2]:
            start = cut - w
            for tile in (start - 1, start, start + 1):
                if tile < 1:
                    continue
                ve = VectorEngine(lanes=8, tile_bytes=tile, roll_steps=8)
                assert ve.candidate_cuts(data, MASK, MARKER) == cuts

    def test_window_larger_than_tile_fused(self, serial):
        data = seeded_bytes(8 * 1024, seed=11)
        w = serial.fingerprinter.window_size
        ve = VectorEngine(lanes=4, tile_bytes=w // 3, roll_steps=32)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_chunker_end_to_end_fused(self):
        config = ChunkerConfig(min_size=512, max_size=4096)
        data = seeded_bytes(96 * 1024, seed=22)
        reference = Chunker(config, SerialEngine()).chunk(data)
        fused = Chunker(config, VectorEngine(roll_steps=8, **SMALL)).chunk(data)
        assert chunk_shape(fused) == chunk_shape(reference)


class TestGeometryContract:
    def test_defaulted_engine_uses_static_geometry(self):
        expect = (DEFAULT_LANES, DEFAULT_TILE_BYTES, DEFAULT_ROLL_STEPS)
        assert expect == (4096, MB, 8)
        for engine in (VectorEngine(), default_engine()):
            assert (engine.lanes, engine.tile_bytes, engine.roll_steps) == expect

    def test_explicit_engine_args_kept(self):
        engine = VectorEngine(lanes=64, tile_bytes=4096, roll_steps=1)
        assert (engine.lanes, engine.tile_bytes, engine.roll_steps) == (64, 4096, 1)

    @pytest.mark.parametrize("bad", [
        dict(lanes=0),
        dict(tile_bytes=0),
        dict(roll_steps=0),
        dict(fingerprinter=RabinFingerprinter(window_size=7)),
    ])
    def test_rejects_degenerate_geometry(self, bad):
        with pytest.raises(ValueError):
            VectorEngine(**bad)

    def test_pipeline_batches_independent_of_tile(self):
        """Batch boundaries set every probe and placement count
        downstream, so the scan tile must not move them."""
        config = ChunkerConfig(mask_bits=10, marker=0x1AB)
        assert _resolve_batch_chunks(ChunkerConfig()) == HASH_BATCH_BYTES // (8 << 10)
        assert _resolve_batch_chunks(ChunkerConfig(mask_bits=4, marker=1)) == 4096
        assert _resolve_batch_chunks(ChunkerConfig(mask_bits=24, marker=1)) == 32
        data = seeded_bytes(64 * 1024, seed=29)
        shapes = set()
        for tile in (64, 4096, MB):
            chunker = Chunker(config, VectorEngine(tile_bytes=tile))
            batches = pipeline_chunks(
                chunker.candidate_cuts, config, [data[:40000], data[40000:]],
                batch_chunks=9,
            )
            shapes.add(tuple(tuple(chunk_shape(b)) for b in batches))
        assert len(shapes) == 1


class TestScanCounters:
    """One 16 KiB scan at the production window (16337 positions):
    the counters carry the geometry that ran and its exact block count
    (per tile, ``ceil(w / S)`` seed blocks + ``ceil((rows - 1) / S)``
    roll blocks)."""

    @pytest.mark.parametrize("lanes, tile, steps, tiles, dispatches", [
        (16, 512, 8, 32, 449),
        (3, 1000, 1, 17, 6256),
        (64, 4096, 32, 4, 16),
        (DEFAULT_LANES, DEFAULT_TILE_BYTES, DEFAULT_ROLL_STEPS, 1, 14),
    ])
    def test_counters_report_geometry_and_blocks(self, lanes, tile, steps, tiles, dispatches):
        data = seeded_bytes(16 * 1024, seed=3)
        engine = VectorEngine(lanes=lanes, tile_bytes=tile, roll_steps=steps)
        reset_scan_counters()
        engine.candidate_cut_array(data, MASK, MARKER)
        counters = scan_counters()
        reset_scan_counters()
        assert counters.geometry == {"lanes": lanes, "tile_bytes": tile, "roll_steps": steps}
        assert counters.scans == 1
        assert counters.positions == len(data) - engine.window_size + 1
        assert counters.scanned_bytes == len(data)
        assert counters.tiles == tiles
        assert counters.dispatches == dispatches
