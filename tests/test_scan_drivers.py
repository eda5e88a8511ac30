"""The one scan driver and every entry point configured from it.

* one table-driven differential: every chunking entry point against the
  ``SerialEngine`` + ``select_cuts`` reference, over adversarial buffer
  splits and chunker configs;
* the stitch contract of ``stream_chunks`` itself (when an end-of-data
  cut may be emitted), fuzzed with arbitrary candidate placements;
* ``pipeline_chunks`` reads no further ahead than the batch it builds;
* the backup server's two engines agree over the same table.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backup import BackupConfig, BackupServer
from repro.core import (
    Chunker,
    ChunkerConfig,
    HostParallelChunker,
    Shredder,
    ShredderConfig,
    pipeline_chunks,
    select_cuts,
)
from repro.core.chunking import stream_chunks
from tests.conftest import chunk_shape, reference_chunks, seeded_bytes

# Every test here runs with the native scan kernel and with the NumPy fallback.
pytestmark = pytest.mark.usefixtures("scan_kernel")

W = 8  # window of the even-window configs below
MAX = 256

CONFIGS = {
    "default-limits": ChunkerConfig(window_size=W, mask_bits=5, marker=0x0B),
    "min-max": ChunkerConfig(
        window_size=W, mask_bits=5, marker=0x0B, min_size=16, max_size=MAX
    ),
    # Odd window: every driver falls back to SerialEngine for the scan.
    "odd-window": ChunkerConfig(
        window_size=7, mask_bits=5, marker=0x0B, min_size=16, max_size=MAX
    ),
}

#: Buffer sizes, cycled over the stream.
SPLITS = {
    "whole": [1 << 20],
    "empty-buffers": [0, 5, 0, 0, 300, 0],
    "one-byte": [1],
    "w-2": [W - 2],
    "w-1": [W - 1],
    "w": [W],
    "over-max": [3 * MAX + 1],
    "mixed": [0, 1, W - 1, W, 1000, 0, W - 2],
}


def split(data: bytes, sizes: list[int]) -> list[bytes]:
    out, pos, i = [], 0, 0
    while pos < len(data):
        size = sizes[i % len(sizes)]
        out.append(data[pos : pos + size])
        pos += size
        i += 1
    return out + [b""]  # a trailing empty buffer is always legal


def flat(batches) -> list:
    return [chunk for batch in batches for chunk in batch]


def _shredder_config(backend: str, cfg: ChunkerConfig, sizes: list[int]) -> ShredderConfig:
    # The facade re-buffers its input, so the adversarial split is its
    # buffer_size; the pieces (empties included) exercise the re-buffer.
    return ShredderConfig(
        backend=backend, chunker=cfg, buffer_size=min(s for s in sizes if s)
    )


def _pipeline(cfg, data, sizes):
    return flat(
        pipeline_chunks(
            Chunker(cfg).candidate_cuts, cfg, split(data, sizes), batch_chunks=5
        )
    )


def _shredder(backend: str, method):
    def run(cfg, data, sizes):
        with Shredder(_shredder_config(backend, cfg, sizes)) as shredder:
            return method(shredder, iter(split(data, sizes)))

    return run


def _shredder_whole(backend: str):
    """The facade handed one buffer: it slices ``buffer_size`` views
    off it instead of re-buffering an iterable."""

    def run(cfg, data, sizes):
        with Shredder(_shredder_config(backend, cfg, sizes)) as shredder:
            return shredder.chunk(data)

    return run


def _shredder_whole_batches(backend: str):
    """The facade's batched path handed one buffer, as the backup
    server and the service client call it."""

    def run(cfg, data, sizes):
        with Shredder(_shredder_config(backend, cfg, sizes)) as shredder:
            return flat(shredder.pipeline_batches(data, batch_chunks=5))

    return run


def _process(shredder, pieces):
    return shredder.process(pieces)[0]


def _batches(shredder, pieces):
    return flat(shredder.pipeline_batches(pieces, batch_chunks=5))


DRIVERS = {
    "Chunker.chunk": lambda cfg, data, sizes: Chunker(cfg).chunk(data),
    "Chunker.chunk_stream": lambda cfg, data, sizes: list(
        Chunker(cfg).chunk_stream(split(data, sizes))
    ),
    "pipeline_chunks": _pipeline,
    "Shredder.process[gpu]": _shredder("gpu", _process),
    "Shredder.process[cpu]": _shredder("cpu", _process),
    "Shredder.pipeline_batches[gpu]": _shredder("gpu", _batches),
    "Shredder.pipeline_batches[cpu]": _shredder("cpu", _batches),
    "Shredder.chunk[gpu]": _shredder_whole("gpu"),
    "Shredder.chunk[cpu]": _shredder_whole("cpu"),
    "Shredder.pipeline_batches[gpu,whole]": _shredder_whole_batches("gpu"),
    "Shredder.pipeline_batches[cpu,whole]": _shredder_whole_batches("cpu"),
    "HostParallelChunker.chunk": lambda cfg, data, sizes: HostParallelChunker(
        cfg, threads=3
    ).chunk(data),
}


class TestEveryDriverMatchesSerialReference:
    DATA = seeded_bytes(3000, seed=61)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_bit_identical_over_adversarial_splits(self, driver, config):
        cfg = CONFIGS[config]
        expected = reference_chunks(cfg, self.DATA)
        for name, sizes in SPLITS.items():
            chunks = DRIVERS[driver](cfg, self.DATA, sizes)
            assert chunk_shape(chunks) == expected, name
            assert b"".join(c.data for c in chunks) == self.DATA, name

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_empty_stream(self, driver):
        assert DRIVERS[driver](CONFIGS["min-max"], b"", [4]) == []


def _backup(engine: str, cfg: ChunkerConfig, data: bytes, buffer_size: int) -> tuple:
    """One backup + restore; the split is the facade's buffer size."""
    with BackupServer(BackupConfig(engine=engine, chunker=cfg)) as server:
        server.shredder.close()
        server.shredder = Shredder(replace(server.shredder.config, buffer_size=buffer_size))
        report = server.backup_snapshot(data, "s")
        assert server.agent.restore("s") == data
        digests = list(server.agent.store.get_recipe("s").digests)
    return report.n_chunks, report.duplicate_chunks, report.shipped_bytes, digests


class TestBackupEnginesAgree:
    """``engine="cpu"`` (a serial ``HostParallelChunker``) and
    ``engine="gpu"`` back up to the same chunks, digests and recipes."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_same_recipes_over_adversarial_splits(self, config):
        cfg = CONFIGS[config]
        data = TestEveryDriverMatchesSerialReference.DATA
        expected = [digest for _, _, digest in reference_chunks(cfg, data)]
        for name, sizes in SPLITS.items():
            buffer_size = min(s for s in sizes if s)
            gpu = _backup("gpu", cfg, data, buffer_size)
            assert gpu == _backup("cpu", cfg, data, buffer_size), name
            assert gpu[3] == expected, name


# ---------------------------------------------------------------------------
# stream_chunks: the only min/max stitcher

BAR = ord("|")
STITCH_W = 4
BAR_CFG = ChunkerConfig(window_size=STITCH_W, mask_bits=6, marker=0x2A)


def bar_cuts(data) -> list[int]:
    """Fake marker scan: a window matches iff its last byte is ``|``."""
    view = bytes(data)
    return [c for c in range(STITCH_W, len(view) + 1) if view[c - 1] == BAR]


def with_bars(length: int, cuts) -> bytes:
    raw = bytearray(b"a" * length)
    for cut in cuts:
        raw[cut - 1] = BAR
    return bytes(raw)


def stitch_events(cfg: ChunkerConfig, buffers: list[bytes]) -> list[tuple]:
    """Interleaving of buffer pulls and chunk emissions."""
    events: list[tuple] = []

    def feed():
        for i, buf in enumerate(buffers):
            events.append(("pull", i))
            yield buf

    for chunk in stream_chunks(bar_cuts, cfg, feed()):
        events.append(("chunk", chunk.offset, chunk.length))
    return events


class TestStitchContract:
    def test_end_of_data_cut_held_until_confirmed(self):
        """50 bytes without a marker may continue: nothing is emitted
        until the next buffer shows where the chunk really ends."""
        data = with_bars(100, [60])
        events = stitch_events(BAR_CFG, [data[:50], data[50:]])
        assert events == [("pull", 0), ("pull", 1), ("chunk", 0, 60), ("chunk", 60, 40)]

    def test_real_candidate_at_end_of_data_emitted_at_once(self):
        data = with_bars(100, [50])
        events = stitch_events(BAR_CFG, [data[:50], data[50:]])
        assert events == [("pull", 0), ("chunk", 0, 50), ("pull", 1), ("chunk", 50, 50)]

    def test_exact_max_size_at_end_of_data(self):
        cfg = BAR_CFG.with_limits(0, 50)
        data = with_bars(120, [])
        events = stitch_events(cfg, [data[:50], data[50:]])
        assert [e for e in events if e[0] == "chunk"] == [
            ("chunk", 0, 50), ("chunk", 50, 50), ("chunk", 100, 20),
        ]

    @given(
        candidates=st.lists(st.integers(STITCH_W, 500), max_size=40),
        min_size=st.integers(0, 50),
        max_gap=st.integers(50, 200) | st.none(),
        splits=st.lists(st.integers(1, 499), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_select_cuts(self, candidates, min_size, max_gap, splits):
        """Stitching buffer-by-buffer == whole-stream sequential select,
        for arbitrary (dense, adjacent, seam-straddling) candidates."""
        length = 500
        cands = sorted(set(candidates))
        cfg = BAR_CFG.with_limits(min_size, max_gap)
        data = with_bars(length, cands)
        edges = [0] + sorted(set(splits)) + [length]
        buffers = [data[a:b] for a, b in zip(edges, edges[1:])]
        chunks = list(stream_chunks(bar_cuts, cfg, buffers))
        assert [c.end for c in chunks] == select_cuts(cands, length, min_size, max_gap)
        assert b"".join(c.data for c in chunks) == data


# ---------------------------------------------------------------------------
# pipeline_chunks: nothing runs ahead of the consumer


class TestPipelineReadsOnDemand:
    @pytest.mark.parametrize("batch_chunks", [1, 4, 7])
    def test_reads_no_buffer_ahead_of_the_consumer(self, batch_chunks):
        """A slow consumer holds the stream: the buffers behind a batch
        are read only when the consumer asks for that batch, and the
        last, short batch reads nothing past the stream's end."""
        n_buffers = 60
        pulled = 0

        def feed():
            nonlocal pulled
            for _ in range(n_buffers):
                pulled += 1
                yield b"a" * 19 + b"|"  # exactly one chunk per buffer

        consumed = 0
        for batch in pipeline_chunks(bar_cuts, BAR_CFG, feed(), batch_chunks=batch_chunks):
            assert len(batch) == min(batch_chunks, n_buffers - consumed)
            consumed += len(batch)
            assert pulled == consumed
        assert consumed == n_buffers
