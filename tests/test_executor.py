"""Tests for the Shredder executor: the device round trip and its totals.

Chunk bit-identity to the serial reference is covered, with every other
entry point, by ``tests/test_scan_drivers.py``.
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.core.chunking import Chunker, ChunkerConfig
from repro.core.executor import ShredderExecutor
from repro.core.shredder import ShredderConfig
from tests.conftest import seeded_bytes

SMALL = ChunkerConfig(mask_bits=6, marker=0x2A)
BUFFER = 64 * 1024


def executor_for(cfg: ChunkerConfig, buffer_size: int = BUFFER) -> ShredderExecutor:
    return ShredderExecutor(
        ShredderConfig.gpu_streams_memory(chunker=cfg, buffer_size=buffer_size)
    )


def shape(chunks):
    return [(c.offset, c.length, c.digest) for c in chunks]


class TestShredderExecutor:
    def test_totals_count_buffers_and_bytes(self):
        data = seeded_bytes(300_000, seed=52)
        _, totals = executor_for(SMALL).run(data)
        assert totals.bytes == len(data)
        assert totals.buffers == -(-len(data) // BUFFER)

    @pytest.mark.parametrize("kind", ["ndarray", "mmap"])
    def test_buffer_protocol_input_taken_whole(self, kind, tmp_path):
        """Any buffer-protocol object is sliced into ``buffer_size``
        views — never iterated element by element — and the chunks are
        lazy views into it."""
        data = seeded_bytes(150_000, seed=57)
        if kind == "mmap":
            path = tmp_path / "input.bin"
            path.write_bytes(data)
            fh = path.open("rb")
            source = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            source = np.frombuffer(data, dtype=np.uint8)
        chunks, totals = executor_for(SMALL).run(source)
        assert shape(chunks) == shape(Chunker(SMALL).chunk(data))
        assert totals.buffers == -(-len(data) // BUFFER)
        assert all(c._data is None for c in chunks)  # no payload was copied
        if kind == "mmap":
            for c in chunks:
                c.release()  # drop the views so the map can close
            source.close()
            fh.close()

    def test_buffers_smaller_than_the_window(self):
        data = seeded_bytes(2_000, seed=58)
        chunks, totals = executor_for(SMALL, buffer_size=16).run(data)
        assert shape(chunks) == shape(Chunker(SMALL).chunk(data))
        assert totals.buffers == 125

    def test_empty_input(self):
        chunks, totals = executor_for(SMALL).run(b"")
        assert chunks == [] and totals.buffers == 0

    def test_device_memory_released(self):
        from repro.gpu import GPUDevice

        device = GPUDevice()
        executor = ShredderExecutor(
            ShredderConfig.gpu_streams_memory(chunker=SMALL, buffer_size=BUFFER),
            device=device,
        )
        executor.run(seeded_bytes(200_000, seed=55))
        assert device.allocated_bytes == 0

    def test_timing_totals_accumulate(self):
        data = seeded_bytes(200_000, seed=56)
        _, totals = executor_for(SMALL).run(data)
        assert totals.transfer_seconds > 0
        assert totals.kernel_seconds > 0

    def test_rejects_cpu_backend(self):
        with pytest.raises(ValueError, match="GPU"):
            ShredderExecutor(ShredderConfig.cpu())
