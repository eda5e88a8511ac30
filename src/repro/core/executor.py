"""Shredder executor: the host driver of §5.2.1 moving real bytes.

:class:`ShredderExecutor` is the one scan driver
(:func:`~repro.core.chunking.pipeline_chunks` over the
:class:`~repro.core.shredder.Shredder` buffer splitter) configured with
a ``candidate_fn`` that goes through the simulated GPU: for every
buffer the Store thread asks about, it allocates a device buffer,
uploads the bytes, launches the chunking kernel, collects the
*candidate* cuts and frees the buffer.  Reader, min/max stitch across
buffer boundaries, batched hashing and stage overlap are the driver's;
the executor owns only the device round trip and the modeled per-stage
times it accumulates in :class:`ExecutionTotals`.

The emitted chunks are bit-identical to ``Chunker.chunk_stream``
(tested), demonstrating that the paper's decomposition — data-parallel
candidate scan on the device, sequential min/max stitch on the host —
loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chunking import Chunk, pipeline_chunks
from repro.core.shredder import Shredder, ShredderConfig
from repro.gpu.device import GPUDevice
from repro.gpu.dma import MemoryType

__all__ = ["ShredderExecutor", "ExecutionTotals"]


@dataclass
class ExecutionTotals:
    """Aggregated modeled stage times over one execution."""

    buffers: int = 0
    bytes: int = 0
    transfer_seconds: float = 0.0
    kernel_seconds: float = 0.0


class ShredderExecutor:
    """Run the Shredder data path through the simulated device."""

    def __init__(
        self, config: ShredderConfig | None = None, device: GPUDevice | None = None
    ) -> None:
        self.config = config or ShredderConfig()
        if self.config.backend != "gpu":
            raise ValueError("the executor drives the GPU backend")
        self._shredder = Shredder(self.config, device=device)
        self.device = self._shredder.device
        self.kernel = self._shredder.kernel

    def run(self, data) -> tuple[list[Chunk], ExecutionTotals]:
        """Execute; returns chunks identical to ``Chunker.chunk_stream``.

        ``data`` is any buffer-protocol object (sliced zero-copy; the
        chunks are lazy views into it) or an iterable of byte pieces.
        """
        totals = ExecutionTotals()

        def read():
            for buf in self._shredder._buffers(data):
                totals.buffers += 1
                totals.bytes += len(buf)
                yield buf

        def device_candidates(piece) -> list[int]:
            buf = self.device.alloc(len(piece))
            try:
                totals.transfer_seconds += self.device.upload(
                    buf, piece, MemoryType.PINNED
                )
                cuts, stats = self.device.launch(
                    self.kernel, buf, coalesced=self.config.coalesced_memory
                )
            finally:
                self.device.free(buf)
            totals.kernel_seconds += stats.kernel_seconds
            return cuts

        batches = pipeline_chunks(
            device_candidates,
            self.config.chunker,
            read(),
            queue_depth=self.config.ring_slots,
        )
        return [chunk for batch in batches for chunk in batch], totals
