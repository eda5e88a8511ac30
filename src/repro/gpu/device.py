"""Simulated GPU device: global-memory buffers and kernel launches.

The device holds *real* data (NumPy arrays) so kernels compute real
results, while all timing is charged by the component models
(:mod:`repro.gpu.dma`, :mod:`repro.gpu.device_memory`).  This mirrors the
paper's split: correctness comes from the chunking algorithm, performance
from the memory system and scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from repro.gpu.device_memory import DeviceMemoryConfig
from repro.gpu.dma import DMAModel, Direction, MemoryType
from repro.gpu.specs import GPUSpec, TESLA_C2050

__all__ = ["DeviceBuffer", "GPUDevice", "DeviceMemoryError"]


class DeviceMemoryError(MemoryError):
    """Raised when a device allocation exceeds global-memory capacity."""


@dataclass
class DeviceBuffer:
    """A region of simulated device global memory.

    ``data`` is populated by :meth:`GPUDevice.upload`; ``valid_bytes``
    tracks how much of the buffer holds meaningful input (the final buffer
    of a stream is usually partially filled).
    """

    buffer_id: int
    size: int
    base_address: int
    data: np.ndarray | None = None
    valid_bytes: int = 0

    def view(self) -> np.ndarray:
        """The valid portion of the uploaded data."""
        if self.data is None:
            raise ValueError(f"device buffer {self.buffer_id} has no uploaded data")
        return self.data[: self.valid_bytes]


@dataclass
class GPUDevice:
    """One simulated GPU with its DMA engine and memory geometry."""

    spec: GPUSpec = TESLA_C2050
    memory_config: DeviceMemoryConfig = field(default_factory=DeviceMemoryConfig)

    def __post_init__(self) -> None:
        self.dma = DMAModel(self.spec)
        self._ids = count()
        self._allocated: dict[int, DeviceBuffer] = {}
        self._next_address = 0
        self.allocated_bytes = 0

    # -- global-memory management ------------------------------------------

    def alloc(self, size: int) -> DeviceBuffer:
        """Allocate ``size`` bytes of device global memory."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if self.allocated_bytes + size > self.spec.device_memory_bytes:
            raise DeviceMemoryError(
                f"device OOM: requested {size} with {self.allocated_bytes} of "
                f"{self.spec.device_memory_bytes} bytes in use"
            )
        buf = DeviceBuffer(next(self._ids), size, base_address=self._next_address)
        self._allocated[buf.buffer_id] = buf
        self._next_address += size
        self.allocated_bytes += size
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        stored = self._allocated.pop(buf.buffer_id, None)
        if stored is None:
            raise KeyError(f"device buffer {buf.buffer_id} is not allocated")
        self.allocated_bytes -= stored.size
        stored.data = None

    # -- DMA ------------------------------------------------------------------

    def upload(
        self,
        buf: DeviceBuffer,
        data: bytes | np.ndarray,
        memory_type: MemoryType = MemoryType.PINNED,
    ) -> float:
        """Copy host data into a device buffer; returns modeled seconds."""
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray, memoryview)) else np.asarray(data, dtype=np.uint8)
        if arr.size > buf.size:
            raise ValueError(
                f"upload of {arr.size} bytes exceeds buffer size {buf.size}"
            )
        if buf.data is None or buf.data.size < buf.size:
            buf.data = np.zeros(buf.size, dtype=np.uint8)
        buf.data[: arr.size] = arr
        buf.valid_bytes = arr.size
        return self.dma.transfer_time(arr.size, Direction.HOST_TO_DEVICE, memory_type)

    def download_time(
        self, size: int, memory_type: MemoryType = MemoryType.PINNED
    ) -> float:
        """Modeled seconds to move ``size`` result bytes back to the host."""
        return self.dma.transfer_time(size, Direction.DEVICE_TO_HOST, memory_type)

    # -- execution ---------------------------------------------------------

    def launch(self, kernel, buf: DeviceBuffer, **kwargs):
        """Launch a kernel over a device buffer.

        Charges the kernel-launch overhead and delegates to the kernel's
        ``run`` method, which returns ``(result, stats)``.
        """
        return kernel.run(self, buf, **kwargs)
