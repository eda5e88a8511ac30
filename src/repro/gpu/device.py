"""Simulated GPU device: the spec, memory geometry and DMA engine one
modeled GPU prices its work with.

The device holds no data.  Chunks are computed on the host by the scan
driver; every modeled second is charged by the component models
(:mod:`repro.gpu.dma`, :mod:`repro.gpu.device_memory`) that
:meth:`repro.core.shredder.Shredder.simulate` and the figure scripts
call.  This mirrors the paper's split: correctness comes from the
chunking algorithm, performance from the memory system and scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.device_memory import DeviceMemoryConfig
from repro.gpu.dma import DMAModel, Direction, MemoryType
from repro.gpu.specs import GPUSpec, TESLA_C2050

__all__ = ["GPUDevice"]


@dataclass
class GPUDevice:
    """One simulated GPU with its DMA engine and memory geometry."""

    spec: GPUSpec = TESLA_C2050
    memory_config: DeviceMemoryConfig = field(default_factory=DeviceMemoryConfig)

    def __post_init__(self) -> None:
        self.dma = DMAModel(self.spec)

    def download_time(
        self, size: int, memory_type: MemoryType = MemoryType.PINNED
    ) -> float:
        """Modeled seconds to move ``size`` result bytes back to the host."""
        return self.dma.transfer_time(size, Direction.DEVICE_TO_HOST, memory_type)
