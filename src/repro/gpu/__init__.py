"""Modeled GPU substrate: a Tesla C2050 cost model parameterized by Table 1.

Nothing here executes or holds data: ``repro.core.shredder.Shredder.simulate``
and the figure scripts price DMA, device memory, the chunking kernel and
the pipeline schedule through these models.
"""

from repro.gpu.chunking_kernel import ChunkingKernel, KernelStats, divergence_factor
from repro.gpu.coalescing import coalesce_half_warp, coalesced_trace, is_coalescable, naive_trace
from repro.gpu.device import GPUDevice
from repro.gpu.device_memory import AccessStats, DeviceMemoryConfig, DeviceMemoryModel
from repro.gpu.dma import DMAModel, DMATransfer, Direction, MemoryType
from repro.gpu.host_memory import HostAllocation, HostMemoryModel
from repro.gpu.specs import GPUSpec, HostSpec, TESLA_C2050, XEON_X5650_HOST, table1_rows
from repro.gpu.timeline import (
    PhaseCosts,
    ScheduleResult,
    double_buffered_schedule,
    pipeline_schedule,
    serialized_schedule,
    spare_host_cycles,
)

__all__ = [
    "ChunkingKernel", "KernelStats", "divergence_factor",
    "coalesce_half_warp", "coalesced_trace", "is_coalescable", "naive_trace",
    "GPUDevice",
    "AccessStats", "DeviceMemoryConfig", "DeviceMemoryModel",
    "DMAModel", "DMATransfer", "Direction", "MemoryType",
    "HostAllocation", "HostMemoryModel",
    "GPUSpec", "HostSpec", "TESLA_C2050", "XEON_X5650_HOST", "table1_rows",
    "PhaseCosts", "ScheduleResult", "double_buffered_schedule",
    "pipeline_schedule", "serialized_schedule", "spare_host_cycles",
]
