"""Hardware specifications for the simulated platform (paper Table 1).

The paper's testbed is an NVidia Tesla C2050 (Fermi) attached over PCIe
to a 12-core Intel Xeon X5650 host.  Every simulator component takes its
parameters from these dataclasses, so alternative GPUs or hosts can be
modeled by constructing different specs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "HostSpec", "TESLA_C2050", "XEON_X5650_HOST", "table1_rows"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of a GPU device (defaults: Tesla C2050, paper §5.3)."""

    name: str = "NVidia Tesla C2050"
    num_sms: int = 14
    sps_per_sm: int = 32
    clock_hz: float = 1.15e9
    gflops: float = 1030.0
    #: Peak global-memory bandwidth (Table 1: 144 GBps).
    device_memory_bandwidth: float = 144e9
    #: Global-memory access latency range in cycles (Table 1: 400-600).
    device_memory_latency_cycles: tuple[int, int] = (400, 600)
    warp_size: int = 32
    #: Effective PCIe DMA bandwidth (Table 1: 5.406 / 5.129 GBps).
    h2d_bandwidth: float = 5.406e9
    d2h_bandwidth: float = 5.129e9
    #: Kernel launch overhead observed by the host (Table 2: ~0.03 ms for
    #: small buffers, rising slightly with grid size).
    kernel_launch_overhead_s: float = 30e-6

    @property
    def total_sps(self) -> int:
        return self.num_sms * self.sps_per_sm

    @property
    def half_warp(self) -> int:
        return self.warp_size // 2


@dataclass(frozen=True)
class HostSpec:
    """Parameters of the host machine (paper §5.3)."""

    name: str = "2x Intel Xeon X5650"
    cores: int = 12
    clock_hz: float = 2.67e9
    memory_bytes: int = 48 * GB
    #: Reader (I/O) bandwidth from the SAN (Table 1: 2 GBps).
    reader_bandwidth: float = 2e9
    page_size: int = 4 * KB
    #: Sustained single-core chunking throughput for the optimized
    #: pthreads implementation (calibrated so 12 threads with the Hoard
    #: allocator reach the ~0.4 GBps of Fig. 12).
    core_chunking_bandwidth: float = 29e6


TESLA_C2050 = GPUSpec()
XEON_X5650_HOST = HostSpec()


def table1_rows(gpu: GPUSpec = TESLA_C2050, host: HostSpec = XEON_X5650_HOST):
    """Rows of the paper's Table 1 (parameter, value) for the given specs."""
    lat_lo, lat_hi = gpu.device_memory_latency_cycles
    return [
        ("GPU Processing Capacity", f"{gpu.gflops:.0f} GFlops"),
        ("Reader (I/O) Bandwidth", f"{host.reader_bandwidth / 1e9:.0f} GBps"),
        ("Host-to-Device Bandwidth", f"{gpu.h2d_bandwidth / 1e9:.3f} GBps"),
        ("Device-to-Host Bandwidth", f"{gpu.d2h_bandwidth / 1e9:.3f} GBps"),
        ("Device Memory Latency", f"{lat_lo} - {lat_hi} cycles"),
        ("Device Memory Bandwidth", f"{gpu.device_memory_bandwidth / 1e9:.0f} GBps"),
        ("Shared Memory Latency", "L1 latency (a few cycles)"),
    ]
