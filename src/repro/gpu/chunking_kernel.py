"""The content-based chunking kernel (§3.1, §4.3, §5.2.2).

The kernel divides a device buffer into equal sub-streams, one per thread;
each thread computes a sliding-window Rabin fingerprint over its
sub-stream (plus a ``window-1`` byte overlap into its neighbour) and
records a boundary wherever the masked fingerprint equals the marker.

Correctness: boundaries are computed for real by the shared NumPy engine
(bit-identical to the host chunker — the windows evaluated are the same
regardless of which thread evaluates them).

Timing: a roofline of the two resources the paper identifies —

* *compute*: ``cycles_per_byte`` per thread across all scalar processors,
  inflated by warp divergence when boundary hits make threads branch
  (§5.2.2 "Warp divergence"), and by the sub-stream overlap bytes;
* *memory*: the banked device-memory model run over a representative
  access trace for the configured fetch strategy (naive strided vs
  half-warp coalesced, §4.3).

The kernel is memory-bound without coalescing and compute-bound with it,
which is exactly the transition Figure 11 measures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.chunking import ChunkerConfig
from repro.core.engines import VectorEngine, default_engine
from repro.gpu import coalescing
from repro.gpu.device import DeviceBuffer, GPUDevice
from repro.gpu.device_memory import DeviceMemoryConfig, DeviceMemoryModel

__all__ = ["KernelStats", "ChunkingKernel", "divergence_factor"]


def divergence_factor(
    boundary_fraction: float, warp_size: int = 32, restructured: bool = True
) -> float:
    """Warp-divergence slowdown multiplier.

    When a thread finds a boundary it takes a data-dependent branch; the
    warp serializes until all threads reconverge.  The restructured kernel
    (§5.2.2) keeps the divergent path to a couple of instructions, so the
    penalty is proportional to the boundary fraction; the unrestructured
    kernel serializes the whole warp on every divergent window.
    """
    if not 0.0 <= boundary_fraction <= 1.0:
        raise ValueError(f"boundary fraction must be in [0, 1], got {boundary_fraction}")
    if restructured:
        return 1.0 + boundary_fraction
    return 1.0 + boundary_fraction * (warp_size - 1)


@dataclass(frozen=True)
class KernelStats:
    """Timing breakdown of one kernel execution."""

    bytes_processed: int
    kernel_seconds: float
    compute_limit_bps: float
    memory_limit_bps: float
    memory_bytes_per_cycle: float
    transactions: int
    bank_conflict_rate: float
    coalesced: bool
    divergence: float
    launch_overhead_s: float

    @property
    def throughput_bps(self) -> float:
        if self.kernel_seconds == 0:
            return 0.0
        return self.bytes_processed / self.kernel_seconds

    @property
    def memory_bound(self) -> bool:
        return self.memory_limit_bps < self.compute_limit_bps


@functools.lru_cache(maxsize=64)
def _memory_stats(memory: DeviceMemoryConfig, n: int, threads: int, coalesced: bool):
    """The (pure) memory model over the fetch trace, priced once per key."""
    trace = coalescing.coalesced_trace if coalesced else coalescing.naive_trace
    return DeviceMemoryModel(memory).simulate(trace(n, threads))


class ChunkingKernel:
    """Simulated GPU chunking kernel.

    Parameters
    ----------
    config:
        Chunking parameters (window, mask, marker).  min/max are *not*
        applied here — the GPU returns raw candidate boundaries and the
        Store thread post-filters them (§7.3).
    threads_per_sp:
        Resident threads per scalar processor (occupancy); the paper's
        kernel launches many more threads than SPs to hide latency.
    cycles_per_byte:
        Per-thread cost of one sliding-window step: two table lookups,
        shift/mask/xor, marker compare and loop bookkeeping, with the
        loop-unrolled, RAW-avoiding instruction scheduling of §5.2.2.
    restructured:
        Whether the divergence-minimizing restructuring of §5.2.2 is on.
    """

    def __init__(
        self,
        config: ChunkerConfig | None = None,
        engine: VectorEngine | None = None,
        threads_per_sp: int = 8,
        cycles_per_byte: float = 55.0,
        restructured: bool = True,
    ) -> None:
        self.config = config or ChunkerConfig()
        self.engine = engine or default_engine()
        if self.engine.window_size != self.config.window_size:
            raise ValueError("engine window size does not match chunker config")
        if threads_per_sp < 1:
            raise ValueError("threads_per_sp must be >= 1")
        self.threads_per_sp = threads_per_sp
        self.cycles_per_byte = cycles_per_byte
        self.restructured = restructured

    def thread_count(self, device: GPUDevice) -> int:
        return device.spec.total_sps * self.threads_per_sp

    def occupancy_report(self, device: GPUDevice, coalesced: bool = True):
        """Resident blocks/warps per SM for this kernel's resource usage.

        The coalesced kernel stages a full 48 KB tile in shared memory, so
        shared memory limits it to one block per SM; the naive kernel uses
        no shared memory and is limited by warp slots.  The timing
        calibration (``cycles_per_byte``) absorbs the resulting latency-
        hiding difference; this report exposes *why*.
        """
        from repro.gpu.occupancy import KernelResources, occupancy

        resources = KernelResources(
            shared_memory_per_block=device.spec.shared_memory_per_sm if coalesced else 0
        )
        return occupancy(resources, device.spec)

    # ------------------------------------------------------------------

    def run(
        self, device: GPUDevice, buf: DeviceBuffer, coalesced: bool = True
    ) -> tuple[list[int], KernelStats]:
        """Execute the kernel over a device buffer.

        Returns ``(candidate_cuts, stats)`` where cuts are exclusive end
        offsets within the buffer (min/max-agnostic).  The device buffer
        is scanned through its NumPy view — zero copies — via the
        engine's striped data-parallel path, which is the same
        lane-per-sub-stream layout the real kernel uses (§3.1).
        """
        data = buf.view()
        n = int(data.size)
        cut_array = self.engine.candidate_cut_array(
            data, self.config.mask, self.config.marker
        )
        stats = self.estimate(
            device, n, boundary_count=int(cut_array.size), coalesced=coalesced
        )
        return cut_array.tolist(), stats

    def estimate(
        self,
        device: GPUDevice,
        n: int,
        boundary_count: int = 0,
        coalesced: bool = True,
    ) -> KernelStats:
        """Timing model only (no data needed): cost of chunking ``n`` bytes."""
        spec = device.spec
        threads = self.thread_count(device)
        if n == 0:
            return KernelStats(0, spec.kernel_launch_overhead_s, 0.0, 0.0, 0.0, 0,
                               0.0, coalesced, 1.0, spec.kernel_launch_overhead_s)

        # -- compute roofline ------------------------------------------------
        windows = max(1, n - self.config.window_size + 1)
        boundary_fraction = min(1.0, boundary_count / windows)
        div = divergence_factor(boundary_fraction, spec.warp_size, self.restructured)
        # Each thread re-scans window-1 bytes of overlap into its neighbour.
        scanned = n + threads * (self.config.window_size - 1)
        compute_cycles = scanned * self.cycles_per_byte * div / spec.total_sps
        compute_bps = n / compute_cycles * spec.clock_hz

        # -- memory roofline -------------------------------------------------
        mem_stats = _memory_stats(device.memory_config, n, threads, coalesced)
        mem_bpc = mem_stats.bytes_per_cycle
        memory_cycles = n / mem_bpc if mem_bpc > 0 else float("inf")
        memory_bps = n / memory_cycles * spec.clock_hz

        # Warp scheduling overlaps compute with outstanding memory requests,
        # so the kernel runs at the tighter of the two limits.
        seconds = max(compute_cycles, memory_cycles) / spec.clock_hz
        seconds += spec.kernel_launch_overhead_s
        return KernelStats(
            bytes_processed=n,
            kernel_seconds=seconds,
            compute_limit_bps=compute_bps,
            memory_limit_bps=memory_bps,
            memory_bytes_per_cycle=mem_bpc,
            transactions=mem_stats.transactions,
            bank_conflict_rate=mem_stats.bank_conflict_rate,
            coalesced=coalesced,
            divergence=div,
            launch_overhead_s=spec.kernel_launch_overhead_s,
        )
