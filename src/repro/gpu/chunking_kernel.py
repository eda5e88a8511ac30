"""The content-based chunking kernel's timing model (§3.1, §4.3, §5.2.2).

The kernel divides a device buffer into equal sub-streams, one per thread;
each thread computes a sliding-window Rabin fingerprint over its
sub-stream (plus a ``window-1`` byte overlap into its neighbour) and
records a boundary wherever the masked fingerprint equals the marker.

Correctness is not modeled here: the boundaries come from the host scan
driver (:func:`repro.core.chunking.stream_chunks`), bit-identical to the
serial reference — the windows evaluated are the same regardless of
which thread evaluates them.  This module prices the kernel only.

Timing: a roofline of the two resources the paper identifies —

* *compute*: ``CYCLES_PER_BYTE`` per thread across all scalar processors,
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

from repro.core.chunking import ChunkerConfig
from repro.gpu import coalescing
from repro.gpu.device import GPUDevice
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
    """Timing model of the GPU chunking kernel.

    ``config`` gives the chunking parameters (window, mask, marker).
    min/max are *not* applied here — the GPU returns raw candidate
    boundaries and the Store thread post-filters them (§7.3).
    """

    #: Resident threads per scalar processor (occupancy); the paper's
    #: kernel launches many more threads than SPs to hide latency.
    THREADS_PER_SP = 8
    #: Per-thread cost of one sliding-window step: two table lookups,
    #: shift/mask/xor, marker compare and loop bookkeeping, with the
    #: loop-unrolled, RAW-avoiding instruction scheduling of §5.2.2.
    CYCLES_PER_BYTE = 55.0
    #: The divergence-minimizing restructuring of §5.2.2 is on.
    RESTRUCTURED = True

    def __init__(self, config: ChunkerConfig | None = None) -> None:
        self.config = config or ChunkerConfig()

    def thread_count(self, device: GPUDevice) -> int:
        return device.spec.total_sps * self.THREADS_PER_SP

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
        div = divergence_factor(boundary_fraction, spec.warp_size, self.RESTRUCTURED)
        # Each thread re-scans window-1 bytes of overlap into its neighbour.
        scanned = n + threads * (self.config.window_size - 1)
        compute_cycles = scanned * self.CYCLES_PER_BYTE * div / spec.total_sps
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
