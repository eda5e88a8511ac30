"""Host-only parallel content-based chunking (§5.1).

The paper's CPU baseline: POSIX-thread SPMD chunking.  The input is
divided into fixed-size regions, each thread runs the Rabin chunking scan
over its region (overlapping ``window - 1`` bytes into the neighbour so
no boundary straddling a region edge is missed), and neighbouring results
are merged.

Two parts:

* a *real* parallel scan (``ThreadPoolExecutor`` over the NumPy engine,
  which releases the GIL in its gather loops) whose merged output is
  bit-identical to a sequential scan — this is the correctness-critical
  algorithm;
* a *cost model* reproducing the effect the paper measures in Fig. 12:
  with glibc ``malloc``, per-chunk allocations serialize on a global lock
  and throttle all 12 threads; the Hoard allocator removes the
  contention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chunking import Chunker, ChunkerConfig
from repro.core.engines import Engine, parallel_candidate_cuts
from repro.gpu.specs import HostSpec, XEON_X5650_HOST

__all__ = ["AllocatorModel", "MALLOC", "HOARD", "HostParallelChunker"]


@dataclass(frozen=True)
class AllocatorModel:
    """Cost model for per-chunk dynamic allocation under contention.

    ``per_alloc_seconds`` is the uncontended cost of one allocation;
    ``contention(threads)`` multiplies it when several chunking threads
    allocate concurrently.  glibc ``malloc`` serializes on an arena lock
    (§5.1: "dynamic memory allocation can become a bottleneck due to the
    serialization required to avoid race conditions"); Hoard gives each
    thread its own heap.
    """

    name: str
    per_alloc_seconds: float
    lock_serialization: float  # fraction of allocations hitting the global lock

    def contention(self, threads: int) -> float:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return 1.0 + self.lock_serialization * (threads - 1)


MALLOC = AllocatorModel("malloc", per_alloc_seconds=1e-6, lock_serialization=0.5)
HOARD = AllocatorModel("hoard", per_alloc_seconds=1e-6, lock_serialization=0.01)


class HostParallelChunker(Chunker):
    """SPMD parallel chunker with neighbour merge (the pthreads library).

    A :class:`Chunker` whose candidate scan is the region-parallel one;
    cut selection, chunk assembly and streaming are inherited.
    Parameters mirror the paper's setup: 12 threads on the Xeon host,
    optional Hoard allocator.
    """

    def __init__(
        self,
        config: ChunkerConfig | None = None,
        threads: int = 12,
        allocator: AllocatorModel = HOARD,
        engine: Engine | None = None,
        host: HostSpec = XEON_X5650_HOST,
    ) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        super().__init__(config, engine)
        self.threads = threads
        self.allocator = allocator
        self.host = host

    # -- real parallel algorithm --------------------------------------------

    def candidate_cut_array(self, data) -> np.ndarray:
        """Marker positions found by the SPMD scan (merged, sorted).

        The region split with ``window - 1`` overlap and seam-exact
        merge lives in :func:`repro.core.engines.parallel_candidate_cuts`
        — the same implementation ``VectorEngine``'s threaded scan uses,
        so the paper's host-parallel model and the real engine cannot
        drift apart.  Regions run on the shared scan pool (one pool per
        process, not one per call).
        """
        return parallel_candidate_cuts(
            self.engine, data, self.config.mask, self.config.marker, self.threads
        )

    # -- cost model (Fig. 12 CPU bars) ---------------------------------------

    def estimate_seconds(self, n_bytes: int, n_chunks: int | None = None) -> float:
        """Modeled wall time to chunk ``n_bytes`` on the host.

        Scan cost scales with per-core fingerprinting bandwidth; each
        emitted chunk costs one allocation under the configured allocator's
        contention model.  A small merge/synchronization term covers the
        neighbour-merge barrier.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_chunks is None:
            n_chunks = max(1, n_bytes // self.config.expected_chunk_size)
        scan = n_bytes / (self.host.core_chunking_bandwidth * self.threads)
        alloc = n_chunks * self.allocator.per_alloc_seconds * self.allocator.contention(
            self.threads
        )
        merge = self.threads * 5e-6
        return scan + alloc + merge

    def throughput_bps(self, n_bytes: int = 1 << 30) -> float:
        """Modeled chunking bandwidth (bytes/s) for an ``n_bytes`` stream."""
        return n_bytes / self.estimate_seconds(n_bytes)
