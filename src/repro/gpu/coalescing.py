"""Memory-coalescing rules and access-trace generators (§4.3, Fig. 10).

The paper's fourth optimization replaces the naive access pattern — each
GPU thread strides through its own sub-stream of the input — with a
*thread cooperation* scheme: the threads of a half-warp jointly fetch one
data block at a time into shared memory as contiguous, aligned,
non-conflicting requests, then process their blocks from shared memory.

This module provides:

* :func:`is_coalescable` — the manufacturer's three conditions quoted in
  §4.3 (element size 4/8/16; Nth thread accesses Nth element; 16-byte
  aligned base);
* trace generators producing representative memory-transaction streams
  for the naive pattern (the rule applied per half-warp) and the
  cooperative one (coalesced by construction; tests check it against the
  rule), to be costed by :class:`repro.gpu.device_memory.DeviceMemoryModel`.
"""

from __future__ import annotations

from repro.gpu.device_memory import Transaction

__all__ = [
    "is_coalescable",
    "coalesce_half_warp",
    "naive_trace",
    "coalesced_trace",
]

HALF_WARP = 16
COALESCE_ALIGNMENT = 16
VALID_ELEMENT_SIZES = (4, 8, 16)


def is_coalescable(addresses: list[int], element_size: int) -> bool:
    """Do these half-warp thread addresses coalesce into one transaction?

    Implements the three conditions of §4.3: (i) each thread accesses an
    element of 4, 8 or 16 bytes; (ii) the elements form a contiguous block
    with the Nth element accessed by the Nth thread; (iii) the first
    element's address is aligned at a multiple of 16 bytes.
    """
    if element_size not in VALID_ELEMENT_SIZES:
        return False
    if not addresses or len(addresses) > HALF_WARP:
        return False
    base = addresses[0]
    if base % COALESCE_ALIGNMENT != 0:
        return False
    return all(
        addr == base + i * element_size for i, addr in enumerate(addresses)
    )


def coalesce_half_warp(addresses: list[int], element_size: int) -> list[Transaction]:
    """Transactions issued for one half-warp access.

    A coalescable access becomes a single transaction covering the whole
    segment; otherwise every thread's element is served by its own
    transaction (the uncoalesced worst case the hardware falls back to).
    """
    if is_coalescable(addresses, element_size):
        return [(addresses[0], element_size * len(addresses))]
    return [(addr, element_size) for addr in addresses]


def naive_trace(
    buffer_size: int,
    num_threads: int,
    element_size: int = 4,
    sample_steps: int = 96,
    sample_threads: int = 448,
) -> list[Transaction]:
    """Representative trace for the naive per-thread strided pattern.

    Each thread scans its private sub-stream (``buffer_size/num_threads``
    bytes apart from its neighbours), so the 16 threads of a half-warp
    issue addresses in 16 different rows: nothing coalesces and the banks'
    sense amplifiers thrash (§3.2).  The trace interleaves threads
    step-by-step exactly as SIMT execution does.

    Only ``sample_threads`` threads and ``sample_steps`` sliding steps are
    materialized; the caller scales the measured bytes/cycle to the full
    buffer (the pattern is homogeneous, so the sample is representative).
    """
    threads = min(num_threads, sample_threads)
    substream = max(element_size, buffer_size // max(num_threads, 1))
    steps = min(sample_steps, max(1, substream // element_size))
    trace: list[Transaction] = []
    for step in range(steps):
        for half_warp_start in range(0, threads, HALF_WARP):
            group = range(half_warp_start, min(half_warp_start + HALF_WARP, threads))
            addresses = [t * substream + step * element_size for t in group]
            # Strided addresses are never contiguous => no coalescing.
            trace.extend(coalesce_half_warp(addresses, element_size))
    return trace


def coalesced_trace(
    buffer_size: int,
    num_threads: int,
    element_size: int = 4,
    sample_bytes: int = 256 * 1024,
) -> list[Transaction]:
    """Representative trace for the cooperative (coalesced) fetch.

    Half-warps read contiguous, aligned segments of the data block being
    staged into shared memory (Fig. 10), so each half-warp access becomes
    one transaction and consecutive transactions walk rows sequentially.
    """
    if element_size not in VALID_ELEMENT_SIZES:
        raise ValueError(f"element size {element_size} cannot coalesce")
    segment = element_size * HALF_WARP
    total = min(buffer_size, sample_bytes)
    return [(base, segment) for base in range(0, total - segment + 1, segment)]
