"""The pinned host staging ring (§4.1.2).

:class:`PinnedRingBuffer` models a circular ring of page-pinned host
staging regions allocated *once* at initialization and reused
round-robin (Fig. 7), so the high cost of pinned allocation is paid a
constant number of times instead of per transfer.  The ring depth
matches the number of pipeline stages.

It prices modeled time only: :meth:`repro.core.shredder.Shredder.simulate`
charges its staging copy, and Fig. 6 compares its amortized setup cost
against allocating a fresh pinned (or pageable) buffer per transfer.
Double buffering (§4.1.1, Fig. 4) is a schedule, not a buffer object:
:func:`repro.gpu.timeline.double_buffered_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.host_memory import HostAllocation, HostMemoryModel

__all__ = ["PinnedRingBuffer"]


@dataclass
class PinnedRingBuffer:
    """Circular ring of pinned host staging buffers (§4.1.2).

    Each transfer is modeled as a host memcpy from its pageable input
    region into a slot (``staging_copy_time``).  ``setup_seconds`` is
    the one-time allocation cost; ``amortized_cost`` lets Fig. 6 compare
    against allocating a fresh pinned (or pageable) buffer for every
    transfer.
    """

    memory: HostMemoryModel
    slot_size: int
    num_slots: int = 4
    _slots: list[HostAllocation] = field(default_factory=list)
    setup_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ValueError("ring needs at least one slot")
        for _ in range(self.num_slots):
            alloc = self.memory.alloc_pinned(self.slot_size)
            self._slots.append(alloc)
            self.setup_seconds += alloc.alloc_seconds

    def staging_copy_time(self, size: int) -> float:
        """Modeled pageable->pinned memcpy for one transfer of ``size``."""
        if size > self.slot_size:
            raise ValueError(f"transfer of {size} exceeds slot size {self.slot_size}")
        return self.memory.memcpy_time(size)

    def amortized_cost(self, transfers: int) -> float:
        """Per-transfer setup cost after ``transfers`` reuses of the ring."""
        if transfers <= 0:
            raise ValueError("transfers must be positive")
        return self.setup_seconds / transfers

    def destroy(self) -> None:
        """Release all pinned slots back to the host memory model."""
        for alloc in self._slots:
            self.memory.free(alloc)
        self._slots.clear()
