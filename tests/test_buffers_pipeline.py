"""Tests for the pinned ring buffer."""

from __future__ import annotations

import pytest

from repro.core.buffers import PinnedRingBuffer
from repro.gpu.host_memory import HostMemoryModel

MB = 1 << 20


class TestPinnedRingBuffer:
    def test_allocates_once(self):
        mem = HostMemoryModel()
        ring = PinnedRingBuffer(mem, 32 * MB, num_slots=4)
        assert mem.live_allocations == 4
        for _ in range(100):
            ring.staging_copy_time(32 * MB)
        assert mem.live_allocations == 4  # reuse, not reallocation

    def test_amortization_beats_fresh_allocation(self):
        """Fig. 6's point: ring reuse is an order of magnitude cheaper than
        allocating pinned buffers per transfer."""
        mem = HostMemoryModel()
        size = 64 * MB
        ring = PinnedRingBuffer(mem, size, num_slots=4)
        transfers = 64
        ring_cost = ring.amortized_cost(transfers) + ring.staging_copy_time(size)
        fresh_cost = HostMemoryModel().alloc_pinned(size).alloc_seconds
        assert fresh_cost > 5 * ring_cost

    def test_staging_copy_size_check(self):
        ring = PinnedRingBuffer(HostMemoryModel(), MB, num_slots=1)
        with pytest.raises(ValueError):
            ring.staging_copy_time(2 * MB)

    def test_destroy_releases_pins(self):
        mem = HostMemoryModel()
        ring = PinnedRingBuffer(mem, MB, num_slots=2)
        assert mem.pinned_bytes == 2 * MB
        ring.destroy()
        assert mem.pinned_bytes == 0

    def test_needs_a_slot(self):
        with pytest.raises(ValueError, match="slot"):
            PinnedRingBuffer(HostMemoryModel(), MB, num_slots=0)

    def test_setup_is_the_slot_allocations(self):
        """The one-time setup is the slots' pinned allocations, spread
        evenly over the transfers that reuse them."""
        ring = PinnedRingBuffer(HostMemoryModel(), 8 * MB, num_slots=3)
        one_slot = HostMemoryModel().alloc_pinned(8 * MB).alloc_seconds
        assert ring.setup_seconds == pytest.approx(3 * one_slot)
        assert ring.amortized_cost(6) == pytest.approx(ring.setup_seconds / 6)

    def test_amortized_cost_needs_transfers(self):
        ring = PinnedRingBuffer(HostMemoryModel(), MB, num_slots=1)
        with pytest.raises(ValueError, match="positive"):
            ring.amortized_cost(0)

    def test_staging_copy_is_a_host_memcpy(self):
        mem = HostMemoryModel()
        ring = PinnedRingBuffer(mem, 4 * MB, num_slots=2)
        assert ring.staging_copy_time(3 * MB) == mem.memcpy_time(3 * MB)
