"""Tests for the pinned ring buffer and the double buffer."""

from __future__ import annotations

import pytest

from repro.core.buffers import DoubleBuffer, PinnedRingBuffer
from repro.gpu.device import GPUDevice
from repro.gpu.host_memory import HostMemoryModel

MB = 1 << 20


class TestPinnedRingBuffer:
    def test_allocates_once(self):
        mem = HostMemoryModel()
        ring = PinnedRingBuffer(mem, 32 * MB, num_slots=4)
        assert mem.live_allocations == 4
        for _ in range(100):
            slot = ring.acquire()
            ring.release(slot)
        assert mem.live_allocations == 4  # reuse, not reallocation
        assert ring.acquires == 100

    def test_round_robin(self):
        ring = PinnedRingBuffer(HostMemoryModel(), MB, num_slots=3)
        order = []
        for _ in range(3):
            s = ring.acquire()
            order.append(s.index)
            ring.release(s)
        assert order == [0, 1, 2]

    def test_exhaustion(self):
        ring = PinnedRingBuffer(HostMemoryModel(), MB, num_slots=2)
        ring.acquire()
        ring.acquire()
        with pytest.raises(RuntimeError, match="exhausted"):
            ring.acquire()

    def test_release_frees_slot(self):
        ring = PinnedRingBuffer(HostMemoryModel(), MB, num_slots=1)
        s = ring.acquire()
        ring.release(s)
        assert ring.acquire() is s

    def test_double_release_rejected(self):
        ring = PinnedRingBuffer(HostMemoryModel(), MB, num_slots=1)
        s = ring.acquire()
        ring.release(s)
        with pytest.raises(ValueError):
            ring.release(s)

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


class TestDoubleBuffer:
    def test_alternation(self):
        dev = GPUDevice()
        db = DoubleBuffer(dev, MB)
        a, b, c = db.next_buffer(), db.next_buffer(), db.next_buffer()
        assert a is c and a is not b

    def test_device_accounting(self):
        dev = GPUDevice()
        db = DoubleBuffer(dev, MB, count=3)
        assert dev.allocated_bytes == 3 * MB
        db.release()
        assert dev.allocated_bytes == 0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            DoubleBuffer(GPUDevice(), MB, count=1)
