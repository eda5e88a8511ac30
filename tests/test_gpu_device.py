"""Tests for the GPU device, host memory model, and chunking kernel."""

from __future__ import annotations

import pytest

from repro.gpu.chunking_kernel import ChunkingKernel, divergence_factor
from repro.gpu.device import GPUDevice
from repro.gpu.dma import Direction, MemoryType
from repro.gpu.host_memory import HostMemoryModel
from repro.gpu.specs import TESLA_C2050, XEON_X5650_HOST, table1_rows

MB = 1 << 20


@pytest.fixture()
def device() -> GPUDevice:
    return GPUDevice()


class TestSpecs:
    def test_c2050_geometry(self):
        assert TESLA_C2050.total_sps == 448
        assert TESLA_C2050.num_sms == 14
        assert TESLA_C2050.half_warp == 16

    def test_table1_matches_paper(self):
        rows = dict(table1_rows())
        assert rows["GPU Processing Capacity"] == "1030 GFlops"
        assert rows["Reader (I/O) Bandwidth"] == "2 GBps"
        assert rows["Host-to-Device Bandwidth"] == "5.406 GBps"
        assert rows["Device-to-Host Bandwidth"] == "5.129 GBps"
        assert rows["Device Memory Latency"] == "400 - 600 cycles"
        assert rows["Device Memory Bandwidth"] == "144 GBps"

    def test_host_spec(self):
        assert XEON_X5650_HOST.cores == 12
        assert XEON_X5650_HOST.clock_hz == pytest.approx(2.67e9)


class TestHostMemoryModel:
    def test_pinned_slower_per_byte(self):
        mem = HostMemoryModel()
        pageable = mem.alloc_pageable(64 * MB)
        pinned = mem.alloc_pinned(64 * MB)
        assert pinned.alloc_seconds > 3 * pageable.alloc_seconds

    def test_pinned_alloc_vs_pageable_plus_memcpy(self):
        """Fig. 6: pinned allocation costs more than pageable + memcpy,
        which is why the ring buffer amortizes it."""
        mem = HostMemoryModel()
        size = 128 * MB
        pageable_path = mem.alloc_pageable(size).alloc_seconds + mem.memcpy_time(size)
        pinned_path = mem.alloc_pinned(size).alloc_seconds
        assert pinned_path > pageable_path

    def test_pin_limit(self):
        mem = HostMemoryModel()
        with pytest.raises(MemoryError):
            mem.alloc_pinned(mem.host.memory_bytes + 1)

    def test_pressure_penalty(self):
        mem = HostMemoryModel()
        before = mem.alloc_pageable(MB).alloc_seconds
        mem.alloc_pinned(int(mem.host.memory_bytes * 0.6))
        after = mem.alloc_pageable(MB).alloc_seconds
        assert after > 2 * before

    def test_free_restores_accounting(self):
        mem = HostMemoryModel()
        a = mem.alloc_pinned(MB)
        assert mem.pinned_bytes == MB
        mem.free(a)
        assert mem.pinned_bytes == 0

    def test_double_free_rejected(self):
        mem = HostMemoryModel()
        a = mem.alloc_pageable(MB)
        mem.free(a)
        with pytest.raises(KeyError):
            mem.free(a)


class TestDivergence:
    def test_no_boundaries_no_penalty(self):
        assert divergence_factor(0.0) == 1.0

    def test_restructured_cheaper(self):
        f = 0.1
        assert divergence_factor(f, restructured=True) < divergence_factor(
            f, restructured=False
        )

    def test_unrestructured_serializes_warp(self):
        assert divergence_factor(1.0, warp_size=32, restructured=False) == 32.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            divergence_factor(1.5)


class TestDevice:
    def test_defaults_to_the_paper_gpu(self, device):
        assert device.spec is TESLA_C2050
        assert device.dma.gpu is TESLA_C2050

    def test_download_is_a_device_to_host_transfer(self, device):
        assert device.download_time(MB) == device.dma.transfer_time(
            MB, Direction.DEVICE_TO_HOST, MemoryType.PINNED
        )

    def test_pageable_download_slower(self, device):
        assert device.download_time(64 * MB, MemoryType.PAGEABLE) > device.download_time(
            64 * MB
        )


class TestChunkingKernel:
    def test_thread_count_oversubscribes_sps(self, device):
        kernel = ChunkingKernel()
        assert kernel.thread_count(device) == TESLA_C2050.total_sps * kernel.THREADS_PER_SP

    def test_kernel_is_restructured(self, device):
        """§5.2.2's divergence restructuring is always on: a dense
        boundary stream pays the restructured factor, not a serialized
        warp."""
        n = 64 * MB
        stats = ChunkingKernel().estimate(device, n, boundary_count=n // 2)
        windows = n - ChunkingKernel().config.window_size + 1
        assert stats.divergence == divergence_factor(
            (n // 2) / windows, TESLA_C2050.warp_size, restructured=True
        )
        assert stats.divergence < TESLA_C2050.warp_size


    def test_coalesced_beats_naive(self, device):
        kernel = ChunkingKernel()
        naive = kernel.estimate(device, 64 * MB, coalesced=False)
        coal = kernel.estimate(device, 64 * MB, coalesced=True)
        assert coal.kernel_seconds < naive.kernel_seconds / 4

    def test_naive_is_memory_bound(self, device):
        stats = ChunkingKernel().estimate(device, 64 * MB, coalesced=False)
        assert stats.memory_bound

    def test_coalesced_is_compute_bound(self, device):
        stats = ChunkingKernel().estimate(device, 64 * MB, coalesced=True)
        assert not stats.memory_bound

    def test_empty_buffer(self, device):
        stats = ChunkingKernel().estimate(device, 0)
        assert stats.bytes_processed == 0
        assert stats.kernel_seconds == pytest.approx(
            device.spec.kernel_launch_overhead_s
        )

    def test_throughput_scale(self, device):
        """Optimized kernel sits an order of magnitude above PCIe (which is
        why the transfer was worth taking off the critical path)."""
        stats = ChunkingKernel().estimate(device, 128 * MB, coalesced=True)
        assert stats.throughput_bps > 5e9

    def test_boundary_density_slows_kernel(self, device):
        kernel = ChunkingKernel()
        sparse = kernel.estimate(device, 64 * MB, boundary_count=10, coalesced=True)
        dense = kernel.estimate(
            device, 64 * MB, boundary_count=(64 * MB) // 2, coalesced=True
        )
        assert dense.kernel_seconds > sparse.kernel_seconds
