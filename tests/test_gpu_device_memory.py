"""Tests for the banked device-memory model and coalescing rules (§4.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.coalescing import (
    coalesce_half_warp,
    coalesced_trace,
    is_coalescable,
    naive_trace,
)
from repro.gpu.device_memory import DeviceMemoryConfig, DeviceMemoryModel

MB = 1 << 20


@pytest.fixture(scope="module")
def model() -> DeviceMemoryModel:
    return DeviceMemoryModel()


class TestBankMapping:
    def test_consecutive_stripes_rotate_banks(self, model):
        cfg = model.config
        banks = [model._bank_and_row(i * cfg.interleave)[0] for i in range(cfg.num_banks)]
        assert sorted(banks) == list(range(cfg.num_banks))

    def test_same_stripe_same_bank(self, model):
        cfg = model.config
        b0, _ = model._bank_and_row(0)
        b1, _ = model._bank_and_row(cfg.interleave - 1)
        assert b0 == b1

    def test_rows_advance_within_bank(self, model):
        cfg = model.config
        _, r0 = model._bank_and_row(0)
        # Same bank, far enough to be in another row.
        far = cfg.interleave * cfg.num_banks * (cfg.row_size // cfg.interleave)
        b, r1 = model._bank_and_row(far)
        assert b == model._bank_and_row(0)[0]
        assert r1 > r0


class TestSimulation:
    def test_empty_trace(self, model):
        stats = model.simulate([])
        assert stats.transactions == 0 and stats.cycles == 0.0

    def test_rejects_nonpositive_size(self, model):
        with pytest.raises(ValueError):
            model.simulate([(0, 0)])

    def test_sequential_mostly_row_hits(self, model):
        trace = [(i * 64, 64) for i in range(4096)]
        stats = model.simulate(trace)
        assert stats.bank_conflict_rate < 0.1

    def test_row_thrashing_all_misses(self, model):
        cfg = model.config
        # Alternate between two rows of the same bank.
        row_stride = cfg.interleave * cfg.num_banks * (cfg.row_size // cfg.interleave)
        trace = [((i % 2) * row_stride, 32) for i in range(2048)]
        stats = model.simulate(trace)
        assert stats.bank_conflict_rate > 0.99

    def test_conflicts_cost_cycles(self, model):
        cfg = model.config
        row_stride = cfg.interleave * cfg.num_banks * (cfg.row_size // cfg.interleave)
        hit_trace = [(0, 32)] * 2048
        miss_trace = [((i % 2) * row_stride, 32) for i in range(2048)]
        assert model.simulate(miss_trace).cycles > 2 * model.simulate(hit_trace).cycles

    def test_small_transactions_waste_bus(self, model):
        stats = model.simulate([(i * 512, 4) for i in range(512)])
        assert stats.transferred_bytes == 512 * model.config.min_transaction
        assert stats.efficiency == pytest.approx(4 / 32)

    def test_peak_bandwidth_bounded(self, model):
        """Even a perfect stream cannot exceed the bus rate."""
        trace = [(i * 128, 128) for i in range(8192)]
        stats = model.simulate(trace)
        assert stats.bytes_per_cycle <= model.config.bus_bytes_per_cycle

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cycles_positive_and_consistent(self, seed):
        import random

        rng = random.Random(seed)
        model = DeviceMemoryModel()
        trace = [(rng.randrange(0, 1 << 24), rng.choice([4, 32, 64, 128])) for _ in range(200)]
        stats = model.simulate(trace)
        assert stats.cycles > 0
        assert stats.transactions == 200
        assert stats.row_hits + stats.row_misses == 200


class TestCoalescingRules:
    """The three manufacturer conditions quoted in §4.3."""

    def test_valid_access(self):
        addrs = [4096 + 4 * i for i in range(16)]
        assert is_coalescable(addrs, 4)

    def test_element_size_must_be_4_8_16(self):
        addrs = [0, 2]
        assert not is_coalescable(addrs, 2)
        assert is_coalescable([0, 8], 8)

    def test_contiguity_required(self):
        addrs = [4096 + 4 * i for i in range(16)]
        addrs[7] += 4  # break the Nth-thread/Nth-element correspondence
        assert not is_coalescable(addrs, 4)

    def test_alignment_required(self):
        addrs = [4 + 4 * i for i in range(16)]  # base not multiple of 16
        assert not is_coalescable(addrs, 4)

    def test_more_than_half_warp_rejected(self):
        addrs = [4 * i for i in range(17)]
        assert not is_coalescable(addrs, 4)

    def test_coalesced_becomes_one_transaction(self):
        addrs = [4 * i for i in range(16)]
        assert coalesce_half_warp(addrs, 4) == [(0, 64)]

    def test_uncoalesced_one_per_thread(self):
        addrs = [i * 1000 for i in range(16)]
        txs = coalesce_half_warp(addrs, 4)
        assert len(txs) == 16
        assert all(size == 4 for _, size in txs)


class TestTraces:
    def test_naive_never_coalesces(self):
        trace = naive_trace(64 * MB, 3584)
        assert all(size == 4 for _, size in trace)

    def test_coalesced_full_segments(self):
        trace = coalesced_trace(64 * MB, 3584)
        assert all(size == 64 for _, size in trace)

    def test_coalesced_beats_naive(self, model):
        """The core §4.3 result: cooperative fetch is many times faster."""
        naive = model.simulate(naive_trace(64 * MB, 3584))
        coal = model.simulate(coalesced_trace(64 * MB, 3584))
        assert coal.bytes_per_cycle > 5 * naive.bytes_per_cycle

    def test_naive_conflict_heavy_at_scale(self, model):
        stats = model.simulate(naive_trace(64 * MB, 3584))
        assert stats.bank_conflict_rate > 0.9

    def test_coalesced_row_friendly(self, model):
        stats = model.simulate(coalesced_trace(64 * MB, 3584))
        assert stats.bank_conflict_rate < 0.1

    @pytest.mark.parametrize("element_size", [4, 8, 16])
    @pytest.mark.parametrize("n", [0, 63, 64, 65, 4096, MB, 32 * MB])
    def test_coalesced_trace_is_the_rule_applied(self, n, element_size):
        """The trace emitted by construction equals the §4.3 rule applied to
        every half-warp the cooperative fetch generates."""
        def rule_built(sample_bytes):
            segment = 16 * element_size
            trace = []
            for base in range(0, min(n, sample_bytes) - segment + 1, segment):
                addresses = [base + i * element_size for i in range(16)]
                trace.extend(coalesce_half_warp(addresses, element_size))
            return trace

        assert coalesced_trace(n, 3584, element_size) == rule_built(256 * 1024)
        if n <= MB:
            assert coalesced_trace(n, 3584, element_size, sample_bytes=n) == rule_built(n)

    @pytest.mark.parametrize("element_size", [1, 2, 12, 32])
    def test_coalesced_trace_rejects_uncoalescable_elements(self, element_size):
        with pytest.raises(ValueError, match="cannot coalesce"):
            coalesced_trace(MB, 3584, element_size)
