"""Banked GDDR5 device-memory model (§2.3, §4.3).

The paper explains the SDRAM access model: memory is organized into banks,
each with a sense amplifier holding one open *row*.  Accessing an open row
costs only a column access (CAS); accessing a different row forces a
pre-charge (PRE) of the old row and an activate (ACT) of the new one, both
high-latency.  Many threads hitting different rows of the same bank cause
*bank conflicts* — the sense amplifier thrashes between rows.

This module is a small discrete-event simulator over memory-transaction
traces: per-bank open-row state and busy times, a shared data bus, and a
bounded issue rate.  The chunking kernel costs its two fetch strategies
(naive strided vs half-warp coalesced, §4.3) by running representative
traces through this model; the 8x gap in Figure 11 *emerges* from row
locality rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["DeviceMemoryConfig", "AccessStats", "DeviceMemoryModel", "Transaction"]

#: One memory transaction: (byte address, transaction size in bytes).
Transaction = tuple[int, int]


@dataclass(frozen=True)
class DeviceMemoryConfig:
    """Timing/geometry parameters of the GDDR5 subsystem.

    Latencies are in GPU core cycles (1.15 GHz).  Values are calibrated so
    that (a) a fully coalesced sequential stream approaches the C2050's
    144 GB/s peak, and (b) the conflict-heavy naive chunking access pattern
    lands near the ~1.3 GB/s effective rate implied by Figure 11.
    """

    num_banks: int = 16
    #: Bytes per row (per bank) held in a sense amplifier.
    row_size: int = 2048
    #: Consecutive address stripes of this size rotate across banks.
    interleave: int = 256
    #: Column access on an already-open row.
    t_cas: int = 4
    #: Row activate (ACT command).
    t_act: int = 22
    #: Pre-charge of the previously open row (PRE command).
    t_pre: int = 22
    #: Data-bus width: bytes transferred per cycle once a row is open.
    bus_bytes_per_cycle: int = 32
    #: Maximum transactions the controller can dispatch per cycle.
    issue_width: int = 2
    #: Minimum transaction size: smaller requests still move this many
    #: bytes over the bus (the waste behind uncoalesced access).
    min_transaction: int = 32


@dataclass
class AccessStats:
    """Aggregate result of simulating a transaction trace."""

    transactions: int = 0
    row_hits: int = 0
    row_misses: int = 0
    useful_bytes: int = 0
    transferred_bytes: int = 0
    cycles: float = 0.0

    @property
    def bank_conflict_rate(self) -> float:
        """Fraction of transactions that had to re-activate a row."""
        if self.transactions == 0:
            return 0.0
        return self.row_misses / self.transactions

    @property
    def bytes_per_cycle(self) -> float:
        """Useful bytes delivered per cycle (throughput)."""
        if self.cycles == 0:
            return 0.0
        return self.useful_bytes / self.cycles

    @property
    def efficiency(self) -> float:
        """Useful / transferred byte ratio (coalescing quality)."""
        if self.transferred_bytes == 0:
            return 0.0
        return self.useful_bytes / self.transferred_bytes


class DeviceMemoryModel:
    """Discrete-event model of the banked device memory."""

    def __init__(self, config: DeviceMemoryConfig | None = None) -> None:
        self.config = config or DeviceMemoryConfig()

    def _bank_and_row(self, addr: int) -> tuple[int, int]:
        cfg = self.config
        stripe = addr // cfg.interleave
        bank = stripe % cfg.num_banks
        # Row index within the bank: every num_banks-th stripe lands in the
        # same bank; row_size bytes of such stripes share a sense amplifier.
        within_bank_offset = (stripe // cfg.num_banks) * cfg.interleave + addr % cfg.interleave
        row = within_bank_offset // cfg.row_size
        return bank, row

    def simulate(self, trace: Iterable[Transaction]) -> AccessStats:
        """Run a transaction trace and return aggregate timing statistics.

        Transactions are issued in trace order at up to ``issue_width`` per
        cycle; each occupies its bank for CAS (+PRE/ACT on a row miss) and
        then the shared bus for the data burst.
        """
        cfg = self.config
        open_row = [-1] * cfg.num_banks
        bank_free = [0.0] * cfg.num_banks
        bus_free = 0.0
        issue_time = 0.0
        stats = AccessStats()
        finish = 0.0

        for addr, size in trace:
            if size <= 0:
                raise ValueError(f"transaction size must be positive, got {size}")
            bank, row = self._bank_and_row(addr)
            transferred = max(size, cfg.min_transaction)

            issue_time += 1.0 / cfg.issue_width
            start = max(issue_time, bank_free[bank])
            if open_row[bank] == row:
                stats.row_hits += 1
                ready = start + cfg.t_cas
            else:
                stats.row_misses += 1
                penalty = cfg.t_act if open_row[bank] == -1 else cfg.t_pre + cfg.t_act
                ready = start + penalty + cfg.t_cas
                open_row[bank] = row
            burst = transferred / cfg.bus_bytes_per_cycle
            data_start = max(ready, bus_free)
            done = data_start + burst
            bank_free[bank] = ready  # bank is free once the row is latched
            bus_free = done
            finish = max(finish, done)

            stats.transactions += 1
            stats.useful_bytes += size
            stats.transferred_bytes += transferred

        stats.cycles = finish
        return stats
