"""Bloom-filter front-end for negative chunk lookups.

§7.3 charges a *miss* ~6x the cost of a hit: an absent digest walks the
full on-disk index before the store can conclude "new chunk".  A Bloom
filter in front of each node answers "definitely absent" from memory,
so the common negative lookup (every unique chunk of every snapshot)
costs one probe instead of one full index walk — the standard trick of
deduplicating stores since Data Domain.

Keys are SHA-256 digests, and the ring re-hashes a digest to place it,
so a node's keys are uniform in every bit: probe positions come from the
key's own first 16 bytes rather than from hashing it again.
"""

from __future__ import annotations

import math
import struct

__all__ = ["BloomFilter"]

#: The double-hashing pair ``(h1, h2)``: a key's first 16 bytes.
_PAIR = struct.Struct(">QQ")


class BloomFilter:
    """Classic Bloom filter over byte-string keys.

    Sized from ``capacity`` and ``fp_rate`` via the textbook formulas;
    uses double hashing (Kirsch-Mitzenmacher) to derive the ``k`` probe
    positions from 128 key bits (shorter keys are zero-padded).  No
    false negatives, ever.
    """

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.n_bits = max(8, math.ceil(-capacity * math.log(fp_rate) / math.log(2) ** 2))
        self.n_hashes = max(1, round(self.n_bits / capacity * math.log(2)))
        self._bits = bytearray((self.n_bits + 7) // 8)
        self.n_added = 0

    @staticmethod
    def _hash_pair(key: bytes) -> tuple[int, int]:
        """``(h1, h2)`` of the double-hashing scheme: probe ``i`` tests
        bit ``(h1 + i * h2) % n_bits``."""
        if len(key) < _PAIR.size:
            key = bytes(key).ljust(_PAIR.size, b"\0")
        h1, h2 = _PAIR.unpack_from(key)
        return h1, h2 | 1  # odd, so probes cycle

    def add(self, key: bytes) -> None:
        pos, step = self._hash_pair(key)
        bits, n_bits = self._bits, self.n_bits
        for _ in range(self.n_hashes):
            bit = pos % n_bits
            bits[bit >> 3] |= 1 << (bit & 7)
            pos += step
        self.n_added += 1

    def __contains__(self, key: bytes) -> bool:
        pos, step = self._hash_pair(key)
        bits, n_bits = self._bits, self.n_bits
        for _ in range(self.n_hashes):
            bit = pos % n_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            pos += step
        return True

    def clear(self) -> None:
        self._bits = bytearray(len(self._bits))
        self.n_added = 0
