"""One store node: a content-addressed chunk shard with a Bloom front-end.

Each node owns an arc of the consistent-hash ring and keeps its shard
contents on a pluggable :class:`~repro.store.backend.ChunkBackend`
(digest -> payload; in-memory by default, the persistent log+LSM
backend when the cluster is opened with ``backend="disk"``), plus a
Bloom filter that short-circuits negative membership probes.  Probe
outcomes are classified so the batched lookup path
(:mod:`repro.store.lookup`) can charge the §7.3 timing model
per-outcome: Bloom negatives never touch the index, false positives pay
the full miss cost, hits pay the hit cost.

The filter is a live front-end, not a fixture: its fill ratio is
tracked in :class:`NodeStats`, and once insertions reach the sized
capacity the filter is rebuilt at twice the size (``bloom_rebuilds``
counts these), so the false-positive rate stays near the configured
target on long-lived shards instead of climbing unboundedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.store.backend import ChunkBackend, core_module, make_backend
from repro.store.bloom import BloomFilter
from repro.store.erasure import FragmentRecord, pack_fragment, unpack_fragment

__all__ = ["NodeDownError", "NodeStats", "ProbeResult", "StoreNode"]


class NodeDownError(RuntimeError):
    """Raised when an operation reaches a failed node."""


class ProbeResult(Enum):
    HIT = "hit"
    BLOOM_NEGATIVE = "bloom_negative"  # filter said absent: no index walk
    FALSE_POSITIVE = "false_positive"  # filter said maybe, index said no


@dataclass
class NodeStats:
    """Per-node operation counters."""

    puts: int = 0
    probes: int = 0
    hits: int = 0
    bloom_negatives: int = 0
    false_positives: int = 0
    #: Filter maintenance: current fill (keys added / sized capacity)
    #: and how many times saturation forced a doubled rebuild.  Routine
    #: rebuilds (post-sweep, reopen seeding) are not counted — this is
    #: the saturation signal, not a rebuild odometer.
    bloom_fill_ratio: float = 0.0
    bloom_rebuilds: int = 0
    #: Health signals: backend operations that raised an I/O error, and
    #: reads this node failed to serve (error or corrupt payload) that a
    #: surviving replica had to cover.
    io_errors: int = 0
    degraded_reads: int = 0


class StoreNode:
    """Chunk shard over a pluggable backend; the unit of failure."""

    def __init__(
        self,
        node_id: str,
        bloom_capacity: int = 1 << 14,
        bloom_fp_rate: float = 0.01,
        backend: ChunkBackend | None = None,
    ) -> None:
        self.node_id = node_id
        self.alive = True
        self.stats = NodeStats()
        core_module("stats").register_node_stats(self.stats)
        self._bloom_fp_rate = bloom_fp_rate
        self._backend = backend if backend is not None else make_backend()
        self._bloom = BloomFilter(bloom_capacity, bloom_fp_rate)
        if len(self._backend) > 0:
            # Reopened shard: seed the filter from the recovered contents
            # (grown to fit — a restart must not inherit a saturated
            # filter).  Not counted as a saturation rebuild.
            capacity = self._bloom.capacity
            while capacity < len(self._backend):
                capacity *= 2
            if capacity != self._bloom.capacity:
                self._bloom = BloomFilter(capacity, bloom_fp_rate)
            for digest in self._backend.keys():
                self._bloom.add(digest)
        self._track_fill()

    def _require_alive(self) -> None:
        if not self.alive:
            raise NodeDownError(f"node {self.node_id!r} is down")

    def _track_fill(self) -> None:
        self.stats.bloom_fill_ratio = self._bloom.n_added / self._bloom.capacity

    # -- chunk operations ----------------------------------------------

    def put_chunk(self, digest: bytes, data: bytes) -> bool:
        """Store a chunk; returns False if already present on this node."""
        self._require_alive()
        self.stats.puts += 1
        return self._backend.put_batch([(digest, data)])[0] and self._admit(digest)

    def _admit(self, digest: bytes) -> bool:
        """Enter a newly stored digest in the Bloom filter (regrown past
        capacity); True, the put's answer."""
        bloom = self._bloom
        bloom.add(digest)
        if bloom.n_added > bloom.capacity:
            self._rebuild_bloom(grow=True)
        self._track_fill()
        return True

    def probe_batch(self, digests) -> list[ProbeResult]:
        """Membership probes, classified for the lookup cost model.

        Every digest is tested against the Bloom filter; the ones it
        admits share a single backend ``contains_batch``.
        """
        self._require_alive()
        bloom = self._bloom
        results = [ProbeResult.BLOOM_NEGATIVE] * len(digests)
        maybe = [i for i, digest in enumerate(digests) if digest in bloom]
        hits = 0
        if maybe:
            found = self._backend.contains_batch([digests[i] for i in maybe])
            for i, present in zip(maybe, found):
                if present:
                    results[i] = ProbeResult.HIT
                    hits += 1
                else:
                    results[i] = ProbeResult.FALSE_POSITIVE
        stats = self.stats
        stats.probes += len(digests)
        stats.bloom_negatives += len(digests) - len(maybe)
        stats.hits += hits
        stats.false_positives += len(maybe) - hits
        return results

    def probe(self, digest: bytes) -> ProbeResult:
        return self.probe_batch([digest])[0]

    def has_chunk(self, digest: bytes) -> bool:
        return self.probe(digest) is ProbeResult.HIT

    def holds_batch(self, digests) -> list[bool]:
        """Raw membership check for the control plane (repair, GC,
        placement): no Bloom probe, no stats — not a data-plane lookup."""
        self._require_alive()
        return self._backend.contains_batch(digests)

    def holds(self, digest: bytes) -> bool:
        return self.holds_batch([digest])[0]

    def get_chunks(self, digests) -> list[bytes | None]:
        """Stored values in one backend read (``None`` where absent)."""
        self._require_alive()
        return self._backend.get_batch(digests)

    def get_chunk(self, digest: bytes) -> bytes:
        self._require_alive()
        data = self._backend.get_batch([digest])[0]
        if data is None:
            raise KeyError(
                f"chunk {digest.hex()[:16]} missing from node {self.node_id!r}"
            )
        return data

    # -- erasure-coded fragments ---------------------------------------
    #
    # Under ErasureCodedPlacement a node's value for a chunk digest is
    # one framed fragment record, not the chunk payload.  All membership
    # machinery (Bloom filter, holds, probes, GC sweep, digests) works
    # unchanged because the key is still the chunk digest — one fragment
    # per chunk per node.

    def put_fragment(
        self, digest: bytes, index: int, k: int, m: int,
        chunk_len: int, payload: bytes,
    ) -> bool:
        """Store one framed fragment of ``digest`` (False if present)."""
        self._require_alive()
        self.stats.puts += 1
        record = pack_fragment(index, k, m, chunk_len, payload)
        return self._backend.put_batch([(digest, record)])[0] and self._admit(digest)

    def get_fragment(self, digest: bytes) -> FragmentRecord:
        """Read, parse, and *verify* this node's fragment of ``digest``.

        Raises ``KeyError`` when absent, ``FragmentFormatError`` when
        the stored bytes are not a fragment record, and
        ``CorruptFragmentError`` when the record fails its digest —
        every fragment read is an integrity check.
        """
        return unpack_fragment(self.get_chunk(digest))

    def ping(self) -> None:
        """Heartbeat: a minimal backend round trip, no stats charged.

        Raises whatever the backend raises — the failure detector
        classifies the outcome, not the node.
        """
        self._require_alive()
        self._backend.contains_batch([b"\x00heartbeat"])

    def delete_chunk(self, digest: bytes) -> int:
        """Drop one chunk; returns bytes freed (0 if absent)."""
        self._require_alive()
        return self._backend.delete_batch([digest])[0]

    def digests(self) -> tuple[bytes, ...]:
        self._require_alive()
        return tuple(self._backend.keys())

    # -- lifecycle -----------------------------------------------------

    def fail(self) -> None:
        """Simulate a crash: the node and its shard contents are gone."""
        self.alive = False
        try:
            self._backend.clear()
        except OSError:
            pass  # a crashed backend cannot be cleared; contents are gone regardless
        self._bloom.clear()
        self._track_fill()

    def sweep(self, live: set[bytes]) -> int:
        """Drop chunks not in ``live``; returns bytes freed.

        Bloom filters cannot delete, so the filter is rebuilt from the
        surviving chunk set — this is why cluster GC batches the sweep.
        On a persistent backend the sweep also compacts the chunk log,
        reclaiming the dead records' disk space.
        """
        self._require_alive()
        dead = [d for d in self._backend.keys() if d not in live]
        freed = sum(self._backend.delete_batch(dead))
        self._backend.compact()
        self._rebuild_bloom()
        return freed

    def flush(self) -> None:
        self._require_alive()
        self._backend.flush()

    def close(self) -> None:
        self._backend.close()

    def _rebuild_bloom(self, grow: bool = False) -> None:
        capacity = self._bloom.capacity * (2 if grow else 1)
        self._bloom = BloomFilter(capacity, self._bloom_fp_rate)
        for digest in self._backend.keys():
            self._bloom.add(digest)
        if grow:
            self.stats.bloom_rebuilds += 1
        self._track_fill()

    # -- accounting ----------------------------------------------------

    @property
    def backend(self) -> ChunkBackend:
        return self._backend

    @property
    def bloom_capacity(self) -> int:
        return self._bloom.capacity

    @property
    def chunk_count(self) -> int:
        return len(self._backend)

    @property
    def stored_bytes(self) -> int:
        return self._backend.value_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "DOWN"
        return (
            f"StoreNode({self.node_id!r}, {state}, "
            f"{self.chunk_count} chunks, {self.stored_bytes} B)"
        )
