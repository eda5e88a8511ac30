"""One store node: a content-addressed chunk shard over a resident keydir.

Each node owns an arc of the consistent-hash ring and keeps its shard
contents on a pluggable :class:`~repro.store.backend.ChunkBackend`
(digest -> payload; in-memory by default, the persistent log+keydir
backend when the cluster is opened with ``backend="disk"``).  Both
backends keep every live key in RAM, so a membership probe is one
batched ``contains_batch`` and nothing sits in front of it: a filter
would only add a second probe to a miss that already costs one dict
lookup.  The cluster's batched lookup
(:meth:`repro.store.cluster.ChunkStoreCluster.lookup_batch`) asks
nodes through :meth:`StoreNode.probe_batch`, which charges
:class:`NodeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.store.backend import ChunkBackend, core_module, make_backend
from repro.store.erasure import FragmentRecord, pack_fragment, unpack_fragment

__all__ = ["NodeDownError", "NodeStats", "StoreNode"]


class NodeDownError(RuntimeError):
    """Raised when an operation reaches a failed node."""


@dataclass
class NodeStats:
    """Per-node operation counters."""

    puts: int = 0
    probes: int = 0
    hits: int = 0
    #: Probes the keydir answered "absent".  The name predates the
    #: resident keydir; the benchmark suite reads it under this name.
    bloom_negatives: int = 0
    #: Health signals: backend operations that raised an I/O error, and
    #: reads this node failed to serve (error or corrupt payload) that a
    #: surviving replica had to cover.
    io_errors: int = 0
    degraded_reads: int = 0


class StoreNode:
    """Chunk shard over a pluggable backend; the unit of failure."""

    def __init__(self, node_id: str, backend: ChunkBackend | None = None) -> None:
        self.node_id = node_id
        self.alive = True
        self.stats = NodeStats()
        core_module("stats").register_node_stats(self.stats)
        self._backend = backend if backend is not None else make_backend()

    def _require_alive(self) -> None:
        if not self.alive:
            raise NodeDownError(f"node {self.node_id!r} is down")

    # -- chunk operations ----------------------------------------------

    def put_chunk(self, digest: bytes, data: bytes) -> bool:
        """Store a chunk; returns False if already present on this node."""
        return self.put_chunks([(digest, data)])[0]

    def put_chunks(self, items) -> list[bool]:
        """Store a batch of ``(digest, data)`` in one backend
        ``put_batch``; per item, False if already present."""
        self._require_alive()
        self.stats.puts += len(items)
        return self._backend.put_batch(items)

    def probe_batch(self, digests) -> list[bool]:
        """Data-plane membership: one backend ``contains_batch``, with
        the probes, hits and misses charged to :class:`NodeStats`."""
        self._require_alive()
        found = self._backend.contains_batch(digests)
        hits = sum(found)
        stats = self.stats
        stats.probes += len(digests)
        stats.hits += hits
        stats.bloom_negatives += len(digests) - hits
        return found

    def holds_batch(self, digests) -> list[bool]:
        """Raw membership check for the control plane (repair, GC,
        placement): the same backend call, no stats — not a data-plane
        lookup."""
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
    # machinery (holds, probes, GC sweep, digests) works
    # unchanged because the key is still the chunk digest — one fragment
    # per chunk per node.

    def put_fragment(self, k: int, m: int, writes) -> list[bool]:
        """Store a batch of framed ``(k, m)`` fragments in one backend
        ``put_batch``; per fragment, False if a record was present.

        Each write is ``(digest, index, payload, chunk_len)`` — a
        :data:`~repro.store.schemes.ItemWrite`.  The cluster sends each
        node one call per write window carrying all of its fragments,
        so the call's fixed cost is paid per window, not per fragment.
        The singular name stays because it is the node's fragment write
        (one fragment per chunk digest per node), whatever the batch.
        """
        self._require_alive()
        self.stats.puts += len(writes)
        return self._backend.put_batch(
            [
                (digest, pack_fragment(index, k, m, chunk_len, payload))
                for digest, index, payload, chunk_len in writes
            ]
        )

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

    def sweep(self, live: set[bytes]) -> int:
        """Drop chunks not in ``live``; returns bytes freed.

        On a persistent backend the sweep also compacts the chunk log,
        reclaiming the dead records' disk space.
        """
        self._require_alive()
        dead = [d for d in self._backend.keys() if d not in live]
        freed = sum(self._backend.delete_batch(dead))
        self._backend.compact()
        return freed

    def flush(self) -> None:
        self._require_alive()
        self._backend.flush()

    def close(self) -> None:
        self._backend.close()

    # -- accounting ----------------------------------------------------

    @property
    def backend(self) -> ChunkBackend:
        return self._backend

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
