"""Backup-site Shredder agent (§7.2).

"We deploy an additional Shredder agent residing on the backup site,
which receives all the chunks and pointers and recreates the original
uncompressed data."  The agent receives a mixed stream of chunk payloads
and pointers, stores new chunks in the site's content-addressed store,
and finalizes a recipe per snapshot so restores are possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.hashing import digest_many
from repro.backup.store import ChunkStore, SnapshotRecipe

__all__ = ["ShredderAgent", "TransferLog"]


@dataclass
class TransferLog:
    """What crossed the wire for one snapshot."""

    chunks_received: int = 0
    pointers_received: int = 0
    bytes_received: int = 0

    @property
    def total_items(self) -> int:
        return self.chunks_received + self.pointers_received


@dataclass
class _Session:
    """One open snapshot: its recipe so far and what arrived for it."""

    digests: list[bytes] = field(default_factory=list)
    log: TransferLog = field(default_factory=TransferLog)
    #: Bytes the recipe reassembles to: received payloads plus the
    #: lengths of the chunks its pointers name.
    total_bytes: int = 0


@dataclass
class ShredderAgent:
    """Receives chunks/pointers and recreates snapshots."""

    store: ChunkStore = field(default_factory=ChunkStore)
    _open: dict[str, _Session] = field(default_factory=dict)

    def begin_snapshot(self, snapshot_id: str) -> None:
        if snapshot_id in self._open:
            raise ValueError(f"snapshot {snapshot_id!r} already open")
        self._open[snapshot_id] = _Session()

    def _session(self, snapshot_id: str) -> _Session:
        try:
            return self._open[snapshot_id]
        except KeyError:
            raise ValueError(f"snapshot {snapshot_id!r} is not open") from None

    def receive_chunk(self, snapshot_id: str, data: bytes, digest: bytes | None = None) -> None:
        """A new (non-duplicate) chunk payload arrives.

        ``digest`` is the sender's declared content hash.  The agent
        verifies it against the received bytes before storing: a payload
        corrupted (or mis-hashed) in flight must fail loudly here, not
        poison the content-addressed store for every later snapshot that
        dedups against the digest.
        """
        self.receive_chunks(snapshot_id, [(digest, data)])

    def receive_chunks(
        self, snapshot_id: str, items: Sequence[tuple[bytes | None, bytes]]
    ) -> None:
        """A batch of new chunk payloads arrives: ``(digest, data)`` pairs.

        The batched twin of :meth:`receive_chunk` — the shape the wire
        front-end ships in (one CHUNK_BATCH frame) and the pipelined
        server hands over per scan batch.  All declared digests are
        verified against the payloads in one hashing pass
        (:func:`~repro.core.hashing.digest_many`) before anything is
        stored, and the store insert is one
        ``put_chunks``.  A ``None`` digest means "compute it for me".
        """
        session = self._session(snapshot_id)
        computed = digest_many([data for _, data in items])
        verified: list[tuple[bytes, bytes]] = []
        for (declared, data), actual in zip(items, computed):
            if declared is not None and declared != actual:
                raise ValueError(
                    f"chunk payload does not match its declared digest "
                    f"{declared.hex()[:16]} in snapshot {snapshot_id!r}"
                )
            verified.append((actual, data))
        self.store.put_chunks(verified)
        received = sum(len(data) for _, data in verified)
        session.digests.extend(digest for digest, _ in verified)
        session.log.chunks_received += len(verified)
        session.log.bytes_received += received
        session.total_bytes += received

    def receive_pointer(self, snapshot_id: str, digest: bytes) -> None:
        """A pointer to an already-stored chunk arrives."""
        self.receive_pointers(snapshot_id, [digest])

    def receive_pointers(self, snapshot_id: str, pointer_digests: Sequence[bytes]) -> None:
        """A batch of pointers to already-stored chunks arrives.

        One batched store probe proves the whole batch present *and*
        learns each chunk's length (``chunk_lengths``) — the wire path
        validates a POINTER_BATCH frame with one index pass, not one
        round trip per pointer, and :meth:`finish_snapshot` never has to
        read a chunk back to size the recipe.
        """
        session = self._session(snapshot_id)
        lengths = self.store.chunk_lengths(pointer_digests)
        for digest, length in zip(pointer_digests, lengths):
            if length is None:
                raise KeyError(
                    f"pointer to unknown chunk {digest.hex()[:16]} in "
                    f"snapshot {snapshot_id!r}"
                )
        session.digests.extend(pointer_digests)
        session.log.pointers_received += len(pointer_digests)
        session.total_bytes += sum(lengths)

    def finish_snapshot(self, snapshot_id: str) -> TransferLog:
        """Close the session, persist the recipe, return the transfer log."""
        session = self._session(snapshot_id)
        self.store.put_recipe(
            SnapshotRecipe(
                snapshot_id, tuple(session.digests), total_bytes=session.total_bytes
            )
        )
        del self._open[snapshot_id]
        return session.log

    def abort_snapshot(self, snapshot_id: str) -> None:
        """Drop an open session without writing a recipe.

        The wire front-end calls this when a client disconnects mid
        snapshot: already-stored chunks stay (they are content-addressed
        and harmless; GC reclaims unreferenced ones), but no recipe is
        published, so the half-shipped snapshot can never be restored.
        """
        self._session(snapshot_id)
        del self._open[snapshot_id]

    def open_log(self, snapshot_id: str) -> TransferLog:
        """The live transfer log of an open snapshot (resume reporting)."""
        return self._session(snapshot_id).log

    @property
    def open_snapshots(self) -> tuple[str, ...]:
        """Ids of sessions begun but not yet finished/aborted."""
        return tuple(self._open)

    def restore(self, snapshot_id: str) -> bytes:
        """Recreate the original uncompressed snapshot."""
        return self.store.restore(snapshot_id)
