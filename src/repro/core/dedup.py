"""Chunk matching (step 3 of duplicate identification, §2.1).

The dedup index maps chunk digests to stored-chunk metadata and answers
"is this chunk new?".  Both case studies build on this — the backup
server (§7) feeds digests through a lookup queue and ships either chunk
data or a pointer, and Inc-HDFS (§6) uses digests as memoization keys.

The probe surface is batched-only: ``lookup_batch`` (read-only) and
``lookup_or_insert_batch`` (the stateful backup flow), which takes a
batch as columns — digests, lengths, offsets — exactly as a decoded
DIGEST_BATCH frame carries it, so no per-chunk record is built between
the wire and the index.  One call per batch is the shape the cluster
lookup path and the §7.3 cost model already charge.

State lives on a pluggable :class:`~repro.store.backend.ChunkBackend`
(digest -> canonical offset): in-memory by default, or the persistent
log+LSM backend (``backend="disk"``) so an index can be closed,
reopened from its ``data_dir``, and answer ``lookup_batch`` with the
same hit/miss pattern — the realistic index-miss cost model the ROADMAP
asked for.  Effectiveness counters (:class:`DedupStats`) describe the
*current process's* traffic and intentionally reset on reopen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress, count
from operator import not_
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.store.backend import make_backend

if TYPE_CHECKING:
    from repro.core.chunking import Chunk
    from repro.store.backend import ChunkBackend

__all__ = ["DedupIndex", "DedupStats"]

_OFFSET_BYTES = 8  # canonical offsets ride the backend as u64 values


def _record_lookup(seconds: float) -> None:
    """Feed batched-probe wall-clock to the ``lookup`` stage timer.

    Lazy import: stats sits above chunking (hence above this module) in
    the import graph.  Only the probe side is metered here — backend
    mutations time themselves into the ``store`` stage.
    """
    from repro.core import stats

    stats.record_stage("lookup", seconds)


@dataclass
class DedupStats:
    """Running dedup effectiveness counters."""

    total_chunks: int = 0
    unique_chunks: int = 0
    total_bytes: int = 0
    unique_bytes: int = 0

    @property
    def duplicate_chunks(self) -> int:
        return self.total_chunks - self.unique_chunks

    @property
    def duplicate_bytes(self) -> int:
        return self.total_bytes - self.unique_bytes

    @property
    def dedup_ratio(self) -> float:
        """Fraction of bytes eliminated (0 when nothing was seen)."""
        if self.total_bytes == 0:
            return 0.0
        return self.duplicate_bytes / self.total_bytes


class BatchProbe(NamedTuple):
    """What one :meth:`DedupIndex.lookup_or_insert_batch` found, by
    position in the batch."""

    #: The digest was in the index before the call.
    hits: list[bool]
    #: Position -> position of its first copy, for each repeat of a
    #: miss earlier in the same batch.
    repeats: dict[int, int]

    def pointers(
        self,
        digests: Sequence[bytes],
        has_chunks: Callable[[list[bytes]], list[bool]],
    ) -> list[bool]:
        """Per position, whether a pointer may stand in for the payload.

        The index can outlive the store (GC reclaimed a chunk, or a
        persistent index reopened against a sparser site), so every hit
        is verified with one batched ``has_chunks`` probe and re-ships
        where its payload is gone.  A repeat is a pointer unchecked: its
        first copy is a miss, so it ships — ahead of the repeat, as long
        as the batch ships in order.
        """
        flags = list(self.hits)
        hit_digests = list(compress(digests, flags))
        if hit_digests:
            present = has_chunks(hit_digests)
            if not all(present):
                stored = iter(present)
                flags = [hit and next(stored) for hit in flags]
        for i in self.repeats:
            flags[i] = True
        return flags


class DedupIndex:
    """Digest -> first-seen chunk location index over a ChunkBackend.

    ``backend`` may be a ready :class:`~repro.store.backend.ChunkBackend`
    instance, a kind string (``"memory"`` / ``"disk"``), or ``None`` to
    follow ``REPRO_STORE_BACKEND`` (default memory).  ``data_dir``
    places a disk index; without it a disk index is ephemeral.
    """

    def __init__(
        self,
        backend: "ChunkBackend | str | None" = None,
        *,
        data_dir=None,
        stats: DedupStats | None = None,
    ) -> None:
        if backend is None or isinstance(backend, str):
            backend = make_backend(backend, data_dir)
        self._backend = backend
        self.stats = stats or DedupStats()

    @property
    def backend(self) -> "ChunkBackend":
        return self._backend

    def __len__(self) -> int:
        return len(self._backend)

    def __contains__(self, digest: bytes) -> bool:
        return self._backend.contains_batch([digest])[0]

    def lookup_batch(self, digests: Iterable[bytes]) -> list[int | None]:
        """Resolve many digests against the current index in one call.

        Read-only: nothing is inserted and stats are untouched, so
        repeats of an unseen digest within one batch all resolve to
        ``None``.  This is the probe shape the batched cluster lookup
        path shares (one request, many digests) — use
        :meth:`lookup_or_insert_batch` for the stateful backup flow.
        """
        t0 = time.perf_counter()
        found = self._backend.get_batch(list(digests))
        result = [
            None if v is None else int.from_bytes(v, "big") for v in found
        ]
        _record_lookup(time.perf_counter() - t0)
        return result

    def lookup_or_insert_batch(
        self,
        digests: Sequence[bytes],
        lengths: Sequence[int],
        offsets: Sequence[int],
    ) -> BatchProbe:
        """Batched lookup-or-insert over one batch, given as columns.

        ``digests[i]`` names a chunk of ``lengths[i]`` bytes first seen
        at ``offsets[i]``.  One backend probe answers the whole batch;
        each miss is inserted at its offset, and a later copy of a miss
        in the same batch is a repeat, not a second insert — the same
        semantics as feeding the chunks one at a time, amortized over one
        probe and one insert per batch.  The counters move in bulk; only
        the misses take a Python loop.
        """
        t0 = time.perf_counter()
        stats = self.stats
        found = self._backend.get_batch(digests)
        probe_seconds = time.perf_counter() - t0
        # Offsets ride the backend as non-empty u64 values: a found
        # value is truthy, a miss is None.
        hits = list(map(bool, found))
        stats.total_chunks += len(hits)
        stats.total_bytes += sum(lengths)
        repeats: dict[int, int] = {}
        first: dict[bytes, int] = {}
        new_items: list[tuple[bytes, bytes]] = []
        for i in compress(count(), map(not_, hits)):
            digest = digests[i]
            j = first.setdefault(digest, i)
            if j != i:
                repeats[i] = j
                continue
            new_items.append((digest, offsets[i].to_bytes(_OFFSET_BYTES, "big")))
            stats.unique_bytes += lengths[i]
        if new_items:
            stats.unique_chunks += len(new_items)
            # known_absent: get_batch just proved these misses, and
            # ``first`` made the keys unique — the backend skips the
            # second probe, so a miss costs one index walk, not two.
            self._backend.put_batch(new_items, known_absent=True)
        _record_lookup(probe_seconds)
        return BatchProbe(hits, repeats)

    def add_all(self, chunks: Iterable["Chunk"]) -> DedupStats:
        """Feed a chunk sequence through the index; returns the stats."""
        chunks = list(chunks)
        self.lookup_or_insert_batch(
            [c.digest for c in chunks],
            [c.length for c in chunks],
            [c.offset for c in chunks],
        )
        return self.stats

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        self._backend.flush()

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "DedupIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
