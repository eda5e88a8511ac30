"""Backup-site chunk store and snapshot recipes.

State lives on pluggable :class:`~repro.store.backend.ChunkBackend`
instances — one for chunk payloads (digest -> bytes), one for recipes —
so the backup site can run fully in memory (default) or durably on
disk (``backend="disk"`` + ``data_dir``): an append-only chunk log,
indexed by a checkpointed in-memory keydir, that survives process
restarts and recovers from a torn final record by truncating to the
last valid frame.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.store.backend import RecipeStore, make_backend, resolve_backend

__all__ = ["ChunkStore", "SnapshotRecipe"]


@dataclass(frozen=True)
class SnapshotRecipe:
    """Ordered chunk digests that reconstitute one snapshot."""

    snapshot_id: str
    digests: tuple[bytes, ...]
    total_bytes: int


class ChunkStore:
    """Content-addressed chunk storage at the backup site.

    Chunks are stored once per digest; recipes reference them.  This is
    the state the Shredder agent (§7.2) rebuilds snapshots from.

    ``backend="memory"`` (default) keeps everything in-process;
    ``backend="disk"`` persists chunks under ``data_dir/chunks`` and
    recipes under ``data_dir/recipes`` so ``ChunkStore(backend="disk",
    data_dir=...)`` reopens the store bit-identical after a restart.
    """

    def __init__(
        self,
        backend: str | None = None,
        data_dir: str | os.PathLike | None = None,
    ) -> None:
        kind = resolve_backend(backend, data_dir)
        base = Path(data_dir) if data_dir is not None else None
        self.backend_kind = kind
        self._chunks = make_backend(
            kind, base / "chunks" if base is not None else None
        )
        self._recipes = RecipeStore(
            make_backend(kind, base / "recipes" if base is not None else None)
        )

    def put_chunk(self, digest: bytes, data: bytes) -> bool:
        """Store a chunk; returns False if it was already present."""
        return self._chunks.put_batch([(digest, data)])[0]

    def put_chunks(self, items) -> list[bool]:
        """Store a batch of ``(digest, data)``; flags newly-inserted ones."""
        return self._chunks.put_batch(list(items))

    def has_chunk(self, digest: bytes) -> bool:
        return self._chunks.contains_batch([digest])[0]

    def has_chunks(self, digests) -> list[bool]:
        """Batched membership over chunk digests (one backend probe)."""
        return self._chunks.contains_batch(list(digests))

    def chunk_lengths(self, digests) -> list[int | None]:
        """Length of every stored chunk, ``None`` where absent: presence
        and length from one backend read."""
        return [
            None if data is None else len(data)
            for data in self._chunks.get_batch(list(digests))
        ]

    def get_chunk(self, digest: bytes) -> bytes:
        data = self._chunks.get_batch([digest])[0]
        if data is None:
            raise KeyError(f"chunk {digest.hex()[:16]} missing from store")
        return data

    def put_recipe(self, recipe: SnapshotRecipe) -> None:
        # RecipeStore.put rejects duplicates; only the chunk-presence
        # invariant is this store's to enforce.
        present = self._chunks.contains_batch(recipe.digests)
        missing = [d for d, ok in zip(recipe.digests, present) if not ok]
        if missing:
            raise ValueError(
                f"recipe {recipe.snapshot_id!r} references {len(missing)} "
                "missing chunks"
            )
        self._recipes.put(recipe)

    def get_recipe(self, snapshot_id: str) -> SnapshotRecipe:
        return self._recipes.get(snapshot_id)

    def snapshot_ids(self) -> list[str]:
        """Sorted ids of every stored snapshot recipe."""
        return self._recipes.ids()

    def restore(self, snapshot_id: str) -> bytes:
        """Reassemble a snapshot from its recipe (the agent's job).

        The whole recipe resolves in one batched read — on a persistent
        store that is one index probe pass plus sequential-ish log reads
        instead of a per-chunk round trip.
        """
        recipe = self.get_recipe(snapshot_id)
        payloads = self._chunks.get_batch(recipe.digests)
        for digest, payload in zip(recipe.digests, payloads):
            if payload is None:
                raise KeyError(
                    f"chunk {digest.hex()[:16]} missing from store"
                )
        return b"".join(payloads)

    def delete_recipe(self, snapshot_id: str) -> None:
        """Drop a snapshot's recipe (retention expiry).  Chunks remain
        until :meth:`garbage_collect` runs."""
        self._recipes.delete(snapshot_id)

    def garbage_collect(self) -> int:
        """Delete chunks referenced by no recipe; returns bytes freed.

        Mark-and-sweep over the recipe set — the standard reclamation a
        deduplicating backup store needs once snapshots expire (the
        "reference management burden" [24] discusses).  On a persistent
        store the sweep also compacts the chunk log, reclaiming the
        dead records' disk space.
        """
        live = self._recipes.live_digests()
        dead = [d for d in self._chunks.keys() if d not in live]
        freed = sum(self._chunks.delete_batch(dead))
        self._chunks.compact()
        return freed

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        self._chunks.flush()
        self._recipes.flush()

    def close(self) -> None:
        self._chunks.close()
        self._recipes.close()

    def __enter__(self) -> "ChunkStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting ----------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return self._chunks.value_bytes

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def snapshot_count(self) -> int:
        return len(self._recipes)
