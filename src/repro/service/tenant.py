"""Per-tenant namespaces over a shared chunk-payload store.

Multi-tenancy splits the backup state along the privacy boundary:

* **Chunk payloads are shared** — content-addressed storage dedups
  across tenants by construction (the same digest is stored once no
  matter who ships it), which is the §2 storage win.
* **The dedup index is tenant-scoped** — each tenant's ship-or-point
  decisions consult only digests *that tenant* has shipped.  A digest
  enters the index only when its payload lands and the site verifies it
  (CHUNK_BATCH, counters untouched); a decide counts and probes but
  inserts nothing.  A tenant therefore re-ships a payload some other
  tenant already holds (the store insert is then a no-op), and deciding
  a digest it never shipped answers "ship" however often it asks —
  the classic cross-tenant dedup side channel is closed: the decide
  never reveals whether another tenant owns a chunk.
* **A pointer needs ownership** — a POINTER_BATCH may name only digests
  in the session tenant's index, i.e. chunks it shipped.  Any other
  pointer is refused with the same fatal UNKNOWN_CHUNK as a chunk the
  store lacks, so knowing a digest never lets a tenant restore another
  tenant's chunk.
* **Recipes are tenant-scoped** — snapshots live in the shared recipe
  store under ``tenant/snapshot`` scoped ids, and the service layer
  only ever resolves ids inside the caller's namespace, so restores,
  listings, and retention are tenant-isolated while cluster-wide GC
  (which marks across *all* recipes) keeps shared payloads safe.
* **Usage is the index** — it maps each digest to its chunk's length,
  so a tenant stores ``len(index)`` chunks, the values summed in bytes.
  A digest is charged when it first enters the index and never again:
  a replayed frame or a re-shipped payload cannot bill twice.

On a disk backend each tenant's index persists under
``data_dir/tenants/<name>/index`` and reopens with the same hit/miss
pattern and the same usage after a server restart; recipes ride the
shared store's own persistence.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Sequence

from repro.core.dedup import DedupIndex
from repro.store.backend import make_backend

__all__ = ["TenantNamespace", "TenantRegistry"]

SCOPE_SEPARATOR = "/"

#: Tenant names double as directory names and scoped-id prefixes.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_tenant(name: str) -> bool:
    return bool(_TENANT_RE.match(name))


@dataclass
class TenantCounters:
    """Per-tenant service traffic (process lifetime, reset on restart)."""

    sessions: int = 0
    snapshots_begun: int = 0
    snapshots_finished: int = 0
    snapshots_aborted: int = 0
    restores: int = 0
    chunks_received: int = 0
    pointers_received: int = 0
    bytes_received: int = 0
    bytes_restored: int = 0


class TenantUsage:
    """A tenant's ``chunks`` and ``stored_bytes``, read off its index:
    the sum is read once at open, then :meth:`TenantNamespace
    .insert_chunks` adds each length the index takes in."""

    def __init__(self, index: DedupIndex) -> None:
        self._index = index
        self.stored_bytes = index.total_length()

    @property
    def chunks(self) -> int:
        return len(self._index)

    def as_dict(self) -> dict:
        return {"stored_bytes": self.stored_bytes, "chunks": self.chunks}


@dataclass
class TenantNamespace:
    """One tenant's slice of the service: scoped index + counters.

    ``usage`` is the tenant's quota accounting, derived from the index,
    so it survives a disk-backed restart with it; ``active_sessions``
    is the live concurrent-session count the admission path checks
    per-tenant session quotas against.
    """

    name: str
    index: DedupIndex
    counters: TenantCounters = field(default_factory=TenantCounters)
    usage: TenantUsage = field(init=False)
    active_sessions: int = 0

    def __post_init__(self) -> None:
        self.usage = TenantUsage(self.index)

    def insert_chunks(
        self, digests: Sequence[bytes], lengths: Sequence[int]
    ) -> None:
        """Index verified payloads; charge the digests that are new."""
        inserted = self.index.insert_batch(digests, lengths)
        self.usage.stored_bytes += sum(compress(lengths, inserted))

    def scoped_id(self, snapshot_id: str) -> str:
        """The shared-store id for this tenant's snapshot."""
        if not snapshot_id or SCOPE_SEPARATOR in snapshot_id:
            raise ValueError(
                f"invalid snapshot id {snapshot_id!r} "
                f"(empty or contains {SCOPE_SEPARATOR!r})"
            )
        return f"{self.name}{SCOPE_SEPARATOR}{snapshot_id}"

    def unscope(self, scoped: str) -> str | None:
        """Back to the tenant-local id; None if it is not this tenant's."""
        prefix = f"{self.name}{SCOPE_SEPARATOR}"
        return scoped[len(prefix):] if scoped.startswith(prefix) else None

    def close(self) -> None:
        self.index.close()


class TenantRegistry:
    """Creates and caches tenant namespaces, durable under ``data_dir``.

    The registry owns only the per-tenant state (dedup indexes); the
    shared payload/recipe store belongs to the service.  On a disk
    backend, namespaces for returning tenants reopen lazily from their
    ``data_dir/tenants/<name>`` directory at first HELLO.
    """

    def __init__(
        self,
        backend: str | None = None,
        data_dir: str | os.PathLike | None = None,
    ) -> None:
        from repro.store.backend import resolve_backend

        self.backend_kind = resolve_backend(backend, data_dir)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._tenants: dict[str, TenantNamespace] = {}
        self._closed = False

    def get(self, name: str) -> TenantNamespace:
        """The namespace for ``name``, created (or reopened) on demand."""
        if self._closed:
            raise RuntimeError("tenant registry is closed")
        if not valid_tenant(name):
            raise ValueError(
                f"invalid tenant name {name!r} (want "
                "[A-Za-z0-9][A-Za-z0-9._-]*, at most 64 chars)"
            )
        namespace = self._tenants.get(name)
        if namespace is None:
            index_dir = (
                self.data_dir / "tenants" / name / "index"
                if self.data_dir is not None
                else None
            )
            namespace = TenantNamespace(
                name=name,
                index=DedupIndex(make_backend(self.backend_kind, index_dir)),
            )
            self._tenants[name] = namespace
        return namespace

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for namespace in self._tenants.values():
            namespace.close()
        self._tenants.clear()
