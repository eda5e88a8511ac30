"""The backup site (§7.2): one chunk store, flat or sharded, opened one way.

``BackupServer``, ``BackupService`` and ``repro scrub`` all open their
site with :func:`open_site`, from the :class:`SiteConfig` fields their
configs inherit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.backup.store import ChunkStore
from repro.faults import FaultPlan
from repro.store.backend import resolve_backend
from repro.store.cluster import ChunkStoreCluster
from repro.store.health import HealthPolicy
from repro.store.schemes import make_scheme

__all__ = ["SiteConfig", "open_site"]


@dataclass(frozen=True)
class SiteConfig:
    """The backup site's fields, validated once for every front end."""

    #: Storage backend for every state owner: "memory" | "disk"; ``None``
    #: follows ``REPRO_STORE_BACKEND`` (memory, or disk given a data_dir).
    backend: str | None = None
    #: Root directory for disk-backed state; ``None`` + disk backend
    #: runs on ephemeral temp directories (removed on close).
    data_dir: str | None = None
    #: "single" (flat ChunkStore) or "cluster" (sharded store behind
    #: batched Bloom lookups).
    store_backend: str = "single"
    #: Cluster sizing and placement (ignored by the single store).
    cluster_nodes: int = 4
    placement: str = "replicated"  # "vanilla" | "striped" | "replicated" | "ec"
    replication: int = 2
    #: Erasure-coding geometry (placement="ec"): k data + m parity
    #: fragments per chunk on k + m distinct nodes.
    ec_k: int = 4
    ec_m: int = 2
    #: Bounded cluster retry budgets; ``None`` keeps the cluster's
    #: defaults (READ_ATTEMPTS / PUT_ATTEMPTS).
    read_attempts: int | None = None
    put_attempts: int | None = None
    #: Digests per batched cluster lookup.
    lookup_batch_size: int = 128

    def __post_init__(self) -> None:
        resolve_backend(self.backend, self.data_dir)  # raises on bad kind
        if self.store_backend not in ("single", "cluster"):
            raise ValueError(f"unknown store backend {self.store_backend!r}")
        if self.cluster_nodes < 1:
            raise ValueError("cluster_nodes must be >= 1")
        if self.lookup_batch_size < 1:
            raise ValueError("lookup_batch_size must be >= 1")
        if self.ec_k < 1 or self.ec_m < 0:
            raise ValueError("ec geometry wants k >= 1 and m >= 0")
        if self.read_attempts is not None and self.read_attempts < 1:
            raise ValueError("read_attempts must be >= 1")
        if self.put_attempts is not None and self.put_attempts < 1:
            raise ValueError("put_attempts must be >= 1")

    @property
    def clustered(self) -> bool:
        return self.store_backend == "cluster"


def open_site(
    cfg: SiteConfig,
    *,
    fault_plan: FaultPlan | str | None = "env",
    health: HealthPolicy | None = None,
    bare_ok: bool = False,
) -> ChunkStore | ChunkStoreCluster:
    """Open (or create) ``cfg``'s site: a ``ChunkStore`` under
    ``data_dir/site`` or a ``ChunkStoreCluster`` under ``data_dir/cluster``
    (with ``bare_ok``, under ``data_dir`` itself when it holds no
    ``cluster/``).  ``fault_plan`` and ``health`` go to the cluster."""
    root = Path(cfg.data_dir) if cfg.data_dir is not None else None
    if not cfg.clustered:
        return ChunkStore(cfg.backend, root / "site" if root is not None else None)
    if root is not None and (not bare_ok or (root / "cluster").exists()):
        root = root / "cluster"
    return ChunkStoreCluster(
        n_nodes=cfg.cluster_nodes,
        scheme=make_scheme(
            cfg.placement, replicas=cfg.replication, ec_k=cfg.ec_k, ec_m=cfg.ec_m
        ),
        read_attempts=cfg.read_attempts,
        put_attempts=cfg.put_attempts,
        batch_size=cfg.lookup_batch_size,
        backend=cfg.backend,
        data_dir=root,
        fault_plan=fault_plan,
        health=health,
    )
