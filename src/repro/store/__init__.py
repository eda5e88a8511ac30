"""Sharded content-addressed chunk-store cluster (scale-out backup site).

Layers, bottom up: :mod:`~repro.store.backend` (the batched
``ChunkBackend`` storage protocol — in-memory and persistent log+keydir —
behind every state owner), :mod:`~repro.store.ring` (consistent
hashing), :mod:`~repro.store.node` (per-shard stores),
:mod:`~repro.store.schemes` (pluggable placement),
:mod:`~repro.store.lookup` (batched, node-grouped probes),
:mod:`~repro.store.cluster` (the ChunkStore-compatible facade with
failure recovery, persistence, and cluster-wide GC).
"""

from repro.store.backend import (
    BackendStats,
    ChunkBackend,
    MemoryBackend,
    PersistentBackend,
    RecipeStore,
    RecoveryReport,
    make_backend,
    resolve_backend,
)
from repro.store.cluster import (
    ChunkStoreCluster,
    MigrationReport,
    RepairReport,
    ScrubReport,
    UnrecoverableChunkError,
)
from repro.store.erasure import (
    CorruptFragmentError,
    FragmentFormatError,
    FragmentRecord,
    ReedSolomonCodec,
    codec_for,
)
from repro.store.lookup import BatchedLookup, BatchLookupStats, LookupCostModel
from repro.store.node import NodeDownError, NodeStats, StoreNode
from repro.store.ring import DEFAULT_VNODES, HashRing
from repro.store.schemes import (
    ErasureCodedPlacement,
    PlacementScheme,
    ReplicatedPlacement,
    StripedPlacement,
    VanillaPlacement,
    make_scheme,
)

__all__ = [
    "BackendStats",
    "ChunkBackend",
    "MemoryBackend",
    "PersistentBackend",
    "RecipeStore",
    "RecoveryReport",
    "make_backend",
    "resolve_backend",
    "ChunkStoreCluster",
    "MigrationReport",
    "RepairReport",
    "ScrubReport",
    "UnrecoverableChunkError",
    "CorruptFragmentError",
    "FragmentFormatError",
    "FragmentRecord",
    "ReedSolomonCodec",
    "codec_for",
    "BatchedLookup",
    "BatchLookupStats",
    "LookupCostModel",
    "NodeDownError",
    "NodeStats",
    "StoreNode",
    "DEFAULT_VNODES",
    "HashRing",
    "ErasureCodedPlacement",
    "PlacementScheme",
    "ReplicatedPlacement",
    "StripedPlacement",
    "VanillaPlacement",
    "make_scheme",
]
