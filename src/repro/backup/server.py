"""Backup server with Shredder-accelerated deduplication (§7.2-7.3).

Pipeline per the paper: the Reader pulls the mounted image snapshot, the
Shredder library forms chunks (min/max chunk sizes enabled, as commercial
backup systems require), the Store thread hashes chunks and enqueues the
fingerprints on an index-lookup queue, and a lookup thread ships either
the chunk payload or a pointer to the backup-site agent.

Timing model (drives Fig. 18's bandwidth curves): the pipeline's
steady-state bandwidth is the input size over the slowest stage —

* image generation / reader I/O at 10 Gbps (§7.3's emulation rate);
* chunking (GPU Shredder or pthreads CPU); with min/max enabled the GPU
  path pays an extra Store-thread post-filtering cost per byte, since
  "the data that is skipped after a chunk boundary is still scanned" and
  boundaries are discarded only afterwards (the limitation §7.3 calls
  out, capping the speedup at ~2.5x);
* hashing of chunk payloads;
* the *unoptimized* index lookup plus network shipping of unique bytes —
  the component the paper blames for bandwidth dropping as similarity
  decreases.

With ``store_backend="cluster"`` the backup site is a sharded,
replicated :class:`~repro.store.cluster.ChunkStoreCluster` and the
index stage runs through its batched, Bloom-filtered lookup path —
the optimization §7.3's closing discussion points at: the per-digest
dispatch cost amortizes over the batch and negative lookups stop
paying the full-index miss price.

With ``backend="disk"`` (or ``REPRO_STORE_BACKEND=disk``) every state
owner — the dedup index, the site store or cluster shards, and the
recipes — lives on the persistent log+LSM backend under ``data_dir``
(``index/``, ``site/`` or ``cluster/``), so a server can be closed and
a new one opened on the same ``data_dir``: every snapshot restores
bit-identical and the reopened index/cluster answer ``lookup_batch``
with the same hit/miss pattern as before the restart.

The server *executes* as the paper's pipeline: chunks arrive in
digested batches from the scan→hash pipeline
(:meth:`repro.core.shredder.Shredder.pipeline_batches`), and each
batch's index/cluster lookups and agent shipping run before the next
batch is scanned, all on the calling thread.  Chunks, dedup decisions,
shipped bytes, and recipes do not depend on how the stream is batched;
only the cluster's ``lookup_stats`` batch counters — and therefore the
modeled index-stage seconds — follow ``pipeline_batch_chunks``,
because probes are issued per pipeline batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pathlib import Path

from repro.backup.agent import ShredderAgent, TransferLog
from repro.backup.store import ChunkStore
from repro.core.chunking import ChunkerConfig
from repro.core.dedup import DedupIndex
from repro.core.shredder import Shredder, ShredderConfig
from repro.store.backend import make_backend, resolve_backend
from repro.store.cluster import ChunkStoreCluster
from repro.store.lookup import BatchLookupStats, LookupCostModel
from repro.store.schemes import make_scheme

__all__ = ["BackupConfig", "BackupReport", "BackupServer"]

GBPS = 1e9 / 8  # bytes/s per Gbit/s


def _default_backup_chunker() -> ChunkerConfig:
    """4 KB expected chunks with min/max enabled (§7.3)."""
    return ChunkerConfig(mask_bits=12, marker=0xABC, min_size=1024, max_size=16384)


@dataclass(frozen=True)
class BackupConfig:
    """Backup-server configuration."""

    chunker: ChunkerConfig = field(default_factory=_default_backup_chunker)
    #: Chunking engine: "gpu" (Shredder) | "cpu" (pthreads baseline).
    engine: str = "gpu"
    #: Storage backend for every state owner (dedup index, site store /
    #: cluster shards, recipes): "memory" | "disk"; ``None`` follows
    #: ``REPRO_STORE_BACKEND`` (default memory, or disk when a
    #: ``data_dir`` is given).
    backend: str | None = None
    #: Root directory for disk-backed state; ``None`` + disk backend
    #: runs on ephemeral temp directories (removed on close).
    data_dir: str | None = None
    #: Snapshot generation / reader rate (the paper emulates 10 Gbps).
    generation_bandwidth: float = 10 * GBPS
    #: Network link to the backup site.
    link_bandwidth: float = 10 * GBPS
    #: Aggregated chunk-hash throughput (SHA pipelined on host cores).
    hash_bandwidth: float = 4e9
    #: Index lookup costs (unoptimized, per §7.3's closing discussion).
    lookup_hit_s: float = 2e-6
    lookup_miss_s: float = 12e-6
    #: Extra Store-thread cost per byte when min/max filtering runs on the
    #: host after an unmodified GPU scan (the §7.3 limitation).
    minmax_filter_s_per_byte: float = 4e-10
    #: Backup-site store: "single" (flat in-memory ChunkStore) or
    #: "cluster" (sharded/replicated store behind batched Bloom lookups).
    store_backend: str = "single"
    #: Cluster sizing and placement (ignored for the single backend).
    cluster_nodes: int = 4
    placement: str = "replicated"  # "vanilla" | "striped" | "replicated" | "ec"
    replication: int = 2
    stripe_width: int = 4
    #: Erasure-coding geometry (placement="ec"): k data + m parity
    #: fragments per chunk on k + m distinct nodes.
    ec_k: int = 4
    ec_m: int = 2
    #: Bounded cluster retry budgets; ``None`` keeps the cluster's
    #: defaults (READ_ATTEMPTS / PUT_ATTEMPTS).
    read_attempts: int | None = None
    put_attempts: int | None = None
    #: Batched-lookup knobs: digests per batch, per-batch dispatch cost,
    #: and the in-memory Bloom probe that replaces full-index misses.
    lookup_batch_size: int = 128
    batch_rtt_s: float = 5e-5
    bloom_probe_s: float = 2e-7
    bloom_fp_rate: float = 0.01
    #: Chunks per pipeline batch handed to the lookup/ship stage;
    #: ``None`` sizes batches to cover ``HASH_BATCH_BYTES`` (4 MiB) of
    #: expected chunks (one hashing pass per batch).
    pipeline_batch_chunks: int | None = None

    def __post_init__(self) -> None:
        if self.engine not in ("gpu", "cpu"):
            raise ValueError(f"unknown engine {self.engine!r}")
        resolve_backend(self.backend, self.data_dir)  # raises on bad kind
        if self.store_backend not in ("single", "cluster"):
            raise ValueError(f"unknown store backend {self.store_backend!r}")
        if self.cluster_nodes < 1:
            raise ValueError("cluster_nodes must be >= 1")
        if self.lookup_batch_size < 1:
            raise ValueError("lookup_batch_size must be >= 1")
        if self.pipeline_batch_chunks is not None and self.pipeline_batch_chunks < 1:
            raise ValueError("pipeline_batch_chunks must be >= 1")
        if self.ec_k < 1 or self.ec_m < 0:
            raise ValueError("ec geometry wants k >= 1 and m >= 0")
        if self.read_attempts is not None and self.read_attempts < 1:
            raise ValueError("read_attempts must be >= 1")
        if self.put_attempts is not None and self.put_attempts < 1:
            raise ValueError("put_attempts must be >= 1")


@dataclass
class BackupReport:
    """Outcome of backing up one snapshot."""

    snapshot_id: str
    total_bytes: int
    n_chunks: int
    duplicate_chunks: int
    shipped_bytes: int
    stage_seconds: dict[str, float]
    transfer: TransferLog
    #: Batched-lookup outcome counters (cluster backend only).
    lookup_stats: BatchLookupStats | None = None

    @property
    def simulated_seconds(self) -> float:
        """Pipeline steady state: the slowest stage dominates."""
        return max(self.stage_seconds.values())

    @property
    def backup_bandwidth_gbps(self) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.total_bytes / self.simulated_seconds / GBPS

    @property
    def dedup_fraction(self) -> float:
        return self.duplicate_chunks / self.n_chunks if self.n_chunks else 0.0

    @property
    def bottleneck(self) -> str:
        return max(self.stage_seconds, key=self.stage_seconds.get)


class BackupServer:
    """Consolidated backup server; state persists across snapshots."""

    def __init__(
        self,
        config: BackupConfig | None = None,
        agent: ShredderAgent | None = None,
    ) -> None:
        self.config = config or BackupConfig()
        cfg = self.config
        self.storage_kind = resolve_backend(cfg.backend, cfg.data_dir)
        data_dir = Path(cfg.data_dir) if cfg.data_dir is not None else None
        self.cluster: ChunkStoreCluster | None = None
        self._owns_store = agent is None
        if cfg.store_backend == "cluster":
            if agent is not None:
                # An agent carries its own site store; pairing it with
                # the cluster would ship chunks past the store the
                # lookup path probes, silently disabling dedup.
                raise ValueError(
                    "store_backend='cluster' manages its own backup-site "
                    "agent; do not pass one"
                )
            self.cluster = ChunkStoreCluster(
                n_nodes=cfg.cluster_nodes,
                scheme=make_scheme(
                    cfg.placement,
                    replicas=cfg.replication,
                    stripe_width=cfg.stripe_width,
                    ec_k=cfg.ec_k,
                    ec_m=cfg.ec_m,
                ),
                read_attempts=cfg.read_attempts,
                put_attempts=cfg.put_attempts,
                batch_size=cfg.lookup_batch_size,
                bloom_fp_rate=cfg.bloom_fp_rate,
                cost_model=LookupCostModel(
                    hit_s=cfg.lookup_hit_s,
                    miss_s=cfg.lookup_miss_s,
                    bloom_probe_s=cfg.bloom_probe_s,
                    batch_rtt_s=cfg.batch_rtt_s,
                ),
                backend=self.storage_kind,
                data_dir=data_dir / "cluster" if data_dir is not None else None,
            )
            agent = ShredderAgent(store=self.cluster)
        elif agent is None:
            agent = ShredderAgent(
                store=ChunkStore(
                    backend=self.storage_kind,
                    data_dir=data_dir / "site" if data_dir is not None else None,
                )
            )
        elif cfg.backend is not None or cfg.data_dir is not None:
            # The caller's agent carries its own store; silently ignoring
            # the requested storage backend would fake durability.
            raise ValueError(
                "an explicit agent carries its own store; do not also "
                "request backend/data_dir"
            )
        self.agent = agent
        self.index = DedupIndex(
            make_backend(
                self.storage_kind,
                data_dir / "index" if data_dir is not None else None,
            )
        )
        if self.config.engine == "gpu":
            shredder_config = ShredderConfig.gpu_streams_memory(
                chunker=self.config.chunker
            )
        else:
            shredder_config = ShredderConfig.cpu(chunker=self.config.chunker)
        self.shredder = Shredder(shredder_config)
        # Steady-state per-byte chunking cost, evaluated at a large stream
        # size so per-buffer launch overheads don't distort small test
        # snapshots (backup servers run long streams in steady state).
        reference = 256 * (1 << 20)
        self._chunk_s_per_byte = (
            self.shredder.simulate(reference).simulated_seconds / reference
        )

    def close(self) -> None:
        self.shredder.close()
        self.index.close()
        if self.cluster is not None:
            self.cluster.close()
        elif self._owns_store:
            self.agent.store.close()

    def __enter__(self) -> "BackupServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _decide_batch(
        self,
        batch,
        seen: set[bytes],
        lookup_stats: BatchLookupStats | None,
    ) -> list[bool]:
        """Dup/unique decision per chunk of one ordered batch.

        ``seen`` carries digests from earlier batches of the same
        snapshot, so a repeat of a digest whose first copy already
        shipped becomes a pointer — exactly the whole-snapshot
        semantics, evaluated incrementally.
        """
        digests = [c.digest for c in batch]
        lengths = [c.length for c in batch]
        offsets = [c.offset for c in batch]
        if self.cluster is not None:
            # The cluster is authoritative: hits are chunks some shard
            # already stores.  Probe only digests this snapshot has not
            # decided yet — earlier batches' digests are dups by
            # definition (their first copy shipped or was a hit).
            fresh = [c for c in batch if c.digest not in seen]
            hit_map: dict[bytes, bool] = {}
            if fresh:
                hit_map, stats = self.cluster.lookup_chunks(fresh)
                lookup_stats.merge(stats)
            decisions = []
            for digest in digests:
                decisions.append(digest in seen or hit_map.get(digest, False))
                seen.add(digest)
            # Keep the server-side index warm so both backends expose
            # identical dedup statistics.
            self.index.lookup_or_insert_batch(digests, lengths, offsets)
            return decisions
        # A repeat of an earlier chunk of this batch is a pointer (its
        # first copy ships ahead of it); every hit is re-checked against
        # the store, which the index can outlive.
        return self.index.lookup_or_insert_batch(
            digests, lengths, offsets
        ).pointers(digests, self.agent.store.has_chunks)

    def backup_snapshot(self, data: bytes, snapshot_id: str) -> BackupReport:
        """Deduplicate and ship one image snapshot to the backup site.

        Digested chunk batches stream out of the scan→hash pipeline in
        input order, and each batch's index/cluster probes and agent
        shipping run before the next batch is scanned.
        """
        cfg = self.config
        batches = self.shredder.pipeline_batches(
            data, batch_chunks=cfg.pipeline_batch_chunks
        )

        lookup_stats: BatchLookupStats | None = (
            BatchLookupStats() if self.cluster is not None else None
        )
        seen: set[bytes] = set()
        self.agent.begin_snapshot(snapshot_id)
        n_chunks = 0
        duplicates = 0
        shipped = 0
        for batch in batches:
            n_chunks += len(batch)
            decisions = self._decide_batch(batch, seen, lookup_stats)
            # Ship through the agent's batched surface: consecutive
            # same-decision runs become one CHUNK_BATCH-shaped call or
            # one pointer batch, so the recipe order (arrival order at
            # the agent) is exactly the per-chunk path's.
            i = 0
            while i < len(batch):
                is_dup = decisions[i]
                j = i
                while j < len(batch) and decisions[j] == is_dup:
                    j += 1
                run = batch[i:j]
                if is_dup:
                    duplicates += len(run)
                    self.agent.receive_pointers(
                        snapshot_id, [c.digest for c in run]
                    )
                else:
                    shipped += sum(c.length for c in run)
                    # Only unique chunks materialize their payload; the
                    # digest rides along as an end-to-end integrity check
                    # the site verifies (batched) before storing.
                    self.agent.receive_chunks(
                        snapshot_id, [(c.digest, c.data) for c in run]
                    )
                i = j
        transfer = self.agent.finish_snapshot(snapshot_id)

        n = len(data)
        chunk_seconds = n * self._chunk_s_per_byte
        if cfg.engine == "gpu" and (
            cfg.chunker.min_size > 0 or cfg.chunker.max_size is not None
        ):
            chunk_seconds += n * cfg.minmax_filter_s_per_byte
        unique = n_chunks - duplicates
        if lookup_stats is not None:
            lookup_seconds = self.cluster.lookup.modeled_seconds(lookup_stats)
        else:
            lookup_seconds = (
                duplicates * cfg.lookup_hit_s + unique * cfg.lookup_miss_s
            )
        stage_seconds = {
            "generation": n / cfg.generation_bandwidth,
            "chunking": chunk_seconds,
            "hashing": n / cfg.hash_bandwidth,
            "index+network": lookup_seconds + shipped / cfg.link_bandwidth,
        }
        return BackupReport(
            snapshot_id=snapshot_id,
            total_bytes=n,
            n_chunks=n_chunks,
            duplicate_chunks=duplicates,
            shipped_bytes=shipped,
            stage_seconds=stage_seconds,
            transfer=transfer,
            lookup_stats=lookup_stats,
        )
