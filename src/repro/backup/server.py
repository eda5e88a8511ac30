"""Backup server with Shredder-accelerated deduplication (§7.2-7.3).

Pipeline per the paper: the Reader pulls the mounted image snapshot, the
Shredder library forms chunks (min/max chunk sizes enabled, as commercial
backup systems require), the Store thread hashes chunks and enqueues the
fingerprints on an index-lookup queue, and a lookup thread ships either
the chunk payload or a pointer to the backup-site agent.

Timing model (drives Fig. 18's bandwidth curves; its rates are this
module's constants): the pipeline's steady-state bandwidth is the input
size over the slowest stage —

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

The site comes from :func:`~repro.backup.site.open_site`.  On a cluster
(``store_backend="cluster"``) the index stage runs through its batched
lookup path over resident keydirs — the optimization §7.3's closing
discussion points at: the per-digest dispatch cost amortizes over the
batch and negative lookups stop paying the full-index miss price.  With
``backend="disk"`` the dedup index (``data_dir/index``) and the site
persist, so a server reopened on the same ``data_dir`` restores every
snapshot bit-identical and answers ``lookup_batch`` with the same
hit/miss pattern as before the restart.

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
from repro.backup.site import SiteConfig, open_site
from repro.core.chunking import ChunkerConfig
from repro.core.dedup import DedupIndex
from repro.core.shredder import Shredder, ShredderConfig
from repro.store.backend import make_backend
from repro.store.cluster import ChunkStoreCluster
from repro.store.lookup import BatchLookupStats, LookupCostModel

__all__ = ["BackupConfig", "BackupReport", "BackupServer"]

GBPS = 1e9 / 8  # bytes/s per Gbit/s
#: Snapshot generation / reader rate (the paper emulates 10 Gbps) and
#: the network link to the backup site.
GENERATION_BANDWIDTH = 10 * GBPS
LINK_BANDWIDTH = 10 * GBPS
#: Aggregated chunk-hash throughput (SHA pipelined on host cores).
HASH_BANDWIDTH = 4e9
#: Extra Store-thread cost per byte when min/max filtering runs on the
#: host after an unmodified GPU scan (the §7.3 limitation).
MINMAX_FILTER_S_PER_BYTE = 4e-10


def _default_backup_chunker() -> ChunkerConfig:
    """4 KB expected chunks with min/max enabled (§7.3)."""
    return ChunkerConfig(mask_bits=12, marker=0xABC, min_size=1024, max_size=16384)


@dataclass(frozen=True)
class BackupConfig(SiteConfig):
    """Backup-server configuration: the site fields of
    :class:`~repro.backup.site.SiteConfig` plus the chunking ones below
    (the timing model's rates are this module's constants)."""

    chunker: ChunkerConfig = field(default_factory=_default_backup_chunker)
    #: Chunking engine: "gpu" (Shredder) | "cpu" (pthreads baseline).
    engine: str = "gpu"
    #: Chunks per pipeline batch handed to the lookup/ship stage;
    #: ``None`` sizes batches to cover ``HASH_BATCH_BYTES`` (4 MiB) of
    #: expected chunks (one hashing pass per batch).
    pipeline_batch_chunks: int | None = None

    def __post_init__(self) -> None:
        if self.engine not in ("gpu", "cpu"):
            raise ValueError(f"unknown engine {self.engine!r}")
        super().__post_init__()
        if self.pipeline_batch_chunks is not None and self.pipeline_batch_chunks < 1:
            raise ValueError("pipeline_batch_chunks must be >= 1")


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

    def __init__(self, config: BackupConfig | None = None) -> None:
        self.config = cfg = config or BackupConfig()
        store = open_site(cfg)
        self.storage_kind = store.backend_kind
        self.cluster: ChunkStoreCluster | None = store if cfg.clustered else None
        self.agent = ShredderAgent(store=store)
        self.index = DedupIndex(
            make_backend(
                self.storage_kind,
                Path(cfg.data_dir) / "index" if cfg.data_dir is not None else None,
            )
        )
        if cfg.engine == "gpu":
            shredder_config = ShredderConfig.gpu_streams_memory(chunker=cfg.chunker)
        else:
            shredder_config = ShredderConfig.cpu(chunker=cfg.chunker)
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
            self.index.lookup_or_insert_batch(digests, lengths)
            return decisions
        # A repeat of an earlier chunk of this batch is a pointer (its
        # first copy ships ahead of it); every hit is re-checked against
        # the store, which the index can outlive.
        return self.index.lookup_or_insert_batch(digests, lengths).pointers(
            digests, self.agent.store.has_chunks
        )

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
            chunk_seconds += n * MINMAX_FILTER_S_PER_BYTE
        cost = LookupCostModel()
        if lookup_stats is not None:
            lookup_seconds = cost.batched_seconds(lookup_stats)
        else:
            lookup_seconds = cost.per_digest_seconds(
                duplicates, n_chunks - duplicates
            )
        stage_seconds = {
            "generation": n / GENERATION_BANDWIDTH,
            "chunking": chunk_seconds,
            "hashing": n / HASH_BANDWIDTH,
            "index+network": lookup_seconds + shipped / LINK_BANDWIDTH,
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
