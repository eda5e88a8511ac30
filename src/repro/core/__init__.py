"""Core Shredder library: Rabin fingerprinting, chunking, dedup.

One scan driver turns bytes into chunks — ``stream_chunks`` (scan +
incremental min/max stitch) run by ``pipeline_chunks`` (batched hashing
+ stage overlap); ``Chunker``, ``HostParallelChunker``, ``Shredder`` and
``ShredderExecutor`` are configurations of it.
"""

from repro.core.baselines import FixedSizeChunker, SampleByteChunker
from repro.core.buffers import DoubleBuffer, PinnedRingBuffer, RingSlot
from repro.core.chunking import (
    Chunk,
    Chunker,
    ChunkerConfig,
    PipelineError,
    chunk_sizes,
    ensure_digests,
    pipeline_chunks,
    select_cuts,
    select_cuts_fast,
)
from repro.core.autotune import ScanGeometry, get_geometry
from repro.core.dedup import DedupIndex, DedupStats
from repro.core.engines import (
    Engine,
    SerialEngine,
    VectorEngine,
    as_byte_view,
    as_uint8,
    default_engine,
    parallel_candidate_cuts,
)
from repro.core.hashing import chunk_hash, digest_chunks, digest_many, short_hash, weak_checksum
from repro.core.threads import (
    available_cpus,
    close_pools,
    get_threads,
    set_default_threads,
    set_threads,
)
from repro.core.host_chunker import HOARD, MALLOC, AllocatorModel, HostParallelChunker
from repro.core.executor import ExecutionTotals, ShredderExecutor
from repro.core.parallel_minmax import compute_jumps, parallel_select_cuts
from repro.core.rabin import DEFAULT_WINDOW_SIZE, RabinFingerprinter, default_polynomial
from repro.core.shredder import Shredder, ShredderConfig, ShredderReport
from repro.core.stats import (
    ScanCounters,
    SizeStats,
    dedup_ratio,
    reset_scan_counters,
    reset_stage_times,
    scan_counters,
    size_stats,
    stage_times,
    unique_bytes,
)
from repro.core.stats import snapshot as stats_snapshot

__all__ = [
    "FixedSizeChunker", "SampleByteChunker",
    "ExecutionTotals", "ShredderExecutor",
    "compute_jumps", "parallel_select_cuts",
    "DoubleBuffer", "PinnedRingBuffer", "RingSlot",
    "Chunk", "Chunker", "ChunkerConfig", "chunk_sizes", "ensure_digests",
    "pipeline_chunks", "PipelineError", "select_cuts", "select_cuts_fast",
    "DedupIndex", "DedupStats",
    "ScanGeometry", "get_geometry",
    "Engine", "SerialEngine", "VectorEngine", "as_byte_view", "as_uint8",
    "default_engine", "parallel_candidate_cuts",
    "chunk_hash", "digest_chunks", "digest_many", "short_hash", "weak_checksum",
    "available_cpus", "close_pools", "get_threads", "set_default_threads",
    "set_threads",
    "HOARD", "MALLOC", "AllocatorModel", "HostParallelChunker",
    "DEFAULT_WINDOW_SIZE", "RabinFingerprinter", "default_polynomial",
    "Shredder", "ShredderConfig", "ShredderReport",
    "ScanCounters", "SizeStats", "dedup_ratio", "reset_scan_counters",
    "reset_stage_times", "scan_counters", "size_stats", "stage_times",
    "stats_snapshot",
    "unique_bytes",
]
