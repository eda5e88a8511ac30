"""Core Shredder library: Rabin fingerprinting, chunking, dedup.

One scan driver turns bytes into chunks — ``stream_chunks`` (scan +
incremental min/max stitch) run by ``pipeline_chunks`` (batched
hashing); ``Chunker`` (whose ``chunk`` is the one-buffer pipeline),
``HostParallelChunker`` and ``Shredder`` are configurations of it.
``select_cuts`` over ``SerialEngine`` candidates is the reference it is
tested against.  The GPU is a cost model only: ``Shredder.simulate``
prices the modeled device (``repro.gpu``) and is its one entry point.

The scan itself is ``VectorEngine.candidate_cut_array``: the native
kernel (``repro.core.native``, a C roll in four interleaved lanes,
built on the first scan into the user's cache and called through
``ctypes``), or the engine's NumPy roll and gather kernels where no
library can be built.
"""

from repro.core.baselines import FixedSizeChunker, SampleByteChunker
from repro.core.buffers import PinnedRingBuffer
from repro.core.chunking import (
    Chunk,
    Chunker,
    ChunkerConfig,
    PipelineError,
    chunk_sizes,
    ensure_digests,
    pipeline_chunks,
    select_cuts,
)
from repro.core.dedup import DedupIndex, DedupStats
from repro.core.engines import (
    Engine,
    SerialEngine,
    VectorEngine,
    as_byte_view,
    as_uint8,
    default_engine,
)
from repro.core.hashing import chunk_hash, digest_many
from repro.core.host_chunker import HOARD, MALLOC, AllocatorModel, HostParallelChunker
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
    "PinnedRingBuffer",
    "Chunk", "Chunker", "ChunkerConfig", "chunk_sizes", "ensure_digests",
    "pipeline_chunks", "PipelineError", "select_cuts",
    "DedupIndex", "DedupStats",
    "Engine", "SerialEngine", "VectorEngine", "as_byte_view", "as_uint8",
    "default_engine",
    "chunk_hash", "digest_many",
    "HOARD", "MALLOC", "AllocatorModel", "HostParallelChunker",
    "DEFAULT_WINDOW_SIZE", "RabinFingerprinter", "default_polynomial",
    "Shredder", "ShredderConfig", "ShredderReport",
    "ScanCounters", "SizeStats", "dedup_ratio", "reset_scan_counters",
    "reset_stage_times", "scan_counters", "size_stats", "stage_times",
    "stats_snapshot",
    "unique_bytes",
]
