"""The Shredder framework facade (§3.1, §5).

Ties together the four host-driver modules (Reader, Transfer, Chunking
kernel, Store) over the simulated GPU, with each of the paper's
optimizations individually toggleable:

===================  =======================================  ==========
Config flag          Optimization                              Paper §
===================  =======================================  ==========
double_buffering     concurrent copy & execution               §4.1.1
pinned_ring          circular ring of pinned host buffers      §4.1.2
pipeline_stages      multi-stage streaming pipeline (1-4)      §4.2
coalesced_memory     half-warp cooperative memory fetch        §4.3
===================  =======================================  ==========

Chunks are always computed for real by the one scan driver
(:func:`~repro.core.chunking.stream_chunks`, batched and hashed by
:func:`~repro.core.chunking.pipeline_chunks`) — bit-identical across
all presets; the backend only picks the candidate scan.  The report
(:meth:`Shredder.simulate`) carries the modeled execution time from
which the Figure 12 throughput bars are regenerated.

Presets
-------
``ShredderConfig.gpu_basic()``           "GPU Basic" bar
``ShredderConfig.gpu_streams()``         "GPU Streams" bar
``ShredderConfig.gpu_streams_memory()``  "GPU Streams + Memory" bar
``ShredderConfig.cpu(hoard=...)``        "CPU w/(o) Hoard" bars
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.buffers import PinnedRingBuffer
from repro.core.chunking import (
    Chunk,
    Chunker,
    ChunkerConfig,
    pipeline_chunks,
    stream_chunks,
)
from repro.core.engines import as_byte_view
from repro.core.host_chunker import HOARD, MALLOC, HostParallelChunker
# Imported as a module (not names) to stay robust against the circular
# package-init chain repro.gpu -> chunking_kernel -> repro.core -> here.
from repro.gpu import chunking_kernel as _chunking_kernel
from repro.gpu.device import GPUDevice
from repro.gpu.dma import Direction, MemoryType
from repro.gpu.host_memory import HostMemoryModel
from repro.gpu.specs import HostSpec, XEON_X5650_HOST
from repro.gpu.timeline import (
    PhaseCosts,
    ScheduleResult,
    double_buffered_schedule,
    pipeline_schedule,
    serialized_schedule,
)

__all__ = ["ShredderConfig", "ShredderReport", "Shredder"]

MB = 1 << 20

#: Host-side cost to deliver one chunk boundary upcall (hash enqueue +
#: callback), charged to the Store stage.
PER_CHUNK_UPCALL_S = 0.5e-6
#: Bytes of boundary metadata shipped device-to-host per chunk.
BOUNDARY_RECORD_BYTES = 8


@dataclass(frozen=True)
class ShredderConfig:
    """Configuration of a Shredder instance (see module docstring)."""

    chunker: ChunkerConfig = field(default_factory=ChunkerConfig)
    backend: str = "gpu"  # "gpu" | "cpu"
    buffer_size: int = 32 * MB
    double_buffering: bool = True
    pinned_ring: bool = True
    ring_slots: int = 4
    pipeline_stages: int = 4
    coalesced_memory: bool = True
    host_threads: int = 12
    use_hoard: bool = True
    #: §9 future work: GPUDirect over InfiniBand — the NIC DMAs straight
    #: into device memory, removing the host staging copy and the 2 GBps
    #: SAN reader from the data path.
    gpu_direct: bool = False
    #: §9 future work: data-parallel chunking across several GPUs (each
    #: buffer round-robins to a device with its own PCIe link).
    num_gpus: int = 1
    #: Effective ingest bandwidth when gpu_direct is on (InfiniBand QDR-
    #: class fabric of the paper's era: ~4 GB/s).
    gpu_direct_bandwidth: float = 4e9

    def __post_init__(self) -> None:
        if self.backend not in ("gpu", "cpu"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if not 1 <= self.pipeline_stages <= 4:
            raise ValueError("pipeline_stages must be in [1, 4]")
        if self.ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")

    # -- presets matching the Figure 12 bars --------------------------------

    @classmethod
    def gpu_basic(cls, **overrides) -> "ShredderConfig":
        """Basic design of §3.1: serialized stages, pageable staging,
        conflict-prone device-memory access."""
        return cls(
            backend="gpu",
            double_buffering=False,
            pinned_ring=False,
            pipeline_stages=1,
            coalesced_memory=False,
            **overrides,
        )

    @classmethod
    def gpu_streams(cls, **overrides) -> "ShredderConfig":
        """§4.1 + §4.2 optimizations (double buffering, ring, pipeline)."""
        return cls(
            backend="gpu",
            double_buffering=True,
            pinned_ring=True,
            pipeline_stages=4,
            coalesced_memory=False,
            **overrides,
        )

    @classmethod
    def gpu_streams_memory(cls, **overrides) -> "ShredderConfig":
        """All optimizations, including §4.3 memory coalescing."""
        return cls(
            backend="gpu",
            double_buffering=True,
            pinned_ring=True,
            pipeline_stages=4,
            coalesced_memory=True,
            **overrides,
        )

    @classmethod
    def cpu(cls, hoard: bool = True, **overrides) -> "ShredderConfig":
        """Host-only pthreads baseline (§5.1)."""
        return cls(backend="cpu", use_hoard=hoard, **overrides)


@dataclass
class ShredderReport:
    """Result metadata for one Shredder run."""

    backend: str
    total_bytes: int = 0
    n_chunks: int = 0
    n_buffers: int = 0
    simulated_seconds: float = 0.0
    setup_seconds: float = 0.0
    schedule: ScheduleResult | None = None
    phase_costs: list[PhaseCosts] = field(default_factory=list)
    kernel_stats: "_chunking_kernel.KernelStats | None" = None

    @property
    def throughput_bps(self) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.total_bytes / self.simulated_seconds

    @property
    def mean_chunk_size(self) -> float:
        return self.total_bytes / self.n_chunks if self.n_chunks else 0.0

    def bottleneck(self) -> str:
        """Which stage limits pipelined throughput."""
        if not self.phase_costs:
            return "none"
        totals = [0.0] * 4
        for p in self.phase_costs:
            for i, v in enumerate(p.as_tuple()):
                totals[i] += v
        names = ("read", "transfer", "kernel", "store")
        return names[max(range(4), key=totals.__getitem__)]


class Shredder:
    """High-performance content-based chunking service.

    >>> shredder = Shredder(ShredderConfig.gpu_streams_memory())
    >>> chunks, report = shredder.process(data)
    >>> report.throughput_bps / 1e9   # modeled GB/s
    """

    def __init__(
        self,
        config: ShredderConfig | None = None,
        device: GPUDevice | None = None,
        host_memory: HostMemoryModel | None = None,
        host: HostSpec = XEON_X5650_HOST,
    ) -> None:
        self.config = config or ShredderConfig()
        self.host = host
        self.host_memory = host_memory or HostMemoryModel(host)
        self._ring: PinnedRingBuffer | None = None
        if self.config.backend == "gpu":
            self._chunker = Chunker(self.config.chunker)
            self.device = device or GPUDevice()
            self.kernel = _chunking_kernel.ChunkingKernel(
                self.config.chunker, engine=self._chunker.engine
            )
            if self.config.pinned_ring:
                self._ring = PinnedRingBuffer(
                    self.host_memory, self.config.buffer_size, self.config.ring_slots
                )
        else:
            self.device = None
            self.kernel = None
            self.host_chunker = self._chunker = HostParallelChunker(
                self.config.chunker,
                threads=self.config.host_threads,
                allocator=HOARD if self.config.use_hoard else MALLOC,
                host=host,
            )
        #: The backend's min/max-agnostic marker scan, handed to the
        #: one driver by both :meth:`process` and :meth:`pipeline_batches`.
        self._candidate_fn = self._chunker.candidate_cuts

    # ------------------------------------------------------------------

    def _buffers(self, data) -> Iterator:
        """Split input into buffer_size pieces.

        Buffer-protocol inputs (bytes, bytearray, memoryview, mmap, NumPy
        uint8 arrays, ...) are sliced through one memoryview — zero
        copies; the chunking path scans the views in place.  Arbitrary
        iterables are re-buffered with one copy per byte.  Empty input
        yields no buffers.
        """
        try:
            mv = as_byte_view(data)
        except TypeError:
            mv = None  # not a buffer: re-buffer the iterable below
        except BufferError:
            # Non-contiguous buffer (e.g. a strided memoryview): views
            # cannot represent it, so pay a one-time flattening copy.
            # repro: lint-ok[zero-copy] one flattening copy; no view can represent strided input
            mv = as_byte_view(bytes(data))
        if mv is not None:
            for off in range(0, len(mv), self.config.buffer_size):
                yield mv[off : off + self.config.buffer_size]
            return
        # Re-buffer an arbitrary stream into buffer_size pieces.
        pending = bytearray()
        for piece in data:
            pending.extend(piece)
            while len(pending) >= self.config.buffer_size:
                # repro: lint-ok[zero-copy] re-buffering pieces of arbitrary size IS the copy; immutable so chunks can alias it
                yield bytes(pending[: self.config.buffer_size])
                del pending[: self.config.buffer_size]
        if pending:
            yield bytes(pending)  # repro: lint-ok[zero-copy] final partial re-buffer, as above

    def _gpu_phase_costs(self, size: int, n_chunks: int) -> PhaseCosts:
        cfg = self.config
        if cfg.gpu_direct:
            # NIC-to-GPU DMA: no host staging, no SAN reader in the path.
            # Ingest and PCIe transfer collapse into one stage running at
            # the slower of the fabric and the (per-GPU) PCIe link.
            wire = max(
                size / cfg.gpu_direct_bandwidth,
                self.device.dma.transfer_time(
                    size // cfg.num_gpus, Direction.HOST_TO_DEVICE, MemoryType.PINNED
                ),
            )
            kernel = self.kernel.estimate(
                self.device, size // cfg.num_gpus, boundary_count=n_chunks,
                coalesced=cfg.coalesced_memory,
            ).kernel_seconds
            store = (
                self.device.download_time(max(1, n_chunks) * BOUNDARY_RECORD_BYTES)
                + n_chunks * PER_CHUNK_UPCALL_S
            )
            return PhaseCosts(0.0, wire, kernel, store)
        read = size / self.host.reader_bandwidth
        if cfg.pinned_ring:
            assert self._ring is not None
            transfer = self._ring.staging_copy_time(size) + self.device.dma.transfer_time(
                size, Direction.HOST_TO_DEVICE, MemoryType.PINNED
            )
        elif cfg.double_buffering:
            # Async copy requires pinned memory; without the ring a pinned
            # buffer is allocated per transfer (the cost Fig. 6 highlights).
            alloc = self.host_memory.alloc_pinned(size)
            self.host_memory.free(alloc)
            transfer = alloc.alloc_seconds + self.device.dma.transfer_time(
                size, Direction.HOST_TO_DEVICE, MemoryType.PINNED
            )
        else:
            transfer = self.device.dma.transfer_time(
                size, Direction.HOST_TO_DEVICE, MemoryType.PAGEABLE
            )
        if cfg.num_gpus > 1:
            # Buffers round-robin across devices: each device sees 1/k of
            # the stream, and each has its own PCIe link.
            transfer /= cfg.num_gpus
        kernel = self.kernel.estimate(
            self.device, max(1, size // cfg.num_gpus), boundary_count=n_chunks,
            coalesced=cfg.coalesced_memory,
        ).kernel_seconds
        store = (
            self.device.download_time(max(1, n_chunks) * BOUNDARY_RECORD_BYTES)
            + n_chunks * PER_CHUNK_UPCALL_S
        )
        return PhaseCosts(read, transfer, kernel, store)

    def process(self, data: bytes | Iterable[bytes]) -> tuple[list[Chunk], ShredderReport]:
        """Chunk a stream; returns real chunks plus the timing report.

        The chunks come from the one scan driver; the report is
        :meth:`simulate` evaluated at the stream's actual byte and chunk
        counts.
        """
        chunks = list(
            stream_chunks(self._candidate_fn, self.config.chunker, self._buffers(data))
        )
        total_bytes = chunks[-1].end if chunks else 0
        return chunks, self.simulate(total_bytes, len(chunks))

    def chunk(self, data: bytes | Iterable[bytes]) -> list[Chunk]:
        """Chunks only (convenience)."""
        return self.process(data)[0]

    def pipeline_batches(
        self,
        data: bytes | Iterable[bytes],
        batch_chunks: int | None = None,
        queue_depth: int = 4,
    ) -> Iterator[list[Chunk]]:
        """Stage-overlapped chunk+hash batches, in stream order.

        Yields digested chunk batches while the scan of later buffers is
        still running (see :func:`repro.core.chunking.pipeline_chunks`);
        concatenated, the batches equal :meth:`chunk` output exactly
        (same driver, same candidate scan, digests prefilled).
        """
        return pipeline_chunks(
            self._candidate_fn,
            self.config.chunker,
            self._buffers(data),
            batch_chunks=batch_chunks,
            queue_depth=queue_depth,
        )

    # ------------------------------------------------------------------

    def simulate(self, total_bytes: int, n_chunks: int | None = None) -> ShredderReport:
        """Timing-only run: model chunking ``total_bytes`` without data.

        Used by the figure benchmarks to evaluate paper-scale streams
        (e.g. 1 GB with 16-256 MB buffers) purely through the hardware
        models; chunk counts default to the expected chunk size.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if n_chunks is None:
            n_chunks = max(1, total_bytes // self.config.chunker.expected_chunk_size)
        cfg = self.config
        report = ShredderReport(
            backend=cfg.backend,
            total_bytes=total_bytes,
            n_chunks=n_chunks,
            n_buffers=-(-total_bytes // cfg.buffer_size),
        )
        if self._ring is not None:
            report.setup_seconds = self._ring.setup_seconds
        if total_bytes == 0:
            return report  # an empty stream schedules nothing on either backend
        if cfg.backend == "cpu":
            report.simulated_seconds = self.host_chunker.estimate_seconds(
                total_bytes, n_chunks
            )
            return report

        sizes = [cfg.buffer_size] * (total_bytes // cfg.buffer_size)
        if total_bytes % cfg.buffer_size:
            sizes.append(total_bytes % cfg.buffer_size)
        chunks_per_buffer = max(1, round(n_chunks / len(sizes)))
        # Identical buffers cost the same: price each distinct size once.
        costs = {
            size: self._gpu_phase_costs(size, chunks_per_buffer)
            for size in dict.fromkeys(sizes)
        }
        report.phase_costs = [costs[size] for size in sizes]
        if cfg.pipeline_stages > 1:
            report.schedule = pipeline_schedule(
                report.phase_costs, stages=cfg.pipeline_stages,
                max_in_flight=cfg.ring_slots,
            )
        elif cfg.double_buffering:
            report.schedule = double_buffered_schedule(report.phase_costs)
        else:
            report.schedule = serialized_schedule(report.phase_costs)
        report.simulated_seconds = report.schedule.total_seconds
        report.kernel_stats = self.kernel.estimate(
            self.device, sizes[0], boundary_count=chunks_per_buffer,
            coalesced=cfg.coalesced_memory,
        )
        return report

    def close(self) -> None:
        """Release pinned ring slots (idempotent)."""
        if self._ring is not None:
            self._ring.destroy()
            self._ring = None

    def __enter__(self) -> "Shredder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
