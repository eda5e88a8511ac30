"""Content-based chunking: turn candidate cuts into chunks (§2.1, §3.1).

The paper's pipeline separates *finding marker windows* (the expensive
scan, offloaded to the GPU) from *selecting chunk boundaries* (applying
minimum / maximum chunk sizes, done by the Store thread).  This module
implements the second step plus the user-facing :class:`Chunker` API.

The whole data path is **zero-copy**: chunkers accept any buffer-protocol
object, :class:`Chunk` records are lazy ``(offset, length)`` views into
the caller's buffers that materialize ``data``/``digest`` on demand, and
the streaming path carries a ring of buffer references instead of
re-concatenated bytestrings.  Because chunks reference the buffers they
were cut from, callers that mutate or recycle those buffers should call
:meth:`Chunk.materialize` first.

Defaults follow §3.1: a 48-byte window whose fingerprint's low-order
13 bits are compared against a fixed marker, giving an expected chunk
size of ``2**13`` bytes, with ``min = 0`` and ``max = ∞`` unless noted.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import Generator, Iterable, Iterator, Sequence

import numpy as np

from repro.core.engines import (
    Engine,
    SerialEngine,
    VectorEngine,
    as_byte_view,
    default_engine,
)
from repro.core.hashing import chunk_hash, digest_chunks, digest_many, digest_views
from repro.core.rabin import DEFAULT_WINDOW_SIZE, RabinFingerprinter

__all__ = [
    "ChunkerConfig",
    "Chunk",
    "Chunker",
    "select_cuts",
    "select_cuts_fast",
    "chunk_sizes",
    "ensure_digests",
    "pipeline_chunks",
    "PipelineError",
]

#: Default number of low-order fingerprint bits compared against the marker
#: (§3.1: "the resulting low-order 13 bits").
DEFAULT_MASK_BITS = 13

#: Default marker value (any fixed 13-bit constant works; zero is avoided
#: because long runs of zero bytes would match at every offset).
DEFAULT_MARKER = 0x1A2B & ((1 << DEFAULT_MASK_BITS) - 1)


@dataclass(frozen=True)
class ChunkerConfig:
    """Parameters of a content-based chunker.

    Attributes
    ----------
    window_size:
        Sliding-window width in bytes.
    mask_bits:
        Number of low-order fingerprint bits compared with ``marker``.
        The expected chunk size is ``2**mask_bits`` bytes.
    marker:
        Value the masked fingerprint must equal at a chunk boundary.
    min_size / max_size:
        Minimum and maximum chunk sizes.  ``min_size = 0`` and
        ``max_size = None`` (unbounded) reproduce the paper's default.
    polynomial:
        Irreducible GF(2) polynomial; ``None`` selects the library default.
    """

    window_size: int = DEFAULT_WINDOW_SIZE
    mask_bits: int = DEFAULT_MASK_BITS
    marker: int = DEFAULT_MARKER
    min_size: int = 0
    max_size: int | None = None
    polynomial: int | None = None

    def __post_init__(self) -> None:
        if self.mask_bits < 1 or self.mask_bits > 48:
            raise ValueError(f"mask_bits must be in [1, 48], got {self.mask_bits}")
        if self.marker >> self.mask_bits:
            raise ValueError(
                f"marker {self.marker:#x} does not fit in {self.mask_bits} bits"
            )
        if self.min_size < 0:
            raise ValueError("min_size must be non-negative")
        if self.max_size is not None:
            if self.max_size <= 0:
                raise ValueError("max_size must be positive")
            if self.max_size < self.min_size:
                raise ValueError("max_size must be >= min_size")
            if self.max_size < self.window_size:
                raise ValueError("max_size must be >= window_size")

    @property
    def mask(self) -> int:
        return (1 << self.mask_bits) - 1

    @property
    def expected_chunk_size(self) -> int:
        """Expected chunk size for uniform random data, ignoring min/max."""
        return 1 << self.mask_bits

    def with_limits(self, min_size: int, max_size: int | None) -> "ChunkerConfig":
        """Copy of this config with different min/max limits."""
        return replace(self, min_size=min_size, max_size=max_size)


class Chunk:
    """One content-defined chunk of a stream (lazy).

    ``offset`` is absolute within the stream.  The payload is recorded
    either eagerly (``data``/``digest``) or as zero-copy buffer ``views``
    into the scanned input; ``data`` and ``digest`` then materialize on
    first access (and cache).  Requesting only ``digest`` never builds
    the ``data`` bytestring — duplicate chunks in a dedup flow are
    hashed straight from the source buffer and their payload is never
    copied at all.

    Lazy chunks keep the source buffer alive (and assume it is not
    mutated) until :meth:`materialize` or :meth:`release` is called.
    """

    __slots__ = ("offset", "length", "_data", "_digest", "_views")

    def __init__(
        self,
        offset: int,
        length: int,
        data: bytes | None = None,
        digest: bytes | None = None,
        views: tuple | None = None,
    ) -> None:
        if data is None and digest is None and views is None:
            raise ValueError("Chunk needs data, views, or a digest")
        self.offset = offset
        self.length = length
        if data is not None and not isinstance(data, bytes):
            data = bytes(data)  # repro: lint-ok[zero-copy] API coercion: callers own `data`
        self._data = data
        self._digest = digest
        self._views = views

    @property
    def end(self) -> int:
        return self.offset + self.length

    @property
    def data(self) -> bytes:
        """Chunk payload, materialized (and cached) on first access."""
        if self._data is None:
            if self._views is None:
                raise ValueError(
                    f"chunk at offset {self.offset} carries only a digest; "
                    "its payload was released"
                )
            views = self._views
            self._data = (
                # repro: lint-ok[zero-copy] .data IS the materialization point — one copy, cached
                bytes(views[0]) if len(views) == 1 else b"".join(bytes(v) for v in views)
            )
            self._views = None  # buffer references no longer needed
        return self._data

    @property
    def digest(self) -> bytes:
        """Collision-resistant payload hash, computed lazily without
        materializing ``data`` (hashed straight from the source views)."""
        if self._digest is None:
            if self._data is not None:
                self._digest = chunk_hash(self._data)
            else:
                self._digest = digest_views(self._views)
        return self._digest

    def materialize(self) -> "Chunk":
        """Force ``data`` and ``digest``, dropping source-buffer references."""
        self.data
        self.digest
        return self

    def release(self) -> None:
        """Drop buffer references without copying.

        ``offset``/``length`` (and ``digest``/``data`` if already
        materialized) survive; an unmaterialized payload becomes
        unavailable.  Lets callers unmap the scanned buffer (e.g. an
        ``mmap``) once digests are recorded.
        """
        self.digest  # a chunk without data must still identify its content
        self._views = None

    @staticmethod
    def from_bytes(offset: int, data) -> "Chunk":
        """Eager chunk: copy the payload and hash it immediately."""
        data = bytes(data)  # repro: lint-ok[zero-copy] eager constructor: the copy is the contract
        return Chunk(offset=offset, length=len(data), data=data, digest=chunk_hash(data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chunk):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.length == other.length
            and self.digest == other.digest
        )

    def __hash__(self) -> int:
        return hash((self.offset, self.length, self.digest))

    def __repr__(self) -> str:
        return f"Chunk(offset={self.offset}, length={self.length})"

    def __reduce__(self):
        # Views cannot cross process boundaries; pickle the realized form.
        data = self.data if (self._data is not None or self._views is not None) else None
        return (Chunk, (self.offset, self.length, data, self.digest))


def ensure_digests(chunks: Sequence[Chunk]) -> Sequence[Chunk]:
    """Materialize digests for a whole chunk batch in one pass.

    Chunks that already carry a digest are untouched; the rest are hashed
    together through :func:`repro.core.hashing.digest_many`.  This is the
    batched-hashing entry point the backup server and cluster lookup
    path use so a scan batch costs one hashing pass, not one call per
    chunk.
    """
    pending = [c for c in chunks if c._digest is None]
    if not pending:
        return chunks
    pieces = []
    for c in pending:
        if c._data is not None:
            pieces.append(c._data)
        elif len(c._views) == 1:
            pieces.append(c._views[0])
        else:
            pieces.append(None)  # multi-view chunks hash incrementally
    digests = digest_many([p for p in pieces if p is not None])
    it = iter(digests)
    for c, piece in zip(pending, pieces):
        c._digest = next(it) if piece is not None else digest_views(c._views)
    return chunks


def select_cuts(
    candidates: Sequence[int],
    length: int,
    min_size: int = 0,
    max_size: int | None = None,
) -> list[int]:
    """Apply min/max chunk-size rules to candidate cuts (Store-thread logic).

    ``candidates`` are sorted exclusive end offsets of marker windows in a
    buffer of ``length`` bytes.  Per §2.1: after a boundary, the next
    ``min_size`` bytes cannot end a chunk; a boundary is forced whenever
    ``max_size`` bytes accumulate without a marker.  The final cut at
    ``length`` closes the trailing partial chunk (which may be shorter
    than ``min_size``).

    Returns the selected cuts, ending with ``length``.  Empty input
    (``length == 0``) yields no cuts.

    Pure-Python reference implementation; :func:`select_cuts_fast` is the
    production path (bit-identical, differentially tested).
    """
    if length == 0:
        return []
    cuts: list[int] = []
    prev = 0
    for cut in candidates:
        if cut > length:
            raise ValueError(f"candidate cut {cut} beyond buffer length {length}")
        if max_size is not None:
            while cut - prev > max_size:
                prev += max_size
                cuts.append(prev)
        if cut - prev < min_size or cut == prev:
            continue  # inside the skip region after the previous boundary
        cuts.append(cut)
        prev = cut
    if max_size is not None:
        while length - prev > max_size:
            prev += max_size
            cuts.append(prev)
    if not cuts or cuts[-1] != length:
        cuts.append(length)
    return cuts


def select_cuts_fast(
    candidates,
    length: int,
    min_size: int = 0,
    max_size: int | None = None,
) -> list[int]:
    """Vectorized :func:`select_cuts` (bit-identical output).

    The default configuration (``min_size <= 1``, no maximum) reduces to
    pure array ops.  With limits, the greedy walk jumps candidate-to-
    candidate with ``np.searchsorted`` — ``O(selected · log n)`` instead
    of a Python loop over every candidate — touching only the cuts it
    emits, like the Lillibridge-style jump selection in
    :mod:`repro.core.parallel_minmax`.
    """
    if length == 0:
        return []
    c = np.asarray(candidates, dtype=np.int64)
    n = int(c.size)
    if n and int(c[-1]) > length:
        raise ValueError(
            f"candidate cut {int(c[-1])} beyond buffer length {length}"
        )
    if min_size <= 1 and max_size is None:
        uniq = np.unique(c[c > 0]) if n else c
        out = uniq.tolist()
        if not out or out[-1] != length:
            out.append(length)
        return out
    out: list[int] = []
    prev = 0
    step = max(min_size, 1)
    while True:
        i = int(np.searchsorted(c, prev + step, side="left"))
        nxt = int(c[i]) if i < n else None
        if nxt is not None and (max_size is None or nxt - prev <= max_size):
            out.append(nxt)
            prev = nxt
            continue
        if max_size is not None and (
            nxt is not None or length - prev > max_size
        ):
            prev += max_size
            out.append(prev)
            continue
        break
    if not out or out[-1] != length:
        out.append(length)
    return out


def chunk_sizes(cuts: Iterable[int]) -> list[int]:
    """Chunk lengths implied by a sorted cut list (first cut from offset 0)."""
    sizes = []
    prev = 0
    for cut in cuts:
        sizes.append(cut - prev)
        prev = cut
    return sizes


def stream_chunks(
    candidate_fn,
    config: ChunkerConfig,
    buffers: Iterable,
    carry_limit: int = 1 << 26,
) -> Iterator[Chunk]:
    """Chunk a buffer stream so boundaries match whole-stream chunking.

    Zero-copy streaming: each incoming buffer (any buffer-protocol
    object) is scanned **once**, in place.  The open chunk (*carry*) is a
    ring of buffer references — ``(global_start, memoryview)`` segments —
    never a re-concatenated bytestring, and emitted :class:`Chunk`
    records are lazy views into those segments.  Windows straddling a
    buffer boundary are caught by splicing the final ``window - 1``
    *tail* bytes of the stream onto the first ``window - 1`` bytes of the
    new buffer (a bounded, constant-size copy), so a stream of N
    markerless buffers costs O(total bytes) work and copies — not the
    quadratic re-scan of a growing carry.

    ``candidate_fn(data) -> cuts`` supplies min/max-agnostic marker cuts
    (e.g. ``Chunker.candidate_cuts`` or the simulated device's); min/max
    selection runs incrementally here against the true previous boundary.

    Zero-copy applies to *read-only* buffers (bytes, read-only
    memoryviews, mmaps).  Writable buffers (bytearray, writable NumPy
    arrays) are snapshotted on arrival — one bounded copy each — because
    producers legitimately refill such buffers between yields (the
    classic read-into-buffer loop), which would silently corrupt aliased
    carry segments.

    ``carry_limit`` bounds memory when no marker appears for a long
    stretch: it acts as an implicit maximum chunk size (default 64 MiB).
    """
    w = config.window_size
    min_size, max_size = config.min_size, config.max_size
    step = max(min_size, 1)
    tail = b""  # final min(w - 1, stream) bytes already scanned
    segments: deque[tuple[int, memoryview]] = deque()  # ring of carry buffer refs
    cands: list[int] = []  # pending global candidate cuts
    ci = 0  # consumed prefix of ``cands``
    prev = 0  # global offset of the open chunk start
    end = 0  # global bytes scanned so far

    def take(hi: int) -> tuple:
        """Split the segment ring at global offset ``hi``; views of [prev, hi)."""
        views = []
        while segments:
            start, mv = segments[0]
            seg_end = start + len(mv)
            if seg_end <= hi:
                views.append(mv)
                segments.popleft()
            else:
                cutoff = hi - start
                if cutoff > 0:
                    views.append(mv[:cutoff])
                    segments[0] = (hi, mv[cutoff:])
                break
        return tuple(views)

    for buf in buffers:
        view = as_byte_view(buf)
        if not view.readonly:
            # repro: lint-ok[zero-copy] snapshot: the producer may refill this writable buffer
            view = memoryview(bytes(view))
        nbytes = len(view)
        if nbytes == 0:
            continue
        start = end
        # Windows straddling the boundary end in (start, start + w - 1]:
        # splice the stream tail onto the head of the new buffer.
        if tail:
            # repro: lint-ok[zero-copy] boundary splice is bounded by the window size, not the input
            splice = tail + bytes(view[: w - 1])
            base = start - len(tail)
            for cut in candidate_fn(splice):
                if base + cut > start:
                    cands.append(base + cut)
        # Windows fully inside the buffer end in [start + w, start + nbytes].
        if nbytes >= w:
            cands.extend(start + cut for cut in candidate_fn(view))
        if nbytes >= w - 1:
            # repro: lint-ok[zero-copy] tail capture copies at most window-1 bytes per buffer
            tail = bytes(view[nbytes - (w - 1) :])
        else:
            tail = (tail + bytes(view))[-(w - 1) :]  # repro: lint-ok[zero-copy] sub-window buffer
        segments.append((start, view))
        end += nbytes

        # Incremental min/max selection (same greedy as select_cuts).  A
        # cut at the current end of data is held back unless it is a real
        # candidate — whole-stream chunking would cut there regardless of
        # what the next buffer holds.
        while True:
            i = bisect_left(cands, prev + step, ci)
            nxt = cands[i] if i < len(cands) else None
            if nxt is not None and (max_size is None or nxt - prev <= max_size):
                cut = nxt
            elif max_size is not None and (nxt is not None or end - prev > max_size):
                cut = prev + max_size  # forced boundary, always < end here
            else:
                break
            yield Chunk(prev, cut - prev, views=take(cut))
            prev = cut
            ci = bisect_left(cands, cut + 1, ci)
            if ci > 1024:  # compact the consumed prefix
                del cands[:ci]
                ci = 0
        if end - prev > carry_limit:
            yield Chunk(prev, end - prev, views=take(end))
            prev = end
            del cands[:]
            ci = 0
    if end > prev:
        yield Chunk(prev, end - prev, views=take(end))


#: Bytes one hash batch is sized to cover.  A constant of the pipeline,
#: not of the scan geometry: batch boundaries decide every probe and
#: placement count downstream, so they must not move with the tile.
HASH_BATCH_BYTES = 4 << 20


def _resolve_batch_chunks(config: ChunkerConfig) -> int:
    """Chunks per hash batch: ``HASH_BATCH_BYTES`` of expected chunks,
    clamped to a sane range so degenerate mask settings cannot produce
    1-chunk or million-chunk batches.
    """
    return max(32, min(4096, HASH_BATCH_BYTES // config.expected_chunk_size))


_PIPE_END = object()


class PipelineError(RuntimeError):
    """A pipeline stage raised; carries the original exception as ``__cause__``."""


def _scan_batches(
    candidate_fn, config: ChunkerConfig, buffers: Iterable, carry_limit: int, batch_chunks: int
) -> Generator[list[Chunk], None, None]:
    """Scan stage: undigested batches off :func:`stream_chunks`.

    Time blocked in the stream (scan + min/max selection) accumulates
    into the ``scan`` stage timer, recorded when the stage ends.
    """
    from repro.core import stats

    scan_s = 0.0
    stream = stream_chunks(candidate_fn, config, buffers, carry_limit=carry_limit)
    try:
        batch: list[Chunk] = []
        while True:
            t0 = time.perf_counter()
            chunk = next(stream, _PIPE_END)
            scan_s += time.perf_counter() - t0
            if chunk is _PIPE_END:
                break
            batch.append(chunk)
            if len(batch) >= batch_chunks:
                yield batch
                batch = []
        if batch:
            yield batch
    finally:
        stats.record_stage("scan", scan_s)


def _hash_batches(
    batches: Generator[list[Chunk], None, None]
) -> Generator[list[Chunk], None, None]:
    """Hash stage: one :func:`ensure_digests` pass per batch (``hash`` timer)."""
    from repro.core import stats

    hash_s = 0.0
    try:
        for batch in batches:
            t0 = time.perf_counter()
            ensure_digests(batch)
            hash_s += time.perf_counter() - t0
            yield batch
    finally:
        stats.record_stage("hash", hash_s)
        batches.close()  # a stage that stops early stops its upstream too


def pipeline_chunks(
    candidate_fn,
    config: ChunkerConfig,
    buffers: Iterable,
    carry_limit: int = 1 << 26,
    batch_chunks: int | None = None,
) -> Iterator[list[Chunk]]:
    """Chunk and hash a buffer stream in batches: scan, then hash.

    The one executor behind every chunking entry point.  Two stage
    generators — :func:`stream_chunks` cut into batches, then one
    :func:`ensure_digests` pass per batch — are chained on the calling
    thread and yield successive **batches** (lists) of digested
    :class:`Chunk` records.  Nothing runs ahead of the caller: a batch
    is scanned and hashed when the caller asks for the next one, so
    whatever the caller does with a batch (index probes, cluster
    lookups, shipping) is done before the next is scanned.

    Batches preserve stream order exactly: concatenating them yields
    the same chunk sequence (offsets, lengths, digests) as
    ``stream_chunks`` followed by one big ``ensure_digests`` pass.

    A stage exception re-raises in the consumer as
    :class:`PipelineError`.  Closing the generator early stops the scan.

    ``batch_chunks=None`` (the default) sizes batches to cover
    ``HASH_BATCH_BYTES`` (see :func:`_resolve_batch_chunks`).  Both
    stages accumulate wall-clock into the ``scan`` / ``hash`` stage
    timers of :mod:`repro.core.stats`, powering ``repro chunk
    --profile``.
    """
    if batch_chunks is None:
        batch_chunks = _resolve_batch_chunks(config)
    if batch_chunks < 1:
        raise ValueError("batch_chunks must be >= 1")
    scanned = _scan_batches(candidate_fn, config, buffers, carry_limit, batch_chunks)
    try:
        yield from _hash_batches(scanned)
    except Exception as exc:  # KeyboardInterrupt/SystemExit pass through
        raise PipelineError(f"chunk pipeline stage failed: {exc!r}") from exc


class Chunker:
    """User-facing content-based chunker.

    Combines an engine (marker scan) with boundary selection and hashing.
    Accepts any buffer-protocol input and never copies payload bytes:
    the returned chunks are lazy views whose digests are computed for the
    whole batch in one pass.

    >>> chunker = Chunker()
    >>> chunks = chunker.chunk(data)
    >>> b"".join(c.data for c in chunks) == data
    True
    """

    def __init__(
        self,
        config: ChunkerConfig | None = None,
        engine: Engine | None = None,
    ) -> None:
        self.config = config or ChunkerConfig()
        if engine is None:
            if (
                self.config.polynomial is None
                and self.config.window_size == DEFAULT_WINDOW_SIZE
            ):
                engine = default_engine()
            else:
                fp = RabinFingerprinter(
                    self.config.polynomial, self.config.window_size
                )
                engine = VectorEngine(fp) if self.config.window_size % 2 == 0 else SerialEngine(fp)
        if engine.window_size != self.config.window_size:
            raise ValueError(
                f"engine window size {engine.window_size} != "
                f"config window size {self.config.window_size}"
            )
        self.engine = engine

    # -- boundary-level API -------------------------------------------------

    def candidate_cut_array(self, data) -> np.ndarray:
        """Marker positions only, before min/max selection (GPU-kernel view)."""
        return self.engine.candidate_cut_array(data, self.config.mask, self.config.marker)

    def candidate_cuts(self, data) -> list[int]:
        """:meth:`candidate_cut_array` as a list (the ``candidate_fn`` of
        :func:`stream_chunks` / :func:`pipeline_chunks`)."""
        return self.candidate_cut_array(data).tolist()

    def cuts(self, data) -> list[int]:
        """Selected exclusive cut offsets for ``data`` (ends with ``len(data)``)."""
        return select_cuts_fast(
            self.candidate_cut_array(data),
            len(as_byte_view(data)),
            self.config.min_size,
            self.config.max_size,
        )

    # -- chunk-level API ----------------------------------------------------

    def chunk(self, data, base_offset: int = 0) -> list[Chunk]:
        """Chunk one in-memory buffer into hashed :class:`Chunk` records.

        Zero-copy: each chunk is a lazy view into ``data``; all digests
        for the scan are computed in one batched pass.  The views alias
        ``data`` even when it is writable (unlike the streaming path,
        which snapshots writable buffers because producers refill them
        mid-iteration): digests identify the content as of this call, so
        a caller that mutates ``data`` afterwards must ``materialize()``
        the chunks first or their ``.data`` will no longer match
        ``.digest`` (the backup agent rejects such payloads).
        """
        view = as_byte_view(data)
        cuts = self.cuts(view)
        chunks = []
        prev = 0
        for cut, digest in zip(cuts, digest_chunks(view, cuts)):
            chunks.append(
                Chunk(base_offset + prev, cut - prev, digest=digest, views=(view[prev:cut],))
            )
            prev = cut
        return chunks

    def chunk_stream(
        self, buffers: Iterable, carry_limit: int = 1 << 26
    ) -> Iterator[Chunk]:
        """Chunk a stream of buffers with correct cross-buffer boundaries.

        Produces exactly the chunks that chunking the concatenated stream
        would.  See :func:`stream_chunks` for the zero-copy carry ring.
        """
        return stream_chunks(
            self.candidate_cuts, self.config, buffers, carry_limit=carry_limit
        )
