"""Chunking engines: find marker positions in a byte stream.

An *engine* scans a buffer with a sliding Rabin window and returns every
**candidate cut**: an exclusive end offset ``c`` such that the window
ending at byte ``c - 1`` fingerprints to the marker value.  Candidate cuts
are min/max-agnostic (the paper's GPU kernel behaves the same way: the
Store thread applies min/max afterwards, §7.3).

Both engines accept any object exporting the buffer protocol (``bytes``,
``bytearray``, ``memoryview``, ``mmap``, NumPy ``uint8`` arrays, ...) and
scan it **without copying** — the zero-copy fast path the paper's pinned
ring buffers exist to preserve.

Two interchangeable implementations:

``SerialEngine``
    Pure-Python rolling reference.  Slow but obviously correct; used for
    differential testing and tiny inputs.

``VectorEngine``
    The fast engine.  Every input of at least a window goes to the
    **native kernel** (:mod:`repro.core.native`): one compiled C loop
    that rolls the window over the engine's two 256-entry tables in
    four interleaved lanes (one serial chain below a floor of positions
    per lane), built on the first scan and called through ``ctypes``
    with the GIL released.  When no library can be built, the engine
    falls back to NumPy (:meth:`VectorEngine.numpy_cut_array`), which
    is also the second oracle the native kernel is tested against.
    Small inputs use the linearity of Rabin fingerprints (XOR of
    per-position table entries, folded in 16-bit pairs).  Large inputs
    use a *striped roll kernel*:
    the buffer is cut into cache-sized tiles, each tile into ``lanes``
    equal sub-streams, and every lane rolls its own window serially
    while NumPy vectorizes *across* lanes — the paper's SPMD kernel
    layout (§3.1).  The tile is transposed once into **byte planes**
    (row ``t`` = byte ``t`` of every lane), which is the paper's memory
    coalescing (§4.3) in NumPy terms: every operand of a step — leaving
    bytes, entering bytes, state — is one contiguous lane-wide row,
    never a strided walk of each lane's own sub-stream.  The only tables
    the roll kernel reads are the two the native kernel reads, and one
    lookup fetches the data terms of ``roll_steps`` rows ahead of the
    chain that retires them — amortizing per-launch dispatch the way the
    paper amortizes kernel launch and DMA over larger work units (§4.1).
    The gather path's pair tables are cached at module level keyed by
    ``(polynomial, window_size)`` and built on first use.  Every scan
    runs on the calling thread, and a defaulted engine's NumPy geometry
    is three constants (:data:`DEFAULT_LANES`, :data:`DEFAULT_TILE_BYTES`,
    :data:`DEFAULT_ROLL_STEPS`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import native
from repro.core.rabin import RabinFingerprinter

__all__ = [
    "Engine",
    "SerialEngine",
    "VectorEngine",
    "default_engine",
    "as_byte_view",
    "as_uint8",
    "engine_tables",
    "DEFAULT_LANES",
    "DEFAULT_TILE_BYTES",
    "DEFAULT_ROLL_STEPS",
]


def as_byte_view(buf) -> memoryview:
    """Flat byte ``memoryview`` of any buffer-protocol object, no copy.

    The one normalization point for the zero-copy path: every consumer
    (engines, chunkers, streaming, batched hashing) funnels through here.
    Raises ``BufferError`` for non-contiguous buffers (e.g. strided
    memoryview slices), which no zero-copy view can represent — callers
    that accept such inputs flatten with ``bytes()`` first.
    """
    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    if not mv.c_contiguous:  # checked first: cast() would raise TypeError
        raise BufferError("underlying buffer is not C-contiguous")
    if mv.ndim != 1 or mv.format != "B":
        mv = mv.cast("B")
    return mv


def as_uint8(data) -> np.ndarray:
    """Zero-copy ``uint8`` view of any buffer-protocol object.

    NumPy arrays pass through (reinterpreted as bytes if needed); other
    buffers (bytes, bytearray, memoryview, mmap, ...) are wrapped via
    ``np.frombuffer`` without copying.
    """
    if isinstance(data, np.ndarray):
        if data.dtype == np.uint8 and data.ndim == 1:
            return data
        return np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    return np.frombuffer(as_byte_view(data), dtype=np.uint8)


class _EngineTables:
    """Pair tables of the gather evaluation for one (polynomial, window).

    ``pair[q][v]`` is the contribution of the 16-bit little-endian pair
    ``v`` at window pair-offset ``q``; ``low`` is its 16-bit truncation
    (4x less gather traffic).  12.6 MB + 3 MB at the default window and
    ~0.15 s to build, read only by inputs below the roll crossover and
    by the :meth:`VectorEngine.fingerprints` reference — so they are
    built on first use, never by constructing an engine.
    """

    __slots__ = ("pair", "low")

    def __init__(self, fingerprinter: RabinFingerprinter) -> None:
        w = fingerprinter.window_size
        position = np.array(fingerprinter.position_tables(), dtype=np.uint64)
        lo = np.arange(65536, dtype=np.uint32) & 0xFF
        hi = np.arange(65536, dtype=np.uint32) >> 8
        self.pair = np.empty((w // 2, 65536), dtype=np.uint64)
        for q in range(w // 2):
            self.pair[q] = position[2 * q][lo] ^ position[2 * q + 1][hi]
        self.low = self.pair.astype(np.uint16)


#: Module-level table cache: (polynomial, window_size) -> _EngineTables.
#: BackupServer and the CLI build a fresh Chunker (hence engine) per
#: request; without this cache every small scan rebuilds ~15 MB of tables.
_TABLE_CACHE: dict[tuple[int, int], _EngineTables] = {}
_TABLE_LOCK = threading.Lock()


def engine_tables(fingerprinter: RabinFingerprinter) -> _EngineTables:
    """Shared gather tables for ``fingerprinter`` (built once per process)."""
    key = (fingerprinter.polynomial, fingerprinter.window_size)
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        # Threads that chunk may race to a cold cache; build once.
        with _TABLE_LOCK:
            tables = _TABLE_CACHE.get(key)
            if tables is None:
                tables = _TABLE_CACHE[key] = _EngineTables(fingerprinter)
    return tables


class Engine:
    """Interface: scan buffers for candidate cut positions."""

    #: RabinFingerprinter used by this engine.
    fingerprinter: RabinFingerprinter

    def candidate_cuts(self, data, mask: int, marker: int) -> list[int]:
        """Return sorted exclusive end offsets of marker windows in ``data``.

        A cut ``c`` means the window ``data[c - w : c]`` satisfies
        ``fingerprint & mask == marker``.  Cuts lie in
        ``[window_size, len(data)]``.  ``data`` is any buffer-protocol
        object (or NumPy ``uint8`` array).
        """
        raise NotImplementedError

    def candidate_cut_array(self, data, mask: int, marker: int) -> np.ndarray:
        """Candidate cuts as an ``int64`` array (exclusive end offsets).

        Default wrapper over :meth:`candidate_cuts`; vectorized engines
        override it to stay in array form end to end.
        """
        return np.asarray(self.candidate_cuts(data, mask, marker), dtype=np.int64)

    @property
    def window_size(self) -> int:
        return self.fingerprinter.window_size


class SerialEngine(Engine):
    """Reference rolling implementation (pure Python)."""

    def __init__(self, fingerprinter: RabinFingerprinter | None = None) -> None:
        self.fingerprinter = fingerprinter or RabinFingerprinter()

    def candidate_cuts(self, data, mask: int, marker: int) -> list[int]:
        if not isinstance(data, bytes):  # reference path: a copy is fine
            data = as_uint8(data).tobytes()  # repro: lint-ok[zero-copy] documented reference path
        w = self.fingerprinter.window_size
        cuts = []
        for start, fp in self.fingerprinter.sliding_fingerprints(data):
            if fp & mask == marker:
                cuts.append(start + w)
        return cuts


#: Striped-scan geometry of a defaulted engine: 4096 lanes keep the
#: chain's working set (four lane-wide 64-bit vectors and one
#: ``roll_steps``-row block of data terms) in L2, and a 1 MiB tile keeps
#: its byte planes and 16-bit history there too.
DEFAULT_LANES = 4096
DEFAULT_TILE_BYTES = 1 << 20
DEFAULT_ROLL_STEPS = 8

#: Fewest window positions a lane is given.  Every lane pays ``window``
#: seed rows before its first position, so a tile narrows its lane count
#: to ``positions // _LANE_FLOOR`` rather than seed 4096 lanes for a
#: handful of rows each.
_LANE_FLOOR = 64
#: Inputs of at most this many window positions take the gather path:
#: one floor-deep row of 64 lanes is where the roll kernel's fixed
#: per-row dispatch cost (``window + _LANE_FLOOR`` rows whatever the
#: size) meets the gather path's per-position cost, measured.
_GATHER_MAX_POSITIONS = 64 * _LANE_FLOOR
#: Lanes transposed per copy when a tile is laid out as byte planes;
#: keeps the strided side of the copy inside L1 at any tile size.
_TRANSPOSE_LANES = 64


class VectorEngine(Engine):
    """The fast engine: the native kernel, with NumPy as its fallback.

    Every input of at least a window is scanned by the native kernel
    (:mod:`repro.core.native`) when its library loads: a laned roll
    over the two 256-entry tables below, one call per scan.  When
    no library can be built, :meth:`numpy_cut_array` runs instead.

    NumPy fallback: small buffers (``<= _GATHER_MAX_POSITIONS``
    windows) are evaluated by table gathers: the fingerprint of the
    window starting at ``i`` is ``XOR_q T2[q][pair(i + 2q)]`` where
    ``pair(p) = data[p] | data[p+1]<<8`` (``T2`` are the pair tables of
    :func:`engine_tables`, built on first use).  Everything larger runs
    the striped roll kernel (:meth:`_roll_hits`): per tile, one
    transpose into byte planes, then a chain of lane-wide steps whose
    every operand is a contiguous row and whose only tables are the two
    256-entry, L1-resident ones.  ``roll_steps`` is the number of rows
    whose data terms one stacked lookup fetches ahead of the chain — the
    paper's amortization of per-launch cost over larger work units
    (§4.1); ``1`` is a block of one row, the same code.  ``lanes``,
    ``tile_bytes`` and ``roll_steps`` shape the fallback only.  Both
    kernels are bit-identical to :class:`SerialEngine` and to the gather
    reference at every geometry (differentially fuzzed).

    Requires an even window size (the default, 48, is even).
    """

    def __init__(
        self,
        fingerprinter: RabinFingerprinter | None = None,
        lanes: int = DEFAULT_LANES,
        tile_bytes: int = DEFAULT_TILE_BYTES,
        roll_steps: int = DEFAULT_ROLL_STEPS,
    ) -> None:
        self.fingerprinter = fingerprinter or RabinFingerprinter()
        w = self.fingerprinter.window_size
        if w % 2 != 0:
            raise ValueError(f"VectorEngine requires an even window size, got {w}")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if tile_bytes < 1:
            raise ValueError("tile_bytes must be >= 1")
        if roll_steps < 1:
            raise ValueError("roll_steps must be >= 1")
        self.lanes = lanes
        self.tile_bytes = tile_bytes
        self.roll_steps = roll_steps
        # The roll kernel's two tables, 2 KiB each.  State is int64 so a
        # shifted-out byte is a valid ``np.take`` index with no cast.
        # ``_out_table[b] = b * x**(8*w) mod P``: what the byte leaving
        # the window contributes one step later.  ``_fold_table[t]``
        # reduces the byte ``t`` that ``f << 8`` pushes past the degree
        # *and* clears it (``t << degree``) in the same XOR.
        fp = self.fingerprinter
        self._out_table = np.array(fp.fused_out_table(), dtype=np.int64)
        top = np.arange(256, dtype=np.uint64)
        self._fold_table = (
            np.array(fp.reduce_table, dtype=np.uint64) ^ (top << np.uint64(fp.degree))
        ).view(np.int64)

    # -- gather evaluation (reference; also the small-input fast path) -----

    def fingerprints(self, data) -> np.ndarray:
        """Fingerprints of every full window, indexed by window start.

        Untiled gather evaluation — the memory-hungry reference kept for
        differential tests and as the pre-optimization benchmark baseline.
        """
        d = as_uint8(data)
        w = self.fingerprinter.window_size
        if d.size < w:
            return np.empty(0, dtype=np.uint64)
        return self._gather(d, engine_tables(self.fingerprinter).pair)

    def _low_fingerprints(self, d: np.ndarray) -> np.ndarray:
        """Low 16 bits of every window fingerprint (untiled gather scan)."""
        return self._gather(d, engine_tables(self.fingerprinter).low)

    def _gather(self, d: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """XOR of one ``tables`` entry per byte pair of every window."""
        w = self.fingerprinter.window_size
        pairs = d[:-1].astype(np.uint16) | (d[1:].astype(np.uint16) << np.uint16(8))
        m = d.size - w + 1
        acc = tables[0][pairs[:m]].copy()
        for q in range(1, w // 2):
            acc ^= tables[q][pairs[2 * q : 2 * q + m]]
        return acc

    # -- striped roll kernel (the large-input fast path) -------------------

    @staticmethod
    def _byte_planes(seg: np.ndarray, steps: int, width: int) -> np.ndarray:
        """``seg`` as ``(steps, width)`` planes: row ``t`` holds byte ``t``
        of each of ``width`` consecutive ``steps``-byte sub-streams.

        ``seg`` holds at most ``steps * width`` bytes; those it does not
        have (the input's tail) read as zero.
        """
        planes = np.zeros((steps, width), dtype=np.uint8)
        full, rest = divmod(seg.size, steps)
        body = seg[: full * steps].reshape(full, steps)
        whole = planes[:, :full]
        for j in range(0, full, _TRANSPOSE_LANES):
            whole[:, j : j + _TRANSPOSE_LANES] = body[j : j + _TRANSPOSE_LANES].T
        if rest:
            planes[:rest, full] = seg[full * steps : full * steps + rest]
        return planes

    def _roll_hits(self, d: np.ndarray, mask: int, marker: int) -> np.ndarray:
        """Window-start offsets of marker windows, via the roll kernel.

        Each tile of ``tile_bytes`` window positions is split into
        ``lanes`` contiguous sub-streams of ``steps`` bytes and laid out
        once as byte planes (:meth:`_byte_planes`) with one extra
        *spill* lane, so that every operand of the chain is a
        contiguous lane-wide row: the byte leaving at row ``t`` is
        ``planes[t]``, the byte entering is ``planes[t + w]`` of the
        same lane or, past the lane's end, ``planes[t + w - steps]`` of
        the next (hence ``steps >= w``).  One step is GF(2)-linear,

            f(p+1) = f(p) * x**8  ^  d[p] * x**(8*w)  ^  d[p+w]   (mod P)

        so a block of ``roll_steps`` rows first fetches its data terms
        — one ``np.take`` from the 256-entry out-table, XOR the
        entering rows — and the chain then retires them row by row:
        shift, fold the overflow byte back through the 256-entry fold
        table, XOR the data term, record.  Seeding is the same chain:
        ``w`` append rows from ``f = 0`` (no byte leaves yet).  Only
        the low 16 fingerprint bits are recorded per position when the
        mask allows (XOR never carries across bit 15).
        """
        fp = self.fingerprinter
        w = fp.window_size
        S = self.roll_steps
        out_table, fold_table = self._out_table, self._fold_table
        # f < 2**degree between steps, so its top byte is exactly what
        # the next ``<< 8`` overflows.
        lead = np.int64(fp.degree - 8)
        eight = np.int64(8)
        if mask <= 0xFFFF:
            fp_dtype, m_mask, m_marker = np.uint16, np.uint16(mask), np.uint16(marker)
        else:
            fp_dtype, m_mask, m_marker = np.uint64, np.uint64(mask), np.uint64(marker)

        def retire(f, top, fold, block, into) -> None:
            """Advance state ``f`` through ``block``'s rows, recording each."""
            for k in range(len(block)):
                np.right_shift(f, lead, out=top)
                np.left_shift(f, eight, out=f)
                np.take(fold_table, top, out=fold, mode="clip")
                np.bitwise_xor(f, fold, out=f)
                np.bitwise_xor(f, block[k], out=f)
                into[k] = f  # a narrow dtype keeps the low 16 bits

        n = d.size
        m = n - w + 1
        hits: list[np.ndarray] = []
        dispatches = tiles = 0
        for t0 in range(0, m, self.tile_bytes):
            tiles += 1
            mt = min(self.tile_bytes, m - t0)
            lanes = max(1, min(self.lanes, mt // max(_LANE_FLOOR, w)))
            rows = -(-mt // lanes)  # window positions per lane
            steps = max(rows, w)  # lane stride; only a lone short lane is padded
            planes = self._byte_planes(d[t0 : t0 + (lanes + 1) * steps], steps, lanes + 1)
            own, spill = planes[:, :lanes], planes[:, 1:]
            f = np.zeros(lanes, dtype=np.int64)
            top = np.empty(lanes, dtype=np.intp)
            fold = np.empty(lanes, dtype=np.int64)
            terms = np.empty((S, lanes), dtype=np.int64)
            # trail[u] is f once byte row u has entered: the window
            # starting at row p ends at row p + w - 1.
            trail = np.empty((w - 1 + rows, lanes), dtype=fp_dtype)

            for u in range(0, w, S):  # seed: append rows 0..w-1
                block = terms[: min(S, w - u)]
                block[:] = own[u : u + len(block)]
                retire(f, top, fold, block, trail[u : u + len(block)])
            for r in range(0, rows - 1, S):  # roll: position r+k -> r+k+1
                block = terms[: min(S, rows - 1 - r)]
                np.take(out_table, own[r : r + len(block)], out=block, mode="clip")
                # Entering rows r+w ..: the lane's own until row `steps`,
                # then the next lane's from row 0.
                e = r + w
                cut = min(max(steps - e, 0), len(block))
                block[:cut] ^= own[e : e + cut]
                block[cut:] ^= spill[e + cut - steps : e + len(block) - steps]
                retire(f, top, fold, block, trail[e : e + len(block)])
            dispatches += -(-w // S) + -(-(rows - 1) // S)
            flat = np.flatnonzero((trail[w - 1 :].reshape(-1) & m_mask) == m_marker)
            row, lane = np.divmod(flat, lanes)
            pos = lane * steps + row
            hits.append(t0 + pos[pos < mt])
        self._record_scan(dispatches, tiles, m, n, self._numpy_geometry(S))
        out = np.concatenate(hits)
        out.sort()
        return out

    def _numpy_geometry(self, roll_steps: int) -> dict:
        return {"lanes": self.lanes, "tile_bytes": self.tile_bytes, "roll_steps": roll_steps}

    @staticmethod
    def _record_scan(
        dispatches: int, tiles: int, positions: int, nbytes: int, geometry: dict
    ) -> None:
        """Feed one scan's instrumentation to :mod:`repro.core.stats`.

        Imported lazily: stats sits above chunking in the import graph,
        so a top-level import here would be circular.
        """
        from repro.core import stats

        stats.record_scan(
            dispatches=dispatches,
            tiles=tiles,
            positions=positions,
            scanned_bytes=nbytes,
            geometry=geometry,
        )

    # -- native kernel -----------------------------------------------------

    def _native_cuts(self, scan, d: np.ndarray, mask: int, marker: int) -> np.ndarray:
        """Candidate cuts of ``d`` (at least a window long) from the
        native kernel ``scan``, which reads ``d`` in place."""
        w = self.fingerprinter.window_size
        m = d.size - w + 1
        lead = self.fingerprinter.degree - 8
        fold, out = self._fold_table.ctypes.data, self._out_table.ctypes.data
        # Twice the expected count on random data (one candidate per
        # 2**bits positions), and no more than a 256th of the positions,
        # plus a slack of 64 for each lane's region of the buffer.  A scan
        # that finds more, or crowds one lane past its region, returns a
        # capacity above ``cap`` that fits every lane: the one retry is
        # laned too, and returns the exact count.
        cap = (m >> max(bin(mask).count("1") - 1, 8)) + 64 * native.LANES
        while True:
            cuts = np.empty(cap, dtype=np.int64)
            count = scan(d.ctypes.data, d.size, w, lead, fold, out, int(mask), int(marker),
                         cuts.ctypes.data, cap)
            if count <= cap:
                break
            cap = count
        self._record_scan(1, 1, m, d.size, {"kernel": "native"})
        return cuts[:count]

    # -- public scan API ---------------------------------------------------

    def candidate_cut_array(self, data, mask: int, marker: int) -> np.ndarray:
        """Candidate cuts as an ``int64`` array (exclusive end offsets):
        the native kernel, or :meth:`numpy_cut_array` without it."""
        d = as_uint8(data)
        if d.size < self.fingerprinter.window_size:
            return np.empty(0, dtype=np.int64)
        scan = native.kernel()
        if scan is None:
            return self.numpy_cut_array(d, mask, marker)
        return self._native_cuts(scan, d, mask, marker)

    def numpy_cut_array(self, data, mask: int, marker: int) -> np.ndarray:
        """The NumPy fallback, and the native kernel's second oracle:
        roll kernel for large inputs, gather for small."""
        d = as_uint8(data)
        w = self.fingerprinter.window_size
        m = d.size - w + 1
        if m <= 0:
            return np.empty(0, dtype=np.int64)
        if m > _GATHER_MAX_POSITIONS:
            hits = self._roll_hits(d, mask, marker)
        else:
            if mask <= 0xFFFF:
                fps = self._low_fingerprints(d)
                hits = np.flatnonzero((fps & np.uint16(mask)) == np.uint16(marker))
            else:
                fps = self.fingerprints(d)
                hits = np.flatnonzero((fps & np.uint64(mask)) == np.uint64(marker))
            self._record_scan(1, 1, m, d.size, self._numpy_geometry(0))
        return hits.astype(np.int64, copy=False) + w

    def candidate_cuts(self, data, mask: int, marker: int) -> list[int]:
        return self.candidate_cut_array(data, mask, marker).tolist()


_DEFAULT: VectorEngine | None = None
# Dedicated lock: constructing a VectorEngine takes _TABLE_LOCK for its
# table caches, so the singleton guard must be a different (outer) lock.
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> VectorEngine:
    """Process-wide shared VectorEngine for the default fingerprinter."""
    global _DEFAULT
    engine = _DEFAULT
    if engine is None:
        # Same double-checked discipline as the table caches above.
        with _DEFAULT_LOCK:
            engine = _DEFAULT
            if engine is None:
                engine = _DEFAULT = VectorEngine()
    return engine
