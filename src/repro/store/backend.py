"""Pluggable storage backends: one batched key-value protocol.

``DedupIndex._index``, ``ChunkStore._chunks``, and ``StoreNode._chunks``
were three incompatible in-process dicts holding the same key-value
idea.  This module is the seam that unifies them: a batched-first
:class:`ChunkBackend` protocol — the same shape the §7.3 batched lookup
path already charges — with two implementations every state owner
(dedup index, backup-site store, shard node) plugs into unchanged:

* :class:`MemoryBackend` — the extracted dict; behavior- and
  perf-identical default.
* :class:`PersistentBackend` — the paper's backup site as *durable*
  storage (§7): an append-only chunk log of CRC-framed records plus an
  LSM-style digest index (in-memory memtable, sorted CRC-checked
  on-disk runs, and size-tiered compaction collapsing the run set once
  it exceeds the fanout).  Reopening a directory recovers the exact
  prefix of validly framed records: a torn final record is truncated
  away and reported, never silently decoded.

Durability model: records reach the OS page cache on ``flush``; the
recovery path assumes *prefix* durability (a crash may lose a suffix of
the log, never rewrite its middle), which tail-truncation handles.  Run
files are published by atomic rename; a run that fails validation is
discarded wholesale and the whole log is replayed instead, so index
corruption degrades to a slower open, not wrong answers.  A run's
key/offset arrays are held in memory once loaded, so a lookup is the
memtable and then one ``bisect`` per run, newest first, and nothing sits
in front of it: a filter guarding a binary search over resident keys
costs several times the search.  The one Bloom filter of the store is
the node's (:mod:`repro.store.bloom`), which answers "absent" ahead of
the whole backend.  The on-disk format and merge schedule model the LSM
I/O discipline the same way the GPU layer models device timing.

Backends are not thread-safe; each state owner confines its backend to
the thread that owns it (the pipelined server probes from one stage).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import shutil
import struct
import tempfile
import time
import weakref
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # annotation-only: repro.store stays import-clean of repro.backup
    from repro.backup.store import SnapshotRecipe

__all__ = [
    "BackendStats",
    "ChunkBackend",
    "MemoryBackend",
    "PersistentBackend",
    "RecoveryReport",
    "RecipeStore",
    "BACKEND_KINDS",
    "STORE_BACKEND_ENV",
    "FSYNC_ENV",
    "make_backend",
    "resolve_backend",
]

BACKEND_KINDS = ("memory", "disk")
#: Environment default for every backend resolved without an explicit
#: kind — the CI matrix leg sets ``REPRO_STORE_BACKEND=disk`` to run the
#: whole suite through the persistent path.
STORE_BACKEND_ENV = "REPRO_STORE_BACKEND"
#: Where ephemeral disk backends (disk kind, no directory given) live.
STORE_TMP_ENV = "REPRO_STORE_TMP"
#: Truthy values opt persistent backends into fsync-on-flush durability
#: (crash-safe, not just process-crash-safe) when the constructor does
#: not say either way.
FSYNC_ENV = "REPRO_FSYNC"

_LOG_NAME = "chunks.log"
#: Log record framing: crc32 | op | key_len | value_len, then key+value.
#: The CRC covers everything after itself, so any torn or bit-flipped
#: tail fails closed.
_FRAME = struct.Struct("<IBII")
_FRAME_FIELDS = struct.Struct("<BII")  # the CRC-covered rest of the header
#: Appender buffer: a fragment record is ~1.4 KB, so the default 8 KiB
#: buffer makes a write syscall every ~5 appends; 32 KiB every ~23.
_LOG_BUFFER = 1 << 15
_OP_PUT = 1
_OP_DEL = 2
_RUN_MAGIC = b"RRUN2\n"
_RUN_HEADER = struct.Struct("<IQ")  # n_entries, watermark
#: The format PR 5 wrote: a serialized Bloom filter sat between a longer
#: header and the entries.  Still loaded — the filter bytes are skipped.
_RUN_MAGIC_V1 = b"RRUN1\n"
_RUN_HEADER_V1 = struct.Struct("<IQQdII")  # ..., capacity, fp_rate, n_added, filter_len
_RUN_ENTRY = struct.Struct("<HBQI")  # key_len, tombstone, value_offset, value_len


@functools.cache
def core_module(name: str):
    """``repro.core.<name>``, imported on first use and then held:
    ``repro.core`` stores through this package, so ``repro.store``
    must import clean of it."""
    return importlib.import_module(f"repro.core.{name}")


def _record_store(seconds: float) -> None:
    """Feed backend mutation wall-clock to the ``store`` stage timer."""
    core_module("stats").record_stage("store", seconds)


def _frame(op: int, key: bytes, value) -> bytes:
    """One log record, header and CRC included."""
    fields = _FRAME_FIELDS.pack(op, len(key), len(value))
    crc = zlib.crc32(value, zlib.crc32(key, zlib.crc32(fields)))
    return b"".join((crc.to_bytes(4, "little"), fields, key, value))


@dataclass
class BackendStats:
    """Operation counters shared by every backend implementation.

    The disk-only counters (flushes, compactions, recovery) stay zero
    on :class:`MemoryBackend`.
    """

    puts: int = 0  # keys newly inserted
    gets: int = 0
    contains: int = 0
    deletes: int = 0  # keys actually removed
    batches: int = 0  # batched calls serviced
    memtable_flushes: int = 0
    fsyncs: int = 0  # device syncs (only with the fsync knob on)
    compactions: int = 0  # run merges
    log_compactions: int = 0  # whole-log rewrites (GC)
    recovered_records: int = 0
    truncated_bytes: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """What reopening a persistent backend found in the log."""

    valid_bytes: int
    truncated_bytes: int
    replayed_records: int
    replayed_from: int  # log offset covered by the newest run

    @property
    def clean(self) -> bool:
        return self.truncated_bytes == 0


@runtime_checkable
class ChunkBackend(Protocol):
    """Batched-first key-value storage behind every state owner.

    Keys are opaque byte strings (chunk digests, snapshot ids), values
    are byte strings (payloads, encoded offsets, encoded recipes).
    ``put_batch`` is insert-if-absent — content-addressed stores never
    overwrite — and every data-plane entry point takes the whole batch,
    the same shape the §7.3 batched lookup path charges.
    """

    stats: BackendStats

    def contains_batch(self, keys: Sequence[bytes]) -> list[bool]: ...

    def get_batch(self, keys: Sequence[bytes]) -> list[bytes | None]: ...

    def put_batch(
        self, items: Sequence[tuple[bytes, bytes]], *, known_absent: bool = False
    ) -> list[bool]: ...

    def delete_batch(self, keys: Sequence[bytes]) -> list[int]: ...

    def keys(self) -> Iterator[bytes]: ...

    def __len__(self) -> int: ...

    @property
    def value_bytes(self) -> int: ...

    def flush(self) -> None: ...

    def compact(self) -> int: ...

    def clear(self) -> None: ...

    def close(self) -> None: ...


class MemoryBackend:
    """The extracted in-process dict; the behavior-identical default."""

    kind = "memory"

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._value_bytes = 0
        self.stats = BackendStats()
        core_module("stats").register_backend_stats(self.stats)

    def contains_batch(self, keys: Sequence[bytes]) -> list[bool]:
        self.stats.batches += 1
        self.stats.contains += len(keys)
        data = self._data
        return [k in data for k in keys]

    def __contains__(self, key: bytes) -> bool:
        return self.contains_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[bytes | None]:
        self.stats.batches += 1
        self.stats.gets += len(keys)
        data = self._data
        return [data.get(k) for k in keys]

    def put_batch(
        self, items: Sequence[tuple[bytes, bytes]], *, known_absent: bool = False
    ) -> list[bool]:
        t0 = time.perf_counter()
        self.stats.batches += 1
        data = self._data
        inserted = []
        for key, value in items:  # the dict probe is free; ignore the hint
            if key in data:
                inserted.append(False)
                continue
            value = bytes(value)  # detach from any caller-owned buffer
            data[key] = value
            self._value_bytes += len(value)
            self.stats.puts += 1
            inserted.append(True)
        _record_store(time.perf_counter() - t0)
        return inserted

    def delete_batch(self, keys: Sequence[bytes]) -> list[int]:
        self.stats.batches += 1
        freed = []
        for key in keys:
            value = self._data.pop(key, None)
            if value is None:
                freed.append(0)
            else:
                self._value_bytes -= len(value)
                self.stats.deletes += 1
                freed.append(len(value))
        return freed

    def keys(self) -> Iterator[bytes]:
        return iter(tuple(self._data))

    def __len__(self) -> int:
        return len(self._data)

    @property
    def value_bytes(self) -> int:
        return self._value_bytes

    def flush(self) -> None:
        pass  # nothing buffered; nothing worth metering either

    def compact(self) -> int:
        return 0  # nothing to reclaim: deletes free memory immediately

    def clear(self) -> None:
        self._data.clear()
        self._value_bytes = 0

    def close(self) -> None:
        pass


class _Run:
    """One immutable sorted run of the LSM index, keys resident."""

    __slots__ = ("path", "seq", "watermark", "keys", "tombs", "offs", "vlens")

    def __init__(self, path, seq, watermark, keys, tombs, offs, vlens):
        self.path = path
        self.seq = seq
        self.watermark = watermark
        self.keys = keys
        self.tombs = tombs
        self.offs = offs
        self.vlens = vlens

    def lookup(self, key: bytes):
        """``(offset, vlen) | _TOMBSTONE | None`` (None = not in run)."""
        i = bisect.bisect_left(self.keys, key)
        if i == len(self.keys) or self.keys[i] != key:
            return None
        if self.tombs[i]:
            return _TOMBSTONE
        return self.offs[i], self.vlens[i]


_TOMBSTONE = object()


class PersistentBackend:
    """Append-only CRC-framed chunk log + LSM-style digest index.

    Every mutation appends one framed record to ``chunks.log`` and lands
    in the memtable; once the memtable exceeds ``memtable_limit`` keys
    it is written out as a sorted, CRC-checked run file, and once
    ``compact_fanout`` runs accumulate (one size tier — this backend's
    run counts stay within a tier of each other because flushes are
    fixed-size) they merge into a single run, dropping tombstones.
    Reads probe memtable first, then bisect each run's resident key
    list newest-to-oldest — a hit and a miss cost about the same, and
    neither reads the log to decide.

    Crash recovery: each run records the log offset it covers
    (``watermark``); reopening replays only the log suffix past the
    newest watermark, and a torn or corrupt final record truncates the
    log back to the last valid frame (reported in :attr:`recovery` and
    ``stats.truncated_bytes``).
    """

    kind = "disk"

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        memtable_limit: int = 4096,
        compact_fanout: int = 4,
        fsync: bool | None = None,
        _ephemeral: bool = False,
    ) -> None:
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        if compact_fanout < 2:
            raise ValueError("compact_fanout must be >= 2")
        if fsync is None:
            fsync = os.environ.get(FSYNC_ENV, "").strip().lower() in (
                "1",
                "true",
                "yes",
                "on",
            )
        #: When on, ``flush`` syncs the log to the device — full
        #: crash durability instead of the default prefix-durability
        #: (page cache) contract.  Opt-in: it turns every flush into a
        #: device round trip.
        self.fsync = fsync
        self.directory = Path(directory)
        self.memtable_limit = memtable_limit
        self.compact_fanout = compact_fanout
        self.stats = BackendStats()
        core_module("stats").register_backend_stats(self.stats)
        self._ephemeral = _ephemeral
        self._closed = False
        self.directory.mkdir(parents=True, exist_ok=True)
        self._log_path = self.directory / _LOG_NAME
        self._log_path.touch(exist_ok=True)
        self._runs: list[_Run] = []
        self._memtable: dict[bytes, tuple[int, int] | None] = {}
        self._live_count = 0
        self._live_bytes = 0
        self._next_seq = 1
        self.recovery = self._open_and_recover()
        self._appender = open(self._log_path, "ab", buffering=_LOG_BUFFER)
        self._reader = open(self._log_path, "rb")
        #: Where the next record lands: appends never ask the file.
        self._log_end = self.recovery.valid_bytes
        self._unflushed = False
        # GC-safe cleanup: closes the handles (and removes ephemeral
        # directories) even when the owner never calls close().
        self._finalizer = weakref.finalize(
            self,
            PersistentBackend._cleanup,
            self._appender,
            self._reader,
            self.directory,
            self._ephemeral,
        )

    # -- open / recovery ----------------------------------------------

    def _open_and_recover(self) -> RecoveryReport:
        # A compact() interrupted before publishing leaves its tmp file;
        # it was never the log, so it is dead weight.
        self._log_path.with_suffix(".compact").unlink(missing_ok=True)
        try:
            for path in sorted(self.directory.glob("run-*.run")):
                self._runs.append(self._load_run(path))
        except (ValueError, OSError):
            # Any unreadable run poisons trust in all of them: fall back
            # to replaying the full log (slower open, same answers).
            # Every run *file* goes — the corrupt one must not fail the
            # next open too, and an unloaded stale run left behind would
            # outrank fresh runs once sequence numbers restart.
            self._discard_runs()
        if any(r.watermark > self._log_path.stat().st_size for r in self._runs):
            # A run published after the log's durable tail was lost (we
            # flush, not fsync): its entries point past EOF.  Trust only
            # the log.
            self._discard_runs()
        self._runs.sort(key=lambda r: r.seq)
        if self._runs:
            self._next_seq = self._runs[-1].seq + 1
        start = max((r.watermark for r in self._runs), default=0)
        report = self._replay_log(start)
        self._recount_live()
        self.stats.recovered_records += report.replayed_records
        self.stats.truncated_bytes += report.truncated_bytes
        return report

    def _replay_log(self, start: int) -> RecoveryReport:
        size = self._log_path.stat().st_size
        start = min(start, size)
        records = 0
        with open(self._log_path, "rb") as fh:
            fh.seek(start)
            offset = start
            while True:
                header = fh.read(_FRAME.size)
                if len(header) < _FRAME.size:
                    break
                crc, op, klen, vlen = _FRAME.unpack(header)
                payload = fh.read(klen + vlen)
                if len(payload) < klen + vlen:
                    break
                if zlib.crc32(payload, zlib.crc32(header[4:])) != crc:
                    break
                key = payload[:klen]
                if op == _OP_PUT:
                    self._memtable[key] = (offset + _FRAME.size + klen, vlen)
                elif op == _OP_DEL:
                    self._memtable[key] = None
                else:
                    break  # unknown op: treat like a torn record
                offset += _FRAME.size + klen + vlen
                records += 1
        truncated = size - offset
        if truncated:
            with open(self._log_path, "r+b") as fh:
                fh.truncate(offset)
        return RecoveryReport(
            valid_bytes=offset,
            truncated_bytes=truncated,
            replayed_records=records,
            replayed_from=start,
        )

    def _discard_runs(self) -> None:
        self._runs = []
        for path in self.directory.glob("run-*.run"):
            path.unlink(missing_ok=True)

    def _recount_live(self) -> None:
        """Rebuild the live key/byte counters from runs + memtable."""
        merged: dict[bytes, int | None] = {}
        for run in self._runs:  # oldest -> newest; newer wins
            for key, tomb, vlen in zip(run.keys, run.tombs, run.vlens):
                merged[key] = None if tomb else vlen
        for key, entry in self._memtable.items():
            merged[key] = None if entry is None else entry[1]
        live = [v for v in merged.values() if v is not None]
        self._live_count = len(live)
        self._live_bytes = sum(live)

    # -- run files -----------------------------------------------------

    def _load_run(self, path: Path) -> _Run:
        raw = path.read_bytes()
        magic = raw[: len(_RUN_MAGIC)]
        if len(raw) < len(_RUN_MAGIC) + 4 or magic not in (_RUN_MAGIC, _RUN_MAGIC_V1):
            raise ValueError(f"bad run magic in {path.name}")
        payload, (crc,) = raw[len(_RUN_MAGIC) : -4], struct.unpack("<I", raw[-4:])
        if zlib.crc32(payload) != crc:
            raise ValueError(f"run checksum mismatch in {path.name}")
        if magic == _RUN_MAGIC:
            n, watermark = _RUN_HEADER.unpack_from(payload, 0)
            pos = _RUN_HEADER.size
        else:
            n, watermark, *_, filter_len = _RUN_HEADER_V1.unpack_from(payload, 0)
            pos = _RUN_HEADER_V1.size + filter_len
        keys, tombs, offs, vlens = [], [], [], []
        for _ in range(n):
            klen, tomb, off, vlen = _RUN_ENTRY.unpack_from(payload, pos)
            pos += _RUN_ENTRY.size
            keys.append(payload[pos : pos + klen])
            pos += klen
            tombs.append(bool(tomb))
            offs.append(off)
            vlens.append(vlen)
        seq = int(path.stem.split("-")[1])
        return _Run(path, seq, watermark, keys, tombs, offs, vlens)

    def _write_run(
        self, entries: list[tuple[bytes, tuple[int, int] | None]], watermark: int
    ) -> _Run:
        """Persist sorted ``(key, entry)`` pairs as the next run file."""
        seq = self._next_seq
        self._next_seq += 1
        parts = [_RUN_HEADER.pack(len(entries), watermark)]
        for key, entry in entries:
            tomb = entry is None
            off, vlen = (0, 0) if tomb else entry
            parts.append(_RUN_ENTRY.pack(len(key), tomb, off, vlen))
            parts.append(key)
        payload = b"".join(parts)
        path = self.directory / f"run-{seq:08d}.run"
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(_RUN_MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        os.replace(tmp, path)  # atomic publish: a torn run never loads
        return _Run(
            path, seq, watermark,
            [k for k, _ in entries],
            [e is None for _, e in entries],
            [0 if e is None else e[0] for _, e in entries],
            [0 if e is None else e[1] for _, e in entries],
        )

    def _flush_memtable(self) -> None:
        if not self._memtable:
            return
        self._appender.flush()
        self._unflushed = False
        entries = sorted(self._memtable.items())
        self._runs.append(self._write_run(entries, self._log_end))
        self._memtable = {}
        self.stats.memtable_flushes += 1
        if len(self._runs) >= self.compact_fanout:
            self._merge_runs()

    def _merge_runs(self) -> None:
        """Size-tiered merge: collapse the accumulated tier of runs.

        The merge output is the only run left, so tombstones — needed
        while older runs might still hold the deleted key — drop out.
        """
        merged: dict[bytes, tuple[int, int] | None] = {}
        for run in self._runs:  # oldest -> newest; newer wins
            for key, tomb, off, vlen in zip(run.keys, run.tombs, run.offs, run.vlens):
                merged[key] = None if tomb else (off, vlen)
        live = sorted((k, e) for k, e in merged.items() if e is not None)
        watermark = max(r.watermark for r in self._runs)
        old = self._runs
        self._runs = [self._write_run(live, watermark)] if live else []
        for run in old:
            run.path.unlink(missing_ok=True)
        self.stats.compactions += 1

    # -- index lookup --------------------------------------------------

    def _lookup(self, key: bytes):
        """``(value_offset, value_len)`` of the live record, or None."""
        entry = self._memtable.get(key, _MISSING)
        if entry is not _MISSING:
            return entry  # may be None (tombstone)
        for run in reversed(self._runs):
            # repro: lint-ok[batched-api] one key walking the LSM runs, not a key batch
            found = run.lookup(key)
            if found is _TOMBSTONE:
                return None
            if found is not None:
                return found
        return None

    def _read_value(self, offset: int, vlen: int) -> bytes:
        if self._unflushed:
            self._appender.flush()
            self._unflushed = False
        self._reader.seek(offset)
        data = self._reader.read(vlen)
        if len(data) != vlen:
            raise ValueError(
                f"short chunk-log read at offset {offset}: wanted {vlen} "
                f"bytes, got {len(data)} — index/log mismatch"
            )
        return data

    # -- batched data plane --------------------------------------------

    def contains_batch(self, keys: Sequence[bytes]) -> list[bool]:
        self._require_open()
        self.stats.batches += 1
        self.stats.contains += len(keys)
        return [self._lookup(k) is not None for k in keys]

    def __contains__(self, key: bytes) -> bool:
        return self.contains_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[bytes | None]:
        self._require_open()
        self.stats.batches += 1
        self.stats.gets += len(keys)
        out: list[bytes | None] = []
        for key in keys:
            entry = self._lookup(key)
            out.append(None if entry is None else self._read_value(*entry))
        return out

    def put_batch(
        self, items: Sequence[tuple[bytes, bytes]], *, known_absent: bool = False
    ) -> list[bool]:
        """Insert-if-absent.  ``known_absent=True`` is the caller's pledge
        that every key was just probed absent (and keys are batch-unique):
        the expensive run probes are skipped, only the memtable is
        checked — the shape ``DedupIndex.lookup_or_insert_batch`` uses so
        a miss is charged one LSM probe, not two."""
        self._require_open()
        t0 = time.perf_counter()
        self.stats.batches += 1
        inserted = []
        for key, value in items:
            existing = (
                self._memtable.get(key) if known_absent else self._lookup(key)
            )
            if existing is not None:
                inserted.append(False)
                continue
            offset = self._append(_OP_PUT, key, value)
            self._memtable[key] = (offset, len(value))
            self._live_count += 1
            self._live_bytes += len(value)
            self.stats.puts += 1
            inserted.append(True)
        if len(self._memtable) >= self.memtable_limit:
            self._flush_memtable()
        _record_store(time.perf_counter() - t0)
        return inserted

    def delete_batch(self, keys: Sequence[bytes]) -> list[int]:
        self._require_open()
        freed = []
        self.stats.batches += 1
        for key in keys:
            entry = self._lookup(key)
            if entry is None:
                freed.append(0)
                continue
            self._append(_OP_DEL, key, b"")
            self._memtable[key] = None
            self._live_count -= 1
            self._live_bytes -= entry[1]
            self.stats.deletes += 1
            freed.append(entry[1])
        if len(self._memtable) >= self.memtable_limit:
            self._flush_memtable()
        return freed

    def _append(self, op: int, key: bytes, value) -> int:
        """Write one framed record; returns the value's log offset."""
        record = _frame(op, key, value)
        self._appender.write(record)
        self._unflushed = True
        offset = self._log_end + _FRAME.size + len(key)
        self._log_end += len(record)
        return offset

    def keys(self) -> Iterator[bytes]:
        self._require_open()
        seen: set[bytes] = set()
        for key, entry in self._memtable.items():
            seen.add(key)
            if entry is not None:
                yield key
        for run in reversed(self._runs):
            for key, tomb in zip(run.keys, run.tombs):
                if key in seen:
                    continue
                seen.add(key)
                if not tomb:
                    yield key

    def __len__(self) -> int:
        return self._live_count

    @property
    def value_bytes(self) -> int:
        return self._live_bytes

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        """Push buffered log records to the OS (prefix durability).

        With the fsync knob on (constructor arg or ``REPRO_FSYNC``)
        the records are forced to the device as well, making the flush
        a real durability point rather than a page-cache handoff.
        """
        self._require_open()
        t0 = time.perf_counter()
        self._appender.flush()
        if self.fsync:
            os.fsync(self._appender.fileno())
            self.stats.fsyncs += 1
        self._unflushed = False
        _record_store(time.perf_counter() - t0)

    def compact(self) -> int:
        """Rewrite the chunk log with live records only (GC's sweep).

        Returns log bytes reclaimed.  The index collapses to a single
        fresh run covering the rewritten log.
        """
        self._require_open()
        old_size = self._log_end
        live = sorted(self.keys())
        tmp = self._log_path.with_suffix(".compact")
        entries: list[tuple[bytes, tuple[int, int] | None]] = []
        new_size = 0
        with open(tmp, "wb") as out:
            for key in live:
                value = self._read_value(*self._lookup(key))
                record = _frame(_OP_PUT, key, value)
                out.write(record)
                entries.append((key, (new_size + _FRAME.size + len(key), len(value))))
                new_size += len(record)
        self._appender.close()
        self._reader.close()
        # Drop the old runs BEFORE publishing the rewritten log: their
        # offsets are meaningless against it, and a crash in between
        # must leave either (old log, no runs) or (new log, no runs) —
        # both replay correctly — never stale runs over a new log.
        self._discard_runs()
        os.replace(tmp, self._log_path)
        self._appender = open(self._log_path, "ab", buffering=_LOG_BUFFER)
        self._reader = open(self._log_path, "rb")
        self._replace_finalizer()
        self._log_end = new_size
        self._runs = [self._write_run(entries, new_size)] if entries else []
        self._memtable = {}
        self._unflushed = False
        self.stats.log_compactions += 1
        return old_size - new_size

    def clear(self) -> None:
        """Drop every record (node crash simulation, tests)."""
        self._require_open()
        self._appender.close()
        self._reader.close()
        open(self._log_path, "wb").close()  # truncate
        self._appender = open(self._log_path, "ab", buffering=_LOG_BUFFER)
        self._reader = open(self._log_path, "rb")
        self._replace_finalizer()
        for run in self._runs:
            run.path.unlink(missing_ok=True)
        self._runs = []
        self._memtable = {}
        self._live_count = 0
        self._live_bytes = 0
        self._log_end = 0
        self._unflushed = False

    def close(self) -> None:
        if self._closed:
            return
        if not self._ephemeral:
            self._flush_memtable()  # reopen skips the replay
            self._appender.flush()
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "PersistentBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError(f"backend at {self.directory} is closed")

    def _replace_finalizer(self) -> None:
        """Re-arm cleanup after the file handles were swapped."""
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self,
            PersistentBackend._cleanup,
            self._appender,
            self._reader,
            self.directory,
            self._ephemeral,
        )

    @staticmethod
    def _cleanup(appender, reader, directory: Path, ephemeral: bool) -> None:
        for fh in (appender, reader):
            try:
                fh.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        if ephemeral:
            shutil.rmtree(directory, ignore_errors=True)


_MISSING = object()


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def resolve_backend(kind: str | None = None, data_dir=None) -> str:
    """Resolve a backend kind: explicit > implied-by-data_dir > env > memory.

    An explicit ``memory`` with a ``data_dir`` is a contradiction —
    silently accepting it would tell the caller their state is durable
    while persisting nothing — so it is rejected here for every owner.
    """
    if kind is None:
        if data_dir is not None:
            return "disk"
        kind = os.environ.get(STORE_BACKEND_ENV, "").strip() or "memory"
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown storage backend {kind!r} (expected one of {BACKEND_KINDS})"
        )
    if kind == "memory" and data_dir is not None:
        raise ValueError(
            "backend='memory' cannot persist state to a data_dir; "
            "use backend='disk' (or omit backend)"
        )
    return kind


def make_backend(
    kind: str | None = None, path: str | os.PathLike | None = None, **disk_options
) -> ChunkBackend:
    """Build a backend: ``memory`` or ``disk`` (persistent at ``path``).

    ``kind=None`` follows ``REPRO_STORE_BACKEND`` (default ``memory``),
    or ``disk`` when a ``path`` is given.  A disk backend without a path
    is *ephemeral*: it exercises the full persistent code path in a
    temporary directory (under ``REPRO_STORE_TMP`` if set) that is
    removed on close — or by GC/interpreter exit if never closed, so a
    suite-wide ``REPRO_STORE_BACKEND=disk`` run leaves no stray files.
    """
    kind = resolve_backend(kind, path)
    if kind == "memory":
        return MemoryBackend()
    if path is not None:
        return PersistentBackend(path, **disk_options)
    tmp_root = os.environ.get(STORE_TMP_ENV) or None
    if tmp_root:
        Path(tmp_root).mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="repro-backend-", dir=tmp_root)
    return PersistentBackend(directory, _ephemeral=True, **disk_options)


# ----------------------------------------------------------------------
# recipes on a backend
# ----------------------------------------------------------------------

_RECIPE_HEADER = struct.Struct("<QI")  # total_bytes, n_digests
_ENTRY32 = struct.Struct("<2x32s")  # one recipe entry holding a 32-byte digest


def encode_recipe(snapshot_id: str, digests: Sequence[bytes], total_bytes: int) -> bytes:
    parts = [_RECIPE_HEADER.pack(total_bytes, len(digests))]
    for digest in digests:
        parts.append(struct.pack("<H", len(digest)))
        parts.append(digest)
    del snapshot_id  # the snapshot id is the key, not part of the value
    return b"".join(parts)


def decode_recipe(snapshot_id: str, blob: bytes) -> tuple[str, tuple[bytes, ...], int]:
    total_bytes, n = _RECIPE_HEADER.unpack_from(blob, 0)
    pos = _RECIPE_HEADER.size
    if (
        len(blob) == pos + n * _ENTRY32.size
        and blob[pos :: _ENTRY32.size] == b"\x20" * n
        and blob[pos + 1 :: _ENTRY32.size] == bytes(n)
    ):
        # Every length prefix reads 32: slice at the fixed stride.
        entries = _ENTRY32.iter_unpack(memoryview(blob)[pos:])
        return snapshot_id, tuple([d for (d,) in entries]), total_bytes
    # Mixed digest sizes: encode_recipe writes every all-32-byte recipe
    # at the fixed stride above, so this loop reads only the rest.
    digests = []
    for _ in range(n):
        (dlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        digests.append(blob[pos : pos + dlen])
        pos += dlen
    return snapshot_id, tuple(digests), total_bytes


class RecipeStore:
    """Snapshot recipes on a :class:`ChunkBackend` (id -> encoded recipe).

    Shared by the single-node :class:`~repro.backup.store.ChunkStore`
    and the cluster so both persist recipes through the same seam, with
    the same error surface the dict-backed versions had.
    """

    def __init__(self, backend: ChunkBackend) -> None:
        self._backend = backend

    def put(self, recipe: "SnapshotRecipe") -> None:
        key = recipe.snapshot_id.encode()
        blob = encode_recipe(recipe.snapshot_id, recipe.digests, recipe.total_bytes)
        # put_batch is insert-if-absent: its inserted-flag doubles as
        # the duplicate check, one probe instead of contains + put.
        if not self._backend.put_batch([(key, blob)])[0]:
            raise ValueError(f"snapshot {recipe.snapshot_id!r} already stored")

    def get(self, snapshot_id: str) -> "SnapshotRecipe":
        blob = self._backend.get_batch([snapshot_id.encode()])[0]
        if blob is None:
            raise KeyError(f"no snapshot {snapshot_id!r}")
        from repro.backup.store import SnapshotRecipe

        sid, digests, total = decode_recipe(snapshot_id, blob)
        return SnapshotRecipe(sid, digests, total)

    def delete(self, snapshot_id: str) -> None:
        key = snapshot_id.encode()
        if not self._backend.contains_batch([key])[0]:
            raise KeyError(f"no snapshot {snapshot_id!r}")
        self._backend.delete_batch([key])

    def __contains__(self, snapshot_id: str) -> bool:
        return self._backend.contains_batch([snapshot_id.encode()])[0]

    def __len__(self) -> int:
        return len(self._backend)

    def ids(self) -> list[str]:
        """Sorted snapshot ids without decoding the recipes."""
        return sorted(key.decode() for key in self._backend.keys())

    def __iter__(self) -> Iterator["SnapshotRecipe"]:
        for key in list(self._backend.keys()):
            yield self.get(key.decode())

    def live_digests(self) -> set[bytes]:
        """Every digest referenced by any recipe (GC's mark set)."""
        live: set[bytes] = set()
        for recipe in self:
            live.update(recipe.digests)
        return live

    def flush(self) -> None:
        self._backend.flush()

    def close(self) -> None:
        self._backend.close()
