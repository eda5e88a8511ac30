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
  storage (§7), Bitcask's design (Sheehy & Smith, 2010): an append-only
  chunk log of CRC-framed records is the truth, and a resident *keydir*
  dict maps each live key to its value's ``(offset, length)`` in the
  log.  Reopening a directory recovers the exact prefix of validly
  framed records: a torn final record is truncated away and reported,
  never silently decoded.

Durability model: records reach the OS page cache on ``flush``; the
recovery path assumes *prefix* durability (a crash may lose a suffix of
the log, never rewrite its middle), which tail-truncation handles.  The
keydir is checkpointed to one CRC-checked file published by atomic
rename, so open replays only the log past the checkpoint's watermark; a
checkpoint that fails validation is ignored and the whole log replayed
instead, so index corruption degrades to a slower open, not wrong
answers.  A lookup is one dict probe and nothing sits in front of it:
with every live key resident, a filter would add a second probe to a
miss that already costs one (Bitcask keeps no filter for the same
reason).

Backends are not thread-safe; each state owner confines its backend to
the thread that owns it (the pipelined server probes from one stage).
"""

from __future__ import annotations

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
#: Appender buffer for small writes: a fragment record is ~1.4 KB, so
#: the default 8 KiB buffer makes a write syscall every ~5 one-record
#: appends; 32 KiB every ~23.  A ``put_batch`` larger than the buffer
#: goes to the OS in one write.
_LOG_BUFFER = 1 << 15
_OP_PUT = 1
_OP_DEL = 2
_CHECKPOINT_NAME = "keydir.ckpt"
#: Checkpoint file: magic, then CRC-covered header and entries, then the
#: CRC.  Entries are written in keydir order, unsorted.
_CHECKPOINT_MAGIC = b"RKEY1\n"
_CHECKPOINT_HEADER = struct.Struct("<IQ")  # n_entries, watermark
_CHECKPOINT_ENTRY = struct.Struct("<HQI")  # key_len, value_offset, value_len
#: The next checkpoint is due once the records appended past the last
#: one reach ``max(_CHECKPOINT_FLOOR, keys in it)``: crash replay stays
#: bounded, and rewriting the keydir stays amortised O(1) per append.
_CHECKPOINT_FLOOR = 4096
#: Sorted-run index files that directories written before the keydir
#: hold; open deletes them and rebuilds the keydir from the log.
_RUN_GLOB = "run-*.run"


@functools.cache
def core_module(name: str):
    """``repro.core.<name>``, imported on first use and then held:
    ``repro.core`` stores through this package, so ``repro.store``
    must import clean of it."""
    return importlib.import_module(f"repro.core.{name}")


def _record_store(seconds: float) -> None:
    """Feed backend mutation wall-clock to the ``store`` stage timer."""
    core_module("stats").record_stage("store", seconds)


def _frame_parts(op: int, key: bytes, value) -> tuple:
    """One log record as its four pieces: CRC, header fields, key, value."""
    fields = _FRAME_FIELDS.pack(op, len(key), len(value))
    crc = zlib.crc32(value, zlib.crc32(key, zlib.crc32(fields)))
    return crc.to_bytes(4, "little"), fields, key, value


def _frame(op: int, key: bytes, value) -> bytes:
    """One log record, header and CRC included."""
    return b"".join(_frame_parts(op, key, value))


@dataclass
class BackendStats:
    """Operation counters shared by every backend implementation.

    The disk-only counters (fsyncs, checkpoints, compactions, recovery)
    stay zero on :class:`MemoryBackend`.
    """

    puts: int = 0  # keys newly inserted
    gets: int = 0
    contains: int = 0
    deletes: int = 0  # keys actually removed
    batches: int = 0  # batched calls serviced
    fsyncs: int = 0  # device syncs (only with the fsync knob on)
    checkpoints: int = 0  # keydir checkpoint files written
    log_compactions: int = 0  # whole-log rewrites (GC)
    recovered_records: int = 0
    truncated_bytes: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """What reopening a persistent backend found in the log."""

    valid_bytes: int
    truncated_bytes: int
    replayed_records: int
    replayed_from: int  # log offset covered by the checkpoint

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

    def put_batch(self, items: Sequence[tuple[bytes, bytes]]) -> list[bool]: ...

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

    def put_batch(self, items: Sequence[tuple[bytes, bytes]]) -> list[bool]:
        t0 = time.perf_counter()
        self.stats.batches += 1
        data = self._data
        inserted = []
        for key, value in items:
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


class PersistentBackend:
    """Append-only CRC-framed chunk log + resident keydir.

    Every mutation appends one framed record to ``chunks.log`` (a
    ``put_batch`` appends all of its records in one write) and
    updates the keydir, a dict of live keys only: a put adds
    ``key -> (value_offset, value_len)``, a delete pops the key.  A hit
    and a miss each cost one dict probe, and neither reads the log to
    decide.

    Crash recovery: the keydir is checkpointed with the log offset it
    covers (``watermark``) at ``close``, at the end of ``compact()``,
    and once the records appended since the last checkpoint reach
    ``max(4096, keys in that checkpoint)``.  Reopening loads the
    checkpoint and replays only the log suffix past its watermark; a
    torn or corrupt final record truncates the log back to the last
    valid frame (reported in :attr:`recovery` and
    ``stats.truncated_bytes``).
    """

    kind = "disk"

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: bool | None = None,
        _ephemeral: bool = False,
    ) -> None:
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
        self.stats = BackendStats()
        core_module("stats").register_backend_stats(self.stats)
        self._ephemeral = _ephemeral
        self._closed = False
        self.directory.mkdir(parents=True, exist_ok=True)
        self._log_path = self.directory / _LOG_NAME
        self._log_path.touch(exist_ok=True)
        self._checkpoint_path = self.directory / _CHECKPOINT_NAME
        self._keydir: dict[bytes, tuple[int, int]] = {}
        #: Keys in the newest checkpoint, and records appended past it.
        self._checkpoint_keys = 0
        self._appended = 0
        self.recovery = self._open_and_recover()
        self._live_bytes = sum(vlen for _, vlen in self._keydir.values())
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
        for path in self.directory.glob(_RUN_GLOB):
            path.unlink()
        try:
            start = self._load_checkpoint()
        except (ValueError, struct.error, OSError):
            # An unreadable or stale checkpoint is ignored, and the
            # whole log replayed instead (slower open, same answers).
            # The file goes too: once the log grows back past its
            # watermark, a stale checkpoint would look valid.
            self._checkpoint_path.unlink(missing_ok=True)
            self._keydir = {}
            self._checkpoint_keys = start = 0
        report = self._replay_log(start)
        self._appended = report.replayed_records
        self.stats.recovered_records += report.replayed_records
        self.stats.truncated_bytes += report.truncated_bytes
        return report

    def _load_checkpoint(self) -> int:
        """Fill the keydir from the checkpoint; returns its watermark."""
        if not self._checkpoint_path.exists():
            return 0
        raw = self._checkpoint_path.read_bytes()
        head = len(_CHECKPOINT_MAGIC)
        if len(raw) < head + 4 or raw[:head] != _CHECKPOINT_MAGIC:
            raise ValueError("bad checkpoint magic")
        payload, (crc,) = raw[head:-4], struct.unpack("<I", raw[-4:])
        if zlib.crc32(payload) != crc:
            raise ValueError("checkpoint checksum mismatch")
        n, watermark = _CHECKPOINT_HEADER.unpack_from(payload, 0)
        if watermark > self._log_path.stat().st_size:
            # Published after the log's durable tail was lost (we flush,
            # not fsync): its entries point past EOF.  Trust only the log.
            raise ValueError("checkpoint watermark past the end of the log")
        keydir = self._keydir
        pos = _CHECKPOINT_HEADER.size
        for _ in range(n):
            klen, off, vlen = _CHECKPOINT_ENTRY.unpack_from(payload, pos)
            pos += _CHECKPOINT_ENTRY.size
            keydir[payload[pos : pos + klen]] = (off, vlen)
            pos += klen
        if pos != len(payload):
            raise ValueError("checkpoint length disagrees with its entry count")
        self._checkpoint_keys = n
        return watermark

    def _replay_log(self, start: int) -> RecoveryReport:
        size = self._log_path.stat().st_size
        keydir = self._keydir
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
                    keydir[key] = (offset + _FRAME.size + klen, vlen)
                elif op == _OP_DEL:
                    keydir.pop(key, None)
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

    # -- checkpoint ----------------------------------------------------

    def _write_checkpoint(self) -> None:
        """Persist the keydir, covering the log up to its current end."""
        self._appender.flush()  # the log must reach the watermark first
        self._unflushed = False
        entry = _CHECKPOINT_ENTRY.pack
        keydir = self._keydir
        payload = b"".join(
            [_CHECKPOINT_HEADER.pack(len(keydir), self._log_end)]
            + [entry(len(k), off, vlen) + k for k, (off, vlen) in keydir.items()]
        )
        tmp = self._checkpoint_path.with_suffix(".tmp")
        tmp.write_bytes(
            _CHECKPOINT_MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
        )
        os.replace(tmp, self._checkpoint_path)  # atomic publish
        self._checkpoint_keys = len(keydir)
        self._appended = 0
        self.stats.checkpoints += 1

    def _maybe_checkpoint(self) -> None:
        if self._appended >= max(_CHECKPOINT_FLOOR, self._checkpoint_keys):
            self._write_checkpoint()

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
        keydir = self._keydir
        return [k in keydir for k in keys]

    def __contains__(self, key: bytes) -> bool:
        return self.contains_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[bytes | None]:
        self._require_open()
        self.stats.batches += 1
        self.stats.gets += len(keys)
        out: list[bytes | None] = []
        for key in keys:
            entry = self._keydir.get(key)
            out.append(None if entry is None else self._read_value(*entry))
        return out

    def put_batch(self, items: Sequence[tuple[bytes, bytes]]) -> list[bool]:
        """Insert-if-absent (an earlier item of the batch counts as
        present): every new record is framed, and the batch's records
        reach the log in one write — the same bytes at the same offsets
        as one put per record, for one call's fixed cost."""
        self._require_open()
        t0 = time.perf_counter()
        self.stats.batches += 1
        keydir = self._keydir
        added: dict[bytes, tuple[int, int]] = {}
        parts = []
        end = self._log_end
        inserted = []
        for key, value in items:
            if key in keydir or key in added:
                inserted.append(False)
                continue
            parts += _frame_parts(_OP_PUT, key, value)
            added[key] = (end + _FRAME.size + len(key), len(value))
            end += _FRAME.size + len(key) + len(value)
            inserted.append(True)
        if added:
            self._appender.write(b"".join(parts))
            self._unflushed = True
            self._appended += len(added)
            self._log_end = end
            keydir.update(added)
            self._live_bytes += sum(vlen for _, vlen in added.values())
            self.stats.puts += len(added)
            self._maybe_checkpoint()
        _record_store(time.perf_counter() - t0)
        return inserted

    def delete_batch(self, keys: Sequence[bytes]) -> list[int]:
        self._require_open()
        freed = []
        self.stats.batches += 1
        for key in keys:
            entry = self._keydir.pop(key, None)
            if entry is None:
                freed.append(0)
                continue
            self._append(_OP_DEL, key, b"")
            self._live_bytes -= entry[1]
            self.stats.deletes += 1
            freed.append(entry[1])
        self._maybe_checkpoint()
        return freed

    def _append(self, op: int, key: bytes, value) -> int:
        """Write one framed record; returns the value's log offset."""
        record = _frame(op, key, value)
        self._appender.write(record)
        self._unflushed = True
        self._appended += 1
        offset = self._log_end + _FRAME.size + len(key)
        self._log_end += len(record)
        return offset

    def keys(self) -> Iterator[bytes]:
        self._require_open()
        return iter(tuple(self._keydir))

    def __len__(self) -> int:
        return len(self._keydir)

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

        Returns log bytes reclaimed.  A fresh checkpoint covers the
        rewritten log.
        """
        self._require_open()
        old_size = self._log_end
        tmp = self._log_path.with_suffix(".compact")
        keydir: dict[bytes, tuple[int, int]] = {}
        new_size = 0
        with open(tmp, "wb") as out:
            for key in sorted(self._keydir):
                value = self._read_value(*self._keydir[key])
                record = _frame(_OP_PUT, key, value)
                out.write(record)
                keydir[key] = (new_size + _FRAME.size + len(key), len(value))
                new_size += len(record)
        self._appender.close()
        self._reader.close()
        # Drop the checkpoint BEFORE publishing the rewritten log: its
        # offsets are meaningless against it, and a crash in between
        # must leave either (old log, no checkpoint) or (new log, no
        # checkpoint) — both replay correctly — never a stale checkpoint
        # over a new log.
        self._checkpoint_path.unlink(missing_ok=True)
        os.replace(tmp, self._log_path)
        self._appender = open(self._log_path, "ab", buffering=_LOG_BUFFER)
        self._reader = open(self._log_path, "rb")
        self._replace_finalizer()
        self._keydir = keydir
        self._log_end = new_size
        self._write_checkpoint()
        self.stats.log_compactions += 1
        return old_size - new_size

    def clear(self) -> None:
        """Drop every record (node crash simulation, tests)."""
        self._require_open()
        self._appender.close()
        self._reader.close()
        self._checkpoint_path.unlink(missing_ok=True)
        open(self._log_path, "wb").close()  # truncate
        self._appender = open(self._log_path, "ab", buffering=_LOG_BUFFER)
        self._reader = open(self._log_path, "rb")
        self._replace_finalizer()
        self._keydir = {}
        self._checkpoint_keys = self._appended = 0
        self._live_bytes = 0
        self._log_end = 0
        self._unflushed = False

    def close(self) -> None:
        if self._closed:
            return
        if not self._ephemeral and self._appended:
            self._write_checkpoint()  # reopen replays nothing
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
    kind: str | None = None, path: str | os.PathLike | None = None
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
        return PersistentBackend(path)
    tmp_root = os.environ.get(STORE_TMP_ENV) or None
    if tmp_root:
        Path(tmp_root).mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="repro-backend-", dir=tmp_root)
    return PersistentBackend(directory, _ephemeral=True)


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
        # An encoded recipe is at least its 12-byte header, so nothing
        # freed means nothing stored: one call, not contains + delete.
        if not self._backend.delete_batch([snapshot_id.encode()])[0]:
            raise KeyError(f"no snapshot {snapshot_id!r}")

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
