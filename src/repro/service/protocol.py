"""Wire protocol for the backup service: framing + message codec.

Every connection starts with a 5-byte magic (``SHRD1``) so the server
can tell agent traffic from a stray HTTP probe, then carries a stream
of length-prefixed frames::

    +------+----------------+-------------------+
    | type |  payload size  |      payload      |
    | u8   |  u32 (big-end) |  size bytes       |
    +------+----------------+-------------------+

The message set is batched-first, mirroring the in-process
``lookup_batch`` shape: digests travel in DIGEST_BATCH frames (query or
decide mode), payloads in CHUNK_BATCH frames carrying ``digest +
payload`` pairs the site verifies before storing, and pointers in
POINTER_BATCH frames.  The request/reply discipline is strictly
in-order per connection, which is what lets the client pipeline
requests and resolve replies FIFO (see :mod:`repro.service.client`).

The codec is pure functions over ``bytes`` — no sockets — and a batch
frame decodes to columns (digests, lengths) in one header parse plus one
fixed-stride pass, never a field-by-field walk per item.
"""

from __future__ import annotations

import functools
import struct
from enum import IntEnum
from typing import Sequence

import numpy as np

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "Msg",
    "Err",
    "ProtocolError",
    "RemoteError",
    "encode_frame",
    "read_frame",
    "MODE_QUERY",
    "MODE_DECIDE",
]

MAGIC = b"SHRD1"
#: The one wire format the server accepts.  HELLO leads with it, so a
#: peer speaking any other layout is refused with VERSION_MISMATCH
#: before the rest of its frame is parsed.  Any change to a frame's
#: layout bumps it (and the wire golden in ``tests/test_service.py``).
PROTOCOL_VERSION = 4

#: Hard per-frame ceiling: a CHUNK_BATCH of one pipeline batch (about
#: ``HASH_BATCH_BYTES``, 4 MiB) stays far below this; anything larger
#: is a corrupt or hostile frame.
DEFAULT_MAX_FRAME = 64 << 20

HEADER = struct.Struct("!BI")  # type, payload length
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_BATCH_OK = struct.Struct("!IQ")  # items, received bytes
_FINISH_OK = struct.Struct("!IIQ")  # chunks, pointers, received bytes


class Msg(IntEnum):
    """Frame types."""

    HELLO = 1
    HELLO_OK = 2
    BEGIN_SNAPSHOT = 3
    BEGIN_OK = 4
    DIGEST_BATCH = 5
    DIGEST_REPLY = 6
    CHUNK_BATCH = 7
    POINTER_BATCH = 8
    BATCH_OK = 9
    FINISH = 10
    FINISH_OK = 11
    RESTORE = 12
    RESTORE_BEGIN = 13
    RESTORE_DATA = 14
    RESTORE_END = 15
    LIST_SNAPSHOTS = 16
    SNAPSHOT_LIST = 17
    ERROR = 18
    RESUME = 19
    RESUME_OK = 20
    #: Server -> client control frame, allowed *between* replies: the
    #: sender is over a rate limit and the peer should pace itself by
    #: the carried retry-after hint.  Not a reply — clients absorb it
    #: transparently while waiting for the real (FIFO) reply.
    THROTTLE = 21


class Err(IntEnum):
    """ERROR frame codes."""

    VERSION_MISMATCH = 1
    BUSY = 2
    BAD_FRAME = 3
    BAD_TENANT = 4
    UNKNOWN_SNAPSHOT = 5
    SNAPSHOT_EXISTS = 6
    DIGEST_MISMATCH = 7
    UNKNOWN_CHUNK = 8
    INTERNAL = 9
    #: RESUME named a token the server has no parked session for (it
    #: expired, was already resumed, or never parked) — the client must
    #: fall back to a fresh BEGIN_SNAPSHOT.
    RESUME_UNKNOWN = 10
    #: The server evicted this connection for stalling past the
    #: configured timeout; any open snapshot was parked for resume.
    EVICTED = 11
    #: HELLO failed authentication (bad or missing token, or the
    #: tenant is unknown to the auth registry — deliberately the same
    #: answer, so the handshake cannot probe for tenant existence).
    UNAUTHORIZED = 12
    #: A hard per-tenant ceiling (stored bytes, chunk count, or
    #: concurrent sessions) would be exceeded; not retryable.
    QUOTA_EXCEEDED = 13
    #: The server is shedding load (sustained over-rate, open circuit
    #: breaker, or brownout); retry after backing off — any open
    #: snapshot was parked for resume, nothing was applied.
    RETRY_LATER = 14


#: HELLO traffic purposes, used for priority-aware load shedding at
#: admission: restore traffic (a tenant trying to get data *back*)
#: sheds last, so a reserve of session slots can be held for it.
PURPOSE_BACKUP = 0
PURPOSE_RESTORE = 1

#: DIGEST_BATCH modes: QUERY is a read-only membership probe against
#: the shared payload store (the remote twin of ``has_chunk``); DECIDE
#: runs the tenant's dedup decision for the open snapshot and *inserts*
#: into the tenant index, exactly like ``lookup_or_insert_batch``.
MODE_QUERY = 0
MODE_DECIDE = 1


class ProtocolError(ValueError):
    """Malformed or oversized wire data (local decode failure)."""


class RemoteError(RuntimeError):
    """An ERROR frame from the peer, surfaced to the caller."""

    def __init__(self, code: Err, message: str) -> None:
        super().__init__(f"[{code.name}] {message}")
        self.code = code
        self.remote_message = message


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode_frame(msg: Msg, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    return HEADER.pack(int(msg), len(payload)) + payload


def parse_header(header, max_frame: int = DEFAULT_MAX_FRAME) -> tuple[Msg, int]:
    """Frame type and payload size off a :data:`HEADER`; an unknown type
    or an oversized length is a :class:`ProtocolError` before any
    payload is read."""
    type_byte, size = HEADER.unpack(header)
    try:
        msg = Msg(type_byte)
    except ValueError:
        raise ProtocolError(f"unknown frame type {type_byte}") from None
    if size > max_frame:
        raise ProtocolError(
            f"frame of {size} bytes exceeds the {max_frame}-byte limit"
        )
    return msg, size


async def read_frame(reader, max_frame: int = DEFAULT_MAX_FRAME) -> tuple[Msg, bytes]:
    """Read exactly one frame from an asyncio stream reader; EOF surfaces
    as ``asyncio.IncompleteReadError`` (a clean close is not garbage)."""
    msg, size = parse_header(await reader.readexactly(HEADER.size), max_frame)
    payload = await reader.readexactly(size) if size else b""
    return msg, payload


# ----------------------------------------------------------------------
# primitive packers
# ----------------------------------------------------------------------


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError("string field exceeds 64 KiB")
    return _U16.pack(len(raw)) + raw


def _unpack(payload: bytes, fields: struct.Struct, offset: int = 0) -> tuple[tuple, int]:
    """``fields`` read at ``offset``, and the offset past them."""
    end = offset + fields.size
    if end > len(payload):
        raise ProtocolError("truncated frame payload")
    return fields.unpack_from(payload, offset), end


def _exact(payload: bytes, fields: struct.Struct) -> tuple:
    """A payload that is exactly ``fields``."""
    values, end = _unpack(payload, fields)
    _done(payload, end)
    return values


def _take_str(payload: bytes, offset: int) -> tuple[str, int]:
    (size,), offset = _unpack(payload, _U16, offset)
    end = offset + size
    if end > len(payload):
        raise ProtocolError("truncated frame payload")
    try:
        return str(payload[offset:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable string field: {exc}") from None


def _done(payload: bytes, offset: int) -> None:
    """The payload ends at ``offset``."""
    if offset > len(payload):
        raise ProtocolError("truncated frame payload")
    if offset < len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes in frame payload"
        )


# ----------------------------------------------------------------------
# handshake
# ----------------------------------------------------------------------


def encode_hello(
    tenant: str, auth: str = "", purpose: int = PURPOSE_BACKUP
) -> bytes:
    """Version, tenant, auth token (HMAC hexdigest, empty = anonymous)
    and the traffic purpose byte."""
    return (
        _U16.pack(PROTOCOL_VERSION)
        + _pack_str(tenant)
        + _pack_str(auth)
        + bytes([purpose])
    )


def decode_hello(payload: bytes) -> tuple[int, str, str, int]:
    """``(version, tenant, auth, purpose)``; a frame of another version
    yields only its version (its fields are laid out differently)."""
    (version,), offset = _unpack(payload, _U16)
    if version != PROTOCOL_VERSION:
        return version, "", "", PURPOSE_BACKUP
    tenant, offset = _take_str(payload, offset)
    auth, offset = _take_str(payload, offset)
    (purpose,), offset = _unpack(payload, _U8, offset)
    if purpose not in (PURPOSE_BACKUP, PURPOSE_RESTORE):
        raise ProtocolError(f"unknown traffic purpose {purpose}")
    _done(payload, offset)
    return version, tenant, auth, purpose


def encode_hello_ok(session_id: str, window: int) -> bytes:
    return _U16.pack(window) + _pack_str(session_id)


def decode_hello_ok(payload: bytes) -> tuple[int, str]:
    (window,), offset = _unpack(payload, _U16)
    session_id, offset = _take_str(payload, offset)
    _done(payload, offset)
    return window, session_id


# ----------------------------------------------------------------------
# snapshot control
# ----------------------------------------------------------------------


def encode_snapshot_id(snapshot_id: str) -> bytes:
    """Shared by FINISH / RESTORE."""
    return _pack_str(snapshot_id)


def decode_snapshot_id(payload: bytes) -> str:
    snapshot_id, offset = _take_str(payload, 0)
    _done(payload, offset)
    return snapshot_id


def encode_begin(snapshot_id: str, token: str) -> bytes:
    """BEGIN_SNAPSHOT: id + client-generated resume token.

    The token is client-generated (not handed out in BEGIN_OK) so a
    client whose BEGIN applied but whose reply was lost can still
    RESUME — it never depends on having *seen* a server reply.  An
    empty token opts out of parking: the session aborts on disconnect.
    """
    return _pack_str(snapshot_id) + _pack_str(token)


def decode_begin(payload: bytes) -> tuple[str, str]:
    snapshot_id, offset = _take_str(payload, 0)
    token, offset = _take_str(payload, offset)
    _done(payload, offset)
    return snapshot_id, token


def encode_resume(snapshot_id: str, token: str) -> bytes:
    """RESUME: reclaim a parked session for this snapshot + token."""
    return _pack_str(snapshot_id) + _pack_str(token)


def decode_resume(payload: bytes) -> tuple[str, str]:
    snapshot_id, offset = _take_str(payload, 0)
    token, offset = _take_str(payload, offset)
    _done(payload, offset)
    return snapshot_id, token


def encode_resume_ok(applied_frames: int) -> bytes:
    """RESUME_OK: how far the server got.

    ``applied_frames`` is the count of ship frames (CHUNK_BATCH /
    POINTER_BATCH) fully applied for the parked snapshot — the client
    replays only frames numbered beyond it, which is what makes resume
    exactly-once: acked work is never re-shipped, unacked work is.
    """
    return _U32.pack(applied_frames)


def decode_resume_ok(payload: bytes) -> int:
    return _exact(payload, _U32)[0]


def encode_finish_ok(chunks: int, pointers: int, received_bytes: int) -> bytes:
    return _FINISH_OK.pack(chunks, pointers, received_bytes)


def decode_finish_ok(payload: bytes) -> tuple[int, int, int]:
    return _exact(payload, _FINISH_OK)


# ----------------------------------------------------------------------
# batch frames
# ----------------------------------------------------------------------
#
# One fixed header, then ``count`` records end to end.  Fixed-stride
# bodies (DIGEST_BATCH, POINTER_BATCH, DIGEST_REPLY) are one NumPy record
# array over the payload; a CHUNK_BATCH record is a fixed-stride head
# (digest, u32 length) and then that many payload bytes.

_DIGEST_HEAD = struct.Struct("!BBI")  # mode, digest size, count
_BATCH_HEAD = struct.Struct("!BI")  # digest size, count
_FLAG = np.dtype("u1")  # one DIGEST_REPLY record


@functools.lru_cache(maxsize=None)
def _record(size: int, lengths: bool) -> np.dtype:
    """A ``size``-byte digest, then (DECIDE mode) a big-endian u32."""
    fields = [("digest", f"V{size}")]
    if lengths:
        fields.append(("length", ">u4"))
    return np.dtype(fields)


def _records(payload, offset: int, count: int, record: np.dtype) -> np.ndarray:
    """The ``count`` records after ``offset`` — which must end the payload."""
    _done(payload, offset + count * record.itemsize)
    return np.frombuffer(payload, record, count, offset)


def _check_digests(digests: Sequence[bytes]) -> int:
    if not digests:
        raise ProtocolError("empty digest batch")
    size = len(digests[0])
    if not 1 <= size <= 0xFF:
        raise ProtocolError(f"digest size {size} out of range")
    if len(set(map(len, digests))) != 1:
        raise ProtocolError("mixed digest sizes in one batch")
    return size


def encode_digest_batch(
    digests: Sequence[bytes], lengths: Sequence[int] | None = None
) -> bytes:
    """QUERY mode without ``lengths``; DECIDE mode with per-digest chunk
    lengths (the tenant index accounts dedup'd bytes from them)."""
    size = _check_digests(digests)
    if lengths is None:
        return _DIGEST_HEAD.pack(MODE_QUERY, size, len(digests)) + b"".join(digests)
    if len(lengths) != len(digests):
        raise ProtocolError("lengths/digests count mismatch")
    rows = np.empty(len(digests), _record(size, True))
    rows["digest"] = digests
    rows["length"] = lengths
    return _DIGEST_HEAD.pack(MODE_DECIDE, size, len(digests)) + rows.tobytes()


def decode_digest_batch(payload: bytes) -> tuple[int, list[bytes], list[int] | None]:
    """``(mode, digests, lengths)`` as columns; ``lengths`` is ``None``
    in QUERY mode."""
    (mode, size, count), offset = _unpack(payload, _DIGEST_HEAD)
    if mode not in (MODE_QUERY, MODE_DECIDE):
        raise ProtocolError(f"unknown digest-batch mode {mode}")
    if size < 1:
        raise ProtocolError("zero digest size")
    decide = mode == MODE_DECIDE
    rows = _records(payload, offset, count, _record(size, decide))
    lengths = rows["length"].tolist() if decide else None
    return mode, rows["digest"].tolist(), lengths


def encode_digest_reply(flags: Sequence[bool]) -> bytes:
    return _U32.pack(len(flags)) + bytes(map(bool, flags))


def decode_digest_reply(payload: bytes) -> list[bool]:
    (count,), offset = _unpack(payload, _U32)
    return _records(payload, offset, count, _FLAG).astype(bool).tolist()


def encode_chunk_batch(items: Sequence[tuple[bytes, bytes]]) -> bytes:
    """``(digest, payload)`` pairs — the digests are the sender's claim,
    verified (batched) by the site agent before anything is stored.
    Payloads may be any byte views; they are joined, not copied first."""
    digests = [digest for digest, _ in items]
    size = _check_digests(digests)
    datas = [data for _, data in items]
    parts = [_BATCH_HEAD.pack(size, len(items))] + [None] * (2 * len(items))
    parts[1::2] = map(struct.Struct(f"!{size}sI").pack, digests, map(len, datas))
    parts[2::2] = datas
    return b"".join(parts)


def decode_chunk_batch(payload: bytes) -> list[tuple[bytes, bytes]]:
    (size, count), pos = _unpack(payload, _BATCH_HEAD)
    if size < 1:
        raise ProtocolError("zero digest size")
    head = struct.Struct(f"!{size}sI")
    items: list[tuple[bytes, bytes]] = []
    try:
        for _ in range(count):
            digest, length = head.unpack_from(payload, pos)
            pos += head.size
            items.append((digest, payload[pos : pos + length]))
            pos += length
    except struct.error:
        raise ProtocolError("truncated frame payload") from None
    _done(payload, pos)
    return items


def encode_pointer_batch(digests: Sequence[bytes]) -> bytes:
    size = _check_digests(digests)
    return _BATCH_HEAD.pack(size, len(digests)) + b"".join(digests)


def decode_pointer_batch(payload: bytes) -> list[bytes]:
    (size, count), offset = _unpack(payload, _BATCH_HEAD)
    if size < 1:
        raise ProtocolError("zero digest size")
    rows = _records(payload, offset, count, _record(size, False))
    return rows["digest"].tolist()


def encode_batch_ok(items: int, received_bytes: int) -> bytes:
    return _BATCH_OK.pack(items, received_bytes)


def decode_batch_ok(payload: bytes) -> tuple[int, int]:
    return _exact(payload, _BATCH_OK)


# ----------------------------------------------------------------------
# restore streaming
# ----------------------------------------------------------------------


def encode_restore_begin(total_bytes: int) -> bytes:
    return _U64.pack(total_bytes)


def decode_restore_begin(payload: bytes) -> int:
    return _exact(payload, _U64)[0]


# ----------------------------------------------------------------------
# snapshot listing
# ----------------------------------------------------------------------


def encode_snapshot_list(snapshot_ids: Sequence[str]) -> bytes:
    parts = [_U32.pack(len(snapshot_ids))]
    parts.extend(_pack_str(sid) for sid in snapshot_ids)
    return b"".join(parts)


def decode_snapshot_list(payload: bytes) -> list[str]:
    (count,), offset = _unpack(payload, _U32)
    ids: list[str] = []
    for _ in range(count):
        sid, offset = _take_str(payload, offset)
        ids.append(sid)
    _done(payload, offset)
    return ids


# ----------------------------------------------------------------------
# throttle control frames
# ----------------------------------------------------------------------


def encode_throttle(retry_after_s: float, reason: str = "") -> bytes:
    """Retry-after hint in milliseconds (u32, so up to ~49 days)."""
    millis = max(0, min(0xFFFFFFFF, int(round(retry_after_s * 1000.0))))
    return _U32.pack(millis) + _pack_str(reason)


def decode_throttle(payload: bytes) -> tuple[float, str]:
    (millis,), offset = _unpack(payload, _U32)
    reason, offset = _take_str(payload, offset)
    _done(payload, offset)
    return millis / 1000.0, reason


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------


def encode_error(code: Err, message: str) -> bytes:
    return _U16.pack(int(code)) + _pack_str(message)


def decode_error(payload: bytes) -> tuple[Err, str]:
    (code_value,), offset = _unpack(payload, _U16)
    message, offset = _take_str(payload, offset)
    _done(payload, offset)
    try:
        code = Err(code_value)
    except ValueError:
        code = Err.INTERNAL
    return code, message
