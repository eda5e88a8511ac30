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

The codec is pure functions over ``bytes`` — no sockets — so it is
unit-testable and reusable by any transport.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Sequence

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
#: v2 added the resume handshake: BEGIN_SNAPSHOT carries a
#: client-generated resume token, and RESUME / RESUME_OK let a
#: reconnecting client continue a parked mid-backup session.
#: v3 adds overload protection: HELLO carries an HMAC auth token and a
#: traffic purpose (backup vs restore, for priority-aware shedding),
#: the server may interleave THROTTLE control frames carrying
#: retry-after pacing hints, and UNAUTHORIZED / QUOTA_EXCEEDED /
#: RETRY_LATER are typed errors.
PROTOCOL_VERSION = 3

#: Hard per-frame ceiling: a CHUNK_BATCH of one pipeline batch (about
#: ``HASH_BATCH_BYTES``, 4 MiB) stays far below this; anything larger
#: is a corrupt or hostile frame.
DEFAULT_MAX_FRAME = 64 << 20

HEADER = struct.Struct("!BI")  # type, payload length
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


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


def _take(payload: bytes, offset: int, size: int) -> tuple[bytes, int]:
    end = offset + size
    if end > len(payload):
        raise ProtocolError("truncated frame payload")
    return payload[offset:end], end


def _take_str(payload: bytes, offset: int) -> tuple[str, int]:
    raw, offset = _take(payload, offset, _U16.size)
    (size,) = _U16.unpack(raw)
    raw, offset = _take(payload, offset, size)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable string field: {exc}") from None


def _done(payload: bytes, offset: int) -> None:
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes in frame payload"
        )


# ----------------------------------------------------------------------
# handshake
# ----------------------------------------------------------------------


def encode_hello(
    tenant: str,
    client_name: str = "",
    version: int = PROTOCOL_VERSION,
    auth: str = "",
    purpose: int = PURPOSE_BACKUP,
) -> bytes:
    """v3 appends an auth token (HMAC hexdigest, empty = anonymous) and
    a traffic purpose byte; v2 frames simply stop after the name."""
    return (
        _U16.pack(version)
        + _pack_str(tenant)
        + _pack_str(client_name)
        + _pack_str(auth)
        + bytes([purpose])
    )


def decode_hello(payload: bytes) -> tuple[int, str, str, str, int]:
    raw, offset = _take(payload, 0, _U16.size)
    (version,) = _U16.unpack(raw)
    tenant, offset = _take_str(payload, offset)
    client_name, offset = _take_str(payload, offset)
    if offset == len(payload):
        return version, tenant, client_name, "", PURPOSE_BACKUP  # v2 frame
    auth, offset = _take_str(payload, offset)
    raw, offset = _take(payload, offset, 1)
    purpose = raw[0]
    if purpose not in (PURPOSE_BACKUP, PURPOSE_RESTORE):
        raise ProtocolError(f"unknown traffic purpose {purpose}")
    _done(payload, offset)
    return version, tenant, client_name, auth, purpose


def encode_hello_ok(session_id: str, window: int, version: int = PROTOCOL_VERSION) -> bytes:
    return _U16.pack(version) + _U16.pack(window) + _pack_str(session_id)


def decode_hello_ok(payload: bytes) -> tuple[int, int, str]:
    raw, offset = _take(payload, 0, _U16.size)
    (version,) = _U16.unpack(raw)
    raw, offset = _take(payload, offset, _U16.size)
    (window,) = _U16.unpack(raw)
    session_id, offset = _take_str(payload, offset)
    _done(payload, offset)
    return version, window, session_id


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


def encode_begin(snapshot_id: str, token: str = "") -> bytes:
    """BEGIN_SNAPSHOT: id + client-generated resume token.

    The token is client-generated (not handed out in BEGIN_OK) so a
    client whose BEGIN applied but whose reply was lost can still
    RESUME — it never depends on having *seen* a server reply.  An
    empty token opts out of parking (the session aborts on disconnect,
    the v1 behaviour).
    """
    return _pack_str(snapshot_id) + _pack_str(token)


def decode_begin(payload: bytes) -> tuple[str, str]:
    snapshot_id, offset = _take_str(payload, 0)
    if offset == len(payload):
        return snapshot_id, ""  # v1 frame: no token field
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


def encode_resume_ok(
    applied_frames: int, chunks: int, pointers: int, received_bytes: int
) -> bytes:
    """RESUME_OK: how far the server got.

    ``applied_frames`` is the count of ship frames (CHUNK_BATCH /
    POINTER_BATCH) fully applied for the parked snapshot — the client
    replays only frames numbered beyond it, which is what makes resume
    exactly-once: acked work is never re-shipped, unacked work is.
    """
    return (
        _U32.pack(applied_frames)
        + _U32.pack(chunks)
        + _U32.pack(pointers)
        + _U64.pack(received_bytes)
    )


def decode_resume_ok(payload: bytes) -> tuple[int, int, int, int]:
    raw, offset = _take(payload, 0, _U32.size)
    (applied_frames,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, _U32.size)
    (chunks,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, _U32.size)
    (pointers,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, _U64.size)
    (received_bytes,) = _U64.unpack(raw)
    _done(payload, offset)
    return applied_frames, chunks, pointers, received_bytes


def encode_finish_ok(chunks: int, pointers: int, received_bytes: int) -> bytes:
    return _U32.pack(chunks) + _U32.pack(pointers) + _U64.pack(received_bytes)


def decode_finish_ok(payload: bytes) -> tuple[int, int, int]:
    raw, offset = _take(payload, 0, _U32.size)
    (chunks,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, _U32.size)
    (pointers,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, _U64.size)
    (received_bytes,) = _U64.unpack(raw)
    _done(payload, offset)
    return chunks, pointers, received_bytes


# ----------------------------------------------------------------------
# digest batches
# ----------------------------------------------------------------------


def _check_digests(digests: Sequence[bytes]) -> int:
    if not digests:
        raise ProtocolError("empty digest batch")
    size = len(digests[0])
    if not 1 <= size <= 0xFF:
        raise ProtocolError(f"digest size {size} out of range")
    for d in digests:
        if len(d) != size:
            raise ProtocolError("mixed digest sizes in one batch")
    return size


def encode_digest_batch(
    digests: Sequence[bytes], lengths: Sequence[int] | None = None
) -> bytes:
    """QUERY mode without ``lengths``; DECIDE mode with per-digest chunk
    lengths (the tenant index accounts dedup'd bytes from them)."""
    size = _check_digests(digests)
    mode = MODE_QUERY if lengths is None else MODE_DECIDE
    parts = [bytes([mode, size]), _U32.pack(len(digests))]
    if lengths is None:
        parts.extend(digests)
    else:
        if len(lengths) != len(digests):
            raise ProtocolError("lengths/digests count mismatch")
        for digest, length in zip(digests, lengths):
            parts.append(digest)
            parts.append(_U32.pack(length))
    return b"".join(parts)


def decode_digest_batch(payload: bytes) -> tuple[int, list[bytes], list[int] | None]:
    raw, offset = _take(payload, 0, 2)
    mode, size = raw[0], raw[1]
    if mode not in (MODE_QUERY, MODE_DECIDE):
        raise ProtocolError(f"unknown digest-batch mode {mode}")
    if size < 1:
        raise ProtocolError("zero digest size")
    raw, offset = _take(payload, offset, _U32.size)
    (count,) = _U32.unpack(raw)
    digests: list[bytes] = []
    lengths: list[int] | None = None if mode == MODE_QUERY else []
    for _ in range(count):
        digest, offset = _take(payload, offset, size)
        digests.append(digest)
        if lengths is not None:
            raw, offset = _take(payload, offset, _U32.size)
            lengths.append(_U32.unpack(raw)[0])
    _done(payload, offset)
    return mode, digests, lengths


def encode_digest_reply(flags: Sequence[bool]) -> bytes:
    return _U32.pack(len(flags)) + bytes(1 if f else 0 for f in flags)


def decode_digest_reply(payload: bytes) -> list[bool]:
    raw, offset = _take(payload, 0, _U32.size)
    (count,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, count)
    _done(payload, offset)
    return [b != 0 for b in raw]


# ----------------------------------------------------------------------
# chunk / pointer batches
# ----------------------------------------------------------------------


def encode_chunk_batch(items: Sequence[tuple[bytes, bytes]]) -> bytes:
    """``(digest, payload)`` pairs — the digests are the sender's claim,
    verified (batched) by the site agent before anything is stored."""
    size = _check_digests([digest for digest, _ in items])
    parts = [bytes([size]), _U32.pack(len(items))]
    for digest, data in items:
        parts.append(digest)
        parts.append(_U32.pack(len(data)))
        parts.append(bytes(data))
    return b"".join(parts)


def decode_chunk_batch(payload: bytes) -> list[tuple[bytes, bytes]]:
    raw, offset = _take(payload, 0, 1)
    size = raw[0]
    if size < 1:
        raise ProtocolError("zero digest size")
    raw, offset = _take(payload, offset, _U32.size)
    (count,) = _U32.unpack(raw)
    items: list[tuple[bytes, bytes]] = []
    for _ in range(count):
        digest, offset = _take(payload, offset, size)
        raw, offset = _take(payload, offset, _U32.size)
        (length,) = _U32.unpack(raw)
        data, offset = _take(payload, offset, length)
        items.append((digest, data))
    _done(payload, offset)
    return items


def encode_pointer_batch(digests: Sequence[bytes]) -> bytes:
    size = _check_digests(digests)
    return bytes([size]) + _U32.pack(len(digests)) + b"".join(digests)


def decode_pointer_batch(payload: bytes) -> list[bytes]:
    raw, offset = _take(payload, 0, 1)
    size = raw[0]
    if size < 1:
        raise ProtocolError("zero digest size")
    raw, offset = _take(payload, offset, _U32.size)
    (count,) = _U32.unpack(raw)
    digests = []
    for _ in range(count):
        digest, offset = _take(payload, offset, size)
        digests.append(digest)
    _done(payload, offset)
    return digests


def encode_batch_ok(items: int, received_bytes: int) -> bytes:
    return _U32.pack(items) + _U64.pack(received_bytes)


def decode_batch_ok(payload: bytes) -> tuple[int, int]:
    raw, offset = _take(payload, 0, _U32.size)
    (items,) = _U32.unpack(raw)
    raw, offset = _take(payload, offset, _U64.size)
    (received_bytes,) = _U64.unpack(raw)
    _done(payload, offset)
    return items, received_bytes


# ----------------------------------------------------------------------
# restore streaming
# ----------------------------------------------------------------------


def encode_restore_begin(total_bytes: int, n_chunks: int) -> bytes:
    return _U64.pack(total_bytes) + _U32.pack(n_chunks)


def decode_restore_begin(payload: bytes) -> tuple[int, int]:
    raw, offset = _take(payload, 0, _U64.size)
    (total_bytes,) = _U64.unpack(raw)
    raw, offset = _take(payload, offset, _U32.size)
    (n_chunks,) = _U32.unpack(raw)
    _done(payload, offset)
    return total_bytes, n_chunks


# ----------------------------------------------------------------------
# snapshot listing
# ----------------------------------------------------------------------


def encode_snapshot_list(snapshot_ids: Sequence[str]) -> bytes:
    parts = [_U32.pack(len(snapshot_ids))]
    parts.extend(_pack_str(sid) for sid in snapshot_ids)
    return b"".join(parts)


def decode_snapshot_list(payload: bytes) -> list[str]:
    raw, offset = _take(payload, 0, _U32.size)
    (count,) = _U32.unpack(raw)
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
    raw, offset = _take(payload, 0, _U32.size)
    (millis,) = _U32.unpack(raw)
    reason, offset = _take_str(payload, offset)
    _done(payload, offset)
    return millis / 1000.0, reason


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------


def encode_error(code: Err, message: str) -> bytes:
    return _U16.pack(int(code)) + _pack_str(message)


def decode_error(payload: bytes) -> tuple[Err, str]:
    raw, offset = _take(payload, 0, _U16.size)
    (code_value,) = _U16.unpack(raw)
    message, offset = _take_str(payload, offset)
    _done(payload, offset)
    try:
        code = Err(code_value)
    except ValueError:
        code = Err.INTERNAL
    return code, message
