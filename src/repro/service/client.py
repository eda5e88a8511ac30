"""Client side of the backup service: the async agent.

:class:`AsyncBackupClient` speaks the batched wire protocol and runs
the paper's client-side pipeline across the network on one thread: the
scan + hash of :meth:`~repro.core.shredder.Shredder.pipeline_batches`
runs on the event loop, while up to ``window - 1`` ship frames of
earlier batches ride ahead of it, unacked (the server's advertised ack
window bounds them).  Replies are strictly in-order per connection
(the protocol's contract), so the client never tags requests; it just
counts outstanding acks.

Dedup decisions are **source-side** and tenant-scoped: the client sends
one DIGEST_BATCH per pipeline batch and only ships payloads the server's
index for *its tenant* has not stored — duplicate chunks cross the wire as
pointer-sized digests, which is the §7 bandwidth story end to end.
There is one remote backup path, :meth:`AsyncBackupClient.backup`;
``repro backup --remote`` drives it, and the batched verbs it is built
from (``decide_chunks`` / ``ship_chunks`` / ``ship_pointers``) are public
for callers that chunk on their own.

**Resilience** — pass a :class:`RetryPolicy` and every verb survives
the network: each request carries a per-op timeout, a dropped
connection is redialed with bounded exponential backoff, and an open
snapshot resumes where it left off.  ``begin_snapshot`` generates a
client-side resume token; after a reconnect the client sends RESUME and
the server answers with its applied-frame high-water mark, so only
frames the server never applied are replayed — acked chunks never cross
the wire twice.  Every ship frame goes through one sender, which queues
the frame for replay before it sends it once.  The default,
:data:`NO_RETRY`, allows no recovery: it sends no token (the server
aborts rather than parks the snapshot), and the first failure
propagates.

**Transport** — one :class:`~repro.service.protocol.FrameConnection`,
the same one the server reads through: a restore's ``RESTORE_DATA``
pieces land straight in their slices of the restore's one output buffer.
"""

from __future__ import annotations

import asyncio
import io
import random
import secrets
import time
from collections import deque
from dataclasses import dataclass, field

from repro.backup.agent import TransferLog
from repro.backup.server import _default_backup_chunker
from repro.core.shredder import Shredder, ShredderConfig
from repro.service import protocol as wire
from repro.service.protocol import Err, FrameConnection, Msg, RemoteError

__all__ = [
    "AsyncBackupClient",
    "NO_RETRY",
    "RemoteBackupReport",
    "RetryPolicy",
]

#: Error codes worth a reconnect + resume: transient corruption the
#: wire injected (the batch was rejected atomically, replay fixes it),
#: server overload (RETRY_LATER parks the session server-side), or an
#: eviction that parked our session.  UNAUTHORIZED and QUOTA_EXCEEDED
#: are decisive — retrying cannot change the verdict.
_RETRYABLE_CODES = frozenset(
    {
        Err.DIGEST_MISMATCH,
        Err.UNKNOWN_CHUNK,
        Err.BAD_FRAME,
        Err.INTERNAL,
        Err.EVICTED,
        Err.RETRY_LATER,
    }
)

#: Exceptions that mean "the connection (not the request) failed".
_RECOVERABLE_EXC = (OSError, EOFError, asyncio.TimeoutError)

#: What a verb's first attempt hands to ``_with_recovery``, which asks
#: ``_RETRYABLE_CODES`` whether a RemoteError is worth a recovery.
_FAILURES = _RECOVERABLE_EXC + (RemoteError,)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the client fights to keep a backup alive.

    ``attempts`` bounds the redials per recovery; ``max_recoveries``
    bounds recoveries across a whole operation so a permanently dark
    server still fails in finite time.  Delays grow exponentially from
    ``base_delay_s`` to ``max_delay_s`` with half-jitter.
    """

    attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: bool = True
    op_timeout_s: float | None = 30.0
    max_recoveries: int = 32

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.op_timeout_s is not None and self.op_timeout_s <= 0:
            raise ValueError("op_timeout_s must be positive or None")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.max_delay_s, self.base_delay_s * (2**attempt))
        if not self.jitter:
            return raw
        return raw / 2 + rng.uniform(0, raw / 2)


#: The default policy: no per-op timeout, no recovery, no resume token.
NO_RETRY = RetryPolicy(max_recoveries=0, op_timeout_s=None)


@dataclass
class RemoteBackupReport:
    """Outcome of one remote backup, measured at the client."""

    snapshot_id: str
    total_bytes: int
    n_chunks: int
    duplicate_chunks: int
    #: Chunk payload bytes that actually crossed the wire.
    shipped_bytes: int
    elapsed_s: float
    transfer: TransferLog = field(default_factory=TransferLog)
    #: Resilience: connections redialed, successful RESUMEs, and ship
    #: frames replayed after reconnect (unacked only — acked frames are
    #: never re-shipped).
    reconnects: int = 0
    resumes: int = 0
    replayed_frames: int = 0
    #: THROTTLE frames the server sent us during this backup.
    throttles: int = 0

    @property
    def dedup_fraction(self) -> float:
        return self.duplicate_chunks / self.n_chunks if self.n_chunks else 0.0

    @property
    def ingest_mib_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.total_bytes / self.elapsed_s / (1 << 20)


class AsyncBackupClient:
    """One authenticated session against a running BackupService."""

    def __init__(
        self,
        conn: FrameConnection,
        *,
        tenant: str,
        session_id: str,
        window: int,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        retry: RetryPolicy = NO_RETRY,
        address: tuple[str, int] | None = None,
        auth: str = "",
        purpose: int = wire.PURPOSE_BACKUP,
    ) -> None:
        self.conn = conn
        self.tenant = tenant
        self.auth = auth
        self.purpose = purpose
        self.session_id = session_id
        #: Max unacked CHUNK/POINTER batches in flight (server's hint).
        self.window = max(1, window)
        self.max_frame = max_frame
        self.retry = retry
        self._address = address
        self._rng = random.Random()
        # -- resume state ------------------------------------------------
        self._open_snapshot: str | None = None
        self._resume_token = ""
        self._session_open = False  # server-side snapshot confirmed open
        self._finished_remotely = False  # FINISH applied, FINISH_OK lost
        self._next_seq = 1
        self._acked_seq = 0
        #: In-flight ship frames: ``(seq, msg, payload)``, FIFO-acked.
        self._unacked: deque[tuple[int, Msg, bytes]] = deque()
        #: Resilience counters (reset per backup in the report).
        self.reconnects = 0
        self.resumes = 0
        self.replayed_frames = 0
        #: THROTTLE frames absorbed; sends pace until ``_pace_until``.
        self.throttles = 0
        self._pace_until = 0.0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        retry: RetryPolicy = NO_RETRY,
        auth: str = "",
        purpose: int = wire.PURPOSE_BACKUP,
    ) -> "AsyncBackupClient":
        """Dial, identify (magic + HELLO), and complete the handshake.

        ``auth`` is the tenant's HMAC token (see
        :func:`repro.service.limits.auth_token`) when the server runs
        with ``--auth-file``; ``purpose`` tags the session for
        priority-aware shedding (restores shed last).
        """
        client = cls(
            None,
            tenant=tenant,
            session_id="",
            window=1,
            max_frame=max_frame,
            retry=retry,
            address=(host, port),
            auth=auth,
            purpose=purpose,
        )
        client.conn, (window, client.session_id) = await client._dial(None)
        client.window = max(1, window)
        return client

    async def _dial(self, timeout: float | None) -> tuple[FrameConnection, tuple]:
        """Dial and identify (magic + HELLO): the new connection and the
        decoded HELLO_OK, or the server's refusal as a typed error."""
        hello = wire.encode_hello(self.tenant, self.auth, self.purpose)
        conn = await FrameConnection.open(*self._address, self.max_frame)
        try:
            await conn.send(wire.MAGIC + wire.encode_frame(Msg.HELLO, hello))
            msg, payload = await asyncio.wait_for(conn.recv(), timeout)
            if msg is Msg.ERROR:
                raise RemoteError(*wire.decode_error(payload))
            if msg is not Msg.HELLO_OK:
                raise wire.ProtocolError(f"expected HELLO_OK, got {msg.name}")
            return conn, wire.decode_hello_ok(payload)
        except BaseException:
            conn.close()
            raise

    # -- low-level request/reply ---------------------------------------

    async def _pace(self) -> None:
        """Honour the last THROTTLE hint before touching the wire."""
        delay = self._pace_until - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    def _note_throttle(self, retry_after_s: float) -> None:
        self.throttles += 1
        # Jittered pacing (same half-jitter family as RetryPolicy): the
        # full hint plus up to 25% decorrelates a fleet of throttled
        # clients instead of re-synchronising them on the same instant.
        pace = retry_after_s
        if self.retry.jitter:
            pace *= 1.0 + self._rng.uniform(0.0, 0.25)
        self._pace_until = max(
            self._pace_until, time.monotonic() + pace
        )

    async def _send(self, msg: Msg, payload: bytes = b"") -> None:
        await self._pace()
        await self.conn.send(wire.encode_frame(msg, payload))

    async def _recv(self, into: memoryview | None = None) -> tuple[Msg, bytearray | int]:
        """:meth:`FrameConnection.recv`, THROTTLE absorbed and ERROR raised."""
        timeout = self.retry.op_timeout_s
        while True:
            msg, payload = await asyncio.wait_for(self.conn.recv(into), timeout)
            if msg is Msg.THROTTLE:
                # Advisory control frame riding ahead of the real FIFO
                # reply: absorb it, arm the pacer, keep waiting.
                self._note_throttle(wire.decode_throttle(payload)[0])
                continue
            if msg is Msg.ERROR:
                raise RemoteError(*wire.decode_error(payload))
            return msg, payload

    async def _expect(self, expected: Msg) -> bytes:
        msg, payload = await self._recv()
        if msg is not expected:
            raise wire.ProtocolError(
                f"expected {expected.name}, got {msg.name}"
            )
        return payload

    async def _rpc(self, msg: Msg, payload: bytes, expected: Msg) -> bytes:
        await self._send(msg, payload)
        return await self._expect(expected)

    # -- reconnect + resume --------------------------------------------

    async def _redial(self) -> None:
        """Dial a fresh connection and redo the magic + HELLO handshake."""
        await self._pace()  # a throttled client backs off before redialing
        self.conn.abort()  # RST, not FIN: the server parks the snapshot
        timeout = self.retry.op_timeout_s
        self.conn, (window, self.session_id) = await self._dial(timeout)
        self.window = max(1, window)
        self.reconnects += 1

    async def _recover(self) -> None:
        """Redial, re-open the snapshot (RESUME or BEGIN), replay unacked.

        After this returns the server is at our applied-frame high-water
        mark and every unacked ship frame has been resent in order; the
        interrupted operation can simply be retried.
        """
        policy = self.retry
        last: BaseException | None = None
        for attempt in range(policy.attempts):
            if attempt:
                await asyncio.sleep(policy.delay(attempt - 1, self._rng))
            try:
                await self._redial()
                break
            except _RECOVERABLE_EXC as exc:
                last = exc
        else:
            raise last
        if self._open_snapshot is None:
            return
        self._session_open = False
        applied: int | None = None
        unknown: RemoteError | None = None
        for attempt in range(policy.attempts):
            if attempt:
                await asyncio.sleep(policy.delay(attempt - 1, self._rng))
            try:
                payload = await self._rpc(
                    Msg.RESUME,
                    wire.encode_resume(
                        self._open_snapshot, self._resume_token
                    ),
                    Msg.RESUME_OK,
                )
            except RemoteError as exc:
                if exc.code is not Err.RESUME_UNKNOWN:
                    raise
                # The RESUME itself may have been corrupted in flight —
                # a garbled token looks unknown to the server — so ask
                # again before trusting the verdict.
                unknown = exc
                continue
            applied = wire.decode_resume_ok(payload)
            self.resumes += 1
            break
        if applied is None:
            # Consistently nothing parked under our token.  Either the
            # snapshot was actually finished (FINISH applied, FINISH_OK
            # lost) or it never progressed server-side (BEGIN lost /
            # grace expired with nothing acked) — anything else is
            # unrecoverable.  The LIST is a raw round trip: recovery
            # never nests.
            listed = await self._rpc(Msg.LIST_SNAPSHOTS, b"", Msg.SNAPSHOT_LIST)
            if self._open_snapshot in wire.decode_snapshot_list(listed):
                self._finished_remotely = True
                return
            if self._acked_seq > 0:
                raise unknown
            await self._rpc(
                Msg.BEGIN_SNAPSHOT,
                wire.encode_begin(self._open_snapshot, self._resume_token),
                Msg.BEGIN_OK,
            )
            applied = 0
        self._session_open = True
        # Frames the server applied before the cut count as acked even
        # though their BATCH_OKs were lost with the old connection.
        while self._unacked and self._unacked[0][0] <= applied:
            self._unacked.popleft()
        self._acked_seq = max(self._acked_seq, applied)
        for _seq, msg, payload in self._unacked:
            await self._send(msg, payload)
            self.replayed_frames += 1

    async def _with_recovery(self, op, failure: BaseException):
        """Recover from ``failure``, then retry ``op`` until it succeeds.

        Verbs come here only from the ``except`` of their own first
        attempt, so the happy path stays straight-line.  A recovery or a
        retried ``op`` that dies on the wire just counts as another
        recovery — only ``max_recoveries`` or a decisive server error
        (non-retryable code) ends the fight.
        """
        recoveries = 0
        while True:
            if self._address is None or (
                isinstance(failure, RemoteError)
                and failure.code not in _RETRYABLE_CODES
            ):
                raise failure
            recoveries += 1
            if recoveries > self.retry.max_recoveries:
                raise failure
            try:
                await self._recover()
                return await op()
            except _FAILURES as exc:
                failure = exc

    async def _recovering(self, op):
        """``await op()``, recovered and retried under the retry policy."""
        try:
            return await op()
        except _FAILURES as exc:
            return await self._with_recovery(op, exc)

    async def _take_acks(self, limit: int) -> None:
        """Take BATCH_OKs in order until at most ``limit`` ship frames
        are unacked."""
        while len(self._unacked) > limit:
            wire.decode_batch_ok(await self._expect(Msg.BATCH_OK))
            self._unacked.popleft()
            self._acked_seq += 1

    async def _ship(self, msg: Msg, payload: bytes, limit: int) -> None:
        """Send one ship frame exactly once, then take acks in order
        until at most ``limit`` frames are unacked.

        The frame joins ``_unacked`` *before* the send: if the send (or
        an ack) dies, ``_recover`` replays it from the queue, so only
        the ack taking is retried, never the send.
        """
        self._unacked.append((self._next_seq, msg, payload))
        self._next_seq += 1
        try:
            await self._send(msg, payload)
            await self._take_acks(limit)
        except _FAILURES as exc:
            await self._with_recovery(lambda: self._take_acks(limit), exc)

    async def _round_trip(self, msg: Msg, payload: bytes, expected: Msg) -> bytes:
        """The acks still owed, then one request and its reply (replies
        are FIFO, so every ship frame ahead of the request is acked
        first)."""
        await self._take_acks(0)
        return await self._rpc(msg, payload, expected)

    # -- session verbs -------------------------------------------------

    async def begin_snapshot(self, snapshot_id: str) -> None:
        self._open_snapshot = snapshot_id
        # No token when the policy allows no recovery: the server then
        # aborts the snapshot on disconnect instead of parking it.
        self._resume_token = (
            secrets.token_hex(8) if self.retry.max_recoveries else ""
        )
        self._session_open = False
        self._finished_remotely = False
        self._next_seq = 1
        self._acked_seq = 0
        self._unacked.clear()

        async def op():
            if self._session_open:  # _recover already re-opened it
                return
            await self._rpc(
                Msg.BEGIN_SNAPSHOT,
                wire.encode_begin(snapshot_id, self._resume_token),
                Msg.BEGIN_OK,
            )
            self._session_open = True

        try:
            await self._recovering(op)
        except BaseException:
            self._open_snapshot = None
            self._resume_token = ""
            raise

    async def finish_snapshot(self, snapshot_id: str) -> TransferLog:
        async def op():
            if self._finished_remotely:  # FINISH applied, ack lost
                return None
            return await self._round_trip(
                Msg.FINISH, wire.encode_snapshot_id(snapshot_id), Msg.FINISH_OK
            )

        payload = await self._recovering(op)
        self._open_snapshot = None
        self._resume_token = ""
        self._session_open = False
        if payload is None:
            # The recipe is stored but the counts died with the old
            # connection; an empty log keeps the success visible.
            return TransferLog()
        chunks, pointers, received = wire.decode_finish_ok(payload)
        return TransferLog(
            chunks_received=chunks,
            pointers_received=pointers,
            bytes_received=received,
        )

    async def decide_chunks(self, digests, lengths) -> list[bool]:
        """Tenant dedup decision for an open snapshot.

        A repeat of an earlier miss in the same batch comes back as a
        pointer whose payload is that earlier chunk, so ship the batch's
        runs in batch order: each run of chunks must reach the server
        before the pointers that follow it, or the server refuses those
        pointers with a fatal UNKNOWN_CHUNK.  Replaying a decide after a
        reconnect is safe: the tenant index holds only payloads that
        landed, so a lost DIGEST_REPLY cannot lose chunks.
        """
        payload = wire.encode_digest_batch(list(digests), list(lengths))
        reply = await self._recovering(
            lambda: self._round_trip(Msg.DIGEST_BATCH, payload, Msg.DIGEST_REPLY)
        )
        return wire.decode_digest_reply(reply)

    async def ship_chunks(self, items) -> tuple[int, int]:
        """Ship ``(digest, payload)`` pairs and wait for the ack; returns
        (items, bytes) acked."""
        items = list(items)
        await self._ship(Msg.CHUNK_BATCH, wire.encode_chunk_batch(items), 0)
        return len(items), sum(len(data) for _, data in items)

    async def ship_pointers(self, digests) -> int:
        """Ship pointers to chunks this tenant stored and wait for the ack."""
        digests = list(digests)
        await self._ship(Msg.POINTER_BATCH, wire.encode_pointer_batch(digests), 0)
        return len(digests)

    async def list_snapshots(self) -> list[str]:
        payload = await self._recovering(
            lambda: self._round_trip(Msg.LIST_SNAPSHOTS, b"", Msg.SNAPSHOT_LIST)
        )
        return wire.decode_snapshot_list(payload)

    async def restore(self, snapshot_id: str) -> bytes:
        """The snapshot's bytes; a cut stream is requested again whole."""
        return await self._recovering(lambda: self._restore(snapshot_id))

    async def _restore(self, snapshot_id: str) -> bytes:
        payload = await self._round_trip(
            Msg.RESTORE, wire.encode_snapshot_id(snapshot_id), Msg.RESTORE_BEGIN
        )
        total_bytes = wire.decode_restore_begin(payload)
        # One buffer of the announced size, each piece received straight
        # into its slice; ``getvalue`` hands it back without a copy once
        # every view is released.  The only large allocation is made here,
        # before the stream: made at RESTORE_END it would land wherever the
        # pieces in flight left room, and peak memory would follow the timing.
        out = io.BytesIO(bytes(total_bytes))
        received = 0
        with out.getbuffer() as dest:
            while True:
                with dest[received:] as rest:  # released whichever way it ends
                    msg, landed = await self._recv(into=rest)
                if msg is Msg.RESTORE_END:
                    break
                if msg is not Msg.RESTORE_DATA:
                    raise wire.ProtocolError(f"expected RESTORE_DATA, got {msg.name}")
                received += landed
        if received != total_bytes:
            raise wire.ProtocolError(
                f"restore announced {total_bytes} bytes, streamed {received}"
            )
        return out.getvalue()

    async def close(self) -> None:
        self.conn.close()

    async def __aenter__(self) -> "AsyncBackupClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the pipelined backup ------------------------------------------

    async def backup(
        self, data: bytes, snapshot_id: str, *, batch_chunks: int | None = None
    ) -> RemoteBackupReport:
        """Chunk, hash, deduplicate, and ship one snapshot.

        The scan runs on the event loop: :meth:`~repro.core.shredder
        .Shredder.pipeline_batches` chunks and hashes each batch (of
        ``batch_chunks`` chunks, default the pipeline's) when this
        coroutine asks for it.  Per batch one DIGEST_BATCH decides
        source-side, then payload misses ship as CHUNK_BATCH and hits as
        POINTER_BATCH.  Up to ``window - 1`` ship frames ride ahead,
        unacked, while the next batch is scanned.
        """
        with Shredder(
            ShredderConfig.gpu_streams_memory(chunker=_default_backup_chunker())
        ) as shredder:
            t0 = time.perf_counter()
            n_chunks = duplicates = shipped = 0
            reconnects0 = self.reconnects
            resumes0 = self.resumes
            replayed0 = self.replayed_frames
            throttles0 = self.throttles
            await self.begin_snapshot(snapshot_id)
            for batch in shredder.pipeline_batches(data, batch_chunks=batch_chunks):
                n_chunks += len(batch)
                # The decide takes every ack still owed first, so at most
                # `window` ship frames ride ahead of it.
                flags = await self.decide_chunks(
                    [c.digest for c in batch], [c.length for c in batch]
                )
                # Ship consecutive same-decision runs — order of arrival
                # at the agent is recipe order, identical to in-process.
                i = 0
                while i < len(batch):
                    is_dup = flags[i]
                    j = i
                    while j < len(batch) and flags[j] == is_dup:
                        j += 1
                    run = batch[i:j]
                    if is_dup:
                        duplicates += len(run)
                        msg = Msg.POINTER_BATCH
                        payload = wire.encode_pointer_batch([c.digest for c in run])
                    else:
                        shipped += sum(c.length for c in run)
                        msg = Msg.CHUNK_BATCH
                        payload = wire.encode_chunk_batch(
                            [(c.digest, c.data) for c in run]
                        )
                    await self._ship(msg, payload, self.window - 1)
                    i = j
            transfer = await self.finish_snapshot(snapshot_id)
        return RemoteBackupReport(
            snapshot_id=snapshot_id,
            total_bytes=len(data),
            n_chunks=n_chunks,
            duplicate_chunks=duplicates,
            shipped_bytes=shipped,
            elapsed_s=time.perf_counter() - t0,
            transfer=transfer,
            reconnects=self.reconnects - reconnects0,
            resumes=self.resumes - resumes0,
            replayed_frames=self.replayed_frames - replayed0,
            throttles=self.throttles - throttles0,
        )

