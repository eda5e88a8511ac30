"""Client side of the backup service: async agent + sync drop-in.

:class:`AsyncBackupClient` speaks the batched wire protocol and runs
the paper's client-side pipeline across the network: a feeder thread
drives :meth:`~repro.core.shredder.Shredder.pipeline_batches` (the
scan + hash pipeline), and the event loop overlaps that local
work with shipping — digests of batch *i+1* go out while the chunk
payloads of batch *i* are still in flight, bounded by the server's
advertised ack window.  Replies are strictly in-order per connection
(the protocol's contract), so the client never tags requests; it just
counts outstanding acks.

Dedup decisions are **source-side**: the client sends one DIGEST_BATCH
(decide mode) per pipeline batch and only ships payloads the server's
tenant index has not seen — duplicate chunks cross the wire as
pointer-sized digests, which is the §7 bandwidth story end to end.

:class:`RemoteAgent` wraps the async client behind the synchronous
:class:`~repro.backup.agent.ShredderAgent` surface (``begin_snapshot`` /
``receive_chunk`` / ``receive_pointer`` / ``finish_snapshot`` /
``restore`` + a ``store``-shaped proxy), so existing in-process callers
can point at a remote service without restructuring.

**Resilience** — pass a :class:`RetryPolicy` and the client survives
the network: every request carries a per-op timeout, a dropped
connection is redialed with bounded exponential backoff, and an open
snapshot resumes where it left off.  ``begin_snapshot`` generates a
client-side resume token; after a reconnect the client sends RESUME and
the server answers with its applied-frame high-water mark, so only
frames the server never applied are replayed — acked chunks never cross
the wire twice.  The default, :data:`NO_RETRY`, allows no recovery: it
sends no token (the server aborts rather than parks the snapshot), and
the first failure propagates.

**Transport** — one :class:`~repro.service.protocol.FrameConnection`,
the same one the server reads through: a restore's ``RESTORE_DATA``
pieces land straight in their slices of the restore's one output buffer.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import io
import random
import secrets
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

from repro.backup.agent import TransferLog
from repro.backup.server import _default_backup_chunker
from repro.core.hashing import chunk_hash
from repro.core.shredder import Shredder, ShredderConfig
from repro.service import protocol as wire
from repro.service.protocol import Err, FrameConnection, Msg, RemoteError

__all__ = [
    "AsyncBackupClient",
    "NO_RETRY",
    "RemoteAgent",
    "RemoteBackupReport",
    "RetryPolicy",
]

#: Digested batches buffered between the feeder thread and the sender.
_FEED_DEPTH = 4

#: How long a finished backup waits for its feeder thread to exit
#: before giving up and leaking it (counted + warned, never silent).
_FEED_JOIN_DEADLINE = 5.0

#: Feeder threads that outlived the join deadline (process lifetime).
_abandoned_feeders = 0

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
            # unrecoverable.
            if self._open_snapshot in await self.list_snapshots():
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

    async def _with_recovery(self, op):
        """Run ``op``; on connection failure, recover and retry it.

        A recovery that itself dies on the wire just counts as another
        recovery — only ``max_recoveries`` or a decisive server error
        (non-retryable code) ends the fight.
        """
        policy = self.retry
        recoveries = 0
        need_recover = False
        last: BaseException | None = None
        while True:
            if need_recover:
                recoveries += 1
                if recoveries > policy.max_recoveries:
                    raise last
                try:
                    await self._recover()
                except _RECOVERABLE_EXC as exc:
                    last = exc
                    continue
                except RemoteError as exc:
                    # e.g. the server answered the recovery handshake
                    # with INTERNAL because our frame was garbled in
                    # flight; the session parked, so recover again.
                    if exc.code not in _RETRYABLE_CODES:
                        raise
                    last = exc
                    continue
                need_recover = False
            try:
                return await op()
            except _RECOVERABLE_EXC as exc:
                last = exc
            except RemoteError as exc:
                if exc.code not in _RETRYABLE_CODES:
                    raise
                last = exc
            if self._address is None:
                raise last
            need_recover = True

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
            await self._with_recovery(op)
        except BaseException:
            self._open_snapshot = None
            self._resume_token = ""
            raise

    async def finish_snapshot(self, snapshot_id: str) -> TransferLog:
        async def op():
            if self._finished_remotely:  # FINISH applied, ack lost
                return None
            return await self._rpc(
                Msg.FINISH, wire.encode_snapshot_id(snapshot_id), Msg.FINISH_OK
            )

        payload = await self._with_recovery(op)
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
        """Tenant dedup decision (and index insert) for an open snapshot.

        A repeat of an earlier miss in the same batch comes back as a
        pointer whose payload is that earlier chunk, so ship the batch's
        runs in batch order: each run of chunks must reach the server
        before the pointers that follow it, or the server refuses those
        pointers with a fatal UNKNOWN_CHUNK.
        """
        payload = await self._rpc(
            Msg.DIGEST_BATCH,
            wire.encode_digest_batch(list(digests), list(lengths)),
            Msg.DIGEST_REPLY,
        )
        return wire.decode_digest_reply(payload)

    async def has_chunks(self, digests) -> list[bool]:
        """Read-only membership probe against the shared payload store."""
        payload = await self._rpc(
            Msg.DIGEST_BATCH,
            wire.encode_digest_batch(list(digests)),
            Msg.DIGEST_REPLY,
        )
        return wire.decode_digest_reply(payload)

    async def ship_chunks(self, items) -> tuple[int, int]:
        """Ship ``(digest, payload)`` pairs; returns (items, bytes) acked."""
        payload = await self._rpc(
            Msg.CHUNK_BATCH, wire.encode_chunk_batch(list(items)), Msg.BATCH_OK
        )
        return wire.decode_batch_ok(payload)

    async def ship_pointers(self, digests) -> int:
        payload = await self._rpc(
            Msg.POINTER_BATCH,
            wire.encode_pointer_batch(list(digests)),
            Msg.BATCH_OK,
        )
        return wire.decode_batch_ok(payload)[0]

    async def list_snapshots(self) -> list[str]:
        payload = await self._rpc(
            Msg.LIST_SNAPSHOTS, b"", Msg.SNAPSHOT_LIST
        )
        return wire.decode_snapshot_list(payload)

    async def restore(self, snapshot_id: str) -> bytes:
        await self._send(Msg.RESTORE, wire.encode_snapshot_id(snapshot_id))
        payload = await self._expect(Msg.RESTORE_BEGIN)
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
        self,
        data: bytes,
        snapshot_id: str,
        *,
        shredder: Shredder | None = None,
        batch_chunks: int | None = None,
    ) -> RemoteBackupReport:
        """Chunk, hash, deduplicate, and ship one snapshot.

        Local chunk+hash runs on one feeder thread, which drives the
        serial scan + hash pipeline of :meth:`~repro.core.shredder
        .Shredder.pipeline_batches`; this coroutine overlaps it with the
        wire: per batch one DIGEST_BATCH decides source-side, payload
        misses ship as CHUNK_BATCH and hits as POINTER_BATCH, with up to
        ``window`` unacked batches in flight while the feeder chunks and
        hashes the next batch.
        """
        own_shredder = shredder is None
        if own_shredder:
            shredder = Shredder(
                ShredderConfig.gpu_streams_memory(
                    chunker=_default_backup_chunker()
                )
            )
        t0 = time.perf_counter()
        n_chunks = duplicates = shipped = 0
        reconnects0 = self.reconnects
        resumes0 = self.resumes
        replayed0 = self.replayed_frames
        throttles0 = self.throttles

        async def drain_one() -> None:
            if not self._unacked:
                return  # a resume already accounted every in-flight frame
            ack = await self._expect(Msg.BATCH_OK)
            wire.decode_batch_ok(ack)
            self._unacked.popleft()
            self._acked_seq += 1

        async def ship(msg: Msg, payload: bytes) -> None:
            """Enqueue + send one ship frame exactly once.

            The frame joins ``_unacked`` *before* the send: if the send
            (or anything later) dies, ``_recover`` replays it from the
            queue, so the retried op must not send it a second time.
            """
            self._unacked.append((self._next_seq, msg, payload))
            self._next_seq += 1
            sent = False

            async def op():
                nonlocal sent
                if sent:
                    return
                sent = True
                await self._send(msg, payload)

            await self._with_recovery(op)

        await self.begin_snapshot(snapshot_id)
        try:
            async for batch in _feed(shredder, data, batch_chunks):
                n_chunks += len(batch)
                # Decision round trip: all prior batch acks drain first
                # (replies are FIFO), so at most `window` ship frames
                # ride ahead of this request.
                while self._unacked:
                    await self._with_recovery(drain_one)
                digests = [c.digest for c in batch]
                lengths = [c.length for c in batch]
                # Replaying a decide after reconnect is safe: the server
                # forces re-ship for index entries whose payload never
                # landed, so a lost DIGEST_REPLY cannot lose chunks.
                flags = await self._with_recovery(
                    lambda: self.decide_chunks(digests, lengths)
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
                        await ship(
                            Msg.POINTER_BATCH,
                            wire.encode_pointer_batch(
                                [c.digest for c in run]
                            ),
                        )
                    else:
                        run_bytes = sum(c.length for c in run)
                        shipped += run_bytes
                        await ship(
                            Msg.CHUNK_BATCH,
                            wire.encode_chunk_batch(
                                [(c.digest, c.data) for c in run]
                            ),
                        )
                    while len(self._unacked) >= self.window:
                        await self._with_recovery(drain_one)
                    i = j
            while self._unacked:
                await self._with_recovery(drain_one)
            transfer = await self.finish_snapshot(snapshot_id)
        finally:
            if own_shredder:
                shredder.close()
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


async def _feed(shredder: Shredder, data: bytes, batch_chunks: int | None):
    """Async-iterate digested pipeline batches produced on a thread.

    The feeder thread blocks in the Shredder's bounded pipeline; a small
    bounded queue carries batches onto the event loop, so chunk+hash for
    batch *i+1* overlaps the shipping of batch *i* without unbounded
    buffering.  The stop event keeps the thread from wedging on a full
    queue if the consumer dies mid-stream.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue(maxsize=_FEED_DEPTH)
    stop = threading.Event()
    _END = object()

    def put(item) -> bool:
        # Schedule the enqueue exactly once and poll that same future.
        # A timed-out run_coroutine_threadsafe future is NOT cancelled —
        # the put coroutine stays pending and lands the item when a slot
        # frees, so rescheduling on timeout would enqueue it twice.
        coro = queue.put(item)
        try:
            future = asyncio.run_coroutine_threadsafe(coro, loop)
        except RuntimeError:
            coro.close()  # never scheduled; silence the unawaited warning
            return False  # loop is closing
        while True:
            try:
                future.result(timeout=0.1)
                return True
            except concurrent.futures.TimeoutError:
                if stop.is_set():
                    future.cancel()
                    return False
            except (concurrent.futures.CancelledError, RuntimeError):
                return False

    def run() -> None:
        try:
            for batch in shredder.pipeline_batches(
                data, batch_chunks=batch_chunks
            ):
                if not put(batch):
                    return
        except BaseException as exc:  # noqa: BLE001 — forwarded to consumer
            put(exc)
            return
        put(_END)

    feeder = threading.Thread(target=run, name="repro-feed", daemon=True)
    feeder.start()
    try:
        while True:
            item = await queue.get()
            if item is _END:
                # Let the feeder's put() future resolve before the join
                # below blocks the loop.
                await asyncio.sleep(0)
                break
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        # No awaits here: this also runs under GeneratorExit when the
        # consumer abandons the stream, where suspending is illegal.
        # stop + drain unblocks a feeder stuck on the full queue; its
        # put() polls every 0.1 s and sees the flag.  The join has a
        # real deadline: a feeder wedged in native code (chunker,
        # hasher) must not hang the event loop forever — after
        # _FEED_JOIN_DEADLINE it is abandoned (daemon thread), counted,
        # and warned about instead of silently spun on.
        stop.set()
        deadline = time.monotonic() + _FEED_JOIN_DEADLINE
        while feeder.is_alive():
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:
                pass
            feeder.join(timeout=0.05)
            if feeder.is_alive() and time.monotonic() >= deadline:
                global _abandoned_feeders
                _abandoned_feeders += 1
                warnings.warn(
                    f"feeder thread {feeder.name!r} still alive "
                    f"{_FEED_JOIN_DEADLINE:g}s after backup ended; "
                    f"abandoning it ({_abandoned_feeders} abandoned "
                    "this process)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break


# ----------------------------------------------------------------------
# synchronous drop-in agent
# ----------------------------------------------------------------------


class _RemoteStoreProxy:
    """The slice of the ChunkStore surface remote callers may touch."""

    def __init__(self, agent: "RemoteAgent") -> None:
        self._agent = agent

    def has_chunk(self, digest: bytes) -> bool:
        return self.has_chunks([digest])[0]

    def has_chunks(self, digests) -> list[bool]:
        return self._agent._call(self._agent._client.has_chunks(list(digests)))

    def snapshot_ids(self) -> list[str]:
        """This tenant's snapshots (the service scopes the listing)."""
        return self._agent.list_snapshots()

    def restore(self, snapshot_id: str) -> bytes:
        return self._agent.restore(snapshot_id)


class RemoteAgent:
    """Synchronous ShredderAgent-shaped facade over the wire client.

    Runs a private event loop on a background thread so callers keep the
    blocking call style of :class:`~repro.backup.agent.ShredderAgent`:
    ``begin_snapshot`` / ``receive_chunk`` / ``receive_pointer`` /
    ``finish_snapshot`` / ``restore``.  Chunk and pointer receives are
    buffered and flushed as batched wire frames (run-grouped, order
    preserved) once ``flush_items`` accumulate or at ``finish_snapshot``
    — per-call latency is traded for the batched wire shape.

    One difference from the in-process agent: the service allows a
    single open snapshot per connection, so interleaving two open
    snapshots through one RemoteAgent raises at the server.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        flush_items: int = 256,
        retry: RetryPolicy = NO_RETRY,
        auth: str = "",
        purpose: int = wire.PURPOSE_BACKUP,
    ) -> None:
        if flush_items < 1:
            raise ValueError("flush_items must be >= 1")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-remote-agent", daemon=True
        )
        self._thread.start()
        self._flush_items = flush_items
        #: Pending ops for the open snapshot: ("chunk", digest, data) or
        #: ("pointer", digest), in arrival order.
        self._buffer: list[tuple] = []
        self._open: str | None = None
        try:
            self._client = self._call(
                AsyncBackupClient.connect(
                    host,
                    port,
                    tenant=tenant,
                    retry=retry,
                    auth=auth,
                    purpose=purpose,
                )
            )
        except BaseException:
            self._shutdown_loop()
            raise

    # -- plumbing ------------------------------------------------------

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _shutdown_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()

    # -- ShredderAgent surface -----------------------------------------

    @property
    def store(self) -> _RemoteStoreProxy:
        return _RemoteStoreProxy(self)

    @property
    def session_id(self) -> str:
        return self._client.session_id

    @property
    def tenant(self) -> str:
        return self._client.tenant

    def begin_snapshot(self, snapshot_id: str) -> None:
        self._call(self._client.begin_snapshot(snapshot_id))
        self._open = snapshot_id
        self._buffer.clear()

    def _require_open(self, snapshot_id: str) -> None:
        if self._open != snapshot_id:
            raise ValueError(f"snapshot {snapshot_id!r} is not open")

    def receive_chunk(
        self, snapshot_id: str, data: bytes, digest: bytes | None = None
    ) -> None:
        self._require_open(snapshot_id)
        # The wire always carries the digest (it is the integrity check
        # the site verifies); compute it here when the caller didn't.
        self._buffer.append(
            ("chunk", digest if digest is not None else chunk_hash(data), data)
        )
        if len(self._buffer) >= self._flush_items:
            self.flush()

    def receive_pointer(self, snapshot_id: str, digest: bytes) -> None:
        self._require_open(snapshot_id)
        self._buffer.append(("pointer", digest))
        if len(self._buffer) >= self._flush_items:
            self.flush()

    def receive_chunks(self, snapshot_id: str, items) -> None:
        """Batched twin of :meth:`receive_chunk` (``(digest, data)``)."""
        self._require_open(snapshot_id)
        for digest, data in items:
            self._buffer.append(
                (
                    "chunk",
                    digest if digest is not None else chunk_hash(data),
                    data,
                )
            )
        if len(self._buffer) >= self._flush_items:
            self.flush()

    def receive_pointers(self, snapshot_id: str, pointer_digests) -> None:
        """Batched twin of :meth:`receive_pointer`."""
        self._require_open(snapshot_id)
        self._buffer.extend(("pointer", d) for d in pointer_digests)
        if len(self._buffer) >= self._flush_items:
            self.flush()

    def flush(self) -> None:
        """Push buffered receives out as run-grouped batch frames."""
        buffer, self._buffer = self._buffer, []
        i = 0
        while i < len(buffer):
            kind = buffer[i][0]
            j = i
            while j < len(buffer) and buffer[j][0] == kind:
                j += 1
            run = buffer[i:j]
            if kind == "chunk":
                self._call(
                    self._client.ship_chunks([(op[1], op[2]) for op in run])
                )
            else:
                self._call(
                    self._client.ship_pointers([op[1] for op in run])
                )
            i = j

    def finish_snapshot(self, snapshot_id: str) -> TransferLog:
        self._require_open(snapshot_id)
        self.flush()
        log = self._call(self._client.finish_snapshot(snapshot_id))
        self._open = None
        return log

    def restore(self, snapshot_id: str) -> bytes:
        return self._call(self._client.restore(snapshot_id))

    def list_snapshots(self) -> list[str]:
        return self._call(self._client.list_snapshots())

    def backup(self, data: bytes, snapshot_id: str, **kwargs) -> RemoteBackupReport:
        """The pipelined remote backup, callable synchronously."""
        return self._call(self._client.backup(data, snapshot_id, **kwargs))

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        except Exception:
            pass
        self._shutdown_loop()

    def __enter__(self) -> "RemoteAgent":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
