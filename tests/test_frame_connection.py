"""The client's framed connection, against a scripted peer.

No server: one end of a ``socket.socketpair()`` is the
:class:`~repro.service.client.FrameConnection` under test, the other a
peer that plays a recorded reply sequence cut into segments — at every
byte boundary of its first 64 bytes, in 1-byte dribbles, and fully
coalesced.  However the bytes arrive, the frames out are the same and a
restore lands byte-exact in the caller's buffer.
"""

from __future__ import annotations

import asyncio
import errno
import socket
import tracemalloc

import pytest

from repro.service import (
    AsyncBackupClient,
    BackupService,
    RetryPolicy,
    ServiceConfig,
)
from repro.service import protocol as wire
from repro.service.client import FrameConnection
from repro.service.protocol import Err, Msg, ProtocolError, RemoteError

MB = 1 << 20


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def pattern(n: int, seed: int = 1) -> bytes:
    """``n`` position-dependent bytes (a shifted copy never matches)."""
    return bytes((i * 131 + seed * 17 + (i >> 8)) & 0xFF for i in range(n))


def whole(stream: bytes) -> list[bytes]:
    return [stream]


def split_at(k: int):
    return lambda stream: [stream[:k], stream[k:]]


def dribble(stream: bytes) -> list[bytes]:
    return [stream[i : i + 1] for i in range(len(stream))]


#: Every cut inside the first 64 bytes, plus the uncut stream.
SPLITS = [whole] + [split_at(k) for k in range(1, 65)]


async def play(peer: socket.socket, segments, *, close: bool = False) -> None:
    """Send the segments one by one, yielding to the receiver between
    them so a cut in the script is a cut in what ``recv`` sees."""
    loop = asyncio.get_running_loop()
    for segment in segments:
        await loop.sock_sendall(peer, segment)
        await asyncio.sleep(0)
    if close:
        peer.close()


def scripted(fn):
    """Run ``await fn(conn, peer)`` over a fresh socket pair."""

    async def main():
        ours, peer = socket.socketpair()
        peer.setblocking(False)
        conn = FrameConnection(ours, wire.DEFAULT_MAX_FRAME)
        try:
            return await asyncio.wait_for(fn(conn, peer), 30)
        finally:
            conn.close()
            peer.close()

    return asyncio.run(main())


def client_over(conn: FrameConnection, **kwargs) -> AsyncBackupClient:
    return AsyncBackupClient(
        conn, tenant="t", session_id="t-1", window=1, **kwargs
    )


def restore_stream(data: bytes, pieces) -> list[bytes]:
    """RESTORE_BEGIN / RESTORE_DATA x n / RESTORE_END as wire frames."""
    frames = [
        wire.encode_frame(Msg.RESTORE_BEGIN, wire.encode_restore_begin(len(data)))
    ]
    off = 0
    for size in pieces:
        frames.append(wire.encode_frame(Msg.RESTORE_DATA, data[off : off + size]))
        off += size
    assert off == len(data)
    frames.append(wire.encode_frame(Msg.RESTORE_END))
    return frames


#: A recorded reply sequence: empty and small replies (several headers
#: inside the first 64 bytes), a reply larger than the read-ahead
#: scratch, and one 3 MiB frame.
REPLIES = [
    (Msg.BEGIN_OK, b""),
    (Msg.BATCH_OK, wire.encode_batch_ok(3, 99)),
    (Msg.DIGEST_REPLY, wire.encode_digest_reply([True, False] * 4)),
    (Msg.THROTTLE, wire.encode_throttle(0.25, "rate limit")),
    (Msg.SNAPSHOT_LIST, wire.encode_snapshot_list(["g0", "g1"])),
    (Msg.DIGEST_REPLY, wire.encode_digest_reply([True] * 9000)),
    (Msg.RESTORE_DATA, pattern(3 * MB)),
    (Msg.FINISH_OK, wire.encode_finish_ok(7, 2, 12345)),
]
REPLY_STREAM = b"".join(wire.encode_frame(m, p) for m, p in REPLIES)


async def receive_all(conn, count):
    return [await conn.recv() for _ in range(count)]


# ----------------------------------------------------------------------
# framing: however the bytes arrive, the frames are the same
# ----------------------------------------------------------------------


class TestFraming:
    @pytest.mark.parametrize("cut", SPLITS)
    def test_frames_identical_at_every_early_cut(self, cut):
        async def scenario(conn, peer):
            sender = asyncio.create_task(play(peer, cut(REPLY_STREAM)))
            frames = await receive_all(conn, len(REPLIES))
            await sender
            return frames

        assert scripted(scenario) == REPLIES

    def test_frames_identical_in_one_byte_dribbles(self):
        replies = REPLIES[:5] + REPLIES[-1:]  # the small ones, byte by byte
        stream = b"".join(wire.encode_frame(m, p) for m, p in replies)

        async def scenario(conn, peer):
            sender = asyncio.create_task(play(peer, dribble(stream)))
            frames = await receive_all(conn, len(replies))
            await sender
            return frames

        assert scripted(scenario) == replies

    def test_small_reply_costs_one_recv(self):
        """A whole small reply fits the read-ahead: header and payload
        come out of one ``recv`` on the socket — made in the reader
        callback, so the same bytes are never polled twice."""
        frame = wire.encode_frame(Msg.BATCH_OK, wire.encode_batch_ok(1, 2))
        calls = []

        class CountingSocket(socket.socket):
            def recv_into(self, buffer):
                try:
                    calls.append(super().recv_into(buffer))
                except BlockingIOError:
                    calls.append(None)  # asked before the reply was there
                    raise
                return calls[-1]

        async def scenario():
            ours, peer = socket.socketpair()
            conn = FrameConnection(
                CountingSocket(fileno=ours.detach()), wire.DEFAULT_MAX_FRAME
            )
            peer.setblocking(False)
            try:
                replies = []
                for _ in range(3):  # request/reply: nothing arrives unasked
                    receiving = asyncio.ensure_future(conn.recv())
                    await asyncio.sleep(0.01)
                    await play(peer, [frame])
                    replies.append(await asyncio.wait_for(receiving, 5))
                return replies
            finally:
                conn.close()
                peer.close()

        replies = asyncio.run(scenario())
        assert replies == [(Msg.BATCH_OK, wire.encode_batch_ok(1, 2))] * 3
        assert calls == [None, len(frame)] * 3

    def test_unknown_frame_type_is_refused(self):
        async def scenario(conn, peer):
            await play(peer, [bytes([200, 0, 0, 0, 0])])
            await conn.recv()

        with pytest.raises(ProtocolError, match="unknown frame type 200"):
            scripted(scenario)

    def test_oversized_header_is_refused_before_any_allocation(self):
        """Only the header ever arrives: the refusal cannot have waited
        for, or made room for, the 4 GiB it announces."""
        header = wire.HEADER.pack(Msg.RESTORE_DATA, 0xFFFFFFFF)

        async def scenario(conn, peer):
            await play(peer, [header])
            dest = memoryview(bytearray(16))
            tracemalloc.start()
            try:
                with pytest.raises(ProtocolError, match="exceeds the"):
                    await conn.recv(into=dest)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert scripted(scenario) < MB

    def test_broken_connection_is_not_reused_mid_frame(self):
        """A receive cancelled by its deadline leaves half a frame
        consumed; the connection then only admits to being broken."""
        frame = wire.encode_frame(Msg.BATCH_OK, wire.encode_batch_ok(1, 2))

        async def scenario(conn, peer):
            await play(peer, [frame[:9]])
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(conn.recv(), 0.05)
            await play(peer, [frame[9:] + frame])
            await conn.recv()

        with pytest.raises(ConnectionResetError, match="mid-frame"):
            scripted(scenario)


# ----------------------------------------------------------------------
# EOF: the exception family the retry path already catches
# ----------------------------------------------------------------------


class TestEof:
    @staticmethod
    def eof_after(prefix: bytes):
        async def scenario(conn, peer):
            await play(peer, [prefix] if prefix else [], close=True)
            with pytest.raises(asyncio.IncompleteReadError) as err:
                await conn.recv()
            return err.value

        return scripted(scenario)

    def test_eof_on_a_frame_boundary(self):
        exc = self.eof_after(b"")
        assert (exc.partial, exc.expected) == (b"", wire.HEADER.size)

    def test_eof_mid_header(self):
        frame = wire.encode_frame(Msg.BATCH_OK, wire.encode_batch_ok(1, 2))
        exc = self.eof_after(frame[:3])
        assert (exc.partial, exc.expected) == (frame[:3], wire.HEADER.size)
        assert isinstance(exc, EOFError)  # what _RECOVERABLE_EXC names

    def test_eof_mid_payload(self):
        frame = wire.encode_frame(Msg.DIGEST_REPLY, pattern(9000))
        exc = self.eof_after(frame[:5000])
        assert (len(exc.partial), exc.expected) == (5000 - wire.HEADER.size, 9000)

    def test_reset_is_a_connection_error(self):
        async def scenario(conn, peer):
            await conn.send(b"never read")
            peer.close()  # with unread data pending: a reset, not an EOF
            await conn.recv()

        with pytest.raises(ConnectionError):
            scripted(scenario)

    def test_abort_closes_a_socket_it_cannot_reset(self):
        """``SO_LINGER`` refused (a socket the peer already reset, on some
        platforms): the socket and its reader registration still go, so
        the redial that called ``abort`` proceeds."""

        class Stubborn(socket.socket):
            def setsockopt(self, *args):
                raise OSError(errno.EINVAL, "Invalid argument")

        async def scenario():
            ours, peer = socket.socketpair()
            conn = FrameConnection(
                Stubborn(fileno=ours.detach()), wire.DEFAULT_MAX_FRAME
            )
            try:
                receiving = asyncio.ensure_future(conn.recv())
                await asyncio.sleep(0.01)  # the reader is registered
                receiving.cancel()
                conn.abort()
                return conn.sock.fileno(), conn._loop
            finally:
                peer.close()

        assert asyncio.run(scenario()) == (-1, None)

    def test_retry_policy_client_redials_after_eof_mid_frame(self):
        """The client's connection dies half-way through a reply; with a
        RetryPolicy it redials the real service and the op completes."""

        async def scenario():
            # Nothing was parked for the lost BEGIN: keep the server's
            # wait for a park that never comes short.
            config = ServiceConfig(resume_grace_s=0.05)
            async with BackupService(config) as service:
                client = await AsyncBackupClient.connect(
                    "127.0.0.1",
                    service.port,
                    retry=RetryPolicy(
                        attempts=2, base_delay_s=0.01, op_timeout_s=5.0
                    ),
                )
                healthy = client.conn
                ours, peer = socket.socketpair()
                peer.setblocking(False)
                client.conn = FrameConnection(ours, wire.DEFAULT_MAX_FRAME)
                reply = wire.encode_frame(Msg.BEGIN_OK)
                dying = asyncio.create_task(play(peer, [reply[:2]], close=True))
                await client.begin_snapshot("survivor")
                await dying
                log = await client.finish_snapshot("survivor")
                listing = await client.list_snapshots()
                healthy.close()
                await client.close()
                return client.reconnects, log.chunks_received, listing

        reconnects, chunks, listing = asyncio.run(scenario())
        assert reconnects == 1
        assert chunks == 0 and listing == ["survivor"]


# ----------------------------------------------------------------------
# restore: pieces land in the caller's buffer, every check still made
# ----------------------------------------------------------------------

RESTORED = pattern(200_000, seed=5)
#: Tiny pieces, one beyond the read-ahead scratch, an empty one.
PIECES = [1, 4, 3000, 0, 70_000, 126_995]
RESTORE_FRAMES = restore_stream(RESTORED, PIECES)


class TestRestore:
    @staticmethod
    def restore_via_client(segments, **client_kwargs):
        async def scenario(conn, peer):
            client = client_over(conn, **client_kwargs)
            sender = asyncio.create_task(play(peer, segments))
            try:
                return await client.restore("snap"), client
            finally:
                sender.cancel()

        return scripted(scenario)

    @pytest.mark.parametrize("cut", SPLITS)
    def test_restore_byte_exact_at_every_early_cut(self, cut):
        restored, _ = self.restore_via_client(cut(b"".join(RESTORE_FRAMES)))
        assert restored == RESTORED

    def test_restore_byte_exact_in_one_byte_dribbles(self):
        data = RESTORED[:700]
        frames = restore_stream(data, [1, 4, 0, 695])
        restored, _ = self.restore_via_client(dribble(b"".join(frames)))
        assert restored == data

    def test_pieces_land_in_the_callers_buffer(self):
        """Straight through ``recv(into=...)``: the destination holds
        the pieces, nothing beyond its end moves."""
        guard = b"\xaa" * 64

        async def scenario(conn, peer):
            sender = asyncio.create_task(play(peer, RESTORE_FRAMES[1:]))
            buffer = bytearray(len(RESTORED)) + guard
            dest = memoryview(buffer)[: len(RESTORED)]
            received, sizes = 0, []
            while True:
                msg, landed = await conn.recv(into=dest[received:])
                if msg is Msg.RESTORE_END:
                    break
                assert msg is Msg.RESTORE_DATA
                sizes.append(landed)
                received += landed
            await sender
            return buffer, sizes

        buffer, sizes = scripted(scenario)
        assert sizes == PIECES
        assert buffer == RESTORED + guard

    def test_data_past_the_announced_size_is_refused(self):
        guard = b"\xaa" * 16
        frames = [
            wire.encode_frame(Msg.RESTORE_DATA, b"\x01" * 8),
            wire.encode_frame(Msg.RESTORE_DATA, b"\x02" * 8),
        ]

        async def scenario(conn, peer):
            await play(peer, frames)
            buffer = bytearray(10) + guard
            dest = memoryview(buffer)[:10]
            _, landed = await conn.recv(into=dest)
            with pytest.raises(ProtocolError, match="overruns the announced size by 6"):
                await conn.recv(into=dest[landed:])
            return buffer

        # The refused piece wrote nothing: not past the end, not before it.
        assert scripted(scenario) == b"\x01" * 8 + bytes(2) + guard

    def test_client_refuses_a_stream_longer_than_announced(self):
        frames = restore_stream(RESTORED[:16], [8, 8])
        frames[0] = wire.encode_frame(
            Msg.RESTORE_BEGIN, wire.encode_restore_begin(10)
        )
        with pytest.raises(ProtocolError, match="overruns the announced size"):
            self.restore_via_client(frames)

    def test_early_restore_end_is_refused(self):
        frames = restore_stream(RESTORED[:4], [4])
        frames[0] = wire.encode_frame(
            Msg.RESTORE_BEGIN, wire.encode_restore_begin(10)
        )
        with pytest.raises(
            ProtocolError, match="announced 10 bytes, streamed 4"
        ):
            self.restore_via_client(frames)

    def test_data_frames_only_between_begin_and_end(self):
        frames = list(RESTORE_FRAMES)
        frames.insert(2, wire.encode_frame(Msg.BATCH_OK, wire.encode_batch_ok(1, 1)))
        with pytest.raises(ProtocolError, match="expected RESTORE_DATA, got BATCH_OK"):
            self.restore_via_client(frames)
        with pytest.raises(ProtocolError, match="expected RESTORE_BEGIN"):
            self.restore_via_client(RESTORE_FRAMES[1:])

    def test_throttle_between_data_frames_is_absorbed(self):
        frames = list(RESTORE_FRAMES)
        frames.insert(
            3, wire.encode_frame(Msg.THROTTLE, wire.encode_throttle(0.0, "pace"))
        )
        restored, client = self.restore_via_client(frames)
        assert restored == RESTORED  # the control frame never touched it
        assert client.throttles == 1

    def test_error_between_data_frames_is_raised(self):
        frames = list(RESTORE_FRAMES)
        frames.insert(
            3,
            wire.encode_frame(
                Msg.ERROR, wire.encode_error(Err.RETRY_LATER, "shedding")
            ),
        )
        with pytest.raises(RemoteError) as err:
            self.restore_via_client(frames)
        assert err.value.code is Err.RETRY_LATER
        assert err.value.remote_message == "shedding"

    def test_op_timeout_covers_every_restore_receive(self):
        """A stream that stalls after its first piece times out under
        the policy's per-op deadline instead of hanging."""
        stalled = RESTORE_FRAMES[:2]
        with pytest.raises(asyncio.TimeoutError):
            self.restore_via_client(
                stalled, retry=RetryPolicy(op_timeout_s=0.1), address=None
            )
