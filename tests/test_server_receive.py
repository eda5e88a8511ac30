"""The server's in-place receive, against a raw socket peer.

The peer speaks the wire by hand and cuts what it sends the way
``tests/test_frame_connection.py`` cuts replies: at every byte boundary
of a frame's first 64 bytes, in 1-byte dribbles, and coalesced with the
next frame in one send.  However the bytes arrive, each frame applies
exactly once, in order, with one reply per frame; an oversized header is
refused before anything is allocated for it; and the HTTP surface reads
its request through the same connection.
"""

from __future__ import annotations

import asyncio
import json
import socket
import tracemalloc

import pytest

from repro.core.hashing import chunk_hash
from repro.service import BackupService, ServiceConfig
from repro.service import protocol as wire
from repro.service.protocol import Err, FrameConnection, Msg
from tests.test_frame_connection import MB, dribble, pattern, play, split_at

#: Three chunks, one larger than the connection's read-ahead scratch.
CHUNKS = [pattern(40, seed=2), pattern(5000, seed=3), pattern(7, seed=4)]
DIGESTS = [chunk_hash(c) for c in CHUNKS]
#: The pointers name chunks of the frame before them: applied out of
#: order, they would be refused as UNKNOWN_CHUNK.
POINTERS = [DIGESTS[1], DIGESTS[0]]
FRAMES = [
    wire.encode_frame(
        Msg.CHUNK_BATCH, wire.encode_chunk_batch(list(zip(DIGESTS, CHUNKS)))
    ),
    wire.encode_frame(Msg.POINTER_BATCH, wire.encode_pointer_batch(POINTERS)),
    wire.encode_frame(Msg.FINISH, wire.encode_snapshot_id("snap")),
]
STREAM = b"".join(FRAMES)
RESTORED = b"".join(CHUNKS) + CHUNKS[1] + CHUNKS[0]
REPLIES = [
    (Msg.BATCH_OK, wire.encode_batch_ok(3, sum(map(len, CHUNKS)))),
    (Msg.BATCH_OK, wire.encode_batch_ok(2, 0)),
    (Msg.FINISH_OK, wire.encode_finish_ok(3, 2, sum(map(len, CHUNKS)))),
]

#: Every cut in the first 64 bytes of the CHUNK_BATCH, then of the
#: POINTER_BATCH (each frame also arrives coalesced with the next).
CUTS = [split_at(k) for k in range(1, 65)] + [
    split_at(len(FRAMES[0]) + k) for k in range(1, 65)
]


def run_service(fn, **config):
    async def main():
        async with BackupService(ServiceConfig(**config)) as service:
            return await asyncio.wait_for(fn(service), 30)

    return asyncio.run(main())


async def raw_session(service, *, begin: bool = True) -> FrameConnection:
    """A peer past HELLO (and BEGIN), on a socket it writes by hand."""
    conn = await FrameConnection.open("127.0.0.1", service.port, wire.DEFAULT_MAX_FRAME)
    hello = wire.encode_frame(Msg.HELLO, wire.encode_hello("acme"))
    await conn.send(wire.MAGIC + hello)
    assert (await conn.recv())[0] is Msg.HELLO_OK
    if begin:
        begin = wire.encode_begin("snap", "")
        await conn.send(wire.encode_frame(Msg.BEGIN_SNAPSHOT, begin))
        assert await conn.recv() == (Msg.BEGIN_OK, b"")
    return conn


def ship(segments):
    """Send the segments, then collect one reply per frame and what the
    store holds for the snapshot."""

    async def scenario(service):
        conn = await raw_session(service)
        await play(conn.sock, segments)
        replies = [await conn.recv() for _ in REPLIES]
        conn.close()
        namespace = service.registry.get("acme")
        return (
            replies,
            service.store.restore(namespace.scoped_id("snap")),
            namespace.counters.chunks_received,
            service.metrics.frames_received,
        )

    return run_service(scenario)


class TestChunkAndPointerFrames:
    @pytest.mark.parametrize("cut", CUTS)
    def test_applied_once_in_order_at_every_early_cut(self, cut):
        replies, restored, chunks, frames = ship(cut(STREAM))
        assert replies == REPLIES
        assert restored == RESTORED
        assert chunks == 3
        assert frames == 2 + len(FRAMES)  # HELLO, BEGIN, then one per frame

    def test_applied_once_in_order_in_one_byte_dribbles(self):
        replies, restored, chunks, _ = ship(dribble(STREAM))
        assert replies == REPLIES and restored == RESTORED and chunks == 3

    def test_applied_once_in_order_coalesced_in_one_send(self):
        replies, restored, chunks, _ = ship([STREAM])
        assert replies == REPLIES and restored == RESTORED and chunks == 3

    def test_chunk_payloads_are_views_of_the_landed_frame(self):
        """No copy per chunk: what the agent is handed are views of the
        one buffer the frame's payload was received into."""
        seen = []

        async def scenario(service):
            receive = service.agent.receive_chunks

            def spy(scoped, items):
                seen.extend(data for _, data in items)
                return receive(scoped, items)

            service.agent.receive_chunks = spy
            conn = await raw_session(service)
            await conn.send(STREAM)
            replies = [await conn.recv() for _ in REPLIES]
            conn.close()
            return replies

        assert run_service(scenario) == REPLIES
        assert [bytes(view) for view in seen] == CHUNKS
        assert all(isinstance(view, memoryview) for view in seen)
        assert len({id(view.obj) for view in seen}) == 1


class TestRefusals:
    def test_oversized_header_is_refused_before_any_allocation(self):
        """Only the header arrives, announcing 8 MiB against a 1 MiB
        limit: BAD_FRAME, with no room made for the payload."""

        async def scenario(service):
            conn = await raw_session(service)
            tracemalloc.start()
            try:
                await conn.send(wire.HEADER.pack(Msg.CHUNK_BATCH, 8 * MB))
                msg, payload = await conn.recv()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            conn.close()
            return msg, wire.decode_error(payload)[0], peak

        msg, code, peak = run_service(scenario, max_frame=MB)
        assert msg is Msg.ERROR and code is Err.BAD_FRAME
        assert peak < MB


class TestHttp:
    def test_health_in_one_byte_dribbles_is_answered(self):
        async def scenario(service):
            conn = await FrameConnection.open(
                "127.0.0.1", service.port, wire.DEFAULT_MAX_FRAME
            )
            await play(conn.sock, dribble(b"GET /health HTTP/1.0\r\nHost: x\r\n\r\n"))
            response = bytearray()
            try:
                while True:
                    response += await conn.recv_raw()
            except asyncio.IncompleteReadError:
                pass  # the server closes after one answer
            conn.close()
            return bytes(response)

        response = run_service(scenario)
        assert response.startswith(b"HTTP/1.0 200 OK\r\n")
        assert json.loads(response.split(b"\r\n\r\n", 1)[1])["status"] == "ok"


class TestSessionSocket:
    def test_server_side_sets_tcp_nodelay(self):
        async def scenario(service):
            conn = await raw_session(service, begin=False)
            (session,) = service._sessions
            nodelay = session.conn.sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            conn.close()
            return nodelay

        assert run_service(scenario) != 0

    def test_fatal_error_ends_a_session_whose_reader_waits_in_recv(self):
        """The worker hangs up on a frame its decoder refuses while the
        reader is parked in ``recv`` for the next one: the receive fails,
        the session ends and the connection is released — no hang."""

        async def scenario(service):
            conn = await raw_session(service, begin=False)
            (session,) = service._sessions
            assert session.conn._waiter is not None  # parked in recv
            await conn.send(wire.encode_frame(Msg.DIGEST_BATCH, b"\x01"))
            msg, payload = await conn.recv()
            with pytest.raises(asyncio.IncompleteReadError):
                await asyncio.wait_for(conn.recv(), 1.0)  # hung up
            conn.close()
            for _ in range(100):
                if not service._conn_tasks:
                    break
                await asyncio.sleep(0.01)
            metrics = service.metrics
            left = (
                len(service._conn_tasks),
                metrics.sessions_active,
                metrics.connections_active,
            )
            return wire.decode_error(payload)[0], session.conn._loop, left

        code, reader_registered, left = run_service(scenario)
        assert code is Err.BAD_FRAME
        assert reader_registered is None
        assert left == (0, 0, 0)  # before stop() could cancel anything
