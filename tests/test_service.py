"""Tests for the backup-as-a-service front-end (wire protocol, server,
tenancy, client, metrics)."""

from __future__ import annotations

import asyncio
import hashlib
import json
import urllib.request

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backup import BackupConfig, BackupServer, MasterImage, SimilarityTable
from repro.core.hashing import chunk_hash
from repro.service import (
    NO_RETRY,
    AsyncBackupClient,
    BackupService,
    RetryPolicy,
    ServiceConfig,
)
from repro.service import protocol as wire
from repro.service.metrics import render_text, service_snapshot
from repro.service.protocol import (
    Err,
    FrameConnection,
    Msg,
    ProtocolError,
    RemoteError,
)
from repro.service.tenant import TenantRegistry, valid_tenant
from tests.conftest import seeded_bytes

MB = 1 << 20


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def run_service(fn, **config):
    """Boot a service, run ``await fn(service)``, tear down cleanly."""

    async def main():
        async with BackupService(ServiceConfig(**config)) as service:
            return await fn(service)

    return asyncio.run(main())


@pytest.fixture(scope="module")
def image() -> MasterImage:
    return MasterImage(size=2 * MB, segment_size=32 * 1024, seed=19)


@pytest.fixture(scope="module")
def snapshots(image):
    """Three generations of the same image at 30% segment churn."""
    table = SimilarityTable.uniform(0.3, image.n_segments)
    return [image.snapshot(table, gen) for gen in (1, 2, 3)]


async def connect(service, tenant="default", **kwargs):
    return await AsyncBackupClient.connect(
        "127.0.0.1", service.port, tenant=tenant, **kwargs
    )


# ----------------------------------------------------------------------
# protocol codec
# ----------------------------------------------------------------------


class TestCodec:
    def test_hello_round_trip(self):
        payload = wire.encode_hello("acme")
        assert wire.decode_hello(payload) == (
            wire.PROTOCOL_VERSION, "acme", "", wire.PURPOSE_BACKUP,
        )

    def test_hello_of_another_version_yields_only_its_version(self):
        payload = (99).to_bytes(2, "big") + b"laid out some other way"
        assert wire.decode_hello(payload) == (99, "", "", wire.PURPOSE_BACKUP)

    def test_hello_ok_round_trip(self):
        payload = wire.encode_hello_ok("acme-3", 8)
        assert wire.decode_hello_ok(payload) == (8, "acme-3")

    def test_begin_round_trip_and_token_is_required(self):
        payload = wire.encode_begin("snap", "c0ffee")
        assert wire.decode_begin(payload) == ("snap", "c0ffee")
        assert wire.decode_begin(wire.encode_begin("snap", "")) == ("snap", "")
        with pytest.raises(ProtocolError):
            wire.decode_begin(wire.encode_snapshot_id("snap"))

    def test_resume_ok_round_trip(self):
        assert wire.decode_resume_ok(wire.encode_resume_ok(17)) == 17

    def test_snapshot_id_round_trip(self):
        payload = wire.encode_snapshot_id("snap/with unicode ✓")
        assert wire.decode_snapshot_id(payload) == "snap/with unicode ✓"

    def test_digest_batch_decide_mode(self):
        digests = [bytes([i]) * 32 for i in range(5)]
        sizes = [100, 200, 300, 400, 500]
        payload = wire.encode_digest_batch(digests, sizes)
        assert payload[0] == wire.MODE_DECIDE
        assert wire.decode_digest_batch(payload) == (digests, sizes)

    def test_digest_batch_other_mode_rejected(self):
        payload = wire.encode_digest_batch([bytes(32)], [1])
        for mode in (0, 2, 255):
            with pytest.raises(ProtocolError, match="mode"):
                wire.decode_digest_batch(bytes([mode]) + payload[1:])

    def test_digest_reply_round_trip(self):
        flags = [True, False, True, True, False]
        assert wire.decode_digest_reply(wire.encode_digest_reply(flags)) == flags

    def test_chunk_batch_round_trip(self):
        items = [(chunk_hash(b"a" * 10), b"a" * 10), (chunk_hash(b"bb"), b"bb")]
        assert wire.decode_chunk_batch(wire.encode_chunk_batch(items)) == items

    def test_pointer_batch_round_trip(self):
        digests = [chunk_hash(bytes([i])) for i in range(7)]
        assert wire.decode_pointer_batch(wire.encode_pointer_batch(digests)) == digests

    def test_batch_ok_round_trip(self):
        assert wire.decode_batch_ok(wire.encode_batch_ok(42, 1 << 40)) == (42, 1 << 40)

    def test_finish_ok_round_trip(self):
        assert wire.decode_finish_ok(wire.encode_finish_ok(10, 20, 1 << 33)) == (
            10, 20, 1 << 33,
        )

    def test_restore_begin_round_trip(self):
        assert wire.decode_restore_begin(wire.encode_restore_begin(1 << 34)) == 1 << 34

    def test_snapshot_list_round_trip(self):
        ids = ["a", "b/c", "day-2026-08-08"]
        assert wire.decode_snapshot_list(wire.encode_snapshot_list(ids)) == ids

    def test_error_round_trip(self):
        code, message = wire.decode_error(
            wire.encode_error(Err.BUSY, "session limit reached")
        )
        assert code is Err.BUSY and message == "session limit reached"

    def test_error_unknown_code_degrades_to_internal(self):
        payload = wire.encode_error(Err.BUSY, "x")
        mangled = (999).to_bytes(2, "big") + payload[2:]
        code, _ = wire.decode_error(mangled)
        assert code is Err.INTERNAL

    def test_truncated_payload_rejected(self):
        payload = wire.encode_chunk_batch([(chunk_hash(b"x"), b"x" * 50)])
        with pytest.raises(ProtocolError):
            wire.decode_chunk_batch(payload[:-3])

    def test_trailing_bytes_rejected(self):
        payload = wire.encode_snapshot_id("s") + b"junk"
        with pytest.raises(ProtocolError):
            wire.decode_snapshot_id(payload)

    def test_mixed_digest_sizes_rejected(self):
        with pytest.raises(ProtocolError):
            wire.encode_digest_batch([b"\x00" * 32, b"\x00" * 16], [1, 1])

    def test_empty_digest_batch_rejected(self):
        with pytest.raises(ProtocolError):
            wire.encode_digest_batch([], [])


# ----------------------------------------------------------------------
# wire format golden
# ----------------------------------------------------------------------


def golden_frames() -> dict[Msg, bytes]:
    """One encoded frame per opcode, built from fixed inputs."""
    a, b = bytes(range(32)), bytes(range(32, 64))
    token = "0123456789abcdef"
    payloads = {
        Msg.HELLO: wire.encode_hello("acme", "f" * 64, wire.PURPOSE_RESTORE),
        Msg.HELLO_OK: wire.encode_hello_ok("acme-1", 4),
        Msg.BEGIN_SNAPSHOT: wire.encode_begin("snap", token),
        Msg.BEGIN_OK: b"",
        Msg.DIGEST_BATCH: wire.encode_digest_batch([a, b], [4096, 8191]),
        Msg.DIGEST_REPLY: wire.encode_digest_reply([True, False]),
        Msg.CHUNK_BATCH: wire.encode_chunk_batch([(a, b"payload")]),
        Msg.POINTER_BATCH: wire.encode_pointer_batch([a, b]),
        Msg.BATCH_OK: wire.encode_batch_ok(2, 1 << 33),
        Msg.FINISH: wire.encode_snapshot_id("snap"),
        Msg.FINISH_OK: wire.encode_finish_ok(3, 5, 1 << 33),
        Msg.RESTORE: wire.encode_snapshot_id("snap"),
        Msg.RESTORE_BEGIN: wire.encode_restore_begin(1 << 33),
        Msg.RESTORE_DATA: b"payload",
        Msg.RESTORE_END: b"",
        Msg.LIST_SNAPSHOTS: b"",
        Msg.SNAPSHOT_LIST: wire.encode_snapshot_list(["snap", "snap-2"]),
        Msg.ERROR: wire.encode_error(Err.RETRY_LATER, "over rate limit"),
        Msg.RESUME: wire.encode_resume("snap", token),
        Msg.RESUME_OK: wire.encode_resume_ok(7),
        Msg.THROTTLE: wire.encode_throttle(1.5, "rate limit"),
    }
    return {msg: wire.encode_frame(msg, payload) for msg, payload in payloads.items()}


#: SHA-256 of each golden frame, per protocol version.  A change to any
#: frame's layout must bump ``PROTOCOL_VERSION`` and record its hashes
#: here in the same change: a peer of the old version is then refused
#: with VERSION_MISMATCH instead of misreading the new layout.
WIRE_GOLDEN = {
    4: {
        "HELLO": "0bb2d06c6fbb176397d8e07febb0008d607e4e5bfef539b46a18cfbf607a7c0a",
        "HELLO_OK": "c757670523ce6d7d61f71af2e19ac2d164ec576013a662a1b84bac323207d710",
        "BEGIN_SNAPSHOT": "6707b96fe9bc346e36753e19064a39614ba46bed4a8e2b0a9265c34924d5f9bb",
        "BEGIN_OK": "88420266dfd64d604627234a8a6c75cf6477c6fd5505df0d17c59959ae9ce234",
        "DIGEST_BATCH": "7e30d6ead1c1bb87760f158ef21e134bd11dfd762dac1ec85f917b4b4eba2623",
        "DIGEST_REPLY": "b4d6ae165f8a408a1cf927bd867e5838a86aaab10a261152ac883a564b3ee971",
        "CHUNK_BATCH": "f173362d9ed1e121a7cbe8f08d06adc01ca14490a3908e10f72b00573e86280b",
        "POINTER_BATCH": "d77fe59d4ec569019e8d97ce8cc5f0119bfa65c7a1ebf6361686079040a96c65",
        "BATCH_OK": "4c503f0247fcf23ab8c235f309a59dc1e29415c7e2fabd02321a5030df6080f7",
        "FINISH": "3b99a2aa6450a48c43585b071c171d5375b09bf1cbe24a724e8b3fdd96bef2f5",
        "FINISH_OK": "e0b5b661bae2fcbefe837e56884d9b2f7cff880d27574d5e54b08f274b2d311d",
        "RESTORE": "5c439d7f22cde316403ea6ec30f4149480b4c07be43eaafc618c2a5924f474b8",
        "RESTORE_BEGIN": "979470bc2abfe23fceaf7d2853307b564c729ff0fb377ba1f4d6d01d4dbb457d",
        "RESTORE_DATA": "f39ab1f31d5758847168d19e9cd539628932e6f6b088af999ebab370c46fdfc9",
        "RESTORE_END": "b7be624dcb1dfdacd784f4a79698ee22c0422a166367f2c5c927f01b37a2d93e",
        "LIST_SNAPSHOTS": "0f7e5b031a1706e40329c19e1059dca60f8cef74aaa8e73a911a414bc59e4907",
        "SNAPSHOT_LIST": "659ef55cd4b0cd41ef5cb9e116e81134697dba98511d22b86ed8c9ad652b0b84",
        "ERROR": "133c23b81f307f6128781f95dce7b86af9def04a9e0bc08e5cf07d5e8de71224",
        "RESUME": "9b0f0b22fff493b27d07ea3426dcbfffdb8e1e4d177fd5d7a91de5241aa1e502",
        "RESUME_OK": "d7a2083d4bdc329e6e075a9b7c313fc0aca3c22e7c3c8c51bf31c357668152c3",
        "THROTTLE": "e613b98e5a0cb6dcd8abf50dbe3fb46397a95beefb73ace260cf8a7f64011bfb",
    },
}


def test_wire_frames_are_golden():
    frames = golden_frames()
    assert set(frames) == set(Msg)
    got = {msg.name: hashlib.sha256(frame).hexdigest() for msg, frame in frames.items()}
    assert got == WIRE_GOLDEN[wire.PROTOCOL_VERSION]


# ----------------------------------------------------------------------
# batch codec strictness
# ----------------------------------------------------------------------


def _digest_lists(min_size: int = 1):
    return st.integers(min_value=1, max_value=40).flatmap(
        lambda size: st.lists(
            st.binary(min_size=size, max_size=size), min_size=min_size, max_size=8
        )
    )


def _columns(digests, values):
    return st.lists(values, min_size=len(digests), max_size=len(digests))


#: codec -> (strategy of valid inputs, encode, decode, decoded form).
BATCH_CODECS = {
    "digest_decide": (
        _digest_lists().flatmap(
            lambda ds: st.tuples(
                st.just(ds), _columns(ds, st.integers(0, 2**32 - 1))
            )
        ),
        lambda x: wire.encode_digest_batch(*x),
        wire.decode_digest_batch,
        lambda x: x,
    ),
    "pointer": (
        _digest_lists(),
        wire.encode_pointer_batch,
        wire.decode_pointer_batch,
        lambda ds: ds,
    ),
    "digest_reply": (
        st.lists(st.booleans(), max_size=40),
        wire.encode_digest_reply,
        wire.decode_digest_reply,
        lambda flags: flags,
    ),
    "chunk": (
        _digest_lists().flatmap(
            lambda ds: _columns(ds, st.binary(max_size=40)).map(
                lambda datas: list(zip(ds, datas))
            )
        ),
        wire.encode_chunk_batch,
        wire.decode_chunk_batch,
        lambda items: items,
    ),
}


@pytest.mark.parametrize("codec", sorted(BATCH_CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_codecs_are_strict(codec, data):
    """decode(encode(x)) == x, and every strict prefix and every
    one-byte extension of a valid payload is refused."""
    inputs, encode, decode, decoded = BATCH_CODECS[codec]
    x = data.draw(inputs)
    payload = encode(x)
    assert decode(payload) == decoded(x)
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            decode(payload[:cut])
    extra = data.draw(st.integers(min_value=0, max_value=255))
    with pytest.raises(ProtocolError):
        decode(payload + bytes([extra]))


#: Each batch encoder that carries digests, fed a digest column.
DIGEST_ENCODERS = {
    "digest_decide": lambda ds: wire.encode_digest_batch(ds, [1] * len(ds)),
    "pointer": wire.encode_pointer_batch,
    "chunk": lambda ds: wire.encode_chunk_batch([(d, b"x") for d in ds]),
}


@pytest.mark.parametrize("codec", sorted(DIGEST_ENCODERS))
@settings(max_examples=30, deadline=None)
@given(digests=_digest_lists(), other=st.integers(min_value=0, max_value=40))
def test_batch_codecs_refuse_bad_digest_sizes(codec, digests, other):
    assume(other != len(digests[0]))
    encode, decode = DIGEST_ENCODERS[codec], BATCH_CODECS[codec][2]
    payload = bytearray(encode(digests))
    payload[1 if codec.startswith("digest_") else 0] = 0  # the digest-size byte
    with pytest.raises(ProtocolError, match="zero digest size"):
        decode(bytes(payload))
    with pytest.raises(ProtocolError):
        encode(digests + [bytes(other)])
    with pytest.raises(ProtocolError):
        encode([b""] + digests)


# ----------------------------------------------------------------------
# tenant namespaces
# ----------------------------------------------------------------------


class TestTenants:
    def test_name_validation(self):
        assert valid_tenant("acme") and valid_tenant("a.b-c_9")
        assert not valid_tenant("") and not valid_tenant("-x")
        assert not valid_tenant("a/b") and not valid_tenant("a" * 65)

    def test_scoped_ids(self):
        registry = TenantRegistry()
        ns = registry.get("acme")
        assert ns.scoped_id("snap1") == "acme/snap1"
        assert ns.unscope("acme/snap1") == "snap1"
        assert ns.unscope("beta/snap1") is None
        with pytest.raises(ValueError):
            ns.scoped_id("a/b")
        with pytest.raises(ValueError):
            ns.scoped_id("")
        registry.close()

    def test_registry_rejects_bad_names(self):
        registry = TenantRegistry()
        with pytest.raises(ValueError):
            registry.get("../escape")
        registry.close()

    def test_registry_caches_namespaces(self):
        registry = TenantRegistry()
        assert registry.get("a") is registry.get("a")
        assert len(registry) == 1
        registry.close()


# ----------------------------------------------------------------------
# service sessions
# ----------------------------------------------------------------------


class TestService:
    def test_backup_restore_round_trip(self, snapshots):
        async def scenario(service):
            client = await connect(service, "acme")
            report = await client.backup(snapshots[0], "gen1")
            restored = await client.restore("gen1")
            await client.close()
            return report, restored

        report, restored = run_service(scenario)
        assert restored == snapshots[0]
        assert report.n_chunks > 0
        assert report.transfer.total_items == report.n_chunks

    def test_restore_assembles_pieces_in_place(self, snapshots):
        """A restore streamed in many pieces (the last one short) and an
        empty one both come back as exact ``bytes``; the client fills one
        buffer of the announced size instead of joining a piece list."""
        data = snapshots[0][: 300_000 + 7]

        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(data, "odd")
            await client.backup(b"", "empty")
            restored = (await client.restore("odd"), await client.restore("empty"))
            await client.close()
            return restored

        odd, empty = run_service(scenario, restore_piece=4096)
        assert type(odd) is bytes and odd == data
        assert type(empty) is bytes and empty == b""

    def test_matches_in_process_dedup_pattern(self, snapshots):
        """Remote decisions replay the in-process single path exactly."""
        with BackupServer(BackupConfig()) as server:
            expected = [
                server.backup_snapshot(data, f"gen{i}")
                for i, data in enumerate(snapshots)
            ]
            local_restores = [
                server.agent.restore(f"gen{i}") for i in range(len(snapshots))
            ]

        async def scenario(service):
            client = await connect(service, "acme")
            reports = [
                await client.backup(data, f"gen{i}")
                for i, data in enumerate(snapshots)
            ]
            restores = [
                await client.restore(f"gen{i}") for i in range(len(snapshots))
            ]
            await client.close()
            return reports, restores

        reports, restores = run_service(scenario)
        assert restores == local_restores == snapshots
        for got, want in zip(reports, expected):
            assert got.n_chunks == want.n_chunks
            assert got.duplicate_chunks == want.duplicate_chunks
            assert got.shipped_bytes == want.shipped_bytes

    def test_two_tenants_share_payloads_not_snapshots(self, snapshots):
        data = snapshots[0]

        async def scenario(service):
            acme = await connect(service, "acme")
            beta = await connect(service, "beta")
            r1 = await acme.backup(data, "snap")
            chunks_after_acme = service.store.chunk_count
            r2 = await beta.backup(data, "snap")  # same id, other namespace
            chunks_after_beta = service.store.chunk_count
            listings = (await acme.list_snapshots(), await beta.list_snapshots())
            restored = (await acme.restore("snap"), await beta.restore("snap"))
            # beta's generation-2 snapshot is invisible to acme
            await beta.backup(snapshots[1], "snap2")
            acme_sees = await acme.list_snapshots()
            with pytest.raises(RemoteError) as err:
                await acme.restore("snap2")
            await acme.close()
            await beta.close()
            return (
                r1, r2, chunks_after_acme, chunks_after_beta,
                listings, restored, acme_sees, err.value.code,
            )

        (r1, r2, after_acme, after_beta, listings, restored,
         acme_sees, err_code) = run_service(scenario)
        # Payload storage dedups across tenants: beta's identical bytes
        # added no chunks to the shared store...
        assert after_beta == after_acme
        # ...but its *wire* decisions were tenant-scoped: nothing in
        # beta's empty index matched, so everything shipped again (the
        # dedup side channel stays closed).
        assert r2.duplicate_chunks == r1.duplicate_chunks
        assert r2.shipped_bytes == r1.shipped_bytes
        assert listings == (["snap"], ["snap"])
        assert restored == (data, data)
        assert acme_sees == ["snap"]
        assert err_code is Err.UNKNOWN_SNAPSHOT

    def test_concurrent_multi_client_fuzz(self, image):
        """N interleaved agents across tenants; every restore byte-exact
        and dedup equivalent to an in-process per-tenant server."""
        table = SimilarityTable.uniform(0.4, image.n_segments)
        jobs = [  # (tenant, snapshot_id, data)
            (f"t{i % 3}", f"snap-{i}", image.snapshot(table, i + 1))
            for i in range(9)
        ]

        # In-process reference: one BackupServer per tenant (tenant-
        # scoped index), same arrival order per tenant.
        expected = {}
        servers = {name: BackupServer(BackupConfig()) for name in ("t0", "t1", "t2")}
        try:
            for tenant, sid, data in jobs:
                report = servers[tenant].backup_snapshot(data, sid)
                expected[(tenant, sid)] = (
                    report.n_chunks, report.duplicate_chunks, report.shipped_bytes,
                )
        finally:
            for server in servers.values():
                server.close()

        async def scenario(service):
            # One shared lock per tenant serializes that tenant's
            # backups (matching the reference order) while different
            # tenants genuinely interleave on the server.
            locks = {name: asyncio.Lock() for name in ("t0", "t1", "t2")}

            async def one(tenant, sid, data):
                async with locks[tenant]:
                    client = await connect(service, tenant)
                    report = await client.backup(data, sid)
                    restored = await client.restore(sid)
                    await client.close()
                return (tenant, sid), report, restored

            results = await asyncio.gather(
                *(one(*job) for job in jobs)
            )
            return results, service.metrics.sessions_total

        results, sessions = run_service(scenario)
        assert sessions == len(jobs)
        by_key = {key: (report, restored) for key, report, restored in results}
        for tenant, sid, data in jobs:
            report, restored = by_key[(tenant, sid)]
            assert restored == data, (tenant, sid)
            assert (
                report.n_chunks, report.duplicate_chunks, report.shipped_bytes,
            ) == expected[(tenant, sid)], (tenant, sid)

    def test_disk_restart_resumes_snapshots(self, tmp_path, snapshots):
        data_dir = str(tmp_path / "svc")

        async def first(service):
            client = await connect(service, "acme")
            report = await client.backup(snapshots[0], "gen1")
            await client.close()
            return report

        report1 = run_service(first, backend="disk", data_dir=data_dir)

        async def second(service):
            client = await connect(service, "acme")
            listing = await client.list_snapshots()
            restored = await client.restore("gen1")
            # Same bytes again: the reopened tenant index remembers, so
            # every chunk dedups and nothing re-ships.
            report = await client.backup(snapshots[0], "gen1-again")
            await client.close()
            return listing, restored, report

        listing, restored, report2 = run_service(
            second, backend="disk", data_dir=data_dir
        )
        assert listing == ["gen1"]
        assert restored == snapshots[0]
        assert report2.n_chunks == report1.n_chunks
        assert report2.duplicate_chunks == report2.n_chunks
        assert report2.shipped_bytes == 0

    def test_duplicate_snapshot_id_rejected(self):
        async def scenario(service):
            client = await connect(service)
            await client.backup(b"x" * 50_000, "snap")
            with pytest.raises(RemoteError) as err:
                await client.begin_snapshot("snap")
            await client.close()
            return err.value.code

        assert run_service(scenario) is Err.SNAPSHOT_EXISTS

    def test_corrupted_chunk_payload_rejected(self):
        async def scenario(service):
            client = await connect(service)
            await client.begin_snapshot("snap")
            bogus = [(chunk_hash(b"the truth"), b"something else")]
            with pytest.raises(RemoteError) as err:
                await client.ship_chunks(bogus)
            return err.value.code, service.store.chunk_count

        code, chunk_count = run_service(scenario)
        assert code is Err.DIGEST_MISMATCH
        assert chunk_count == 0  # nothing of the poisoned batch stored

    def test_unknown_pointer_rejected(self):
        async def scenario(service):
            client = await connect(service)
            await client.begin_snapshot("snap")
            with pytest.raises(RemoteError) as err:
                await client.ship_pointers([chunk_hash(b"never shipped")])
            return err.value.code

        assert run_service(scenario) is Err.UNKNOWN_CHUNK

    def test_disconnect_aborts_open_snapshot(self):
        async def scenario(service):
            client = await connect(service, "acme")
            await client.begin_snapshot("half")
            payload = b"p" * 10_000
            await client.ship_chunks([(chunk_hash(payload), payload)])
            await client.close()  # vanish mid-snapshot
            for _ in range(50):
                if not service.agent.open_snapshots:
                    break
                await asyncio.sleep(0.01)
            fresh = await connect(service, "acme")
            listing = await fresh.list_snapshots()
            await fresh.close()
            return service.agent.open_snapshots, listing

        open_snapshots, listing = run_service(scenario)
        assert open_snapshots == ()  # aborted, no recipe published
        assert listing == []

    def test_version_mismatch_rejected(self):
        async def scenario(service):
            conn = await FrameConnection.open(
                "127.0.0.1", service.port, wire.DEFAULT_MAX_FRAME
            )
            hello = (99).to_bytes(2, "big") + wire.encode_hello("acme")[2:]
            await conn.send(wire.MAGIC + wire.encode_frame(Msg.HELLO, hello))
            msg, payload = await conn.recv()
            conn.close()
            return msg, wire.decode_error(payload)[0]

        msg, code = run_service(scenario)
        assert msg is Msg.ERROR and code is Err.VERSION_MISMATCH

    def test_admission_control_busy(self):
        async def scenario(service):
            first = await connect(service)
            with pytest.raises(RemoteError) as err:
                await connect(service)
            await first.close()
            return err.value.code, service.metrics.sessions_rejected

        code, rejected = run_service(scenario, max_sessions=1)
        assert code is Err.BUSY and rejected == 1

    def test_bad_tenant_rejected(self):
        async def scenario(service):
            with pytest.raises(RemoteError) as err:
                await connect(service, tenant="../etc")
            return err.value.code

        assert run_service(scenario) is Err.BAD_TENANT

    def test_session_held_in_its_handler_stops_reading(self):
        """Backpressure is TCP's: a session held in a handler reads no
        further frame, so the client's sends block once the kernel
        buffers fill, and every frame applies once the handler returns."""
        release, entered = asyncio.Event(), asyncio.Event()

        async def scenario(service):
            conn = await FrameConnection.open("127.0.0.1", service.port, wire.DEFAULT_MAX_FRAME)
            await conn.send(wire.MAGIC + wire.encode_frame(Msg.HELLO, wire.encode_hello("acme")))
            assert (await conn.recv())[0] is Msg.HELLO_OK
            await conn.send(wire.encode_frame(Msg.BEGIN_SNAPSHOT, wire.encode_begin("snap", "")))
            assert await conn.recv() == (Msg.BEGIN_OK, b"")
            (session,) = service._sessions
            handle = session._on_chunk_batch

            async def held(payload):
                entered.set()
                await release.wait()
                await handle(payload)

            session._on_chunk_batch = held
            received = service.metrics.frames_received
            # Distinct 64 KiB chunks, sent raw on the non-blocking socket
            # until the kernel refuses more (capped so it cannot hang).
            datas, pending, blocked = [], memoryview(b""), False
            while not blocked and len(datas) * 64 * 1024 < 64 * MB:
                if not pending:
                    data = len(datas).to_bytes(4, "big") * (16 * 1024)
                    datas.append(data)
                    pending = memoryview(wire.encode_frame(
                        Msg.CHUNK_BATCH, wire.encode_chunk_batch([(chunk_hash(data), data)])
                    ))
                try:
                    pending = pending[conn.sock.send(pending):]
                except BlockingIOError:
                    blocked = True
                if len(datas) == 1 and not pending:
                    await asyncio.wait_for(entered.wait(), 10)
                await asyncio.sleep(0)  # the session may read, if it would
            held_frames = service.metrics.frames_received - received
            release.set()
            await conn.send(pending)
            acks = [await conn.recv() for _ in datas]
            await conn.send(wire.encode_frame(Msg.FINISH, wire.encode_snapshot_id("snap")))
            assert (await conn.recv())[0] is Msg.FINISH_OK
            conn.close()
            client = await connect(service, "acme")
            restored = await client.restore("snap")
            await client.close()
            return blocked, held_frames, acks, datas, restored

        blocked, held_frames, acks, datas, restored = run_service(scenario)
        assert blocked and len(datas) > 1
        assert held_frames <= 1  # the frame in hand, nothing read ahead
        assert acks == [(Msg.BATCH_OK, wire.encode_batch_ok(1, len(d))) for d in datas]
        assert restored == b"".join(datas)

    def test_restore_streams_in_pieces(self):
        data = b"r" * 300_000

        async def scenario(service):
            client = await connect(service)
            await client.backup(data, "snap")
            restored = await client.restore("snap")
            await client.close()
            return restored

        # 64 KiB pieces -> the 300 KB restore crosses several frames.
        assert run_service(scenario, restore_piece=1 << 16) == data

    def test_lost_chunk_is_not_reported_as_unknown_snapshot(self):
        """The recipe is there and a chunk under it is gone: that is
        data loss (INTERNAL, naming the digest), not a mistyped id."""
        data = b"".join(bytes([i]) * 5000 for i in range(40))

        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(data, "snap")
            scoped = service.registry.get("acme").scoped_id("snap")
            recipe = service.store.get_recipe(scoped)
            lost = recipe.digests[len(recipe.digests) // 2]
            service.store._chunks.delete_batch([lost])
            with pytest.raises(RemoteError) as missing_chunk:
                await client.restore("snap")
            with pytest.raises(RemoteError) as missing_recipe:
                await client.restore("snop")
            listing = await client.list_snapshots()  # the session survives both
            await client.close()
            return missing_chunk.value, missing_recipe.value, lost, listing, service.metrics

        chunk_err, recipe_err, lost, listing, metrics = run_service(scenario)
        assert chunk_err.code is Err.INTERNAL
        assert lost.hex()[:16] in chunk_err.remote_message
        assert recipe_err.code is Err.UNKNOWN_SNAPSHOT
        assert listing == ["snap"]
        assert metrics.errors_sent == 2

    def test_cluster_store_backend(self, snapshots):
        async def scenario(service):
            client = await connect(service, "acme")
            r1 = await client.backup(snapshots[0], "gen1")
            r2 = await client.backup(snapshots[1], "gen2")
            restored = (await client.restore("gen1"), await client.restore("gen2"))
            await client.close()
            return r1, r2, restored

        r1, r2, restored = run_service(
            scenario, store_backend="cluster", cluster_nodes=3
        )
        assert restored == (snapshots[0], snapshots[1])
        assert r2.duplicate_chunks > 0  # generations overlap

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(store_backend="raid")
        with pytest.raises(ValueError):
            ServiceConfig(max_sessions=0)
        with pytest.raises(ValueError):
            ServiceConfig(backend="memory", data_dir="/tmp/x")


# ----------------------------------------------------------------------
# fatal session errors
# ----------------------------------------------------------------------

#: A client that holds a resume token, so its snapshot can park.
RESUMABLE = RetryPolicy(op_timeout_s=5.0)


async def answer_then_hang_up(service, frame: bytes, *, retry, begin=True):
    """Send ``frame`` on a fresh session: the ERROR it draws, whether
    the server then hung up within 1 s, and the service metrics once
    the session is gone."""
    client = await connect(service, "acme", retry=retry)
    if begin:
        await client.begin_snapshot("snap")
    await client.conn.send(frame)
    with pytest.raises(RemoteError) as err:
        await client._recv()
    try:
        await asyncio.wait_for(client.conn.recv(), 1.0)
        hung_up = False
    except asyncio.IncompleteReadError:
        hung_up = True
    for _ in range(100):
        if service.metrics.sessions_active == 0:
            break
        await asyncio.sleep(0.01)
    await client.close()
    return err.value.code, hung_up, service.metrics


class TestRepeatsInOneBatch:
    def test_zero_run_ships_its_zero_chunk_once(self):
        """A run of zeros repeats one chunk inside a batch: the first copy
        ships, every repeat is a pointer, on all three paths alike."""
        data = bytes(512 * 1024) + seeded_bytes(512 * 1024, seed=31)
        reports = []
        for config in (BackupConfig(), BackupConfig(store_backend="cluster", cluster_nodes=4)):
            with BackupServer(config) as server:
                reports.append(server.backup_snapshot(data, "z"))
                assert server.agent.restore("z") == data
                if server.cluster is None:
                    stored = server.agent.store.stored_bytes

        async def scenario(service):
            client = await connect(service, "acme")
            report = await client.backup(data, "z")
            restored = await client.restore("z")
            await client.close()
            return report, restored, service.store.stored_bytes

        remote, restored, remote_stored = run_service(scenario)
        assert restored == data
        reports.append(remote)
        single = reports[0]
        assert single.duplicate_chunks > 0
        for report in reports:
            got = (report.n_chunks, report.duplicate_chunks, report.shipped_bytes)
            assert got == (single.n_chunks, single.duplicate_chunks, single.shipped_bytes)
        # Nothing shipped twice: the site stored exactly what came in.
        assert single.shipped_bytes == stored == remote_stored


class TestFatalSessionErrors:
    @pytest.mark.parametrize("retry,parked", [(RESUMABLE, 1), (NO_RETRY, 0)])
    def test_digest_mismatch_hangs_up_and_frees_the_slot(self, retry, parked):
        frame = wire.encode_frame(
            Msg.CHUNK_BATCH,
            wire.encode_chunk_batch([(chunk_hash(b"the truth"), b"a lie")]),
        )
        code, hung_up, metrics = run_service(
            lambda service: answer_then_hang_up(service, frame, retry=retry)
        )
        assert code is Err.DIGEST_MISMATCH and hung_up
        assert metrics.sessions_active == 0
        # A token holder's snapshot parks for RESUME; a token-less one aborts.
        assert metrics.sessions_parked == parked

    def test_non_fatal_error_keeps_the_session(self):
        async def scenario(service):
            client = await connect(service, "acme")
            with pytest.raises(RemoteError) as err:
                await client.finish_snapshot("never-begun")
            listing = await client.list_snapshots()
            await client.close()
            return err.value.code, listing

        assert run_service(scenario) == (Err.UNKNOWN_SNAPSHOT, [])

    def test_truncated_digest_batch_is_bad_frame(self):
        digests = [chunk_hash(bytes([i])) for i in range(3)]
        payload = wire.encode_digest_batch(digests, [1, 2, 3])
        frame = wire.encode_frame(Msg.DIGEST_BATCH, payload[:-3])
        code, hung_up, metrics = run_service(
            lambda service: answer_then_hang_up(service, frame, retry=RESUMABLE)
        )
        assert code is Err.BAD_FRAME and hung_up
        assert metrics.sessions_active == 0
        assert metrics.sessions_parked == 1

    def test_overrunning_digest_count_is_bad_frame(self):
        digests = [chunk_hash(bytes([i])) for i in range(3)]
        payload = wire.encode_digest_batch(digests, [1, 2, 3])
        overrun = payload[:2] + (4).to_bytes(4, "big") + payload[6:]
        frame = wire.encode_frame(Msg.DIGEST_BATCH, overrun)
        code, hung_up, metrics = run_service(
            lambda service: answer_then_hang_up(service, frame, retry=RESUMABLE)
        )
        assert code is Err.BAD_FRAME and hung_up
        assert metrics.sessions_active == 0

    def test_digest_batch_in_any_other_mode_is_bad_frame(self):
        """Mode 0 was a read-only probe of the shared store; it is gone,
        and a peer that still sends it loses the session."""
        payload = wire.encode_digest_batch([chunk_hash(b"x")], [1])
        frame = wire.encode_frame(Msg.DIGEST_BATCH, bytes([0]) + payload[1:])
        code, hung_up, metrics = run_service(
            lambda service: answer_then_hang_up(service, frame, retry=RESUMABLE)
        )
        assert code is Err.BAD_FRAME and hung_up
        assert metrics.sessions_active == 0

    def test_tokenless_begin_is_bad_frame(self):
        frame = wire.encode_frame(Msg.BEGIN_SNAPSHOT, wire.encode_snapshot_id("s"))
        code, hung_up, metrics = run_service(
            lambda service: answer_then_hang_up(
                service, frame, retry=NO_RETRY, begin=False
            )
        )
        assert code is Err.BAD_FRAME and hung_up
        assert metrics.sessions_active == 0


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------


class TestHttpSurface:
    @staticmethod
    def _get(port: int, path: str):
        # urllib in a thread: the server handles HTTP on the same loop.
        async def fetch():
            return await asyncio.to_thread(
                lambda: urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=5
                ).read()
            )
        return fetch()

    def test_health_and_metrics(self, snapshots):
        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(snapshots[0], "gen1")
            health = json.loads(await self._get(service.port, "/health"))
            doc = json.loads(await self._get(service.port, "/metrics"))
            text = (
                await self._get(service.port, "/metrics?format=text")
            ).decode()
            await client.close()
            return health, doc, text

        health, doc, text = run_service(scenario)
        assert health["status"] == "ok"
        assert set(doc) == {"service", "store", "tenants", "core"}
        assert doc["store"]["chunks"] > 0
        acme = doc["tenants"]["acme"]
        assert acme["chunks_received"] > 0
        assert acme["snapshots_finished"] == 1
        assert doc["service"]["sessions_total"] == 1
        assert doc["core"]["backends"]["instances"] > 0
        assert "repro_store_chunks" in text
        assert "repro_tenants_acme_chunks_received" in text

    def test_unknown_path_404(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"GET /nope HTTP/1.0\r\n\r\n")
            await writer.drain()
            response = await reader.read()
            writer.close()
            return response

        assert run_service(scenario).startswith(b"HTTP/1.0 404")

    def test_render_text_flattens_numbers_only(self):
        text = render_text(
            {"a": {"b": 1, "name": "skipped"}, "c": 2.5, "flag": True}
        ).decode()
        assert text.splitlines() == ["repro_a_b 1", "repro_c 2.5", "repro_flag 1"]

    def test_service_snapshot_shape(self):
        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(b"z" * 100_000, "s")
            await client.close()
            return service_snapshot(service)

        doc = run_service(scenario)
        assert doc["service"]["connections_total"] >= 1
        assert doc["tenants"]["acme"]["dedup"]["total_chunks"] > 0
        assert doc["store"]["snapshots"] == 1


# ----------------------------------------------------------------------
# pointer ownership
# ----------------------------------------------------------------------


class TestPointerOwnership:
    def test_pointer_to_another_tenants_chunk_is_refused(self):
        """Knowing a digest is not owning it: a tenant that points to
        another tenant's chunk gets the refusal a never-stored chunk
        gets, and never the bytes."""
        secret = seeded_bytes(5000, seed=34)
        digest = chunk_hash(secret)

        async def refusal(service, tenant, target):
            client = await connect(service, tenant)
            await client.begin_snapshot("steal")
            with pytest.raises(RemoteError) as err:
                await client.ship_pointers([target])
            await client.close()
            return err.value

        async def scenario(service):
            victim = await connect(service, "victim")
            await victim.begin_snapshot("mine")
            assert await victim.decide_chunks([digest], [len(secret)]) == [False]
            await victim.ship_chunks([(digest, secret)])
            await victim.finish_snapshot("mine")
            await victim.close()
            stolen = await refusal(service, "attacker", digest)
            unknown = await refusal(service, "bystander", chunk_hash(b"never"))
            attacker = await connect(service, "attacker")
            listing = await attacker.list_snapshots()
            with pytest.raises(RemoteError) as restore_err:
                await attacker.restore("steal")
            await attacker.close()
            return stolen, unknown, listing, restore_err.value.code

        stolen, unknown, listing, restore_code = run_service(scenario)
        assert stolen.code is unknown.code is Err.UNKNOWN_CHUNK
        assert stolen.remote_message.replace(digest.hex()[:16], "<digest>").replace(
            "attacker", "<tenant>"
        ) == unknown.remote_message.replace(
            chunk_hash(b"never").hex()[:16], "<digest>"
        ).replace("bystander", "<tenant>")
        assert listing == [] and restore_code is Err.UNKNOWN_SNAPSHOT

    def test_decide_then_point_without_shipping_is_refused(self):
        """A decide does not make a digest the tenant's: only a shipped
        payload does, so decide-then-point with no CHUNK_BATCH between
        is refused and never restores the victim's bytes."""
        secret = seeded_bytes(5000, seed=36)
        digest = chunk_hash(secret)

        async def scenario(service):
            victim = await connect(service, "victim")
            await victim.begin_snapshot("mine")
            await victim.decide_chunks([digest], [len(secret)])
            await victim.ship_chunks([(digest, secret)])
            await victim.finish_snapshot("mine")
            await victim.close()
            attacker = await connect(service, "attacker")
            await attacker.begin_snapshot("steal")
            decided = await attacker.decide_chunks([digest], [len(secret)])
            with pytest.raises(RemoteError) as err:
                await attacker.ship_pointers([digest])
            await attacker.close()
            attacker = await connect(service, "attacker")
            listing = await attacker.list_snapshots()
            with pytest.raises(RemoteError) as restore_err:
                await attacker.restore("steal")
            await attacker.close()
            return decided, err.value.code, listing, restore_err.value.code

        decided, code, listing, restore_code = run_service(scenario)
        assert decided == [False]
        assert code is Err.UNKNOWN_CHUNK
        assert listing == [] and restore_code is Err.UNKNOWN_SNAPSHOT

    def test_decide_never_reveals_another_tenants_chunk(self):
        """Deciding a digest the tenant never shipped answers "ship"
        every time, whether another tenant holds it or nobody does; once
        the tenant ships it, the next decide points."""
        held = seeded_bytes(5000, seed=37)
        nobodys = seeded_bytes(5000, seed=38)
        digests = [chunk_hash(held), chunk_hash(nobodys)]
        lengths = [5000, 5000]

        async def scenario(service):
            owner = await connect(service, "owner")
            await owner.begin_snapshot("mine")
            await owner.ship_chunks([(digests[0], held)])
            await owner.finish_snapshot("mine")
            await owner.close()
            prober = await connect(service, "prober")
            await prober.begin_snapshot("probe")
            asked = [await prober.decide_chunks(digests, lengths) for _ in range(3)]
            await prober.ship_chunks([(digests[0], held), (digests[1], nobodys)])
            shipped = await prober.decide_chunks(digests, lengths)
            await prober.finish_snapshot("probe")
            await prober.close()
            return asked, shipped

        asked, shipped = run_service(scenario)
        assert asked == [[False, False]] * 3
        assert shipped == [True, True]

    def test_shipped_chunk_is_owned_across_a_restart(self, tmp_path):
        """A chunk shipped without a decide is the tenant's: pointing to
        it later is accepted, even from a restarted service."""
        payload = seeded_bytes(6000, seed=35)
        digest = chunk_hash(payload)
        data_dir = str(tmp_path / "svc")

        async def ship(service):
            client = await connect(service, "acme")
            await client.begin_snapshot("s1")
            await client.ship_chunks([(digest, payload)])
            await client.finish_snapshot("s1")
            await client.close()
            return service.registry.get("acme").index.stats.total_chunks

        async def point(service):
            client = await connect(service, "acme")
            await client.begin_snapshot("s2")
            await client.ship_pointers([digest, digest])
            await client.finish_snapshot("s2")
            restored = await client.restore("s2")
            await client.close()
            return restored

        # Recorded without a decide, so the dedup counters never moved.
        assert run_service(ship, backend="disk", data_dir=data_dir) == 0
        assert run_service(point, backend="disk", data_dir=data_dir) == payload * 2


# ----------------------------------------------------------------------
# the CLI's remote backup
# ----------------------------------------------------------------------


@pytest.fixture()
def live_service():
    """A real service on a background loop, for the CLI's own loop."""
    import threading

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def boot():
        service = BackupService(ServiceConfig())
        await service.start()
        return service

    service = asyncio.run_coroutine_threadsafe(boot(), loop).result()
    try:
        yield service
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


class TestRemoteCli:
    def remote_backup(self, service, path, *extra):
        from repro.cli import main

        return main(
            ["backup", str(path), "--remote", f"127.0.0.1:{service.port}", *extra]
        )

    def test_backs_up_and_verifies(self, live_service, tmp_path, capsys):
        path = tmp_path / "in.bin"
        path.write_bytes(seeded_bytes(200_000, seed=36))
        assert self.remote_backup(live_service, path, "--tenant", "ci") == 0
        assert self.remote_backup(live_service, path, "--tenant", "ci") == 0
        assert self.remote_backup(live_service, path, "--tenant", "other") == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "stored as" in line] == [
            f"remote service 127.0.0.1:{live_service.port} (tenant 'ci'), "
            "stored as snapshot 'cli'",
            f"remote service 127.0.0.1:{live_service.port} (tenant 'ci'), "
            "stored as snapshot 'cli-2'",
            f"remote service 127.0.0.1:{live_service.port} (tenant 'other'), "
            "stored as snapshot 'cli'",
        ]
        dedup = [line for line in out if "duplicate chunks" in line]
        # The decide is tenant-scoped: a second tenant dedups nothing.
        assert "(100.0% duplicate chunks)" in dedup[1]
        assert "(0.0% duplicate chunks)" in dedup[2]
        assert out.count("  restore verified byte-exact") == 3

    def test_wrong_restore_bytes_exit_nonzero(
        self, live_service, tmp_path, capsys, monkeypatch
    ):
        async def corrupt_restore(client, snapshot_id):
            return b"not what was backed up"

        monkeypatch.setattr(AsyncBackupClient, "restore", corrupt_restore)
        path = tmp_path / "in.bin"
        path.write_bytes(seeded_bytes(50_000, seed=37))
        with pytest.raises(SystemExit) as exit_:
            self.remote_backup(live_service, path)
        assert exit_.value.code not in (0, None)
        assert "does not match" in str(exit_.value.code)
        assert "restore verified byte-exact" not in capsys.readouterr().out
