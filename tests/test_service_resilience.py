"""Resilience tests: client retry/resume under injected wire faults,
slow-client eviction, park expiry, drain-on-shutdown, the chaos soak,
the feeder-join deadline, and the fsync durability knob."""

from __future__ import annotations

import asyncio
import random
import socket

import pytest

from repro.core.hashing import chunk_hash
from repro.service import (
    NO_RETRY,
    AsyncBackupClient,
    BackupService,
    RetryPolicy,
    ServiceConfig,
)
from repro.service.metrics import service_snapshot
from repro.service.protocol import Err, RemoteError
from repro.store.backend import FSYNC_ENV, PersistentBackend

MB = 1 << 20

#: Aggressive-but-cheap policy for loopback chaos: short timeouts, tiny
#: backoff, and a deep recovery budget (each dropped frame costs one).
CHAOS_RETRY = RetryPolicy(
    attempts=8,
    base_delay_s=0.01,
    max_delay_s=0.1,
    op_timeout_s=5.0,
    max_recoveries=500,
)


def run_service(fn, **config):
    async def main():
        async with BackupService(ServiceConfig(**config)) as service:
            return await fn(service)

    return asyncio.run(main())


async def connect(service, **kwargs):
    kwargs.setdefault("retry", CHAOS_RETRY)
    return await AsyncBackupClient.connect(
        "127.0.0.1", service.port, tenant="default", **kwargs
    )


def chaos_payload(size: int, seed: int = 1234) -> bytes:
    """Random-ish data with repeated runs so dedup has something to do."""
    rng = random.Random(seed)
    blocks = [rng.randbytes(16 * 1024) for _ in range(16)]
    out = []
    total = 0
    while total < size:
        b = blocks[rng.randrange(len(blocks))]
        out.append(b)
        total += len(b)
    return b"".join(out)[:size]


# ----------------------------------------------------------------------
# retry/resume under wire faults
# ----------------------------------------------------------------------


class TestWireFaultRecovery:
    def test_backup_survives_drops_and_garbles(self):
        data = chaos_payload(2 * MB)

        async def scenario(service):
            client = await connect(service)
            report = await client.backup(data, "chaos", batch_chunks=4)
            restored = await client.restore("chaos")
            await client.close()
            return report, restored, service.metrics

        report, restored, metrics = run_service(
            scenario,
            faults="seed=7,wire.drop=0.05,wire.garble=0.05",
            resume_grace_s=10.0,
        )
        assert restored == data
        # The plan fires often enough over ~hundreds of frames that the
        # client must have reconnected and resumed at least once.
        assert report.reconnects > 0
        assert report.resumes > 0
        # Every abnormal disconnect parked the session and every park
        # was claimed by a RESUME — nothing leaked to expiry.
        assert metrics.sessions_parked == metrics.sessions_resumed
        assert metrics.sessions_parked > 0

    def test_quiet_wire_means_no_recovery(self):
        data = chaos_payload(256 * 1024, seed=5)

        async def scenario(service):
            client = await connect(service)
            report = await client.backup(data, "calm", batch_chunks=8)
            restored = await client.restore("calm")
            await client.close()
            return report, restored

        report, restored = run_service(scenario)
        assert restored == data
        assert report.reconnects == 0
        assert report.resumes == 0
        assert report.replayed_frames == 0

    def test_no_retry_client_fails_on_first_drop_without_resume(self):
        data = chaos_payload(1 * MB, seed=3)

        async def scenario(service):
            client = await connect(service, retry=NO_RETRY)
            with pytest.raises((RemoteError, OSError, EOFError)):
                await client.backup(data, "fragile", batch_chunks=4)
            await client.close()
            return client, service.metrics

        client, metrics = run_service(
            scenario, faults="seed=7,wire.drop=0.05", resume_grace_s=10.0
        )
        # One connection, never redialed: no RESUME could be sent.
        assert metrics.connections_total == 1
        assert client.reconnects == 0 and client.resumes == 0
        # No token went out, so the cut snapshot aborted instead of parking.
        assert metrics.sessions_parked == 0 and metrics.sessions_resumed == 0


async def ship_by_hand(client, snapshot_id: str, data: bytes, batch: int = 8) -> tuple[int, int]:
    """One snapshot through ``decide_chunks`` / ``ship_chunks`` /
    ``ship_pointers`` called directly, in 4 KiB chunks: the payload
    bytes and chunks shipped."""
    chunks = [data[i : i + 4096] for i in range(0, len(data), 4096)]
    shipped = shipped_chunks = 0
    await client.begin_snapshot(snapshot_id)
    for lo in range(0, len(chunks), batch):
        part = chunks[lo : lo + batch]
        digests = [chunk_hash(c) for c in part]
        flags = await client.decide_chunks(digests, [len(c) for c in part])
        i = 0
        while i < len(part):
            j = i
            while j < len(part) and flags[j] == flags[i]:
                j += 1
            if flags[i]:
                await client.ship_pointers(digests[i:j])
            else:
                await client.ship_chunks(list(zip(digests[i:j], part[i:j])))
                shipped += sum(map(len, part[i:j]))
                shipped_chunks += j - i
            i = j
    await client.finish_snapshot(snapshot_id)
    return shipped, shipped_chunks


class TestEveryVerbRecovers:
    """Recovery is not ``backup()``'s alone: the batched verbs, restore
    and list recover on their own under the client's RetryPolicy."""

    def test_batched_verbs_survive_drops_and_charge_once(self):
        data = chaos_payload(512 * 1024, seed=21)

        async def scenario(service):
            client = await connect(service)
            shipped = await ship_by_hand(client, "by-hand", data)
            restored = await client.restore("by-hand")
            listing = await client.list_snapshots()
            await client.close()
            usage = service.registry.get("default").usage
            return client, shipped, restored, listing, usage.as_dict()

        client, (shipped, chunks), restored, listing, usage = run_service(
            scenario, faults="seed=6,wire.drop=0.05", resume_grace_s=10.0
        )
        assert restored == data and listing == ["by-hand"]
        assert client.reconnects > 0 and client.resumes > 0
        # Exactly once: the replayed frames were never charged twice.
        assert usage == {"stored_bytes": shipped, "chunks": chunks}
        assert 0 < shipped < len(data)  # the repeats went as pointers

    def test_batched_verbs_under_no_retry_fail_on_first_drop(self):
        data = chaos_payload(512 * 1024, seed=21)

        async def scenario(service):
            client = await connect(service, retry=NO_RETRY)
            with pytest.raises((RemoteError, OSError, EOFError)):
                await ship_by_hand(client, "fragile", data)
            await client.close()
            return client, service.metrics

        client, metrics = run_service(
            scenario, faults="seed=6,wire.drop=0.05", resume_grace_s=10.0
        )
        assert metrics.connections_total == 1 and client.reconnects == 0

    @pytest.mark.parametrize("seed", [6, 10, 11, 12])
    def test_restore_survives_drops(self, seed):
        """Seeds whose plan drops the RESTORE (or a frame after the
        backup) once the backup is done."""
        data = random.Random(seed).randbytes(300_000)

        async def scenario(service):
            client = await connect(service, retry=RetryPolicy(base_delay_s=0.001))
            await client.backup(data, "snap")
            restored = await client.restore("snap")
            await client.close()
            return restored

        restored = run_service(scenario, faults=f"seed={seed},wire.drop=0.1")
        assert restored == data


# ----------------------------------------------------------------------
# slow-client eviction
# ----------------------------------------------------------------------


class TestStallEviction:
    def test_idle_session_is_evicted(self):
        async def scenario(service):
            client = await connect(service, retry=NO_RETRY)
            await client.begin_snapshot("stalled")
            await asyncio.sleep(0.6)  # > stall_timeout_s, sends nothing
            with pytest.raises((RemoteError, OSError, EOFError)) as err:
                await client.finish_snapshot("stalled")
            await client.close()
            listing = await (await connect(service, retry=NO_RETRY)).list_snapshots()
            return err.value, service.metrics, listing

        exc, metrics, listing = run_service(scenario, stall_timeout_s=0.2)
        if isinstance(exc, RemoteError):
            assert exc.code is Err.EVICTED
        assert metrics.sessions_evicted == 1
        # No resume token (NO_RETRY) -> eviction aborts, never parks.
        assert metrics.sessions_parked == 0
        assert "stalled" not in listing

    def test_evicted_session_resumes_and_finishes(self):
        async def scenario(service):
            client = await connect(service)
            await client.begin_snapshot("nap")
            await asyncio.sleep(0.6)  # server evicts + parks meanwhile
            log = await client.finish_snapshot("nap")
            listing = await client.list_snapshots()
            await client.close()
            return log, listing, service.metrics

        _, listing, metrics = run_service(
            scenario, stall_timeout_s=0.2, resume_grace_s=10.0
        )
        assert "nap" in listing
        assert metrics.sessions_evicted >= 1
        assert metrics.sessions_parked >= 1
        assert metrics.sessions_resumed >= 1

    def test_throttle_paced_frame_is_not_evicted(self):
        """The stall clock runs only while the server waits on the
        client: a frame the server paces for longer than the timeout
        costs the client nothing."""
        data = random.Random(3).randbytes(300_000)
        # No recovery (an eviction must surface) and no jitter (the
        # client's pacing ends when the server's does).
        strict = RetryPolicy(max_recoveries=0, op_timeout_s=None, jitter=False)

        async def scenario(service):
            client = await connect(service, retry=strict)
            await client.begin_snapshot("paced")
            # 300 kB against a 200 kB burst: paced for ~1 s > 0.3 s.
            await client.ship_chunks([(chunk_hash(data), data)])
            await client.finish_snapshot("paced")
            restored = await client.restore("paced")
            await client.close()
            return restored, service.metrics

        restored, metrics = run_service(
            scenario, stall_timeout_s=0.3, rate_bytes_per_s=100_000
        )
        assert restored == data
        assert metrics.throttles_sent == 1
        assert metrics.sessions_evicted == 0

    def test_slowly_drained_restore_is_not_evicted(self):
        """A restore the client drains for longer than the stall timeout
        completes, and the session still answers its next verb."""
        data = random.Random(4).randbytes(8 * MB)

        async def scenario(service):
            client = await connect(service, retry=NO_RETRY)
            await client.backup(data, "big")
            # Small kernel buffers on both ends, so the server's sends
            # block while the client drains instead of landing at once.
            (session,) = service._sessions
            for sock, opt in (
                (session.conn.sock, socket.SO_SNDBUF),
                (client.conn.sock, socket.SO_RCVBUF),
            ):
                sock.setsockopt(socket.SOL_SOCKET, opt, 64 * 1024)
            recv = client.conn.recv

            async def slow_recv(into=None):
                await asyncio.sleep(0.01)  # 128 pieces: ~1.3 s > 0.5 s
                return await recv(into)

            client.conn.recv = slow_recv
            restored = await client.restore("big")
            listing = await client.list_snapshots()
            await client.close()
            return restored, listing, service.metrics

        restored, listing, metrics = run_service(
            scenario, stall_timeout_s=0.5, restore_piece=64 * 1024
        )
        assert restored == data
        assert listing == ["big"]
        assert metrics.sessions_evicted == 0


# ----------------------------------------------------------------------
# park expiry + clean-close semantics
# ----------------------------------------------------------------------


class TestParkLifecycle:
    def test_park_expires_and_aborts_snapshot(self):
        async def scenario(service):
            client = await connect(service)
            await client.begin_snapshot("doomed")
            # Crash, don't close: force an RST (SO_LINGER 0) so the
            # server sees an abnormal disconnect and parks the snapshot.
            client.conn.abort()
            await asyncio.sleep(0.4)  # > resume_grace_s
            probe = await connect(service, retry=NO_RETRY)
            listing = await probe.list_snapshots()
            await probe.close()
            return service.metrics, listing

        metrics, listing = run_service(scenario, resume_grace_s=0.1)
        assert metrics.sessions_parked == 1
        assert metrics.sessions_expired == 1
        assert metrics.sessions_resumed == 0
        assert "doomed" not in listing

    def test_clean_close_aborts_instead_of_parking(self):
        async def scenario(service):
            client = await connect(service)
            await client.begin_snapshot("walkaway")
            await client.close()  # FIN on a frame boundary = deliberate
            await asyncio.sleep(0.05)
            return service.metrics

        metrics = run_service(scenario, resume_grace_s=10.0)
        assert metrics.sessions_parked == 0


# ----------------------------------------------------------------------
# drain on shutdown
# ----------------------------------------------------------------------


class TestDrainOnShutdown:
    def test_stop_waits_for_inflight_backup(self):
        data = chaos_payload(1 * MB, seed=9)

        async def scenario(service):
            client = await connect(service)
            task = asyncio.create_task(
                client.backup(data, "inflight", batch_chunks=4)
            )
            await asyncio.sleep(0.05)  # let the backup get going
            await service.stop()  # drains instead of cutting the cord
            report = await task
            await client.close()
            return report

        report = run_service(scenario, drain_s=10.0)
        assert report.n_chunks > 0
        assert report.total_bytes == len(data)


# ----------------------------------------------------------------------
# chaos soak: backend + wire + node death, end to end
# ----------------------------------------------------------------------


class TestChaosSoak:
    def test_soak_bit_identical_restore_with_auto_repair(self):
        data = chaos_payload(2 * MB, seed=77)

        async def scenario(service):
            client = await connect(service)
            report = await client.backup(data, "soak", batch_chunks=4)
            restored = await client.restore("soak")
            await client.close()
            return report, restored, service_snapshot(service)

        report, restored, snap = run_service(
            scenario,
            store_backend="cluster",
            cluster_nodes=3,
            replication=2,
            faults=(
                "seed=13,backend.io_error=0.002,wire.drop=0.02,"
                "node.kill=node-1:400"
            ),
            stall_timeout_s=30.0,
            resume_grace_s=10.0,
            heartbeat_s=0.2,
        )
        # The whole point: a node died mid-backup, the wire dropped
        # connections, backends threw — and the restore is bit-exact.
        assert restored == data
        cluster = snap["store"]["cluster"]
        assert cluster["nodes_alive"] == 2
        assert cluster["nodes_died"] == 1
        assert cluster["repairs_auto"] >= 1
        assert "degraded_reads" in cluster
        # Fault accounting is surfaced alongside service metrics.
        assert snap["faults"]["spec"].startswith("seed=13")
        assert snap["faults"]["io_errors"] > 0 or snap["faults"]["kills"] == 1
        # Resume never re-ships acked frames: everything the client
        # replayed was still unacked, so the server-side transfer log
        # saw each unique chunk exactly once.
        log = report.transfer
        assert log.chunks_received == report.n_chunks - report.duplicate_chunks


# ----------------------------------------------------------------------
# fsync durability knob (satellite)
# ----------------------------------------------------------------------


class TestFsyncKnob:
    def test_explicit_fsync_counts(self, tmp_path):
        with PersistentBackend(tmp_path / "b", fsync=True) as b:
            assert b.fsync is True
            b.put_batch([(b"k1", b"v1")])
            b.flush()
            b.put_batch([(b"k2", b"v2")])
            b.flush()
            assert b.stats.fsyncs == 2

    def test_default_is_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FSYNC_ENV, raising=False)
        with PersistentBackend(tmp_path / "b") as b:
            assert b.fsync is False
            b.put_batch([(b"k", b"v")])
            b.flush()
            assert b.stats.fsyncs == 0

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("on", True), ("0", False), ("", False)],
    )
    def test_env_resolution(self, tmp_path, monkeypatch, value, expected):
        monkeypatch.setenv(FSYNC_ENV, value)
        with PersistentBackend(tmp_path / "b") as b:
            assert b.fsync is expected

    def test_explicit_arg_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FSYNC_ENV, "1")
        with PersistentBackend(tmp_path / "b", fsync=False) as b:
            assert b.fsync is False
