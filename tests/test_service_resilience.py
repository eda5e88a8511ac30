"""Resilience tests: client retry/resume under injected wire faults,
slow-client eviction, park expiry, drain-on-shutdown, the chaos soak,
the feeder-join deadline, and the fsync durability knob."""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.service import (
    NO_RETRY,
    AsyncBackupClient,
    BackupService,
    RetryPolicy,
    ServiceConfig,
)
from repro.service import client as client_mod
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
# feeder-thread join deadline (satellite)
# ----------------------------------------------------------------------


class _StuckShredder:
    """Pipeline that wedges (as if in native code) after one batch."""

    def __init__(self, hang_s: float):
        self.hang_s = hang_s

    def pipeline_batches(self, data, batch_chunks=None):
        yield "first"
        time.sleep(self.hang_s)
        yield "late"


class TestFeederJoin:
    def test_wedged_feeder_is_abandoned_with_warning(self, monkeypatch):
        monkeypatch.setattr(client_mod, "_FEED_JOIN_DEADLINE", 0.1)
        before = client_mod._abandoned_feeders

        async def scenario():
            agen = client_mod._feed(_StuckShredder(1.0), b"", None)
            assert await agen.__anext__() == "first"
            # Yield to the loop so the feeder's put() future resolves
            # and the thread advances into its (wedged) sleep.
            await asyncio.sleep(0.05)
            with pytest.warns(RuntimeWarning, match="feeder thread"):
                await agen.aclose()  # consumer bails; feeder is wedged

        asyncio.run(scenario())
        assert client_mod._abandoned_feeders == before + 1

    def test_prompt_feeder_joins_without_warning(self, recwarn):
        async def scenario():
            agen = client_mod._feed(_StuckShredder(0.0), b"", None)
            got = [item async for item in agen]
            assert got == ["first", "late"]

        asyncio.run(scenario())
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_end_of_stream_does_not_wait_out_the_put_poll(self):
        """The consumer is already waiting when the end marker lands, so
        it wakes before the feeder's put() future resolves.  Joining
        before that future resolves blocks the loop until put() polls
        ``stop`` (0.1 s)."""
        async def scenario():
            t0 = time.perf_counter()
            assert [item async for item in client_mod._feed(_StuckShredder(0.02), b"", None)] == [
                "first", "late"]
            return time.perf_counter() - t0

        assert asyncio.run(scenario()) < 0.1


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
