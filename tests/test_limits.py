"""Tests for overload protection: rate limits, quotas, auth, brownout,
the store-path circuit breaker, and the wire fields that carry them
(auth and purpose on HELLO, THROTTLE, typed overload errors)."""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core.hashing import chunk_hash
from repro.service import (
    AsyncBackupClient,
    AuthRegistry,
    BackupService,
    CircuitBreaker,
    RetryPolicy,
    ServiceConfig,
    ServiceLimits,
    TenantQuota,
    TokenBucket,
    auth_token,
)
from repro.service import protocol as wire
from repro.service.metrics import LATENCY_BUCKETS_S, LatencyHistogram, service_snapshot
from repro.service.protocol import Err, FrameConnection, Msg, ProtocolError, RemoteError
from repro.service.server import _Session

MB = 1 << 20


def run_service(fn, **config):
    async def main():
        async with BackupService(ServiceConfig(**config)) as service:
            return await fn(service)

    return asyncio.run(main())


async def connect(service, tenant="default", **kwargs):
    return await AsyncBackupClient.connect(
        "127.0.0.1", service.port, tenant=tenant, **kwargs
    )


def unique_payload(size: int, seed: int = 0) -> bytes:
    """Incompressible, dedup-proof bytes: every chunk ships."""
    return random.Random(seed).randbytes(size)


def dedup_payload(size: int, seed: int = 0) -> bytes:
    """Repeated blocks so some chunks dedup (pointers ship)."""
    rng = random.Random(seed)
    blocks = [rng.randbytes(16 * 1024) for _ in range(4)]
    out = []
    while sum(len(b) for b in out) < size:
        out.append(blocks[rng.randrange(len(blocks))])
    return b"".join(out)[:size]


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_within_burst_is_free(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, 200.0, clock=clock)
        assert bucket.charge(150) == 0.0
        assert bucket.debt_s == 0.0

    def test_overdraw_returns_repayment_delay(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, 100.0, clock=clock)
        assert bucket.charge(300) == pytest.approx(2.0)  # 200 tokens short
        assert bucket.debt_s == pytest.approx(2.0)

    def test_time_repays_debt(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, 100.0, clock=clock)
        bucket.charge(300)
        clock.advance(2.0)  # exactly repays the 200-token debt
        assert bucket.debt_s == 0.0
        clock.advance(0.5)  # banks 50 tokens of headroom
        assert bucket.charge(50) == 0.0

    def test_refill_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, 100.0, clock=clock)
        clock.advance(1000.0)
        # A long idle spell never banks more than one burst.
        assert bucket.charge(150) == pytest.approx(0.5)

    def test_refund_returns_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, 100.0, clock=clock)
        bucket.charge(300)
        bucket.refund(300)
        assert bucket.debt_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(10.0, 0.0)


class TestServiceLimits:
    def test_inert_without_rates(self):
        limits = ServiceLimits()
        assert not limits.active
        assert limits.charge("t", 1 << 30) == 0.0

    def test_delay_is_max_across_buckets(self):
        clock = FakeClock()
        limits = ServiceLimits(
            tenant_bytes_per_s=100.0,
            global_bytes_per_s=1000.0,
            burst_s=1.0,
            clock=clock,
        )
        # 300 bytes: within the global burst, 200 over the tenant's.
        assert limits.charge("t", 300) == pytest.approx(2.0)

    def test_tenants_get_independent_buckets(self):
        clock = FakeClock()
        limits = ServiceLimits(tenant_bytes_per_s=100.0, burst_s=1.0, clock=clock)
        assert limits.charge("a", 100) == 0.0
        assert limits.charge("b", 100) == 0.0  # b's bucket is untouched

    def test_global_bucket_is_shared(self):
        clock = FakeClock()
        limits = ServiceLimits(global_bytes_per_s=100.0, burst_s=1.0, clock=clock)
        limits.charge("a", 100)
        assert limits.charge("b", 100) == pytest.approx(1.0)

    def test_refund_undoes_charge(self):
        clock = FakeClock()
        limits = ServiceLimits(tenant_bytes_per_s=100.0, burst_s=1.0, clock=clock)
        limits.charge("t", 300)
        limits.refund("t", 300)
        assert limits.charge("t", 100) == 0.0

    def test_describe_reports_rates(self):
        limits = ServiceLimits(tenant_bytes_per_s=5.0, global_ops_per_s=7.0)
        doc = limits.describe()
        assert doc["tenant_bytes_per_s"] == 5.0
        assert doc["global_ops_per_s"] == 7.0


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------


class TestQuota:
    def test_deny_reasons(self):
        quota = TenantQuota(max_bytes=1000, max_chunks=10)
        assert quota.deny_reason(900, 9, 50, 1) is None
        assert quota.deny_reason(900, 9, 100, 1) is None
        assert "byte quota" in quota.deny_reason(900, 9, 200, 1)
        assert "chunk quota" in quota.deny_reason(900, 9, 50, 2)

    def test_inactive_quota_denies_nothing(self):
        quota = TenantQuota()
        assert not quota.active
        assert quota.deny_reason(0, 0, 1 << 40, 1 << 20) is None
        assert quota.deny_reason(1 << 40, 1 << 20, 1 << 40, 1 << 20) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_bytes=0)


# ----------------------------------------------------------------------
# authentication
# ----------------------------------------------------------------------


class TestAuth:
    def test_token_is_deterministic_hmac(self):
        assert auth_token("s", "t") == auth_token("s", "t")
        assert auth_token("s", "t") != auth_token("s", "u")
        assert auth_token("s", "t") != auth_token("x", "t")

    def test_verify(self):
        registry = AuthRegistry({"acme": "s3cret"})
        assert registry.verify("acme", auth_token("s3cret", "acme"))
        assert not registry.verify("acme", auth_token("wrong", "acme"))
        # Unknown tenant gets the same answer as a bad token.
        assert not registry.verify("ghost", auth_token("s3cret", "ghost"))

    def test_load_file_formats(self, tmp_path):
        path = tmp_path / "auth"
        path.write_text(
            "# comment\n\nacme: s3cret\nbeta = hunter2\n  gamma:spaced  \n"
        )
        registry = AuthRegistry.load(path)
        assert len(registry) == 3
        assert registry.token("beta") == auth_token("hunter2", "beta")

    @pytest.mark.parametrize(
        "text", ["nosecret\n", "acme:\n", "a: x\na: y\n", ""]
    )
    def test_load_rejects_bad_files(self, tmp_path, text):
        path = tmp_path / "auth"
        path.write_text(text)
        with pytest.raises(ValueError):
            AuthRegistry.load(path)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, 1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.opens == 1
        assert breaker.retry_after() == pytest.approx(1.0)

    def test_success_resets_the_streak(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, 1.0, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_allows_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else still waits

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.retry_after() == 0.0

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)
        with pytest.raises(ValueError):
            CircuitBreaker(1, 0.0)


# ----------------------------------------------------------------------
# HELLO / THROTTLE codec
# ----------------------------------------------------------------------


class TestCodecV3:
    def test_hello_carries_auth_and_purpose(self):
        payload = wire.encode_hello(
            "acme", auth="deadbeef", purpose=wire.PURPOSE_RESTORE
        )
        assert wire.decode_hello(payload) == (
            wire.PROTOCOL_VERSION, "acme", "deadbeef", wire.PURPOSE_RESTORE,
        )

    def test_unknown_purpose_rejected(self):
        payload = wire.encode_hello("t")[:-1] + bytes([7])
        with pytest.raises(ProtocolError, match="purpose"):
            wire.decode_hello(payload)

    def test_throttle_round_trip(self):
        retry_after, reason = wire.decode_throttle(
            wire.encode_throttle(1.5, "rate limit")
        )
        assert retry_after == pytest.approx(1.5)
        assert reason == "rate limit"

    def test_throttle_clamps_negative(self):
        assert wire.decode_throttle(wire.encode_throttle(-3.0))[0] == 0.0


# ----------------------------------------------------------------------
# latency histograms
# ----------------------------------------------------------------------


class TestLatencyHistogram:
    def test_buckets_by_bound(self):
        hist = LatencyHistogram()
        hist.observe(0.0005)   # <= 1 ms bucket
        hist.observe(0.02)     # <= 31.6 ms bucket
        hist.observe(99.0)     # overflow
        doc = hist.as_dict()
        assert doc["count"] == 3
        assert doc["le_1ms"] == 1
        assert doc["le_31.6ms"] == 1
        assert doc["overflow"] == 1
        assert doc["max_ms"] == pytest.approx(99_000.0)
        assert sum(hist.buckets) == 3
        assert len(hist.buckets) == len(LATENCY_BUCKETS_S) + 1


# ----------------------------------------------------------------------
# service integration: auth
# ----------------------------------------------------------------------


@pytest.fixture()
def auth_file(tmp_path):
    path = tmp_path / "auth"
    path.write_text("acme: s3cret\nbeta: hunter2\n")
    return str(path)


class TestServiceAuth:
    def test_good_token_admits(self, auth_file):
        async def scenario(service):
            client = await connect(
                service, "acme", auth=auth_token("s3cret", "acme")
            )
            await client.backup(b"d" * 50_000, "snap")
            restored = await client.restore("snap")
            await client.close()
            return restored

        assert run_service(scenario, auth_file=auth_file) == b"d" * 50_000

    def test_bad_token_unauthorized(self, auth_file):
        async def scenario(service):
            with pytest.raises(RemoteError) as err:
                await connect(service, "acme", auth=auth_token("wrong", "acme"))
            return err.value.code, service.metrics.auth_failures

        code, failures = run_service(scenario, auth_file=auth_file)
        assert code is Err.UNAUTHORIZED and failures == 1

    def test_unknown_tenant_same_answer(self, auth_file):
        async def scenario(service):
            with pytest.raises(RemoteError) as err:
                await connect(
                    service, "ghost", auth=auth_token("s3cret", "ghost")
                )
            return err.value.code

        assert run_service(scenario, auth_file=auth_file) is Err.UNAUTHORIZED

    def test_missing_token_unauthorized(self, auth_file):
        async def scenario(service):
            with pytest.raises(RemoteError) as err:
                await connect(service, "acme")
            return err.value.code

        assert run_service(scenario, auth_file=auth_file) is Err.UNAUTHORIZED


# ----------------------------------------------------------------------
# service integration: quotas
# ----------------------------------------------------------------------


class TestServiceQuota:
    def test_byte_quota_refused_before_landing(self):
        data = unique_payload(100_000, seed=1)

        async def scenario(service):
            client = await connect(service, "acme")
            with pytest.raises(RemoteError) as err:
                await client.backup(data, "big")
            usage = service.registry.get("acme").usage
            return err.value.code, usage.stored_bytes, service.metrics

        code, stored, metrics = run_service(scenario, quota_bytes=10_000)
        assert code is Err.QUOTA_EXCEEDED
        assert metrics.quota_rejections >= 1
        # Whatever landed before the refusing frame stays under the cap.
        assert stored <= 10_000

    def test_session_quota_per_tenant(self):
        async def scenario(service):
            a1 = await connect(service, "acme")
            with pytest.raises(RemoteError) as err:
                await connect(service, "acme")
            # Another tenant is not affected by acme's quota.
            b1 = await connect(service, "beta")
            await a1.close()
            await b1.close()
            return err.value.code, service.metrics.quota_rejections

        code, rejections = run_service(scenario, quota_sessions=1)
        assert code is Err.QUOTA_EXCEEDED and rejections == 1

    def test_usage_accounting_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        first_data = unique_payload(40_000, seed=2)

        async def first(service):
            client = await connect(service, "acme")
            report = await client.backup(first_data, "gen1")
            await client.close()
            return report, service.registry.get("acme").usage.as_dict()

        report1, usage1 = run_service(
            first, backend="disk", data_dir=data_dir, quota_bytes=60_000
        )
        assert usage1["stored_bytes"] == report1.shipped_bytes > 0

        async def second(service):
            usage = service.registry.get("acme").usage
            reopened = usage.as_dict()
            client = await connect(service, "acme")
            # The reopened account + this payload busts the cap: the
            # tenant cannot launder quota through a restart.
            with pytest.raises(RemoteError) as err:
                await client.backup(unique_payload(40_000, seed=3), "gen2")
            return reopened, err.value.code, usage.stored_bytes

        reopened, code, stored = run_service(
            second, backend="disk", data_dir=data_dir, quota_bytes=60_000
        )
        assert reopened == usage1
        assert code is Err.QUOTA_EXCEEDED
        assert stored <= 60_000

    def test_one_payload_shipped_twice_is_charged_once(self):
        """Usage counts what the tenant's index holds: a payload shipped
        in two CHUNK_BATCH frames of one snapshot is one chunk."""
        payload = unique_payload(30_000, seed=12)
        digest = chunk_hash(payload)

        async def scenario(service):
            client = await connect(service, "acme")
            await client.begin_snapshot("twice")
            await client.ship_chunks([(digest, payload)])
            await client.ship_chunks([(digest, payload)])
            await client.finish_snapshot("twice")
            restored = await client.restore("twice")
            await client.close()
            return restored, service.registry.get("acme").usage.as_dict()

        restored, usage = run_service(scenario)
        assert restored == payload + payload
        assert usage == {"stored_bytes": len(payload), "chunks": 1}

    def test_reship_at_the_cap_is_accepted(self):
        """The quota counts only digests the tenant's index lacks: a
        tenant at its byte cap may re-ship a payload it holds, and is
        still refused a new one."""
        payload = unique_payload(30_000, seed=13)
        digest = chunk_hash(payload)
        other = unique_payload(1_000, seed=14)

        async def scenario(service):
            client = await connect(service, "acme")
            for snapshot_id in ("first", "again"):
                await client.begin_snapshot(snapshot_id)
                await client.ship_chunks([(digest, payload)])
                await client.finish_snapshot(snapshot_id)
            restored = await client.restore("again")
            usage = service.registry.get("acme").usage.as_dict()
            await client.begin_snapshot("new")
            with pytest.raises(RemoteError) as err:
                await client.ship_chunks([(chunk_hash(other), other)])
            await client.close()
            return restored, usage, err.value.code

        restored, usage, code = run_service(scenario, quota_bytes=30_000)
        assert restored == payload
        assert usage == {"stored_bytes": 30_000, "chunks": 1}
        assert code is Err.QUOTA_EXCEEDED

    def test_accounting_is_exactly_once_across_resume(self):
        """Re-shipped frames after reconnects never double-charge: the
        durable account matches the one-delivery report exactly."""
        data = dedup_payload(1 * MB, seed=11)
        retry = RetryPolicy(
            attempts=8, base_delay_s=0.01, max_delay_s=0.1,
            op_timeout_s=5.0, max_recoveries=500,
        )

        async def scenario(service):
            client = await connect(service, "acme", retry=retry)
            report = await client.backup(data, "chaos", batch_chunks=4)
            restored = await client.restore("chaos")
            await client.close()
            usage = service.registry.get("acme").usage
            return report, restored, usage.as_dict()

        report, restored, usage = run_service(
            scenario, faults="seed=7,wire.drop=0.05", resume_grace_s=10.0
        )
        assert restored == data
        assert report.resumes > 0 and report.replayed_frames > 0
        assert usage["stored_bytes"] == report.shipped_bytes
        assert usage["chunks"] == report.n_chunks - report.duplicate_chunks


# ----------------------------------------------------------------------
# service integration: rate limiting
# ----------------------------------------------------------------------


class TestServiceRateLimit:
    def test_over_rate_traffic_is_throttled_not_dropped(self):
        data = unique_payload(500_000, seed=4)

        async def scenario(service):
            client = await connect(service, "acme")
            report = await client.backup(data, "paced")
            restored = await client.restore("paced")
            await client.close()
            return report, restored, service.metrics

        report, restored, metrics = run_service(
            scenario,
            rate_bytes_per_s=150_000.0,  # burst 300 KB < the payload
            shed_debt_s=60.0,            # pace, never shed
        )
        assert restored == data  # paced, but every byte landed
        assert metrics.throttles_sent > 0
        assert metrics.retry_later_sent == 0
        assert report.throttles > 0  # client saw and absorbed the hints

    def test_sustained_abuse_is_shed_with_retry_later(self):
        async def scenario(service):
            client = await connect(service, "acme")
            await client.begin_snapshot("flooded")
            payload = unique_payload(100_000, seed=5)
            with pytest.raises(RemoteError) as err:
                await client.ship_chunks([(chunk_hash(payload), payload)])
            return err.value.code, service.metrics

        code, metrics = run_service(
            scenario, rate_bytes_per_s=1_000.0, shed_debt_s=5.0
        )
        assert code is Err.RETRY_LATER
        assert metrics.retry_later_sent == 1


# ----------------------------------------------------------------------
# service integration: admission + handshake deadline
# ----------------------------------------------------------------------


def v3_hello(tenant: str) -> bytes:
    """A HELLO as a protocol-3 peer lays it out: a client-name field
    between tenant and auth."""
    def field(text: str) -> bytes:
        return len(text).to_bytes(2, "big") + text.encode()

    return (3).to_bytes(2, "big") + field(tenant) + field("agent") + field("") + b"\0"


async def send_v3_hello(service) -> tuple[Msg, Err, bytes]:
    """Dial raw, send a protocol-3 HELLO: the reply frame, its error
    code, and what the connection carried after it."""
    conn = await FrameConnection.open("127.0.0.1", service.port, wire.DEFAULT_MAX_FRAME)
    await conn.send(wire.MAGIC + wire.encode_frame(Msg.HELLO, v3_hello("acme")))
    msg, payload = await conn.recv()
    try:
        rest = await asyncio.wait_for(conn.recv_raw(), 1.0)
    except asyncio.IncompleteReadError as eof:
        rest = eof.partial
    conn.close()
    return msg, wire.decode_error(payload)[0], rest


class TestAdmission:
    def test_v3_hello_gets_version_mismatch(self):
        msg, code, rest = run_service(send_v3_hello)
        assert msg is Msg.ERROR and code is Err.VERSION_MISMATCH
        assert rest == b""  # refused and closed, nothing garbled after

    def test_stale_hello_never_holds_a_session_slot(self):
        async def scenario(service):
            await send_v3_hello(service)
            # The only slot is still free for a current peer.
            client = await connect(service, "acme")
            listing = await client.list_snapshots()
            await client.close()
            return listing, service.metrics

        listing, metrics = run_service(scenario, max_sessions=1)
        assert listing == []
        assert metrics.sessions_total == 1  # the current peer's alone
        assert metrics.sessions_rejected == 0

    def test_restore_traffic_sheds_last(self):
        async def scenario(service):
            first = await connect(service, "acme")
            # The one unreserved slot is taken: backups now shed...
            with pytest.raises(RemoteError) as err:
                await connect(service, "acme")
            # ...but a restore-purpose session still gets in.
            restorer = await connect(
                service, "acme", purpose=wire.PURPOSE_RESTORE
            )
            listing = await restorer.list_snapshots()
            await first.close()
            await restorer.close()
            return err.value.code, listing, service.metrics

        code, listing, metrics = run_service(
            scenario, max_sessions=2, restore_reserve=1
        )
        assert code is Err.BUSY and listing == []
        assert metrics.sessions_shed == 1

    def test_preauth_deadline_evicts_silent_connections(self):
        async def scenario(service):
            # One connection never speaks; one sends only the magic.
            silent = await asyncio.open_connection("127.0.0.1", service.port)
            magic_only = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            magic_only[1].write(wire.MAGIC)
            await magic_only[1].drain()
            for _ in range(100):
                if service.metrics.preauth_evictions >= 2:
                    break
                await asyncio.sleep(0.02)
            # Evicted connections never held a session slot; a real
            # client still gets straight in.
            client = await connect(service, "acme")
            await client.close()
            for _, writer in (silent, magic_only):
                writer.close()
            return service.metrics

        metrics = run_service(scenario, hello_timeout_s=0.1, max_sessions=1)
        assert metrics.preauth_evictions == 2
        assert metrics.sessions_total == 1


# ----------------------------------------------------------------------
# service integration: brownout + breaker
# ----------------------------------------------------------------------


class _FrameSink:
    """Connection double that collects frames the session sends."""

    def __init__(self) -> None:
        self.buffer = b""

    async def send(self, data) -> None:
        self.buffer += bytes(data)

    def frames(self) -> list[tuple[Msg, bytes]]:
        out, buf = [], self.buffer
        while buf:
            size = int.from_bytes(buf[1:5], "big")
            out.append((Msg(buf[0]), buf[5 : 5 + size]))
            buf = buf[5 + size :]
        return out


class TestBrownout:
    def test_enter_brownout_narrows_new_windows(self):
        async def scenario(service):
            before = await connect(service, "acme")
            service.enter_brownout(hold_s=30.0)
            during = await connect(service, "beta")
            doc = service_snapshot(service)
            await before.close()
            await during.close()
            return before.window, during.window, doc, service.metrics

        wide, narrow, doc, metrics = run_service(scenario, window=4)
        assert wide == 4 and narrow == 1
        assert doc["service"]["brownout_active"] is True
        assert metrics.brownouts == 1

    def test_event_loop_lag_enters_brownout(self):
        """The monitor behind ``repro serve --brownout-lag``: a loop
        blocked past the lag threshold browns the service out, and the
        next session is handed a window of 1."""

        async def scenario(service):
            await asyncio.sleep(0.1)  # let the monitor start ticking
            time.sleep(0.3)  # block the loop well past brownout_lag_s
            await asyncio.sleep(0.1)  # the monitor wakes late and sees it
            client = await connect(service, "acme")
            await client.close()
            return client.window, service.metrics

        window, metrics = run_service(scenario, window=4, brownout_lag_s=0.1)
        assert metrics.brownouts == 1
        assert window == 1

    def test_monitor_runs_only_with_a_lag_threshold(self):
        async def scenario(service):
            return service._brownout_task is not None

        assert run_service(scenario) is False
        assert run_service(scenario, brownout_lag_s=0.5) is True

    def test_backup_still_correct_while_browned_out(self):
        data = dedup_payload(512 * 1024, seed=9)

        async def scenario(service):
            service.enter_brownout(hold_s=30.0)
            client = await connect(service, "acme")
            report = await client.backup(data, "dim")
            restored = await client.restore("dim")
            await client.close()
            return report, restored

        report, restored = run_service(scenario)
        assert restored == data and report.n_chunks > 0


class TestDecide:
    def test_decide_points_only_within_a_frame(self):
        """A repeat inside one frame is a pointer; a repeat of a miss
        from an earlier frame ships (its payload has not landed, so the
        tenant index does not hold it)."""
        x, y, z = (bytes([i]) * 32 for i in range(3))
        frames = [[x, y, x], [x, z, z]]

        async def scenario(service):
            namespace = service.registry.get("acme")
            sink = _FrameSink()
            session = _Session(service, namespace, sink)
            session.open_scoped = namespace.scoped_id("s")
            for frame in frames:
                await session._on_digest_batch(
                    wire.encode_digest_batch(frame, [100] * len(frame))
                )
            return [wire.decode_digest_reply(p) for _, p in sink.frames()]

        assert run_service(scenario) == [[False, False, True], [False, False, True]]


    def test_brownout_decides_like_normal_service(self):
        """Browned out or not, decide frames are answered one at a time,
        in order, with the same replies."""
        x, y, z = (bytes([i]) * 32 for i in range(3))
        frames = [[x, y, x], [x, z, z], [y, y]]
        payloads = [wire.encode_digest_batch(f, [100] * len(f)) for f in frames]

        async def scenario(service):
            replies = []
            for tenant, brownout in (("acme", False), ("beta", True)):
                if brownout:
                    service.enter_brownout(hold_s=30.0)
                namespace = service.registry.get(tenant)
                sink = _FrameSink()
                session = _Session(service, namespace, sink)
                session.open_scoped = namespace.scoped_id("s")
                for payload in payloads:
                    await session._dispatch(Msg.DIGEST_BATCH, payload)
                replies.append(
                    [
                        wire.decode_digest_reply(payload)
                        for msg, payload in sink.frames()
                        if msg is Msg.DIGEST_REPLY
                    ]
                )
            return replies

        normal, browned_out = run_service(scenario)
        assert normal == browned_out == [
            [False, False, True],
            [False, False, True],
            [False, True],
        ]

class TestBreaker:
    def test_store_failures_open_breaker_and_fastfail(self):
        data = b"b" * 50_000

        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(data, "snap")

            def dead_restore(scoped):
                raise OSError("disk died")

            service.store.restore = dead_restore
            with pytest.raises(RemoteError) as first:
                await client.restore("snap")
            # The breaker is now open: the next session's store frame
            # fast-fails without touching the store at all.
            second_client = await connect(service, "acme")
            with pytest.raises(RemoteError) as second:
                await second_client.restore("snap")
            return first.value, second.value, service.metrics

        first, second, metrics = run_service(
            scenario, breaker_threshold=1, breaker_cooldown_s=30.0
        )
        assert first.code is Err.RETRY_LATER and "store failure" in str(first)
        assert second.code is Err.RETRY_LATER and "retry in" in str(second)
        assert metrics.breaker_opens == 1
        assert metrics.breaker_fastfails >= 1

    def test_breaker_off_keeps_internal_error_path(self):
        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(b"x" * 20_000, "snap")

            def dead_restore(scoped):
                raise OSError("disk died")

            service.store.restore = dead_restore
            with pytest.raises(RemoteError) as err:
                await client.restore("snap")
            return err.value.code, service.metrics

        code, metrics = run_service(scenario)
        assert code is Err.INTERNAL
        assert metrics.breaker_fastfails == 0


# ----------------------------------------------------------------------
# service integration: observability
# ----------------------------------------------------------------------


class TestOverloadObservability:
    def test_latency_histograms_populate(self):
        data = dedup_payload(512 * 1024, seed=8)

        async def scenario(service):
            client = await connect(service, "acme")
            await client.backup(data, "snap")
            # The identical bytes again: every chunk dedups, so the
            # second generation ships pointers.
            await client.backup(data, "snap2")
            await client.close()
            return service_snapshot(service)

        doc = run_service(scenario)
        latency = doc["service"]["latency"]
        assert latency["decide"]["count"] > 0
        assert latency["chunk"]["count"] > 0
        assert latency["pointer"]["count"] > 0
        assert latency["chunk"]["mean_ms"] >= 0.0

    def test_snapshot_carries_limits_quota_breaker(self, tmp_path):
        auth = tmp_path / "auth"
        auth.write_text("acme: s\n")

        async def scenario(service):
            return service_snapshot(service)

        doc = run_service(
            scenario,
            auth_file=str(auth),
            rate_bytes_per_s=1000.0,
            quota_bytes=5000,
            breaker_threshold=4,
        )
        assert doc["limits"]["tenant_bytes_per_s"] == 1000.0
        assert doc["quota"]["max_bytes"] == 5000
        assert doc["breaker"]["state"] == "closed"
        assert doc["service"]["brownout_active"] is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(rate_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(quota_bytes=0)
        with pytest.raises(ValueError):
            ServiceConfig(restore_reserve=5, max_sessions=4)
        with pytest.raises(ValueError):
            ServiceConfig(hello_timeout_s=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            ServiceConfig(shed_debt_s=0.0)
