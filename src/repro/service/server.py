"""The asyncio backup service: multi-tenant daemon over the wire API.

Serves the agent protocol (:mod:`repro.service.protocol`) on one
listening socket; each accepted socket is one ``FrameConnection``, so
frames land in place.  Connections self-identify in the first five
bytes: the ``SHRD1`` magic starts an agent session, an HTTP verb gets
the health/metrics surface, anything else is dropped with one ERROR
frame.

**Backpressure is structural, not advisory.**  Each agent connection
is one coroutine that receives a frame, admits it, handles it and only
then receives the next.  While it handles a frame it does not read the
socket, so when the store falls behind the kernel buffers fill and TCP
flow control pushes back on the client; nothing server-side buffers
more than the one frame in hand.  The stall clock of slow-client
eviction runs only while the session waits on the client.

**Admission control**: at most ``max_sessions`` concurrent agent
sessions; excess HELLOs receive ``ERROR[BUSY]`` and a clean close.

**Store discipline**: all index/store mutations run on the event-loop
thread — the service is the paper's single Store thread, made explicit;
concurrency lives in the sockets, the clients' local chunk+hash
pipelines, and the batched shapes of every store call.  Dedup decisions
are tenant-scoped (see :mod:`repro.service.tenant`); payloads and
recipes live on the shared single-node store or cluster, so a server
restarted on the same ``data_dir`` resumes serving the same snapshots.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from dataclasses import dataclass
from itertools import accumulate

from repro.backup.agent import ShredderAgent
from repro.backup.site import SiteConfig, open_site
from repro.faults import FAULTS_ENV, FaultPlan
from repro.service import protocol as wire
from repro.service.limits import (
    AuthRegistry,
    CircuitBreaker,
    ServiceLimits,
    TenantQuota,
)
from repro.service.metrics import (
    ServiceMetrics,
    render_json,
    render_text,
    service_snapshot,
)
from repro.service.protocol import Err, FrameConnection, Msg
from repro.service.tenant import TenantRegistry
from repro.store.health import HealthPolicy

__all__ = ["ServiceConfig", "BackupService"]

#: How long a brownout holds after its last trigger (seconds).
_BROWNOUT_HOLD_S = 2.0


@dataclass(frozen=True)
class ServiceConfig(SiteConfig):
    """Backup-service configuration: the site fields of
    :class:`~repro.backup.site.SiteConfig` plus the service's own below
    (each tenant's index persists under ``data_dir/tenants/<name>``)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``service.port``).
    port: int = 0
    #: Stored items the cluster's background scrubber re-verifies per
    #: heartbeat (0 disables; needs the cluster and ``heartbeat_s``).
    scrub_batch: int = 0
    #: Concurrent agent sessions admitted before ERROR[BUSY].
    max_sessions: int = 64
    #: In-flight unacked batches the server advertises to clients.
    window: int = 4
    max_frame: int = wire.DEFAULT_MAX_FRAME
    #: RESTORE_DATA piece size.
    restore_piece: int = 1 << 20
    #: Chaos plan spec (see :mod:`repro.faults`); ``None`` follows the
    #: ``REPRO_FAULTS`` env var, ``""`` forces faults off.
    faults: str | None = None
    #: Evict a session that sends no frame for this long (seconds);
    #: ``None`` disables slow-client eviction.
    stall_timeout_s: float | None = None
    #: How long an interrupted mid-backup session stays parked for
    #: RESUME before its snapshot is aborted; 0 disables parking.
    resume_grace_s: float = 30.0
    #: On shutdown, wait up to this long for sessions with open
    #: snapshots to finish before cancelling them.
    drain_s: float = 5.0
    #: Cluster heartbeat period (seconds); ``None`` disables the beat.
    #: Only meaningful with ``store_backend="cluster"``.
    heartbeat_s: float | None = None
    #: Shared-secret auth file (``tenant: secret`` lines); ``None``
    #: serves anonymously.
    auth_file: str | None = None
    #: Per-tenant rate limits (``None`` = unlimited): sustained inbound
    #: payload bytes/s and data-frame ops/s, enforced with THROTTLE
    #: pacing first and RETRY_LATER shedding past ``shed_debt_s``.
    rate_bytes_per_s: float | None = None
    rate_ops_per_s: float | None = None
    #: Whole-service rate ceilings shared by every tenant.
    global_bytes_per_s: float | None = None
    global_ops_per_s: float | None = None
    #: A frame whose pacing debt would exceed this many seconds is shed
    #: (typed RETRY_LATER + park) instead of paced.
    shed_debt_s: float = 5.0
    #: Per-tenant hard quotas (``None`` = unlimited): stored payload
    #: bytes, stored chunk count, concurrent sessions.
    quota_bytes: int | None = None
    quota_chunks: int | None = None
    quota_sessions: int | None = None
    #: Session slots held back from backup traffic so restores — a
    #: tenant trying to get data *back* — always shed last; 0 disables.
    restore_reserve: int = 0
    #: Pre-auth deadline: a connection must deliver magic + HELLO
    #: within this many seconds or it is dropped without ever holding a
    #: session slot; ``None`` disables.
    hello_timeout_s: float | None = 5.0
    #: Brownout trigger: event-loop lag in seconds (``None`` = no
    #: monitor task).
    brownout_lag_s: float | None = None
    #: Store-path circuit breaker: consecutive store failures before it
    #: opens (``None`` disables), and the open-state cooldown.
    breaker_threshold: int | None = None
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.restore_piece < 1:
            raise ValueError("restore_piece must be >= 1")
        if self.stall_timeout_s is not None and self.stall_timeout_s <= 0:
            raise ValueError("stall_timeout_s must be positive (or None)")
        if self.resume_grace_s < 0:
            raise ValueError("resume_grace_s must be >= 0")
        if self.drain_s < 0:
            raise ValueError("drain_s must be >= 0")
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive (or None)")
        if self.scrub_batch < 0:
            raise ValueError("scrub_batch must be >= 0")
        if self.scrub_batch and (not self.clustered or self.heartbeat_s is None):
            raise ValueError("scrub_batch needs store_backend='cluster' and heartbeat_s")
        for name in (
            "rate_bytes_per_s",
            "rate_ops_per_s",
            "global_bytes_per_s",
            "global_ops_per_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")
        if self.shed_debt_s <= 0:
            raise ValueError("shed_debt_s must be positive")
        for name in ("quota_bytes", "quota_chunks", "quota_sessions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None)")
        if not 0 <= self.restore_reserve < self.max_sessions:
            raise ValueError("restore_reserve must be in [0, max_sessions)")
        if self.hello_timeout_s is not None and self.hello_timeout_s <= 0:
            raise ValueError("hello_timeout_s must be positive (or None)")
        if self.brownout_lag_s is not None and self.brownout_lag_s <= 0:
            raise ValueError("brownout_lag_s must be positive (or None)")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None)")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")


@dataclass
class _Parked:
    """An interrupted session's open snapshot, waiting for RESUME."""

    scoped: str
    tenant: str
    applied_frames: int
    handle: asyncio.TimerHandle


class SessionError(Exception):
    """Protocol-level failure inside a session; carries the wire code."""

    def __init__(self, code: Err, message: str, *, fatal: bool = False) -> None:
        super().__init__(message)
        self.code = code
        #: Fatal errors close the connection after the ERROR frame
        #: (corrupted payloads mean an untrustworthy peer) and park or
        #: abort its open snapshot; non-fatal ones leave the session
        #: usable.
        self.fatal = fatal


class BackupService:
    """Long-running multi-tenant backup daemon."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = cfg = config or ServiceConfig()
        spec = cfg.faults
        if spec is None:
            spec = os.environ.get(FAULTS_ENV, "").strip()
        self.fault_plan = FaultPlan.parse(spec) if spec else None
        self.store = open_site(
            cfg,
            fault_plan=self.fault_plan,
            health=HealthPolicy(scrub_batch=cfg.scrub_batch),
        )
        self.storage_kind = self.store.backend_kind
        self.agent = ShredderAgent(store=self.store)
        self.registry = TenantRegistry(
            backend=self.storage_kind, data_dir=cfg.data_dir
        )
        self.metrics = ServiceMetrics()
        self.auth = (
            AuthRegistry.load(cfg.auth_file) if cfg.auth_file else None
        )
        self.limits = ServiceLimits(
            tenant_bytes_per_s=cfg.rate_bytes_per_s,
            tenant_ops_per_s=cfg.rate_ops_per_s,
            global_bytes_per_s=cfg.global_bytes_per_s,
            global_ops_per_s=cfg.global_ops_per_s,
        )
        self.quota = TenantQuota(
            max_bytes=cfg.quota_bytes,
            max_chunks=cfg.quota_chunks,
            max_sessions=cfg.quota_sessions,
        )
        self.breaker = (
            CircuitBreaker(cfg.breaker_threshold, cfg.breaker_cooldown_s)
            if cfg.breaker_threshold is not None
            else None
        )
        #: Brownout: while ``time.monotonic() < _brownout_until`` the
        #: service defers scrubbing and hands new sessions a window of 1.
        self._brownout_until = 0.0
        self._brownout_task: asyncio.Task | None = None
        self._listener: socket.socket | None = None
        self._accepting: asyncio.Task | None = None
        self._session_seq = 0
        self._conn_seq = 0
        self._active_sessions = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._sessions: set["_Session"] = set()
        #: Interrupted mid-backup sessions keyed by resume token, each
        #: holding its open snapshot until RESUME or grace expiry.
        self._parked: dict[str, _Parked] = {}
        self._heartbeat_task: asyncio.Task | None = None
        self._closed = False
        self.port: int | None = cfg.port if cfg.port else None

    # -- lifecycle -----------------------------------------------------

    @property
    def tenants(self):
        return iter(self.registry)

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is then concrete."""
        if self._listener is not None:
            raise RuntimeError("service already started")
        cfg = self.config
        family = socket.AF_INET6 if ":" in cfg.host else socket.AF_INET
        self._listener = socket.create_server((cfg.host, cfg.port), family=family)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._accepting = asyncio.create_task(self._accept_loop())
        if cfg.heartbeat_s is not None and cfg.clustered:
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        if self.config.brownout_lag_s is not None:
            self._brownout_task = asyncio.create_task(self._brownout_monitor())

    async def stop(self, drain_s: float | None = None) -> None:
        """Stop accepting, drain, drop connections, close state owners.

        Drain-on-shutdown: sessions with an open snapshot get up to
        ``drain_s`` (default from config) to finish before they are
        cancelled — a SIGTERM mid-backup prefers a finished snapshot
        over a parked one.  Idle connections are not waited for.
        """
        for attr in ("_heartbeat_task", "_brownout_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        if self._listener is not None:
            self._accepting.cancel()
            await asyncio.gather(self._accepting, return_exceptions=True)
            self._listener.close()
            self._listener = None
        drain = self.config.drain_s if drain_s is None else drain_s
        if drain > 0 and self._busy_sessions():
            loop = asyncio.get_running_loop()
            deadline = loop.time() + drain
            while self._busy_sessions() and loop.time() < deadline:
                await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.close()

    def _busy_sessions(self) -> int:
        """Sessions mid-backup (an open snapshot = unfinished work)."""
        return sum(1 for s in self._sessions if s.open_scoped is not None)

    async def _heartbeat_loop(self) -> None:
        period = self.config.heartbeat_s
        while True:
            await asyncio.sleep(period)
            try:
                # Brownout defers the integrity-scrub slice: failure
                # detection/repair stays on the beat, background
                # re-verification yields its cycles to live traffic.
                self.store.heartbeat(scrub=not self.brownout_active)
            except Exception:  # noqa: BLE001 — the beat must outlive faults
                pass

    # -- brownout (graceful degradation) -------------------------------

    @property
    def brownout_active(self) -> bool:
        return time.monotonic() < self._brownout_until

    def enter_brownout(self, hold_s: float = _BROWNOUT_HOLD_S) -> None:
        """Degrade for ``hold_s``: defer scrubbing, advertise window=1 to
        new sessions.  Called by the monitor on event-loop lag; public
        for drills and ops."""
        if not self.brownout_active:
            self.metrics.add(brownouts=1)
        self._brownout_until = max(
            self._brownout_until, time.monotonic() + hold_s
        )

    async def _brownout_monitor(self) -> None:
        tick = 0.05
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(tick)
            if loop.time() - before - tick > self.config.brownout_lag_s:
                self.enter_brownout()

    def close(self) -> None:
        """Synchronous state teardown (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # Parked sessions die with the process: cancel their expiry
        # timers (the abort below covers their snapshots).
        for parked in self._parked.values():
            parked.handle.cancel()
        self._parked.clear()
        # Abort any sessions a dead connection left open: no recipe is
        # ever written for a half-shipped snapshot.
        for scoped in self.agent.open_snapshots:
            self.agent.abort_snapshot(scoped)
        self.registry.close()
        self.store.close()

    # -- session parking (mid-backup resume) ---------------------------

    def _park(self, session: "_Session") -> None:
        """Hold an interrupted session's snapshot for the grace window."""
        token = session.resume_token
        stale = self._parked.pop(token, None)
        if stale is not None:  # token reuse: the old hold is forfeit
            stale.handle.cancel()
        handle = asyncio.get_running_loop().call_later(
            self.config.resume_grace_s, self._expire_parked, token
        )
        self._parked[token] = _Parked(
            scoped=session.open_scoped,
            tenant=session.namespace.name,
            applied_frames=session.applied_frames,
            handle=handle,
        )
        session.open_scoped = None  # ownership moved to the parking lot
        self.metrics.add(sessions_parked=1)

    def _expire_parked(self, token: str) -> None:
        parked = self._parked.pop(token, None)
        if parked is None:
            return
        try:
            self.agent.abort_snapshot(parked.scoped)
        except ValueError:
            pass
        try:
            self.registry.get(parked.tenant).counters.snapshots_aborted += 1
        except ValueError:
            pass
        self.metrics.add(sessions_expired=1)

    async def __aenter__(self) -> "BackupService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection dispatch -------------------------------------------

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                sock, _ = await loop.sock_accept(self._listener)
                # Nagle + delayed ACK would stall small replies ~40 ms.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # reset before accept, or out of descriptors
                await asyncio.sleep(0.05)
                continue
            conn = FrameConnection(sock, self.config.max_frame)
            task = asyncio.create_task(self._on_connection(conn))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    async def _on_connection(self, conn: FrameConnection) -> None:
        self.metrics.add(connections_total=1, connections_active=1)
        try:
            try:
                # Pre-auth deadline: the 5 magic bytes must arrive fast
                # or the connection never gets near a session slot — a
                # slowloris that dials and sends nothing costs only a
                # parked socket for hello_timeout_s.
                first = await asyncio.wait_for(
                    conn.recv_raw(len(wire.MAGIC)), self.config.hello_timeout_s
                )
            except asyncio.TimeoutError:
                self.metrics.add(preauth_evictions=1)
                return
            if first == wire.MAGIC:
                await self._agent_session(conn)
            elif first[:4] in (b"GET ", b"HEAD", b"POST"):
                await self._http_request(first, conn)
            else:
                await self._send_error(
                    conn, Err.BAD_FRAME, "expected SHRD1 magic or HTTP"
                )
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer vanished; per-session cleanup already ran
        finally:
            self.metrics.add(connections_active=-1)
            conn.close()

    async def _send_frame(self, conn, msg: Msg, payload: bytes = b"") -> None:
        await conn.send(wire.encode_frame(msg, payload))
        self.metrics.add(frames_sent=1)

    async def _send_error(self, conn, code: Err, message: str) -> None:
        self.metrics.add(errors_sent=1)
        await self._send_frame(conn, Msg.ERROR, wire.encode_error(code, message))

    # -- agent sessions ------------------------------------------------

    async def _agent_session(self, conn: FrameConnection) -> None:
        cfg = self.config
        try:
            msg, payload = await asyncio.wait_for(conn.recv(), cfg.hello_timeout_s)
        except asyncio.TimeoutError:
            # Magic arrived but HELLO never did: drop pre-auth, the
            # connection never held a session slot.
            self.metrics.add(preauth_evictions=1)
            return
        except wire.ProtocolError as exc:
            # Garbage where the HELLO frame belongs (e.g. a flood
            # connection): one typed error, then the door closes.
            await self._send_error(conn, Err.BAD_FRAME, str(exc))
            return
        self.metrics.add(frames_received=1)
        if msg is not Msg.HELLO:
            await self._send_error(conn, Err.BAD_FRAME, "expected HELLO")
            return
        try:
            version, tenant_name, auth, purpose = wire.decode_hello(payload)
        except wire.ProtocolError as exc:
            await self._send_error(conn, Err.BAD_FRAME, str(exc))
            return
        if version != wire.PROTOCOL_VERSION:
            await self._send_error(
                conn,
                Err.VERSION_MISMATCH,
                f"server speaks protocol {wire.PROTOCOL_VERSION}, "
                f"client sent {version}",
            )
            return
        if self.auth is not None and not self.auth.verify(tenant_name, auth):
            self.metrics.add(auth_failures=1)
            await self._send_error(
                conn, Err.UNAUTHORIZED, "bad tenant or auth token"
            )
            return
        # Priority-aware shedding: backup traffic only gets the slots
        # left after the restore reserve; restores shed last.
        limit = cfg.max_sessions
        if purpose == wire.PURPOSE_BACKUP and cfg.restore_reserve > 0:
            limit = cfg.max_sessions - cfg.restore_reserve
        if self._active_sessions >= limit:
            self.metrics.add(sessions_rejected=1)
            if limit < cfg.max_sessions:
                self.metrics.add(sessions_shed=1)
            await self._send_error(
                conn,
                Err.BUSY,
                f"session limit {limit} reached",
            )
            return
        try:
            namespace = self.registry.get(tenant_name)
        except ValueError as exc:
            await self._send_error(conn, Err.BAD_TENANT, str(exc))
            return
        if (
            self.quota.max_sessions is not None
            and namespace.active_sessions >= self.quota.max_sessions
        ):
            self.metrics.add(quota_rejections=1)
            await self._send_error(
                conn,
                Err.QUOTA_EXCEEDED,
                f"tenant session quota {self.quota.max_sessions} reached",
            )
            return
        self._session_seq += 1
        self._conn_seq += 1
        session_id = f"{tenant_name}-{self._session_seq}"
        self._active_sessions += 1
        self.metrics.add(sessions_total=1, sessions_active=1)
        namespace.counters.sessions += 1
        namespace.active_sessions += 1
        session = _Session(self, namespace, conn)
        if self.fault_plan is not None:
            session.wire_faults = self.fault_plan.wire_injector(
                f"conn-{self._conn_seq}"
            )
        self._sessions.add(session)
        try:
            await self._send_frame(
                conn,
                Msg.HELLO_OK,
                wire.encode_hello_ok(
                    session_id,
                    # Brownout narrows new sessions to stop-and-wait.
                    1 if self.brownout_active else cfg.window,
                ),
            )
            await session.run()
        finally:
            self._active_sessions -= 1
            self.metrics.add(sessions_active=-1)
            namespace.active_sessions -= 1
            self._sessions.discard(session)
            session.release()

    # -- HTTP surface --------------------------------------------------

    async def _http_request(self, first: bytes, conn: FrameConnection) -> None:
        self.metrics.add(http_requests=1)
        head = bytearray(first)

        async def read_head() -> None:  # as much as one read-ahead holds
            while b"\r\n\r\n" not in head and len(head) < 4096:
                head.extend(await conn.recv_raw())

        try:
            await asyncio.wait_for(read_head(), timeout=5.0)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass  # answer whatever request line arrived
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split()
        target = parts[1] if len(parts) > 1 else "/"
        path, _, query = target.partition("?")
        if path == "/health":
            body = render_json(
                {
                    "status": "ok",
                    "sessions_active": self._active_sessions,
                    "port": self.port,
                    "store_backend": self.config.store_backend,
                    "backend": self.storage_kind,
                }
            )
            content_type = "application/json"
            status = "200 OK"
        elif path == "/metrics":
            snapshot = service_snapshot(self)
            if "format=text" in query:
                body = render_text(snapshot)
                content_type = "text/plain; charset=utf-8"
            else:
                body = render_json(snapshot)
                content_type = "application/json"
            status = "200 OK"
        else:
            body = b'{"error": "unknown path; try /health or /metrics"}'
            content_type = "application/json"
            status = "404 Not Found"
        await conn.send(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )


class _Session:
    """One agent connection, served by one coroutine (:meth:`run`): it
    is the connection's only reader and only writer."""

    def __init__(self, service: BackupService, namespace, conn: FrameConnection) -> None:
        self.service = service
        self.namespace = namespace
        self.conn = conn
        #: Scoped id of the one snapshot this session may have open.
        self.open_scoped: str | None = None
        #: Client-generated resume token from BEGIN/RESUME ("" = the
        #: client opted out of parking).
        self.resume_token: str = ""
        #: Ship frames (CHUNK_BATCH / POINTER_BATCH) fully applied for
        #: the open snapshot — the resume high-water mark.
        self.applied_frames: int = 0
        #: Reader verdict: True only for an EOF on a frame boundary (a
        #: deliberate close — abandon, don't park).
        self.clean_eof: bool = False
        #: Per-connection chaos injector (None when no plan is active).
        self.wire_faults = None

    def abort_open(self) -> None:
        if self.open_scoped is not None:
            try:
                self.service.agent.abort_snapshot(self.open_scoped)
            except ValueError:
                pass  # finished/aborted by a handler already
            self.namespace.counters.snapshots_aborted += 1
            self.open_scoped = None

    def release(self) -> None:
        """End-of-connection disposition for an open snapshot.

        A snapshot interrupted *abnormally* (reset, mid-frame EOF,
        eviction, fatal error) is parked for the resume grace window;
        a clean frame-boundary EOF means the client walked away, and a
        client that sent no resume token opted out of parking, so the
        snapshot aborts.
        """
        if self.open_scoped is None:
            return
        cfg = self.service.config
        if (
            self.clean_eof
            or not self.resume_token
            or cfg.resume_grace_s <= 0
            or self.service._closed
        ):
            self.abort_open()
            return
        self.service._park(self)

    async def run(self) -> None:
        """The session's one coroutine: receive, admit, dispatch, repeat.

        Returns when the peer hangs up or its socket dies; a fatal error
        answers one ERROR, parks (or aborts) the open snapshot and hangs
        up so the peer sees EOF, not silence.
        """
        while True:
            try:
                frame = await self._recv()
                if frame is None:
                    return
                # Overload gates first: rate pacing/shedding and the
                # store-path breaker answer before any work is done.
                await self._admit_frame(*frame)
                await self._dispatch(*frame)
                continue
            except SessionError as exc:
                error = exc
            except wire.ProtocolError as exc:
                # Broken framing, or a payload its decoder refused: the
                # peer's stream can no longer be trusted.
                error = SessionError(Err.BAD_FRAME, str(exc), fatal=True)
            except ConnectionError:
                return  # abnormal: release() parks any open snapshot
            except Exception as exc:  # noqa: BLE001 — wire boundary
                error = SessionError(
                    Err.INTERNAL, f"{type(exc).__name__}: {exc}", fatal=True
                )
            try:
                await self.service._send_error(self.conn, error.code, str(error))
            except ConnectionError:
                pass
            if error.fatal:
                self.release()
                self.conn.close()
                return

    async def _recv(self) -> tuple[Msg, bytes] | None:
        """The next frame, after the chaos plan has had its say; ``None``
        once the peer is gone."""
        service = self.service
        timeout = service.config.stall_timeout_s
        try:
            frame = await asyncio.wait_for(self.conn.recv(), timeout)
        except asyncio.TimeoutError:
            # Slow-client eviction.  The clock runs only while the
            # session waits on the client, never while it paces or
            # sends; an open snapshot parks, so the client can resume.
            service.metrics.add(sessions_evicted=1)
            raise SessionError(
                Err.EVICTED, f"no frame in {timeout:g}s; session evicted", fatal=True
            ) from None
        except asyncio.IncompleteReadError as exc:
            # EOF on the frame-header boundary = deliberate close;
            # EOF mid-frame = the peer died mid-send.
            self.clean_eof = not exc.partial and exc.expected == 5
            return None
        service.metrics.add(frames_received=1)
        injector = self.wire_faults
        if injector is not None:
            action = injector.frame_action()
            if action is not None:
                if action[0] == "drop":
                    # Kill the connection before the frame applies —
                    # the client sees a reset and must resume.
                    self.conn.abort()
                    return None
                if action[0] == "stall":
                    await asyncio.sleep(action[1])
                elif action[0] == "garble":
                    frame = (frame[0], injector.garble(frame[1]))
        return frame

    # -- overload gates ------------------------------------------------

    #: Frames charged against the rate limiters (inbound data plane).
    _DATA_FRAMES = frozenset(
        {Msg.DIGEST_BATCH, Msg.CHUNK_BATCH, Msg.POINTER_BATCH}
    )
    #: Frames that touch the payload store (circuit-breaker scope).
    _STORE_FRAMES = frozenset(
        {
            Msg.DIGEST_BATCH,
            Msg.CHUNK_BATCH,
            Msg.POINTER_BATCH,
            Msg.FINISH,
            Msg.RESTORE,
        }
    )
    #: Latency-histogram series per round-trip kind.
    _LATENCY_OPS = {
        Msg.DIGEST_BATCH: "decide",
        Msg.CHUNK_BATCH: "chunk",
        Msg.POINTER_BATCH: "pointer",
    }

    async def _admit_frame(self, msg: Msg, payload: bytes) -> None:
        """Rate + breaker gate, run before any frame does work.

        Shedding is deliberately connection-terminating (fatal): a
        non-fatal ERROR in place of a BATCH_OK would desynchronise the
        applied-frames high-water mark resume relies on, so the refused
        session parks instead and the client replays over RESUME.
        """
        service = self.service
        breaker = service.breaker
        if breaker is not None and msg in self._STORE_FRAMES:
            if not breaker.allow():
                service.metrics.add(breaker_fastfails=1)
                raise SessionError(
                    Err.RETRY_LATER,
                    "store path degraded; "
                    f"retry in {breaker.retry_after():.2f}s",
                    fatal=True,
                )
        if msg in self._DATA_FRAMES and service.limits.active:
            delay = service.limits.charge(self.namespace.name, len(payload))
            if delay > service.config.shed_debt_s:
                # Refund so the shed frame's tokens don't penalise the
                # tenant's next (post-backoff) attempt.
                service.limits.refund(self.namespace.name, len(payload))
                service.metrics.add(retry_later_sent=1)
                raise SessionError(
                    Err.RETRY_LATER,
                    f"over rate limit; retry in {delay:.2f}s",
                    fatal=True,
                )
            if delay > 0:
                await self._throttle(delay, "rate limit")

    async def _throttle(self, delay: float, reason: str) -> None:
        """Pace the session by ``delay``, telling the peer why first.

        The THROTTLE control frame rides ahead of the paced reply (the
        FIFO reply order is untouched); the server-side sleep is the
        enforcement, the frame is the client's hint to self-pace.
        """
        service = self.service
        service.metrics.add(throttles_sent=1)
        await service._send_frame(
            self.conn, Msg.THROTTLE, wire.encode_throttle(delay, reason)
        )
        await asyncio.sleep(delay)

    # -- frame handlers ------------------------------------------------

    async def _dispatch(self, msg: Msg, payload: bytes) -> None:
        try:
            handler = {
                Msg.BEGIN_SNAPSHOT: self._on_begin,
                Msg.RESUME: self._on_resume,
                Msg.DIGEST_BATCH: self._on_digest_batch,
                Msg.CHUNK_BATCH: self._on_chunk_batch,
                Msg.POINTER_BATCH: self._on_pointer_batch,
                Msg.FINISH: self._on_finish,
                Msg.RESTORE: self._on_restore,
                Msg.LIST_SNAPSHOTS: self._on_list,
            }[msg]
        except KeyError:
            raise SessionError(
                Err.BAD_FRAME, f"unexpected {msg.name} frame", fatal=True
            ) from None
        service = self.service
        breaker = service.breaker if msg in self._STORE_FRAMES else None
        op = self._LATENCY_OPS.get(msg)
        start = time.monotonic()
        try:
            await handler(payload)
        except ConnectionError:
            raise
        except OSError as exc:
            # Store-path failure (includes injected faults).  With the
            # breaker configured this feeds it and answers a typed
            # RETRY_LATER; without it the generic INTERNAL path handles
            # the frame.
            if breaker is None:
                raise
            before_opens = breaker.opens
            breaker.record_failure()
            if breaker.opens > before_opens:
                service.metrics.add(breaker_opens=1)
            raise SessionError(
                Err.RETRY_LATER,
                f"store failure: {type(exc).__name__}: {exc}",
                fatal=True,
            ) from exc
        else:
            if breaker is not None:
                breaker.record_success()
            if op is not None:
                service.metrics.observe_latency(
                    op, time.monotonic() - start
                )

    def _require_open(self) -> str:
        if self.open_scoped is None:
            raise SessionError(
                Err.UNKNOWN_SNAPSHOT, "no snapshot is open on this session"
            )
        return self.open_scoped

    async def _on_begin(self, payload: bytes) -> None:
        snapshot_id, token = wire.decode_begin(payload)
        if self.open_scoped is not None:
            raise SessionError(
                Err.SNAPSHOT_EXISTS,
                "a snapshot is already open on this session",
            )
        try:
            scoped = self.namespace.scoped_id(snapshot_id)
        except ValueError as exc:
            raise SessionError(Err.BAD_FRAME, str(exc)) from None
        try:
            self.service.store.get_recipe(scoped)
        except KeyError:
            pass
        else:
            raise SessionError(
                Err.SNAPSHOT_EXISTS, f"snapshot {snapshot_id!r} already stored"
            )
        try:
            self.service.agent.begin_snapshot(scoped)
        except ValueError as exc:
            raise SessionError(Err.SNAPSHOT_EXISTS, str(exc)) from None
        self.open_scoped = scoped
        self.resume_token = token
        self.applied_frames = 0
        self.namespace.counters.snapshots_begun += 1
        await self.service._send_frame(self.conn, Msg.BEGIN_OK)

    async def _on_resume(self, payload: bytes) -> None:
        snapshot_id, token = wire.decode_resume(payload)
        if self.open_scoped is not None:
            raise SessionError(
                Err.SNAPSHOT_EXISTS,
                "a snapshot is already open on this session",
            )
        service = self.service
        parked = service._parked.get(token)
        if parked is None:
            # A reset client can redial before the dying session parks:
            # it notices the dead socket only once the handler it is in
            # (pacing, sending) returns.  Give the teardown a moment to
            # land before declaring the token unknown.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + min(
                2.0, service.config.resume_grace_s
            )
            while parked is None and loop.time() < deadline:
                await asyncio.sleep(0.01)
                parked = service._parked.get(token)
        if (
            parked is None
            or parked.tenant != self.namespace.name
            or self.namespace.unscope(parked.scoped) != snapshot_id
        ):
            raise SessionError(
                Err.RESUME_UNKNOWN,
                f"no parked session for snapshot {snapshot_id!r}",
            )
        del service._parked[token]
        parked.handle.cancel()
        self.open_scoped = parked.scoped
        self.resume_token = token
        self.applied_frames = parked.applied_frames
        service.metrics.add(sessions_resumed=1)
        await service._send_frame(
            self.conn, Msg.RESUME_OK, wire.encode_resume_ok(self.applied_frames)
        )

    async def _on_digest_batch(self, payload: bytes) -> None:
        """Tenant-scoped dedup decision run straight on the decoded
        columns.  The index takes a digest only when its payload lands
        (``_on_chunk_batch``), so it holds exactly what this tenant
        shipped: a hit is a chunk of its own, checked against the store
        only for GC.  A repeat of a miss earlier in the frame is a
        pointer (its first copy ships ahead of it)."""
        digests, lengths = wire.decode_digest_batch(payload)
        self._require_open()
        probe = self.namespace.index.lookup_or_insert_batch(
            digests, lengths, None
        )
        flags = probe.pointers(digests, self.service.store.has_chunks)
        await self.service._send_frame(
            self.conn, Msg.DIGEST_REPLY, wire.encode_digest_reply(flags)
        )

    async def _on_chunk_batch(self, payload: bytes) -> None:
        scoped = self._require_open()
        # Views of the landed payload: the store's put makes the one copy.
        items = wire.decode_chunk_batch(memoryview(payload))
        lengths = [len(data) for _, data in items]
        received = sum(lengths)
        quota = self.service.quota
        deny = quota.deny_reason(self.namespace.usage, received, len(items))
        if deny is not None:
            # Hard ceiling: refuse *before* anything lands, fatally —
            # the parked session can resume once quota is raised, but
            # replaying the same frame will be denied again, so the
            # tenant can never store past its cap.
            self.service.metrics.add(quota_rejections=1)
            raise SessionError(Err.QUOTA_EXCEEDED, deny, fatal=True)
        try:
            self.service.agent.receive_chunks(scoped, items)
        except ValueError as exc:
            # A digest/payload mismatch means bytes were corrupted in
            # flight (or the peer lies about content): fail loudly and
            # drop the connection — nothing of this batch was stored.
            raise SessionError(Err.DIGEST_MISMATCH, str(exc), fatal=True) from None
        # The verified digests enter this tenant's index, decided or not:
        # the only way in, so a pointer or a decide hit is always to a
        # chunk this tenant shipped.
        counters = self.namespace.counters
        self.namespace.index.insert_batch(
            [digest for digest, _ in items],
            accumulate(lengths, initial=counters.bytes_received),
        )
        self.applied_frames += 1
        # Durable usage accounting, charged exactly once per *applied*
        # frame: the resume protocol's applied-frames high-water mark
        # means a re-shipped frame a parked session replays was never
        # applied (and so never charged) the first time.
        self.namespace.usage.charge(received, len(items))
        counters.chunks_received += len(items)
        counters.bytes_received += received
        await self.service._send_frame(
            self.conn, Msg.BATCH_OK, wire.encode_batch_ok(len(items), received)
        )

    async def _on_pointer_batch(self, payload: bytes) -> None:
        scoped = self._require_open()
        digests = wire.decode_pointer_batch(payload)
        try:
            # A pointer names a chunk this tenant shipped.  Any other
            # digest is refused in the agent's words for a chunk the store
            # lacks, so knowing a digest never reads another tenant's
            # chunk.
            owned = self.namespace.index.backend.contains_batch(digests)
            if not all(owned):
                unowned = digests[owned.index(False)]
                raise KeyError(
                    f"pointer to unknown chunk {unowned.hex()[:16]} in "
                    f"snapshot {scoped!r}"
                )
            self.service.agent.receive_pointers(scoped, digests)
        except KeyError as exc:
            raise SessionError(
                Err.UNKNOWN_CHUNK, str(exc.args[0]), fatal=True
            ) from None
        self.applied_frames += 1
        self.namespace.counters.pointers_received += len(digests)
        await self.service._send_frame(
            self.conn, Msg.BATCH_OK, wire.encode_batch_ok(len(digests), 0)
        )

    async def _on_finish(self, payload: bytes) -> None:
        snapshot_id = wire.decode_snapshot_id(payload)
        scoped = self._require_open()
        if self.namespace.unscope(scoped) != snapshot_id:
            raise SessionError(
                Err.UNKNOWN_SNAPSHOT,
                f"snapshot {snapshot_id!r} is not the open one",
            )
        log = self.service.agent.finish_snapshot(scoped)
        self.open_scoped = None
        self.resume_token = ""
        self.applied_frames = 0
        self.namespace.counters.snapshots_finished += 1
        await self.service._send_frame(
            self.conn,
            Msg.FINISH_OK,
            wire.encode_finish_ok(
                log.chunks_received, log.pointers_received, log.bytes_received
            ),
        )

    async def _on_restore(self, payload: bytes) -> None:
        snapshot_id = wire.decode_snapshot_id(payload)
        try:
            scoped = self.namespace.scoped_id(snapshot_id)
        except ValueError as exc:
            raise SessionError(Err.BAD_FRAME, str(exc)) from None
        try:
            self.service.store.get_recipe(scoped)
        except KeyError:
            raise SessionError(
                Err.UNKNOWN_SNAPSHOT,
                f"no snapshot {snapshot_id!r} for tenant "
                f"{self.namespace.name!r}",
            ) from None
        try:
            data = self.service.store.restore(scoped)
        except KeyError as exc:
            # Recipe present, chunk gone: data loss, not a mistyped id.
            raise SessionError(
                Err.INTERNAL, f"snapshot {snapshot_id!r}: {exc.args[0]}"
            ) from None
        counters = self.namespace.counters
        counters.restores += 1
        counters.bytes_restored += len(data)
        await self.service._send_frame(
            self.conn, Msg.RESTORE_BEGIN, wire.encode_restore_begin(len(data))
        )
        piece = self.service.config.restore_piece
        view = memoryview(data)
        for off in range(0, len(view), piece):
            # Header, then the slice itself: no per-piece concatenation.
            part = view[off : off + piece]
            await self.conn.send(wire.HEADER.pack(Msg.RESTORE_DATA, len(part)))
            await self.conn.send(part)
            self.service.metrics.add(frames_sent=1)
        await self.service._send_frame(self.conn, Msg.RESTORE_END)

    async def _on_list(self, payload: bytes) -> None:
        if payload:
            raise SessionError(Err.BAD_FRAME, "LIST_SNAPSHOTS takes no payload")
        mine = []
        for scoped in self.service.store.snapshot_ids():
            local = self.namespace.unscope(scoped)
            if local is not None:
                mine.append(local)
        await self.service._send_frame(
            self.conn, Msg.SNAPSHOT_LIST, wire.encode_snapshot_list(mine)
        )
