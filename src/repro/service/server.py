"""The asyncio backup service: multi-tenant daemon over the wire API.

Serves the agent protocol (:mod:`repro.service.protocol`) on one
listening socket.  Connections self-identify in the first five bytes:
the ``SHRD1`` magic starts an agent session, an HTTP verb gets the
health/metrics surface, anything else is dropped with one ERROR frame.

**Backpressure is structural, not advisory.**  Each agent connection
runs two coroutines joined by a *bounded* ``asyncio.Queue``: the reader
parses frames and ``await put()``s them — when the ingest worker falls
behind, the queue fills, the put blocks, and the reader simply stops
reading the socket, so kernel TCP flow control pushes back on the
client; nothing server-side ever buffers more than ``queue_depth``
frames per connection.

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
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from repro.backup.agent import ShredderAgent
from repro.backup.store import ChunkStore
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
from repro.service.protocol import Err, Msg
from repro.service.tenant import TenantRegistry
from repro.store.backend import resolve_backend
from repro.store.cluster import ChunkStoreCluster
from repro.store.health import HealthPolicy
from repro.store.lookup import LookupCostModel
from repro.store.schemes import make_scheme

__all__ = ["ServiceConfig", "BackupService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Backup-service configuration."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``service.port``).
    port: int = 0
    #: Storage backend for all shared + tenant state ("memory"|"disk";
    #: ``None`` follows ``REPRO_STORE_BACKEND``).
    backend: str | None = None
    #: Root for disk-backed state (``site/`` or ``cluster/`` +
    #: ``tenants/<name>/index``); ``None`` + disk = ephemeral tempdirs.
    data_dir: str | None = None
    #: Backup-site payload store: "single" | "cluster".
    store_backend: str = "single"
    cluster_nodes: int = 4
    placement: str = "replicated"  # "vanilla" | "striped" | "replicated" | "ec"
    replication: int = 2
    stripe_width: int = 4
    #: Erasure-coding geometry (placement="ec").
    ec_k: int = 4
    ec_m: int = 2
    #: Stored items the cluster's background scrubber re-verifies per
    #: heartbeat (0 disables; needs ``heartbeat_s``).
    scrub_batch: int = 0
    #: Bounded cluster retry budgets; ``None`` keeps the defaults.
    read_attempts: int | None = None
    put_attempts: int | None = None
    lookup_batch_size: int = 128
    #: Concurrent agent sessions admitted before ERROR[BUSY].
    max_sessions: int = 64
    #: Bounded ingest queue per connection — the backpressure limit.
    queue_depth: int = 4
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
    #: Brownout triggers (``None`` disables that trigger; both None =
    #: no monitor task): sustained event-loop lag in seconds, or total
    #: frames queued across sessions.
    brownout_lag_s: float | None = None
    brownout_queue_frames: int | None = None
    #: How long a triggered brownout holds after the signal clears.
    brownout_hold_s: float = 2.0
    #: Store-path circuit breaker: consecutive store failures before it
    #: opens (``None`` disables), and the open-state cooldown.
    breaker_threshold: int | None = None
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        resolve_backend(self.backend, self.data_dir)  # raises on bad kind
        if self.store_backend not in ("single", "cluster"):
            raise ValueError(f"unknown store backend {self.store_backend!r}")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
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
        if self.ec_k < 1 or self.ec_m < 0:
            raise ValueError("ec geometry wants k >= 1 and m >= 0")
        if self.scrub_batch < 0:
            raise ValueError("scrub_batch must be >= 0")
        if self.read_attempts is not None and self.read_attempts < 1:
            raise ValueError("read_attempts must be >= 1")
        if self.put_attempts is not None and self.put_attempts < 1:
            raise ValueError("put_attempts must be >= 1")
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
        if (
            self.brownout_queue_frames is not None
            and self.brownout_queue_frames < 1
        ):
            raise ValueError("brownout_queue_frames must be >= 1 (or None)")
        if self.brownout_hold_s <= 0:
            raise ValueError("brownout_hold_s must be positive")
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
        self.storage_kind = resolve_backend(cfg.backend, cfg.data_dir)
        data_dir = Path(cfg.data_dir) if cfg.data_dir is not None else None
        spec = cfg.faults
        if spec is None:
            spec = os.environ.get(FAULTS_ENV, "").strip()
        self.fault_plan = FaultPlan.parse(spec) if spec else None
        if cfg.store_backend == "cluster":
            self.store = ChunkStoreCluster(
                n_nodes=cfg.cluster_nodes,
                scheme=make_scheme(
                    cfg.placement,
                    replicas=cfg.replication,
                    stripe_width=cfg.stripe_width,
                    ec_k=cfg.ec_k,
                    ec_m=cfg.ec_m,
                ),
                health=HealthPolicy(scrub_batch=cfg.scrub_batch),
                read_attempts=cfg.read_attempts,
                put_attempts=cfg.put_attempts,
                batch_size=cfg.lookup_batch_size,
                cost_model=LookupCostModel(),
                backend=self.storage_kind,
                data_dir=data_dir / "cluster" if data_dir is not None else None,
                fault_plan=self.fault_plan,
            )
        else:
            self.store = ChunkStore(
                backend=self.storage_kind,
                data_dir=data_dir / "site" if data_dir is not None else None,
            )
        self.agent = ShredderAgent(store=self.store)
        self.registry = TenantRegistry(
            backend=self.storage_kind, data_dir=data_dir
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
        #: service widens decide batches, defers scrubbing, and hands
        #: new sessions a window of 1.
        self._brownout_until = 0.0
        self._brownout_task: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
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
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.heartbeat_s is not None and hasattr(self.store, "heartbeat"):
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        if (
            self.config.brownout_lag_s is not None
            or self.config.brownout_queue_frames is not None
        ):
            self._brownout_task = asyncio.create_task(self._brownout_monitor())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
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

    def enter_brownout(self, hold_s: float | None = None) -> None:
        """Degrade for ``hold_s`` (config default): widen decide batches,
        defer scrubbing, advertise window=1 to new sessions.  Called by
        the monitor on lag/queue pressure; public for drills and ops."""
        if not self.brownout_active:
            self.metrics.add(brownouts=1)
        hold = self.config.brownout_hold_s if hold_s is None else hold_s
        self._brownout_until = max(
            self._brownout_until, time.monotonic() + hold
        )

    async def _brownout_monitor(self) -> None:
        cfg = self.config
        tick = 0.05
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(tick)
            lag = loop.time() - before - tick
            queued = sum(s.queue.qsize() for s in self._sessions)
            if (
                cfg.brownout_lag_s is not None and lag > cfg.brownout_lag_s
            ) or (
                cfg.brownout_queue_frames is not None
                and queued >= cfg.brownout_queue_frames
            ):
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

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.metrics.add(connections_total=1, connections_active=1)
        try:
            try:
                # Pre-auth deadline: the 5 magic bytes must arrive fast
                # or the connection never gets near a session slot — a
                # slowloris that dials and sends nothing costs only a
                # parked socket for hello_timeout_s.
                first = await asyncio.wait_for(
                    reader.readexactly(len(wire.MAGIC)),
                    self.config.hello_timeout_s,
                )
            except asyncio.IncompleteReadError:
                return
            except asyncio.TimeoutError:
                self.metrics.add(preauth_evictions=1)
                return
            if first == wire.MAGIC:
                await self._agent_session(reader, writer)
            elif first[:4] in (b"GET ", b"HEAD", b"POST"):
                await self._http_request(first, reader, writer)
            else:
                await self._send_error(
                    writer, Err.BAD_FRAME, "expected SHRD1 magic or HTTP"
                )
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # peer vanished; per-session cleanup already ran
        except asyncio.CancelledError:
            # stop() cancelled us; end in a normal (not cancelled) state
            # so the stream protocol's done-callback stays quiet.
            pass
        finally:
            self.metrics.add(connections_active=-1)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send_frame(self, writer, msg: Msg, payload: bytes = b"") -> None:
        writer.write(wire.encode_frame(msg, payload))
        await writer.drain()
        self.metrics.add(frames_sent=1)

    async def _send_error(self, writer, code: Err, message: str) -> None:
        self.metrics.add(errors_sent=1)
        await self._send_frame(writer, Msg.ERROR, wire.encode_error(code, message))

    # -- agent sessions ------------------------------------------------

    async def _agent_session(self, reader, writer) -> None:
        cfg = self.config
        try:
            msg, payload = await asyncio.wait_for(
                wire.read_frame(reader, cfg.max_frame), cfg.hello_timeout_s
            )
        except asyncio.TimeoutError:
            # Magic arrived but HELLO never did: drop pre-auth, the
            # connection never held a session slot.
            self.metrics.add(preauth_evictions=1)
            return
        except wire.ProtocolError as exc:
            # Garbage where the HELLO frame belongs (e.g. a flood
            # connection): one typed error, then the door closes.
            await self._send_error(writer, Err.BAD_FRAME, str(exc))
            return
        self.metrics.add(frames_received=1)
        if msg is not Msg.HELLO:
            await self._send_error(writer, Err.BAD_FRAME, "expected HELLO")
            return
        try:
            version, tenant_name, auth, purpose = wire.decode_hello(payload)
        except wire.ProtocolError as exc:
            await self._send_error(writer, Err.BAD_FRAME, str(exc))
            return
        if version != wire.PROTOCOL_VERSION:
            await self._send_error(
                writer,
                Err.VERSION_MISMATCH,
                f"server speaks protocol {wire.PROTOCOL_VERSION}, "
                f"client sent {version}",
            )
            return
        if self.auth is not None and not self.auth.verify(tenant_name, auth):
            self.metrics.add(auth_failures=1)
            await self._send_error(
                writer, Err.UNAUTHORIZED, "bad tenant or auth token"
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
                writer,
                Err.BUSY,
                f"session limit {limit} reached",
            )
            return
        try:
            namespace = self.registry.get(tenant_name)
        except ValueError as exc:
            await self._send_error(writer, Err.BAD_TENANT, str(exc))
            return
        if (
            self.quota.max_sessions is not None
            and namespace.active_sessions >= self.quota.max_sessions
        ):
            self.metrics.add(quota_rejections=1)
            await self._send_error(
                writer,
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
        session = _Session(self, namespace, reader, writer)
        if self.fault_plan is not None:
            session.wire_faults = self.fault_plan.wire_injector(
                f"conn-{self._conn_seq}"
            )
        self._sessions.add(session)
        try:
            await self._send_frame(
                writer,
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

    async def _http_request(self, first: bytes, reader, writer) -> None:
        self.metrics.add(http_requests=1)
        try:
            rest = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            rest = b"\r\n\r\n"
        request_line = (first + rest).split(b"\r\n", 1)[0].decode(
            "latin-1", "replace"
        )
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
            if "format=text" in query or path.endswith(".txt"):
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
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()


class _Session:
    """One agent connection: bounded-queue reader + ingest worker."""

    _EOF = object()

    def __init__(self, service: BackupService, namespace, reader, writer) -> None:
        self.service = service
        self.namespace = namespace
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=service.config.queue_depth
        )
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
        #: Pushback slot for brownout decide-coalescing: the first
        #: non-matching frame drained while grouping waits here.
        self._pending = None

    def abort_open(self) -> None:
        if self.open_scoped is not None:
            try:
                self.service.agent.abort_snapshot(self.open_scoped)
            except ValueError:
                pass  # finished/aborted in the worker already
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
        worker = asyncio.create_task(self._worker())
        try:
            await self._read_loop()
        finally:
            # Wake the worker with EOF if the reader died first; it
            # drains what was queued, then exits.
            if not worker.done():
                await self.queue.put(self._EOF)
            await worker

    async def _read_loop(self) -> None:
        metrics = self.service.metrics
        cfg = self.service.config
        max_frame = cfg.max_frame
        injector = self.wire_faults
        while True:
            try:
                frame = await asyncio.wait_for(
                    wire.read_frame(self.reader, max_frame),
                    cfg.stall_timeout_s,
                )
            except asyncio.TimeoutError:
                # Slow-client eviction: the worker sends ERROR[EVICTED];
                # an open snapshot parks, so the client can resume.
                metrics.add(sessions_evicted=1)
                await self.queue.put(
                    SessionError(
                        Err.EVICTED,
                        f"no frame in {cfg.stall_timeout_s:g}s; session evicted",
                        fatal=True,
                    )
                )
                return
            except asyncio.IncompleteReadError as exc:
                # EOF on the frame-header boundary = deliberate close;
                # EOF mid-frame = the peer died mid-send.
                self.clean_eof = not exc.partial and exc.expected == 5
                return
            except (ConnectionResetError, BrokenPipeError):
                return  # abnormal: release() parks any open snapshot
            except wire.ProtocolError as exc:
                await self.queue.put(
                    SessionError(Err.BAD_FRAME, str(exc), fatal=True)
                )
                return
            metrics.add(frames_received=1)
            if injector is not None:
                action = injector.frame_action()
                if action is not None:
                    if action[0] == "drop":
                        # Kill the connection before the frame applies —
                        # the client sees a reset and must resume.
                        self.writer.transport.abort()
                        return
                    if action[0] == "stall":
                        await asyncio.sleep(action[1])
                    elif action[0] == "garble":
                        frame = (frame[0], injector.garble(frame[1]))
            if self.queue.full():
                # The bounded queue is the backpressure seam: this put
                # blocks, this coroutine stops reading the socket, and
                # TCP flow control does the rest.
                metrics.add(backpressure_waits=1)
            await self.queue.put(frame)
            metrics.observe_queue_depth(self.queue.qsize())

    async def _worker(self) -> None:
        while True:
            if self._pending is not None:
                item, self._pending = self._pending, None
            else:
                item = await self.queue.get()
            if item is self._EOF:
                return
            if isinstance(item, SessionError):  # the reader gave up
                error = item
            else:
                msg, payload = item
                try:
                    # Overload gates first: rate pacing/shedding and the
                    # store-path breaker answer before any work is done.
                    await self._admit_frame(msg, payload)
                    await self._dispatch(msg, payload)
                    continue
                except SessionError as exc:
                    error = exc
                except wire.ProtocolError as exc:
                    # A payload its decoder refused: the peer's framing
                    # can no longer be trusted.
                    error = SessionError(Err.BAD_FRAME, str(exc), fatal=True)
                except (ConnectionResetError, BrokenPipeError):
                    break
                except Exception as exc:  # noqa: BLE001 — wire boundary
                    error = SessionError(
                        Err.INTERNAL, f"{type(exc).__name__}: {exc}", fatal=True
                    )
            try:
                await self.service._send_error(self.writer, error.code, str(error))
            except (ConnectionResetError, BrokenPipeError):
                pass
            if error.fatal:
                # Fatal = this connection is untrustworthy, not the
                # snapshot: park it now (when the client can resume) so
                # the teardown of the dead socket cannot demote the park
                # to an abort.
                self.release()
                break
        # The session is over: hang up so the peer sees EOF, not
        # silence, and discard what the reader still queues until its
        # EOF marker — a reader blocked on a full queue must not hold
        # the connection and its session slot.
        self.writer.close()
        item, self._pending = self._pending, None
        while item is not self._EOF:
            item = await self.queue.get()

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
        """Pace the worker by ``delay``, telling the peer why first.

        The THROTTLE control frame rides ahead of the paced reply (the
        FIFO reply order is untouched); the server-side sleep is the
        enforcement, the frame is the client's hint to self-pace.
        """
        service = self.service
        service.metrics.add(throttles_sent=1)
        await service._send_frame(
            self.writer, Msg.THROTTLE, wire.encode_throttle(delay, reason)
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
        if (
            msg is Msg.DIGEST_BATCH
            and service.brownout_active
            and payload[:1] == bytes([wire.MODE_DECIDE])
            and self.open_scoped is not None
        ):
            group = self._drain_decide_group(payload)
            if len(group) > 1:
                await self._on_digest_group(group)
                return
        breaker = service.breaker if msg in self._STORE_FRAMES else None
        op = self._LATENCY_OPS.get(msg)
        start = time.monotonic()
        try:
            await handler(payload)
        except (ConnectionResetError, BrokenPipeError):
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

    def _drain_decide_group(self, first_payload: bytes) -> list[bytes]:
        """Brownout batch widening: drain consecutive queued decide
        batches so one index pass serves them all.  The first frame
        that doesn't match waits in ``_pending`` for the next worker
        iteration — nothing is reordered."""
        group = [first_payload]
        while True:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return group
            if (
                isinstance(item, tuple)
                and item[0] is Msg.DIGEST_BATCH
                and item[1][:1] == bytes([wire.MODE_DECIDE])
            ):
                group.append(item[1])
            else:
                self._pending = item
                return group

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
        await self.service._send_frame(self.writer, Msg.BEGIN_OK)

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
            # A reset client can redial faster than the dying session
            # finishes draining its queue and parks: give the teardown
            # a moment to land before declaring the token unknown.
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
            self.writer, Msg.RESUME_OK, wire.encode_resume_ok(self.applied_frames)
        )

    def _decide_flags(self, digests, lengths, frames=()) -> list[bool]:
        """Tenant-scoped dedup decision, the in-process single-store shape
        run straight on the decoded columns.  ``frames`` are the starts of
        a coalesced group's later frames: a repeat of a miss from an
        earlier frame is checked against the store like a hit, exactly
        as when each frame is decided alone."""
        base = self.namespace.counters.bytes_received
        offsets = list(accumulate(lengths, initial=base))
        probe = self.namespace.index.lookup_or_insert_batch(
            digests, lengths, offsets
        )
        for i, first in list(probe.repeats.items()):
            if bisect_right(frames, first) != bisect_right(frames, i):
                del probe.repeats[i]
                probe.hits[i] = True
        return probe.pointers(digests, self.service.store.has_chunks)

    async def _on_digest_batch(self, payload: bytes) -> None:
        mode, digests, lengths = wire.decode_digest_batch(payload)
        if mode == wire.MODE_QUERY:
            # Read-only membership against the *shared* payload store:
            # the remote has_chunk — it reveals only chunks the caller
            # could fetch anyway (its own restores go through it too).
            flags = self.service.store.has_chunks(digests)
        else:
            self._require_open()
            flags = self._decide_flags(digests, lengths)
        await self.service._send_frame(
            self.writer, Msg.DIGEST_REPLY, wire.encode_digest_reply(flags)
        )

    async def _on_digest_group(self, payloads: list[bytes]) -> None:
        """Brownout: N queued decide batches in one widened index pass,
        answered with N in-order DIGEST_REPLYs (the wire contract is
        untouched — only the store-call shape widens)."""
        service = self.service
        service.metrics.add(decide_coalesced=len(payloads) - 1)
        self._require_open()
        bounds = [0]
        all_digests: list[bytes] = []
        all_lengths: list[int] = []
        for payload in payloads:
            mode, digests, lengths = wire.decode_digest_batch(payload)
            if mode != wire.MODE_DECIDE:  # pragma: no cover — pre-filtered
                raise SessionError(Err.BAD_FRAME, "mixed modes in group")
            all_digests += digests
            all_lengths += lengths
            bounds.append(len(all_digests))
        flags = self._decide_flags(all_digests, all_lengths, bounds[1:-1])
        for lo, hi in zip(bounds, bounds[1:]):
            await service._send_frame(
                self.writer,
                Msg.DIGEST_REPLY,
                wire.encode_digest_reply(flags[lo:hi]),
            )

    async def _on_chunk_batch(self, payload: bytes) -> None:
        scoped = self._require_open()
        items = wire.decode_chunk_batch(payload)
        received = sum(len(data) for _, data in items)
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
        self.applied_frames += 1
        # Durable usage accounting, charged exactly once per *applied*
        # frame: the resume protocol's applied-frames high-water mark
        # means a re-shipped frame a parked session replays was never
        # applied (and so never charged) the first time.
        self.namespace.usage.charge(received, len(items))
        counters = self.namespace.counters
        counters.chunks_received += len(items)
        counters.bytes_received += received
        await self.service._send_frame(
            self.writer, Msg.BATCH_OK, wire.encode_batch_ok(len(items), received)
        )

    async def _on_pointer_batch(self, payload: bytes) -> None:
        scoped = self._require_open()
        digests = wire.decode_pointer_batch(payload)
        try:
            self.service.agent.receive_pointers(scoped, digests)
        except KeyError as exc:
            raise SessionError(
                Err.UNKNOWN_CHUNK, str(exc.args[0]), fatal=True
            ) from None
        self.applied_frames += 1
        self.namespace.counters.pointers_received += len(digests)
        await self.service._send_frame(
            self.writer, Msg.BATCH_OK, wire.encode_batch_ok(len(digests), 0)
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
            self.writer,
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
            self.writer, Msg.RESTORE_BEGIN, wire.encode_restore_begin(len(data))
        )
        piece = self.service.config.restore_piece
        view = memoryview(data)
        for off in range(0, len(view), piece):
            # Header, then the slice itself: no per-piece concatenation.
            part = view[off : off + piece]
            self.writer.write(wire.HEADER.pack(Msg.RESTORE_DATA, len(part)))
            self.writer.write(part)
            await self.writer.drain()
            self.service.metrics.add(frames_sent=1)
        await self.service._send_frame(self.writer, Msg.RESTORE_END)

    async def _on_list(self, payload: bytes) -> None:
        if payload:
            raise SessionError(Err.BAD_FRAME, "LIST_SNAPSHOTS takes no payload")
        mine = []
        for scoped in self.service.store.snapshot_ids():
            local = self.namespace.unscope(scoped)
            if local is not None:
                mine.append(local)
        await self.service._send_frame(
            self.writer, Msg.SNAPSHOT_LIST, wire.encode_snapshot_list(mine)
        )
