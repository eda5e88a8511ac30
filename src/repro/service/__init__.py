"""Backup-as-a-service front-end (§2/§6 deployment story).

The paper deploys Shredder as a backup *service*: many client agents
stream snapshots to a consolidated backup server over the network.
This package turns the in-process :class:`~repro.backup.server
.BackupServer` machinery into that long-running daemon:

* :mod:`repro.service.protocol` — length-prefixed binary framing, the
  one transport both ends share, and the batched agent wire messages
  (HELLO handshake, DIGEST/CHUNK/POINTER batches, FINISH, RESTORE, ERROR);
* :mod:`repro.service.tenant` — per-tenant namespaces: tenant-scoped
  dedup index and recipes over shared chunk payloads (a tenant may
  point only to chunks it shipped itself);
* :mod:`repro.service.server` — the asyncio server with admission
  control, one coroutine per session and TCP-level backpressure;
* :mod:`repro.service.client` — the async client agent, the one remote
  backup path: it overlaps local chunk+hash with in-flight shipping, and
  every verb recovers under its :class:`RetryPolicy`;
* :mod:`repro.service.metrics` — the aggregated health/metrics
  surface served over plain HTTP on the same port;
* :mod:`repro.service.limits` — overload protection: token-bucket
  rate limits, per-tenant quotas with durable usage accounting,
  shared-secret HMAC auth, and the store-path circuit breaker.
"""

from repro.service.limits import (
    AuthRegistry,
    CircuitBreaker,
    ServiceLimits,
    TenantQuota,
    TokenBucket,
    UsageAccount,
    auth_token,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Err,
    Msg,
    ProtocolError,
    RemoteError,
)
from repro.service.tenant import TenantNamespace, TenantRegistry
from repro.service.server import BackupService, ServiceConfig
from repro.service.client import (
    NO_RETRY,
    AsyncBackupClient,
    RemoteBackupReport,
    RetryPolicy,
)
from repro.service.metrics import ServiceMetrics

__all__ = [
    "PROTOCOL_VERSION",
    "Err",
    "Msg",
    "ProtocolError",
    "RemoteError",
    "TenantNamespace",
    "TenantRegistry",
    "BackupService",
    "ServiceConfig",
    "AsyncBackupClient",
    "NO_RETRY",
    "RemoteBackupReport",
    "RetryPolicy",
    "ServiceMetrics",
    "AuthRegistry",
    "CircuitBreaker",
    "ServiceLimits",
    "TenantQuota",
    "TokenBucket",
    "UsageAccount",
    "auth_token",
]
