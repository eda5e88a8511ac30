"""Service health/metrics surface.

One aggregated snapshot per server: the service-level counters kept
here (connections, sessions, frames, backpressure), each tenant's
traffic and dedup effectiveness, the shared store's occupancy, and the
process-wide instrumentation that already existed —
:func:`repro.core.stats.snapshot` merges the scan counters, stage
timers, and every live ``BackendStats``/``NodeStats`` — exported as
JSON (``GET /metrics``), Prometheus-style plain text
(``GET /metrics?format=text``), and a cheap liveness answer
(``GET /health``).

When the store is a cluster, its ``health_snapshot()`` rides along
under ``store.cluster`` — including the integrity-scrub counters
(``scrub_chunks`` / ``scrub_corrupt`` / ``scrub_repaired``) and
``ec_parity_decodes`` for erasure-coded placements.  When a fault plan
is active, ``faults`` reports both sides of the corruption ledger:
``bit_flips_injected`` (what the chaos harness did) next to
``bit_flips_detected`` (what digest verification caught), so a drill
can assert detection keeps pace with injection.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.core import stats as core_stats

__all__ = ["LatencyHistogram", "ServiceMetrics", "render_text"]


#: Fixed log-scale bucket upper bounds in seconds (factor ~3.16 per
#: step, 100 µs .. 10 s), shared by every histogram so series line up.
LATENCY_BUCKETS_S = (
    0.0001,
    0.000316,
    0.001,
    0.00316,
    0.01,
    0.0316,
    0.1,
    0.316,
    1.0,
    3.16,
    10.0,
)


class LatencyHistogram:
    """Fixed log-scale latency histogram (thread-safe observe).

    Buckets are cumulative-free (each count is *within* the bucket, the
    renderer can cumsum if it wants Prometheus ``le`` semantics); an
    overflow bucket catches anything slower than the last bound.
    """

    __slots__ = ("_lock", "buckets", "count", "total_s", "max_s")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        idx = len(LATENCY_BUCKETS_S)
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            if seconds <= bound:
                idx = i
                break
        with self._lock:
            self.buckets[idx] += 1
            self.count += 1
            self.total_s += seconds
            if seconds > self.max_s:
                self.max_s = seconds

    def as_dict(self) -> dict:
        with self._lock:
            buckets = list(self.buckets)
            count, total_s, max_s = self.count, self.total_s, self.max_s
        doc = {
            "count": count,
            "mean_ms": (total_s / count * 1000.0) if count else 0.0,
            "max_ms": max_s * 1000.0,
        }
        for bound, n in zip(LATENCY_BUCKETS_S, buckets):
            doc[f"le_{bound * 1000.0:g}ms"] = n
        doc["overflow"] = buckets[-1]
        return doc


@dataclass
class ServiceMetrics:
    """Counters the asyncio server maintains (thread-safe increments)."""

    started_at: float = field(default_factory=time.time)
    connections_total: int = 0
    connections_active: int = 0
    sessions_total: int = 0
    sessions_active: int = 0
    sessions_rejected: int = 0
    http_requests: int = 0
    frames_received: int = 0
    frames_sent: int = 0
    errors_sent: int = 0
    #: Backpressure: how often the per-connection reader had to wait on
    #: a full ingest queue (socket reads paused), and the deepest any
    #: connection's queue ever got — bounded by the configured depth.
    backpressure_waits: int = 0
    max_queue_depth: int = 0
    #: Resilience: snapshots parked on abnormal disconnect, successfully
    #: resumed, expired unclaimed, and sessions evicted for stalling.
    sessions_parked: int = 0
    sessions_resumed: int = 0
    sessions_expired: int = 0
    sessions_evicted: int = 0
    #: Overload protection: connections dropped for never finishing the
    #: HELLO handshake inside the pre-auth deadline, failed AUTHs, hard
    #: quota denials, sessions shed at admission, THROTTLE control
    #: frames sent, data frames refused with RETRY_LATER, brownout
    #: entries, and circuit breaker opens / fast-failed requests.
    preauth_evictions: int = 0
    auth_failures: int = 0
    quota_rejections: int = 0
    sessions_shed: int = 0
    throttles_sent: int = 0
    retry_later_sent: int = 0
    brownouts: int = 0
    breaker_opens: int = 0
    breaker_fastfails: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        # Histograms live outside the dataclass fields (asdict would
        # choke on them); per-op round-trip service time in the worker.
        self.latency = {
            "decide": LatencyHistogram(),
            "chunk": LatencyHistogram(),
            "pointer": LatencyHistogram(),
        }

    def observe_latency(self, op: str, seconds: float) -> None:
        hist = self.latency.get(op)
        if hist is not None:
            hist.observe(seconds)

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth

    def to_dict(self) -> dict:
        with self._lock:
            data = {
                k: v
                for k, v in asdict(self).items()
                if not k.startswith("_")
            }
        data["uptime_s"] = time.time() - data.pop("started_at")
        data["latency"] = {op: h.as_dict() for op, h in self.latency.items()}
        return data


def service_snapshot(service) -> dict:
    """The one merged metrics document for a running service."""
    store = service.store
    tenants = {}
    for namespace in service.tenants:
        tenants[namespace.name] = {
            **asdict(namespace.counters),
            "index_chunks": len(namespace.index),
            "dedup": asdict(namespace.index.stats),
            "usage": namespace.usage.as_dict(),
            "active_sessions": namespace.active_sessions,
        }
    store_doc = {
        "backend": service.storage_kind,
        "store_backend": service.config.store_backend,
        "chunks": store.chunk_count,
        "stored_bytes": store.stored_bytes,
        "snapshots": store.snapshot_count,
    }
    if hasattr(store, "health_snapshot"):
        store_doc["cluster"] = store.health_snapshot()
    doc = {
        "service": service.metrics.to_dict(),
        "store": store_doc,
        "tenants": tenants,
        "core": core_stats.snapshot(),
    }
    limits = getattr(service, "limits", None)
    if limits is not None and limits.active:
        doc["limits"] = limits.describe()
    quota = getattr(service, "quota", None)
    if quota is not None and quota.active:
        doc["quota"] = quota.as_dict()
    breaker = getattr(service, "breaker", None)
    if breaker is not None:
        doc["breaker"] = breaker.describe()
    doc["service"]["brownout_active"] = bool(
        getattr(service, "brownout_active", False)
    )
    plan = getattr(service, "fault_plan", None)
    if plan is not None:
        doc["faults"] = {"spec": plan.describe(), **plan.stats.as_dict()}
    return doc


def render_json(snapshot: dict) -> bytes:
    return json.dumps(snapshot, indent=2, sort_keys=True).encode()


def _flatten(prefix: str, value, out: list[str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}_{key}" if prefix else str(key), sub, out)
    elif isinstance(value, bool):
        out.append(f"{prefix} {int(value)}")
    elif isinstance(value, (int, float)):
        out.append(f"{prefix} {value}")
    # strings/None are labels, not series — skipped in the text format


def render_text(snapshot: dict) -> bytes:
    """Prometheus-style ``name value`` lines from the nested snapshot."""
    lines: list[str] = []
    _flatten("repro", snapshot, lines)
    return ("\n".join(sorted(lines)) + "\n").encode()
