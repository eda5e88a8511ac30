"""Overload protection: rate limits, quotas, auth, and a breaker.

The service's admission-control seam (PR 6) only counted sessions; this
module gives it teeth so the backup site can absorb the paper's bursty,
concurrent client load without falling over:

* :class:`TokenBucket` — deterministic debt-model rate limiter (an
  over-draw is allowed and returns the pacing delay that repays it), so
  the server can *pace* traffic instead of dropping it, and shed only
  when the debt grows past a threshold;
* :class:`ServiceLimits` — per-tenant and global bytes/s + ops/s
  buckets behind one ``charge()`` call made per inbound data frame;
* :class:`TenantQuota` — hard per-tenant ceilings (stored payload
  bytes, chunk count, concurrent sessions) checked against the usage
  the tenant's own dedup index holds (:mod:`repro.service.tenant`), so
  a disk-backed restart resumes billing exactly where it stopped;
* :class:`AuthRegistry` — shared-secret HMAC authentication for the
  HELLO handshake, loaded from a ``tenant: secret`` file
  (``serve --auth-file``); clients present
  ``auth_token(secret, tenant)``;
* :class:`CircuitBreaker` — consecutive-failure breaker on the store
  path: a degraded store turns into fast typed ``RETRY_LATER`` errors
  instead of sessions piling up behind a dying disk.

Everything takes an injectable monotonic clock so tests are exact.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "AuthRegistry",
    "CircuitBreaker",
    "ServiceLimits",
    "TenantQuota",
    "TokenBucket",
    "auth_token",
]


# ----------------------------------------------------------------------
# rate limiting
# ----------------------------------------------------------------------


class TokenBucket:
    """A debt-model token bucket: ``rate`` tokens/s, ``burst`` capacity.

    :meth:`charge` always *takes* the tokens and returns the delay (in
    seconds) the caller must pace for before the bucket is repaid —
    0.0 while within burst.  Allowing debt keeps single oversized
    frames (larger than the burst) servable: they are simply paced
    proportionally instead of being unpassable.
    """

    def __init__(self, rate: float, burst: float | None = None, *, clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now

    def charge(self, n: float) -> float:
        """Take ``n`` tokens; return the pacing delay that repays them."""
        self._refill()
        self._tokens -= n
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate

    def refund(self, n: float) -> None:
        """Return tokens for work that was shed instead of performed."""
        self._refill()
        self._tokens = min(self.burst, self._tokens + n)

    @property
    def debt_s(self) -> float:
        """Current pacing debt in seconds (0.0 when within burst)."""
        self._refill()
        return 0.0 if self._tokens >= 0 else -self._tokens / self.rate


class ServiceLimits:
    """Per-tenant + global rate buckets behind one charge call.

    ``None`` rates disable that bucket; with every rate ``None`` the
    instance is inert (``active`` is False and ``charge`` is free).
    Buckets burst for ``burst_s`` seconds of their sustained rate, so
    short spikes pass unpaced and only sustained overload paces.
    """

    def __init__(
        self,
        *,
        tenant_bytes_per_s: float | None = None,
        tenant_ops_per_s: float | None = None,
        global_bytes_per_s: float | None = None,
        global_ops_per_s: float | None = None,
        burst_s: float = 2.0,
        clock=time.monotonic,
    ) -> None:
        if burst_s <= 0:
            raise ValueError("burst_s must be positive")
        self.tenant_bytes_per_s = tenant_bytes_per_s
        self.tenant_ops_per_s = tenant_ops_per_s
        self.burst_s = burst_s
        self._clock = clock
        self._global: list[tuple[TokenBucket, str]] = []
        if global_bytes_per_s is not None:
            self._global.append(
                (self._bucket(global_bytes_per_s), "bytes")
            )
        if global_ops_per_s is not None:
            self._global.append((self._bucket(global_ops_per_s), "ops"))
        #: tenant -> [(bucket, unit)], created lazily at first charge.
        self._tenants: dict[str, list[tuple[TokenBucket, str]]] = {}

    def _bucket(self, rate: float) -> TokenBucket:
        return TokenBucket(rate, rate * self.burst_s, clock=self._clock)

    @property
    def active(self) -> bool:
        return bool(
            self._global
            or self.tenant_bytes_per_s is not None
            or self.tenant_ops_per_s is not None
        )

    def _tenant_buckets(self, tenant: str) -> list[tuple[TokenBucket, str]]:
        buckets = self._tenants.get(tenant)
        if buckets is None:
            buckets = []
            if self.tenant_bytes_per_s is not None:
                buckets.append((self._bucket(self.tenant_bytes_per_s), "bytes"))
            if self.tenant_ops_per_s is not None:
                buckets.append((self._bucket(self.tenant_ops_per_s), "ops"))
            self._tenants[tenant] = buckets
        return buckets

    def charge(self, tenant: str, nbytes: int, ops: int = 1) -> float:
        """Charge one inbound data frame; return the pacing delay (s).

        The delay is the *maximum* across all touched buckets — pacing
        for the slowest constraint repays every other one too.
        """
        delay = 0.0
        for bucket, unit in self._tenant_buckets(tenant):
            delay = max(bucket.charge(nbytes if unit == "bytes" else ops), delay)
        for bucket, unit in self._global:
            delay = max(bucket.charge(nbytes if unit == "bytes" else ops), delay)
        return delay

    def refund(self, tenant: str, nbytes: int, ops: int = 1) -> None:
        """Give back a charge for a frame that was shed, not applied."""
        for bucket, unit in self._tenant_buckets(tenant):
            bucket.refund(nbytes if unit == "bytes" else ops)
        for bucket, unit in self._global:
            bucket.refund(nbytes if unit == "bytes" else ops)

    def describe(self) -> dict:
        """Configured rates for the metrics surface."""
        doc = {
            "tenant_bytes_per_s": self.tenant_bytes_per_s,
            "tenant_ops_per_s": self.tenant_ops_per_s,
            "burst_s": self.burst_s,
        }
        for bucket, unit in self._global:
            doc[f"global_{unit}_per_s"] = bucket.rate
        return doc


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantQuota:
    """Hard per-tenant ceilings; ``None`` means unlimited."""

    #: Stored payload bytes (unique-to-tenant chunk bytes received).
    max_bytes: int | None = None
    #: Stored chunk count.
    max_chunks: int | None = None
    #: Concurrent sessions.
    max_sessions: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_chunks", "max_sessions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None)")

    @property
    def active(self) -> bool:
        return (
            self.max_bytes is not None
            or self.max_chunks is not None
            or self.max_sessions is not None
        )

    def deny_reason(
        self, stored_bytes: int, chunks: int, add_bytes: int, add_chunks: int
    ) -> str | None:
        """Why storing ``add_*`` on top of ``stored_bytes`` in
        ``chunks`` chunks must be refused."""
        if (
            self.max_bytes is not None
            and stored_bytes + add_bytes > self.max_bytes
        ):
            return (
                f"byte quota exceeded: {stored_bytes} stored + "
                f"{add_bytes} requested > {self.max_bytes} allowed"
            )
        if self.max_chunks is not None and chunks + add_chunks > self.max_chunks:
            return (
                f"chunk quota exceeded: {chunks} stored + "
                f"{add_chunks} requested > {self.max_chunks} allowed"
            )
        return None

    def as_dict(self) -> dict:
        return {
            "max_bytes": self.max_bytes,
            "max_chunks": self.max_chunks,
            "max_sessions": self.max_sessions,
        }


# ----------------------------------------------------------------------
# authentication
# ----------------------------------------------------------------------


def auth_token(secret: str, tenant: str) -> str:
    """The HELLO auth token for ``tenant`` under a shared ``secret``."""
    return hmac.new(
        secret.encode("utf-8"), tenant.encode("utf-8"), hashlib.sha256
    ).hexdigest()


class AuthRegistry:
    """Tenant -> shared secret, verified as an HMAC token on HELLO.

    File format (``serve --auth-file``): one ``tenant: secret`` (or
    ``tenant = secret``) per line, ``#`` comments and blank lines
    ignored.  Verification is constant-time and refuses unknown
    tenants with the same answer as a bad token, so the handshake
    leaks nothing about which tenants exist.
    """

    def __init__(self, secrets: dict[str, str]) -> None:
        for tenant, secret in secrets.items():
            if not tenant or not secret:
                raise ValueError("auth entries need a tenant and a secret")
        self._secrets = dict(secrets)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "AuthRegistry":
        secrets: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            for sep in (":", "="):
                tenant, found, secret = line.partition(sep)
                if found:
                    break
            if not found:
                raise ValueError(
                    f"{path}:{lineno}: expected 'tenant: secret', got {line!r}"
                )
            tenant, secret = tenant.strip(), secret.strip()
            if not tenant or not secret:
                raise ValueError(f"{path}:{lineno}: empty tenant or secret")
            if tenant in secrets:
                raise ValueError(f"{path}:{lineno}: duplicate tenant {tenant!r}")
            secrets[tenant] = secret
        if not secrets:
            raise ValueError(f"{path}: no auth entries")
        return cls(secrets)

    def __len__(self) -> int:
        return len(self._secrets)

    def token(self, tenant: str) -> str:
        """The expected token for a known tenant (KeyError otherwise)."""
        return auth_token(self._secrets[tenant], tenant)

    def verify(self, tenant: str, token: str) -> bool:
        secret = self._secrets.get(tenant)
        if secret is None:
            # Same cost + same answer as a wrong token: compare against
            # a dummy so timing can't probe for tenant existence.
            hmac.compare_digest(auth_token("\x00missing", tenant), token)
            return False
        return hmac.compare_digest(auth_token(secret, tenant), token)


# ----------------------------------------------------------------------
# store-path circuit breaker
# ----------------------------------------------------------------------


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe.

    Closed: everything passes.  ``threshold`` consecutive failures open
    it for ``cooldown_s``; while open, :meth:`allow` is False and
    callers answer fast ``RETRY_LATER`` instead of queueing on a sick
    store.  After the cooldown one probe is allowed through
    (half-open); its success closes the breaker, its failure re-opens
    for another cooldown.
    """

    def __init__(
        self, threshold: int = 8, cooldown_s: float = 1.0, *, clock=time.monotonic
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probe_out = False
        self.opens = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a store operation proceed right now?"""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probe_out:
            self._probe_out = True
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the next half-open probe is worth trying."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probe_out = False

    def record_failure(self) -> None:
        self._failures += 1
        self._probe_out = False
        if self._opened_at is not None or self._failures >= self.threshold:
            if self._opened_at is None:
                self.opens += 1
            self._opened_at = self._clock()

    def describe(self) -> dict:
        return {
            "state": self.state,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "opens": self.opens,
        }
