"""Fault-plan spec: grammar, seeded RNG derivation, shared counters.

A plan is a comma-separated list of ``key=value`` clauses::

    seed=42,backend.io_error=0.01,backend.latency=0.05:0.002,
    backend.torn_write=0.01,backend.bit_flip=0.002,
    wire.drop=0.02,wire.stall=0.01:0.05,wire.garble=0.01,
    node.kill=node-1:200

* ``seed`` — integer master seed (default 0).  Every component derives
  its own ``random.Random`` from ``(seed, component name)``, so fault
  sequences are independent per node/connection yet fully reproducible.
* ``backend.io_error`` — probability that a data-plane backend op
  raises :class:`InjectedFault` (an ``OSError``).
* ``backend.latency`` — ``p[:seconds]``: with probability ``p`` the op
  sleeps ``seconds`` (default 1 ms) before running.
* ``backend.torn_write`` — probability that a multi-item ``put_batch``
  applies only a prefix and then raises (a torn record).
* ``backend.bit_flip`` — probability that a ``get_batch`` returns one
  value with a single bit flipped (silent corruption).
* ``wire.drop`` — probability that the service kills the connection
  after reading a frame, before applying it.
* ``wire.stall`` — ``p[:seconds]``: with probability ``p`` the service
  stalls that long before processing a frame (default 50 ms).
* ``wire.garble`` — probability that a frame's payload has one byte
  flipped before dispatch.
* ``node.kill`` — ``<node_id>:<op>``: that node's backend dies
  permanently at its Nth data-plane *key* — every key of a
  ``contains_batch``/``get_batch``/``put_batch``/``delete_batch`` call
  counts, so the threshold means the same whether keys arrive one per
  call or batched (an injected crash; the failure detector must notice
  without an explicit ``fail_node()``).  All other backend faults are
  drawn once per call.
  Repeatable — one clause per node lets a drill kill several nodes at
  staggered points (e.g. two deaths against an ``ec 4+2`` placement).
* ``wire.flood`` — ``N[:seconds]``: the overload driver opens ``N``
  hostile connections that spray garbage at the service for that long
  (default 2 s) — admission control and the pre-auth deadline must
  absorb them.
* ``client.slowloris`` — ``N[:seconds]``: ``N`` connections that dial,
  trickle at most the magic, and then hold the socket open silently —
  the handshake timeout must evict them before they pin session slots.

The flood/slowloris clauses describe *client-side* load the drill
driver (:mod:`repro.faults.overload`) generates; the service itself
never reads them.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field, fields

__all__ = [
    "FAULTS_ENV",
    "BackendFaultSpec",
    "FaultPlan",
    "FaultStats",
    "InjectedFault",
    "KillSpec",
    "OverloadSpec",
    "WireFaultSpec",
]

#: Environment variable holding the active fault-plan spec.
FAULTS_ENV = "REPRO_FAULTS"

_DEFAULT_LATENCY_S = 0.001
_DEFAULT_STALL_S = 0.05
_DEFAULT_FLOOD_S = 2.0
_DEFAULT_SLOWLORIS_S = 2.0


class InjectedFault(OSError):
    """An injected fault, distinguishable from a real I/O error.

    Subclasses ``OSError`` so every existing degraded-path handler
    (``except OSError``) treats injected faults exactly like real ones —
    the healing machinery cannot special-case chaos.
    """


@dataclass(frozen=True)
class BackendFaultSpec:
    """Per-operation probabilities for backend data-plane faults."""

    io_error: float = 0.0
    latency: float = 0.0
    latency_s: float = _DEFAULT_LATENCY_S
    torn_write: float = 0.0
    bit_flip: float = 0.0

    @property
    def active(self) -> bool:
        return bool(self.io_error or self.latency or self.torn_write or self.bit_flip)


@dataclass(frozen=True)
class WireFaultSpec:
    """Per-frame probabilities for service wire faults."""

    drop: float = 0.0
    stall: float = 0.0
    stall_s: float = _DEFAULT_STALL_S
    garble: float = 0.0

    @property
    def active(self) -> bool:
        return bool(self.drop or self.stall or self.garble)


@dataclass(frozen=True)
class OverloadSpec:
    """Client-side overload the drill driver generates against the
    service: garbage-spraying flood connections and silent slowloris
    holds (see :mod:`repro.faults.overload`)."""

    flood_conns: int = 0
    flood_s: float = _DEFAULT_FLOOD_S
    slowloris_conns: int = 0
    slowloris_s: float = _DEFAULT_SLOWLORIS_S

    @property
    def active(self) -> bool:
        return bool(self.flood_conns or self.slowloris_conns)


@dataclass(frozen=True)
class KillSpec:
    """A scheduled one-shot node death: ``node_id`` dies at its
    ``at_op``-th data-plane key."""

    node_id: str
    at_op: int


class FaultStats:
    """Shared, lock-guarded counters for every fault the plan injected."""

    _FIELDS = (
        "io_errors",
        "latencies",
        "torn_writes",
        # Injected vs detected: every flip the plan put on the wire, and
        # how many of those digest verification (read path or scrub)
        # actually caught.  A healthy drill drives the gap toward zero.
        "bit_flips_injected",
        "bit_flips_detected",
        "kills",
        "wire_drops",
        "wire_stalls",
        "wire_garbles",
        # Overload driver: hostile connections actually opened.
        "flood_conns",
        "slowloris_conns",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    @property
    def total(self) -> int:
        with self._lock:
            return sum(getattr(self, name) for name in self._FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"FaultStats({inner})"


def _parse_prob(key: str, raw: str) -> float:
    try:
        p = float(raw)
    except ValueError:
        raise ValueError(f"fault clause {key}={raw!r}: not a probability") from None
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fault clause {key}={raw!r}: probability outside [0, 1]")
    return p


def _parse_prob_seconds(
    key: str, raw: str, default_s: float
) -> tuple[float, float]:
    """Parse ``p`` or ``p:seconds``."""
    prob_raw, sep, sec_raw = raw.partition(":")
    p = _parse_prob(key, prob_raw)
    if not sep:
        return p, default_s
    try:
        seconds = float(sec_raw)
    except ValueError:
        raise ValueError(f"fault clause {key}={raw!r}: bad seconds") from None
    if seconds < 0:
        raise ValueError(f"fault clause {key}={raw!r}: negative seconds")
    return p, seconds


def _parse_count_seconds(
    key: str, raw: str, default_s: float
) -> tuple[int, float]:
    """Parse ``N`` or ``N:seconds`` (N >= 1)."""
    count_raw, sep, sec_raw = raw.partition(":")
    try:
        count = int(count_raw)
    except ValueError:
        raise ValueError(f"fault clause {key}={raw!r}: not a count") from None
    if count < 1:
        raise ValueError(f"fault clause {key}={raw!r}: count must be >= 1")
    if not sep:
        return count, default_s
    try:
        seconds = float(sec_raw)
    except ValueError:
        raise ValueError(f"fault clause {key}={raw!r}: bad seconds") from None
    if seconds <= 0:
        raise ValueError(f"fault clause {key}={raw!r}: seconds must be positive")
    return count, seconds


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, seeded chaos plan shared by every injection point.

    The plan itself is immutable; the one mutable member is ``stats``,
    the shared injection counters surfaced in ``/metrics``.
    """

    seed: int = 0
    backend: BackendFaultSpec = field(default_factory=BackendFaultSpec)
    wire: WireFaultSpec = field(default_factory=WireFaultSpec)
    overload: OverloadSpec = field(default_factory=OverloadSpec)
    kills: tuple[KillSpec, ...] = ()
    spec: str = ""
    stats: FaultStats = field(default_factory=FaultStats, compare=False)

    @property
    def kill(self) -> KillSpec | None:
        """The first scheduled kill (legacy single-kill accessor)."""
        return self.kills[0] if self.kills else None

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; raises ``ValueError`` on unknown clauses."""
        seed = 0
        backend: dict[str, float] = {}
        wire: dict[str, float] = {}
        overload: dict[str, int | float] = {}
        kills: list[KillSpec] = []
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            key, sep, raw = clause.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not sep or not raw:
                raise ValueError(f"fault clause {clause!r}: expected key=value")
            if key == "seed":
                try:
                    seed = int(raw)
                except ValueError:
                    raise ValueError(f"fault clause {clause!r}: bad seed") from None
            elif key in ("backend.io_error", "backend.torn_write", "backend.bit_flip"):
                backend[key.split(".", 1)[1]] = _parse_prob(key, raw)
            elif key == "backend.latency":
                p, s = _parse_prob_seconds(key, raw, _DEFAULT_LATENCY_S)
                backend["latency"] = p
                backend["latency_s"] = s
            elif key == "wire.flood":
                # Matched before the probability-valued wire.* clauses:
                # flood carries a connection count, not a probability.
                n, s = _parse_count_seconds(key, raw, _DEFAULT_FLOOD_S)
                overload["flood_conns"] = n
                overload["flood_s"] = s
            elif key == "client.slowloris":
                n, s = _parse_count_seconds(key, raw, _DEFAULT_SLOWLORIS_S)
                overload["slowloris_conns"] = n
                overload["slowloris_s"] = s
            elif key in ("wire.drop", "wire.garble"):
                wire[key.split(".", 1)[1]] = _parse_prob(key, raw)
            elif key == "wire.stall":
                p, s = _parse_prob_seconds(key, raw, _DEFAULT_STALL_S)
                wire["stall"] = p
                wire["stall_s"] = s
            elif key == "node.kill":
                node_id, sep2, at_raw = raw.rpartition(":")
                if not sep2:
                    raise ValueError(
                        f"fault clause {clause!r}: expected node.kill=<node_id>:<op>"
                    )
                try:
                    at_op = int(at_raw)
                except ValueError:
                    raise ValueError(f"fault clause {clause!r}: bad op count") from None
                if at_op < 1:
                    raise ValueError(f"fault clause {clause!r}: op count must be >= 1")
                if any(k.node_id == node_id for k in kills):
                    raise ValueError(
                        f"fault clause {clause!r}: duplicate kill for {node_id!r}"
                    )
                kills.append(KillSpec(node_id, at_op))
            else:
                known = sorted(
                    ["seed", "node.kill", "wire.flood", "client.slowloris"]
                    + [f"backend.{f.name}" for f in fields(BackendFaultSpec) if f.name != "latency_s"]
                    + [f"wire.{f.name}" for f in fields(WireFaultSpec) if f.name != "stall_s"]
                )
                raise ValueError(
                    f"unknown fault clause {key!r} (known: {', '.join(known)})"
                )
        return cls(
            seed=seed,
            backend=BackendFaultSpec(**backend),
            wire=WireFaultSpec(**wire),
            overload=OverloadSpec(**overload),
            kills=tuple(kills),
            spec=spec,
        )

    @classmethod
    def from_env(cls, environ: "os._Environ | dict | None" = None) -> "FaultPlan | None":
        """The plan from ``REPRO_FAULTS``, or None when unset/empty."""
        env = os.environ if environ is None else environ
        spec = env.get(FAULTS_ENV, "").strip()
        return cls.parse(spec) if spec else None

    # -- injection points ----------------------------------------------

    def rng(self, component: str) -> random.Random:
        """A deterministic per-component stream: same plan + same
        component name -> same draw sequence, every run."""
        return random.Random(f"{self.seed}/{component}")

    def wrap_backend(self, backend, name: str):
        """Decorate ``backend`` with this plan's backend faults.

        Returns the backend unchanged when the plan injects nothing at
        this name — a plan with only wire faults must not slow or wrap
        the storage path.
        """
        from repro.faults.backend import FaultyBackend

        kill_at = next(
            (ks.at_op for ks in self.kills if ks.node_id == name), None
        )
        if not self.backend.active and kill_at is None:
            return backend
        return FaultyBackend(
            backend,
            self.backend,
            rng=self.rng(f"backend/{name}"),
            stats=self.stats,
            name=name,
            kill_at=kill_at,
        )

    def wire_injector(self, connection: str):
        """A per-connection frame-fault injector, or None when the plan
        has no wire faults."""
        from repro.faults.wire import WireFaultInjector

        if not self.wire.active:
            return None
        return WireFaultInjector(
            self.wire, rng=self.rng(f"wire/{connection}"), stats=self.stats
        )

    def describe(self) -> str:
        return self.spec or "<empty plan>"
