"""FaultyBackend: a chaos decorator over any ``ChunkBackend``.

Wraps a real backend and injects, per the plan's
:class:`~repro.faults.plan.BackendFaultSpec`:

* **I/O errors** — a data-plane call raises :class:`InjectedFault`
  (an ``OSError``) instead of running;
* **latency** — a call sleeps before running;
* **torn writes** — a multi-item ``put_batch`` applies only a prefix
  of the batch, then raises (the classic torn record: some keys
  landed, the caller saw a failure);
* **bit flips** — ``get_batch`` returns one value with a single bit
  flipped (silent corruption; only digest verification catches it);
* **node death** — the call that carries the node's Nth data-plane
  *key* raises, and so does every call after it (a crashed shard: the
  failure detector must notice from errors alone).  The kill counter
  is charged per key so a plan means the same thing however callers
  batch; every other fault is drawn once per call.

Control-plane surface (``keys``/``__len__``/``value_bytes``/``flush``/
``compact``/``clear``/``close``) passes through unfaulted — except on a
dead node, where everything raises, exactly like a crashed process.
The wrapper preserves the inner backend's ``kind`` and ``stats`` so
stats registries and backend-kind assertions see the real store.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from repro.faults.plan import BackendFaultSpec, FaultStats, InjectedFault

__all__ = ["FaultyBackend"]


class FaultyBackend:
    """``ChunkBackend`` decorator injecting a plan's backend faults."""

    def __init__(
        self,
        inner,
        spec: BackendFaultSpec,
        rng,
        stats: FaultStats,
        name: str = "backend",
        kill_at: int | None = None,
    ) -> None:
        self.inner = inner
        self.spec = spec
        self.name = name
        self.fault_stats = stats
        self._rng = rng
        self._kill_at = kill_at
        self._ops = 0
        self._dead = False

    # The protocol's ``kind``/``stats`` must reflect the real store.
    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def stats(self):
        return self.inner.stats

    @property
    def dead(self) -> bool:
        return self._dead

    # -- injection core ------------------------------------------------

    def _data_plane(self, op: str, n_keys: int) -> None:
        """One data-plane call over ``n_keys`` keys: charge the kill
        counter per key, then maybe die, delay, or fail (per call)."""
        if self._dead:
            raise InjectedFault(f"{self.name}: node is dead ({op})")
        self._ops += n_keys
        if self._kill_at is not None and self._ops >= self._kill_at:
            self._dead = True
            self.fault_stats.add("kills")
            raise InjectedFault(
                f"{self.name}: injected node death at key {self._ops} ({op})"
            )
        spec = self.spec
        if spec.latency and self._rng.random() < spec.latency:
            self.fault_stats.add("latencies")
            time.sleep(spec.latency_s)
        if spec.io_error and self._rng.random() < spec.io_error:
            self.fault_stats.add("io_errors")
            raise InjectedFault(f"{self.name}: injected I/O error ({op})")

    def _require_alive(self, op: str) -> None:
        if self._dead:
            raise InjectedFault(f"{self.name}: node is dead ({op})")

    # -- data plane ----------------------------------------------------

    def contains_batch(self, keys: Sequence[bytes]) -> list[bool]:
        self._data_plane("contains_batch", len(keys))
        return self.inner.contains_batch(keys)

    def __contains__(self, key: bytes) -> bool:
        return self.contains_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[bytes | None]:
        self._data_plane("get_batch", len(keys))
        values = self.inner.get_batch(keys)
        spec = self.spec
        if spec.bit_flip and self._rng.random() < spec.bit_flip:
            present = [i for i, v in enumerate(values) if v]
            if present:
                i = present[self._rng.randrange(len(present))]
                value = bytearray(values[i])
                bit = self._rng.randrange(len(value) * 8)
                value[bit // 8] ^= 1 << (bit % 8)
                values[i] = bytes(value)
                self.fault_stats.add("bit_flips_injected")
        return values

    def put_batch(self, items: Sequence[tuple[bytes, bytes]]) -> list[bool]:
        self._data_plane("put_batch", len(items))
        spec = self.spec
        if (
            spec.torn_write
            and len(items) > 1
            and self._rng.random() < spec.torn_write
        ):
            keep = self._rng.randrange(1, len(items))
            self.inner.put_batch(items[:keep])
            self.fault_stats.add("torn_writes")
            raise InjectedFault(
                f"{self.name}: injected torn write "
                f"({keep}/{len(items)} records applied)"
            )
        return self.inner.put_batch(items)

    def delete_batch(self, keys: Sequence[bytes]) -> list[int]:
        self._data_plane("delete_batch", len(keys))
        return self.inner.delete_batch(keys)

    # -- control plane -------------------------------------------------

    def keys(self) -> Iterator[bytes]:
        self._require_alive("keys")
        return self.inner.keys()

    def __len__(self) -> int:
        self._require_alive("__len__")
        return len(self.inner)

    @property
    def value_bytes(self) -> int:
        self._require_alive("value_bytes")
        return self.inner.value_bytes

    def flush(self) -> None:
        self._require_alive("flush")
        self.inner.flush()

    def compact(self) -> int:
        self._require_alive("compact")
        return self.inner.compact()

    def clear(self) -> None:
        # Clearing a dead node's wrapper is allowed: StoreNode.fail()
        # drops shard contents as part of declaring the crash.
        self.inner.clear()

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self._dead else f"{self._ops} keys"
        return f"FaultyBackend({self.name!r}, {state}, over {self.inner!r})"
