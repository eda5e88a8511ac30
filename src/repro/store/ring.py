"""Consistent-hash ring mapping chunk digests to store nodes.

The backup site's chunk store scales out by partitioning the digest
space across nodes.  A consistent-hash ring with virtual nodes keeps
the digest -> node mapping stable under membership changes: adding or
removing one node only remaps the ``~1/n`` fraction of digests whose
ring arcs that node's virtual nodes cover, which is what makes online
resize and failure recovery affordable (§7.2's backup site, scaled out).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual nodes per physical node.  More vnodes smooth the load spread
#: at the cost of a larger (still tiny) sorted position table.
DEFAULT_VNODES = 64


def _position(key: bytes) -> int:
    """64-bit ring position of an arbitrary key."""
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class HashRing:
    """Sorted ring of virtual-node positions over a 64-bit key space."""

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._positions: list[int] = []  # sorted vnode positions
        self._owners: dict[int, str] = {}  # position -> node id
        self._node_ids: set[str] = set()
        #: Bumped on every membership change; placements derived from an
        #: older version are stale (the placement memo keys on it).
        self.version = 0

    # -- membership ----------------------------------------------------

    def add_node(self, node_id: str) -> None:
        if node_id in self._node_ids:
            raise ValueError(f"node {node_id!r} already on ring")
        self._node_ids.add(node_id)
        self.version += 1
        for i in range(self.vnodes):
            pos = _position(f"{node_id}#{i}".encode())
            while pos in self._owners:  # vanishingly rare 64-bit collision
                pos = (pos + 1) & ((1 << 64) - 1)
            self._owners[pos] = node_id
            bisect.insort(self._positions, pos)

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._node_ids:
            raise KeyError(f"node {node_id!r} not on ring")
        self._node_ids.remove(node_id)
        self.version += 1
        dropped = {p for p, n in self._owners.items() if n == node_id}
        self._positions = [p for p in self._positions if p not in dropped]
        for pos in dropped:
            del self._owners[pos]

    @property
    def node_ids(self) -> frozenset[str]:
        return frozenset(self._node_ids)

    def __len__(self) -> int:
        return len(self._node_ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._node_ids

    # -- placement -----------------------------------------------------

    def node_for(self, digest: bytes) -> str:
        """The primary owner: first vnode clockwise of the digest."""
        return self.preference_list(digest, 1)[0]

    def preference_list(self, digest: bytes, n: int) -> tuple[str, ...]:
        """First ``n`` *distinct* nodes clockwise of the digest.

        This is the classic replica preference list: replicas land on
        the next distinct physical nodes around the ring, so losing one
        node scatters its re-replication work across the whole cluster.
        """
        if not self._positions:
            raise LookupError("ring has no nodes")
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > len(self):
            raise LookupError(
                f"ring has {len(self)} nodes, cannot pick {n} distinct"
            )
        start = bisect.bisect_right(self._positions, _position(digest))
        picked: list[str] = []
        seen: set[str] = set()
        total = len(self._positions)
        for step in range(total):
            owner = self._owners[self._positions[(start + step) % total]]
            if owner not in seen:
                seen.add(owner)
                picked.append(owner)
                if len(picked) == n:
                    break
        return tuple(picked)
