"""Failure detection for the chunk-store cluster.

Before this module, node failure was an *explicit* event: somebody
called ``fail_node()``.  Real shards crash silently — the only signal
is errors on the data path (or missed heartbeats).  The
:class:`FailureDetector` turns those signals into membership state with
a simple consecutive-error discipline:

* every node operation reports its outcome (``observe``);
* ``suspect_after`` consecutive errors mark a node **suspect** (still
  probed, still serving — an advisory state surfaced in health
  snapshots);
* ``dead_after`` consecutive errors mark it **dead** — the cluster
  then drops the node from the ring and immediately re-replicates
  from surviving copies;
* any success resets the error run, so transient fault storms (a
  recoverable I/O hiccup) never escalate to a death.

Dead is sticky: a crashed shard's contents are gone, so a later
"success" cannot resurrect it — recovery is ``add_node`` + ``repair``,
not a detector transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["NodeState", "HealthPolicy", "FailureDetector"]


class NodeState(Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for the consecutive-error failure detector."""

    #: Consecutive errors before a node is marked suspect.
    suspect_after: int = 2
    #: Consecutive errors before a node is declared dead.
    dead_after: int = 4
    #: Stored items the background scrubber re-verifies per heartbeat
    #: (0 disables heartbeat-driven scrubbing; ``cluster.scrub()`` can
    #: still run full passes on demand).
    scrub_batch: int = 0

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if self.dead_after < self.suspect_after:
            raise ValueError("dead_after must be >= suspect_after")
        if self.scrub_batch < 0:
            raise ValueError("scrub_batch must be >= 0")


class FailureDetector:
    """Consecutive-error membership state, one entry per node."""

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy or HealthPolicy()
        self._errors: dict[str, int] = {}
        self._state: dict[str, NodeState] = {}

    def observe(self, node_id: str, ok: bool) -> NodeState | None:
        """Record one operation outcome.

        Returns the node's new state when this observation *changed* it
        (``SUSPECT``/``DEAD`` escalations, ``ALIVE`` on recovery from
        suspect), else ``None``.  Dead nodes are sticky: their
        observations are ignored.
        """
        state = self._state.get(node_id, NodeState.ALIVE)
        if state is NodeState.DEAD:
            return None
        if ok:
            self._errors[node_id] = 0
            if state is not NodeState.ALIVE:
                self._state[node_id] = NodeState.ALIVE
                return NodeState.ALIVE
            return None
        errors = self._errors.get(node_id, 0) + 1
        self._errors[node_id] = errors
        new = state
        if errors >= self.policy.dead_after:
            new = NodeState.DEAD
        elif errors >= self.policy.suspect_after:
            new = NodeState.SUSPECT
        if new is not state:
            self._state[node_id] = new
            return new
        return None

    def mark_dead(self, node_id: str) -> None:
        """Force a node dead (explicit ``fail_node``, declared crash)."""
        self._state[node_id] = NodeState.DEAD
        self._errors.pop(node_id, None)

    def forget(self, node_id: str) -> None:
        """Drop detector state (a node re-added after replacement)."""
        self._state.pop(node_id, None)
        self._errors.pop(node_id, None)

    def state(self, node_id: str) -> NodeState:
        return self._state.get(node_id, NodeState.ALIVE)

    def suspects(self) -> set[str]:
        """Ids of the nodes currently suspect (usually none)."""
        return {
            nid for nid, state in self._state.items() if state is NodeState.SUSPECT
        }

    def error_run(self, node_id: str) -> int:
        """Current consecutive-error count (0 after any success)."""
        return self._errors.get(node_id, 0)
