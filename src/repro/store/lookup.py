"""The pieces of the batched chunk-index lookup, and its cost model.

§7.3 blames the *unoptimized index lookup + network shipping* stage for
backup bandwidth collapsing as snapshot similarity drops: every digest
pays a synchronous per-lookup round trip, and every unique chunk pays
the expensive full-index miss.  :meth:`repro.store.cluster
.ChunkStoreCluster.lookup_batch` applies the two fixes; this module
holds the walk it runs, its counters, and the timing model that prices
them:

* **Batching** — digests are grouped into batches, and a batch walks
  its placements one *position* per round: every round's digests are
  grouped per node, so a node answers one ``probe_batch`` per round
  instead of one probe per digest (:func:`walk_positions`).  One round
  trip is charged per *batch* instead of per digest, so the dispatch
  overhead amortizes as ``batch_rtt_s / batch_size``.
* **A resident index** — every node keeps its whole keydir in RAM
  (:mod:`repro.store.backend`), so a negative lookup (every unique
  chunk) costs a memory probe instead of a full index walk, and no
  probe pays the miss price.

The unbatched baseline is the per-digest ``hit_s``/``miss_s`` charge
the backup server's single-node path uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

__all__ = [
    "LookupCostModel",
    "BatchLookupStats",
    "walk_positions",
]

_Candidate = TypeVar("_Candidate", bound=Hashable)


def walk_positions(
    orders: Sequence[Iterable[_Candidate]],
    need: int,
    ask: Callable[[_Candidate, list[int]], Sequence[bool] | None],
) -> list[int]:
    """Ask every item's candidates in order until ``need`` of them say yes.

    ``orders[i]`` is item ``i``'s candidates in the order they must be
    asked (its placement).  Each round takes the next candidate of every
    item still short of ``need``, groups those items per candidate, and
    makes one ``ask(candidate, items)`` call per group; ``ask`` returns
    one answer per item, or ``None`` when the candidate cannot answer
    (which counts as "no" for all of them).  For each item that is the
    same questions in the same order with the same early exit as walking
    its candidates alone — in one call per candidate per round instead
    of one per item.  Returns the yes-count per item.
    """
    counts = [0] * len(orders)
    walks = [iter(order) for order in orders]
    pending = range(len(orders))
    while pending:
        groups: dict[_Candidate, list[int]] = {}
        asked: list[int] = []
        for i in pending:
            candidate = next(walks[i], None)
            if candidate is not None:
                groups.setdefault(candidate, []).append(i)
                asked.append(i)
        for candidate, items in groups.items():
            answers = ask(candidate, items)
            if answers is not None:
                for i, yes in zip(items, answers):
                    counts[i] += yes
        pending = [i for i in asked if counts[i] < need]
    return counts


@dataclass(frozen=True)
class LookupCostModel:
    """Per-outcome costs of the index-lookup stage (§7.3 extended).

    ``hit_s`` / ``miss_s`` match the backup server's unoptimized
    defaults; ``probe_s`` is one resident-keydir probe; and
    ``batch_rtt_s`` is the fixed dispatch + round-trip cost paid once
    per batch (per digest in the unbatched baseline).
    """

    hit_s: float = 2e-6
    miss_s: float = 12e-6
    probe_s: float = 2e-7
    batch_rtt_s: float = 5e-5

    def batched_seconds(self, stats: "BatchLookupStats") -> float:
        """Modeled stage time for a batched run: a resident keydir
        answers every probe from memory, so no miss pays ``miss_s``."""
        return (
            stats.n_batches * self.batch_rtt_s
            + stats.probes * self.probe_s
            + stats.hits * self.hit_s
        )

    def per_digest_seconds(self, hits: int, misses: int) -> float:
        """The unoptimized baseline: every digest pays a full lookup."""
        return hits * self.hit_s + misses * self.miss_s


@dataclass
class BatchLookupStats:
    """Outcome counters for one or more batched lookups."""

    #: Per-digest outcomes: every input digest is a hit or a miss.
    n_digests: int = 0
    n_batches: int = 0
    n_node_batches: int = 0
    hits: int = 0
    misses: int = 0
    #: Node probes answered (a multi-replica lookup can probe several
    #: nodes for one digest; a probe that fails is charged to the
    #: node's ``io_errors`` instead).
    probes: int = 0

    @property
    def index_walks(self) -> int:
        """On-disk index walks paid: always 0, every keydir is resident.
        Kept because the benchmark suite reads it."""
        return 0

    def merge(self, other: "BatchLookupStats") -> None:
        self.n_digests += other.n_digests
        self.n_batches += other.n_batches
        self.n_node_batches += other.n_node_batches
        self.hits += other.hits
        self.misses += other.misses
        self.probes += other.probes
