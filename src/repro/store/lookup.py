"""Batched, Bloom-filtered chunk-index lookups.

§7.3 blames the *unoptimized index lookup + network shipping* stage for
backup bandwidth collapsing as snapshot similarity drops: every digest
pays a synchronous per-lookup round trip, and every unique chunk pays
the expensive full-index miss.  This module implements the two standard
fixes and the timing model that prices them:

* **Batching** — digests are grouped into batches, and a batch walks
  its placements one *position* per round: every round's digests are
  grouped per node, so a node answers one ``probe_batch`` per round
  instead of one probe per digest (:func:`walk_positions`).  One round
  trip is charged per *batch* instead of per digest, so the dispatch
  overhead amortizes as ``batch_rtt_s / batch_size``.
* **Bloom filtering** — each node answers "definitely absent" from its
  in-memory filter, so negative lookups (every unique chunk) cost a
  memory probe instead of a full index walk.  Only Bloom false
  positives still pay the miss price.

The unbatched baseline is the degenerate configuration: batch size 1,
no filter — exactly the per-digest ``hit_s``/``miss_s`` charges the
backup server's single-node path uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.store.backend import core_module
from repro.store.node import NodeDownError, ProbeResult, StoreNode
from repro.store.ring import HashRing
from repro.store.schemes import PlacementScheme

__all__ = [
    "LookupCostModel",
    "BatchLookupStats",
    "BatchedLookup",
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
    defaults; ``bloom_probe_s`` is the in-memory filter probe; and
    ``batch_rtt_s`` is the fixed dispatch + round-trip cost paid once
    per batch (per digest in the unbatched baseline).
    """

    hit_s: float = 2e-6
    miss_s: float = 12e-6
    bloom_probe_s: float = 2e-7
    batch_rtt_s: float = 5e-5

    def batched_seconds(self, stats: "BatchLookupStats") -> float:
        """Modeled stage time for a batched, Bloom-filtered run."""
        return (
            stats.n_batches * self.batch_rtt_s
            + stats.bloom_probes * self.bloom_probe_s
            + stats.hits * self.hit_s
            + stats.index_walks * self.miss_s
        )

    def per_digest_seconds(self, hits: int, misses: int) -> float:
        """The unoptimized baseline: every digest pays a full lookup."""
        return hits * self.hit_s + misses * self.miss_s


@dataclass
class BatchLookupStats:
    """Outcome counters for one or more batched lookups."""

    #: Per-digest outcomes: every input digest is exactly one of hit,
    #: bloom_negative (no replica's filter admitted it), or
    #: false_positive (some filter admitted it but no replica had it).
    n_digests: int = 0
    n_batches: int = 0
    n_node_batches: int = 0
    hits: int = 0
    bloom_negatives: int = 0
    false_positives: int = 0
    #: Per-probe work: filter probes issued and full-index walks paid
    #: (a multi-replica miss can probe several filters for one digest).
    bloom_probes: int = 0
    index_walks: int = 0
    #: Probes a replica failed with an I/O error (the replica is treated
    #: as unavailable for that digest; surviving replicas still answer).
    probe_errors: int = 0

    @property
    def misses(self) -> int:
        return self.bloom_negatives + self.false_positives

    def merge(self, other: "BatchLookupStats") -> None:
        self.n_digests += other.n_digests
        self.n_batches += other.n_batches
        self.n_node_batches += other.n_node_batches
        self.hits += other.hits
        self.bloom_negatives += other.bloom_negatives
        self.false_positives += other.false_positives
        self.bloom_probes += other.bloom_probes
        self.index_walks += other.index_walks
        self.probe_errors += other.probe_errors


class BatchedLookup:
    """Routes digest batches to their owning nodes and probes them.

    Probing walks the placement scheme's preference list in order: a
    digest is a *hit* as soon as ``scheme.min_fragments`` alive replicas
    hold it — one for whole-chunk schemes (so a copy that survives
    off-primary, post-failure or mid-repair, still answers), ``k`` for
    erasure coding (fewer surviving fragments cannot reconstruct, so a
    dedup hit on them would silently lose the chunk).  A digest is a
    miss only after the quota provably cannot be met.
    """

    #: Placement memo entries kept before the memo starts over.
    PLACEMENT_MEMO_MAX = 1 << 15

    def __init__(
        self,
        ring: HashRing,
        scheme: PlacementScheme,
        nodes: Mapping[str, StoreNode],
        batch_size: int = 128,
        cost_model: LookupCostModel | None = None,
        on_probe=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.ring = ring
        self.scheme = scheme
        self.nodes = nodes
        self.batch_size = batch_size
        self.cost_model = cost_model or LookupCostModel()
        #: Optional ``(node_id, ok)`` observer — the cluster wires its
        #: failure detector here so probe outcomes drive membership.
        self.on_probe = on_probe
        self._placements: dict[bytes, tuple[str, ...]] = {}
        self._placements_version = ring.version

    # -- placement -----------------------------------------------------

    def placement(self, digest: bytes) -> tuple[str, ...]:
        """``scheme.nodes_for`` on the current ring, computed once per
        digest per ring membership version (a placement from an older
        ring names the wrong nodes, so any change drops the memo)."""
        memo = self._placements
        if (
            self._placements_version != self.ring.version
            or len(memo) >= self.PLACEMENT_MEMO_MAX
        ):
            memo.clear()
            self._placements_version = self.ring.version
        placement = memo.get(digest)
        if placement is None:
            placement = memo[digest] = self.scheme.nodes_for(self.ring, digest)
        return placement

    # -- probing -------------------------------------------------------

    def windows(self, digests: Sequence[bytes]) -> Iterator[Sequence[bytes]]:
        """``digests`` in ``batch_size`` runs: the unit one position
        walk covers, and the most keys one node call carries."""
        for start in range(0, len(digests), self.batch_size):
            yield digests[start : start + self.batch_size]

    def _probe_window(
        self, batch: Sequence[bytes], stats: BatchLookupStats
    ) -> list[bool]:
        """Probe one batch's replica sets; True per digest iff enough
        replicas (``scheme.min_fragments``) have it."""
        need = getattr(self.scheme, "min_fragments", 1)
        placements = [self.placement(d) for d in batch]
        stats.n_batches += 1
        stats.n_node_batches += len({p[0] for p in placements})
        probed = [False] * len(batch)
        false_positive = [False] * len(batch)

        def ask(node_id: str, items: list[int]) -> list[bool] | None:
            node = self.nodes.get(node_id)
            if node is None or not node.alive:
                return None
            try:
                results = node.probe_batch([batch[i] for i in items])
            except NodeDownError:
                return None  # raced a mid-batch death; try the next replica
            except OSError:
                # A replica that errors is unavailable for these digests,
                # not a verdict: surviving replicas still answer.
                node.stats.io_errors += 1
                stats.probe_errors += 1
                if self.on_probe is not None:
                    self.on_probe(node_id, False)
                return None
            stats.bloom_probes += len(items)
            if self.on_probe is not None:
                self.on_probe(node_id, True)
            for i, result in zip(items, results):
                probed[i] = True
                if result is ProbeResult.FALSE_POSITIVE:
                    false_positive[i] = True
                    stats.index_walks += 1
            return [result is ProbeResult.HIT for result in results]

        node_hits = walk_positions(placements, need, ask)
        for i, hits in enumerate(node_hits):
            if hits >= need:
                stats.hits += 1
            elif not probed[i]:
                raise NodeDownError(
                    f"no alive replica for chunk {batch[i].hex()[:16]}"
                )
            elif hits:
                # Some fragments exist but too few to reconstruct: the
                # chunk must be re-shipped.  The partial holders paid
                # index walks for a miss verdict, the same shape as a
                # false positive.
                stats.index_walks += hits
                stats.false_positives += 1
            elif false_positive[i]:
                stats.false_positives += 1
            else:
                stats.bloom_negatives += 1
        return [hits >= need for hits in node_hits]

    def lookup_batch(
        self, digests: Sequence[bytes]
    ) -> tuple[dict[bytes, bool], BatchLookupStats]:
        """Resolve digest membership in node-grouped batches.

        Returns ``(hit_map, stats)``; ``hit_map[d]`` is True iff enough
        alive replicas already store ``d``.  Duplicate digests in the
        input resolve once.
        """
        stats = BatchLookupStats()
        unique = list(dict.fromkeys(digests))
        stats.n_digests = len(unique)
        hit_map: dict[bytes, bool] = {}
        for batch in self.windows(unique):
            hit_map.update(zip(batch, self._probe_window(batch, stats)))
        return hit_map, stats

    def lookup_chunks(self, chunks) -> tuple[dict[bytes, bool], BatchLookupStats]:
        """Batched lookup of chunk records (digests hashed in one pass).

        Entry point for the zero-copy chunking path: lazy chunks carry
        buffer views, and their digests for the whole batch are computed
        together (``ensure_digests``) before the node probes run.
        """
        core_module("chunking").ensure_digests(chunks)
        return self.lookup_batch([c.digest for c in chunks])

    # -- costing -------------------------------------------------------

    def modeled_seconds(self, stats: BatchLookupStats) -> float:
        return self.cost_model.batched_seconds(stats)
