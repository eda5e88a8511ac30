"""Sharded, replicated, content-addressed chunk-store cluster.

The scale-out generalisation of :class:`repro.backup.store.ChunkStore`:
chunks are partitioned across :class:`~repro.store.node.StoreNode`
shards by a consistent-hash ring, placed according to a pluggable
:class:`~repro.store.schemes.PlacementScheme`, probed through the
batched Bloom-filtered lookup path, and kept durable across node loss
by recipe-driven re-replication.

The cluster exposes the same duck-typed surface as the single-node
``ChunkStore`` (``put_chunk`` / ``has_chunk`` / ``get_chunk`` /
``put_recipe`` / ``restore`` / ``garbage_collect`` / ...), so the
backup-site :class:`~repro.backup.agent.ShredderAgent` runs against
either backend unchanged — that is what makes the single-node and
cluster backup paths byte-identical.

Storage is pluggable per shard (:mod:`repro.store.backend`):
``backend="memory"`` (default) keeps every node in-process;
``backend="disk"`` with a ``data_dir`` gives each node an append-only
chunk log + LSM digest index under ``data_dir/<node_id>`` and persists
recipes under ``data_dir/recipes``, so the cluster can be closed, the
process restarted, and ``ChunkStoreCluster(..., backend="disk",
data_dir=...)`` reopens every shard, recipe, and lookup answer
bit-identical.  Reopen with the same membership you closed with; after
reopening a cluster whose ring changed mid-life (decommission, resize),
run ``repair()``/``rebalance()`` to realign placements.

Failure handling is self-managing: every node operation feeds a
consecutive-error :class:`~repro.store.health.FailureDetector`, so a
node that starts erroring is marked suspect, then declared dead —
dropped from the ring and (by default) immediately re-replicated from
surviving copies — without anyone calling :meth:`fail_node`.  Reads
degrade instead of failing: ``get_chunk`` falls through erroring or
corrupt replicas to any surviving copy (``degraded_reads`` /
``corrupt_reads`` in :class:`ClusterStats`).  Under an active
:class:`~repro.faults.FaultPlan` (the ``REPRO_FAULTS`` env var) every
shard backend is wrapped in a chaos decorator and reads are
digest-verified end to end.

Under :class:`~repro.store.schemes.ErasureCodedPlacement` the unit of
storage is a Reed–Solomon *fragment* (``k`` data slices + ``m`` parity,
:mod:`repro.store.erasure`), one per placement node, keyed by the chunk
digest.  Reads gather whichever ``k`` verified fragments are cheapest
(healthy data fragments first; parity decodes cover up to ``m`` dead
nodes or corrupt fragments), :meth:`repair` rebuilds only the missing
fragments from any ``k`` survivors, and GC / decommission / rebalance
operate on fragments through the same digest-keyed machinery.

:meth:`scrub` is the background integrity loop on top of the same
verify-on-read machinery: it walks shard contents at a bounded rate
(``HealthPolicy.scrub_batch`` items per :meth:`heartbeat`, or a full
pass on demand), re-digests every payload/fragment, quarantines
mismatches, and rebuilds them from parity or surviving replicas —
``scrub_{chunks,corrupt,repaired}`` in :class:`ClusterStats` close the
loop with ``FaultPlan``'s ``backend.bit_flip`` injections.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.faults import FaultPlan
from repro.store.backend import RecipeStore, make_backend, resolve_backend
from repro.store.erasure import (
    CorruptFragmentError,
    FragmentFormatError,
    codec_for,
    fragment_chunk_len,
    unpack_fragment,
)
from repro.store.health import FailureDetector, HealthPolicy, NodeState
from repro.store.lookup import (
    BatchedLookup,
    BatchLookupStats,
    LookupCostModel,
    walk_positions,
)
from repro.store.node import NodeDownError, StoreNode
from repro.store.ring import DEFAULT_VNODES, HashRing
from repro.store.schemes import PlacementScheme, ReplicatedPlacement

if TYPE_CHECKING:  # annotation-only: keeps repro.store import-clean of repro.backup
    from repro.backup.store import SnapshotRecipe

__all__ = [
    "ChunkStoreCluster",
    "RepairReport",
    "MigrationReport",
    "ScrubReport",
    "UnrecoverableChunkError",
]


def _chunk_hash(data: bytes) -> bytes:
    """Digest for read verification (lazy: same layering discipline as
    the lookup path's chunk import)."""
    from repro.core.hashing import chunk_hash

    return chunk_hash(data)


class UnrecoverableChunkError(KeyError):
    """A recipe references chunks no surviving node holds."""

    def __init__(self, digests: tuple[bytes, ...]) -> None:
        self.digests = digests
        preview = ", ".join(d.hex()[:16] for d in digests[:3])
        super().__init__(
            f"{len(digests)} chunk(s) unrecoverable (no surviving replica): "
            f"{preview}{'...' if len(digests) > 3 else ''}"
        )


@dataclass
class RepairReport:
    """Outcome of one recipe-driven re-replication pass."""

    chunks_scanned: int = 0
    chunks_recopied: int = 0
    bytes_copied: int = 0
    unrecoverable: tuple[bytes, ...] = ()

    @property
    def healthy(self) -> bool:
        return not self.unrecoverable


@dataclass
class MigrationReport:
    """Chunks moved by a rebalance or decommission."""

    chunks_moved: int = 0
    bytes_moved: int = 0
    chunks_dropped: int = 0


@dataclass
class ScrubReport:
    """Outcome of one integrity-scrub pass (or heartbeat-driven slice).

    ``corrupt == repaired`` is the healthy end state of a chaos drill:
    every mismatch the scrubber caught was rebuilt from parity or a
    surviving replica.  ``unrepaired`` items were *detected* but had no
    healthy source; the stored copy is left in place (a transient
    read-side fault must not destroy data that may still be good).
    """

    chunks_scanned: int = 0
    bytes_verified: int = 0
    corrupt: int = 0
    repaired: int = 0
    unrepaired: int = 0

    @property
    def healthy(self) -> bool:
        return self.unrepaired == 0


@dataclass
class ClusterStats:
    """Cluster-level health and degraded-path counters."""

    #: Reads served from a surviving replica after at least one replica
    #: failed (I/O error) or returned a corrupt payload.
    degraded_reads: int = 0
    #: Replica reads rejected because the payload no longer hashed to
    #: its digest (bit rot / injected flip); the read fell through.
    corrupt_reads: int = 0
    #: Detector transitions: nodes that entered suspect, nodes declared
    #: dead from errors alone (explicit ``fail_node`` not counted).
    nodes_suspected: int = 0
    nodes_died: int = 0
    #: Automatic repairs triggered by a declared death, and their work.
    repairs_auto: int = 0
    repair_chunks_recopied: int = 0
    repair_unrecoverable: int = 0
    heartbeats: int = 0
    #: Erasure-coded reads that had to decode through parity (a data
    #: fragment was dead, missing, or failed its digest).
    ec_parity_decodes: int = 0
    #: Background integrity scrub: items re-digested, mismatches caught,
    #: mismatches rebuilt (from parity or a surviving replica), and
    #: mismatches left in place because no healthy source survived.
    scrub_chunks: int = 0
    scrub_corrupt: int = 0
    scrub_repaired: int = 0
    scrub_unrepaired: int = 0


class ChunkStoreCluster:
    """Cluster of chunk-store shards behind one ChunkStore-shaped API."""

    def __init__(
        self,
        n_nodes: int = 4,
        scheme: PlacementScheme | None = None,
        vnodes: int = DEFAULT_VNODES,
        bloom_capacity: int = 1 << 14,
        bloom_fp_rate: float = 0.01,
        batch_size: int = 128,
        cost_model: LookupCostModel | None = None,
        node_prefix: str = "node",
        backend: str | None = None,
        data_dir: str | os.PathLike | None = None,
        fault_plan: FaultPlan | str | None = "env",
        health: HealthPolicy | None = None,
        verify_reads: bool | None = None,
        read_attempts: int | None = None,
        put_attempts: int | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if read_attempts is not None and read_attempts < 1:
            raise ValueError("read_attempts must be >= 1")
        if put_attempts is not None and put_attempts < 1:
            raise ValueError("put_attempts must be >= 1")
        self.read_attempts = (
            self.READ_ATTEMPTS if read_attempts is None else read_attempts
        )
        self.put_attempts = (
            self.PUT_ATTEMPTS if put_attempts is None else put_attempts
        )
        self.backend_kind = resolve_backend(backend, data_dir)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.scheme = scheme or ReplicatedPlacement(min(2, n_nodes))
        self._ec = bool(getattr(self.scheme, "is_erasure", False))
        self._codec = (
            codec_for(self.scheme.k, self.scheme.m) if self._ec else None
        )
        self.ring = HashRing(vnodes=vnodes)
        self._nodes: dict[str, StoreNode] = {}
        self._bloom_capacity = bloom_capacity
        self._bloom_fp_rate = bloom_fp_rate
        # Chaos plumbing: "env" (the default) activates a plan only when
        # REPRO_FAULTS is set, so normal runs pay nothing.  Reads are
        # digest-verified exactly when faults are in play (or on explicit
        # request) — arbitrary test digests must keep working unfaulted.
        if fault_plan == "env":
            fault_plan = FaultPlan.from_env()
        elif isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self.fault_plan: FaultPlan | None = fault_plan
        self.verify_reads = (
            (fault_plan is not None) if verify_reads is None else verify_reads
        )
        self.health = health or HealthPolicy()
        self.detector = FailureDetector(self.health)
        self.stats = ClusterStats()
        self._repairing = False
        self._repair_pending = False
        #: Rolling scrub position: (node_id, digest) pairs still owed a
        #: verification in the current pass; refilled when exhausted.
        self._scrub_cursor: list[tuple[str, bytes]] = []
        self._recipes = RecipeStore(self._make_backend("recipes"))
        self._closed = False
        for i in range(n_nodes):
            self.add_node(f"{node_prefix}-{i}")
        self.scheme.validate(self.ring)
        self.lookup = BatchedLookup(
            self.ring,
            self.scheme,
            self._nodes,
            batch_size,
            cost_model,
            on_probe=self._note,
        )

    def _make_backend(self, name: str):
        path = self.data_dir / name if self.data_dir is not None else None
        return make_backend(self.backend_kind, path)

    # -- health plumbing -----------------------------------------------

    def _note(self, node_id: str, ok: bool) -> None:
        """Feed one op outcome to the failure detector and act on it."""
        transition = self.detector.observe(node_id, ok)
        if transition is NodeState.SUSPECT:
            self.stats.nodes_suspected += 1
        elif transition is NodeState.DEAD:
            self._declare_dead(node_id)

    def _note_detected(self) -> None:
        """Corruption caught by digest verification (read path or scrub).

        Feeds ``faults.bit_flips_detected``, so a chaos run's /metrics
        distinguishes injected flips that were *caught* from silent
        ones — the scrub loop's whole reason to exist.
        """
        if self.fault_plan is not None:
            self.fault_plan.stats.add("bit_flips_detected")

    def _declare_dead(self, node_id: str) -> None:
        """The detector gave up on a node: treat it as crashed."""
        node = self._nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.fail()
        if node_id in self.ring:
            self.ring.remove_node(node_id)
        self.stats.nodes_died += 1
        self._auto_repair()

    def _auto_repair(self) -> None:
        """Re-replicate after a declared death (policy-gated).

        A death declared *while* a repair pass is running (the pass
        itself feeds the detector) queues one follow-up pass instead of
        recursing.
        """
        if not self.health.auto_repair:
            return
        if self._repairing:
            self._repair_pending = True
            return
        while True:
            self._repair_pending = False
            report = self.repair()
            self.stats.repairs_auto += 1
            self.stats.repair_chunks_recopied += report.chunks_recopied
            self.stats.repair_unrecoverable += len(report.unrecoverable)
            if not self._repair_pending:
                break

    def heartbeat(self, scrub: bool = True) -> dict[str, NodeState]:
        """Ping every live node's backend and feed the detector.

        The data path already reports outcomes; the heartbeat catches a
        crashed node that traffic happens to be missing.  Returns the
        post-ping membership view.  ``scrub=False`` skips this beat's
        integrity-scrub slice (the service does that while browned out,
        yielding background verification cycles to live traffic).
        """
        self.stats.heartbeats += 1
        for node in list(self._nodes.values()):
            if not node.alive:
                continue
            try:
                node.ping()
            except NodeDownError:
                continue
            except OSError:
                node.stats.io_errors += 1
                self._note(node.node_id, False)
            else:
                self._note(node.node_id, True)
        if scrub and self.health.scrub_batch:
            # Background integrity: each heartbeat advances the rolling
            # scrub cursor by a bounded slice, so corruption is found in
            # steady state without a stop-the-world verification pass.
            self.scrub(limit=self.health.scrub_batch)
        return {nid: self.detector.state(nid) for nid in self._nodes}

    def health_snapshot(self) -> dict:
        """Membership + degraded-path counters for metrics surfaces."""
        states = {
            nid: (self.detector.state(nid) if node.alive else NodeState.DEAD)
            for nid, node in self._nodes.items()
        }
        doc: dict = {
            "nodes": {nid: state.value for nid, state in states.items()},
            "nodes_total": len(self._nodes),
            "nodes_alive": len(self._alive_nodes()),
            "verify_reads": self.verify_reads,
            "scheme": self.scheme.name,
        }
        if self._ec:
            doc["ec_k"] = self.scheme.k
            doc["ec_m"] = self.scheme.m
        doc.update(asdict(self.stats))
        return doc

    # -- node plumbing -------------------------------------------------

    def _alive_nodes(self) -> list[StoreNode]:
        return [n for n in self._nodes.values() if n.alive]

    def _placement(self, digest: bytes) -> list[StoreNode]:
        """Alive nodes the scheme targets for this digest."""
        nodes = self._nodes
        return [
            nodes[nid]
            for nid in self.lookup.placement(digest)
            if nodes[nid].alive
        ]

    def _read_order(self, digest: bytes) -> Iterator[StoreNode]:
        """Candidate holders of ``digest``, cheapest/healthiest first.

        Placement targets lead, in preference order; under erasure
        coding healthy data-position holders come first (the all-healthy
        read is then pure concatenation), healthy parity positions next,
        suspects after their peers.  Off-placement alive nodes follow (a
        copy or fragment can survive off-placement mid-repair or
        mid-decommission) — lazily, since a healthy walk never gets
        that far.
        """
        placed = self._placement(digest)
        if self._ec:
            k = self.scheme.k

            def suspicion(node: StoreNode) -> bool:
                return self.detector.state(node.node_id) is not NodeState.ALIVE

            yield from sorted(placed[:k], key=suspicion)
            yield from sorted(placed[k:], key=suspicion)
        else:
            yield from placed
        for node in self._alive_nodes():
            if node not in placed:
                yield node

    def _ask(self, node: StoreNode, call, digests: list[bytes]):
        """``call(digests)`` — one of the node's batched reads — with
        detector accounting; ``None`` when the node cannot answer (which
        reads as "no" for every digest)."""
        try:
            answers = call(digests)
        except NodeDownError:
            return None
        except OSError:
            node.stats.io_errors += 1
            self._note(node.node_id, False)
            return None
        self._note(node.node_id, True)
        return answers

    def _holders(self, window) -> list[StoreNode | None]:
        """Per digest, an alive node that holds it — ``None`` unless
        ``scheme.min_fragments`` alive nodes do (presence needs
        reconstructability, not a full census).

        The window walks one read-order position per round, each round's
        digests grouped per node into a single ``holds_batch`` (see
        :func:`walk_positions`).
        """
        need = self.scheme.min_fragments
        first: list[StoreNode | None] = [None] * len(window)

        def ask(node: StoreNode, items: list[int]) -> list[bool] | None:
            held = self._ask(node, node.holds_batch, [window[i] for i in items])
            if held is not None:
                for i, yes in zip(items, held):
                    if yes and first[i] is None:
                        first[i] = node
            return held

        counts = walk_positions([self._read_order(d) for d in window], need, ask)
        return [
            holder if count >= need else None
            for holder, count in zip(first, counts)
        ]

    def _read_any(self, digest: bytes) -> bytes | None:
        """A verified copy from any replica, with bounded retries.

        One pass over the candidates can come up empty because every
        surviving holder hit a *transient* fault; that must not read as
        data loss.  The pass is retried while it reports failures —
        ``None`` without a failure means no replica holds the chunk.
        """
        for _attempt in range(self.read_attempts):
            data, failures = (
                self._read_ec_once(digest)
                if self._ec
                else self._read_any_once(digest)
            )
            if data is not None:
                return data
            if not failures:
                break  # genuinely held nowhere; retrying cannot help
        return None

    def _read_any_once(self, digest: bytes) -> tuple[bytes | None, int]:
        """One pass for a verified copy, falling through failures.

        Placement targets are tried first, then every other alive node
        (a copy can survive off-placement mid-repair).  Replicas that
        error or — with ``verify_reads`` — return a payload that no
        longer hashes to its digest are skipped and charged as degraded;
        the read succeeds as long as *some* replica serves a good copy.
        Returns the payload (or ``None``) and the failure count.
        """
        failures = 0
        for node in self._read_order(digest):
            try:
                data = node.get_chunk(digest)
            except (NodeDownError, KeyError):
                continue  # down, or simply not a holder
            except OSError:
                node.stats.io_errors += 1
                node.stats.degraded_reads += 1
                self._note(node.node_id, False)
                failures += 1
                continue
            self._note(node.node_id, True)
            if self.verify_reads and _chunk_hash(data) != digest:
                self.stats.corrupt_reads += 1
                self._note_detected()
                node.stats.degraded_reads += 1
                failures += 1
                continue
            if failures:
                self.stats.degraded_reads += 1
            return data, failures
        return None, failures

    # -- erasure-coded data path ---------------------------------------

    def _gather_fragments(
        self,
        digest: bytes,
        need: int | None = None,
        exclude: set[str] | None = None,
    ) -> tuple[dict[int, bytes], int | None, dict[str, int | None], int]:
        """Collect verified fragments of ``digest`` from alive nodes.

        Stops once ``need`` distinct fragment indices are in hand
        (``None`` = walk every candidate, for repair/rebalance which
        must see who holds what).  Returns ``(fragments, chunk_len,
        held, failures)`` where ``held`` maps node_id -> fragment index
        for every holder (``None`` for a holder whose record was
        corrupt, unparseable, or from a different geometry).
        """
        codec = self._codec
        fragments: dict[int, bytes] = {}
        held: dict[str, int | None] = {}
        chunk_len: int | None = None
        failures = 0
        for node in self._read_order(digest):
            if exclude is not None and node.node_id in exclude:
                continue
            try:
                record = node.get_fragment(digest)
            except (NodeDownError, KeyError):
                continue  # down, or simply not a holder
            except (FragmentFormatError, CorruptFragmentError):
                # The node answered, but its fragment fails verification:
                # detected corruption, not a liveness signal.
                self.stats.corrupt_reads += 1
                node.stats.degraded_reads += 1
                self._note_detected()
                self._note(node.node_id, True)
                held[node.node_id] = None
                failures += 1
                continue
            except OSError:
                node.stats.io_errors += 1
                node.stats.degraded_reads += 1
                self._note(node.node_id, False)
                failures += 1
                continue
            self._note(node.node_id, True)
            if record.k != codec.k or record.m != codec.m:
                held[node.node_id] = None  # stale geometry; unusable
                failures += 1
                continue
            held[node.node_id] = record.index
            if record.index not in fragments:
                fragments[record.index] = record.payload
                chunk_len = record.chunk_len
                if len(fragments) == need:
                    break
        return fragments, chunk_len, held, failures

    def _read_ec_once(self, digest: bytes) -> tuple[bytes | None, int]:
        """One erasure-coded read pass: any ``k`` verified fragments.

        Mirrors ``_read_any_once``'s contract — payload or ``None``,
        plus the failure count that decides whether a retry can help.
        """
        codec = self._codec
        fragments, chunk_len, _held, failures = self._gather_fragments(
            digest, need=codec.k
        )
        if len(fragments) < codec.k or chunk_len is None:
            return None, failures
        parity_decode = not all(i in fragments for i in range(codec.k))
        data = codec.decode(fragments, chunk_len)
        if self.verify_reads and _chunk_hash(data) != digest:
            # Fragments verified individually but the assembly does not
            # hash: a stale/mixed fragment set.  Fail the pass; retry
            # may draw a consistent set.
            self.stats.corrupt_reads += 1
            self._note_detected()
            return None, failures + 1
        if parity_decode:
            self.stats.ec_parity_decodes += 1
        if failures or parity_decode:
            self.stats.degraded_reads += 1
        return data, failures

    # -- ChunkStore-compatible surface ---------------------------------

    #: Default write attempts per placement target before the error
    #: propagates (constructor ``put_attempts`` overrides per cluster).
    #: One retry absorbs transient I/O blips locally (the common chaos
    #: case) while a persistently sick target still errors out fast and
    #: keeps feeding the failure detector on every attempt.
    PUT_ATTEMPTS = 2
    #: Default full read passes over the replica set before a chunk is
    #: declared missing (constructor ``read_attempts`` overrides); only
    #: passes that saw at least one replica *fail* (not merely lack the
    #: chunk) are retried.
    READ_ATTEMPTS = 3

    def _put_with_retry(self, node: StoreNode, write) -> bool | None:
        """Run one placement write with bounded retry.

        ``write`` is the node's insert-if-absent put, bound to its
        arguments.  Returns its flag — ``False`` means the node already
        held a record under the digest, which lands the write just the
        same — or ``None`` when nothing landed because the node is gone.
        Raises the final OSError only when the target is still a live
        ring member after exhausting its attempts — a node the failed
        writes killed has left the replica set and is not owed a copy.
        """
        for attempt in range(self.put_attempts):
            try:
                inserted = write()
            except NodeDownError:
                return None  # raced a declared death; placement shrank
            except OSError:
                node.stats.io_errors += 1
                self._note(node.node_id, False)
                if attempt + 1 < self.put_attempts:
                    continue
                if node.alive:
                    raise
                return None
            self._note(node.node_id, True)
            return inserted
        return None

    def _put_fragment_one(
        self, node: StoreNode, digest: bytes, index: int, chunk_len: int, payload: bytes
    ) -> bool | None:
        """Write one framed fragment (see :meth:`_put_with_retry`)."""
        codec = self._codec
        return self._put_with_retry(
            node,
            partial(
                node.put_fragment, digest, index, codec.k, codec.m, chunk_len, payload
            ),
        )

    def put_chunk(self, digest: bytes, data: bytes) -> bool:
        """Store a chunk on every placement target; False if known.

        Under erasure coding fragment ``i`` goes to preference position
        ``i``.  Durability is strict: if any placement write errors past
        its retry budget, the error propagates (after every target was
        attempted) — an acked chunk always has its full replica set, and
        an acked erasure-coded chunk at least ``k`` fragments landed
        (fewer cannot reconstruct — a partial set that acked would be
        silent data loss on the first degraded read).  Copies that did
        land make the caller's retry a cheap content-addressed no-op.

        There is no "do you have it?" round first: every node put is
        insert-if-absent, and its return value already says whether the
        record was there (which counts as landed).
        """
        need = self.scheme.min_fragments
        targets = self._placement(digest)
        if len(targets) < need:
            raise NodeDownError(
                f"only {len(targets)} alive placement targets for "
                f"{self.scheme.name} chunk {digest.hex()[:16]}, need {need}"
            )
        fragments = self._codec.encode(data) if self._ec else None
        last_error: OSError | None = None
        landed = already = 0
        for position, node in enumerate(targets):
            try:
                if fragments is None:
                    inserted = self._put_with_retry(
                        node, partial(node.put_chunk, digest, data)
                    )
                else:
                    inserted = self._put_fragment_one(
                        node, digest, position, len(data), fragments[position]
                    )
            except OSError as exc:
                last_error = exc
                continue
            if inserted is not None:
                landed += 1
                already += not inserted
        if last_error is not None:
            raise last_error
        if landed < need:
            # Too many targets died mid-put to serve the chunk: re-place
            # on the shrunken ring (bounded by node count).
            return self.put_chunk(digest, data)
        return already < need

    def has_chunk(self, digest: bytes) -> bool:
        return self.has_chunks([digest])[0]

    def put_chunks(self, items) -> list[bool]:
        """Store a batch of ``(digest, data)``; placement is per digest,
        so this is a convenience loop, not a single backend write."""
        return [self.put_chunk(digest, data) for digest, data in items]

    def get_chunk(self, digest: bytes) -> bytes:
        data = self._read_any(digest)
        if data is None:
            raise KeyError(
                f"chunk {digest.hex()[:16]} missing from cluster "
                f"({len(self._alive_nodes())}/{len(self._nodes)} nodes alive)"
            )
        return data

    def put_recipe(self, recipe: SnapshotRecipe) -> None:
        # RecipeStore.put rejects duplicates; only the chunk-presence
        # invariant is the cluster's to enforce.
        present = self.has_chunks(recipe.digests)
        missing = [d for d, ok in zip(recipe.digests, present) if not ok]
        if missing:
            raise ValueError(
                f"recipe {recipe.snapshot_id!r} references {len(missing)} "
                "missing chunks"
            )
        self._recipes.put(recipe)
        if any(not n.alive for n in self._nodes.values()) and not self._repairing:
            # A node died while this snapshot was being written: the
            # auto-repair that ran at death time was recipe-driven, so
            # chunks stored *before* this recipe existed may be down to
            # a single replica.  Heal exactly this snapshot's digests
            # now that they are enumerable.
            report = RepairReport(chunks_scanned=len(recipe.digests))
            self._repairing = True
            try:
                self._repair_digests(recipe.digests, report)
            finally:
                self._repairing = False
            self.stats.repair_chunks_recopied += report.chunks_recopied

    def get_recipe(self, snapshot_id: str) -> SnapshotRecipe:
        return self._recipes.get(snapshot_id)

    def snapshot_ids(self) -> list[str]:
        """Sorted ids of every stored snapshot recipe."""
        return self._recipes.ids()

    def has_chunks(self, digests) -> list[bool]:
        """Batched membership straight through replica resolution."""
        return [
            holder is not None
            for window in self.lookup.windows(digests)
            for holder in self._holders(window)
        ]

    def chunk_lengths(self, digests) -> list[int | None]:
        """Length of every chunk the cluster can serve, ``None`` where
        :meth:`has_chunks` would say no — presence and length in one
        pass, so a pointer never has to be read back to size a recipe.

        The length comes from one holder's stored record — its payload,
        or under erasure coding its fragment *header* — read in one
        batch per node.  With ``verify_reads`` it comes from a verified
        read instead: a bare header is not trusted under faults.
        """
        lengths: list[int | None] = []
        for window in self.lookup.windows(digests):
            by_node: dict[StoreNode, list[int]] = {}
            for i, node in enumerate(self._holders(window)):
                if node is not None:
                    by_node.setdefault(node, []).append(i)
            found: list[int | None] = [None] * len(window)
            for node, items in by_node.items():
                records = None
                if not self.verify_reads:
                    records = self._ask(
                        node, node.get_chunks, [window[i] for i in items]
                    )
                for n, i in enumerate(items):
                    found[i] = self._stored_length(
                        window[i], records[n] if records else None
                    )
            lengths.extend(found)
        return lengths

    def _stored_length(self, digest: bytes, record: bytes | None) -> int | None:
        """Chunk length from a holder's raw record, else from a full read."""
        if record is not None:
            if not self._ec:
                return len(record)
            try:
                return fragment_chunk_len(record)
            except FragmentFormatError:
                pass
        try:
            return len(self.get_chunk(digest))
        except KeyError:
            return None

    def restore(self, snapshot_id: str) -> bytes:
        """Reassemble a snapshot, pulling each chunk from any replica."""
        recipe = self.get_recipe(snapshot_id)
        return b"".join(self.get_chunk(d) for d in recipe.digests)

    def delete_recipe(self, snapshot_id: str) -> None:
        self._recipes.delete(snapshot_id)

    def garbage_collect(self) -> int:
        """Cluster-wide mark-and-sweep; returns physical bytes freed.

        Marks every digest referenced by any recipe, then sweeps each
        alive node (which rebuilds its Bloom filter, since filters
        cannot unlearn deleted keys, and compacts the node's chunk log
        on persistent backends).
        """
        live = self._recipes.live_digests()
        return sum(node.sweep(live) for node in self._alive_nodes())

    # -- background integrity scrub ------------------------------------

    def scrub(self, limit: int | None = None) -> ScrubReport:
        """Re-verify stored payloads/fragments; heal what fails.

        ``limit=None`` runs one full pass over everything currently
        stored (the ``python -m repro scrub`` / drill entry point);
        ``limit=N`` advances a rolling cursor by at most ``N`` items
        (the heartbeat's bounded slice — a full pass eventually
        completes across heartbeats, then starts over).

        Every item is re-read and re-digested.  A mismatch is counted
        (``scrub_corrupt``) and healed by rebuilding from parity (EC) or
        a surviving replica — but the suspect copy is only replaced
        *after* a successful rebuild: under transient read-side faults
        (``backend.bit_flip`` flips the bytes served, not the bytes
        stored) deleting first would turn detected corruption into real
        data loss.
        """
        report = ScrubReport()
        if limit is None:
            for node_id, digest in self._scrub_queue_snapshot():
                self._scrub_one(node_id, digest, report)
            return report
        refilled = False
        scanned = 0
        while scanned < limit:
            if not self._scrub_cursor:
                if refilled:
                    break  # an empty cluster refills empty; don't spin
                self._scrub_cursor = self._scrub_queue_snapshot()
                self._scrub_cursor.reverse()  # pop() walks in order
                refilled = True
                if not self._scrub_cursor:
                    break
            node_id, digest = self._scrub_cursor.pop()
            self._scrub_one(node_id, digest, report)
            scanned += 1
        return report

    def _scrub_queue_snapshot(self) -> list[tuple[str, bytes]]:
        """Every (node, digest) pair owed a verification, in stable order."""
        queue: list[tuple[str, bytes]] = []
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            if not node.alive:
                continue
            try:
                digests = sorted(node.digests())
            except (NodeDownError, OSError):
                continue
            queue.extend((node_id, digest) for digest in digests)
        return queue

    def _scrub_one(
        self, node_id: str, digest: bytes, report: ScrubReport
    ) -> None:
        """Verify one stored item; quarantine-and-heal on mismatch."""
        node = self._nodes.get(node_id)
        if node is None or not node.alive:
            return
        try:
            raw = node.get_chunk(digest)
        except (NodeDownError, KeyError):
            return  # gone (death, GC, repair moved it): nothing to verify
        except OSError:
            node.stats.io_errors += 1
            self._note(node.node_id, False)
            return
        self._note(node.node_id, True)
        report.chunks_scanned += 1
        report.bytes_verified += len(raw)
        self.stats.scrub_chunks += 1
        if self._ec:
            try:
                unpack_fragment(raw)
                return  # parsed and digest-verified: healthy
            except (FragmentFormatError, CorruptFragmentError):
                pass
        elif _chunk_hash(raw) == digest:
            return
        report.corrupt += 1
        self.stats.scrub_corrupt += 1
        self._note_detected()
        if self._scrub_heal(node, digest):
            report.repaired += 1
            self.stats.scrub_repaired += 1
        else:
            report.unrepaired += 1
            self.stats.scrub_unrepaired += 1

    def _scrub_heal(self, node: StoreNode, digest: bytes) -> bool:
        """Replace one failed-verification item from a healthy source.

        Rebuild first, replace after — if no healthy source survives,
        the suspect copy stays put (it may itself be a transient
        read-side fault, and even a genuinely rotten fragment can still
        help a later decode if enough of it is intact... but a verified
        rebuild always supersedes it).
        """
        if self._ec:
            codec = self._codec
            targets = self._placement(digest)
            position = next(
                (p for p, n in enumerate(targets) if n is node), None
            )
            if position is None:
                # Off-placement stray that fails verification: dropping
                # it *is* the heal — placement holds the real set.
                try:
                    node.delete_chunk(digest)
                except (NodeDownError, OSError):
                    return False
                return True
            fragments: dict[int, bytes] = {}
            chunk_len: int | None = None
            for _attempt in range(self.read_attempts):
                fragments, chunk_len, _held, failures = self._gather_fragments(
                    digest, need=codec.k, exclude={node.node_id}
                )
                if len(fragments) >= codec.k or not failures:
                    break
            if len(fragments) < codec.k or chunk_len is None:
                return False
            payload = codec.rebuild(fragments, [position])[position]
            try:
                node.delete_chunk(digest)
                return (
                    self._put_fragment_one(
                        node, digest, position, chunk_len, payload
                    )
                    is not None
                )
            except (NodeDownError, OSError):
                return False
        data = self._read_verified_excluding(digest, {node.node_id})
        if data is None:
            return False
        try:
            node.delete_chunk(digest)
            write = partial(node.put_chunk, digest, data)
            return self._put_with_retry(node, write) is not None
        except (NodeDownError, OSError):
            return False

    def _read_verified_excluding(
        self, digest: bytes, exclude: set[str]
    ) -> bytes | None:
        """A digest-verified whole-chunk copy from any other replica.

        Verification is unconditional here (unlike the data path's
        ``verify_reads`` gate): the scrubber must never heal from an
        unverified source.
        """
        for _attempt in range(self.read_attempts):
            failures = 0
            for candidate in self._alive_nodes():
                if candidate.node_id in exclude:
                    continue
                try:
                    data = candidate.get_chunk(digest)
                except (NodeDownError, KeyError):
                    continue  # down, or simply not a holder
                except OSError:
                    candidate.stats.io_errors += 1
                    self._note(candidate.node_id, False)
                    failures += 1
                    continue
                self._note(candidate.node_id, True)
                if _chunk_hash(data) == digest:
                    return data
                failures += 1
            if not failures:
                break
        return None

    # -- batched lookup ------------------------------------------------

    def lookup_batch(
        self, digests
    ) -> tuple[dict[bytes, bool], BatchLookupStats]:
        """Batched, Bloom-filtered membership query (see lookup.py)."""
        return self.lookup.lookup_batch(digests)

    def lookup_chunks(self, chunks) -> tuple[dict[bytes, bool], BatchLookupStats]:
        """Batched membership query straight from chunk records.

        Digests for the whole batch are materialized in one hashing pass
        before the probe — lazy zero-copy chunks never pay a per-chunk
        Python hashing round trip on the lookup path.
        """
        return self.lookup.lookup_chunks(chunks)

    # -- membership / failure / recovery -------------------------------

    def add_node(self, node_id: str | None = None) -> str:
        """Register a fresh node on the ring; no data moves until
        :meth:`rebalance` runs.  On a disk cluster the node's backend
        opens (or reopens) ``data_dir/<node_id>``."""
        if node_id is None:
            node_id = f"node-{len(self._nodes)}"
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already exists")
        backend = self._make_backend(node_id)
        if self.fault_plan is not None:
            backend = self.fault_plan.wrap_backend(backend, node_id)
        self._nodes[node_id] = StoreNode(
            node_id,
            self._bloom_capacity,
            self._bloom_fp_rate,
            backend=backend,
        )
        self.detector.forget(node_id)  # a replacement starts with a clean slate
        self.ring.add_node(node_id)
        return node_id

    def fail_node(self, node_id: str) -> None:
        """Crash a node: its shard contents are lost and it leaves the
        ring, so placements immediately stop targeting it.

        This is the *explicit* drill entry point — the detector records
        the death, but no automatic repair runs; the operator (or test)
        drives :meth:`repair` and observes the degraded window."""
        node = self._node(node_id)
        node.fail()
        self.detector.mark_dead(node_id)
        self.ring.remove_node(node_id)

    def decommission(self, node_id: str) -> MigrationReport:
        """Gracefully drain a node: re-place its chunks, then retire it."""
        node = self._node(node_id)
        if not node.alive:
            raise ValueError(f"node {node_id!r} is down; use repair()")
        self.ring.remove_node(node_id)
        self.scheme.validate(self.ring)
        report = MigrationReport()
        if self._ec:
            # A retiring node's lone fragment per chunk cannot re-derive
            # the other indices by itself, so EC drains via the fragment
            # repair path: the node is off-ring but still alive, so the
            # gather reads it as an off-placement source while each new
            # target gets exactly its own fragment rebuilt.
            affected = node.digests()
            repair_report = RepairReport(chunks_scanned=len(affected))
            self._repairing = True
            try:
                self._repair_digests_ec(affected, repair_report)
            finally:
                self._repairing = False
            report.chunks_moved = repair_report.chunks_recopied
            report.bytes_moved = repair_report.bytes_copied
            report.chunks_dropped = len(affected)
            node.fail()
            return report
        for digest in node.digests():
            data = node.get_chunk(digest)
            for target in self._placement(digest):
                if target.put_chunk(digest, data):
                    report.chunks_moved += 1
                    report.bytes_moved += len(data)
            report.chunks_dropped += 1
        node.fail()  # retire: contents dropped after migration
        return report

    def repair(self) -> RepairReport:
        """Recipe-driven re-replication after failures or ring changes.

        Walks every digest referenced by any recipe, re-derives its
        placement on the current ring, and copies from any surviving
        replica to targets that lack it.  Digests with no surviving
        replica are reported as unrecoverable (the data is gone; the
        snapshot cannot be restored).
        """
        live = self._recipes.live_digests()
        report = RepairReport(chunks_scanned=len(live))
        self._repairing = True
        try:
            lost = self._repair_digests(live, report)
        finally:
            self._repairing = False
        report.unrecoverable = tuple(lost)
        return report

    def _repair_digests(self, digests, report: RepairReport) -> list[bytes]:
        """Re-replicate the given digests onto their current placement.

        Copies from any surviving replica to targets that lack it,
        accumulating work into ``report``; returns the digests with no
        surviving replica at all.  (Erasure-coded clusters rebuild
        fragments instead — see :meth:`_repair_digests_ec`.)
        """
        if self._ec:
            return self._repair_digests_ec(digests, report)
        lost: list[bytes] = []
        for digest in digests:
            data = self._read_any(digest)
            if data is None:
                lost.append(digest)
                continue
            for target in self._placement(digest):
                held = self._ask(target, target.holds_batch, [digest])
                if held is not None and held[0]:
                    continue
                try:
                    target.put_chunk(digest, data)
                except NodeDownError:
                    continue
                except OSError:
                    # Copy lost to a fault: the replica stays short
                    # this pass; the next repair pass recopies it.
                    target.stats.io_errors += 1
                    self._note(target.node_id, False)
                    continue
                self._note(target.node_id, True)
                report.chunks_recopied += 1
                report.bytes_copied += len(data)
        return lost

    def _ec_assignments(
        self,
        targets: list[StoreNode],
        held: dict[str, int | None],
    ) -> list[tuple[StoreNode, int, bool]]:
        """Plan fragment writes so the targets cover distinct indices.

        A valid fragment is fine *wherever* it sits in the target set —
        rewriting every fragment whose preference position shifted after
        ring churn would ship more bytes than whole-chunk repair.  Only
        targets holding nothing usable (no record, a corrupt/stale one,
        or a duplicate of an index another target covers) are assigned a
        *missing* index, preferring their own position's index.  Returns
        ``(node, index, had_record)`` write orders.
        """
        codec = self._codec
        covered: set[int] = set()
        needy: list[tuple[int, StoreNode]] = []
        for position, node in enumerate(targets):
            index = held.get(node.node_id)
            if index is not None and index not in covered:
                covered.add(index)
            else:
                needy.append((position, node))
        missing = [i for i in range(codec.n) if i not in covered]
        orders: list[tuple[StoreNode, int, bool]] = []
        for position, node in needy:
            if not missing:
                break
            if position in missing:
                index = position  # position's own index, when available
                missing.remove(position)
            else:
                index = missing.pop(0)
            orders.append((node, index, node.node_id in held))
        return orders

    def _repair_digests_ec(self, digests, report: RepairReport) -> list[bytes]:
        """Fragment repair: rebuild only the *missing* fragment indices.

        For each digest, gather any ``k`` verified fragments, work out
        which of the ``k + m`` indices the placement targets no longer
        cover, and ship each uncovered target exactly one rebuilt
        fragment — never the whole chunk.  ``bytes_copied`` therefore
        counts fragment payloads, the whole point of erasure-coded
        repair traffic.  Digests with fewer than ``k`` surviving
        fragments anywhere are unrecoverable.
        """
        codec = self._codec
        lost: list[bytes] = []
        for digest in digests:
            fragments: dict[int, bytes] = {}
            chunk_len: int | None = None
            held: dict[str, int | None] = {}
            for _attempt in range(self.read_attempts):
                fragments, chunk_len, held, failures = self._gather_fragments(
                    digest
                )
                if len(fragments) >= codec.k or not failures:
                    break
            if len(fragments) < codec.k or chunk_len is None:
                lost.append(digest)
                continue
            orders = self._ec_assignments(self._placement(digest), held)
            if not orders:
                continue
            rebuilt = codec.rebuild(fragments, [i for _, i, _ in orders])
            for node, index, had_record in orders:
                payload = rebuilt[index]
                try:
                    if had_record:
                        # Corrupt/stale/duplicate record under this key:
                        # replace, don't accrete.
                        node.delete_chunk(digest)
                    if self._put_fragment_one(
                        node, digest, index, chunk_len, payload
                    ) is not None:
                        report.chunks_recopied += 1
                        report.bytes_copied += len(payload)
                except NodeDownError:
                    continue
                except OSError:
                    # Fragment lost to a fault: the placement stays
                    # short this pass; the next repair pass rebuilds it.
                    node.stats.io_errors += 1
                    self._note(node.node_id, False)
                    continue
        return lost

    def rebalance(self) -> MigrationReport:
        """Move chunks to their current placement after a ring resize.

        Copies each chunk to placement targets missing it and drops
        copies from nodes the scheme no longer targets.  Erasure-coded
        clusters move *fragments*: each target gets the fragment its
        preference-list position calls for, rebuilt from any ``k``
        survivors.
        """
        report = MigrationReport()
        if self._ec:
            return self._rebalance_ec(report)
        for digest in self.digests():
            targets = self._placement(digest)
            data = self._read_any(digest)
            if data is None:
                continue  # every replica erroring; repair() owns recovery
            for target in targets:
                if target.put_chunk(digest, data):
                    report.chunks_moved += 1
                    report.bytes_moved += len(data)
            for node in self._alive_nodes():
                # repro: lint-ok[batched-api] one digest across the nodes off its placement, not a digest batch
                if node not in targets and node.holds(digest):
                    node.delete_chunk(digest)
                    report.chunks_dropped += 1
        return report

    def _rebalance_ec(self, report: MigrationReport) -> MigrationReport:
        codec = self._codec
        for digest in self.digests():
            fragments, chunk_len, held, _failures = self._gather_fragments(
                digest
            )
            if len(fragments) < codec.k or chunk_len is None:
                continue  # short on survivors; repair() owns recovery
            targets = self._placement(digest)
            orders = self._ec_assignments(targets, held)
            if orders:
                rebuilt = codec.rebuild(fragments, [i for _, i, _ in orders])
                for node, index, had_record in orders:
                    payload = rebuilt[index]
                    try:
                        if had_record:
                            node.delete_chunk(digest)
                        if self._put_fragment_one(
                            node, digest, index, chunk_len, payload
                        ) is not None:
                            report.chunks_moved += 1
                            report.bytes_moved += len(payload)
                    except (NodeDownError, OSError):
                        continue
            target_ids = {node.node_id for node in targets}
            for node in self._alive_nodes():
                # repro: lint-ok[batched-api] one digest across the nodes off its placement, not a digest batch
                if node.node_id not in target_ids and node.holds(digest):
                    node.delete_chunk(digest)
                    report.chunks_dropped += 1
        return report

    def _node(self, node_id: str) -> StoreNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r}") from None

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        """Push buffered log records on every shard (disk backends)."""
        for node in self._alive_nodes():
            node.flush()
        self._recipes.flush()

    def close(self) -> None:
        """Close every shard backend and the recipe store.

        On a disk cluster this persists the memtables, so a subsequent
        ``ChunkStoreCluster(backend="disk", data_dir=...)`` with the
        same membership reopens without replaying the logs.
        """
        if self._closed:
            return
        self._closed = True
        for node in self._nodes.values():
            node.close()
        self._recipes.close()

    def __enter__(self) -> "ChunkStoreCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting ----------------------------------------------------

    def digests(self) -> set[bytes]:
        """Distinct digests held anywhere in the cluster."""
        out: set[bytes] = set()
        for node in self._alive_nodes():
            out.update(node.digests())
        return out

    @property
    def nodes(self) -> dict[str, StoreNode]:
        return dict(self._nodes)

    @property
    def n_nodes_alive(self) -> int:
        return len(self._alive_nodes())

    @property
    def chunk_count(self) -> int:
        """Distinct chunks (replicas counted once), matching ChunkStore."""
        return len(self.digests())

    @property
    def stored_bytes(self) -> int:
        """Physical bytes across all replicas on all alive nodes."""
        return sum(node.stored_bytes for node in self._alive_nodes())

    @property
    def unique_bytes(self) -> int:
        """Logical bytes: one copy per distinct chunk."""
        return sum(len(self.get_chunk(d)) for d in self.digests())

    @property
    def snapshot_count(self) -> int:
        return len(self._recipes)

    def replica_count(self, digest: bytes) -> int:
        # repro: lint-ok[batched-api] one digest across every node, not a digest batch
        return sum(1 for n in self._alive_nodes() if n.holds(digest))
