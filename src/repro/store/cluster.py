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

Failure handling is self-managing: every node operation goes through
one guarded call (:meth:`ChunkStoreCluster._ask`) that feeds a
consecutive-error :class:`~repro.store.health.FailureDetector`, so a
node that starts erroring is marked suspect, then declared dead —
dropped from the ring and (by default) immediately re-replicated from
surviving copies — without anyone calling :meth:`fail_node`.  Under an
active :class:`~repro.faults.FaultPlan` (the ``REPRO_FAULTS`` env var)
every shard backend is wrapped in a chaos decorator and reads are
digest-verified end to end.

**The scheme seam.**  The cluster never asks what kind of scheme it
runs.  A :class:`~repro.store.schemes.PlacementScheme` names a digest's
targets *and* owns the item form — ``encode`` / ``write`` / ``read``
(verifying) / ``decode`` / ``rebuild``: whole-chunk schemes are the
repetition code (every item is the chunk, stored raw), erasure coding
stores framed Reed–Solomon fragments (:mod:`repro.store.erasure`).
Over that seam there is one of each path:

* **read** — :meth:`_gather` walks a digest's holders healthiest first
  until ``min_fragments`` verified items are in hand, and falls through
  erroring or corrupt holders instead of failing (``degraded_reads`` /
  ``corrupt_reads`` / ``ec_parity_decodes`` in :class:`ClusterStats`);
* **write** — ``put_chunk`` sends item ``i`` to placement position
  ``i`` with bounded retry, and acks only a reconstructable set;
* **reconcile** — :meth:`_reconcile` diffs the desired placement
  against what verified holders cover and rebuilds only the missing
  items (fragment-sized traffic under erasure coding).  :meth:`repair`,
  the snapshot heal in ``put_recipe``, :meth:`rebalance`,
  :meth:`decommission` and the scrub heal are thin callers; its
  contract — *rebuild before replace*, *write before drop* — means a
  failed write can leave a placement short until the next pass, never
  a chunk unreadable.

:meth:`scrub` is the background integrity loop on top: it walks shard
contents at a bounded rate (``HealthPolicy.scrub_batch`` items per
:meth:`heartbeat`, or a full pass on demand), re-verifies every stored
record through the scheme, and reconciles the digests whose records
fail — ``scrub_{chunks,corrupt,repaired}`` in :class:`ClusterStats`
close the loop with ``FaultPlan``'s ``backend.bit_flip`` injections.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterator

from repro.faults import FaultPlan
from repro.store.backend import RecipeStore, make_backend, resolve_backend
from repro.store.health import FailureDetector, HealthPolicy, NodeState
from repro.store.lookup import (
    BatchedLookup,
    BatchLookupStats,
    LookupCostModel,
    walk_positions,
)
from repro.store.node import NodeDownError, StoreNode
from repro.store.ring import DEFAULT_VNODES, HashRing
from repro.store.schemes import (
    CorruptItemError,
    PlacementScheme,
    ReplicatedPlacement,
)

if TYPE_CHECKING:  # annotation-only: keeps repro.store import-clean of repro.backup
    from repro.backup.store import SnapshotRecipe

__all__ = [
    "ChunkStoreCluster",
    "RepairReport",
    "MigrationReport",
    "ScrubReport",
    "UnrecoverableChunkError",
]


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

        A death declared *while* a reconcile pass is running (the pass
        itself feeds the detector) queues one follow-up repair, which
        the pass runs when it ends, instead of recursing.
        """
        if not self.health.auto_repair:
            return
        if self._repairing:
            self._repair_pending = True
            return
        report = self.repair()
        self.stats.repairs_auto += 1
        self.stats.repair_chunks_recopied += report.chunks_recopied
        self.stats.repair_unrecoverable += len(report.unrecoverable)

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
            if node.alive:
                self._ask(node, node.ping)
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
        return {
            "nodes": {nid: state.value for nid, state in states.items()},
            "nodes_total": len(self._nodes),
            "nodes_alive": len(self._alive_nodes()),
            "verify_reads": self.verify_reads,
            **self.scheme.describe(),
            **asdict(self.stats),
        }

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

    def _read_order(self, placed: list[StoreNode]) -> Iterator[StoreNode]:
        """Candidate holders of a digest placed on ``placed``,
        cheapest/healthiest first.

        Placement targets lead: the first ``min_fragments`` positions
        (their items decode by concatenation — the all-healthy read
        never solves for parity), then the rest, suspects after their
        peers within each group.  Off-placement alive nodes follow (an
        item can survive there mid-repair or mid-decommission) — lazily,
        since a healthy walk never gets that far.
        """
        suspects = self.detector.suspects()
        if suspects:
            need = self.scheme.min_fragments

            def suspicion(node: StoreNode) -> bool:
                return node.node_id in suspects

            placed = sorted(placed[:need], key=suspicion) + sorted(
                placed[need:], key=suspicion
            )
        yield from placed
        for node in self._alive_nodes():
            if node not in placed:
                yield node

    def _ask(self, node: StoreNode, call, *args):
        """``call(*args)`` — any operation on ``node`` — with detector
        accounting: the one guarded node call.

        Returns the result, or ``None`` when the node cannot answer: it
        is down, or the call hit an I/O error (charged to the node and
        the detector).  ``KeyError`` (no such record) and
        :class:`CorruptItemError` (a record that fails verification)
        are answers from a live node, and propagate.
        """
        try:
            result = call(*args)
        except NodeDownError:
            return None
        except OSError:
            node.stats.io_errors += 1
            self._note(node.node_id, False)
            return None
        except (KeyError, CorruptItemError):
            self._note(node.node_id, True)
            raise
        self._note(node.node_id, True)
        return result

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

        orders = [self._read_order(self._placement(d)) for d in window]
        counts = walk_positions(orders, need, ask)
        return [
            holder if count >= need else None
            for holder, count in zip(first, counts)
        ]

    def _gather(
        self,
        digest: bytes,
        verify: bool,
        census: Collection[StoreNode] = (),
        distrust: Collection[str] = (),
    ) -> tuple[dict[int, bytes], int | None, dict[str, int | None], int]:
        """Collect verified items of ``digest`` from alive nodes.

        Walks the read order until ``scheme.min_fragments`` distinct
        items are in hand *and* every node in ``census`` has been asked
        (a reconcile pass must see what each of them holds).  Items are
        read and verified (whole copies only when ``verify``) while the
        set is short; past that a holder is only asked which item it has
        (``scheme.peek``), so a census of whole copies reads no payload.
        Nodes in ``distrust`` are not asked: they count as holding a
        record that is no use.

        Returns ``(items, chunk_len, held, failures)``: ``held`` maps
        node_id -> item index for every holder met (``None`` where the
        record was corrupt, unparseable, or of another geometry), and
        ``failures`` counts the nodes that failed to serve — the number
        that decides whether a retry can help.
        """
        scheme = self.scheme
        need = scheme.min_fragments
        placed = self._placement(digest)
        order = self._read_order(placed)
        owed = {node.node_id for node in census}
        items: dict[int, bytes] = {}
        held: dict[str, int | None] = {}
        chunk_len: int | None = None
        failures = 0
        while len(items) < need or owed:
            node = next(order, None)
            if node is None:
                break
            owed.discard(node.node_id)
            if node.node_id in distrust:
                held[node.node_id] = None
                continue
            ask = scheme.read if len(items) < need else scheme.peek
            try:
                item = self._ask(node, ask, node, digest, verify)
            except KeyError:
                continue  # simply not a holder
            except CorruptItemError:
                # The node answered, but its record fails verification:
                # detected corruption, not a liveness signal.
                self.stats.corrupt_reads += 1
                self._note_detected()
                item = None
                held[node.node_id] = None
            if item is None:
                node.stats.degraded_reads += 1
                failures += 1
                continue
            index = item.index
            if index is None:  # a whole copy stands for its holder's position
                index = placed.index(node) if node in placed else 0
            held[node.node_id] = index
            if item.payload is not None and index not in items:
                items[index] = item.payload
                chunk_len = item.chunk_len
        return items, chunk_len, held, failures

    def _read_any(self, digest: bytes) -> bytes | None:
        """The chunk, decoded from any ``min_fragments`` verified items,
        with bounded retries.

        Holders that error or serve a record that fails verification
        are skipped and charged as degraded; a pass succeeds if enough
        of the rest serve good items.  A pass can come up short because
        surviving holders hit a *transient* fault, which must not read
        as data loss: it is retried while it reports failures — ``None``
        without a failure means the chunk is held nowhere.
        """
        scheme, verify = self.scheme, self.verify_reads
        for _attempt in range(self.read_attempts):
            items, chunk_len, _held, failures = self._gather(digest, verify)
            if len(items) >= scheme.min_fragments:
                try:
                    data = scheme.decode(digest, items, chunk_len, verify)
                except CorruptItemError:
                    # Items verified one by one, yet the assembly does
                    # not: a stale/mixed set.  A retry may draw a
                    # consistent one.
                    self.stats.corrupt_reads += 1
                    self._note_detected()
                    continue
                through_parity = scheme.through_parity(items)
                if through_parity:
                    self.stats.ec_parity_decodes += 1
                if failures or through_parity:
                    self.stats.degraded_reads += 1
                return data
            if not failures:
                break
        return None

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

    def _put_with_retry(
        self, node: StoreNode, digest: bytes, index: int, payload: bytes,
        chunk_len: int,
    ) -> bool | None:
        """Write item ``index`` of a chunk to ``node``, with bounded retry.

        Returns the insert-if-absent flag of ``scheme.write`` — ``False``
        means the node already held a record under the digest, which
        lands the write just the same — or ``None`` when nothing landed
        because the node is gone.  Raises the final OSError only when
        the target is still a live ring member after exhausting its
        attempts — a node the failed writes killed has left the replica
        set and is not owed a copy.
        """
        for attempt in range(self.put_attempts):
            try:
                inserted = self.scheme.write(node, digest, index, payload, chunk_len)
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

    def put_chunk(self, digest: bytes, data: bytes) -> bool:
        """Store a chunk on every placement target; False if known.

        Item ``i`` of ``scheme.encode`` goes to preference position
        ``i``.  Durability is strict: if any placement write errors past
        its retry budget, the error propagates (after every target was
        attempted) — an acked chunk has an item on every target that is
        still alive, at least ``min_fragments`` of them (fewer cannot
        reconstruct — a partial set that acked would be silent data
        loss on the first degraded read).  Items that did land make the
        caller's retry a cheap content-addressed no-op.

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
        items = self.scheme.encode(data)
        last_error: OSError | None = None
        landed = already = 0
        for position, node in enumerate(targets):
            try:
                inserted = self._put_with_retry(
                    node, digest, position, items[position], len(data)
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
        if any(not n.alive for n in self._nodes.values()):
            # A node died while this snapshot was being written: the
            # auto-repair that ran at death time was recipe-driven, so
            # chunks stored *before* this recipe existed may be down to
            # a single replica.  Heal exactly this snapshot's digests
            # now that they are enumerable.
            moves = MigrationReport()
            self._reconcile(recipe.digests, moves)
            self.stats.repair_chunks_recopied += moves.chunks_moved

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

        The length comes from one holder's stored record — a whole
        copy's size, a fragment's *header* — read in one batch per node.
        With ``verify_reads`` it comes from a verified read instead: a
        bare header is not trusted under faults.
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
            try:
                return self.scheme.record_chunk_len(record)
            except CorruptItemError:
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
            digests = self._ask(node, node.digests) if node.alive else None
            if digests is not None:
                queue.extend((node_id, digest) for digest in sorted(digests))
        return queue

    def _scrub_one(
        self, node_id: str, digest: bytes, report: ScrubReport
    ) -> None:
        """Verify one stored item; quarantine-and-heal on mismatch."""
        node = self._nodes.get(node_id)
        if node is None or not node.alive:
            return
        try:
            raw = self._ask(node, node.get_chunk, digest)
        except KeyError:
            return  # gone (GC, repair moved it): nothing to verify
        if raw is None:
            return
        report.chunks_scanned += 1
        report.bytes_verified += len(raw)
        self.stats.scrub_chunks += 1
        try:
            self.scheme.unpack(digest, raw, verify=True)
            return  # parsed and digest-verified: healthy
        except CorruptItemError:
            pass
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
        """Replace one failed-verification item from healthy sources.

        One reconcile of the digest that distrusts ``node``'s record:
        on the placement the record is rebuilt, then replaced; off it,
        dropping the stray *is* the heal — once the placement holds the
        full set.  With no healthy source the suspect copy stays put: it
        may itself be a transient read-side fault.
        """
        lost, short = self._reconcile(
            [digest],
            MigrationReport(),
            drop_strays=node not in self._placement(digest),
            distrust={node.node_id},
        )
        return not lost and not short

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
        """Gracefully drain a node: re-place its chunks, then retire it.

        A ring too small to lose the node refuses before anything
        changes.  Otherwise the node leaves the ring but stays alive
        while its digests are reconciled: one more off-placement source,
        and each new target gets exactly the item it lacks.
        """
        node = self._node(node_id)
        if not node.alive:
            raise ValueError(f"node {node_id!r} is down; use repair()")
        self.scheme.validate(self.ring, leaving=1)
        affected = node.digests()
        self.ring.remove_node(node_id)
        report = MigrationReport()
        self._reconcile(affected, report)
        report.chunks_dropped = len(affected)
        node.fail()  # retire: contents dropped after migration
        return report

    def repair(self) -> RepairReport:
        """Recipe-driven re-replication after failures or ring changes.

        Reconciles every digest referenced by any recipe with its
        placement on the current ring: targets that lack their item get
        it rebuilt from any sufficient set of survivors — whole copies
        re-copied, erasure-coded fragments rebuilt one by one, so
        ``bytes_copied`` is fragment-sized there, the whole point of
        erasure-coded repair traffic.  Digests with fewer than
        ``min_fragments`` surviving items are reported as unrecoverable
        (the data is gone; the snapshot cannot be restored).
        """
        live = self._recipes.live_digests()
        moves = MigrationReport()
        lost, _short = self._reconcile(live, moves)
        return RepairReport(
            len(live), moves.chunks_moved, moves.bytes_moved, tuple(lost)
        )

    def rebalance(self) -> MigrationReport:
        """Move chunks to their current placement after a ring resize.

        Reconciles everything stored with its placement, then drops the
        items the scheme no longer targets — per digest, and only once
        that digest's placement holds its full set.
        """
        report = MigrationReport()
        self._reconcile(self.digests(), report, drop_strays=True)
        return report

    def _assign(
        self,
        targets: list[StoreNode],
        held: dict[str, int | None],
    ) -> list[tuple[StoreNode, int, bool]]:
        """Plan item writes so the targets cover distinct indices.

        A valid item is fine *wherever* it sits in the target set —
        rewriting every fragment whose preference position shifted after
        ring churn would ship more bytes than whole-chunk repair.  Only
        targets holding nothing usable (no record, a corrupt/stale one,
        or a duplicate of an index another target covers) are assigned a
        *missing* index, preferring their own position's index.  Returns
        ``(node, index, had_record)`` write orders.
        """
        covered: set[int] = set()
        needy: list[tuple[int, StoreNode]] = []
        for position, node in enumerate(targets):
            index = held.get(node.node_id)
            if index is not None and index not in covered:
                covered.add(index)
            else:
                needy.append((position, node))
        missing = [i for i in range(self.scheme.copies) if i not in covered]
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

    def _place(
        self, node: StoreNode, digest: bytes, index: int, payload: bytes,
        chunk_len: int, replace: bool,
    ) -> bool:
        """Write one rebuilt item — with ``replace``, over the unusable
        record the node holds under the key (replace, don't accrete).
        False when it did not land: lost to a fault, or the node left."""
        if replace and self._ask(node, node.delete_chunk, digest) is None:
            return False
        try:
            landed = self._put_with_retry(node, digest, index, payload, chunk_len)
        except OSError:
            return False
        return landed is not None

    def _reconcile(
        self,
        digests,
        report: MigrationReport,
        drop_strays: bool = False,
        distrust: Collection[str] = (),
    ) -> tuple[list[bytes], list[bytes]]:
        """Make each digest's current placement hold its full item set.

        The one maintenance pass.  Per digest: diff the desired
        placement against what verified holders cover (:meth:`_gather`,
        :meth:`_assign`), rebuild only the missing items from any
        ``min_fragments`` verified ones, and write them.  Two orderings
        keep it safe when writes fail:

        * *rebuild before replace* — a target's unusable record (fails
          verification, named in ``distrust``, or a duplicate of an
          index another target covers) is deleted only once its
          replacement is rebuilt and in hand;
        * *write before drop* — with ``drop_strays``, records on nodes
          the placement no longer names go only after every planned
          write landed: the placement verifiably holds a full set.

        Work accumulates into ``report`` (``bytes_moved`` is the size of
        the items written).  Returns ``(lost, short)``: digests with
        fewer than ``min_fragments`` verified items anywhere, and
        digests whose placement stays short because a write was lost to
        a fault — the next pass rebuilds those.
        """
        scheme = self.scheme
        need = scheme.min_fragments
        # A heal never rebuilds from an unverified source.
        verify = self.verify_reads or bool(distrust)
        lost: list[bytes] = []
        short: list[bytes] = []
        self._repairing = True
        try:
            for digest in digests:
                targets = self._placement(digest)
                census = self._alive_nodes() if drop_strays else targets
                for _attempt in range(self.read_attempts):
                    items, chunk_len, held, failures = self._gather(
                        digest, verify, census, distrust
                    )
                    if len(items) >= need or not failures:
                        break
                if len(items) < need:
                    lost.append(digest)
                    continue
                orders = self._assign(targets, held)
                wanted = [index for _, index, _ in orders]
                rebuilt = scheme.rebuild(items, wanted) if wanted else {}
                whole = True
                for node, index, had_record in orders:
                    payload = rebuilt[index]
                    if self._place(node, digest, index, payload, chunk_len, had_record):
                        report.chunks_moved += 1
                        report.bytes_moved += len(payload)
                    else:
                        whole = False
                if not whole:
                    short.append(digest)
                elif drop_strays:
                    for node_id in held:
                        node = self._nodes[node_id]
                        if node not in targets and (
                            self._ask(node, node.delete_chunk, digest) is not None
                        ):
                            report.chunks_dropped += 1
        finally:
            self._repairing = False
        if self._repair_pending:
            # A node was declared dead mid-pass: one follow-up repair.
            self._repair_pending = False
            self._auto_repair()
        return lost, short

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
        return sum(n or 0 for n in self.chunk_lengths(list(self.digests())))

    @property
    def snapshot_count(self) -> int:
        return len(self._recipes)

    def replica_count(self, digest: bytes) -> int:
        # repro: lint-ok[batched-api] one digest across every node, not a digest batch
        return sum(1 for n in self._alive_nodes() if n.holds(digest))
