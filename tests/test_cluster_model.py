"""Model test of the chunk-store cluster.

One ``hypothesis`` state machine per placement x backend drives a real
:class:`ChunkStoreCluster` through interleaved puts, recipes, reads,
node deaths, membership changes, repair, rebalance, decommission, GC,
scrub, in-place record corruption and (on disk) close/reopen, against an
oracle that is a plain dict of recipes -> bytes.

What the model claims, after every step:

* every recorded recipe restores byte-exact while the damage done since
  the last converged ``repair()`` / clean ``scrub()`` stays within the
  scheme's tolerance (``copies - min_fragments`` nodes) — the rules only
  ever do that much damage, so the claim is simply "always";
* GC never drops a referenced digest (the same restores, after a sweep);
* a ``repair()`` that reports healthy leaves every live digest with a
  full item set on its placement — distinct fragment indices, every
  record verified;
* ``ClusterStats`` counters never go down, and ``scrub_corrupt ==
  scrub_repaired + scrub_unrepaired``.

Derandomized, so a failure replays; a failure becomes a shrunk example
in ``TestShrunkExamples`` below, never a skip.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backup import SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.store import (
    ChunkStoreCluster,
    ErasureCodedPlacement,
    ReplicatedPlacement,
)
from repro.store.schemes import CorruptItemError

#: Chunk payloads the rules draw from: lengths that no ``k`` divides,
#: one byte, and a few that share a prefix.
PAYLOADS = tuple(
    bytes([i]) * n + i.to_bytes(2, "big")
    for i, n in enumerate((0, 1, 2, 5, 11, 30, 31, 64, 97, 150))
)
DIGESTS = tuple(chunk_hash(p) for p in PAYLOADS)
BY_DIGEST = dict(zip(DIGESTS, PAYLOADS))

PLACEMENTS = {
    "replicated2": (lambda: ReplicatedPlacement(2), 4),
    "replicated3": (lambda: ReplicatedPlacement(3), 5),
    "ec4+2": (lambda: ErasureCodedPlacement(4, 2), 8),
    "ec2+1": (lambda: ErasureCodedPlacement(2, 1), 4),
}
BACKENDS = ("memory", "disk")

MAX_RECIPES = 3
MAX_NODES = 12
#: Reopening nine log+keydir backends costs more than any other step.
MAX_REOPENS = 2
PICK = st.integers(0, 63)


def corrupt_stored(node, digest: bytes) -> None:
    """Flip a stored byte in place: persistent shard corruption."""
    (raw,) = node.backend.get_batch([digest])
    node.backend.delete_batch([digest])
    node.backend.put_batch([(digest, raw[:-1] + bytes([raw[-1] ^ 0xFF]))])


class ClusterModel(RuleBasedStateMachine):
    make_scheme = staticmethod(PLACEMENTS["replicated2"][0])
    n_nodes = 4
    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self.data_dir = tempfile.mkdtemp() if self.backend == "disk" else None
        self.cluster = self._open(self.n_nodes)
        scheme = self.cluster.scheme
        self.tolerance = scheme.copies - scheme.min_fragments
        #: The oracle: snapshot id -> the digests it was recorded with.
        self.recipes: dict[str, tuple[bytes, ...]] = {}
        self.next_snapshot = 0
        #: Put at full strength since the last damage, in no recipe yet.
        self.loose: set[bytes] = set()
        #: Nodes whose loss or rot is not yet repaired / scrubbed away.
        self.killed: set[str] = set()
        self.rotten: set[str] = set()
        self.counters = dict(vars(self.cluster.stats))
        self.reopens = 0

    def _open(self, n_nodes: int) -> ChunkStoreCluster:
        return ChunkStoreCluster(
            n_nodes=n_nodes,
            scheme=self.make_scheme(),
            batch_size=4,
            backend=self.backend,
            data_dir=self.data_dir,
            fault_plan=None,
            verify_reads=True,
        )

    def teardown(self) -> None:
        self.cluster.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- helpers -------------------------------------------------------

    def _alive(self) -> list[str]:
        return sorted(nid for nid, n in self.cluster.nodes.items() if n.alive)

    def _live(self) -> set[bytes]:
        return {d for digests in self.recipes.values() for d in digests}

    def _may_damage(self, node_id: str) -> bool:
        return len(self.killed | self.rotten | {node_id}) <= self.tolerance

    # -- data rules ----------------------------------------------------

    @rule(pick=PICK)
    def put(self, pick):
        digest = DIGESTS[pick % len(DIGESTS)]
        self.cluster.put_chunk(digest, BY_DIGEST[digest])
        assert self.cluster.put_chunk(digest, BY_DIGEST[digest]) is False
        self.loose.add(digest)

    @precondition(lambda self: len(self.recipes) < MAX_RECIPES)
    @rule(picks=st.lists(PICK, max_size=5))
    def record_recipe(self, picks):
        safe = sorted(self._live() | self.loose)
        digests = tuple(safe[p % len(safe)] for p in picks) if safe else ()
        snapshot_id = f"snap-{self.next_snapshot}"
        self.next_snapshot += 1
        self.cluster.put_recipe(
            SnapshotRecipe(
                snapshot_id, digests, sum(len(BY_DIGEST[d]) for d in digests)
            )
        )
        self.recipes[snapshot_id] = digests
        self.loose.difference_update(digests)

    @precondition(lambda self: self.recipes)
    @rule(pick=PICK)
    def delete_recipe(self, pick):
        snapshot_id = sorted(self.recipes)[pick % len(self.recipes)]
        self.cluster.delete_recipe(snapshot_id)
        # Its digests may now be swept; until then they are still there.
        self.loose.update(set(self.recipes.pop(snapshot_id)) - self._live())

    @rule(pick=PICK)
    def get(self, pick):
        safe = sorted(self._live() | self.loose)
        absent = [d for d in DIGESTS if d not in safe]
        if safe:
            digest = safe[pick % len(safe)]
            assert self.cluster.get_chunk(digest) == BY_DIGEST[digest]
            assert self.cluster.has_chunk(digest)
            assert self.cluster.chunk_lengths([digest]) == [len(BY_DIGEST[digest])]
        if absent and not self.cluster.has_chunk(absent[0]):
            with pytest.raises(KeyError):
                self.cluster.get_chunk(absent[0])

    @rule()
    def gc(self):
        self.cluster.garbage_collect()
        self.loose.clear()
        live = self._live()
        assert self.cluster.digests() <= live
        assert self.cluster.has_chunks(DIGESTS) == [d in live for d in DIGESTS]

    # -- damage --------------------------------------------------------

    @rule(pick=PICK)
    def kill(self, pick):
        alive = self._alive()
        node_id = alive[pick % len(alive)]
        if not self._may_damage(node_id) or len(alive) <= self.cluster.scheme.copies:
            return
        self.cluster.fail_node(node_id)
        self.killed.add(node_id)

    @rule(pick=PICK, which=PICK)
    def corrupt_one_record(self, pick, which):
        alive = self._alive()
        node = self.cluster.nodes[alive[pick % len(alive)]]
        held = sorted(node.digests())
        if not held or not self._may_damage(node.node_id):
            return
        corrupt_stored(node, held[which % len(held)])
        self.rotten.add(node.node_id)

    # -- membership and maintenance ------------------------------------

    @precondition(lambda self: len(self.cluster.nodes) < MAX_NODES)
    @rule()
    def add_node(self):
        self.cluster.add_node()

    @rule()
    def repair(self):
        report = self.cluster.repair()
        assert report.chunks_scanned == len(self._live())
        assert report.healthy, report
        if self.killed:
            # Repair is recipe-driven: what no recipe names was not
            # topped up, so it no longer counts as safely stored.
            self.loose.clear()
            self.killed.clear()
        self._assert_full_sets()

    @rule()
    def rebalance(self):
        self.cluster.rebalance()

    @rule(pick=PICK)
    def decommission(self, pick):
        alive = self._alive()
        node_id = alive[pick % len(alive)]
        if len(alive) <= self.cluster.scheme.copies:
            # Refused: the ring would be too small — and a refusal
            # changes nothing.
            ring = self.cluster.ring.node_ids
            with pytest.raises(ValueError):
                self.cluster.decommission(node_id)
            assert self.cluster.ring.node_ids == ring
            assert self._alive() == alive
            return
        self.cluster.decommission(node_id)
        assert not self.cluster.nodes[node_id].alive
        # A drained node's rot left with it; a drain is not a loss.
        self.rotten.discard(node_id)

    @rule(limit=st.sampled_from([None, 3, 7]))
    def scrub(self, limit):
        report = self.cluster.scrub(limit=limit)
        assert report.corrupt == report.repaired + report.unrepaired
        if limit is None:
            assert report.healthy, report
            self.rotten.clear()
            assert self.cluster.scrub().corrupt == 0

    @precondition(
        lambda self: self.backend == "disk" and self.reopens < MAX_REOPENS
    )
    @rule()
    def close_reopen(self):
        self.reopens += 1
        n_nodes = len(self.cluster.nodes)
        self.cluster.close()
        # Every node id comes back, the dead ones empty: same membership
        # as at construction, so placements may need a repair/rebalance.
        self.cluster = self._open(n_nodes)
        self.counters = dict(vars(self.cluster.stats))
        assert sorted(self.cluster.snapshot_ids()) == sorted(self.recipes)

    # -- invariants ----------------------------------------------------

    def _assert_full_sets(self) -> None:
        """Every live digest has a full item set on its placement."""
        cluster = self.cluster
        scheme = cluster.scheme
        for digest in self._live():
            targets = scheme.nodes_for(cluster.ring, digest)
            assert len(targets) == scheme.copies
            # Rot on a whole copy is the scrubber's to find, not repair's:
            # while some is outstanding, only ask what each target holds.
            ask = scheme.peek if self.rotten else scheme.read
            indices = set()
            for position, node_id in enumerate(targets):
                index = ask(cluster.nodes[node_id], digest, True).index
                indices.add(position if index is None else index)
            assert len(indices) == scheme.copies, (digest.hex()[:8], indices)

    @invariant()
    def recipes_restore_byte_exact(self):
        for snapshot_id, digests in self.recipes.items():
            want = b"".join(BY_DIGEST[d] for d in digests)
            assert self.cluster.restore(snapshot_id) == want, snapshot_id

    @invariant()
    def counters_are_monotone(self):
        now = dict(vars(self.cluster.stats))
        assert all(now[name] >= was for name, was in self.counters.items()), (
            self.counters,
            now,
        )
        assert now["scrub_corrupt"] == now["scrub_repaired"] + now["scrub_unrepaired"]
        self.counters = now


MODEL_SETTINGS = settings(
    max_examples=200,
    stateful_step_count=50,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=list(HealthCheck),
)


def _cell(placement: str, backend: str):
    make_scheme, n_nodes = PLACEMENTS[placement]
    model = type(
        f"ClusterModel[{placement}-{backend}]",
        (ClusterModel,),
        {
            "make_scheme": staticmethod(make_scheme),
            "n_nodes": n_nodes,
            "backend": backend,
        },
    )
    model.TestCase.settings = MODEL_SETTINGS
    return model.TestCase


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_cluster_model(placement, backend):
    _cell(placement, backend)().runTest()


# ----------------------------------------------------------------------
# shrunk examples: every failure the model found, and the write-fault
# case its rules cannot reach
# ----------------------------------------------------------------------


def make_chunks(n: int, size: int) -> list[tuple[bytes, bytes]]:
    chunks = []
    for i in range(n):
        data = (i.to_bytes(4, "big") * (size // 4 + 1))[:size]
        chunks.append((chunk_hash(data), data))
    return chunks


class TestShrunkExamples:
    def test_refused_decommission_changes_nothing(self):
        """``decommission(pick=0)`` on a ring already at the scheme's
        minimum: the refusal used to leave the node off the ring, alive
        and holding data, and later puts landed a single replica."""
        cluster = ChunkStoreCluster(
            n_nodes=2, scheme=ReplicatedPlacement(2), fault_plan=None
        )
        (digest, data), (later, later_data) = make_chunks(2, 64)
        cluster.put_chunk(digest, data)
        ring = cluster.ring.node_ids
        with pytest.raises(ValueError):
            cluster.decommission("node-0")
        assert cluster.ring.node_ids == ring == {"node-0", "node-1"}
        assert cluster.nodes["node-0"].alive
        assert cluster.nodes["node-0"].holds(digest)
        cluster.put_chunk(later, later_data)
        assert cluster.replica_count(later) == 2
        assert cluster.replica_count(digest) == 2

    def test_decommission_does_not_spread_a_corrupt_copy(self):
        """``put, corrupt_one_record, decommission`` of the rotten node:
        the drain used to copy the node's own record out unverified, so
        the rot moved to the new target while a good replica existed."""
        cluster = ChunkStoreCluster(
            n_nodes=4,
            scheme=ReplicatedPlacement(2),
            fault_plan=None,
            verify_reads=True,
        )
        ((digest, data),) = make_chunks(1, 64)
        cluster.put_chunk(digest, data)
        rotten = next(n for n in cluster.nodes.values() if n.holds(digest))
        corrupt_stored(rotten, digest)
        cluster.decommission(rotten.node_id)
        holders = [n for n in cluster.nodes.values() if n.alive and n.holds(digest)]
        assert len(holders) == 2
        assert all(chunk_hash(n.get_chunk(digest)) == digest for n in holders)
        assert cluster.get_chunk(digest) == data

    def test_ec_rebalance_keeps_strays_when_the_new_placement_cannot_be_written(self):
        """Six nodes join an EC(4+2) cluster with disks that refuse
        writes (reads still answer): rebalance used to swallow the
        failed fragment writes and delete the off-placement fragments
        anyway — chunks below ``k`` fragments, unreadable."""
        cluster = ChunkStoreCluster(
            n_nodes=6, scheme=ErasureCodedPlacement(4, 2), fault_plan=None
        )
        chunks = make_chunks(60, 4000)
        cluster.put_chunks(chunks)

        def disk_full(_items, **_kwargs):
            raise OSError("disk full")

        for _ in range(6):
            node_id = cluster.add_node()
            cluster.nodes[node_id].backend.put_batch = disk_full
        report = cluster.rebalance()
        assert report.chunks_dropped == 0
        for digest, data in chunks:
            assert cluster.get_chunk(digest) == data


# ----------------------------------------------------------------------
# the one path: what every scheme gets from the shared reconcile / read
# ----------------------------------------------------------------------

SCHEMES = {
    "replicated": lambda: ReplicatedPlacement(3),
    "ec": lambda: ErasureCodedPlacement(4, 2),
}


def make_cluster(scheme: str, **kwargs) -> ChunkStoreCluster:
    kwargs.setdefault("n_nodes", 8)
    return ChunkStoreCluster(scheme=SCHEMES[scheme](), fault_plan=None, **kwargs)


def payload_reads(cluster: ChunkStoreCluster) -> list[int]:
    """Spy on every node's backend reads: one entry per call, the number
    of payloads it returned (a miss returns none)."""
    reads: list[int] = []
    for node in cluster.nodes.values():
        original = node.backend.get_batch

        def spy(keys, original=original):
            values = original(keys)
            reads.append(sum(value is not None for value in values))
            return values

        node.backend.get_batch = spy
    return reads


@pytest.mark.parametrize("scheme", SCHEMES)
class TestOnePath:
    def test_item_form_round_trips_and_rejects_bad_records(self, scheme):
        cluster = make_cluster(scheme)
        form = cluster.scheme
        ((digest, data),) = make_chunks(1, 1001)
        items = form.encode(data)
        assert len(items) == form.copies
        node = cluster.nodes["node-0"]
        assert form.write(node, digest, 1, items[1], len(data)) is True
        assert form.write(node, digest, 1, items[1], len(data)) is False
        item = form.read(node, digest, True)
        assert item.payload == items[1] and item.chunk_len == len(data)
        assert item.index in (1, None)  # a whole copy names no position
        (record,) = node.get_chunks([digest])
        assert form.record_chunk_len(record) == len(data)
        have = dict(list(enumerate(items))[-form.min_fragments :])
        assert form.decode(digest, have, len(data), True) == data
        assert form.rebuild(have, [0]) == {0: items[0]}
        with pytest.raises(KeyError):
            form.read(cluster.nodes["node-1"], digest, True)
        corrupt_stored(node, digest)
        with pytest.raises(CorruptItemError):
            form.read(node, digest, True)

    def test_maintenance_survives_a_target_that_refuses_writes(self, scheme):
        """Repair, rebalance and decommission go through the guarded
        call and the write retry: an erroring target leaves its digests
        short for the next pass instead of aborting this one."""
        cluster = make_cluster(scheme)
        chunks = make_chunks(40, 600)
        cluster.put_chunks(chunks)
        cluster.put_recipe(
            SnapshotRecipe("snap", tuple(d for d, _ in chunks), 40 * 600)
        )

        def disk_full(_items, **_kwargs):
            raise OSError("disk full")

        sick = cluster.add_node()
        cluster.nodes[sick].backend.put_batch = disk_full
        cluster.fail_node("node-0")
        assert cluster.repair().healthy
        assert cluster.rebalance().chunks_moved >= 0
        cluster.decommission("node-1")
        assert cluster.nodes[sick].stats.io_errors > 0
        for digest, data in chunks:
            assert cluster.get_chunk(digest) == data

    def test_unique_bytes_and_snapshot_need_no_payload_read(self, scheme):
        cluster = make_cluster(scheme)
        chunks = make_chunks(20, 777)
        cluster.put_chunks(chunks)
        cluster.get_chunk = None  # a full read would raise TypeError
        assert cluster.unique_bytes == 20 * 777
        snapshot = cluster.health_snapshot()
        assert snapshot["scheme"] == cluster.scheme.name
        assert snapshot == {**snapshot, **cluster.scheme.describe()}
        assert ("ec_k" in snapshot) == (scheme == "ec")


def test_whole_copy_census_reads_one_source_per_digest():
    """Repair and rebalance of whole copies ask targets and strays what
    they hold (``holds``); only the source copy is read."""
    cluster = make_cluster("replicated")
    chunks = make_chunks(30, 500)
    cluster.put_chunks(chunks)
    cluster.put_recipe(SnapshotRecipe("snap", tuple(d for d, _ in chunks), 0))
    cluster.fail_node("node-2")
    cluster.add_node()
    reads = payload_reads(cluster)
    report = cluster.repair()
    assert report.healthy and report.chunks_recopied > 0
    assert sum(reads) == len(chunks)
    reads.clear()
    cluster.rebalance()
    assert sum(reads) == len(chunks)
