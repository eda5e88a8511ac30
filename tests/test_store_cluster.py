"""Tests for the sharded chunk-store cluster (``src/repro/store``)."""

from __future__ import annotations

import math

import pytest

from repro.backup import (
    BackupConfig,
    BackupServer,
    ChunkStore,
    MasterImage,
    SimilarityTable,
    SnapshotRecipe,
)
from repro.core.dedup import DedupIndex
from repro.core.chunking import Chunk
from repro.core.hashing import chunk_hash
from repro.store import (
    BatchedLookup,
    ChunkStoreCluster,
    HashRing,
    MemoryBackend,
    NodeDownError,
    PersistentBackend,
    ReplicatedPlacement,
    StoreNode,
    StripedPlacement,
    VanillaPlacement,
    make_scheme,
)
from tests.conftest import probe

MB = 1 << 20


def make_digests(n: int, salt: bytes = b"") -> list[bytes]:
    return [chunk_hash(salt + i.to_bytes(4, "big")) for i in range(n)]


def make_chunks(payloads: list[bytes]) -> list[Chunk]:
    chunks, offset = [], 0
    for data in payloads:
        chunks.append(
            Chunk(offset=offset, length=len(data), data=data, digest=chunk_hash(data))
        )
        offset += len(data)
    return chunks


class TestHashRing:
    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().node_for(chunk_hash(b"x"))

    def test_mapping_deterministic(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for i in range(4):
                ring.add_node(f"node-{i}")
        for d in make_digests(100):
            assert a.node_for(d) == b.node_for(d)

    def test_preference_list_distinct(self):
        ring = HashRing()
        for i in range(5):
            ring.add_node(f"node-{i}")
        for d in make_digests(50):
            pref = ring.preference_list(d, 3)
            assert len(pref) == len(set(pref)) == 3
            assert pref[0] == ring.node_for(d)

    def test_preference_list_too_large(self):
        ring = HashRing()
        ring.add_node("only")
        with pytest.raises(LookupError):
            ring.preference_list(chunk_hash(b"x"), 2)

    def test_duplicate_node_rejected(self):
        ring = HashRing()
        ring.add_node("n")
        with pytest.raises(ValueError):
            ring.add_node("n")

    def test_resize_stability(self):
        """Adding one node moves only the keys that node now owns."""
        ring = HashRing()
        for i in range(4):
            ring.add_node(f"node-{i}")
        ds = make_digests(800)
        before = {d: ring.node_for(d) for d in ds}
        ring.add_node("node-4")
        after = {d: ring.node_for(d) for d in ds}
        moved = [d for d in ds if before[d] != after[d]]
        # Every moved key lands on the new node, nothing reshuffles
        # between survivors — the consistent-hashing property.
        assert all(after[d] == "node-4" for d in moved)
        # Expected share is 1/5; allow generous slack for hash variance.
        assert 0.05 < len(moved) / len(ds) < 0.45
        ring.remove_node("node-4")
        assert {d: ring.node_for(d) for d in ds} == before

    def test_remove_only_moves_removed_nodes_keys(self):
        ring = HashRing()
        for i in range(4):
            ring.add_node(f"node-{i}")
        ds = make_digests(400)
        before = {d: ring.node_for(d) for d in ds}
        ring.remove_node("node-2")
        for d in ds:
            if before[d] != "node-2":
                assert ring.node_for(d) == before[d]


class TestPlacementSchemes:
    @pytest.fixture()
    def ring(self) -> HashRing:
        ring = HashRing()
        for i in range(6):
            ring.add_node(f"node-{i}")
        return ring

    def test_vanilla_is_primary(self, ring):
        scheme = VanillaPlacement()
        for d in make_digests(30):
            assert scheme.nodes_for(ring, d) == (ring.node_for(d),)

    def test_replicated_distinct_copies(self, ring):
        scheme = ReplicatedPlacement(3)
        for d in make_digests(30):
            nodes = scheme.nodes_for(ring, d)
            assert len(nodes) == len(set(nodes)) == 3
            assert nodes == ring.preference_list(d, 3)

    def test_striped_single_copy_in_window(self, ring):
        scheme = StripedPlacement(stripe_width=4)
        spread = set()
        for d in make_digests(200):
            nodes = scheme.nodes_for(ring, d)
            assert len(nodes) == 1
            assert nodes[0] in ring.preference_list(d, 4)
            spread.add(nodes[0])
        assert len(spread) > 1  # actually stripes across nodes

    def test_validate_rejects_small_ring(self):
        ring = HashRing()
        ring.add_node("solo")
        with pytest.raises(ValueError):
            ReplicatedPlacement(2).validate(ring)

    def test_make_scheme(self):
        assert isinstance(make_scheme("vanilla"), VanillaPlacement)
        assert make_scheme("replicated", replicas=3).replicas == 3
        assert make_scheme("striped", stripe_width=2).stripe_width == 2
        with pytest.raises(ValueError):
            make_scheme("raid0")


class TestClusterChunkStoreParity:
    """The cluster speaks the single-node ChunkStore protocol."""

    def test_put_get_roundtrip(self):
        cluster = ChunkStoreCluster(n_nodes=3)
        d = chunk_hash(b"data")
        assert cluster.put_chunk(d, b"data") is True
        assert cluster.put_chunk(d, b"data") is False
        assert cluster.has_chunk(d)
        assert cluster.get_chunk(d) == b"data"
        assert cluster.chunk_count == 1

    def test_missing_chunk_descriptive_error(self):
        cluster = ChunkStoreCluster(n_nodes=2)
        with pytest.raises(KeyError, match="missing from cluster"):
            cluster.get_chunk(chunk_hash(b"nope"))

    def test_recipe_requires_chunks(self):
        cluster = ChunkStoreCluster(n_nodes=2)
        with pytest.raises(ValueError, match="missing"):
            cluster.put_recipe(SnapshotRecipe("s", (chunk_hash(b"x"),), 1))

    def test_restore_matches_single_store(self):
        cluster = ChunkStoreCluster(n_nodes=4)
        single = ChunkStore()
        payloads = [bytes([i]) * (100 + i) for i in range(40)]
        ds = []
        for p in payloads:
            d = chunk_hash(p)
            ds.append(d)
            cluster.put_chunk(d, p)
            single.put_chunk(d, p)
        recipe = SnapshotRecipe("s", tuple(ds + ds[:5]), 0)
        cluster.put_recipe(recipe)
        single.put_recipe(recipe)
        assert cluster.restore("s") == single.restore("s")

    def test_replication_factor_honored(self):
        cluster = ChunkStoreCluster(n_nodes=5, scheme=ReplicatedPlacement(3))
        for p in [bytes([i]) * 64 for i in range(60)]:
            cluster.put_chunk(chunk_hash(p), p)
        for d in cluster.digests():
            assert cluster.replica_count(d) == 3
        assert cluster.stored_bytes == 3 * cluster.unique_bytes

    def test_striped_single_replica(self):
        cluster = ChunkStoreCluster(
            n_nodes=4, scheme=StripedPlacement(stripe_width=3)
        )
        for p in [bytes([i]) * 64 for i in range(60)]:
            cluster.put_chunk(chunk_hash(p), p)
        assert all(cluster.replica_count(d) == 1 for d in cluster.digests())


def populate(cluster: ChunkStoreCluster, n: int, snapshot_id: str = "snap"):
    """Store n distinct chunks plus a recipe referencing them all."""
    payloads = [i.to_bytes(4, "big") * 32 for i in range(n)]
    ds = [chunk_hash(p) for p in payloads]
    for d, p in zip(ds, payloads):
        cluster.put_chunk(d, p)
    cluster.put_recipe(
        SnapshotRecipe(snapshot_id, tuple(ds), sum(len(p) for p in payloads))
    )
    return ds, b"".join(payloads)


class TestFailureRecovery:
    def test_degraded_restore_without_repair(self):
        cluster = ChunkStoreCluster(n_nodes=4, scheme=ReplicatedPlacement(2))
        _, blob = populate(cluster, 80)
        cluster.fail_node("node-1")
        assert cluster.restore("snap") == blob  # surviving replicas serve

    def test_repair_restores_replication(self):
        cluster = ChunkStoreCluster(n_nodes=4, scheme=ReplicatedPlacement(2))
        ds, blob = populate(cluster, 80)
        cluster.fail_node("node-2")
        report = cluster.repair()
        assert report.healthy
        assert report.chunks_scanned == 80
        assert report.chunks_recopied > 0
        assert all(cluster.replica_count(d) == 2 for d in ds)
        assert cluster.restore("snap") == blob

    def test_unreplicated_failure_is_unrecoverable(self):
        cluster = ChunkStoreCluster(n_nodes=3, scheme=VanillaPlacement())
        populate(cluster, 80)
        victim = max(
            cluster.nodes, key=lambda nid: cluster.nodes[nid].chunk_count
        )
        cluster.fail_node(victim)
        report = cluster.repair()
        assert not report.healthy and len(report.unrecoverable) > 0
        with pytest.raises(KeyError, match="missing from cluster"):
            cluster.restore("snap")

    def test_dead_node_refuses_operations(self):
        node = StoreNode("n0")
        node.fail()
        with pytest.raises(NodeDownError):
            node.put_chunk(chunk_hash(b"x"), b"x")

    def test_decommission_drains_gracefully(self):
        cluster = ChunkStoreCluster(n_nodes=4, scheme=ReplicatedPlacement(2))
        ds, blob = populate(cluster, 80)
        report = cluster.decommission("node-0")
        assert report.chunks_dropped == 80 or report.chunks_dropped >= 0
        assert cluster.n_nodes_alive == 3
        assert all(cluster.replica_count(d) >= 2 for d in ds)
        assert cluster.restore("snap") == blob

    def test_ring_smaller_than_replica_count_serves_degraded(self):
        """Losing nodes below the replica count degrades copies, it
        does not take reads (or repair) down."""
        cluster = ChunkStoreCluster(n_nodes=2, scheme=ReplicatedPlacement(2))
        ds, blob = populate(cluster, 40)
        cluster.fail_node("node-1")
        assert cluster.restore("snap") == blob
        hit_map, _ = cluster.lookup_batch(ds)
        assert all(hit_map.values())
        report = cluster.repair()
        assert report.healthy
        assert all(cluster.replica_count(d) == 1 for d in ds)

    def test_lookup_hits_surviving_replica_before_repair(self):
        """Mid-repair, a copy that survives off the new primary still
        answers the batched lookup (no spurious re-shipping)."""
        cluster = ChunkStoreCluster(n_nodes=4, scheme=ReplicatedPlacement(2))
        ds, _ = populate(cluster, 80)
        cluster.fail_node("node-0")
        hit_map, stats = cluster.lookup_batch(ds)  # deliberately no repair
        assert all(hit_map.values())
        assert stats.hits == len(ds)

    def test_add_node_and_rebalance(self):
        cluster = ChunkStoreCluster(n_nodes=3, scheme=ReplicatedPlacement(2))
        ds, blob = populate(cluster, 120)
        cluster.add_node("node-3")
        assert cluster.nodes["node-3"].chunk_count == 0  # no data moves yet
        report = cluster.rebalance()
        assert report.chunks_moved > 0
        assert cluster.nodes["node-3"].chunk_count > 0
        assert all(cluster.replica_count(d) == 2 for d in ds)
        assert cluster.restore("snap") == blob


class TestNodeMembership:
    """A node's membership answer is its backend keydir, exactly."""

    @pytest.fixture(params=["memory", "disk"])
    def node(self, request, tmp_path):
        backend = (
            PersistentBackend(tmp_path / "n") if request.param == "disk"
            else MemoryBackend()
        )
        node = StoreNode("n", backend=backend)
        yield node
        node.close()

    def test_no_false_negatives(self, node):
        stored = make_digests(500)
        for d in stored:
            node.put_chunk(d, d)
        assert node.probe_batch(stored) == [True] * 500
        assert node.stats.hits == 500 and node.stats.bloom_negatives == 0

    def test_no_false_positives(self, node):
        for d in make_digests(1000, salt=b"in"):
            node.put_chunk(d, d)
        absent = make_digests(2000, salt=b"out")
        assert node.probe_batch(absent) == [False] * 2000
        assert node.stats.hits == 0 and node.stats.bloom_negatives == 2000

    def test_no_false_positives_on_one_nodes_arc(self):
        """The keys the ring routes to one node share a hash prefix
        range; its answers stay exact on them."""
        cluster = ChunkStoreCluster(n_nodes=8, scheme=VanillaPlacement())
        node = cluster.nodes["node-3"]
        mine = [d for d in make_digests(8000, salt=b"in")
                if cluster.ring.node_for(d) == "node-3"]
        for d in mine:
            cluster.put_chunk(d, d)
        absent = [d for d in make_digests(16000, salt=b"out")
                  if cluster.ring.node_for(d) == "node-3"]
        assert mine and absent
        assert node.probe_batch(mine) == [True] * len(mine)
        assert node.probe_batch(absent) == [False] * len(absent)

    def test_short_keys_answered_exactly(self, node):
        keys = [b"k", b"\x00heartbeat", b"snapshot-7", bytes(15), b"\xff" * 15]
        for key in keys[::2]:
            node.put_chunk(key, key + b"!")
        assert node.probe_batch(keys) == [True, False, True, False, True]
        assert node.probe_batch([b"", b"kk", bytes(14), bytes(16)]) == [False] * 4

    def test_probe_batch_answers_in_order_with_duplicates(self, node):
        a, b = make_digests(2)
        (x,) = make_digests(1, salt=b"absent")
        node.put_chunk(a, a)
        node.put_chunk(b, b)
        assert node.probe_batch([a, x, a, b, x]) == [True, False, True, True, False]
        assert (node.stats.probes, node.stats.hits, node.stats.bloom_negatives) == (5, 3, 2)

    def test_empty_probe_batch_charges_nothing(self, node):
        node.put_chunk(b"k", b"v")
        assert node.probe_batch([]) == []
        assert (node.stats.probes, node.stats.hits, node.stats.bloom_negatives) == (0, 0, 0)

    def test_cleared_backend_answers_absent(self):
        node = StoreNode("n")
        stored = make_digests(20)
        for d in stored:
            node.put_chunk(d, d)
        node.backend.clear()
        assert node.probe_batch(stored) == [False] * 20
        assert node.holds_batch(stored) == [False] * 20

    def test_membership_grows_with_the_shard(self, monkeypatch):
        """Every put is visible to the next probe, at any fill, with no
        key listing along the way."""
        node = StoreNode("n")
        monkeypatch.setattr(
            node.backend, "keys", lambda: pytest.fail("membership listed keys")
        )
        stored = []
        absent = make_digests(100, salt=b"absent")
        for start in range(0, 400, 50):
            for i in range(start, start + 50):
                p = i.to_bytes(4, "big") * 8
                stored.append(chunk_hash(p))
                node.put_chunk(stored[-1], p)
            assert node.probe_batch(stored) == [True] * len(stored)
            assert node.probe_batch(absent) == [False] * len(absent)
        assert node.chunk_count == 400

    def test_sweep_drops_dead_keys_from_membership(self, node):
        digests = []
        for i in range(20):
            p = i.to_bytes(4, "big") * 8
            digests.append(chunk_hash(p))
            node.put_chunk(digests[-1], p)
        assert node.sweep(live=set(digests[:10])) == 10 * 32
        assert node.chunk_count == 10
        assert node.probe_batch(digests) == [True] * 10 + [False] * 10
        assert node.holds_batch(digests) == [True] * 10 + [False] * 10

    def test_reopen_reads_no_keys_and_answers_as_before(self, tmp_path, monkeypatch):
        """Membership is the resident keydir itself: a reopened node
        walks no key listing before it can answer."""
        stored = make_digests(40)
        asked = stored[::3] + make_digests(40, salt=b"absent")
        node = StoreNode("n", backend=PersistentBackend(tmp_path / "n"))
        for d in stored:
            node.put_chunk(d, d * 4)
        before = (node.probe_batch(asked), node.holds_batch(asked))
        node.close()

        backend = PersistentBackend(tmp_path / "n")
        listings = []
        original = backend.keys
        monkeypatch.setattr(
            backend, "keys", lambda: listings.append(1) or original()
        )
        node = StoreNode("n", backend=backend)
        assert (node.probe_batch(asked), node.holds_batch(asked)) == before
        assert listings == []
        node.close()

    def test_probe_batch_charges_stats_and_holds_batch_does_not(self):
        node = StoreNode("n")
        stored = make_digests(5)
        for d in stored:
            node.put_chunk(d, d)
        asked = stored[:2] + make_digests(3, salt=b"absent")
        assert node.holds_batch(asked) == [True, True, False, False, False]
        assert (node.stats.probes, node.stats.hits, node.stats.bloom_negatives) == (0, 0, 0)
        assert node.probe_batch(asked) == [True, True, False, False, False]
        assert (node.stats.probes, node.stats.hits, node.stats.bloom_negatives) == (5, 2, 3)


class TestClusterGC:
    def test_gc_frees_only_unreferenced(self):
        cluster = ChunkStoreCluster(n_nodes=3, scheme=ReplicatedPlacement(2))
        keep_ds, keep_blob = populate(cluster, 40, "keep")
        drop_payloads = [b"drop" + i.to_bytes(4, "big") * 16 for i in range(30)]
        drop_ds = [chunk_hash(p) for p in drop_payloads]
        for d, p in zip(drop_ds, drop_payloads):
            cluster.put_chunk(d, p)
        cluster.put_recipe(SnapshotRecipe("drop", tuple(drop_ds), 0))

        cluster.delete_recipe("drop")
        freed = cluster.garbage_collect()
        # Two replicas of every dropped chunk are reclaimed.
        assert freed == 2 * sum(len(p) for p in drop_payloads)
        assert all(not cluster.has_chunk(d) for d in drop_ds)
        assert all(cluster.has_chunk(d) for d in keep_ds)
        assert cluster.restore("keep") == keep_blob

    def test_gc_leaves_no_dead_digest_probing_present(self):
        cluster = ChunkStoreCluster(n_nodes=2, scheme=VanillaPlacement())
        keep_ds, _ = populate(cluster, 30, "keep")
        gone = b"gone" * 16
        cluster.put_chunk(chunk_hash(gone), gone)
        assert cluster.garbage_collect() > 0
        for node in cluster.nodes.values():
            assert node.probe_batch([chunk_hash(gone)]) == [False]
            assert node.probe_batch(keep_ds) == node.holds_batch(keep_ds)
        assert all(cluster.has_chunk(d) for d in keep_ds)

    def test_empty_gc_noop(self):
        cluster = ChunkStoreCluster(n_nodes=2)
        _, blob = populate(cluster, 10)
        assert cluster.garbage_collect() == 0
        assert cluster.restore("snap") == blob


class TestBatchedLookup:
    @pytest.fixture()
    def cluster(self) -> ChunkStoreCluster:
        cluster = ChunkStoreCluster(
            n_nodes=4, scheme=ReplicatedPlacement(2), batch_size=32
        )
        populate(cluster, 100)
        return cluster

    def test_hit_map_correct(self, cluster):
        stored = sorted(cluster.digests())[:50]
        absent = make_digests(50, salt=b"absent")
        hit_map, stats = cluster.lookup_batch(stored + absent)
        assert all(hit_map[d] for d in stored)
        assert not any(hit_map[d] for d in absent)
        assert stats.n_digests == 100
        assert stats.hits == 50
        assert stats.misses == 50
        assert stats.n_batches == math.ceil(100 / 32)

    def test_duplicate_digests_probe_once(self, cluster):
        d = next(iter(cluster.digests()))
        hit_map, stats = cluster.lookup_batch([d] * 10)
        assert hit_map[d] and stats.n_digests == 1

    def test_new_digests_all_miss(self, cluster):
        _, stats = cluster.lookup_batch(make_digests(400, salt=b"new"))
        assert stats.misses == stats.n_digests == 400
        assert stats.hits == 0

    def test_miss_charges_probes_and_no_index_walk(self, cluster):
        """A miss costs one resident-keydir probe per replica asked."""
        (absent,) = make_digests(1, salt=b"absent")
        before = {nid: (n.stats.probes, n.stats.bloom_negatives)
                  for nid, n in cluster.nodes.items()}
        hit_map, stats = cluster.lookup_batch([absent])
        assert hit_map == {absent: False}
        assert (stats.misses, stats.probes, stats.index_walks) == (1, 2, 0)
        placement = cluster.lookup.placement(absent)
        for nid, node in cluster.nodes.items():
            probes, negatives = before[nid]
            charged = 1 if nid in placement else 0
            assert node.stats.probes == probes + charged
            assert node.stats.bloom_negatives == negatives + charged
        model = cluster.lookup.cost_model
        assert model.batched_seconds(stats) == (
            model.batch_rtt_s + 2 * model.probe_s
        )

    def test_batched_cost_below_per_digest_baseline(self, cluster):
        model = cluster.lookup.cost_model
        digests = sorted(cluster.digests()) + make_digests(200, salt=b"miss")
        _, stats = cluster.lookup_batch(digests)
        batched = model.batched_seconds(stats)
        baseline = model.per_digest_seconds(stats.hits, stats.misses)
        assert batched < baseline

    def test_lookup_survives_node_failure(self, cluster):
        stored = sorted(cluster.digests())
        cluster.fail_node("node-0")
        cluster.repair()
        hit_map, _ = cluster.lookup_batch(stored)
        assert all(hit_map.values())

    def test_bad_batch_size(self):
        cluster = ChunkStoreCluster(n_nodes=2)
        with pytest.raises(ValueError):
            BatchedLookup(cluster.ring, cluster.scheme, cluster.nodes, 0)


class TestDedupIndexBatch:
    def test_lookup_batch_read_only(self):
        index = DedupIndex()
        chunks = make_chunks([b"aa" * 40, b"bb" * 40])
        probe(index, chunks)
        stats_before = (index.stats.total_chunks, index.stats.unique_chunks)
        hits = index.lookup_batch(
            [chunks[0].digest, chunk_hash(b"unseen"), chunks[1].digest]
        )
        assert hits == [chunks[0].offset, None, chunks[1].offset]
        assert (index.stats.total_chunks, index.stats.unique_chunks) == stats_before

    def test_batch_matches_sequential_loop(self):
        payloads = [b"x" * 50, b"y" * 60, b"x" * 50, b"z" * 70, b"y" * 60]
        batch_index, loop_index = DedupIndex(), DedupIndex()
        chunks = make_chunks(payloads)
        batched = probe(batch_index, chunks)
        looped = [probe(loop_index, [c]).hits[0] for c in make_chunks(payloads)]
        assert [hit or i in batched.repeats for i, hit in enumerate(batched.hits)] == looped
        assert batch_index.stats == loop_index.stats
        # Intra-batch duplicates resolve to the first occurrence.
        assert batched.repeats == {2: 0, 4: 1}
        digests = [c.digest for c in chunks]
        assert batch_index.lookup_batch(digests) == loop_index.lookup_batch(digests)


class TestSingleStoreRestoreError:
    def test_restore_missing_chunk_descriptive(self):
        store = ChunkStore()
        d = chunk_hash(b"payload")
        store.put_chunk(d, b"payload")
        store.put_recipe(SnapshotRecipe("s", (d,), 7))
        store._chunks.clear()  # simulate corruption behind the recipe
        with pytest.raises(KeyError, match="missing from store"):
            store.restore("s")


class TestClusterBackupServer:
    @pytest.fixture(scope="class")
    def image(self) -> MasterImage:
        return MasterImage(size=2 * MB, segment_size=32 * 1024, seed=13)

    @pytest.fixture(scope="class")
    def stream(self, image):
        t = SimilarityTable.uniform(0.2, image.n_segments)
        return [("master", image.data)] + [
            (f"gen{i}", image.snapshot(t, i)) for i in (1, 2)
        ]

    def test_cluster_restores_byte_identical_to_single(self, stream):
        single_cfg = BackupConfig(store_backend="single")
        cluster_cfg = BackupConfig(
            store_backend="cluster", cluster_nodes=4, replication=2,
            lookup_batch_size=64,
        )
        with BackupServer(single_cfg) as s1, BackupServer(cluster_cfg) as s2:
            for sid, data in stream:
                r1 = s1.backup_snapshot(data, sid)
                r2 = s2.backup_snapshot(data, sid)
                assert s2.agent.restore(sid) == s1.agent.restore(sid) == data
                assert r2.duplicate_chunks == r1.duplicate_chunks
                assert r2.shipped_bytes == r1.shipped_bytes
                # Batching over resident keydirs beats the per-digest stage.
                assert (
                    r2.stage_seconds["index+network"]
                    < r1.stage_seconds["index+network"]
                )
                assert r2.lookup_stats is not None
                assert r1.lookup_stats is None

    def test_server_survives_node_failure(self, stream):
        cfg = BackupConfig(
            store_backend="cluster", cluster_nodes=4, replication=2
        )
        with BackupServer(cfg) as server:
            for sid, data in stream:
                server.backup_snapshot(data, sid)
            server.cluster.fail_node("node-3")
            assert server.cluster.repair().healthy
            for sid, data in stream:
                assert server.agent.restore(sid) == data

    def test_invalid_store_backend(self):
        with pytest.raises(ValueError):
            BackupConfig(store_backend="tape")

    def test_replication_exceeding_nodes_rejected(self):
        with pytest.raises(ValueError):
            BackupServer(
                BackupConfig(
                    store_backend="cluster", cluster_nodes=2, replication=3
                )
            )


class TestClusterCLI:
    def test_cluster_command(self, tmp_path, capsys):
        from repro.cli import main

        blob = (b"cli cluster payload " * 4096) + bytes(range(256)) * 64
        path = tmp_path / "image.bin"
        path.write_bytes(blob)
        rc = main(
            ["cluster", str(path), "--nodes", "3", "--batch-size", "64",
             "--fail-node"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Shard occupancy" in out
        assert "restore verified byte-exact" in out
