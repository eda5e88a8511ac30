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
    BloomFilter,
    ChunkStoreCluster,
    HashRing,
    NodeDownError,
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


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=500, fp_rate=0.01)
        keys = make_digests(500)
        for k in keys:
            bloom.add(k)
        assert all(k in bloom for k in keys)

    def test_false_positive_rate_bounded(self):
        bloom = BloomFilter(capacity=1000, fp_rate=0.01)
        for k in make_digests(1000, salt=b"in"):
            bloom.add(k)
        absent = make_digests(2000, salt=b"out")
        fp = sum(1 for k in absent if k in bloom)
        assert fp / len(absent) < 0.05  # nominal 1%, generous ceiling

    def test_false_positive_rate_bounded_on_one_nodes_arc(self):
        """Probe positions are the digest's own bits: the keys the ring
        routes to one node must still spread over the whole filter."""
        ring = HashRing()
        for i in range(8):
            ring.add_node(f"node-{i}")
        mine = [d for d in make_digests(8000, salt=b"in") if ring.node_for(d) == "node-3"]
        bloom = BloomFilter(capacity=len(mine), fp_rate=0.01)
        for d in mine:
            bloom.add(d)
        assert all(d in bloom for d in mine)
        absent = [d for d in make_digests(16000, salt=b"out") if ring.node_for(d) == "node-3"]
        fp = sum(1 for d in absent if d in bloom)
        assert fp / len(absent) <= 0.05

    def test_short_keys_are_padded_not_false_negative(self):
        keys = [b"", b"k", b"\x00heartbeat", b"snapshot-7", bytes(15), b"\xff" * 15]
        bloom = BloomFilter(capacity=len(keys))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_clear(self):
        bloom = BloomFilter(capacity=10)
        bloom.add(b"key")
        bloom.clear()
        assert b"key" not in bloom and bloom.n_added == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, fp_rate=1.5)


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


class TestBloomMaintenance:
    """Long-lived shards must not let the filter saturate (ISSUE 5)."""

    def test_fresh_node_tracks_fill_without_rebuilds(self):
        node = StoreNode("n", bloom_capacity=64)
        assert node.stats.bloom_rebuilds == 0
        assert node.stats.bloom_fill_ratio == 0.0
        p = b"p" * 32
        node.put_chunk(chunk_hash(p), p)
        assert 0.0 < node.stats.bloom_fill_ratio <= 1.0

    def test_filter_rebuilds_as_shard_fills(self):
        node = StoreNode("n", bloom_capacity=64, bloom_fp_rate=0.01)
        for i in range(400):
            p = i.to_bytes(4, "big") * 8
            node.put_chunk(chunk_hash(p), p)
        # 64 -> 128 -> 256 -> 512: three saturation-driven rebuilds.
        assert node.stats.bloom_rebuilds >= 3
        assert node.bloom_capacity >= 400
        assert node.stats.bloom_fill_ratio <= 1.0
        # Rebuilds re-add every live digest: still no false negatives.
        for d in node.digests():
            assert node.has_chunk(d)

    def test_fp_rate_stays_bounded_after_growth(self):
        node = StoreNode("n", bloom_capacity=32, bloom_fp_rate=0.01)
        for i in range(300):
            p = b"fill" + i.to_bytes(4, "big") * 8
            node.put_chunk(chunk_hash(p), p)
        for d in make_digests(1000, salt=b"absent"):
            node.probe(d)
        # A never-rebuilt 32-capacity filter would false-positive on
        # nearly every probe; the rebuilt one stays near its target.
        assert node.stats.false_positives < 0.1 * 1000

    def test_sweep_rebuilds_without_counting_saturation(self):
        """GC's routine rebuild must not pollute the saturation signal."""
        node = StoreNode("n")
        digests = []
        for i in range(20):
            p = i.to_bytes(4, "big") * 8
            digests.append(chunk_hash(p))
            node.put_chunk(chunk_hash(p), p)
        node.sweep(live=set(digests[:10]))
        assert node.stats.bloom_rebuilds == 0  # rebuilt, but not saturated
        assert node.chunk_count == 10
        assert node.stats.bloom_fill_ratio == pytest.approx(
            10 / node.bloom_capacity
        )


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

    def test_gc_rebuilds_bloom_filters(self):
        """After a sweep the filters must not remember dead digests as
        present-on-disk hits, and must still never false-negative."""
        cluster = ChunkStoreCluster(n_nodes=2, scheme=VanillaPlacement())
        keep_ds, _ = populate(cluster, 30, "keep")
        gone = b"gone" * 16
        cluster.put_chunk(chunk_hash(gone), gone)
        assert cluster.garbage_collect() > 0
        for node in cluster.nodes.values():
            for d in keep_ds:
                if node.holds(d):
                    assert node.has_chunk(d)  # no false negatives post-rebuild

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

    def test_bloom_filters_most_misses(self, cluster):
        _, stats = cluster.lookup_batch(make_digests(400, salt=b"new"))
        assert stats.bloom_negatives > 0.9 * stats.n_digests

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
                # Batching + Bloom filtering beats the per-digest stage.
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

    def test_explicit_agent_with_cluster_rejected(self):
        """An externally supplied agent carries its own store; pairing
        it with the cluster would silently disable dedup."""
        from repro.backup import ShredderAgent

        with pytest.raises(ValueError, match="agent"):
            BackupServer(
                BackupConfig(store_backend="cluster"), agent=ShredderAgent()
            )

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
