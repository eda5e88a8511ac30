"""Tests for the background integrity scrubber: detection and repair of
persistent shard corruption (replicated and erasure-coded), heartbeat
slicing, a read-side flip on a chunk that node deaths left at its last
``min_fragments`` items, the scrub-under-chaos drill against seeded
``REPRO_FAULTS`` bit flips, and the injected-vs-detected fault
accounting."""

from __future__ import annotations

import pytest

from repro.backup import SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.faults import FAULTS_ENV
from repro.store import (
    ChunkStoreCluster,
    ErasureCodedPlacement,
    ReplicatedPlacement,
)
from repro.store.health import HealthPolicy


def populate(cluster: ChunkStoreCluster, n: int, snapshot_id: str = "snap"):
    payloads = [
        (snapshot_id.encode() + i.to_bytes(4, "big")) * 100 for i in range(n)
    ]
    ds = [chunk_hash(p) for p in payloads]
    for d, p in zip(ds, payloads):
        cluster.put_chunk(d, p)
    cluster.put_recipe(
        SnapshotRecipe(snapshot_id, tuple(ds), sum(len(p) for p in payloads))
    )
    return ds, b"".join(payloads)


def corrupt_stored(node, digest: bytes) -> None:
    """Flip a stored byte in place — persistent shard corruption, unlike
    the fault injector's transient read-side flips."""
    (raw,) = node.backend.get_batch([digest])
    assert raw is not None
    mangled = raw[:-1] + bytes([raw[-1] ^ 0xFF])
    node.backend.delete_batch([digest])
    node.backend.put_batch([(digest, mangled)])


def stored_items(cluster: ChunkStoreCluster) -> int:
    return sum(n.chunk_count for n in cluster.nodes.values() if n.alive)


class TestScrubBasics:
    def test_clean_pass(self):
        cluster = ChunkStoreCluster(n_nodes=4, scheme=ReplicatedPlacement(2))
        populate(cluster, 40)
        report = cluster.scrub()
        assert report.healthy
        assert report.corrupt == 0
        assert report.chunks_scanned == stored_items(cluster)
        assert report.bytes_verified > 0
        assert cluster.stats.scrub_chunks == report.chunks_scanned

    def test_limit_cursor_covers_everything_once(self):
        """Sliced scrubs walk the whole cluster before revisiting."""
        cluster = ChunkStoreCluster(n_nodes=3, scheme=ReplicatedPlacement(2))
        populate(cluster, 30)
        total = stored_items(cluster)  # 30 chunks x 2 replicas
        assert total % 6 == 0
        scanned = 0
        while scanned < total:
            report = cluster.scrub(limit=6)
            assert report.chunks_scanned == 6
            scanned += report.chunks_scanned
        assert cluster.stats.scrub_chunks == scanned == total

    def test_heartbeat_drives_slices(self):
        cluster = ChunkStoreCluster(
            n_nodes=3,
            scheme=ReplicatedPlacement(2),
            health=HealthPolicy(scrub_batch=11),
        )
        populate(cluster, 30)
        assert cluster.stats.scrub_chunks == 0
        cluster.heartbeat()
        assert cluster.stats.scrub_chunks == 11
        for _ in range(10):
            cluster.heartbeat()
        assert cluster.stats.scrub_chunks >= stored_items(cluster)

    def test_scrub_batch_zero_disables(self):
        cluster = ChunkStoreCluster(n_nodes=2, scheme=ReplicatedPlacement(2))
        populate(cluster, 10)
        cluster.heartbeat()
        assert cluster.stats.scrub_chunks == 0
        with pytest.raises(ValueError):
            HealthPolicy(scrub_batch=-1)


class TestScrubHealing:
    def test_replicated_heal_from_surviving_copy(self):
        cluster = ChunkStoreCluster(n_nodes=4, scheme=ReplicatedPlacement(2))
        ds, blob = populate(cluster, 40)
        victim = next(n for n in cluster.nodes.values() if n.holds(ds[0]))
        corrupt_stored(victim, ds[0])
        report = cluster.scrub()
        assert report.corrupt == 1 and report.repaired == 1
        assert report.healthy
        # The bad copy was replaced on the shard, not just detected:
        # a second full pass is clean and the restore is byte-exact.
        assert cluster.scrub().corrupt == 0
        assert cluster.restore("snap") == blob

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_ec_heal_rebuilds_fragment_from_parity(self, backend, tmp_path):
        kwargs = (
            {"backend": "disk", "data_dir": tmp_path / "ec"}
            if backend == "disk"
            else {}
        )
        cluster = ChunkStoreCluster(
            n_nodes=8, scheme=ErasureCodedPlacement(4, 2), **kwargs
        )
        with cluster:
            ds, blob = populate(cluster, 30)
            victims = []
            for d in ds[:3]:
                node = next(n for n in cluster.nodes.values() if n.holds(d))
                corrupt_stored(node, d)
                victims.append((node, d))
            report = cluster.scrub()
            assert report.corrupt == 3 and report.repaired == 3
            assert report.healthy
            # Each rebuilt fragment verifies again on its own shard.
            for node, d in victims:
                assert node.get_fragment(d).payload is not None
            assert cluster.scrub().corrupt == 0
            assert cluster.restore("snap") == blob

    def test_unrepairable_corruption_left_in_place(self):
        """With every source of a chunk corrupted there is no healthy
        rebuild; scrub must report it and must NOT delete the stored
        copies (a later transient-fault diagnosis may clear them)."""
        cluster = ChunkStoreCluster(n_nodes=3, scheme=ReplicatedPlacement(2))
        ds, _ = populate(cluster, 10)
        holders = [n for n in cluster.nodes.values() if n.holds(ds[0])]
        assert len(holders) == 2
        for node in holders:
            corrupt_stored(node, ds[0])
        report = cluster.scrub()
        assert report.corrupt == 2
        assert report.repaired == 0 and report.unrepaired == 2
        assert not report.healthy
        assert all(n.holds(ds[0]) for n in holders)  # nothing destroyed


class TestScrubAfterDeaths:
    def test_read_side_flip_on_a_digest_at_min_fragments_heals(self, monkeypatch):
        """Two holders of an uncommitted chunk die (a death mid-backup:
        repair is recipe-driven and no recipe names the chunk yet), so it
        is down to its last 4 of 6 fragments.  A scrub read of one of
        them serves a flipped bit once.  The heal reads that record
        again, it verifies, and the two missing fragments are rebuilt:
        the detection counts as repaired, not unrepaired."""
        cluster = ChunkStoreCluster(n_nodes=8, scheme=ErasureCodedPlacement(4, 2))
        payload = b"in flight" * 500
        digest = chunk_hash(payload)
        cluster.put_chunk(digest, payload)
        placed = cluster.placement(digest)
        for node_id in placed[4:]:
            cluster.fail_node(node_id)
        assert cluster.repair().chunks_scanned == 0
        assert stored_items(cluster) == 4
        backend = cluster.nodes[placed[0]].backend
        reads = []

        def flip_first_read(keys):
            """The fault injector's transient read-side flip, at one read."""
            values = get_batch(keys)
            if not reads:
                values[0] = bytes([values[0][0] ^ 1]) + values[0][1:]
            reads.append(keys)
            return values

        get_batch = backend.get_batch
        monkeypatch.setattr(backend, "get_batch", flip_first_read)
        report = cluster.scrub()
        assert (report.corrupt, report.repaired, report.unrepaired) == (1, 1, 0)
        assert len(reads) == 2  # the scrub's read, and the heal's verified re-read
        assert stored_items(cluster) == 6
        assert cluster.scrub().corrupt == 0
        assert cluster.get_chunk(digest) == payload

    def test_write_lost_to_a_node_dying_mid_heal_lands_on_the_new_ring(self, monkeypatch):
        """The heal of a corrupt fragment also owes a fragment to a
        target whose disk is failing.  Its last write attempt is the
        failure that gets the target declared dead, so the write is lost
        and the repair that death runs skips the chunk (no recipe names
        it).  The heal reconciles once more on the new ring."""
        cluster = ChunkStoreCluster(n_nodes=8, scheme=ErasureCodedPlacement(4, 2))
        payload = b"in flight" * 500
        digest = chunk_hash(payload)
        cluster.put_chunk(digest, payload)
        placed = cluster.placement(digest)
        corrupt_stored(cluster.nodes[placed[0]], digest)
        dying = cluster.nodes[placed[5]]
        dying.backend.delete_batch([digest])

        def failing(*args):
            raise OSError("injected disk failure")

        # Four straight failures kill a node: the scrub's listing, the
        # heal's read, then its two write attempts.
        for op in ("keys", "contains_batch", "get_batch", "put_batch", "delete_batch"):
            monkeypatch.setattr(dying.backend, op, failing)
        report = cluster.scrub()
        assert not dying.alive and cluster.stats.nodes_died == 1
        assert (report.corrupt, report.repaired, report.unrepaired) == (1, 1, 0)
        assert stored_items(cluster) == 6
        assert cluster.scrub().corrupt == 0


class TestScrubUnderChaos:
    """The drill that closes the loop with ``FaultPlan``: seeded
    read-side bit flips, every detection either healed or provably
    benign, and the data still restores byte-exact."""

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_seeded_bit_flip_plan(self, backend, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "seed=29,backend.bit_flip=0.05")
        kwargs = (
            {"backend": "disk", "data_dir": tmp_path / "chaos"}
            if backend == "disk"
            else {}
        )
        cluster = ChunkStoreCluster(
            n_nodes=8, scheme=ErasureCodedPlacement(4, 2), **kwargs
        )
        with cluster:
            assert cluster.fault_plan is not None  # picked up from env
            _, blob = populate(cluster, 40)
            report = cluster.scrub()
            # The plan flips bits on reads, so the scrub's own
            # re-digests trip over them; every catch must be healed
            # (the stored fragments are intact underneath).
            assert report.corrupt > 0
            assert report.corrupt == report.repaired
            assert report.healthy
            stats = cluster.fault_plan.stats
            assert stats.bit_flips_injected >= stats.bit_flips_detected > 0
            assert cluster.stats.scrub_corrupt == cluster.stats.scrub_repaired
            assert cluster.restore("snap") == blob

    def test_detection_accounting_tracks_injection(self, monkeypatch):
        """Every read is digest-verified under an active plan, so the
        detected counter keeps pace with (never exceeds) injections."""
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        cluster = ChunkStoreCluster(
            n_nodes=4,
            scheme=ReplicatedPlacement(2),
            fault_plan="seed=3,backend.bit_flip=0.3",
        )
        ds, blob = populate(cluster, 40)
        assert cluster.restore("snap") == blob  # retries ride out flips
        stats = cluster.fault_plan.stats
        assert stats.bit_flips_injected > 0
        assert 0 < stats.bit_flips_detected <= stats.bit_flips_injected
        assert cluster.stats.corrupt_reads == stats.bit_flips_detected
