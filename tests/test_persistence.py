"""End-to-end persistence: state owners reopened bit-identical.

The restart round trip the backend redesign exists for: a disk-backed
``DedupIndex`` / ``ChunkStore`` / ``ChunkStoreCluster`` (driven through
``BackupServer``) is populated, closed, reopened from its ``data_dir``,
and must restore every snapshot bit-identical, answer ``lookup_batch``
with the same hit/miss pattern, and still support repair, GC, and new
backups afterwards.
"""

from __future__ import annotations

import pytest

from repro.backup import (
    BackupConfig,
    BackupServer,
    ChunkStore,
    MasterImage,
    SimilarityTable,
    SnapshotRecipe,
)
from repro.core import reset_stage_times, stage_times
from repro.core.chunking import Chunk
from repro.core.dedup import DedupIndex
from repro.core.hashing import chunk_hash
from repro.store import ChunkStoreCluster
from tests.conftest import probe

MB = 1 << 20


def make_chunks(payloads, base_offset=0):
    chunks, offset = [], base_offset
    for data in payloads:
        chunks.append(
            Chunk(offset=offset, length=len(data), data=data, digest=chunk_hash(data))
        )
        offset += len(data)
    return chunks


def make_digests(n: int, salt: bytes = b"") -> list[bytes]:
    return [chunk_hash(salt + i.to_bytes(4, "big")) for i in range(n)]


class TestDedupIndexRestart:
    def test_lookup_pattern_survives_reopen(self, tmp_path):
        payloads = [bytes([i]) * (40 + i) for i in range(30)]
        with DedupIndex("disk", data_dir=tmp_path / "idx") as index:
            first = make_chunks(payloads)
            assert probe(index, first) == ([False] * len(payloads), {})
            probe_digests = [c.digest for c in first] + make_digests(
                10, salt=b"miss"
            )
            pattern = index.lookup_batch(probe_digests)
        with DedupIndex("disk", data_dir=tmp_path / "idx") as index:
            assert index.lookup_batch(probe_digests) == pattern
            assert len(index) == len(payloads)
            # Every previously-inserted chunk is now a duplicate, at the
            # same canonical offset the first process assigned.
            again = probe(index, make_chunks(payloads, 10_000))
            assert again.hits == [True] * len(payloads)
            assert index.lookup_batch(probe_digests[: len(payloads)]) == [
                c.offset for c in first
            ]


class TestChunkStoreRestart:
    def test_snapshots_and_gc_survive_reopen(self, tmp_path):
        payloads = [i.to_bytes(2, "big") * 60 for i in range(50)]
        digests = [chunk_hash(p) for p in payloads]
        with ChunkStore(backend="disk", data_dir=tmp_path / "site") as store:
            for d, p in zip(digests, payloads):
                store.put_chunk(d, p)
            store.put_recipe(SnapshotRecipe("keep", tuple(digests[:30]), 0))
            store.put_recipe(SnapshotRecipe("drop", tuple(digests[30:]), 0))
            blob = store.restore("keep")
        with ChunkStore(backend="disk", data_dir=tmp_path / "site") as store:
            assert store.snapshot_count == 2
            assert store.chunk_count == 50
            assert store.restore("keep") == blob
            store.delete_recipe("drop")
            freed = store.garbage_collect()
            assert freed == sum(len(p) for p in payloads[30:])
        with ChunkStore(backend="disk", data_dir=tmp_path / "site") as store:
            # GC's log compaction is what persisted, not the dead chunks.
            assert store.chunk_count == 30
            assert store.restore("keep") == blob
            assert not store.has_chunk(digests[40])


class TestClusterRestartRoundTrip:
    """The ISSUE acceptance test: backup -> close -> reopen -> restore."""

    @pytest.fixture(scope="class")
    def stream(self):
        image = MasterImage(size=2 * MB, segment_size=32 * 1024, seed=17)
        t = SimilarityTable.uniform(0.2, image.n_segments)
        return [("master", image.data)] + [
            (f"gen{i}", image.snapshot(t, i)) for i in (1, 2)
        ]

    def config(self, tmp_path) -> BackupConfig:
        return BackupConfig(
            store_backend="cluster",
            cluster_nodes=4,
            replication=2,
            backend="disk",
            data_dir=str(tmp_path / "srv"),
        )

    def test_backup_close_reopen_restore_repair(self, tmp_path, stream):
        with BackupServer(self.config(tmp_path)) as server:
            for sid, data in stream:
                server.backup_snapshot(data, sid)
            probe = sorted(server.cluster.digests()) + make_digests(
                40, salt=b"absent"
            )
            pattern_before, _ = server.cluster.lookup_batch(probe)
            index_before = server.index.lookup_batch(probe)
            occupancy_before = {
                nid: node.chunk_count
                for nid, node in server.cluster.nodes.items()
            }

        with BackupServer(self.config(tmp_path)) as server:
            cluster = server.cluster
            # Every snapshot restores bit-identical through the agent.
            for sid, data in stream:
                assert server.agent.restore(sid) == data
            # Shards reopened in place: same contents per node.
            assert {
                nid: node.chunk_count for nid, node in cluster.nodes.items()
            } == occupancy_before
            # Same hit/miss pattern from cluster and dedup index alike.
            pattern_after, _ = cluster.lookup_batch(probe)
            assert pattern_after == pattern_before
            assert server.index.lookup_batch(probe) == index_before
            # Every dedup decision reopened: re-backing-up a snapshot the
            # closed server already stored ships zero bytes.
            rep = server.backup_snapshot(stream[2][1], "gen2-again")
            assert rep.duplicate_chunks == rep.n_chunks
            assert rep.shipped_bytes == 0
            # Node loss on the *reopened* cluster: repair still works.
            victim = max(
                cluster.nodes, key=lambda nid: cluster.nodes[nid].chunk_count
            )
            cluster.fail_node(victim)
            assert cluster.repair().healthy
            for sid, data in stream:
                assert server.agent.restore(sid) == data

    def test_single_store_server_restart(self, tmp_path, stream):
        cfg = BackupConfig(backend="disk", data_dir=str(tmp_path / "single"))
        with BackupServer(cfg) as server:
            for sid, data in stream:
                server.backup_snapshot(data, sid)
        with BackupServer(cfg) as server:
            for sid, data in stream:
                assert server.agent.restore(sid) == data
            rep = server.backup_snapshot(stream[1][1], "gen1-again")
            assert rep.shipped_bytes == 0

    def test_memory_stays_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        with BackupServer(BackupConfig()) as server:
            assert server.storage_kind == "memory"
            assert server.index.backend.kind == "memory"

    def test_explicit_agent_with_backend_request_rejected(self):
        from repro.backup import ShredderAgent

        with pytest.raises(ValueError, match="explicit agent"):
            BackupServer(
                BackupConfig(backend="disk"), agent=ShredderAgent()
            )


class TestClusterDirectRestart:
    def test_cluster_object_round_trip_with_gc(self, tmp_path):
        payloads = [i.to_bytes(4, "big") * 32 for i in range(80)]
        ds = [chunk_hash(p) for p in payloads]
        with ChunkStoreCluster(
            n_nodes=3, backend="disk", data_dir=tmp_path / "cl"
        ) as cluster:
            for d, p in zip(ds, payloads):
                cluster.put_chunk(d, p)
            cluster.put_recipe(SnapshotRecipe("keep", tuple(ds[:50]), 0))
            cluster.put_recipe(SnapshotRecipe("drop", tuple(ds[50:]), 0))
            blob = cluster.restore("keep")
        with ChunkStoreCluster(
            n_nodes=3, backend="disk", data_dir=tmp_path / "cl"
        ) as cluster:
            assert cluster.restore("keep") == blob
            cluster.delete_recipe("drop")
            assert cluster.garbage_collect() > 0
            assert all(not cluster.has_chunk(d) for d in ds[50:])
            assert all(cluster.has_chunk(d) for d in ds[:50])
        with ChunkStoreCluster(
            n_nodes=3, backend="disk", data_dir=tmp_path / "cl"
        ) as cluster:
            assert cluster.restore("keep") == blob
            assert cluster.chunk_count == 50

    def test_data_dir_alone_implies_disk(self, tmp_path):
        with ChunkStoreCluster(n_nodes=2, data_dir=tmp_path / "cl") as cluster:
            assert cluster.backend_kind == "disk"
            d = chunk_hash(b"x")
            cluster.put_chunk(d, b"x")
        with ChunkStoreCluster(n_nodes=2, data_dir=tmp_path / "cl") as cluster:
            assert cluster.has_chunk(d)


class TestIndexStoreSkew:
    def test_rebackup_after_gc_reships_instead_of_crashing(self):
        """The dedup index can outlive the site store's chunks (GC, or a
        persistent index reopened against a sparser site dir); a stale
        'duplicate' decision must re-ship the payload, not ship a
        pointer the agent cannot resolve."""
        image = MasterImage(size=1 * MB, segment_size=32 * 1024, seed=21)
        with BackupServer(BackupConfig()) as server:
            server.backup_snapshot(image.data, "a")
            server.agent.store.delete_recipe("a")
            assert server.agent.store.garbage_collect() > 0
            report = server.backup_snapshot(image.data, "b")
            assert report.shipped_bytes == report.total_bytes  # re-shipped
            assert server.agent.restore("b") == image.data

    def test_rebackup_after_gc_on_reopened_disk_server(self, tmp_path):
        image = MasterImage(size=1 * MB, segment_size=32 * 1024, seed=22)
        cfg = BackupConfig(backend="disk", data_dir=str(tmp_path / "srv"))
        with BackupServer(cfg) as server:
            server.backup_snapshot(image.data, "a")
            server.agent.store.delete_recipe("a")
            server.agent.store.garbage_collect()
        with BackupServer(cfg) as server:  # index reopens fuller than site
            report = server.backup_snapshot(image.data, "b")
            assert report.shipped_bytes == report.total_bytes
            assert server.agent.restore("b") == image.data


class TestStoreStageTimer:
    def test_profile_shows_lookup_and_store_split(self):
        reset_stage_times()
        index = DedupIndex()
        probe(index, make_chunks([bytes([i]) * 64 for i in range(64)]))
        times = stage_times()
        assert times.get("lookup", 0.0) > 0.0
        assert times.get("store", 0.0) > 0.0
        reset_stage_times()

    def test_store_stage_recorded_by_site_store_puts(self):
        reset_stage_times()
        store = ChunkStore()
        for i in range(32):
            p = bytes([i]) * 128
            store.put_chunk(chunk_hash(p), p)
        assert stage_times().get("store", 0.0) > 0.0
        reset_stage_times()


class TestPersistentClusterCLI:
    def test_cluster_command_disk_backend(self, tmp_path, capsys):
        from repro.cli import main

        blob = (b"cli disk payload " * 4096) + bytes(range(256)) * 64
        path = tmp_path / "image.bin"
        path.write_bytes(blob)
        data_dir = tmp_path / "store"
        rc = main(
            ["cluster", str(path), "--nodes", "3", "--backend", "disk",
             "--data-dir", str(data_dir)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "persistent shards" in out
        assert "restore verified byte-exact" in out
        assert any(data_dir.iterdir())
        # Re-running the CLI against the same data_dir is the advertised
        # reopen workflow: the second run picks a fresh snapshot id and
        # dedups fully against the reopened shards.
        rc = main(
            ["cluster", str(path), "--nodes", "3", "--backend", "disk",
             "--data-dir", str(data_dir)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "snapshot 'cli-2'" in out
        assert "shipped 0 B (100.0% duplicate chunks)" in out
        # The CLI's cluster reopens outside the CLI process model: every
        # shard and both recipes come back.
        with ChunkStoreCluster(
            n_nodes=3, backend="disk", data_dir=data_dir / "cluster"
        ) as cluster:
            assert cluster.restore("cli") == blob
            assert cluster.restore("cli-2") == blob
