"""Tests for HDFS re-replication, backup GC, persistence, CLI."""

from __future__ import annotations

import pytest

from repro.backup import ChunkStore, SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.hdfs import HDFSCluster
from repro.mapreduce import MemoServer
from repro.workloads import seeded_bytes


class TestReReplication:
    """HDFS re-replication is the chunk store's recipe-driven repair."""

    def make_cluster(self):
        cluster = HDFSCluster(num_datanodes=5, replication=2)
        data = seeded_bytes(100_000, seed=61)
        cluster.client.copy_from_local(data, "/f", block_size=16 * 1024)
        return cluster, data

    @staticmethod
    def fail(cluster):
        """Fail the fullest alive node."""
        alive = [n for n in cluster.store.nodes.values() if n.alive]
        node = max(alive, key=lambda n: n.stored_bytes)
        cluster.store.fail_node(node.node_id)

    @staticmethod
    def replica_counts(cluster):
        blocks = cluster.namenode.get_file("/f").blocks
        return [cluster.store.replica_count(b.digest) for b in blocks]

    def test_failure_creates_under_replication(self):
        cluster, _ = self.make_cluster()
        assert min(self.replica_counts(cluster)) == 2
        self.fail(cluster)
        assert min(self.replica_counts(cluster)) < 2

    def test_re_replicate_restores_target(self):
        cluster, data = self.make_cluster()
        self.fail(cluster)
        assert cluster.store.repair().chunks_recopied > 0
        assert min(self.replica_counts(cluster)) == 2

    def test_survives_second_failure_after_repair(self):
        """The point of repair: a later failure of another node is safe."""
        cluster, data = self.make_cluster()
        self.fail(cluster)
        cluster.store.repair()
        self.fail(cluster)
        assert cluster.client.read("/f") == data

    def test_without_repair_second_failure_can_lose_data(self):
        cluster, data = self.make_cluster()
        self.fail(cluster)
        self.fail(cluster)
        # The two fullest nodes share a block: repair can't help it.
        assert 0 in self.replica_counts(cluster)
        assert not cluster.store.repair().healthy
        with pytest.raises(KeyError):
            cluster.client.read("/f")

    def test_repair_is_idempotent(self):
        cluster, _ = self.make_cluster()
        self.fail(cluster)
        cluster.store.repair()
        assert cluster.store.repair().chunks_recopied == 0


class TestBackupGC:
    def populated_store(self):
        store = ChunkStore()
        chunks = {f"c{i}": bytes([i]) * 100 for i in range(4)}
        digests = {}
        for name, data in chunks.items():
            d = chunk_hash(data)
            store.put_chunk(d, data)
            digests[name] = d
        store.put_recipe(SnapshotRecipe("s1", (digests["c0"], digests["c1"]), 200))
        store.put_recipe(SnapshotRecipe("s2", (digests["c1"], digests["c2"]), 200))
        return store, digests

    def test_gc_keeps_referenced(self):
        store, digests = self.populated_store()
        freed = store.garbage_collect()
        assert freed == 100  # only c3 is unreferenced
        assert store.has_chunk(digests["c1"])

    def test_delete_recipe_then_gc(self):
        store, digests = self.populated_store()
        store.garbage_collect()
        store.delete_recipe("s1")
        freed = store.garbage_collect()
        assert freed == 100  # c0 now unreferenced; c1 still held by s2
        assert not store.has_chunk(digests["c0"])
        assert store.restore("s2") == bytes([1]) * 100 + bytes([2]) * 100

    def test_delete_unknown_recipe(self):
        store, _ = self.populated_store()
        with pytest.raises(KeyError):
            store.delete_recipe("nope")

    def test_gc_empty_store(self):
        assert ChunkStore().garbage_collect() == 0


class TestMemoPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        memo = MemoServer()
        memo.put("map:j:p:abc", {"0": [(b"k", 1)]})
        memo.put("contract:xyz", [(b"k", 2)])
        path = tmp_path / "memo.pkl"
        memo.save(path)
        loaded = MemoServer.load(path)
        assert loaded.get("map:j:p:abc") == {"0": [(b"k", 1)]}
        assert len(loaded) == 2
        assert loaded.hits == 1  # counters reset, then one hit from get

    def test_load_rejects_garbage(self, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            MemoServer.load(path)


class TestCLI:
    @pytest.fixture()
    def sample_file(self, tmp_path):
        path = tmp_path / "sample.bin"
        path.write_bytes(seeded_bytes(150_000, seed=62))
        return str(path)

    def test_chunk_command(self, sample_file, capsys):
        from repro.cli import main

        assert main(["chunk", sample_file, "--mask-bits", "10"]) == 0
        out = capsys.readouterr().out
        assert "chunks, mean" in out

    def test_chunk_profile_meters_the_plain_run(self, tmp_path, capsys, monkeypatch):
        """``--profile`` times the same one-buffer chunk call as the plain
        run: the same chunk table, and no window-straddling splices sent
        through the small-buffer gather scan (its pair tables stay unbuilt)."""
        from repro.cli import main
        from repro.core import engines

        path = tmp_path / "big.bin"
        path.write_bytes(seeded_bytes(8 << 20, seed=64))
        assert main(["chunk", str(path), "--all"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(engines, "_TABLE_CACHE", {})
        assert main(["chunk", str(path), "--all", "--profile"]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)
        assert "Pipeline stage split" in profiled[len(plain):]
        assert engines._TABLE_CACHE == {}

    def test_dedup_command(self, tmp_path, sample_file, capsys):
        from repro.cli import main

        other = tmp_path / "other.bin"
        data = seeded_bytes(150_000, seed=62)
        other.write_bytes(data[:75_000] + seeded_bytes(75_000, seed=63))
        assert main(["dedup", sample_file, str(other), "--mask-bits", "10"]) == 0
        out = capsys.readouterr().out
        assert "dedup ratio" in out

    def test_table1_command(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        assert "1030 GFlops" in capsys.readouterr().out

    def test_throughput_command(self, capsys):
        from repro.cli import main

        assert main(["throughput"]) == 0
        out = capsys.readouterr().out
        assert "GPU Streams + Memory" in out

    def test_backup_command(self, sample_file, capsys):
        from repro.cli import main

        assert main(["backup", sample_file, "--engine", "cpu"]) == 0
        assert "restore verified" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
