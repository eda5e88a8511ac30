"""Tests for the cloud-backup case study (§7)."""

from __future__ import annotations

import pytest

from repro.backup import (
    BackupConfig,
    BackupServer,
    ChunkStore,
    MasterImage,
    ShredderAgent,
    SimilarityTable,
    SnapshotRecipe,
)
from repro.core import gf2
from repro.core.hashing import chunk_hash
from repro.gpu import chunking_kernel, coalescing

MB = 1 << 20


@pytest.fixture(scope="module")
def image() -> MasterImage:
    return MasterImage(size=3 * MB, segment_size=32 * 1024, seed=77)


class TestSimilarityTable:
    def test_uniform(self):
        t = SimilarityTable.uniform(0.2, 10)
        assert len(t) == 10 and all(p == 0.2 for p in t.probabilities)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            SimilarityTable((0.5, 1.5))


class TestMasterImage:
    def test_segment_count(self, image):
        assert image.n_segments == 96

    def test_snapshot_deterministic(self, image):
        t = SimilarityTable.uniform(0.2, image.n_segments)
        assert image.snapshot(t, 1) == image.snapshot(t, 1)

    def test_generations_differ(self, image):
        t = SimilarityTable.uniform(0.2, image.n_segments)
        assert image.snapshot(t, 1) != image.snapshot(t, 2)

    def test_zero_probability_identity(self, image):
        t = SimilarityTable.uniform(0.0, image.n_segments)
        assert image.snapshot(t, 1) == image.data

    def test_one_probability_replaces_everything(self, image):
        t = SimilarityTable.uniform(1.0, image.n_segments)
        snap = image.snapshot(t, 1)
        assert len(snap) == image.size
        # No segment equal to the master's.
        same = sum(
            image.segment(i) == snap[i * 32 * 1024 : (i + 1) * 32 * 1024]
            for i in range(image.n_segments)
        )
        assert same == 0

    def test_change_fraction_tracks_probability(self, image):
        t = SimilarityTable.uniform(0.3, image.n_segments)
        snap = image.snapshot(t, 3)
        changed = sum(
            image.segment(i) != snap[i * 32 * 1024 : (i + 1) * 32 * 1024]
            for i in range(image.n_segments)
        )
        assert 0.15 < changed / image.n_segments < 0.45
        assert image.expected_change_fraction(t) == pytest.approx(0.3)

    def test_table_size_mismatch(self, image):
        with pytest.raises(ValueError):
            image.snapshot(SimilarityTable.uniform(0.5, 3), 1)


class TestChunkStore:
    def test_put_dedups(self):
        store = ChunkStore()
        d = chunk_hash(b"data")
        assert store.put_chunk(d, b"data") is True
        assert store.put_chunk(d, b"data") is False
        assert store.chunk_count == 1

    def test_recipe_requires_chunks(self):
        store = ChunkStore()
        with pytest.raises(ValueError, match="missing"):
            store.put_recipe(SnapshotRecipe("s", (chunk_hash(b"x"),), 1))

    def test_duplicate_recipe_rejected(self):
        store = ChunkStore()
        d = chunk_hash(b"x")
        store.put_chunk(d, b"x")
        store.put_recipe(SnapshotRecipe("s", (d,), 1))
        with pytest.raises(ValueError, match="already"):
            store.put_recipe(SnapshotRecipe("s", (d,), 1))

    def test_restore_order(self):
        store = ChunkStore()
        da, db = chunk_hash(b"aa"), chunk_hash(b"bb")
        store.put_chunk(da, b"aa")
        store.put_chunk(db, b"bb")
        store.put_recipe(SnapshotRecipe("s", (db, da, db), 6))
        assert store.restore("s") == b"bbaabb"


class TestAgentProtocol:
    def test_roundtrip(self):
        agent = ShredderAgent()
        agent.begin_snapshot("s1")
        agent.receive_chunks("s1", [(None, b"hello "), (None, b"world")])
        log = agent.finish_snapshot("s1")
        assert log.chunks_received == 2 and log.pointers_received == 0
        assert agent.restore("s1") == b"hello world"

    def test_pointers_reference_existing(self):
        agent = ShredderAgent()
        agent.begin_snapshot("s1")
        agent.receive_chunks("s1", [(None, b"shared")])
        agent.finish_snapshot("s1")
        agent.begin_snapshot("s2")
        agent.receive_pointers("s2", [chunk_hash(b"shared")])
        log = agent.finish_snapshot("s2")
        assert log.pointers_received == 1 and log.bytes_received == 0
        assert agent.restore("s2") == b"shared"

    def test_pointer_to_unknown_chunk_rejected(self):
        agent = ShredderAgent()
        agent.begin_snapshot("s1")
        with pytest.raises(KeyError):
            agent.receive_pointers("s1", [chunk_hash(b"never sent")])

    def test_unopened_snapshot_rejected(self):
        agent = ShredderAgent()
        with pytest.raises(ValueError):
            agent.receive_chunks("nope", [(None, b"x")])

    def test_double_open_rejected(self):
        agent = ShredderAgent()
        agent.begin_snapshot("s")
        with pytest.raises(ValueError):
            agent.begin_snapshot("s")


class TestBackupEndToEnd:
    @pytest.fixture(scope="class")
    def server(self, image):
        with BackupServer(BackupConfig(engine="gpu")) as server:
            server.backup_snapshot(image.data, "master")
            yield server

    def test_restore_equals_snapshot(self, image, server):
        t = SimilarityTable.uniform(0.2, image.n_segments)
        snap = image.snapshot(t, 5)
        server.backup_snapshot(snap, "gen5")
        assert server.agent.restore("gen5") == snap

    def test_master_restore(self, image, server):
        assert server.agent.restore("master") == image.data

    def test_dedup_saves_transfer(self, image, server):
        t = SimilarityTable.uniform(0.1, image.n_segments)
        snap = image.snapshot(t, 6)
        report = server.backup_snapshot(snap, "gen6")
        assert report.shipped_bytes < 0.4 * report.total_bytes
        assert report.dedup_fraction > 0.6

    def test_chunk_sizes_respect_min_max(self, image, server):
        cfg = server.config.chunker
        recipe = server.agent.store.get_recipe("master")
        sizes = [len(server.agent.store.get_chunk(d)) for d in recipe.digests]
        assert all(s <= cfg.max_size for s in sizes)
        assert all(s >= cfg.min_size for s in sizes[:-1])

    def test_store_holds_each_chunk_once(self, image, server):
        store = server.agent.store
        assert store.stored_bytes <= sum(
            store.get_recipe(s).total_bytes
            for s in ("master",)
        ) * 2  # far below sum over all snapshots


class TestBackupBandwidthShape:
    """Fig. 18 behaviours."""

    @pytest.fixture(scope="class")
    def curves(self, image):
        out = {}
        for engine in ("cpu", "gpu"):
            bws = []
            with BackupServer(BackupConfig(engine=engine)) as server:
                server.backup_snapshot(image.data, "master")
                for i, p in enumerate((0.05, 0.25)):
                    t = SimilarityTable.uniform(p, image.n_segments)
                    snap = image.snapshot(t, 10 + i)
                    rep = server.backup_snapshot(snap, f"{engine}{i}")
                    bws.append(rep.backup_bandwidth_gbps)
            out[engine] = bws
        return out

    def test_gpu_beats_cpu(self, curves):
        """§7.3: 'a speedup of only 2.5X in backup bandwidth compared to
        the pthread implementation' (min/max costs cap the gain)."""
        for g, c in zip(curves["gpu"], curves["cpu"]):
            assert 1.8 < g / c < 4.5

    def test_gpu_near_10gbps_target(self, curves):
        assert 6.0 < curves["gpu"][0] < 10.0

    def test_bandwidth_declines_with_dissimilarity(self, curves):
        assert curves["gpu"][1] <= curves["gpu"][0]

    def test_cpu_chunking_bound(self, image):
        """For similar snapshots the CPU pipeline is chunking-bound — the
        bottleneck Shredder exists to remove."""
        with BackupServer(BackupConfig(engine="cpu")) as server:
            server.backup_snapshot(image.data, "m")
            t = SimilarityTable.uniform(0.2, image.n_segments)
            rep = server.backup_snapshot(snap := image.snapshot(t, 20), "s")
        assert rep.bottleneck == "chunking"

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            BackupConfig(engine="fpga")

    def test_invalid_storage_backend(self):
        with pytest.raises(ValueError):
            BackupConfig(backend="tape")


class TestColdStart:
    @pytest.mark.parametrize(
        "engine, chunk_s_per_byte",
        [("gpu", 5.728555898929622e-10), ("cpu", 3.144782829558712e-09)],
    )
    def test_modeled_chunk_cost_is_golden(self, engine, chunk_s_per_byte):
        """Recorded before the cold path was shortened: every modeled
        ``BackupReport`` chunking time is ``bytes * this``."""
        with BackupServer(BackupConfig(engine=engine)) as server:
            assert server._chunk_s_per_byte == chunk_s_per_byte

    def test_construction_does_no_search_or_per_half_warp_rule(self, monkeypatch):
        """The default polynomial is a constant and the cooperative trace is
        coalesced by construction: bringing a server up runs neither."""
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the cold path")

        monkeypatch.setattr(gf2, "find_irreducible", forbidden)
        monkeypatch.setattr(coalescing, "is_coalescable", forbidden)
        chunking_kernel._memory_stats.cache_clear()
        with BackupServer() as server:
            assert server._chunk_s_per_byte > 0
