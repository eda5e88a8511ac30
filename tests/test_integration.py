"""Cross-subsystem integration scenarios.

Each test drives several packages together the way a deployment would:
Shredder feeding Inc-HDFS feeding Incoop; the backup server rotating
snapshots with retention; RE tunnels carrying backup traffic.
"""

from __future__ import annotations

import pytest

from repro.backup import (
    BackupConfig,
    BackupServer,
    MasterImage,
    SimilarityTable,
)
from repro.core.chunking import ChunkerConfig
from repro.core.shredder import Shredder, ShredderConfig
from repro.hdfs import HDFSCluster
from repro.mapreduce import AffinityScheduler, IncoopRuntime, MemoServer
from repro.mapreduce.applications import (
    kmeans_iterate,
    wordcount_job,
    wordcount_reference,
)
from repro.netre import RETunnel
from repro.workloads import generate_points, generate_text, mutate_records

CHUNKER = ChunkerConfig(mask_bits=9, marker=0x155, min_size=128, max_size=2048)
UPLOAD = ShredderConfig.gpu_streams_memory(chunker=CHUNKER, buffer_size=1 << 20)


class TestThreeDayPipeline:
    """Simulates three daily crawls through the whole Case-Study-I stack."""

    def test_daily_incremental_wordcount(self):
        cluster = HDFSCluster()
        memo = MemoServer()
        incoop = IncoopRuntime(cluster.client, memo=memo,
                               scheduler=AffinityScheduler())
        job = wordcount_job()

        text = generate_text(150_000, seed=71)
        reuse_history = []
        for day in range(3):
            if day:
                text = mutate_records(text, 4, seed=80 + day)
            with Shredder(UPLOAD) as shredder:
                cluster.client.copy_from_local_gpu(
                    text, f"/crawl/day{day}", shredder=shredder
                )
            result = incoop.run_incremental(job, f"/crawl/day{day}")
            assert result.output == wordcount_reference(text)
            reuse_history.append(result.stats.reuse_fraction)
        assert reuse_history[0] == 0.0
        assert reuse_history[1] > 0.5 and reuse_history[2] > 0.5
        assert memo.hit_rate > 0.3

    def test_memo_survives_restart(self, tmp_path):
        """Persist the memo server between 'cluster restarts'."""
        cluster = HDFSCluster()
        text = generate_text(80_000, seed=72)
        with Shredder(UPLOAD) as shredder:
            cluster.client.copy_from_local_gpu(text, "/in", shredder=shredder)
        job = wordcount_job()

        first = IncoopRuntime(cluster.client)
        first.run_incremental(job, "/in")
        first.memo.save(tmp_path / "memo.pkl")

        restarted = IncoopRuntime(
            cluster.client, memo=MemoServer.load(tmp_path / "memo.pkl")
        )
        rerun = restarted.run_incremental(job, "/in")
        assert rerun.stats.map_tasks_run == 0
        assert rerun.output == wordcount_reference(text)


class TestIterativeKMeansOverCluster:
    def test_kmeans_convergence_with_reuse(self):
        cluster = HDFSCluster()
        points = generate_points(8000, seed=73)
        with Shredder(UPLOAD) as shredder:
            cluster.client.copy_from_local_gpu(points, "/pts", shredder=shredder)
        incoop = IncoopRuntime(cluster.client)
        centroids = tuple((0.25 * i, 1.0 - 0.25 * i) for i in range(4))
        final_a, runs_a = kmeans_iterate(incoop, "/pts", centroids, iterations=3)
        final_b, runs_b = kmeans_iterate(incoop, "/pts", centroids, iterations=3)
        assert final_a == final_b  # deterministic fixed-point path
        assert all(r.stats.map_tasks_run == 0 for r in runs_b)  # full reuse


class TestBackupRetention:
    def test_weekly_rotation_with_gc(self):
        image = MasterImage(size=2 << 20, segment_size=32 * 1024, seed=74)
        table = SimilarityTable.uniform(0.1, image.n_segments)
        with BackupServer(BackupConfig(engine="gpu")) as server:
            server.backup_snapshot(image.data, "gen0")
            for gen in range(1, 5):
                snap = image.snapshot(table, gen)
                server.backup_snapshot(snap, f"gen{gen}")
            store = server.agent.store
            before = store.stored_bytes
            # Retention: keep only the last two snapshots.
            for gen in range(0, 3):
                store.delete_recipe(f"gen{gen}")
            freed = store.garbage_collect()
            assert freed > 0
            assert store.stored_bytes < before
            # Remaining snapshots still restore byte-exact.
            assert server.agent.restore("gen4") == image.snapshot(table, 4)
            assert server.agent.restore("gen3") == image.snapshot(table, 3)

    def test_gc_never_breaks_live_recipes(self):
        image = MasterImage(size=1 << 20, segment_size=16 * 1024, seed=75)
        table = SimilarityTable.uniform(0.3, image.n_segments)
        with BackupServer(BackupConfig(engine="cpu")) as server:
            snaps = {}
            for gen in range(4):
                snaps[gen] = image.snapshot(table, gen)
                server.backup_snapshot(snaps[gen], f"g{gen}")
            server.agent.store.garbage_collect()  # no recipes deleted: no-op
            for gen in range(4):
                assert server.agent.restore(f"g{gen}") == snaps[gen]


class TestBackupOverRETunnel:
    def test_offsite_replication_traffic_savings(self):
        """Ship the same snapshot to a second site through an RE tunnel:
        the tunnel dedups what the backup already shipped once."""
        image = MasterImage(size=1 << 20, segment_size=16 * 1024, seed=77)
        table = SimilarityTable.uniform(0.05, image.n_segments)
        tunnel = RETunnel()
        first = image.snapshot(table, 1)
        second = image.snapshot(table, 2)  # highly similar to first
        tunnel.send(first)
        saved_before = tunnel.savings
        tunnel.send(second)
        assert tunnel.savings > saved_before
        assert tunnel.savings > 0.3
