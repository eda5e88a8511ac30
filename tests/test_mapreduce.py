"""Tests for the MapReduce runtime, memoization, and Incoop reuse."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.chunking import ChunkerConfig
from repro.core.shredder import Shredder, ShredderConfig
from repro.hdfs import HDFSCluster
from repro.mapreduce import (
    ClusterModel,
    IncoopRuntime,
    MapReduceJob,
    MapReduceRuntime,
    MemoServer,
    memo_key,
    partition_of,
)
from repro.mapreduce.applications import (
    cooccurrence_job,
    cooccurrence_reference,
    kmeans_iterate,
    kmeans_job,
    quantize_centroids,
    wordcount_job,
    wordcount_reference,
)
from repro.mapreduce.applications.kmeans import assign_reference
from repro.workloads import generate_points, generate_text, mutate_records

CHUNKER = ChunkerConfig(mask_bits=9, marker=0x155, min_size=128, max_size=2048)
UPLOAD_CFG = ShredderConfig.gpu_streams_memory(chunker=CHUNKER, buffer_size=1 << 20)


def fresh_cluster_with(data: bytes, path: str = "/input") -> HDFSCluster:
    cluster = HDFSCluster()
    with Shredder(UPLOAD_CFG) as sh:
        cluster.client.copy_from_local_gpu(data, path, shredder=sh)
    return cluster


@pytest.fixture(scope="module")
def text() -> bytes:
    return generate_text(120_000, seed=21)


@pytest.fixture(scope="module")
def points() -> bytes:
    return generate_points(6000, seed=22)


CENTROIDS = tuple((0.2 * i, 1.0 - 0.2 * i) for i in range(5))


class TestPartitioner:
    def test_stable(self):
        assert partition_of(b"word", 4) == partition_of(b"word", 4)

    def test_range(self):
        for key in (b"a", "b", ("t", "u"), 42):
            assert 0 <= partition_of(key, 7) < 7

    def test_spreads_keys(self):
        parts = {partition_of(f"key{i}".encode(), 8) for i in range(100)}
        assert len(parts) == 8


class TestClusterModel:
    def test_makespan_single_slot(self):
        m = ClusterModel()
        assert m.makespan([1.0, 2.0, 3.0], slots=1) == pytest.approx(6.0)

    def test_makespan_parallel(self):
        m = ClusterModel()
        assert m.makespan([1.0] * 10, slots=10) == pytest.approx(1.0)

    def test_makespan_lower_bounds(self):
        m = ClusterModel()
        tasks = [0.5, 1.5, 2.0, 0.7, 0.9]
        span = m.makespan(tasks, slots=2)
        assert span >= max(tasks)
        assert span >= sum(tasks) / 2

    def test_makespan_empty(self):
        assert ClusterModel().makespan([], 4) == 0.0

    def test_default_is_paper_cluster(self):
        assert ClusterModel().nodes == 20


class TestWordCount:
    def test_output_matches_reference(self, text):
        cluster = fresh_cluster_with(text)
        result = MapReduceRuntime(cluster.client).run(wordcount_job(), "/input")
        assert result.output == wordcount_reference(text)

    def test_reducer_count_invariance(self, text):
        cluster = fresh_cluster_with(text)
        r2 = MapReduceRuntime(cluster.client).run(wordcount_job(n_reducers=2), "/input")
        r8 = MapReduceRuntime(cluster.client).run(wordcount_job(n_reducers=8), "/input")
        assert r2.output == r8.output

    def test_stats_accounting(self, text):
        cluster = fresh_cluster_with(text)
        result = MapReduceRuntime(cluster.client).run(wordcount_job(), "/input")
        s = result.stats
        assert s.map_tasks_run == s.n_splits > 10
        assert s.map_tasks_reused == 0
        assert s.makespan_seconds > 0


class TestCooccurrence:
    def test_output_matches_reference(self, text):
        cluster = fresh_cluster_with(text)
        result = MapReduceRuntime(cluster.client).run(cooccurrence_job(), "/input")
        assert result.output == cooccurrence_reference(text)

    def test_window_param(self):
        data = b"a b c d\n"
        cluster = fresh_cluster_with(data)
        r1 = MapReduceRuntime(cluster.client).run(cooccurrence_job(window=1), "/input")
        assert r1.output == {(b"a", b"b"): 1, (b"b", b"c"): 1, (b"c", b"d"): 1}

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            cooccurrence_job(window=0)


class TestKMeans:
    def test_single_iteration_matches_reference(self, points):
        cluster = fresh_cluster_with(points)
        job = kmeans_job(CENTROIDS)
        result = MapReduceRuntime(cluster.client).run(job, "/input")
        expected = assign_reference(points, quantize_centroids(CENTROIDS))
        assert set(result.output) == set(expected)
        for k, (x, y) in expected.items():
            rx, ry = result.output[k]
            assert rx == pytest.approx(x, abs=1e-9)
            assert ry == pytest.approx(y, abs=1e-9)

    def test_iterations_converge(self, points):
        cluster = fresh_cluster_with(points)
        runtime = MapReduceRuntime(cluster.client)
        final, results = kmeans_iterate(runtime, "/input", CENTROIDS, iterations=3)
        assert len(results) == 3
        assert len(final) == len(CENTROIDS)

    def test_quantization_stabilizes_keys(self):
        a = quantize_centroids(((0.10002, 0.5), (0.3, 0.7)))
        b = quantize_centroids(((0.10049, 0.5), (0.3, 0.7)))
        assert a == b


class TestMemoServer:
    def test_hit_miss_accounting(self):
        memo = MemoServer()
        assert memo.get("k") is None
        memo.put("k", 42)
        assert memo.get("k") == 42
        assert memo.hits == 1 and memo.misses == 1
        assert memo.hit_rate == 0.5

    def test_invalidate_prefix(self):
        memo = MemoServer()
        memo.put("map:a:1", 1)
        memo.put("map:a:2", 2)
        memo.put("map:b:1", 3)
        assert memo.invalidate("map:a") == 2
        assert "map:b:1" in memo

    def test_memo_key_sensitivity(self):
        k1 = memo_key("job", (1,), "abc")
        assert k1 == memo_key("job", (1,), "abc")
        assert k1 != memo_key("job", (2,), "abc")
        assert k1 != memo_key("job", (1,), "abd")
        assert k1 != memo_key("other", (1,), "abc")


class TestIncoopCorrectness:
    """The central invariant: incremental output == from-scratch output."""

    @pytest.mark.parametrize("pct", [0, 5, 20])
    def test_wordcount_incremental_equals_full(self, text, pct):
        changed = mutate_records(text, pct, seed=30 + pct)
        cluster = fresh_cluster_with(text, "/base")
        with Shredder(UPLOAD_CFG) as sh:
            cluster.client.copy_from_local_gpu(changed, "/changed", shredder=sh)
        inc = IncoopRuntime(cluster.client)
        job = wordcount_job()
        inc.run_incremental(job, "/base")
        result = inc.run_incremental(job, "/changed")
        assert result.output == wordcount_reference(changed)

    def test_cooccurrence_incremental_equals_full(self, text):
        changed = mutate_records(text, 10, seed=31)
        cluster = fresh_cluster_with(text, "/base")
        with Shredder(UPLOAD_CFG) as sh:
            cluster.client.copy_from_local_gpu(changed, "/changed", shredder=sh)
        inc = IncoopRuntime(cluster.client)
        job = cooccurrence_job()
        inc.run_incremental(job, "/base")
        result = inc.run_incremental(job, "/changed")
        assert result.output == cooccurrence_reference(changed)

    def test_kmeans_incremental_equals_full(self, points):
        changed = mutate_records(points, 10, seed=32, kind="points")
        cluster = fresh_cluster_with(points, "/base")
        with Shredder(UPLOAD_CFG) as sh:
            cluster.client.copy_from_local_gpu(changed, "/changed", shredder=sh)
        inc = IncoopRuntime(cluster.client)
        job = kmeans_job(CENTROIDS)
        inc.run_incremental(job, "/base")
        result = inc.run_incremental(job, "/changed")
        full = MapReduceRuntime(cluster.client).run(job, "/changed")
        assert set(result.output) == set(full.output)
        for k in full.output:
            assert result.output[k][0] == pytest.approx(full.output[k][0], abs=1e-9)
            assert result.output[k][1] == pytest.approx(full.output[k][1], abs=1e-9)


class TestIncoopReuse:
    def test_identical_rerun_reuses_everything(self, text):
        cluster = fresh_cluster_with(text)
        inc = IncoopRuntime(cluster.client)
        job = wordcount_job()
        first = inc.run_incremental(job, "/input")
        second = inc.run_incremental(job, "/input")
        assert first.stats.map_tasks_run == first.stats.n_splits
        assert second.stats.map_tasks_run == 0
        assert second.stats.map_tasks_reused == second.stats.n_splits
        assert second.stats.combine_nodes_run == 0

    def test_small_change_reuses_most(self, text):
        changed = mutate_records(text, 5, seed=33)
        cluster = fresh_cluster_with(text, "/base")
        with Shredder(UPLOAD_CFG) as sh:
            cluster.client.copy_from_local_gpu(changed, "/changed", shredder=sh)
        inc = IncoopRuntime(cluster.client)
        job = wordcount_job()
        inc.run_incremental(job, "/base")
        result = inc.run_incremental(job, "/changed")
        assert result.stats.reuse_fraction > 0.5

    def test_different_params_no_reuse(self, points):
        cluster = fresh_cluster_with(points)
        inc = IncoopRuntime(cluster.client)
        inc.run_incremental(kmeans_job(CENTROIDS), "/input")
        other = tuple((c[0] + 0.5, c[1]) for c in CENTROIDS)
        result = inc.run_incremental(kmeans_job(other), "/input")
        assert result.stats.map_tasks_reused == 0

    def test_speedup_decreases_with_change(self, text):
        speedups = []
        for pct in (0, 15):
            changed = mutate_records(text, pct, seed=40 + pct)
            cluster = fresh_cluster_with(text, "/base")
            with Shredder(UPLOAD_CFG) as sh:
                cluster.client.copy_from_local_gpu(changed, "/changed", shredder=sh)
            inc = IncoopRuntime(cluster.client)
            job = wordcount_job()
            inc.run_incremental(job, "/base")
            _, speedup = inc.speedup_vs_full(job, "/changed")
            speedups.append(speedup)
        assert speedups[0] > speedups[1] > 1.0

    def test_incremental_kmeans_iterations_reuse(self, points):
        cluster = fresh_cluster_with(points)
        inc = IncoopRuntime(cluster.client)
        # Two identical iterate calls: the second reuses everything.
        kmeans_iterate(inc, "/input", CENTROIDS, iterations=2)
        _, results = kmeans_iterate(inc, "/input", CENTROIDS, iterations=2)
        for r in results:
            assert r.stats.map_tasks_run == 0


def run_fingerprint(result) -> tuple:
    """Output and ``RunStats`` of a run, per-task lists and output hashed."""
    s = result.stats

    def h(value) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

    return (
        s.n_splits, s.map_tasks_run, s.map_tasks_reused, s.combine_nodes_run,
        s.combine_nodes_reused, s.reduce_tasks, round(s.makespan_seconds, 9),
        h(s.map_task_seconds), h(s.reduce_task_seconds),
        h(sorted(result.output.items())),
    )


class TestJobLoopPinned:
    """The plain and incremental runs share one job loop: on a seeded
    corpus, both reproduce the output and telemetry the two separate
    loops produced (task counts, per-task seconds, makespan)."""

    @pytest.fixture(scope="class")
    def cluster(self):
        text = generate_text(20_000, seed=31)
        cluster = HDFSCluster()
        with Shredder(UPLOAD_CFG) as sh:
            cluster.client.copy_from_local_gpu(text, "/a", shredder=sh)
            cluster.client.copy_from_local_gpu(
                mutate_records(text, 10, seed=32), "/b", shredder=sh
            )
        return cluster

    def test_plain_run(self, cluster):
        result = MapReduceRuntime(cluster.client).run(wordcount_job(), "/a")
        assert run_fingerprint(result) == (
            28, 28, 0, 0, 0, 4, 0.7638018,
            "feab2f9c9aa27cb7", "b00f618cbe033d27", "a8c9c1f8ed343cc0",
        )

    def test_primed_incremental_run(self, cluster):
        inc = IncoopRuntime(cluster.client)
        inc.run_incremental(wordcount_job(), "/a")
        result = inc.run_incremental(wordcount_job(), "/b")
        assert run_fingerprint(result) == (
            28, 4, 24, 28, 80, 4, 0.743102,
            "864552e3b78c387c", "b4297ee7ee1da27c", "af42c0fa286435d3",
        )


class TestJobValidation:
    def test_needs_name(self):
        with pytest.raises(ValueError):
            MapReduceJob(name="", map_fn=lambda r: [], reduce_fn=lambda k, v: None)

    def test_needs_positive_reducers(self):
        with pytest.raises(ValueError):
            MapReduceJob(
                name="x", map_fn=lambda r: [], reduce_fn=lambda k, v: None, n_reducers=0
            )

    def test_compute_weight_positive(self):
        with pytest.raises(ValueError):
            MapReduceJob(
                name="x",
                map_fn=lambda r: [],
                reduce_fn=lambda k, v: None,
                compute_weight=0,
            )
