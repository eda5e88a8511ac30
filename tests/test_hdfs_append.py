"""Tests for content-defined append on Inc-HDFS."""

from __future__ import annotations

import pytest

from repro.core.chunking import ChunkerConfig
from repro.core.shredder import Shredder, ShredderConfig
from repro.hdfs import HDFSCluster
from repro.mapreduce import IncoopRuntime
from repro.mapreduce.applications import wordcount_job, wordcount_reference
from repro.workloads import generate_text

SMALL = ChunkerConfig(mask_bits=8, marker=0x55)
CFG = ShredderConfig.gpu_streams_memory(chunker=SMALL, buffer_size=1 << 20)


def upload(cluster, data, path):
    with Shredder(CFG) as shredder:
        return cluster.client.copy_from_local_gpu(data, path, shredder=shredder)


def append(cluster, data, path):
    with Shredder(CFG) as shredder:
        return cluster.client.append_gpu(data, path, shredder=shredder)


@pytest.fixture()
def cluster():
    return HDFSCluster(num_datanodes=5)


class TestAppend:
    def test_read_after_append(self, cluster):
        a = generate_text(60_000, seed=81)
        b = generate_text(30_000, seed=82)
        upload(cluster, a, "/log")
        append(cluster, b, "/log")
        assert cluster.client.read("/log") == a + b

    def test_multiple_appends(self, cluster):
        parts = [generate_text(20_000, seed=83 + i) for i in range(4)]
        upload(cluster, parts[0], "/log")
        for part in parts[1:]:
            append(cluster, part, "/log")
        assert cluster.client.read("/log") == b"".join(parts)

    def test_append_to_empty_like_upload(self, cluster):
        upload(cluster, b"", "/log")
        data = generate_text(30_000, seed=85)
        append(cluster, data, "/log")
        assert cluster.client.read("/log") == data

    def test_prefix_blocks_untouched(self, cluster):
        """Only the tail block may change: the Inc-HDFS append guarantee."""
        a = generate_text(80_000, seed=86)
        upload(cluster, a, "/log")
        before = [s.digest for s in cluster.client.get_splits("/log")]
        append(cluster, generate_text(40_000, seed=87), "/log")
        after = [s.digest for s in cluster.client.get_splits("/log")]
        assert after[: len(before) - 1] == before[:-1]

    def test_append_rejected_on_fixed_size_file(self, cluster):
        cluster.client.copy_from_local(b"abc" * 1000, "/fixed")
        with pytest.raises(ValueError, match="content-based"):
            append(cluster, b"more", "/fixed")

    def test_appended_data_memoizes_incrementally(self, cluster):
        """Appending a day's records re-runs only tail + new map tasks."""
        a = generate_text(100_000, seed=88)
        upload(cluster, a, "/log")
        incoop = IncoopRuntime(cluster.client)
        job = wordcount_job()
        incoop.run_incremental(job, "/log")
        b = generate_text(20_000, seed=89)
        append(cluster, b, "/log")
        result = incoop.run_incremental(job, "/log")
        assert result.output == wordcount_reference(a + b)
        assert result.stats.map_tasks_reused > 0.7 * result.stats.n_splits

    def test_append_equivalent_to_reupload(self, cluster):
        """Append produces the same bytes and near-identical splits as a
        from-scratch upload of the concatenation."""
        a = generate_text(60_000, seed=90)
        b = generate_text(30_000, seed=91)
        upload(cluster, a, "/appended")
        append(cluster, b, "/appended")
        upload(cluster, a + b, "/whole")
        appended = {s.digest for s in cluster.client.get_splits("/appended")}
        whole = {s.digest for s in cluster.client.get_splits("/whole")}
        # Record snapping from a different tail start can shift a couple
        # of boundaries; the overwhelming majority must coincide.
        assert len(appended & whole) > 0.9 * len(whole)

    def test_append_forgets_the_tail_it_replaces(self, cluster):
        """Garbage collection drops the replaced tail, and a node failure
        after the append is repaired from the new recipe."""
        upload(cluster, generate_text(60_000, seed=92), "/log")
        old_tail = cluster.namenode.get_file("/log").blocks[-1]
        append(cluster, generate_text(30_000, seed=93), "/log")
        blocks = cluster.namenode.get_file("/log").blocks
        assert old_tail not in blocks
        assert cluster.store.digests() == {b.digest for b in blocks}
        store = cluster.store
        store.fail_node(max(store.nodes.values(), key=lambda n: n.stored_bytes).node_id)
        assert store.repair().healthy
        for block in blocks:
            assert store.replica_count(block.digest) == 2

    def test_delete_after_append_leaves_no_block_behind(self, cluster):
        """Neither the replaced tail nor the file's blocks outlive
        ``delete``: no store node keeps a copy, no recipe names one."""
        upload(cluster, generate_text(60_000, seed=94), "/log")
        append(cluster, generate_text(30_000, seed=95), "/log")
        cluster.client.delete("/log")
        assert cluster.store.chunk_count == 0
        assert cluster.store.digests() == set()
        assert all(n.stored_bytes == 0 for n in cluster.store.nodes.values())
        assert cluster.store.repair().chunks_scanned == 0
