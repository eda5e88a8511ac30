"""Tests for the in-process Inc-HDFS cluster and its uploads."""

from __future__ import annotations

import pytest

from repro.core.chunking import ChunkerConfig
from repro.core.shredder import Shredder, ShredderConfig
from repro.hdfs import (
    FileAlreadyExists,
    FileNotFoundInHDFS,
    HDFSCluster,
    snap_cuts_to_records,
    split_records,
)
from repro.workloads import generate_text, mutate_records, seeded_bytes

SMALL = ChunkerConfig(mask_bits=8, marker=0x55)


def make_shredder():
    return Shredder(ShredderConfig.gpu_streams_memory(chunker=SMALL, buffer_size=1 << 20))


@pytest.fixture()
def cluster() -> HDFSCluster:
    return HDFSCluster(num_datanodes=5, replication=2)


class TestFixedSizeUpload:
    def test_roundtrip(self, cluster):
        data = seeded_bytes(300_000, seed=1)
        cluster.client.copy_from_local(data, "/f", block_size=64 * 1024)
        assert cluster.client.read("/f") == data

    def test_block_count(self, cluster):
        data = seeded_bytes(300_000, seed=1)
        up = cluster.client.copy_from_local(data, "/f", block_size=64 * 1024)
        assert up.n_blocks == 5  # ceil(300000 / 65536)

    def test_duplicate_path_rejected(self, cluster):
        cluster.client.copy_from_local(b"abc", "/f")
        with pytest.raises(FileAlreadyExists):
            cluster.client.copy_from_local(b"xyz", "/f")

    def test_missing_file(self, cluster):
        with pytest.raises(FileNotFoundInHDFS):
            cluster.client.read("/nope")

    def test_replication(self, cluster):
        data = seeded_bytes(100_000, seed=2)
        cluster.client.copy_from_local(data, "/f", block_size=32 * 1024)
        for block in cluster.namenode.get_file("/f").blocks:
            assert cluster.store.replica_count(block.digest) == 2

    def test_placement_balances_load(self, cluster):
        data = seeded_bytes(500_000, seed=3)
        cluster.client.copy_from_local(data, "/f", block_size=16 * 1024)
        used = [n.stored_bytes for n in cluster.store.nodes.values()]
        assert max(used) < 3 * (sum(used) / len(used))

    def test_delete(self, cluster):
        cluster.client.copy_from_local(b"abc" * 100, "/f")
        cluster.client.delete("/f")
        assert not cluster.namenode.exists("/f")
        assert cluster.store.chunk_count == 0
        assert cluster.store.snapshot_count == 0

    def test_delete_keeps_blocks_another_file_shares(self, cluster):
        data = seeded_bytes(100_000, seed=4)
        cluster.client.copy_from_local(data, "/a", block_size=32 * 1024)
        cluster.client.copy_from_local(data, "/b", block_size=32 * 1024)
        cluster.client.delete("/a")
        assert cluster.client.read("/b") == data
        assert cluster.store.chunk_count == 4

    def test_failed_upload_leaves_no_file(self, cluster):
        """The file enters the namespace only once its upload completes,
        so a retry after a failed upload succeeds."""
        with pytest.raises(TypeError):
            cluster.client.copy_from_local_gpu(12345, "/x")
        assert not cluster.namenode.exists("/x")
        assert cluster.store.snapshot_count == 0
        data = generate_text(20_000, seed=5)
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(data, "/x", shredder=sh)
        assert cluster.client.read("/x") == data


class TestContentBasedUpload:
    def test_roundtrip(self, cluster):
        data = generate_text(150_000, seed=4)
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(data, "/f", shredder=sh)
        assert cluster.client.read("/f") == data

    def test_roundtrip_without_semantic(self, cluster):
        data = seeded_bytes(150_000, seed=4)
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(
                data, "/f", shredder=sh, record_delimiter=None
            )
        assert cluster.client.read("/f") == data

    def test_splits_have_stable_digests(self, cluster):
        """The Inc-HDFS property (§6.2): most split digests survive edits."""
        text = generate_text(200_000, seed=5)
        edited = mutate_records(text, 5, seed=6)
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(text, "/a", shredder=sh)
            cluster.client.copy_from_local_gpu(edited, "/b", shredder=sh)
        a = {s.digest for s in cluster.client.get_splits("/a")}
        b = {s.digest for s in cluster.client.get_splits("/b")}
        assert len(a & b) > 0.6 * len(a)

    def test_fixed_size_unstable_under_insertion(self, cluster):
        """Stock HDFS splits shift after an insertion — the motivation for
        content-based chunking in §6.2."""
        text = generate_text(200_000, seed=5)
        edited = b"new leading record\n" + text
        cluster.client.copy_from_local(text, "/a", block_size=8 * 1024)
        cluster.client.copy_from_local(edited, "/b", block_size=8 * 1024)
        a = {s.digest for s in cluster.client.get_splits("/a")}
        b = {s.digest for s in cluster.client.get_splits("/b")}
        assert len(a & b) <= 1  # at most the tail block matches by luck

    def test_content_splits_stable_under_insertion(self, cluster):
        text = generate_text(200_000, seed=5)
        edited = b"new leading record\n" + text
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(text, "/a", shredder=sh)
            cluster.client.copy_from_local_gpu(edited, "/b", shredder=sh)
        a = {s.digest for s in cluster.client.get_splits("/a")}
        b = {s.digest for s in cluster.client.get_splits("/b")}
        assert len(a & b) > 0.8 * len(a)

    def test_semantic_splits_are_record_aligned(self, cluster):
        text = generate_text(120_000, seed=7)
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(text, "/f", shredder=sh)
        for split in cluster.client.get_splits("/f")[:-1]:
            data = cluster.client.read_split(split)
            assert data.endswith(b"\n"), "split must end at a record boundary"

    def test_split_offsets_contiguous(self, cluster):
        text = generate_text(100_000, seed=8)
        with make_shredder() as sh:
            cluster.client.copy_from_local_gpu(text, "/f", shredder=sh)
        pos = 0
        for s in cluster.client.get_splits("/f"):
            assert s.offset == pos
            pos += s.length
        assert pos == len(text)


def fail_fullest_node(cluster: HDFSCluster) -> None:
    nodes = cluster.store.nodes.values()
    cluster.store.fail_node(max(nodes, key=lambda n: n.stored_bytes).node_id)


class TestFailures:
    def test_read_uses_surviving_replica(self, cluster):
        data = seeded_bytes(100_000, seed=9)
        cluster.client.copy_from_local(data, "/f", block_size=32 * 1024)
        fail_fullest_node(cluster)
        assert cluster.client.read("/f") == data

    def test_read_fails_when_all_replicas_down(self, cluster):
        data = seeded_bytes(50_000, seed=9)
        cluster.client.copy_from_local(data, "/f", block_size=32 * 1024)
        for node_id in list(cluster.store.nodes)[:-1]:
            cluster.store.fail_node(node_id)
        with pytest.raises(KeyError, match="missing"):
            cluster.client.read("/f")

    def test_repair_restores_replication(self, cluster):
        data = seeded_bytes(50_000, seed=9)
        cluster.client.copy_from_local(data, "/f", block_size=32 * 1024)
        fail_fullest_node(cluster)
        assert cluster.store.repair().healthy
        for block in cluster.namenode.get_file("/f").blocks:
            assert cluster.store.replica_count(block.digest) == 2

    def test_needs_a_datanode(self):
        with pytest.raises(ValueError):
            HDFSCluster(num_datanodes=0)


class TestSemanticChunking:
    def test_snap_moves_forward_to_delimiter(self):
        data = b"aaaa\nbbbb\ncccc\n"
        assert snap_cuts_to_records(data, [2, 7, 15]) == [5, 10, 15]

    def test_snap_preserves_end(self):
        data = b"aaaa\nbb"  # unterminated tail
        assert snap_cuts_to_records(data, [3, 7]) == [5, 7]

    def test_snap_merges_collapsing_cuts(self):
        data = b"aaaaaaaaaa\nbb\n"
        # Both cuts snap to 11.
        assert snap_cuts_to_records(data, [2, 5, 14]) == [11, 14]

    def test_snap_empty(self):
        assert snap_cuts_to_records(b"", []) == []

    @pytest.mark.parametrize("delimiter", [b"\n", b"\r\n"])
    def test_cut_already_after_delimiter_stays(self, delimiter):
        data = delimiter.join([b"aa", b"bb", b"cc"])
        # A cut exactly after a delimiter is already record-aligned.
        cut = 2 + len(delimiter)
        assert snap_cuts_to_records(data, [cut], delimiter) == [cut, len(data)]

    def test_split_records_handles_missing_final_newline(self):
        assert split_records(b"a\nb") == [b"a", b"b"]
        assert split_records(b"a\nb\n") == [b"a", b"b"]
        assert split_records(b"") == []
