"""Tests for erasure-coded placement: the GF(2^8) Reed-Solomon codec,
fragment framing, and the cluster's K-of-N degraded read / fragment
repair paths (``src/repro/store/erasure.py`` + the EC branches of
``cluster.py``)."""

from __future__ import annotations

import itertools
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup import (
    BackupConfig,
    BackupServer,
    MasterImage,
    SimilarityTable,
    SnapshotRecipe,
)
from repro.core.hashing import chunk_hash
from repro.store import (
    ChunkStoreCluster,
    CorruptFragmentError,
    ErasureCodedPlacement,
    FragmentFormatError,
    ReedSolomonCodec,
    codec_for,
    make_scheme,
)
from repro.store.erasure import (
    FRAGMENT_HEADER_SIZE,
    GF_MUL,
    gf_mul,
    pack_fragment,
    unpack_fragment,
)


def make_ec_cluster(n_nodes=8, k=4, m=2, **kwargs) -> ChunkStoreCluster:
    return ChunkStoreCluster(
        n_nodes=n_nodes, scheme=ErasureCodedPlacement(k, m), **kwargs
    )


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


# ----------------------------------------------------------------------
# codec: systematic Reed-Solomon over GF(2^8)
# ----------------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize("size", [0, 1, 3, 4, 17, 4096])
    def test_any_k_of_n_decodes(self, size):
        """Every k-subset of the k+m fragments reconstructs the chunk —
        the MDS property, exhaustively for (3, 2)."""
        codec = ReedSolomonCodec(3, 2)
        data = bytes(random.Random(size).getrandbits(8) for _ in range(size))
        frags = codec.encode(data)
        assert len(frags) == 5
        for subset in itertools.combinations(range(5), 3):
            picked = {i: frags[i] for i in subset}
            assert codec.decode(picked, len(data)) == data

    def test_random_subsets_larger_geometry(self):
        codec = ReedSolomonCodec(8, 4)
        data = bytes(range(256)) * 13  # not a multiple of k
        frags = codec.encode(data)
        rng = random.Random(7)
        for _ in range(20):
            subset = rng.sample(range(12), 8)
            picked = {i: frags[i] for i in subset}
            assert codec.decode(picked, len(data)) == data

    def test_systematic_data_fragments_are_slices(self):
        """Data fragments are chunk slices: all-healthy reads need only
        concatenation, never GF arithmetic."""
        codec = ReedSolomonCodec(4, 2)
        data = b"abcdefgh" * 64
        frags = codec.encode(data)
        size = codec.fragment_size(len(data))
        joined = b"".join(frags[:4])
        assert joined[: len(data)] == data
        assert all(len(f) == size for f in frags)

    def test_fragment_padding_trimmed(self):
        """Lengths not divisible by k pad the last data fragment; decode
        trims back to chunk_len exactly."""
        codec = ReedSolomonCodec(4, 2)
        for size in (1, 5, 7, 9, 1023):
            data = bytes([size % 251]) * size
            frags = codec.encode(data)
            assert len(frags[0]) * 4 >= size
            assert codec.decode({i: frags[i] for i in (0, 2, 4, 5)}, size) == data

    def test_k1_every_fragment_is_a_copy(self):
        """(1, m) degenerates to m+1-way replication: any single
        fragment alone decodes."""
        codec = ReedSolomonCodec(1, 2)
        data = b"only copy" * 11
        frags = codec.encode(data)
        for i, frag in enumerate(frags):
            assert codec.decode({i: frag}, len(data)) == data

    def test_m0_no_parity(self):
        """(k, 0) is plain striping: the full data set is required and
        sufficient."""
        codec = ReedSolomonCodec(4, 0)
        data = b"striped!" * 32
        frags = codec.encode(data)
        assert codec.decode(dict(enumerate(frags)), len(data)) == data

    def test_insufficient_fragments_rejected(self):
        codec = ReedSolomonCodec(4, 2)
        frags = codec.encode(b"x" * 100)
        with pytest.raises(ValueError):
            codec.decode({0: frags[0], 1: frags[1], 2: frags[2]}, 100)

    def test_rebuild_matches_encode(self):
        """Rebuilt fragments are byte-identical to the originals — a
        repair must not produce equivalent-but-different parity."""
        codec = ReedSolomonCodec(4, 2)
        data = bytes(random.Random(3).getrandbits(8) for _ in range(777))
        frags = codec.encode(data)
        survivors = {i: frags[i] for i in (1, 2, 4, 5)}  # lost 0 and 3
        rebuilt = codec.rebuild(survivors, [0, 3])
        assert rebuilt[0] == frags[0]
        assert rebuilt[3] == frags[3]

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomonCodec(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCodec(4, -1)
        with pytest.raises(ValueError):
            ReedSolomonCodec(200, 100)  # k + m > 255

    def test_codec_for_caches(self):
        assert codec_for(4, 2) is codec_for(4, 2)
        assert codec_for(4, 2) is not codec_for(4, 3)


def slow_gf_mul(a: int, b: int) -> int:
    """Shift-and-add product modulo x^8 + x^4 + x^3 + x^2 + 1: no tables."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return product


SLOW_MUL = [[slow_gf_mul(a, b) for b in range(256)] for a in range(256)]


def reference_fragments(codec: ReedSolomonCodec, data: bytes) -> list[bytes]:
    """Every fragment, byte by byte: row ``i`` of the encode matrix
    times the zero-padded data grid, in scalar field arithmetic."""
    size = codec.fragment_size(len(data))
    padded = data + bytes(codec.k * size - len(data))
    grid = [padded[j * size : (j + 1) * size] for j in range(codec.k)]
    fragments = []
    for row in codec.matrix:
        fragment = bytearray(size)
        for coeff, piece in zip(row, grid):
            products = SLOW_MUL[coeff]
            for x, byte in enumerate(piece):
                fragment[x] ^= products[byte]
        fragments.append(bytes(fragment))
    return fragments


#: (3, 9) and (12, 12) need more than one 8-lane group of output rows.
KERNEL_GEOMETRIES = [(1, 0), (2, 1), (4, 2), (6, 3), (3, 9), (10, 4), (12, 12)]


class TestPackedLaneKernel:
    """Encode, parity decode and rebuild are one packed-lane kernel;
    each is held to a scalar reference that shares no table with it."""

    def test_product_table_matches_scalar_multiply(self):
        assert GF_MUL.tolist() == SLOW_MUL
        assert gf_mul(0x53, 0xCA) == slow_gf_mul(0x53, 0xCA)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_scalar_reference(self, data):
        k, m = data.draw(st.sampled_from(KERNEL_GEOMETRIES), label="geometry")
        n = k + m
        size = data.draw(
            st.one_of(st.integers(0, 3 * k + 1), st.integers(4900, 5300)), label="size"
        )
        chunk = random.Random(data.draw(st.integers(0, 2**32))).randbytes(size)
        codec = ReedSolomonCodec(k, m)
        expected = reference_fragments(codec, chunk)
        fragments = codec.encode(chunk)
        assert fragments == expected
        if math.comb(n, k) <= 220:  # every k-subset, parity included
            subsets = list(itertools.combinations(range(n), k))
        else:
            subsets = [
                data.draw(st.permutations(range(n)), label="survivors")[:k]
                for _ in range(4)
            ]
        for subset in subsets:
            survivors = {i: fragments[i] for i in subset}
            assert codec.decode(survivors, size) == chunk
            lost = [i for i in range(n) if i not in survivors]
            assert codec.rebuild(survivors, lost) == {i: expected[i] for i in lost}


class TestFragmentFraming:
    def test_pack_unpack_roundtrip(self):
        payload = b"fragment payload" * 4
        blob = pack_fragment(3, 4, 2, 1000, payload)
        assert len(blob) == FRAGMENT_HEADER_SIZE + len(payload)
        rec = unpack_fragment(blob)
        assert (rec.index, rec.k, rec.m, rec.chunk_len) == (3, 4, 2, 1000)
        assert rec.payload == payload
        assert not rec.is_parity
        assert unpack_fragment(pack_fragment(5, 4, 2, 1000, payload)).is_parity

    def test_corrupt_payload_detected(self):
        blob = bytearray(pack_fragment(0, 4, 2, 64, b"p" * 64))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptFragmentError):
            unpack_fragment(bytes(blob))

    def test_corrupt_header_detected(self):
        blob = bytearray(pack_fragment(0, 4, 2, 64, b"p" * 64))
        blob[0] ^= 0xFF  # magic
        with pytest.raises(FragmentFormatError):
            unpack_fragment(bytes(blob))
        with pytest.raises(FragmentFormatError):
            unpack_fragment(b"short")

    def test_v1_records_still_verify(self):
        """Disks written before the digest covered the header hold
        ``ECF1`` records (digest over the payload only): they read under
        the old rule, and their payload is still checked."""
        payload = b"old payload" * 9
        blob = struct.pack(
            "!4sBBBxQ32s", b"ECF1", 5, 4, 2, 300, chunk_hash(payload)
        ) + payload
        rec = unpack_fragment(blob)
        assert (rec.index, rec.k, rec.m, rec.chunk_len) == (5, 4, 2, 300)
        assert rec.payload == payload
        with pytest.raises(CorruptFragmentError):
            unpack_fragment(blob[:-1] + b"!")


# ----------------------------------------------------------------------
# cluster: EC placement end to end
# ----------------------------------------------------------------------


class TestECCluster:
    def test_roundtrip_and_overhead(self):
        cluster = make_ec_cluster()
        ds, blob = populate(cluster, 60)
        assert cluster.restore("snap") == blob
        assert all(cluster.has_chunk(d) for d in ds)
        # ~(k+m)/k plus per-fragment framing, strictly below 2x.
        overhead = cluster.stored_bytes / cluster.unique_bytes
        assert 1.5 <= overhead < 2.0

    def test_fragments_on_distinct_nodes(self):
        cluster = make_ec_cluster()
        data = b"spread me" * 100
        d = chunk_hash(data)
        cluster.put_chunk(d, data)
        holders = [n for n in cluster.nodes.values() if n.holds(d)]
        assert len(holders) == 6  # k + m distinct shards
        seen = set()
        for node in holders:
            rec = node.get_fragment(d)
            assert rec.index not in seen
            seen.add(rec.index)
            assert len(rec.payload) < len(data)  # a slice, not a copy

    def test_dedup_put_is_a_hit(self):
        cluster = make_ec_cluster()
        data = b"dedup" * 50
        d = chunk_hash(data)
        assert cluster.put_chunk(d, data)
        before = cluster.stored_bytes
        assert not cluster.put_chunk(d, data)  # second put dedups
        assert cluster.stored_bytes == before

    def test_has_chunk_false_below_k_fragments(self):
        """Fewer than k surviving fragments cannot reconstruct; a dedup
        hit on them would silently lose the chunk."""
        cluster = make_ec_cluster()
        data = b"partial" * 40
        d = chunk_hash(data)
        cluster.put_chunk(d, data)
        holders = [n for n in cluster.nodes.values() if n.holds(d)]
        for node in holders[: len(holders) - 3]:  # leave 3 < k = 4
            node.delete_chunk(d)
        assert not cluster.has_chunk(d)
        # A fresh put re-places the chunk to full strength.
        assert cluster.put_chunk(d, data)
        assert cluster.has_chunk(d)
        assert cluster.get_chunk(d) == data

    def test_degraded_reads_after_two_node_loss(self):
        """EC(4, 2): any 2 dead nodes leave every chunk decodable
        through parity, byte-exact, without repair."""
        cluster = make_ec_cluster()
        _, blob = populate(cluster, 60)
        cluster.fail_node("node-1")
        cluster.fail_node("node-4")
        assert cluster.restore("snap") == blob
        assert cluster.stats.ec_parity_decodes > 0

    def test_three_node_loss_exceeds_tolerance(self):
        """m = 2 tolerates exactly 2 losses; a third strands chunks
        below k fragments and repair reports them unrecoverable."""
        cluster = make_ec_cluster()
        populate(cluster, 60)
        for nid in ("node-0", "node-2", "node-5"):
            cluster.fail_node(nid)
        assert not cluster.repair().healthy

    def test_repair_ships_only_rebuilt_fragments(self):
        """Repair traffic is fragment-size, not chunk-size: strictly
        below re-copying every affected chunk whole."""
        cluster = make_ec_cluster()
        ds, blob = populate(cluster, 60)
        affected = [
            d for d in ds if "node-2" in cluster.scheme.nodes_for(cluster.ring, d)
        ]
        assert affected
        cluster.fail_node("node-2")
        rep = cluster.repair()
        assert rep.healthy
        assert 0 < rep.bytes_copied < 800 * len(affected)  # chunks are 800 B
        assert cluster.restore("snap") == blob

    def test_gc_reclaims_fragments(self):
        cluster = make_ec_cluster()
        keep_ds, keep_blob = populate(cluster, 30, "keep")
        drop_ds, _ = populate(cluster, 20, "drop")
        cluster.delete_recipe("drop")
        assert cluster.garbage_collect() > 0
        assert all(not cluster.has_chunk(d) for d in drop_ds if d not in keep_ds)
        assert cluster.restore("keep") == keep_blob

    def test_decommission_and_rebalance(self):
        cluster = make_ec_cluster(n_nodes=9)
        _, blob = populate(cluster, 50)
        cluster.decommission("node-3")
        assert cluster.restore("snap") == blob
        cluster.add_node()
        cluster.rebalance()
        assert cluster.restore("snap") == blob

    def test_decommission_below_k_plus_m_rejected(self):
        cluster = make_ec_cluster(n_nodes=6)
        populate(cluster, 10)
        with pytest.raises(ValueError):
            cluster.decommission("node-0")

    @pytest.mark.parametrize(
        "offset, flip",
        [(offset, flip) for offset in range(16) for flip in (0x01, 0xFF)]
        + [(3, 0x03)],  # the magic, rewritten as the v1 magic
    )
    def test_flipped_header_byte_is_caught_and_healed(self, offset, flip):
        """Any of the 16 header bytes ahead of the digest (magic, index,
        k, m, pad, chunk_len): the record's digest used to cover the
        payload only, so position 0 rewritten as ``index`` 1 was served
        as data — 4000 wrong bytes, no error — and scrub called the
        store healthy."""
        cluster = make_ec_cluster(fault_plan=None)
        data = random.Random(offset).randbytes(4000)
        digest = chunk_hash(data)
        cluster.put_chunk(digest, data)
        node = cluster.nodes[cluster.scheme.nodes_for(cluster.ring, digest)[0]]
        (record,) = node.backend.get_batch([digest])
        rotten = bytearray(record)
        rotten[offset] ^= flip
        node.backend.delete_batch([digest])
        node.backend.put_batch([(digest, bytes(rotten))])

        assert cluster.get_chunk(digest) == data  # rebuilt from the rest
        assert cluster.stats.corrupt_reads == 1
        report = cluster.scrub()
        assert (report.corrupt, report.repaired, report.unrepaired) == (1, 1, 0)
        assert node.backend.get_batch([digest]) == [record]
        assert cluster.scrub().corrupt == 0

    def test_make_scheme_ec(self):
        scheme = make_scheme("ec", ec_k=6, ec_m=3)
        assert isinstance(scheme, ErasureCodedPlacement)
        assert (scheme.k, scheme.m) == (6, 3)
        assert scheme.copies == 9 and scheme.min_fragments == 6

    def test_persistence_across_reopen(self, tmp_path):
        root = tmp_path / "ec"
        with make_ec_cluster(backend="disk", data_dir=root) as cluster:
            _, blob = populate(cluster, 30)
        with make_ec_cluster(backend="disk", data_dir=root) as reopened:
            assert reopened.restore("snap") == blob


class TestAttemptBudgets:
    def test_defaults_follow_class_constants(self):
        cluster = ChunkStoreCluster(n_nodes=2)
        assert cluster.read_attempts == ChunkStoreCluster.READ_ATTEMPTS
        assert cluster.put_attempts == ChunkStoreCluster.PUT_ATTEMPTS

    def test_constructor_overrides(self):
        cluster = ChunkStoreCluster(n_nodes=2, read_attempts=5, put_attempts=1)
        assert cluster.read_attempts == 5
        assert cluster.put_attempts == 1

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            ChunkStoreCluster(n_nodes=2, read_attempts=0)
        with pytest.raises(ValueError):
            ChunkStoreCluster(n_nodes=2, put_attempts=0)
        with pytest.raises(ValueError):
            BackupConfig(store_backend="cluster", read_attempts=0)

    def test_backup_config_pass_through(self):
        server = BackupServer(
            BackupConfig(
                store_backend="cluster", read_attempts=4, put_attempts=3
            )
        )
        try:
            assert server.cluster.read_attempts == 4
            assert server.cluster.put_attempts == 3
        finally:
            server.close()


class TestBackupServerEC:
    def test_end_to_end_with_two_mid_stream_kills(self):
        """Full backup pipeline on EC(4, 2): two nodes die between
        snapshots; later backups and every restore stay byte-exact."""
        image = MasterImage(size=2 << 20, segment_size=32 * 1024, seed=17)
        table = SimilarityTable.uniform(0.2, image.n_segments)
        snapshots = [("master", image.data), ("gen1", image.snapshot(table, 1))]
        server = BackupServer(
            BackupConfig(
                store_backend="cluster",
                cluster_nodes=8,
                placement="ec",
                ec_k=4,
                ec_m=2,
            )
        )
        try:
            server.backup_snapshot(snapshots[0][1], snapshots[0][0])
            server.cluster.fail_node("node-0")
            server.cluster.fail_node("node-6")
            server.backup_snapshot(snapshots[1][1], snapshots[1][0])
            for snapshot_id, data in snapshots:
                assert server.agent.restore(snapshot_id) == data
        finally:
            server.close()
