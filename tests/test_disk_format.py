"""On-disk compatibility, held by a fixture.

``tests/data/store_v1`` is an 8-node EC(4+2) disk cluster holding one
6400-byte snapshot, written and cleanly closed by commit 45fe2ff — the
formats PR 5 introduced: ``RRUN1`` run files (a serialized Bloom filter
between header and entries) and ``ECF1`` fragment records (digest over
the payload only).  Every later format change must keep opening it; the
CI step "Disk and wire format goldens" scrubs the same directory through
the CLI.  Open deletes its run files and rebuilds the index from the
log alone.

It was generated by running, on that commit::

    data = b"".join(chunk_hash(b"store_v1-%d" % i) for i in range(200))
    chunks = [data[a:b] for a, b in pairwise((0, 1500, 2200, 4400, 4401, 6400))]
    with ChunkStoreCluster(n_nodes=8, scheme=ErasureCodedPlacement(4, 2),
                           backend="disk", data_dir="tests/data/store_v1",
                           fault_plan=None) as cluster:
        digests = tuple(chunk_hash(c) for c in chunks)
        cluster.put_chunks(list(zip(digests, chunks)))
        cluster.put_recipe(SnapshotRecipe("v1", digests, len(data)))
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from repro.backup import SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.store import ChunkStoreCluster, ErasureCodedPlacement

FIXTURE = Path(__file__).parent / "data" / "store_v1"
DATA = b"".join(chunk_hash(b"store_v1-%d" % i) for i in range(200))

#: SHA-256 of every file an 8-node EC(4+2) disk cluster leaves behind
#: after ``golden_chunks`` is written (two overlapping snapshots, the
#: first recipe deleted) and closed — then again after a reopen, GC and
#: close.  Recorded before the fragment write path was rewritten for
#: speed; any change to fragment framing, parity bytes, log records or
#: checkpoint files shows up here.
GOLDEN_WRITTEN = {
    "node-0/chunks.log": "f40860d2815be8aa1f1a451d7df9baa9d3413723161bd4abd2e1361281b79c10",
    "node-0/keydir.ckpt": "ab998cc103f4372b9e75a73f3c0829201275b814a4c63d728130b9be2fabd00e",
    "node-1/chunks.log": "87f90f2b2c424606cba4fc12b9526db1121ca896ea7920af50d2cd1d7f20281c",
    "node-1/keydir.ckpt": "e4da7f797f4de2b686002e31c77e1863dcc199f7b086fd461861fae8fd538d9b",
    "node-2/chunks.log": "96a72de269dec9fdfb8a037bf1718c07955f4cb412bcd839befd86af414f732c",
    "node-2/keydir.ckpt": "ad900ac5feeffb9b3be610b47935d9ee082dd0ddb8a4824148fea8ccb6a0aefd",
    "node-3/chunks.log": "a2d5bf4aa46e7d3c792f32cd086dd9ff5e3e92072de2c51ce6a702b3681701f4",
    "node-3/keydir.ckpt": "da42869579eac7c50d6c1d24d1dda6565febff6fe3b2b4f9e15b999d4a853316",
    "node-4/chunks.log": "1c263d37c3e85c38b93b89199175774ca6ded43a7069ccff6ae15d3ac0a377b3",
    "node-4/keydir.ckpt": "f1bdd268bf70c63927816bba981fd52a93433ba68c78518b188d25b512301567",
    "node-5/chunks.log": "3a2f5420be814787889e48a888401d6a538adc918ea067ff6ff510e2c73651e2",
    "node-5/keydir.ckpt": "c0097167ed8209f6d1519cb9b7581b7a0f9ab69c15020c44f0ab73442d81e2c9",
    "node-6/chunks.log": "40a3cc9a1a1d5d8dc0439239b752e286e0c49eab3eaae14bc8cff5b40d268661",
    "node-6/keydir.ckpt": "c3bff8a023e7d9eef469862c279b52d3ad61b14d17dc22b74cd11ab8e116e6b8",
    "node-7/chunks.log": "2130eddf379ed1d9bfd59b4ebf8e4233bff425e138ad45a51c2c05bfb6948792",
    "node-7/keydir.ckpt": "f6b1e3fe45a87dc3ca30ace494411372755463b8ac88f5e7f1977592713faa7f",
    "recipes/chunks.log": "e500c07a723fbfbfaf36638766f17c795e0d9d9854b5272ff0506c9e8a305ed4",
    "recipes/keydir.ckpt": "e304f8a6588bb8aa7a534120593b117cb541f7f25349f4f31460f0be2a1f97fb",
}
GOLDEN_COLLECTED = {
    "node-0/chunks.log": "a15fcc62a65c4e253d48b3c9c40406ed67f2139216e2806e534816fd7d6a97c1",
    "node-0/keydir.ckpt": "e71d13f52463e532d40016e1e9e4647859076e8b951ce320c1e2b4f77ad6d4ee",
    "node-1/chunks.log": "03d60bdadf263d83ebc4c99b7f37e8ac85627a46af30834ef7d92f30d639002b",
    "node-1/keydir.ckpt": "a6bd4fc4521586eb7c4d19f132e2993f2463a8555c4eb492c4a4b7701709a439",
    "node-2/chunks.log": "133a7dbae0d0c19d6cd63586ac703ac52f92f0fb6e297b57f1c139c755091334",
    "node-2/keydir.ckpt": "55cec8a829e390953fdfc0fa97cf5339b46e1ee1ac19eb278a6c5f567bdc5070",
    "node-3/chunks.log": "7cbeb6945edb714dc9323994f6e62bf355d2f5fe32c8134275f2b2bf1bb3c00e",
    "node-3/keydir.ckpt": "344263f07cf56d7fa276c2ac30c26ee22e9e2da74c063826d948f51f3f38cf1a",
    "node-4/chunks.log": "f4d4467712dc133fc2a065edde140eef65bcdfb68dba9e3e087c07effde7cf4d",
    "node-4/keydir.ckpt": "c839c1a80d23bbc9a732e665a034391635c47d4da260f6e63836fa8f13d7cd5f",
    "node-5/chunks.log": "ea0aa50a15e94d1cd2c779a24deee9c41f4315afb4c2aae73895f28f642adebb",
    "node-5/keydir.ckpt": "82f1ef458cd69442591fd811ae3cfb1d93c15566c53b3ef09d7a5ed2cc7df48c",
    "node-6/chunks.log": "4988e747623a78cbd035c6b1771fbae23f7f2131f2cc2cf3d2c0057b8e3daf3b",
    "node-6/keydir.ckpt": "83f09e75e364a6288da060c9bf15d86a839f0986e3203753f7cfb2cab79b608b",
    "node-7/chunks.log": "014b7a8908ed9174f2c312e708384453a395fc03e88c80eba4770e3444d636f3",
    "node-7/keydir.ckpt": "64da8b89615909c08dd26f0b2d79f90cdc50092f15a2326570049e9308f04605",
    "recipes/chunks.log": "e500c07a723fbfbfaf36638766f17c795e0d9d9854b5272ff0506c9e8a305ed4",
    "recipes/keydir.ckpt": "e304f8a6588bb8aa7a534120593b117cb541f7f25349f4f31460f0be2a1f97fb",
}


def open_cluster(root: Path) -> ChunkStoreCluster:
    return ChunkStoreCluster(
        n_nodes=8,
        scheme=ErasureCodedPlacement(4, 2),
        backend="disk",
        data_dir=root,
        fault_plan=None,
        verify_reads=True,
    )


def formats(root: Path) -> tuple[set[bytes], set[bytes]]:
    """The index-file magics (runs, checkpoints) and fragment-record
    magics under ``root``."""
    indexes = {
        path.read_bytes()[:6]
        for pattern in ("*/run-*.run", "*/keydir.ckpt")
        for path in root.glob(pattern)
    }
    with open_cluster(root) as cluster:
        records = {
            record[:4]
            for node in cluster.nodes.values()
            for record in node.get_chunks(node.digests())
        }
    return indexes, records


def test_v1_store_opens_restores_and_takes_new_writes(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    assert formats(root) == ({b"RRUN1\n"}, {b"ECF1"})

    extra = b"written after the format change" * 40
    with open_cluster(root) as cluster:
        assert cluster.restore("v1") == DATA
        assert cluster.scrub().corrupt == 0
        old = cluster.get_recipe("v1").digests
        cluster.put_chunk(chunk_hash(extra), extra)
        cluster.put_recipe(
            SnapshotRecipe("v2", old + (chunk_hash(extra),), len(DATA) + len(extra))
        )

    # The runs gave way to checkpoints; old and new records side by side.
    assert formats(root) == ({b"RKEY1\n"}, {b"ECF1", b"ECF2"})
    with open_cluster(root) as cluster:
        assert cluster.restore("v1") == DATA
        assert cluster.restore("v2") == DATA + extra
        report = cluster.scrub()
        assert report.chunks_scanned == 36 and report.corrupt == 0


def golden_chunks(n: int = 300) -> list[bytes]:
    """``n`` distinct chunks of 1 B – 9 KB, from SHA-256 alone (stable
    across Python versions); the first five are 1–5 B, around ``k``."""
    chunks = []
    for i in range(n):
        size = i + 1 if i < 5 else 1 + int.from_bytes(
            hashlib.sha256(b"len-%d" % i).digest()[:2], "big"
        ) % 9000
        stream = b"".join(
            hashlib.sha256(b"chunk-%d-%d" % (i, j)).digest() for j in range(size // 32 + 1)
        )
        chunks.append(stream[:size])
    return chunks


def file_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_ec_cluster_bytes_on_disk_are_golden(tmp_path):
    chunks = golden_chunks()
    digests = [chunk_hash(c) for c in chunks]
    root = tmp_path / "golden"
    with open_cluster(root) as cluster:
        for name, picked in (("a", range(0, 200)), ("b", range(100, 300))):
            items = [(digests[i], chunks[i]) for i in picked]
            cluster.put_chunks(items)
            cluster.put_recipe(
                SnapshotRecipe(name, tuple(d for d, _ in items), sum(len(c) for _, c in items))
            )
        cluster.delete_recipe("a")
    assert file_digests(root) == GOLDEN_WRITTEN

    with open_cluster(root) as cluster:
        assert cluster.garbage_collect() > 0
        assert cluster.restore("b") == b"".join(chunks[100:300])
    assert file_digests(root) == GOLDEN_COLLECTED
