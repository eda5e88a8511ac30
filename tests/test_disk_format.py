"""On-disk compatibility, held by a fixture.

``tests/data/store_v1`` is an 8-node EC(4+2) disk cluster holding one
6400-byte snapshot, written and cleanly closed by commit 45fe2ff — the
formats PR 5 introduced: ``RRUN1`` run files (a serialized Bloom filter
between header and entries) and ``ECF1`` fragment records (digest over
the payload only).  Every later format change must keep opening it; the
CI step "Disk and wire format goldens" scrubs the same directory through
the CLI.

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
#: run files shows up here.
GOLDEN_WRITTEN = {
    "node-0/chunks.log": "f40860d2815be8aa1f1a451d7df9baa9d3413723161bd4abd2e1361281b79c10",
    "node-0/run-00000001.run": "16f48e68deff1dd5ddb74ed17c77cfc74be686b4a9e4208c2e423e83026dab86",
    "node-1/chunks.log": "87f90f2b2c424606cba4fc12b9526db1121ca896ea7920af50d2cd1d7f20281c",
    "node-1/run-00000001.run": "918c4824975f45119bc4d08de5b4e8aaa2f7252ab40479448c089df8d233adb8",
    "node-2/chunks.log": "96a72de269dec9fdfb8a037bf1718c07955f4cb412bcd839befd86af414f732c",
    "node-2/run-00000001.run": "e87bb6b69194b7a45180f26456831dd843e7e51e116916f5f83055d1e8086043",
    "node-3/chunks.log": "a2d5bf4aa46e7d3c792f32cd086dd9ff5e3e92072de2c51ce6a702b3681701f4",
    "node-3/run-00000001.run": "6ff6fee983deaf8aab71f8fa060935412dc682bab23df12fcf994f38f2483213",
    "node-4/chunks.log": "1c263d37c3e85c38b93b89199175774ca6ded43a7069ccff6ae15d3ac0a377b3",
    "node-4/run-00000001.run": "6323e3b8fda831c7493995bcd58d024e40ba54a260c0688d3796f9f9c39c894b",
    "node-5/chunks.log": "3a2f5420be814787889e48a888401d6a538adc918ea067ff6ff510e2c73651e2",
    "node-5/run-00000001.run": "65d65d544039d3aa0844a3f5117816643edf04962004342e968c4ea11f55cdd2",
    "node-6/chunks.log": "40a3cc9a1a1d5d8dc0439239b752e286e0c49eab3eaae14bc8cff5b40d268661",
    "node-6/run-00000001.run": "c49db31a80c7e8ec42ff48c916960fe024f0bc65b2a57fbbc441f7deed9dc0a2",
    "node-7/chunks.log": "2130eddf379ed1d9bfd59b4ebf8e4233bff425e138ad45a51c2c05bfb6948792",
    "node-7/run-00000001.run": "ca6c4c093aef5fa1e1741c31fe3cab827e74e55e26f5103d3d71c0f872f522e3",
    "recipes/chunks.log": "e500c07a723fbfbfaf36638766f17c795e0d9d9854b5272ff0506c9e8a305ed4",
    "recipes/run-00000001.run": "83ef6da73292925097010a9f78f0f779b0673b79452cc6aa88c69d673bbf66d2",
}
GOLDEN_COLLECTED = {
    "node-0/chunks.log": "a15fcc62a65c4e253d48b3c9c40406ed67f2139216e2806e534816fd7d6a97c1",
    "node-0/run-00000002.run": "7f1cc7dcf18930816dee2a7a005fc626a45125eb92a7edf9a7188fdc0801e2ef",
    "node-1/chunks.log": "03d60bdadf263d83ebc4c99b7f37e8ac85627a46af30834ef7d92f30d639002b",
    "node-1/run-00000002.run": "f00d0762a0ea0f0c0854a4395ca4a74b9147c2459f8ac0a9adf74db21898de7d",
    "node-2/chunks.log": "133a7dbae0d0c19d6cd63586ac703ac52f92f0fb6e297b57f1c139c755091334",
    "node-2/run-00000002.run": "f3b64dd148943c40e375e5f82642458f2632778dbed1b74b06d39294bf5e2521",
    "node-3/chunks.log": "7cbeb6945edb714dc9323994f6e62bf355d2f5fe32c8134275f2b2bf1bb3c00e",
    "node-3/run-00000002.run": "07e609b9a7a6f96524767aae7ed1397bb95c195218d0ea3fa149d27318303fda",
    "node-4/chunks.log": "f4d4467712dc133fc2a065edde140eef65bcdfb68dba9e3e087c07effde7cf4d",
    "node-4/run-00000002.run": "a4854f122937b3eb5f02262ad1bb503772f881bc07ebb1e3e87f9d8890c733a0",
    "node-5/chunks.log": "ea0aa50a15e94d1cd2c779a24deee9c41f4315afb4c2aae73895f28f642adebb",
    "node-5/run-00000002.run": "5e64e1f384899ddd87e1a7a6e965755f8dd345a879abc496ecae43a6e7d7e6f1",
    "node-6/chunks.log": "4988e747623a78cbd035c6b1771fbae23f7f2131f2cc2cf3d2c0057b8e3daf3b",
    "node-6/run-00000002.run": "77c577614617157ddb1c0e058ffef6e1475a6198f650c0788797ff5a4114a298",
    "node-7/chunks.log": "014b7a8908ed9174f2c312e708384453a395fc03e88c80eba4770e3444d636f3",
    "node-7/run-00000002.run": "e7064ba9e3ba3e7f33bc2b1f3f0d5a31e03198535e61de8deb85da931795be1a",
    "recipes/chunks.log": "e500c07a723fbfbfaf36638766f17c795e0d9d9854b5272ff0506c9e8a305ed4",
    "recipes/run-00000001.run": "83ef6da73292925097010a9f78f0f779b0673b79452cc6aa88c69d673bbf66d2",
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
    """The run-file magics and fragment-record magics under ``root``."""
    runs = {path.read_bytes()[:6] for path in root.glob("*/run-*.run")}
    with open_cluster(root) as cluster:
        records = {
            record[:4]
            for node in cluster.nodes.values()
            for record in node.get_chunks(node.digests())
        }
    return runs, records


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

    # Old and new runs, old and new records, side by side.
    assert formats(root) == ({b"RRUN1\n", b"RRUN2\n"}, {b"ECF1", b"ECF2"})
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
