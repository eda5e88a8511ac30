"""On-disk compatibility, held by a fixture.

``tests/data/store_v1`` is an 8-node EC(4+2) disk cluster holding one
6400-byte snapshot, written and cleanly closed by commit 45fe2ff — the
formats PR 5 introduced: ``RRUN1`` run files (a serialized Bloom filter
between header and entries) and ``ECF1`` fragment records (digest over
the payload only).  Every later format change must keep opening it; the
CI step "Disk format compatibility" scrubs the same directory through
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

import shutil
from pathlib import Path

from repro.backup import SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.store import ChunkStoreCluster, ErasureCodedPlacement

FIXTURE = Path(__file__).parent / "data" / "store_v1"
DATA = b"".join(chunk_hash(b"store_v1-%d" % i) for i in range(200))


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
