"""The cluster's batched write path.

``put_chunks`` writes one ``batch_size`` window at a time: one
``scheme.encode`` of the window's chunks and one ``scheme.write`` (one
backend ``put_batch``) per node.  Pinned here, for erasure coding and
replication on both backends:

* the batched put leaves the same insert flags and byte-identical
  per-node storage as one chunk at a time — an in-window repeat, an
  already-stored digest, an empty chunk and a window edge included;
* the call shape: one encode per window, one ``put_batch`` per node per
  window;
* a torn multi-record write is retried, and every chunk restores;
* a node killed mid-window raises only after the window's other nodes
  are written, and the chunks restore after ``repair()``;
* chunks left short by targets that died mid-window are placed again
  on the shrunken ring, never acked on fewer than ``k`` distinct
  fragments.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.backup import SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.faults import FaultPlan
from repro.store import ChunkStoreCluster, make_scheme
from repro.store.erasure import ReedSolomonCodec, unpack_fragment
from repro.store.health import HealthPolicy

SCHEMES = ("ec", "replicated")
BACKENDS = ("memory", "disk")
N_NODES = 8
WINDOW = 128


def make_items(n: int, salt: bytes = b"") -> list[tuple[bytes, bytes]]:
    """``(digest, payload)`` pairs of differing lengths, most not a
    multiple of ``k``."""
    items = []
    for i in range(n):
        data = (salt + i.to_bytes(4, "big")) * (3 + i % 29) + bytes(i % 3)
        items.append((chunk_hash(data), data))
    return items


def make_cluster(scheme: str, backend: str, path: Path, **kwargs) -> ChunkStoreCluster:
    kwargs.setdefault("fault_plan", None)  # isolate from REPRO_FAULTS
    return ChunkStoreCluster(
        n_nodes=N_NODES,
        scheme=make_scheme(scheme),
        backend=backend,
        data_dir=path if backend == "disk" else None,
        **kwargs,
    )


def stored(cluster: ChunkStoreCluster, root: Path | None) -> dict[str, object]:
    """Each node's storage: its ``chunks.log`` bytes on disk, its
    records in insertion order in memory."""
    if root is not None:
        cluster.flush()
        return {nid: (root / nid / "chunks.log").read_bytes() for nid in cluster.nodes}
    return {
        nid: [(key, node.backend.get_batch([key])[0]) for key in node.backend.keys()]
        for nid, node in cluster.nodes.items()
    }


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Record the batch length of every call to ``owner.name``."""
    calls: list[int] = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(len(args[-1]))
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


# ----------------------------------------------------------------------
# one put_chunks call == one chunk at a time
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_put_matches_chunk_at_a_time(scheme, backend, tmp_path):
    items = make_items(WINDOW + 6)
    empty = (chunk_hash(b""), b"")
    known = items[40]
    # An empty chunk, an in-window repeat, a repeat across the window
    # edge, and a digest stored before the batch.
    batch = items[:10] + [empty, items[3]] + items[10:] + [items[5], known]
    assert len(batch) > WINDOW
    flags = {}
    logs = {}
    for how in ("batched", "single"):
        root = tmp_path / how
        cluster = make_cluster(scheme, backend, root)
        assert cluster.put_chunk(*known) is True
        if how == "batched":
            flags[how] = cluster.put_chunks(batch)
        else:
            flags[how] = [cluster.put_chunk(d, data) for d, data in batch]
        logs[how] = stored(cluster, root if backend == "disk" else None)
        for digest, data in batch:
            assert cluster.get_chunk(digest) == data
        cluster.close()
    assert flags["batched"] == flags["single"]
    repeats = {11, len(batch) - 2}
    assert flags["batched"] == [
        i not in repeats and digest != known[0] for i, (digest, _) in enumerate(batch)
    ]
    assert logs["batched"] == logs["single"]
    assert any(logs["batched"].values())


# ----------------------------------------------------------------------
# call shape
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_encode_per_window_and_one_put_batch_per_node(
    scheme, backend, tmp_path, monkeypatch
):
    cluster = make_cluster(scheme, backend, tmp_path)
    items = make_items(2 * WINDOW + 1)
    encodes = count_calls(monkeypatch, cluster.scheme, "encode")
    codec_encodes = count_calls(monkeypatch, ReedSolomonCodec, "encode")
    puts = {
        nid: count_calls(monkeypatch, node.backend, "put_batch")
        for nid, node in cluster.nodes.items()
    }
    assert all(cluster.put_chunks(items))
    windows = [items[i : i + WINDOW] for i in range(0, len(items), WINDOW)]
    assert encodes == [len(window) for window in windows]
    assert codec_encodes == (encodes if scheme == "ec" else [])
    copies = cluster.scheme.copies
    for nid, calls in puts.items():
        expected = [
            sum(nid in cluster.placement(d) for d, _ in window) for window in windows
        ]
        # One call per window that places anything on the node, carrying
        # every item the window places there.
        assert calls == [n for n in expected if n], nid
    assert sum(map(sum, puts.values())) == copies * len(items)
    cluster.close()


# ----------------------------------------------------------------------
# faults inside a window
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_torn_node_batch_is_retried_and_every_chunk_restores(scheme, backend, tmp_path):
    plan = FaultPlan.parse("seed=7,backend.torn_write=0.5")
    cluster = make_cluster(scheme, backend, tmp_path, fault_plan=plan, put_attempts=6)
    items = make_items(WINDOW + 40)
    cluster.put_chunks(items)
    assert plan.stats.torn_writes > 0
    digests = tuple(d for d, _ in items)
    cluster.put_recipe(SnapshotRecipe("s", digests, sum(len(x) for _, x in items)))
    assert cluster.restore("s") == b"".join(data for _, data in items)
    # The retries landed each record once: insert-if-absent.
    for nid, node in cluster.nodes.items():
        assert node.backend.stats.puts == len(node.backend) == sum(
            nid in cluster.placement(d) for d in digests
        )
    cluster.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_node_killed_mid_window_raises_after_the_other_nodes(scheme, backend, tmp_path):
    # node-3 dies at its 10th key: inside its first window's batch.
    plan = FaultPlan.parse("seed=1,node.kill=node-3:10")
    cluster = make_cluster(scheme, backend, tmp_path, fault_plan=plan)
    items = make_items(WINDOW + 1)
    window = items[:WINDOW]
    assert sum("node-3" in cluster.placement(d) for d, _ in window) > 10
    with pytest.raises(OSError, match="node-3"):
        cluster.put_chunks(items)
    assert plan.stats.kills == 1
    for nid, node in cluster.nodes.items():
        if nid != "node-3":
            placed = [d for d, _ in window if nid in cluster.placement(d)]
            assert all(node.holds_batch(placed)), nid
    digests = tuple(d for d, _ in window)
    cluster.put_recipe(SnapshotRecipe("s", digests, sum(len(x) for _, x in window)))
    assert cluster.repair().healthy
    assert not cluster.nodes["node-3"].alive
    assert cluster.restore("s") == b"".join(data for _, data in window)
    cluster.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_chunks_short_of_min_fragments_are_placed_again(backend, tmp_path, monkeypatch):
    # Three of eight nodes die at their first key, each declared dead on
    # its first error: an EC(4+2) chunk placed on all three lands only
    # three fragments in its window and must be placed again.
    plan = FaultPlan.parse("node.kill=node-1:1,node.kill=node-4:1,node.kill=node-6:1")
    cluster = make_cluster(
        "ec", backend, tmp_path, fault_plan=plan, put_attempts=1,
        health=HealthPolicy(suspect_after=1, dead_after=1),
    )
    items = make_items(WINDOW)
    dead = {"node-1", "node-4", "node-6"}
    doomed = [d for d, _ in items if dead <= set(cluster.placement(d))]
    assert doomed
    encodes = count_calls(monkeypatch, cluster.scheme, "encode")
    assert cluster.put_chunks(items) == [True] * len(items)
    assert encodes[0] == WINDOW and sum(encodes[1:]) >= len(doomed)
    assert cluster.n_nodes_alive == N_NODES - len(dead)
    for digest, data in items:
        assert cluster.get_chunk(digest) == data
    cluster.close()


def test_placed_again_chunk_is_never_acked_short_of_k_distinct_fragments():
    """Every way three of a chunk's six EC(4+2) targets can die during
    its put: the survivors keep the indices they landed, and placing
    the chunk again must not give a new target an index a survivor
    already holds (an ack on fewer than ``k`` distinct fragments)."""
    ((digest, data),) = make_items(1, salt=b"again")
    probe = make_cluster("ec", "memory", None)
    for dead in itertools.combinations(probe.placement(digest), 3):
        plan = FaultPlan.parse(",".join(f"node.kill={nid}:1" for nid in dead))
        cluster = make_cluster(
            "ec", "memory", None, fault_plan=plan, put_attempts=1,
            health=HealthPolicy(suspect_after=1, dead_after=1),
        )
        assert cluster.put_chunk(digest, data) is True
        assert cluster.get_chunk(digest) == data, dead
        records = [
            node.get_chunks([digest])[0] for node in cluster.nodes.values() if node.alive
        ]
        indices = {unpack_fragment(r).index for r in records if r is not None}
        assert len(indices) >= cluster.scheme.min_fragments, dead
