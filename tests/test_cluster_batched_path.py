"""The cluster's batched data path against a per-digest reference.

``has_chunks`` / ``lookup_batch`` / ``chunk_lengths`` walk placements one
position per round with every round's digests grouped per node.  The
reference here walks one digest at a time through the one-element node
calls; answers *and* every ``NodeStats`` / ``BatchLookupStats`` counter
must agree, in far fewer backend calls.  Also pinned: the agent sizes a
recipe without reading chunks back, the placement memo computes each
placement once per ring version and never serves a stale one, and the
write and read paths have no "do you have it?" pre-round.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.backup import ChunkStore, ShredderAgent
from repro.core.hashing import chunk_hash
from repro.store import ChunkStoreCluster, NodeDownError, make_scheme
from repro.store.lookup import BatchedLookup, BatchLookupStats, walk_positions
from repro.store.node import ProbeResult

PLACEMENTS = ("vanilla", "striped", "replicated", "ec")
BACKENDS = ("memory", "disk")
N_NODES = 8


def make_items(n: int, salt: bytes = b"") -> list[tuple[bytes, bytes]]:
    """``(digest, payload)`` pairs whose payload lengths all differ."""
    items = []
    for i in range(n):
        data = (salt + i.to_bytes(4, "big")) * (16 + i)
        items.append((chunk_hash(data), data))
    return items


def make_cluster(placement: str, backend: str, path, **kwargs) -> ChunkStoreCluster:
    kwargs.setdefault("batch_size", 16)
    return ChunkStoreCluster(
        n_nodes=N_NODES,
        scheme=make_scheme(placement),
        backend=backend,
        data_dir=path if backend == "disk" else None,
        fault_plan=None,  # isolate from REPRO_FAULTS
        **kwargs,
    )


# ----------------------------------------------------------------------
# the per-digest reference
# ----------------------------------------------------------------------


def ref_read_order(cluster, digest):
    """Placement targets (alive, in preference order), then every other
    alive node.  No node is suspect in these tests, so the erasure-coded
    data-then-parity order is the preference order itself."""
    placed = [
        cluster.nodes[nid]
        for nid in cluster.scheme.nodes_for(cluster.ring, digest)
        if cluster.nodes[nid].alive
    ]
    rest = [n for n in cluster.nodes.values() if n.alive and n not in placed]
    return placed + rest


def ref_has_chunk(cluster, digest) -> bool:
    need = cluster.scheme.min_fragments
    count = 0
    for node in ref_read_order(cluster, digest):
        if node.holds(digest):
            count += 1
            if count >= need:
                return True
    return False


def ref_chunk_length(cluster, digest) -> int | None:
    return len(cluster.get_chunk(digest)) if ref_has_chunk(cluster, digest) else None


def ref_lookup_batch(cluster, digests, batch_size):
    """One digest at a time down its placement: the walk the batched
    lookup must reproduce probe for probe."""
    need = cluster.scheme.min_fragments
    stats = BatchLookupStats()
    unique = list(dict.fromkeys(digests))
    stats.n_digests = len(unique)
    hit_map = {}
    for start in range(0, len(unique), batch_size):
        batch = unique[start : start + batch_size]
        stats.n_batches += 1
        placements = [cluster.scheme.nodes_for(cluster.ring, d) for d in batch]
        stats.n_node_batches += len({p[0] for p in placements})
        for digest, placement in zip(batch, placements):
            hits, probed, false_positive = 0, False, False
            for node_id in placement:
                node = cluster.nodes[node_id]
                if not node.alive:
                    continue
                result = node.probe(digest)
                probed = True
                stats.bloom_probes += 1
                if result is ProbeResult.HIT:
                    hits += 1
                    if hits >= need:
                        break
                elif result is ProbeResult.FALSE_POSITIVE:
                    false_positive = True
                    stats.index_walks += 1
            if not probed:
                raise NodeDownError("no alive replica")
            hit_map[digest] = hits >= need
            if hits >= need:
                stats.hits += 1
            elif hits:
                stats.index_walks += hits
                stats.false_positives += 1
            elif false_positive:
                stats.false_positives += 1
            else:
                stats.bloom_negatives += 1
    return hit_map, stats


# ----------------------------------------------------------------------
# differential: answers and counters
# ----------------------------------------------------------------------


def _healthy(cluster):
    pass


def _one_failed(cluster):
    cluster.fail_node("node-3")


def _two_failed(cluster):
    cluster.fail_node("node-3")
    cluster.fail_node("node-6")


def _mid_repair(cluster):
    # A node is lost and four join, and nothing has been repaired or
    # rebalanced yet: many placements now name nodes that hold nothing
    # while the copies survive off-placement.
    cluster.fail_node("node-1")
    cluster.add_node("node-8")
    cluster.add_node("node-9")
    cluster.add_node("node-10")
    cluster.add_node("node-11")


SCENARIOS = {
    "healthy": _healthy,
    "one-failed": _one_failed,
    "two-failed": _two_failed,
    "mid-repair": _mid_repair,
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_batched_answers_and_counters_match_per_digest_walk(
    placement, backend, scenario, tmp_path
):
    items = make_items(90)
    stored, absent = items[:60], items[60:]
    # Interleave present and absent digests, with repeats.
    probe = [d for pair in zip(stored, absent) for d, _ in pair]
    probe += [d for d, _ in stored[30:]] + probe[:10]

    clusters = []
    for name in ("batched", "reference"):
        cluster = make_cluster(placement, backend, tmp_path / name)
        cluster.put_chunks(stored)
        SCENARIOS[scenario](cluster)
        clusters.append(cluster)
    batched, reference = clusters
    try:
        want_has = [ref_has_chunk(reference, d) for d in probe]
        want_len = [ref_chunk_length(reference, d) for d in probe]
        assert batched.has_chunks(probe) == want_has
        assert batched.chunk_lengths(probe) == want_len
        assert [n is not None for n in want_len] == want_has
        by_digest = dict(stored)
        assert all(
            n is None or n == len(by_digest[d]) for d, n in zip(probe, want_len)
        )
        if placement == "ec":  # every scenario stays inside the parity budget
            assert all(has for d, has in zip(probe, want_has) if d in by_digest)

        hit_map, stats = batched.lookup_batch(probe)
        want_map, want_stats = ref_lookup_batch(reference, probe, batched.lookup.batch_size)
        assert hit_map == want_map
        assert stats == want_stats
        if scenario == "mid-repair":
            # The off-placement scan is what answers these: no longer
            # enough copies on the placement (a lookup miss), yet present.
            assert any(has and not hit_map[d] for d, has in zip(probe, want_has))
        for node_id, node in batched.nodes.items():
            assert asdict(node.stats) == asdict(reference.nodes[node_id].stats), node_id
    finally:
        for cluster in clusters:
            cluster.close()


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_presence_pass_groups_digests_per_node(placement, tmp_path):
    """One ``contains_batch`` per node per round, not one per digest."""
    cluster = make_cluster(placement, "memory", tmp_path, batch_size=64)
    items = make_items(128)
    cluster.put_chunks(items)
    digests = [d for d, _ in items]
    calls = []
    for node in cluster.nodes.values():
        backend = node.backend
        original = backend.contains_batch

        def spy(keys, original=original):
            calls.append(len(keys))
            return original(keys)

        backend.contains_batch = spy
    assert all(cluster.has_chunks(digests))
    rounds = cluster.scheme.min_fragments
    windows = len(digests) // 64
    assert len(calls) <= windows * rounds * N_NODES
    assert sum(calls) == len(digests) * rounds  # the same probes, regrouped
    calls.clear()
    hit_map, _ = cluster.lookup_batch(digests)
    assert all(hit_map.values())
    assert len(calls) <= windows * rounds * N_NODES
    assert sum(calls) == len(digests) * rounds
    cluster.close()


def test_walk_positions_order_and_early_exit():
    asked = []

    def ask(candidate, items):
        asked.append((candidate, tuple(items)))
        if candidate == "down":
            return None
        return [candidate in ("a", "b") for _ in items]

    orders = [("a", "b", "c"), ("c", "a", "b"), ("down", "c"), ()]
    assert walk_positions(orders, 2, ask) == [2, 2, 0, 0]
    assert asked == [
        ("a", (0,)), ("c", (1,)), ("down", (2,)),
        ("b", (0,)), ("a", (1,)), ("c", (2,)),
        ("b", (1,)),
    ]


# ----------------------------------------------------------------------
# no pre-rounds on the write and read paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_put_and_get_make_no_presence_round(placement, tmp_path):
    cluster = make_cluster(placement, "memory", tmp_path)
    probes = []
    for node in cluster.nodes.values():
        node.backend.contains_batch = lambda keys: probes.append(keys) or [False] * len(keys)
    items = make_items(20)
    assert cluster.put_chunks(items) == [True] * len(items)
    # Insert-if-absent puts already say the record was there.
    assert cluster.put_chunks(items) == [False] * len(items)
    for digest, data in items:
        assert cluster.get_chunk(digest) == data
    assert probes == []
    cluster.close()


def test_ec_put_counts_present_fragments_and_replaces_below_k(tmp_path):
    cluster = make_cluster("ec", "memory", tmp_path)
    (digest, data), = make_items(1)
    assert cluster.put_chunk(digest, data) is True
    holders = [n for n in cluster.nodes.values() if n.holds(digest)]
    assert len(holders) == 6
    # Three fragments lost: below k=4, so the chunk is not "known" and a
    # re-put tops the placement back up, counting the survivors.
    for node in holders[:3]:
        node.delete_chunk(digest)
    assert not cluster.has_chunk(digest)
    assert cluster.put_chunk(digest, data) is True
    assert sum(n.holds(digest) for n in cluster.nodes.values()) == 6
    assert cluster.put_chunk(digest, data) is False
    cluster.close()


# ----------------------------------------------------------------------
# the agent sizes a recipe without reading chunks back
# ----------------------------------------------------------------------


def _stores(tmp_path):
    yield "single-memory", ChunkStore()
    yield "single-disk", ChunkStore(backend="disk", data_dir=tmp_path / "single")
    for placement in PLACEMENTS:
        for backend in BACKENDS:
            yield f"{placement}-{backend}", make_cluster(
                placement, backend, tmp_path / f"{placement}-{backend}"
            )


def test_recipe_total_bytes_is_restore_length_and_finish_reads_nothing(
    tmp_path, monkeypatch
):
    items = make_items(48)
    first, second = items[:32], items[32:]
    for name, store in _stores(tmp_path):
        agent = ShredderAgent(store=store)
        agent.begin_snapshot("g0")
        agent.receive_chunks("g0", first)
        agent.finish_snapshot("g0")
        # g1 interleaves pointers (with repeats) and new chunks.
        agent.begin_snapshot("g1")
        agent.receive_pointers("g1", [d for d, _ in first[:10]])
        agent.receive_chunks("g1", second[:8])
        agent.receive_pointers("g1", [first[3][0], first[3][0], second[0][0]])
        agent.receive_chunks("g1", second[8:])
        agent.receive_pointers("g1", [d for d, _ in first[20:]])

        def no_reads(*_args, **_kwargs):
            raise AssertionError(f"{name}: finish_snapshot read a chunk")

        with monkeypatch.context() as patch:
            patch.setattr(store, "get_chunk", no_reads)
            for node in getattr(store, "nodes", {}).values():
                patch.setattr(node, "get_chunks", no_reads)
            log = agent.finish_snapshot("g1")
        assert log.pointers_received == 10 + 3 + 12
        for snapshot_id in ("g0", "g1"):
            recipe = store.get_recipe(snapshot_id)
            assert recipe.total_bytes == len(store.restore(snapshot_id)), name
        store.close()


def test_unknown_pointer_raises_the_same_key_error(tmp_path):
    items = make_items(4)
    for name, store in _stores(tmp_path):
        agent = ShredderAgent(store=store)
        agent.begin_snapshot("s")
        agent.receive_chunks("s", items[:2])
        with pytest.raises(KeyError, match="pointer to unknown chunk"):
            agent.receive_pointers("s", [items[0][0], items[3][0]])
        # Nothing of the refused batch entered the recipe.
        agent.finish_snapshot("s")
        assert store.get_recipe("s").digests == tuple(d for d, _ in items[:2]), name
        store.close()


def test_pointer_length_comes_from_a_verified_read_under_verify_reads(
    tmp_path, monkeypatch
):
    """With ``verify_reads`` a bare fragment header is not trusted."""

    def bare_header(_record):
        raise AssertionError("length taken from an unverified header")

    monkeypatch.setattr("repro.store.schemes.fragment_chunk_len", bare_header)
    cluster = make_cluster("ec", "memory", tmp_path, verify_reads=True)
    items = make_items(6)
    cluster.put_chunks(items)
    digests = [d for d, _ in items]
    full_reads = []
    original = cluster.get_chunk
    cluster.get_chunk = lambda d: full_reads.append(d) or original(d)
    assert cluster.chunk_lengths(digests) == [len(data) for _, data in items]
    assert sorted(full_reads) == sorted(digests)
    cluster.close()


# ----------------------------------------------------------------------
# placement memo
# ----------------------------------------------------------------------


def _count_placements(cluster, monkeypatch):
    calls = []
    original = cluster.scheme.nodes_for

    def counting(ring, digest):
        calls.append(digest)
        return original(ring, digest)

    monkeypatch.setattr(cluster.scheme, "nodes_for", counting)
    return calls


def _exercise(cluster, items):
    digests = [d for d, _ in items]
    cluster.put_chunks(items)
    cluster.lookup_batch(digests)
    assert all(cluster.has_chunks(digests))
    cluster.chunk_lengths(digests)
    for digest, data in items:
        assert cluster.get_chunk(digest) == data


def test_placement_computed_once_per_digest_per_ring_version(tmp_path, monkeypatch):
    cluster = make_cluster("ec", "memory", tmp_path)
    calls = _count_placements(cluster, monkeypatch)
    items = make_items(40)
    digests = {d for d, _ in items}
    _exercise(cluster, items)
    assert sorted(calls) == sorted(digests)  # exactly once each

    # Membership changed: a memoised placement would name the dead node.
    victim = cluster.lookup.placement(items[0][0])[0]
    calls.clear()
    cluster.fail_node(victim)
    _exercise(cluster, items)
    assert sorted(calls) == sorted(digests)
    assert all(victim not in cluster.lookup.placement(d) for d in digests)

    calls.clear()
    new = cluster.add_node()
    _exercise(cluster, items)
    assert sorted(calls) == sorted(digests)
    fresh = make_scheme("ec")
    assert any(new in cluster.lookup.placement(d) for d in digests)
    assert all(
        cluster.lookup.placement(d) == fresh.nodes_for(cluster.ring, d) for d in digests
    )
    cluster.close()


def test_placement_memo_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(BatchedLookup, "PLACEMENT_MEMO_MAX", 8)
    cluster = make_cluster("replicated", "memory", tmp_path)
    fresh = make_scheme("replicated")
    for digest, _ in make_items(50):
        assert cluster.lookup.placement(digest) == fresh.nodes_for(cluster.ring, digest)
        assert len(cluster.lookup._placements) <= 8
    cluster.close()
