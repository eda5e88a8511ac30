"""Tests for the self-healing cluster: failure detector, heartbeat,
auto-repair on detector-declared death, degraded reads, and repair
racing in-flight batched lookups."""

from __future__ import annotations


import pytest

from repro.core.hashing import chunk_hash
from repro.faults import FaultPlan, InjectedFault
from repro.store import ChunkStoreCluster, ReplicatedPlacement
from repro.store.health import FailureDetector, HealthPolicy, NodeState


def make_items(n: int, salt: bytes = b"") -> list[tuple[bytes, bytes]]:
    items = []
    for i in range(n):
        data = salt + i.to_bytes(4, "big") * 64
        items.append((chunk_hash(data), data))
    return items


def make_cluster(**kwargs) -> ChunkStoreCluster:
    kwargs.setdefault("n_nodes", 3)
    kwargs.setdefault("scheme", ReplicatedPlacement(2))
    kwargs.setdefault("fault_plan", None)  # isolate from REPRO_FAULTS
    return ChunkStoreCluster(**kwargs)


def put_with_replay(cluster, items, attempts: int = 5) -> None:
    """Store chunks the way a resilient client does: strict puts raise
    while the detector is still deciding, and the replay is a cheap
    content-addressed no-op for the copies that landed."""
    for digest, data in items:
        for _ in range(attempts):
            try:
                cluster.put_chunk(digest, data)
                break
            except InjectedFault:
                continue
        else:
            raise AssertionError(
                f"put of {digest.hex()[:16]} never succeeded"
            )


# ----------------------------------------------------------------------
# failure detector
# ----------------------------------------------------------------------


class TestFailureDetector:
    def test_escalation_ladder(self):
        det = FailureDetector(HealthPolicy(suspect_after=2, dead_after=4))
        assert det.observe("n", ok=False) is None
        assert det.observe("n", ok=False) is NodeState.SUSPECT
        assert det.observe("n", ok=False) is None
        assert det.observe("n", ok=False) is NodeState.DEAD
        assert det.state("n") is NodeState.DEAD

    def test_success_resets_error_run(self):
        det = FailureDetector(HealthPolicy(suspect_after=2, dead_after=4))
        det.observe("n", ok=False)
        det.observe("n", ok=False)
        assert det.state("n") is NodeState.SUSPECT
        assert det.observe("n", ok=True) is NodeState.ALIVE
        assert det.error_run("n") == 0
        # The ladder starts over.
        det.observe("n", ok=False)
        assert det.state("n") is NodeState.ALIVE

    def test_dead_is_sticky(self):
        det = FailureDetector(HealthPolicy(suspect_after=1, dead_after=2))
        det.observe("n", ok=False)
        det.observe("n", ok=False)
        assert det.state("n") is NodeState.DEAD
        assert det.observe("n", ok=True) is None
        assert det.state("n") is NodeState.DEAD
        det.forget("n")
        assert det.state("n") is NodeState.ALIVE

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after=0)
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after=4, dead_after=2)


# ----------------------------------------------------------------------
# detector-driven membership + auto-repair
# ----------------------------------------------------------------------


class TestSelfHealing:
    def test_kill_detected_and_auto_repaired(self):
        from repro.backup import SnapshotRecipe

        # Kill threshold far past the put traffic: the snapshot is fully
        # stored and its recipe recorded before node-1 dies, so the
        # auto-repair that fires on detector-declared death can re-copy
        # every chunk the recipe references.
        plan = FaultPlan.parse("seed=21,node.kill=node-1:5000")
        cluster = make_cluster(fault_plan=plan)
        items = make_items(60)
        put_with_replay(cluster, items)
        digests = tuple(d for d, _ in items)
        total = sum(len(data) for _, data in items)
        cluster.put_recipe(SnapshotRecipe("snap", digests, total_bytes=total))
        # Drive heartbeats until the kill threshold trips and the
        # detector declares the node dead from failed pings alone.
        for _ in range(6000):
            cluster.heartbeat()
            if not cluster.nodes["node-1"].alive:
                break
        assert not cluster.nodes["node-1"].alive
        assert cluster.stats.nodes_died == 1
        assert cluster.stats.repairs_auto >= 1
        for digest, data in items:
            assert cluster.get_chunk(digest) == data
        # Survivors hold everything at full replication.
        for digest, _ in items:
            holders = sum(
                1
                for node in cluster.nodes.values()
                if node.alive and node.has_chunk(digest)
            )
            assert holders == 2

    def test_heartbeat_alone_detects_death(self):
        plan = FaultPlan.parse("seed=22,node.kill=node-2:1")
        cluster = make_cluster(fault_plan=plan)
        states = None
        for _ in range(6):  # dead_after=4 consecutive failed pings
            states = cluster.heartbeat()
        assert states["node-2"] is NodeState.DEAD
        assert not cluster.nodes["node-2"].alive
        assert cluster.stats.heartbeats >= 6

    def test_explicit_fail_node_does_not_auto_repair(self):
        cluster = make_cluster()
        items = make_items(30)
        for digest, data in items:
            cluster.put_chunk(digest, data)
        cluster.fail_node("node-0")
        assert cluster.stats.repairs_auto == 0  # operator drives repair
        report = cluster.repair()
        assert report.healthy

    def test_degraded_read_falls_through_to_clean_replica(self):
        cluster = make_cluster(verify_reads=True)
        items = make_items(40)
        for digest, data in items:
            cluster.put_chunk(digest, data)
        # Corrupt every read from one node only: the other replica is
        # clean, so reads degrade instead of failing.
        plan = FaultPlan.parse("seed=23,backend.bit_flip=1.0")
        node = cluster.nodes["node-0"]
        node._backend = plan.wrap_backend(node._backend, "node-0")
        for digest, data in items:
            assert cluster.get_chunk(digest) == data
        assert cluster.stats.corrupt_reads > 0
        assert cluster.stats.degraded_reads > 0
        assert cluster.nodes["node-0"].stats.degraded_reads > 0

    def test_io_error_read_degrades(self):
        cluster = make_cluster()
        items = make_items(40)
        for digest, data in items:
            cluster.put_chunk(digest, data)
        plan = FaultPlan.parse("seed=24,backend.io_error=1.0")
        node = cluster.nodes["node-1"]
        node._backend = plan.wrap_backend(node._backend, "node-1")
        for digest, data in items:
            assert cluster.get_chunk(digest) == data
        assert cluster.stats.degraded_reads > 0

    def test_put_retries_transient_io_errors(self):
        cluster = make_cluster()
        # ~30% failure per op: with one retry per target the put path
        # should absorb every blip (P[two in a row] per target is small
        # but non-zero, hence the generous detector thresholds).
        plan = FaultPlan.parse("seed=25,backend.io_error=0.2")
        node = cluster.nodes["node-0"]
        node._backend = plan.wrap_backend(node._backend, "node-0")
        stored = 0
        for digest, data in make_items(50):
            try:
                cluster.put_chunk(digest, data)
                stored += 1
            except OSError:
                pass
        assert stored >= 45  # most writes survive injected errors
        assert plan.stats.io_errors > 0

    def test_health_snapshot_shape(self):
        cluster = make_cluster()
        snap = cluster.health_snapshot()
        assert snap["nodes_total"] == 3
        assert snap["nodes_alive"] == 3
        assert set(snap["nodes"]) == {"node-0", "node-1", "node-2"}
        for key in (
            "degraded_reads",
            "corrupt_reads",
            "nodes_died",
            "repairs_auto",
            "heartbeats",
        ):
            assert key in snap

    def test_recovery_rejoin_after_death(self):
        plan = FaultPlan.parse("seed=26,node.kill=node-1:30")
        cluster = make_cluster(fault_plan=plan)
        items = make_items(50)
        put_with_replay(cluster, items)
        assert not cluster.nodes["node-1"].alive
        # Rejoin under a fresh id (the detector forgets it on add) and
        # rebalance the ring back to 3 members.
        cluster.add_node("node-3")
        cluster.rebalance()
        cluster.repair()
        for digest, data in items:
            assert cluster.get_chunk(digest) == data


# ----------------------------------------------------------------------
# repair racing in-flight batched lookups
# ----------------------------------------------------------------------


class TestRepairVsLookup:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_repair_during_inflight_lookup(self, backend, tmp_path):
        """repair() interleaving with an in-flight lookup stays correct.

        The batched lookup reports every node sub-batch to its
        ``on_probe`` observer; driving repair() from there runs it
        between two node calls of one lookup, the same interleaving a
        detector-triggered auto-repair produces on a live server.
        """
        kwargs = {"backend": backend}
        if backend == "disk":
            kwargs["data_dir"] = tmp_path / "cluster"
        cluster = make_cluster(batch_size=8, **kwargs)
        items = make_items(64)
        for digest, data in items:
            cluster.put_chunk(digest, data)
        cluster.fail_node("node-2")
        digests = [d for d, _ in items]

        reports = []
        observe = cluster.lookup.on_probe

        def repair_once(node_id, ok):
            observe(node_id, ok)
            if not reports:
                reports.append(None)  # claim the slot: repair() probes too
                reports[0] = cluster.repair()

        cluster.lookup.on_probe = repair_once
        hit_map, stats = cluster.lookup.lookup_batch(digests)
        cluster.lookup.on_probe = observe
        (report,) = reports
        assert report.healthy
        assert all(hit_map[d] for d in digests)
        assert stats.n_digests == len(digests)
        # And a fresh lookup after the repair sees everything too.
        hit_map2, _ = cluster.lookup.lookup_batch(digests)
        assert all(hit_map2[d] for d in digests)
        cluster.close()

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_lookup_during_repair_of_killed_node(self, backend, tmp_path):
        """Detector-killed node mid-lookup: surviving replicas answer."""
        kwargs = {"backend": backend}
        if backend == "disk":
            kwargs["data_dir"] = tmp_path / "cluster"
        plan = FaultPlan.parse("seed=27,node.kill=node-0:200")
        cluster = make_cluster(batch_size=8, fault_plan=plan, **kwargs)
        items = make_items(64)
        for digest, data in items:
            cluster.put_chunk(digest, data)
        digests = [d for d, _ in items]
        # Keep probing until the kill threshold trips mid-stream.
        hit_map = None
        for _ in range(8):
            hit_map, stats = cluster.lookup.lookup_batch(digests)
            if not cluster.nodes["node-0"].alive:
                break
        assert not cluster.nodes["node-0"].alive
        assert hit_map is not None and all(hit_map[d] for d in digests)
        cluster.close()
