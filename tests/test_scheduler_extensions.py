"""Tests for the affinity scheduler, alone and driving Incoop."""

from __future__ import annotations

import pytest

from repro.core.shredder import Shredder, ShredderConfig
from repro.mapreduce.scheduler import AffinityScheduler


class TestAffinityScheduler:
    def test_first_run_all_remote(self):
        sched = AffinityScheduler(nodes=4, slots_per_node=1)
        outcome = sched.schedule([(f"t{i}", 1.0) for i in range(8)])
        assert outcome.remote_tasks == 8
        assert outcome.local_tasks == 0

    def test_second_run_mostly_local(self):
        sched = AffinityScheduler(nodes=4, slots_per_node=1)
        tasks = [(f"t{i}", 1.0) for i in range(8)]
        sched.schedule(tasks)
        second = sched.schedule(tasks)
        assert second.locality_rate > 0.7

    def test_locality_saves_time(self):
        """Balanced remembered locations beat a hot-spotted memo layout,
        which pays remote-fetch penalties."""
        tasks = [(f"t{i}", 1.0) for i in range(16)]
        balanced = AffinityScheduler(nodes=4, slots_per_node=1, slack_s=0.0)
        balanced.schedule(tasks)
        warm = balanced.schedule(tasks)
        hot = AffinityScheduler(nodes=4, slots_per_node=1, slack_s=0.0)
        hot._locations = {t: 0 for t, _ in tasks}  # everything memoized on node 0
        skewed = hot.schedule(tasks)
        assert skewed.remote_tasks > 0
        assert skewed.makespan_seconds > warm.makespan_seconds

    def test_deterministic_default_placement(self):
        sched = AffinityScheduler(nodes=10)
        assert sched.default_node("abc") == sched.default_node("abc")

    def test_makespan_bounds(self):
        sched = AffinityScheduler(nodes=2, slots_per_node=1)
        outcome = sched.schedule([("a", 3.0), ("b", 1.0), ("c", 1.0)])
        assert outcome.makespan_seconds >= 3.0
        assert outcome.makespan_seconds <= 5.0 + sched.remote_fetch_s * 3

    def test_assignments_recorded(self):
        sched = AffinityScheduler(nodes=4)
        outcome = sched.schedule([("x", 1.0)])
        assert "x" in outcome.assignments
        assert sched.location_of("x") == outcome.assignments["x"]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            AffinityScheduler(nodes=0)


class TestIncoopWithScheduler:
    def test_scheduled_incremental_run(self):
        from repro.core.chunking import ChunkerConfig
        from repro.hdfs import HDFSCluster
        from repro.mapreduce import IncoopRuntime
        from repro.mapreduce.applications import wordcount_job, wordcount_reference
        from repro.workloads import generate_text

        text = generate_text(80_000, seed=65)
        cluster = HDFSCluster()
        cfg = ShredderConfig.gpu_streams_memory(
            chunker=ChunkerConfig(mask_bits=9, marker=0x155)
        )
        with Shredder(cfg) as sh:
            cluster.client.copy_from_local_gpu(text, "/in", shredder=sh)
        incoop = IncoopRuntime(cluster.client, scheduler=AffinityScheduler())
        first = incoop.run_incremental(wordcount_job(), "/in")
        assert first.output == wordcount_reference(text)
        assert incoop.last_schedule is not None
        second = incoop.run_incremental(wordcount_job(), "/in")
        assert second.output == first.output
        # Re-run finds every memoized result where it was left.
        assert incoop.last_schedule.locality_rate > 0.7
        assert second.stats.makespan_seconds < first.stats.makespan_seconds
