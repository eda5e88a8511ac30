"""Incoop: incremental MapReduce via memoization + contraction (§6.1).

Two reuse mechanisms from the Incoop paper, driven by Inc-HDFS's stable
content-defined splits, which the one job loop of
:class:`~repro.mapreduce.runtime.MapReduceRuntime` applies when it runs
with a memo server:

* **Map-task memoization** — a map task's output is stored under
  ``(job, params, split digest)``.  Re-running the job on changed input
  re-executes only map tasks whose split content changed.
* **Contraction tree** — when the job has a combiner, each reduce
  partition's inputs are folded through a binary tree of combine nodes
  whose memo keys derive from their children; a changed leaf re-computes
  only the ``O(log n)`` nodes on its path to the root.

The combiner must be associative/commutative and satisfy
``reduce(k, [combine(k, vs)]) == reduce(k, vs)`` — the standard Hadoop
combiner contract — which makes incremental output *identical* to a
from-scratch run (tested property).
"""

from __future__ import annotations

from repro.hdfs.client import HDFSClient
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.memo import MemoServer
from repro.mapreduce.runtime import ClusterModel, MapReduceRuntime, RunResult

__all__ = ["IncoopRuntime"]


class IncoopRuntime(MapReduceRuntime):
    """Incremental MapReduce engine with a persistent memo server.

    The same instance must be used across successive runs of a job for
    reuse to occur (the memo server is the cross-run state, like Incoop's
    memoization server).
    """

    def __init__(
        self,
        client: HDFSClient,
        cluster: ClusterModel | None = None,
        memo: MemoServer | None = None,
        scheduler=None,
    ) -> None:
        super().__init__(client, cluster)
        # `is not None`: an empty MemoServer is falsy (it has __len__),
        # so `memo or MemoServer()` would silently discard a caller's
        # (initially empty) persistent server.
        self.memo = memo if memo is not None else MemoServer()
        #: Optional memoization-aware scheduler
        #: (:class:`repro.mapreduce.scheduler.AffinityScheduler`).  When
        #: set, the map wave is placed with locality affinity and its
        #: makespan replaces the plain LPT estimate.
        self.scheduler = scheduler
        #: Locality outcome of the most recent scheduled map wave.
        self.last_schedule = None

    # ------------------------------------------------------------------

    def run_incremental(self, job: MapReduceJob, path: str) -> RunResult:
        """Run ``job`` over ``path``, reusing memoized sub-computations."""
        return self._run(job, path, self.memo)

    def _map_makespan(self, tasks: list[tuple[str, float]]) -> float:
        if self.scheduler is None:
            return super()._map_makespan(tasks)
        self.last_schedule = self.scheduler.schedule(tasks)
        return self.last_schedule.makespan_seconds

    # ------------------------------------------------------------------

    def speedup_vs_full(self, job: MapReduceJob, path: str) -> tuple[RunResult, float]:
        """Incremental run plus its speedup over a from-scratch run.

        The from-scratch cost is evaluated with the same cluster model, as
        the Fig. 15 experiment does (speedup w.r.t. plain Hadoop).
        """
        full = MapReduceRuntime(self.client, self.cluster).run(job, path)
        inc = self.run_incremental(job, path)
        if inc.stats.makespan_seconds <= 0:
            raise RuntimeError("incremental makespan is zero; cannot compute speedup")
        return inc, full.stats.makespan_seconds / inc.stats.makespan_seconds
