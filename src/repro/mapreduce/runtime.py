"""MapReduce execution over the in-process cluster.

Runs real map/combine/reduce functions over real split bytes, while
accounting *simulated* task times against a cluster model (the paper's
Fig. 15 testbed is a 20-node Hadoop cluster).  Task-time constants are
calibrated to Hadoop-0.20-era behaviour where per-task scheduling and JVM
overheads are a large fraction of small-task runtime — the regime that
makes task-level memoization profitable.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.hdfs.client import HDFSClient
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.memo import MemoServer, memo_key

__all__ = ["ClusterModel", "RunStats", "RunResult", "MapReduceRuntime", "partition_of"]


def partition_of(key: Any, n_reducers: int) -> int:
    """Deterministic partitioner (Python hash is salted per process for
    str/bytes, so use a stable hash)."""
    import zlib

    if isinstance(key, bytes):
        raw = key
    elif isinstance(key, str):
        raw = key.encode()
    else:
        raw = repr(key).encode()
    return zlib.crc32(raw) % n_reducers


#: Cost of fetching a memoized result instead of re-running the task
#: (a memo-server lookup plus reading the stored output).
MEMO_FETCH_S = 5e-3
#: Cost of a reused contraction node (key check only).
CONTRACT_FETCH_S = 2e-4


@dataclass(frozen=True)
class ClusterModel:
    """Task-time and scheduling model of the MapReduce cluster."""

    nodes: int = 20
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 2
    #: Fixed per-task cost (scheduling + JVM + setup), seconds.
    task_overhead_s: float = 0.35
    #: Per input record map cost.  Calibrated as a *scale model*: test
    #: inputs are ~10^4 smaller than the paper's, so per-record work is
    #: inflated to keep the Hadoop-era work/overhead ratio of multi-second
    #: map tasks over 64 MB splits.
    map_record_s: float = 1.5e-3
    #: Per input byte map cost (parsing, I/O).
    map_byte_s: float = 1e-7
    #: Per intermediate pair combine/reduce cost.
    shuffle_pair_s: float = 1e-4
    #: Fixed per combine-node cost in the contraction tree.
    combine_overhead_s: float = 5e-3

    @property
    def map_slots(self) -> int:
        return self.nodes * self.map_slots_per_node

    @property
    def reduce_slots(self) -> int:
        return self.nodes * self.reduce_slots_per_node

    def map_task_seconds(
        self, n_bytes: int, n_records: int, compute_weight: float = 1.0
    ) -> float:
        return (
            self.task_overhead_s
            + n_records * self.map_record_s * compute_weight
            + n_bytes * self.map_byte_s
        )

    def combine_seconds(self, n_pairs: int) -> float:
        return self.combine_overhead_s + n_pairs * self.shuffle_pair_s

    def reduce_task_seconds(self, n_pairs: int) -> float:
        return self.task_overhead_s + n_pairs * self.shuffle_pair_s

    def makespan(self, task_times: list[float], slots: int) -> float:
        """Greedy longest-processing-time schedule onto ``slots`` slots."""
        if not task_times:
            return 0.0
        if slots < 1:
            raise ValueError("slots must be >= 1")
        heap = [0.0] * min(slots, len(task_times))
        heapq.heapify(heap)
        for t in sorted(task_times, reverse=True):
            earliest = heapq.heappop(heap)
            heapq.heappush(heap, earliest + t)
        return max(heap)


@dataclass
class RunStats:
    """Execution telemetry of one job run."""

    n_splits: int = 0
    map_tasks_run: int = 0
    map_tasks_reused: int = 0
    combine_nodes_run: int = 0
    combine_nodes_reused: int = 0
    reduce_tasks: int = 0
    map_task_seconds: list[float] = field(default_factory=list)
    reduce_task_seconds: list[float] = field(default_factory=list)
    makespan_seconds: float = 0.0

    @property
    def reuse_fraction(self) -> float:
        total = self.map_tasks_run + self.map_tasks_reused
        return self.map_tasks_reused / total if total else 0.0


@dataclass
class RunResult:
    """Final reduced output plus run telemetry."""

    output: dict[Any, Any]
    stats: RunStats


class MapReduceRuntime:
    """Non-incremental ("plain Hadoop") execution engine."""

    def __init__(self, client: HDFSClient, cluster: ClusterModel | None = None) -> None:
        self.client = client
        self.cluster = cluster or ClusterModel()

    # -- task primitives (shared with the Incoop runtime) --------------------

    def run_map_task(self, job: MapReduceJob, data: bytes) -> dict[int, list[tuple]]:
        """Execute one map task; output partitioned by reducer."""
        partitions: dict[int, list[tuple]] = defaultdict(list)
        for record in job.input_format(data):
            for key, value in job.map_fn(record):
                partitions[partition_of(key, job.n_reducers)].append((key, value))
        if job.combine_fn is not None:
            for p, pairs in partitions.items():
                partitions[p] = self._combine_pairs(job, pairs)
        return dict(partitions)

    @staticmethod
    def _combine_pairs(job: MapReduceJob, pairs: list[tuple]) -> list[tuple]:
        grouped: dict[Any, list] = defaultdict(list)
        for k, v in pairs:
            grouped[k].append(v)
        return [(k, job.combine_fn(k, vs)) for k, vs in grouped.items()]

    def run_reduce_task(self, job: MapReduceJob, pairs: list[tuple]) -> dict[Any, Any]:
        grouped: dict[Any, list] = defaultdict(list)
        for k, v in pairs:
            grouped[k].append(v)
        return {k: job.reduce_fn(k, vs) for k, vs in grouped.items()}

    # -- the job loop -----------------------------------------------------------

    def run(self, job: MapReduceJob, path: str) -> RunResult:
        """Run the whole job from scratch over the splits of ``path``."""
        return self._run(job, path, memo=None)

    def _run(self, job: MapReduceJob, path: str, memo: MemoServer | None) -> RunResult:
        """The one job loop: splits -> map -> shuffle -> reduce -> makespan.

        With a ``memo`` server, map outputs are reused by split digest
        and, when the job has a combiner, each reduce partition folds its
        inputs through the memoized contraction tree.
        """
        stats = RunStats()
        splits = self.client.get_splits(path)
        stats.n_splits = len(splits)

        leaf_outputs: list[tuple[str, dict[int, list[tuple]]]] = []
        for split in splits:
            key = memo_key(job.name, job.params, split.split_id)
            partitions = memo.get(key) if memo is not None else None
            if partitions is None:
                data = self.client.read_split(split)
                partitions = self.run_map_task(job, data)
                if memo is not None:
                    memo.put(key, partitions)
                records = len(job.input_format(data))
                stats.map_tasks_run += 1
                seconds = self.cluster.map_task_seconds(
                    split.length, records, job.compute_weight
                )
            else:
                stats.map_tasks_reused += 1
                seconds = MEMO_FETCH_S
            stats.map_task_seconds.append(seconds)
            leaf_outputs.append((key, partitions))

        output: dict[Any, Any] = {}
        for p in range(job.n_reducers):
            leaves = [
                (f"{key}:{p}", partitions.get(p, []))
                for key, partitions in leaf_outputs
            ]
            if memo is not None and job.combine_fn is not None:
                pairs = self._contract(job, leaves, stats, memo)
            else:
                pairs = [kv for _, leaf_pairs in leaves for kv in leaf_pairs]
            output.update(self.run_reduce_task(job, pairs))
            stats.reduce_tasks += 1
            stats.reduce_task_seconds.append(
                self.cluster.reduce_task_seconds(len(pairs))
            )

        keys = [key for key, _ in leaf_outputs]
        map_makespan = self._map_makespan(list(zip(keys, stats.map_task_seconds)))
        stats.makespan_seconds = map_makespan + self.cluster.makespan(
            stats.reduce_task_seconds, self.cluster.reduce_slots
        )
        return RunResult(output, stats)

    def _map_makespan(self, tasks: list[tuple[str, float]]) -> float:
        """Makespan of the map wave's ``(memo key, seconds)`` tasks."""
        return self.cluster.makespan([s for _, s in tasks], self.cluster.map_slots)

    def _contract(
        self,
        job: MapReduceJob,
        leaves: list[tuple[str, list[tuple]]],
        stats: RunStats,
        memo: MemoServer,
    ) -> list[tuple]:
        """Fold leaves through a memoized binary combine tree."""
        level = leaves
        while len(level) > 1:
            nxt: list[tuple[str, list[tuple]]] = []
            for i in range(0, len(level) - 1, 2):
                (key_a, pairs_a), (key_b, pairs_b) = level[i], level[i + 1]
                node_key = "contract:" + hashlib.sha256(
                    (key_a + "|" + key_b).encode()
                ).hexdigest()[:32]
                cached = memo.get(node_key)
                if cached is None:
                    merged = self._combine_pairs(job, list(pairs_a) + list(pairs_b))
                    memo.put(node_key, merged)
                    stats.combine_nodes_run += 1
                    stats.reduce_task_seconds.append(
                        self.cluster.combine_seconds(len(pairs_a) + len(pairs_b))
                    )
                else:
                    merged = cached
                    stats.combine_nodes_reused += 1
                    stats.reduce_task_seconds.append(CONTRACT_FETCH_S)
                nxt.append((node_key, merged))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return list(level[0][1]) if level else []
