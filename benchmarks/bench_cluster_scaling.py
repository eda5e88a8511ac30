"""Cluster scaling: node count x batch size x replication vs single node.

§7.3 charges every digest an individual index lookup (hits 2 us, misses
12 us) — the "unoptimized" stage the paper blames for backup bandwidth
collapsing as snapshot similarity drops.  The sharded chunk-store
cluster replaces it with batched lookups over resident keydirs.  This
bench sweeps the three cluster knobs against the single-node baseline:

* **batch size** — the per-batch dispatch cost amortizes as 1/B; the
  acceptance bar is the batched stage strictly below the per-digest
  baseline for B >= 64;
* **node count** — shard occupancy stays balanced (consistent hashing
  with virtual nodes) while lookup cost stays flat;
* **replication factor** — physical bytes scale with r, the price of
  surviving r-1 node losses (verified by a failure + repair drill);
* **redundancy scheme** — replication vs erasure coding head to head:
  storage overhead (r x for replicas, (k+m)/k + framing for EC),
  healthy vs degraded restore cost (EC decodes through parity after a
  node loss), and repair traffic per failed node (EC rebuilds ship
  1/k-size fragments instead of whole chunks).

Run standalone for the CI smoke: ``python benchmarks/bench_cluster_scaling.py --quick``.
"""

from __future__ import annotations

import sys
import time

from repro.backup import BackupConfig, BackupServer, MasterImage, SimilarityTable
from repro.bench.reporting import ResultTable, format_table

MB = 1 << 20


def make_stream(size_mb: int, generations: int = 2, p: float = 0.15):
    image = MasterImage(size=size_mb * MB, segment_size=32 * 1024, seed=91)
    table = SimilarityTable.uniform(p, image.n_segments)
    return [("master", image.data)] + [
        (f"gen{i}", image.snapshot(table, i)) for i in range(1, generations + 1)
    ]


def run_stream(config: BackupConfig, stream) -> tuple[float, "BackupServer"]:
    """Total index+network seconds over the stream; returns open server."""
    server = BackupServer(config)
    total = 0.0
    for snapshot_id, data in stream:
        report = server.backup_snapshot(data, snapshot_id)
        assert server.agent.restore(snapshot_id) == data
        total += report.stage_seconds["index+network"]
    return total, server


def sweep_batch_size(stream, batch_sizes, nodes=4, replication=2):
    """[(batch_size, cluster_seconds)], baseline_seconds."""
    baseline, server = run_stream(BackupConfig(store_backend="single"), stream)
    server.close()
    rows = []
    for batch in batch_sizes:
        seconds, server = run_stream(
            BackupConfig(
                store_backend="cluster",
                cluster_nodes=nodes,
                replication=replication,
                lookup_batch_size=batch,
            ),
            stream,
        )
        server.close()
        rows.append((batch, seconds))
    return rows, baseline


def sweep_nodes(stream, node_counts, batch=128):
    """[(nodes, seconds, max/mean shard occupancy)]."""
    rows = []
    for n in node_counts:
        seconds, server = run_stream(
            BackupConfig(
                store_backend="cluster",
                cluster_nodes=n,
                replication=min(2, n),
                lookup_batch_size=batch,
            ),
            stream,
        )
        counts = [node.chunk_count for node in server.cluster.nodes.values()]
        balance = max(counts) / (sum(counts) / len(counts))
        server.close()
        rows.append((n, seconds, balance))
    return rows


def sweep_replication(stream, factors, nodes=4, batch=128):
    """[(r, seconds, physical/logical bytes, repair_ok)]."""
    rows = []
    for r in factors:
        seconds, server = run_stream(
            BackupConfig(
                store_backend="cluster",
                cluster_nodes=nodes,
                replication=r,
                lookup_batch_size=batch,
            ),
            stream,
        )
        cluster = server.cluster
        overhead = cluster.stored_bytes / cluster.unique_bytes
        cluster.fail_node("node-0")
        repair_ok = cluster.repair().healthy
        if repair_ok:
            for snapshot_id, data in stream:
                assert cluster.restore(snapshot_id) == data
        server.close()
        rows.append((r, seconds, overhead, repair_ok))
    return rows


def sweep_redundancy(stream, schemes, nodes=8, batch=128):
    """[(label, overhead, healthy_s, degraded_s, repair_bytes)].

    Each scheme restores the full stream twice — once healthy, once
    after ``node-0`` is killed (degraded: replicas fall back to
    surviving copies, EC decodes through parity) — then repairs and
    reports how many bytes the rebuild shipped.
    """
    rows = []
    for label, kwargs in schemes:
        _, server = run_stream(
            BackupConfig(
                store_backend="cluster",
                cluster_nodes=nodes,
                lookup_batch_size=batch,
                **kwargs,
            ),
            stream,
        )
        cluster = server.cluster
        overhead = cluster.stored_bytes / cluster.unique_bytes
        t0 = time.perf_counter()
        for snapshot_id, data in stream:
            assert cluster.restore(snapshot_id) == data
        healthy_s = time.perf_counter() - t0
        cluster.fail_node("node-0")
        t0 = time.perf_counter()
        for snapshot_id, data in stream:
            assert cluster.restore(snapshot_id) == data
        degraded_s = time.perf_counter() - t0
        repair = cluster.repair()
        assert repair.healthy, f"{label}: repair left chunks lost"
        server.close()
        rows.append((label, overhead, healthy_s, degraded_s, repair.bytes_copied))
    return rows


def check_acceptance(batch_rows, baseline) -> None:
    """Batched stage strictly below baseline for B >= 64."""
    for batch, seconds in batch_rows:
        if batch >= 64:
            assert seconds < baseline, (
                f"batch={batch}: cluster stage {seconds:.6f}s not below "
                f"per-digest baseline {baseline:.6f}s"
            )


def build_tables(report, size_mb, batch_sizes, node_counts, replications,
                 redundancy_schemes=()):
    stream = make_stream(size_mb)

    batch_rows, baseline = sweep_batch_size(stream, batch_sizes)
    t1 = report(
        "Cluster lookup stage vs batch size [ms, lower is better]",
        ["Batch size", "index+network", "vs per-digest baseline"],
        paper_note="batched lookups beat the §7.3 per-digest stage for B >= 64",
    )
    for batch, seconds in batch_rows:
        t1.add(batch, seconds * 1e3, f"{seconds / baseline:.2f}x")
    t1.add("baseline", baseline * 1e3, "1.00x")
    check_acceptance(batch_rows, baseline)

    node_rows = sweep_nodes(stream, node_counts)
    t2 = report(
        "Cluster lookup stage vs node count [ms]",
        ["Nodes", "index+network", "max/mean shard occupancy"],
        paper_note="cost flat with node count; vnode hashing keeps shards balanced",
    )
    for n, seconds, balance in node_rows:
        t2.add(n, seconds * 1e3, balance)
        assert balance < 2.0, f"shard imbalance {balance:.2f} at {n} nodes"

    repl_rows = sweep_replication(stream, replications)
    t3 = report(
        "Replication factor: cost vs durability",
        ["Replicas", "index+network [ms]", "physical/logical bytes",
         "survives node loss"],
        paper_note="r copies cost ~r x storage; r >= 2 survives the repair drill",
    )
    for r, seconds, overhead, repair_ok in repl_rows:
        t3.add(r, seconds * 1e3, overhead, "yes" if repair_ok else "NO")
        assert overhead > r - 0.5
        assert repair_ok == (r >= 2)

    if redundancy_schemes:
        red_rows = sweep_redundancy(stream, redundancy_schemes)
        t4 = report(
            "Replication vs erasure coding (one node failed + repaired)",
            ["Scheme", "physical/logical bytes", "healthy restore [ms]",
             "degraded restore [ms]", "repair traffic [KiB]"],
            paper_note="EC stores ~(k+m)/k x and repairs ship 1/k-size "
                       "fragments; degraded reads pay the decode",
        )
        by_label = {}
        for label, overhead, healthy_s, degraded_s, repair_bytes in red_rows:
            t4.add(label, overhead, healthy_s * 1e3, degraded_s * 1e3,
                   repair_bytes / 1024)
            by_label[label] = (overhead, repair_bytes)
        if "replicated r=2" in by_label and "ec 4+2" in by_label:
            r2_overhead, r2_repair = by_label["replicated r=2"]
            ec_overhead, ec_repair = by_label["ec 4+2"]
            # (k+m)/k + per-fragment framing stays below whole-copy r=2.
            assert ec_overhead < r2_overhead, (
                f"ec overhead {ec_overhead:.2f}x not below "
                f"r=2 overhead {r2_overhead:.2f}x"
            )
            # Rebuilds ship 1/k-size fragments, not whole chunks.
            assert ec_repair < r2_repair, (
                f"ec repair traffic {ec_repair}B not below "
                f"replicated {r2_repair}B"
            )


REDUNDANCY_FULL = (
    ("replicated r=2", dict(replication=2)),
    ("replicated r=3", dict(replication=3)),
    ("ec 4+2", dict(placement="ec", ec_k=4, ec_m=2)),
)
REDUNDANCY_QUICK = (
    ("replicated r=2", dict(replication=2)),
    ("ec 4+2", dict(placement="ec", ec_k=4, ec_m=2)),
)


def test_cluster_scaling(benchmark, report):
    benchmark.pedantic(
        lambda: build_tables(
            report,
            size_mb=4,
            batch_sizes=(1, 16, 64, 256),
            node_counts=(1, 2, 4, 8),
            replications=(1, 2, 3),
            redundancy_schemes=REDUNDANCY_FULL,
        ),
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    tables: list[ResultTable] = []

    def report(title, headers, paper_note=""):
        table = ResultTable(title=title, headers=headers, paper_note=paper_note)
        tables.append(table)
        return table

    if quick:
        build_tables(report, size_mb=2, batch_sizes=(1, 64),
                     node_counts=(1, 4), replications=(1, 2),
                     redundancy_schemes=REDUNDANCY_QUICK)
    else:
        build_tables(report, size_mb=4, batch_sizes=(1, 16, 64, 256),
                     node_counts=(1, 2, 4, 8), replications=(1, 2, 3),
                     redundancy_schemes=REDUNDANCY_FULL)
    for table in tables:
        print(format_table(table))
        print()
    print("acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
