"""Service throughput: remote wire backups vs the in-process data path.

The asyncio front-end (:mod:`repro.service`) puts a length-prefixed
protocol, per-tenant dedup decisions, and one session coroutine per
connection between the chunker and the store.  This bench measures what that costs: the
same snapshot stream is backed up through an in-process
:class:`BackupServer` (no wire) and through concurrent
:class:`AsyncBackupClient` sessions against one loopback
:class:`BackupService`, at 1 / 4 / 16 clients.

Reported per client count:

* **in-process MiB/s** — the serial no-wire baseline over the same
  total bytes;
* **remote MiB/s** — aggregate ingest rate across the concurrent
  sessions (wall clock from first byte to last FINISH_OK);
* **remote/in-proc** — the wire efficiency ratio;
* **dedup fraction** — duplicate chunks over total, proving the wire
  path makes the same source-side dedup decisions as the local one;
* **throttles / sheds** — overload-protection interventions during the
  run (THROTTLE pacing hints, RETRY_LATER refusals, admission
  rejections).  Both columns must be 0 for an unlimited run; with
  ``--rate-limit`` they show what the reported MiB/s actually paid, so
  a paced run can never pass off shed traffic as free throughput.

Acceptance (both modes): every remote restore is bit-identical to the
data that was backed up.

Run standalone:  python benchmarks/bench_service_throughput.py
                   [--quick] [--rate-limit BYTES_PER_S]
CI smoke:        python benchmarks/bench_service_throughput.py --quick
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.backup import BackupConfig, BackupServer, MasterImage, SimilarityTable
from repro.bench.reporting import ResultTable, format_table
from repro.service import AsyncBackupClient, BackupService, ServiceConfig

MB = 1 << 20


def make_jobs(n_clients: int, size_mb: int, seed: int = 47):
    """Per client: (tenant, [(snapshot_id, data), ...]) — two generations.

    Each client backs up a base image then a churned second generation,
    so its tenant-scoped index sees realistic incremental duplication.
    All clients derive from one master, so the shared payload store also
    dedups across tenants while each tenant keeps its own decisions.
    """
    image = MasterImage(size=size_mb * MB, segment_size=32 * 1024, seed=seed)
    table = SimilarityTable.uniform(0.35, image.n_segments)
    return [
        (
            f"tenant{i}",
            [
                (f"snap-{i}-g1", image.snapshot(table, 2 * i + 1)),
                (f"snap-{i}-g2", image.snapshot(table, 2 * i + 2)),
            ],
        )
        for i in range(n_clients)
    ]


def run_in_process(jobs) -> float:
    """Serial no-wire baseline: aggregate MiB/s over all jobs."""
    total = sum(len(data) for _, gens in jobs for _, data in gens)
    server = BackupServer(BackupConfig())
    t0 = time.perf_counter()
    for _, gens in jobs:
        for snapshot_id, data in gens:
            server.backup_snapshot(data, snapshot_id)
    elapsed = time.perf_counter() - t0
    server.close()
    return total / MB / elapsed


async def _run_remote(
    jobs, rate_bytes_per_s: float | None = None
) -> tuple[float, float, dict]:
    """(aggregate MiB/s, dedup fraction, overload counters) for
    concurrent wire backups."""
    total = sum(len(data) for _, gens in jobs for _, data in gens)
    config = ServiceConfig(
        port=0,
        max_sessions=max(16, len(jobs)),
        rate_bytes_per_s=rate_bytes_per_s,
        # Pace rather than shed: a bench client has nowhere to retry to,
        # and a paced run is exactly what the table should show.
        shed_debt_s=600.0 if rate_bytes_per_s is not None else 5.0,
    )
    async with BackupService(config) as service:

        async def one(tenant: str, gens):
            out = []
            async with await AsyncBackupClient.connect(
                "127.0.0.1", service.port, tenant=tenant
            ) as client:
                for snapshot_id, data in gens:
                    report = await client.backup(data, snapshot_id)
                    restored = await client.restore(snapshot_id)
                    assert restored == data, f"restore mismatch {snapshot_id}"
                    out.append(report)
            return out

        t0 = time.perf_counter()
        per_client = await asyncio.gather(
            *(one(tenant, gens) for tenant, gens in jobs)
        )
        elapsed = time.perf_counter() - t0
        metrics = service.metrics
        overload = {
            "throttles": metrics.throttles_sent,
            "sheds": metrics.retry_later_sent + metrics.sessions_rejected,
        }
    reports = [r for group in per_client for r in group]
    n_chunks = sum(r.n_chunks for r in reports)
    dups = sum(r.duplicate_chunks for r in reports)
    return total / MB / elapsed, dups / max(1, n_chunks), overload


def run_remote(
    jobs, rate_bytes_per_s: float | None = None
) -> tuple[float, float, dict]:
    return asyncio.run(_run_remote(jobs, rate_bytes_per_s))


def build_table(
    report, client_counts, size_mb: int,
    rate_bytes_per_s: float | None = None,
) -> None:
    limited = (
        f", rate-limited {rate_bytes_per_s / MB:.1f} MiB/s/tenant"
        if rate_bytes_per_s is not None
        else ""
    )
    table = report(
        title=(
            f"Remote vs in-process backup throughput "
            f"({size_mb} MiB/client{limited})"
        ),
        headers=[
            "clients", "in-proc MiB/s", "remote MiB/s",
            "remote/in-proc", "dedup frac", "throttles", "sheds",
        ],
        paper_note=(
            "wire front-end overhead and concurrency scaling over the "
            "paper's single-host backup path; throttles/sheds expose "
            "any overload-protection tax on the reported rate"
        ),
    )
    for n in client_counts:
        jobs = make_jobs(n, size_mb)
        local = run_in_process(jobs)
        remote, dedup, overload = run_remote(
            jobs, rate_bytes_per_s=rate_bytes_per_s
        )
        if rate_bytes_per_s is None and (
            overload["throttles"] or overload["sheds"]
        ):
            raise AssertionError(
                f"unlimited run reported overload interventions: {overload}"
            )
        table.rows.append([
            n,
            f"{local:.1f}",
            f"{remote:.1f}",
            f"{remote / local:.2f}",
            f"{dedup:.2f}",
            overload["throttles"],
            overload["sheds"],
        ])


def test_service_throughput(benchmark, report):
    benchmark.pedantic(
        lambda: build_table(report, client_counts=(1, 4), size_mb=2),
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="BYTES_PER_S",
        help="per-tenant service rate limit; the throttles/sheds columns "
        "then show what pacing cost the reported MiB/s",
    )
    args = parser.parse_args(argv)
    tables: list[ResultTable] = []

    def report(title, headers, paper_note=""):
        table = ResultTable(title=title, headers=headers, paper_note=paper_note)
        tables.append(table)
        return table

    if args.quick:
        build_table(
            report, client_counts=(1, 4), size_mb=2,
            rate_bytes_per_s=args.rate_limit,
        )
    else:
        build_table(
            report, client_counts=(1, 4, 16), size_mb=8,
            rate_bytes_per_s=args.rate_limit,
        )
    for table in tables:
        print(format_table(table))
        print()
    print("acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
