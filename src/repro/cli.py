"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``chunk FILE``      content-based chunking of a file; prints chunk table
                    (``--profile`` adds the scan/hash/lookup stage split
                    and fused-kernel dispatch counters)
``dedup A B``       cross-file dedup statistics (how similar are A and B?)
``throughput``      the Figure 12 configuration comparison (modeled)
``table1``          the simulated GPU's Table 1 characteristics
``backup FILE``     one-shot dedup backup of FILE against itself + stats;
                    ``--remote HOST:PORT [--tenant NAME]`` ships it over
                    the wire to a running backup service instead
``cluster FILE``    dedup backup through the sharded chunk-store cluster,
                    with optional node-failure + repair drill; ``--backend
                    disk --data-dir DIR`` persists every shard/recipe so a
                    later run reopens them; ``--placement ec --ec 4+2``
                    stores Reed–Solomon fragments instead of replicas
``serve``           run the multi-tenant backup service daemon (agent
                    wire protocol + /health + /metrics on one port)
``scrub DIR``       reopen a persistent cluster and run one integrity
                    pass: re-digest every stored payload/fragment,
                    rebuild mismatches from parity/replicas
``lint [PATHS]``    AST-based project-invariant checks (zero-copy hot
                    path, batched-only probes, async-blocking, lock
                    discipline, protocol exhaustiveness, metrics
                    coverage, dead code); exits 0 clean / 1 findings /
                    2 internal error
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.reporting import ResultTable, format_table

__all__ = ["main"]

GB = 1 << 30


def _read(path: str) -> bytes:
    data = Path(path).read_bytes()
    if not data:
        raise SystemExit(f"{path} is empty")
    return data


def _chunker_config(args) -> "ChunkerConfig":
    from repro.core.chunking import ChunkerConfig

    return ChunkerConfig(
        mask_bits=args.mask_bits,
        marker=args.marker & ((1 << args.mask_bits) - 1),
        min_size=args.min_size,
        max_size=args.max_size,
    )


def _profiled_chunk(chunker, view) -> list:
    """Chunk ``view`` through the chunk + hash pipeline, metered.

    Slices the buffer into scan-tile-sized pieces and runs the real
    scan + hash pipeline plus a batched dedup probe, so the stage
    timers (scan / hash / lookup) and fused-kernel dispatch counters
    reflect the production data path.  Chunks are identical to the
    whole-buffer path (stream chunking is boundary-exact).
    """
    from repro.core import DedupIndex, pipeline_chunks
    from repro.core import reset_scan_counters, reset_stage_times
    from repro.core.engines import DEFAULT_TILE_BYTES

    reset_scan_counters()
    reset_stage_times()
    piece = DEFAULT_TILE_BYTES
    buffers = [view[off : off + piece] for off in range(0, len(view), piece)]
    chunks = [
        chunk
        for batch in pipeline_chunks(chunker.candidate_cuts, chunker.config, buffers)
        for chunk in batch
    ]
    DedupIndex().add_all(chunks)
    return chunks


def _print_profile(n_bytes: int, seconds: float) -> None:
    """Print the stage split from the one merged stats snapshot.

    Consumes :func:`repro.core.stats.snapshot` — the same document the
    service's ``/metrics`` endpoint serves — so the CLI profile and the
    daemon's metrics surface can never drift apart.
    """
    from repro.core import stats_snapshot

    snap = stats_snapshot()
    mib = n_bytes / (1 << 20)
    table = ResultTable(
        "Pipeline stage split",
        ["Stage", "Seconds", "% of wall", "MiB/s"],
        )
    for name in ("scan", "hash", "lookup", "store"):
        spent = snap["stages"].get(name, 0.0)
        table.add(
            name, f"{spent:.3f}",
            f"{100 * spent / seconds:.0f}%" if seconds else "-",
            f"{mib / spent:.1f}" if spent else "-",
        )
    print(format_table(table))
    c = snap["scan"]
    if c["dispatches"]:
        g = c["geometry"]
        print(
            f"scan kernel: {c['dispatches']} dispatches over {c['tiles']} "
            f"tiles ({c['bytes_per_dispatch'] / 1024:.0f} KiB/dispatch, "
            f"{c['dispatches_per_mib']:.1f} dispatches/MiB)"
        )
        print(
            f"scan geometry: lanes={g.get('lanes')} "
            f"tile={g.get('tile_bytes', 0) >> 10} KiB "
            f"roll_steps={g.get('roll_steps')}"
        )
    backends = snap["backends"]
    if backends.get("instances"):
        print(
            f"store backends: {backends['instances']} live, "
            f"{backends.get('batches', 0)} batched calls, "
            f"{backends.get('puts', 0)} inserts, "
            f"{backends.get('gets', 0)} gets"
        )


def cmd_chunk(args) -> int:
    import mmap
    import time

    from repro.core import Chunker, size_stats

    chunker = Chunker(_chunker_config(args))
    profile_seconds = 0.0
    # Zero-copy path: chunk the file through an mmap'd memoryview — the
    # scan, boundary selection, and batched hashing all run against the
    # page cache without ever copying the payload into Python bytes.
    with open(args.file, "rb") as fh:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty file or unmappable source
            mapped = None
        if mapped is None:
            data = _read(args.file)
            if args.profile:
                t0 = time.perf_counter()
                chunks = _profiled_chunk(chunker, memoryview(data))
                profile_seconds = time.perf_counter() - t0
            else:
                chunks = chunker.chunk(data)
        else:
            view = memoryview(mapped)
            chunks = []
            try:
                if args.profile:
                    t0 = time.perf_counter()
                    chunks = _profiled_chunk(chunker, view)
                    profile_seconds = time.perf_counter() - t0
                else:
                    chunks = chunker.chunk(view)  # digests computed batched
            finally:
                for c in chunks:
                    c.release()  # digests recorded; let the mmap go
                view.release()
                try:
                    mapped.close()
                except BufferError:
                    # An in-flight exception's traceback frames can still
                    # hold exported views; let that exception surface and
                    # leave the unmap to garbage collection.
                    pass
    stats = size_stats([c.length for c in chunks])
    table = ResultTable(
        f"Chunks of {args.file}",
        ["Offset", "Length", "Digest (prefix)"],
    )
    shown = chunks if args.all else chunks[:20]
    for c in shown:
        table.add(c.offset, c.length, c.digest.hex()[:16])
    print(format_table(table))
    if len(chunks) > len(shown):
        print(f"... {len(chunks) - len(shown)} more chunks (use --all)")
    print(
        f"{stats.count} chunks, mean {stats.mean:.0f} B "
        f"(min {stats.minimum}, max {stats.maximum})"
    )
    if args.profile:
        _print_profile(stats.total, profile_seconds)
    return 0


def cmd_dedup(args) -> int:
    from repro.core import Chunker, DedupIndex

    chunker = Chunker(_chunker_config(args))
    index = DedupIndex()
    index.add_all(chunker.chunk(_read(args.file_a)))
    unique_before = index.stats.unique_bytes
    index.add_all(chunker.chunk(_read(args.file_b)))
    stats = index.stats
    new_bytes = stats.unique_bytes - unique_before
    print(f"{args.file_b} vs {args.file_a}:")
    print(f"  shared content: {stats.duplicate_bytes} B across "
          f"{stats.duplicate_chunks} duplicate chunks")
    print(f"  new content in {args.file_b}: {new_bytes} B")
    print(f"  overall dedup ratio: {stats.dedup_ratio:.1%}")
    return 0


def cmd_throughput(args) -> int:
    from repro.core.shredder import Shredder, ShredderConfig

    table = ResultTable(
        "Modeled chunking throughput, 1 GiB stream (Figure 12)",
        ["Configuration", "GBps"],
    )
    for name, cfg in [
        ("CPU w/o Hoard", ShredderConfig.cpu(hoard=False)),
        ("CPU w/ Hoard", ShredderConfig.cpu(hoard=True)),
        ("GPU Basic", ShredderConfig.gpu_basic()),
        ("GPU Streams", ShredderConfig.gpu_streams()),
        ("GPU Streams + Memory", ShredderConfig.gpu_streams_memory()),
    ]:
        with Shredder(cfg) as shredder:
            table.add(name, shredder.simulate(GB).throughput_bps / 1e9)
    print(format_table(table))
    return 0


def cmd_table1(args) -> int:
    from repro.gpu import table1_rows

    table = ResultTable(
        "Performance characteristics of the GPU (NVidia Tesla C2050)",
        ["Parameter", "Value"],
    )
    for row in table1_rows():
        table.add(*row)
    print(format_table(table))
    return 0


def _free_snapshot_id(store, base: str = "cli") -> str:
    """First unused CLI snapshot id in ``store``.

    A reopened persistent store already holds earlier runs' snapshots;
    re-using their id would (correctly) be rejected by the recipe store,
    so successive CLI runs get ``cli``, ``cli-2``, ``cli-3``, ...
    """
    sid, n = base, 1
    while True:
        try:
            store.get_recipe(sid)
        except KeyError:
            return sid
        n += 1
        sid = f"{base}-{n}"


def _parse_ec(spec: str) -> tuple[int, int]:
    """Parse an ``--ec K+M`` geometry (e.g. ``4+2``)."""
    k_s, sep, m_s = spec.partition("+")
    if not sep:
        raise argparse.ArgumentTypeError(f"--ec wants K+M (e.g. 4+2), got {spec!r}")
    try:
        k, m = int(k_s), int(m_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--ec wants integers K+M, got {spec!r}")
    if k < 1 or m < 0:
        raise argparse.ArgumentTypeError(f"--ec wants K >= 1 and M >= 0, got {spec!r}")
    return k, m


def _parse_remote(remote: str) -> tuple[str, int]:
    host, sep, port_s = remote.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"--remote wants HOST:PORT, got {remote!r}")
    try:
        return host, int(port_s)
    except ValueError:
        raise SystemExit(f"--remote port {port_s!r} is not a number")


def _remote_backup(args, data: bytes) -> int:
    from repro.service import NO_RETRY, RemoteAgent, RetryPolicy
    from repro.service.protocol import RemoteError

    host, port = _parse_remote(args.remote)
    retry = RetryPolicy(attempts=max(1, args.retry)) if args.retry else NO_RETRY
    try:
        agent = RemoteAgent(
            host, port, tenant=args.tenant, retry=retry, auth=args.auth_token
        )
    except (OSError, RemoteError) as exc:
        raise SystemExit(f"cannot reach backup service at {args.remote}: {exc}")
    with agent:
        taken = set(agent.list_snapshots())
        sid, n = "cli", 1
        while sid in taken:
            n += 1
            sid = f"cli-{n}"
        try:
            report = agent.backup(data, sid)
        except RemoteError as exc:
            raise SystemExit(f"remote backup failed: {exc}")
        restored = agent.restore(sid)
    assert restored == data
    print(f"remote service {args.remote} (tenant {args.tenant!r}), "
          f"stored as snapshot {sid!r}")
    print(f"backed up {report.total_bytes} B as {report.n_chunks} chunks")
    print(f"  shipped {report.shipped_bytes} B "
          f"({report.dedup_fraction:.1%} duplicate chunks)")
    print(f"  wire ingest: {report.ingest_mib_s:.1f} MiB/s "
          f"({report.elapsed_s:.2f} s wall)")
    if report.reconnects or report.resumes or report.replayed_frames:
        print(f"  survived the wire: {report.reconnects} reconnects, "
              f"{report.resumes} resumes, {report.replayed_frames} "
              "unacked frames replayed (acked chunks never re-shipped)")
    if report.throttles:
        print(f"  paced by the service: {report.throttles} THROTTLE "
              "hints honored")
    print("  restore verified byte-exact")
    return 0


def cmd_backup(args) -> int:
    from repro.backup import BackupConfig, BackupServer

    data = _read(args.file)
    if args.remote:
        if args.backend or args.data_dir:
            raise SystemExit(
                "--remote ships to a running service; storage flags "
                "(--backend/--data-dir) belong to `repro serve`"
            )
        return _remote_backup(args, data)
    try:
        config = BackupConfig(
            engine=args.engine, backend=args.backend, data_dir=args.data_dir
        )
    except ValueError as exc:
        raise SystemExit(f"backup config rejected: {exc}")
    with BackupServer(config) as server:
        snapshot_id = _free_snapshot_id(server.agent.store)
        report = server.backup_snapshot(data, snapshot_id)
        restored = server.agent.restore(snapshot_id)
    assert restored == data
    if args.data_dir:
        print(f"persistent store: {args.data_dir} ({server.storage_kind}), "
              f"stored as snapshot {snapshot_id!r}")
    print(f"backed up {report.total_bytes} B as {report.n_chunks} chunks")
    print(f"  shipped {report.shipped_bytes} B "
          f"({report.dedup_fraction:.1%} duplicate chunks)")
    print(f"  modeled bandwidth: {report.backup_bandwidth_gbps:.2f} Gbps "
          f"(bottleneck: {report.bottleneck})")
    print("  restore verified byte-exact")
    return 0


def cmd_cluster(args) -> int:
    from repro.backup import BackupConfig, BackupServer

    data = _read(args.file)
    try:
        config = BackupConfig(
            engine=args.engine,
            backend=args.backend,
            data_dir=args.data_dir,
            store_backend="cluster",
            cluster_nodes=args.nodes,
            placement=args.placement,
            replication=args.replication,
            ec_k=args.ec[0],
            ec_m=args.ec[1],
            read_attempts=args.read_attempts,
            put_attempts=args.put_attempts,
            lookup_batch_size=args.batch_size,
        )
        server = BackupServer(config)
    except (ValueError, LookupError) as exc:
        raise SystemExit(f"cluster config rejected: {exc}")
    with server:
        snapshot_id = _free_snapshot_id(server.cluster)
        report = server.backup_snapshot(data, snapshot_id)
        cluster = server.cluster
        stats = report.lookup_stats
        if args.data_dir:
            print(f"persistent shards under {args.data_dir} "
                  f"({server.storage_kind} backend, snapshot "
                  f"{snapshot_id!r}; reopen with the same --nodes "
                  "to restore)")
        scheme_desc = (
            f"ec {args.ec[0]}+{args.ec[1]}" if args.placement == "ec"
            else f"{args.placement}, r={args.replication}"
        )
        print(f"backed up {report.total_bytes} B as {report.n_chunks} chunks "
              f"across {cluster.n_nodes_alive} nodes ({scheme_desc})")
        print(f"  shipped {report.shipped_bytes} B "
              f"({report.dedup_fraction:.1%} duplicate chunks)")
        print(f"  batched lookups: {stats.n_batches} batches of "
              f"<= {args.batch_size}, {stats.bloom_negatives} Bloom-filtered "
              f"misses, {stats.false_positives} false positives")
        print(f"  modeled bandwidth: {report.backup_bandwidth_gbps:.2f} Gbps "
              f"(bottleneck: {report.bottleneck})")
        table = ResultTable("Shard occupancy", ["Node", "Chunks", "Bytes", "State"])
        for node_id, node in sorted(cluster.nodes.items()):
            table.add(node_id, node.chunk_count, node.stored_bytes,
                      "up" if node.alive else "DOWN")
        print(format_table(table))
        if cluster.fault_plan is not None:
            injected = cluster.fault_plan.stats
            print(f"  chaos plan {cluster.fault_plan.describe()!r}: "
                  f"{injected.total} faults injected, "
                  f"{cluster.stats.degraded_reads} degraded reads, "
                  f"{cluster.stats.repairs_auto} auto-repairs")
        if args.fail_node:
            victim = max(
                cluster.nodes, key=lambda nid: cluster.nodes[nid].chunk_count
            )
            cluster.fail_node(victim)
            repair = cluster.repair()
            unit = "fragments" if args.placement == "ec" else "chunks"
            print(f"failure drill: killed {victim}; repair re-copied "
                  f"{repair.chunks_recopied} {unit} "
                  f"({repair.bytes_copied} B)")
            if not repair.healthy:
                print(f"  {len(repair.unrecoverable)} chunks unrecoverable "
                      f"({cluster.scheme.copies} cop"
                      f"{'y' if cluster.scheme.copies == 1 else 'ies'} per "
                      "chunk cannot survive a node loss)")
                return 1
        restored = server.agent.restore(snapshot_id)
    assert restored == data
    print("  restore verified byte-exact")
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service import BackupService, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            backend=args.backend,
            data_dir=args.data_dir,
            store_backend=args.store_backend,
            cluster_nodes=args.nodes,
            placement=args.placement,
            replication=args.replication,
            ec_k=args.ec[0],
            ec_m=args.ec[1],
            scrub_batch=args.scrub,
            max_sessions=args.max_sessions,
            queue_depth=args.queue_depth,
            faults=args.faults,
            stall_timeout_s=args.stall_timeout,
            resume_grace_s=args.resume_grace,
            drain_s=args.drain,
            heartbeat_s=args.heartbeat,
            auth_file=args.auth_file,
            rate_bytes_per_s=args.rate_limit,
            rate_ops_per_s=args.rate_ops,
            global_bytes_per_s=args.global_rate_limit,
            global_ops_per_s=args.global_rate_ops,
            quota_bytes=args.quota,
            quota_chunks=args.quota_chunks,
            quota_sessions=args.quota_sessions,
            restore_reserve=args.restore_reserve,
            hello_timeout_s=args.hello_timeout,
            brownout_lag_s=args.brownout_lag,
            breaker_threshold=args.breaker,
        )
    except (ValueError, OSError) as exc:
        raise SystemExit(f"serve config rejected: {exc}")
    if args.auth_file:
        from repro.service import AuthRegistry

        try:
            AuthRegistry.load(args.auth_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--auth-file rejected: {exc}")

    async def run() -> None:
        service = BackupService(config)
        await service.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-POSIX event loop
                pass
        print(f"repro backup service on {config.host}:{service.port} "
              f"({service.storage_kind} backend, {config.store_backend} "
              f"store, <= {config.max_sessions} sessions)")
        print("  agent wire protocol (SHRD1) + HTTP /health /metrics "
              "on the same port; Ctrl-C or SIGTERM to stop")
        if service.auth is not None:
            print(f"  auth: {len(service.auth)} tenants from {args.auth_file}")
        if service.limits.active:
            print(f"  rate limits: {service.limits.describe()}")
        if service.quota.active:
            print(f"  tenant quotas: {service.quota.as_dict()}")
        if service.fault_plan is not None:
            print(f"  CHAOS ACTIVE: {service.fault_plan.describe()}")
        sys.stdout.flush()
        try:
            await stop.wait()
        finally:
            await service.stop()
        print("service stopped; store closed cleanly")

    asyncio.run(run())
    return 0


def cmd_scrub(args) -> int:
    from repro.store import ChunkStoreCluster
    from repro.store.schemes import make_scheme

    root = Path(args.data_dir)
    if not root.exists():
        raise SystemExit(f"data dir {args.data_dir} does not exist")
    # `repro cluster/serve --data-dir DIR` nest shards under DIR/cluster;
    # accept either the root or the cluster dir itself.
    cluster_dir = root / "cluster" if (root / "cluster").exists() else root
    try:
        cluster = ChunkStoreCluster(
            n_nodes=args.nodes,
            scheme=make_scheme(
                args.placement,
                replicas=args.replication,
                ec_k=args.ec[0],
                ec_m=args.ec[1],
            ),
            backend="disk",
            data_dir=cluster_dir,
        )
    except (ValueError, OSError) as exc:
        raise SystemExit(f"cannot open cluster at {cluster_dir}: {exc}")
    with cluster:
        report = cluster.scrub(limit=args.limit)
        stored = sum(n.chunk_count for n in cluster.nodes.values() if n.alive)
    print(f"scrubbed {report.chunks_scanned} stored items "
          f"({report.bytes_verified} B re-digested) of {stored} "
          f"across {args.nodes} shards under {cluster_dir}")
    if report.corrupt:
        print(f"  {report.corrupt} failed verification: "
              f"{report.repaired} rebuilt from "
              f"{'parity' if args.placement == 'ec' else 'replicas'}, "
              f"{report.unrepaired} left in place (no healthy source)")
    else:
        print("  every item verified clean")
    if not report.healthy:
        return 1
    return 0


def cmd_lint(args) -> int:
    import json

    from repro.analysis.runner import run_lint

    result = run_lint(
        args.paths or ["src"],
        rules=args.rule or None,
        baseline_path=args.baseline,
    )
    if args.out or args.json:
        doc = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(doc + "\n")
        if args.json:
            print(doc)
    if not args.json:
        for finding in result.findings:
            print(finding.format())
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
        lines = ", ".join(f"{path} {n}" for path, n in result.lines.items())
        counts = (
            f"{result.checked_files} files checked ({lines} lines), "
            f"{len(result.findings)} finding(s)"
        )
        if result.suppressed:
            counts += f", {result.suppressed} suppressed"
        if result.baselined:
            counts += f", {result.baselined} baselined"
        print(counts)
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shredder (FAST 2012) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chunker_args(p):
        p.add_argument("--mask-bits", type=int, default=13,
                       help="marker mask width; expected chunk = 2^bits")
        p.add_argument("--marker", type=lambda v: int(v, 0), default=0x1A2B)
        p.add_argument("--min-size", type=int, default=0)
        p.add_argument("--max-size", type=int, default=None)

    def add_placement_args(p, with_striped: bool = True):
        choices = ("vanilla", "striped", "replicated", "ec") if with_striped \
            else ("vanilla", "replicated", "ec")
        p.add_argument("--placement", choices=choices, default="replicated")
        p.add_argument("--replication", type=int, default=2,
                       help="copies per chunk (replicated placement)")
        p.add_argument("--ec", type=_parse_ec, default=(4, 2), metavar="K+M",
                       help="erasure-coding geometry for --placement ec: "
                       "K data + M parity fragments per chunk, any K of "
                       "K+M reconstruct (default 4+2)")

    def add_storage_args(p):
        p.add_argument("--engine", choices=("gpu", "cpu"), default="gpu",
                       help="chunking engine (Shredder GPU model or "
                       "pthreads CPU baseline)")
        p.add_argument("--backend", choices=("memory", "disk"), default=None,
                       help="storage backend for the index/store state "
                       "(default: REPRO_STORE_BACKEND or memory; disk = "
                       "append-only chunk log + LSM digest index)")
        p.add_argument("--data-dir", default=None, metavar="DIR",
                       help="directory for disk-backed state; reopening "
                       "the same DIR restores every snapshot and dedup "
                       "decision (implies --backend disk)")

    p_chunk = sub.add_parser("chunk", help="content-based chunking of a file")
    p_chunk.add_argument("file")
    p_chunk.add_argument("--all", action="store_true", help="print every chunk")
    p_chunk.add_argument("--profile", action="store_true",
                         help="run the scan + hash pipeline + a dedup probe "
                         "and print the per-stage time split and scan "
                         "dispatch counters")
    add_chunker_args(p_chunk)
    p_chunk.set_defaults(fn=cmd_chunk)

    p_dedup = sub.add_parser("dedup", help="cross-file dedup statistics")
    p_dedup.add_argument("file_a")
    p_dedup.add_argument("file_b")
    add_chunker_args(p_dedup)
    p_dedup.set_defaults(fn=cmd_dedup)

    p_thr = sub.add_parser("throughput", help="Figure 12 configuration table")
    p_thr.set_defaults(fn=cmd_throughput)

    p_t1 = sub.add_parser("table1", help="simulated GPU characteristics")
    p_t1.set_defaults(fn=cmd_table1)

    p_backup = sub.add_parser("backup", help="one-shot dedup backup of a file")
    p_backup.add_argument("file")
    add_storage_args(p_backup)
    p_backup.add_argument("--remote", default=None, metavar="HOST:PORT",
                          help="ship to a running `repro serve` daemon over "
                          "the wire instead of backing up in-process")
    p_backup.add_argument("--tenant", default="default",
                          help="tenant namespace for --remote (snapshots "
                          "and dedup decisions are tenant-scoped)")
    p_backup.add_argument("--retry", type=int, default=0, metavar="N",
                          help="survive connection loss: redial up to N "
                          "times per outage and resume the snapshot "
                          "without re-shipping acked chunks (--remote)")
    p_backup.add_argument("--auth-token", default="", metavar="TOKEN",
                          help="tenant HMAC token for a service running "
                          "with --auth-file (see repro.service.limits"
                          ".auth_token)")
    p_backup.set_defaults(fn=cmd_backup)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant backup service daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9451,
                         help="listen port (0 = ephemeral, printed at boot)")
    p_serve.add_argument("--backend", choices=("memory", "disk"), default=None,
                         help="storage backend for the shared store and "
                         "tenant indexes (default: REPRO_STORE_BACKEND "
                         "or memory)")
    p_serve.add_argument("--data-dir", default=None, metavar="DIR",
                         help="root for disk-backed state; restarting on "
                         "the same DIR resumes every tenant's snapshots "
                         "(implies --backend disk)")
    p_serve.add_argument("--store-backend", choices=("single", "cluster"),
                         default="single",
                         help="backup-site payload store behind the service")
    p_serve.add_argument("--nodes", type=int, default=4,
                         help="cluster shard count (--store-backend cluster)")
    add_placement_args(p_serve)
    p_serve.add_argument("--scrub", type=int, default=0, metavar="N",
                         help="stored items the background scrubber "
                         "re-verifies per heartbeat (needs --heartbeat; "
                         "0 = off)")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="concurrent agent sessions before BUSY")
    p_serve.add_argument("--queue-depth", type=int, default=4,
                         help="bounded per-connection ingest queue (frames); "
                         "the backpressure limit")
    p_serve.add_argument("--faults", default=None, metavar="SPEC",
                         help="chaos plan, e.g. 'seed=7,backend.io_error="
                         "0.01,wire.drop=0.02,node.kill=node-1:150' "
                         "(default: REPRO_FAULTS env; '' forces off)")
    p_serve.add_argument("--stall-timeout", type=float, default=None,
                         metavar="SECS",
                         help="evict a session that sends no frame for this "
                         "long (default: no eviction)")
    p_serve.add_argument("--resume-grace", type=float, default=30.0,
                         metavar="SECS",
                         help="how long an interrupted mid-backup session "
                         "stays parked for RESUME (0 disables resume)")
    p_serve.add_argument("--drain", type=float, default=5.0, metavar="SECS",
                         help="max wait for busy sessions to finish on "
                         "shutdown before aborting them")
    p_serve.add_argument("--heartbeat", type=float, default=None,
                         metavar="SECS",
                         help="cluster failure-detector heartbeat period "
                         "(--store-backend cluster; default: off)")
    p_serve.add_argument("--auth-file", default=None, metavar="FILE",
                         help="require HELLO auth: one 'tenant: secret' "
                         "per line; clients present the HMAC token from "
                         "repro.service.limits.auth_token(secret, tenant)")
    p_serve.add_argument("--rate-limit", type=float, default=None,
                         metavar="BYTES_PER_S",
                         help="per-tenant sustained inbound payload rate; "
                         "over-rate traffic is THROTTLEd, sustained abuse "
                         "gets RETRY_LATER")
    p_serve.add_argument("--rate-ops", type=float, default=None,
                         metavar="OPS_PER_S",
                         help="per-tenant sustained data-frame rate")
    p_serve.add_argument("--global-rate-limit", type=float, default=None,
                         metavar="BYTES_PER_S",
                         help="whole-service inbound payload rate ceiling")
    p_serve.add_argument("--global-rate-ops", type=float, default=None,
                         metavar="OPS_PER_S",
                         help="whole-service data-frame rate ceiling")
    p_serve.add_argument("--quota", type=int, default=None, metavar="BYTES",
                         help="per-tenant stored-bytes quota (durable "
                         "accounting; survives a --data-dir restart)")
    p_serve.add_argument("--quota-chunks", type=int, default=None, metavar="N",
                         help="per-tenant stored-chunk quota")
    p_serve.add_argument("--quota-sessions", type=int, default=None,
                         metavar="N",
                         help="per-tenant concurrent-session quota")
    p_serve.add_argument("--restore-reserve", type=int, default=0, metavar="N",
                         help="session slots reserved for restore traffic "
                         "(backups shed first under load; 0 = off)")
    p_serve.add_argument("--hello-timeout", type=float, default=5.0,
                         metavar="SECS",
                         help="pre-auth deadline: drop connections that "
                         "never complete HELLO (slowloris defence)")
    p_serve.add_argument("--brownout-lag", type=float, default=None,
                         metavar="SECS",
                         help="enter brownout (wider decide batches, "
                         "deferred scrub, window=1) when event-loop lag "
                         "exceeds this (default: off)")
    p_serve.add_argument("--breaker", type=int, default=None, metavar="N",
                         help="open the store-path circuit breaker after N "
                         "consecutive store failures; open = fast "
                         "RETRY_LATER (default: off)")
    p_serve.set_defaults(fn=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster", help="dedup backup through the sharded chunk-store cluster"
    )
    p_cluster.add_argument("file")
    add_storage_args(p_cluster)
    p_cluster.add_argument("--nodes", type=int, default=4,
                           help="store nodes on the consistent-hash ring")
    add_placement_args(p_cluster)
    p_cluster.add_argument("--read-attempts", type=int, default=None,
                           metavar="N",
                           help="full read passes over the replica set "
                           "before a chunk is declared missing (default 3)")
    p_cluster.add_argument("--put-attempts", type=int, default=None,
                           metavar="N",
                           help="write attempts per placement target before "
                           "the error propagates (default 2)")
    p_cluster.add_argument("--batch-size", type=int, default=128,
                           help="digests per batched index lookup")
    p_cluster.add_argument("--fail-node", action="store_true",
                           help="kill the fullest node, repair, then restore")
    p_cluster.set_defaults(fn=cmd_cluster)

    p_scrub = sub.add_parser(
        "scrub",
        help="one integrity pass over a persistent cluster's shards",
    )
    p_scrub.add_argument("data_dir", metavar="DIR",
                         help="the --data-dir a `repro cluster`/`repro "
                         "serve` run persisted its shards under")
    p_scrub.add_argument("--nodes", type=int, default=4,
                         help="shard count the cluster was created with")
    add_placement_args(p_scrub)
    p_scrub.add_argument("--limit", type=int, default=None, metavar="N",
                         help="verify at most N stored items (default: "
                         "one full pass)")
    p_scrub.set_defaults(fn=cmd_scrub)

    p_lint = sub.add_parser(
        "lint",
        help="AST-based project-invariant checks over the source tree",
        description=(
            "Static analysis for the invariants generic linters don't "
            "know: zero-copy scanning on the hot path, batched-only "
            "backend probes, no blocking calls inside async def, "
            "lock-guarded shared pool state, exhaustive wire-protocol "
            "dispatch, metrics counters that reach the snapshot, and "
            "dead private helpers. Exit code: 0 clean, 1 findings, 2 "
            "internal error. Suppress one line with "
            "'# repro: lint-ok[rule] reason'."
        ),
    )
    p_lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--rule", action="append", metavar="R",
                        help="run only rule R (repeatable); see the "
                        "ROADMAP's invariant table for rule names")
    p_lint.add_argument("--json", action="store_true",
                        help="print the full JSON report instead of "
                        "path:line findings")
    p_lint.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE "
                        "(CI artifact)")
    p_lint.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of forgiven findings "
                        "(default: ./lint-baseline.json when present)")
    p_lint.set_defaults(fn=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
