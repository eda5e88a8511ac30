"""The four benchmark workloads: seeded inputs, one repetition, cold start.

Every workload drives the system through its public callables only
(``BackupServer``, ``BackupService``, ``AsyncBackupClient``) and is
measured from outside.  A *repetition* builds a fresh system, runs
full -> incr -> restore with every operation timed by :class:`Clock`,
verifies every restored snapshot byte-exact (outside the timer) and
tears the system down.  Inputs come from ``--seed`` alone; the program under test only
ever sees the generated bytes.

Import this module only after the environment is pinned (see
``run.py``): it imports ``repro``.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import shutil
import time
from contextlib import contextmanager

import numpy as np

from repro.backup import BackupConfig, BackupServer
from repro.core import stats as core_stats
from repro.core.shredder import Shredder, ShredderConfig
from repro.service import AsyncBackupClient, BackupService, ServiceConfig

MIB = 1 << 20
GIB = 1 << 30
#: Churn granularity of the image generations (the §7.3 similarity
#: table's segment, at the size the issue fixes).
SEGMENT = 32 * 1024
#: Fixed image of the cold-start probe (``setup_s``), whatever the seed.
COLD_START_BYTES = 2 * MIB
COLD_START_SEED = 2012


class Clock:
    """Wall + CPU interval of every timed operation.

    ``ops`` rows are ``(rep, phase, key, wall0, wall1, cpu0, cpu1)``.
    ``key`` names the operation inside its phase (which snapshot), so
    the same operation can be compared across repetitions and restore
    passes: every repetition runs the same operations on a fresh system.
    """

    def __init__(self) -> None:
        self.rep = -1
        self.ops: list[tuple[int, str, int, float, float, float, float]] = []

    @staticmethod
    def settle() -> None:
        """Call before a phase: a full collection now keeps collector
        pauses over the previous phase's garbage out of the samples."""
        gc.collect()

    @contextmanager
    def op(self, phase: str, key: int):
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            yield
        finally:
            wall1 = time.perf_counter()
            cpu1 = time.process_time()
            self.ops.append((self.rep, phase, key, wall0, wall1, cpu0, cpu1))


class Ops:
    """Attempted / failed operation counts.

    An operation is one backup, one restore or one byte-exact
    verification; an exception, a typed refusal or a mismatch fails it.
    """

    def __init__(self, flip_restored_byte: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error = ""
        #: Test hook: corrupt one byte of the next restored snapshot
        #: before it is verified, to prove the check is live.
        self.flip_restored_byte = flip_restored_byte

    def _fail(self, message: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = message

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # boundary: the run goes on and reports it
            self._fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    async def run_async(self, coro):
        self.attempted += 1
        try:
            return await coro
        except Exception as exc:  # boundary: the run goes on and reports it
            self._fail(f"{exc!r}")
            return None

    def verify(self, snapshot_id: str, restored, expected: bytes) -> None:
        self.attempted += 1
        if restored is not None and self.flip_restored_byte:
            self.flip_restored_byte = False
            mid = len(restored) // 2
            restored = (
                restored[:mid] + bytes([restored[mid] ^ 0x01]) + restored[mid + 1 :]
            )
        if restored != expected:
            self._fail(f"restore of {snapshot_id!r} is not byte-exact")


def image_generations(
    rng: np.random.Generator, size: int, generations: int, churn: float = 0.10
) -> list[bytes]:
    """Generation 0 is random; each later one rewrites ``churn`` of the
    segments of its predecessor.

    The rewritten segments are one per stratum of ``1 / churn``
    segments, never the stratum's last, so every seed rewrites the same
    number of segments in the same number of separate runs: how much is
    new does not depend on the seed, only where it is and what it holds
    (which keeps the dedup ratios of two seeds within a fraction of a
    percent of each other).
    """
    size -= size % SEGMENT
    current = bytearray(rng.bytes(size))
    out = [bytes(current)]
    stride = round(1 / churn)
    for _ in range(1, generations):
        for first in range(0, size // SEGMENT - stride + 1, stride):
            i = first + int(rng.integers(0, stride - 1))
            current[i * SEGMENT : (i + 1) * SEGMENT] = rng.bytes(SEGMENT)
        out.append(bytes(current))
    return out


def _share(part: float, whole: float) -> float:
    """``part / whole``; 0 when a failed repetition left nothing to divide by."""
    return part / whole if whole else 0.0


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, names in os.walk(root)
        for name in names
    )


class Workload:
    """Base: sizes, the restore-sample floor and the shared plumbing."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        #: A repetition loops whole restore passes over every snapshot
        #: until they add up to this long: that loop is its restore sample.
        self.min_restore_s = 0.5 * min(1.0, scale)
        self.full_bytes = 0
        self.incr_bytes = 0
        #: Bytes one restore pass over every snapshot returns.
        self.restore_pass_bytes = 0

    @property
    def user_bytes(self) -> int:
        return self.full_bytes + self.incr_bytes

    def _scaled(self, nbytes: int) -> int:
        return max(10 * SEGMENT, int(nbytes * self.scale))  # >= one churn stratum

    def generate(self) -> None:
        """Build the inputs from ``self.seed`` (not needed to cold-start)."""
        raise NotImplementedError

    def repetition(self, clock: Clock, ops: Ops) -> dict:
        """Run one repetition; returns ``counts`` (must repeat exactly
        from repetition to repetition), ``gauges`` (timings and
        high-water marks that need not) and ``chunks`` backed up."""
        raise NotImplementedError

    def cold_start(self, ops: Ops) -> None:
        """``setup_s`` body: bring the system up, back up + restore +
        verify one fixed 2 MiB image, tear down."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# in-process BackupServer workloads
# ----------------------------------------------------------------------


class ServerWorkload(Workload):
    """A ``BackupServer`` fed snapshots directly (no wire)."""

    #: Close the server and open a new one on the same ``data_dir``
    #: between the last backup and the first restore.
    restart = False

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        self.full: list[tuple[str, bytes]] = []
        self.incr: list[tuple[str, bytes]] = []

    def _sized(self) -> None:
        self.full_bytes = sum(len(d) for _, d in self.full)
        self.incr_bytes = sum(len(d) for _, d in self.incr)
        self.restore_pass_bytes = self.user_bytes

    def config(self, data_dir: str | None) -> BackupConfig:
        return BackupConfig()

    def repetition(self, clock: Clock, ops: Ops) -> dict:
        data_dir = None
        if self.restart:
            data_dir = os.path.join(self.workdir, f"rep{clock.rep}")
            os.makedirs(data_dir)
        gauges: dict[str, float] = {}
        gc.collect()  # drop the last repetition's stats objects first
        base = core_stats.snapshot()["backends"]
        core_stats.reset_scan_counters()
        config = self.config(data_dir)
        servers = [BackupServer(config)]
        try:
            srv = servers[0]
            reports = []
            for phase, snapshots in (("full", self.full), ("incr", self.incr)):
                clock.settle()
                for key, (sid, data) in enumerate(snapshots):
                    with clock.op(phase, key):
                        reports.append(ops.run(srv.backup_snapshot, data, sid))
            reports = [r for r in reports if r is not None]
            stored = srv.agent.store.stored_bytes
            if self.restart:
                node_stats = [n.stats for n in srv.cluster.nodes.values()]
                t0 = time.perf_counter()
                srv.close()
                t1 = time.perf_counter()
                srv = BackupServer(config)
                gauges["store.backend.open_s"] = time.perf_counter() - t1
                gauges["store.backend.close_s"] = t1 - t0
                servers.append(srv)
            snapshots = self.full + self.incr
            restore_s = 0.0
            while True:
                clock.settle()
                for key, (sid, data) in enumerate(snapshots):
                    t0 = time.perf_counter()
                    with clock.op("restore", key):
                        restored = ops.run(srv.agent.restore, sid)
                    restore_s += time.perf_counter() - t0
                    ops.verify(sid, restored, data)
                restored = None
                if restore_s >= self.min_restore_s:
                    break
        finally:
            for srv in servers:
                srv.close()
        scan = core_stats.scan_counters()
        n_chunks = sum(r.n_chunks for r in reports)
        counts = {
            "shipped_bytes": sum(r.shipped_bytes for r in reports),
            "stored_bytes": stored,
            "core.engines.dispatches_per_mib": _share(scan.dispatches, scan.scanned_bytes / MIB),
            "core.chunking.chunks_per_mib": n_chunks / (self.user_bytes / MIB),
            "core.dedup.hit_share": _share(sum(r.duplicate_chunks for r in reports), n_chunks),
        }
        if self.restart:
            # `servers` kept both generations alive, so the registry
            # still aggregates them (it holds stats objects weakly).
            backends = core_stats.snapshot()["backends"]
            lookups = [r.lookup_stats for r in reports]
            probes = sum(s.probes for s in node_stats)
            counts.update({
                "store.lookup.index_walks_per_digest": _share(
                    sum(s.index_walks for s in lookups), sum(s.n_digests for s in lookups)
                ),
                "store.erasure.parity_decodes": sum(
                    s.cluster.stats.ec_parity_decodes for s in servers
                ),
                "store.node.probes_per_chunk": _share(probes, n_chunks),
                "store.node.bloom_negative_share": _share(
                    sum(s.bloom_negatives for s in node_stats), probes
                ),
                "store.backend.memtable_flushes": (
                    backends.get("memtable_flushes", 0) - base.get("memtable_flushes", 0)
                ),
                "store.backend.compactions": (
                    backends.get("compactions", 0) - base.get("compactions", 0)
                ),
                "store.backend.disk_bytes_per_user_byte": (
                    _tree_bytes(data_dir) / self.user_bytes
                ),
            })
            shutil.rmtree(data_dir)
        return {"counts": counts, "gauges": gauges, "chunks": n_chunks}

    def cold_start(self, ops: Ops) -> None:
        data = np.random.default_rng(COLD_START_SEED).bytes(COLD_START_BYTES)
        data_dir = os.path.join(self.workdir, "cold") if self.restart else None
        with BackupServer(self.config(data_dir)) as srv:
            ops.run(srv.backup_snapshot, data, "cold")
            ops.verify("cold", ops.run(srv.agent.restore, "cold"), data)


class ImageStream(ServerWorkload):
    """One 24 MiB image, generation 0 plus two at 10% churn, through the
    in-process server: scan, select and hash do nearly all the work —
    the paper's §7.3 case study, where a kernel or pipeline change
    must show."""

    name = "image_stream"

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        gens = image_generations(rng, self._scaled(24 * MIB), 3)
        self.full = [("g0", gens[0])]
        self.incr = [(f"g{i}", g) for i, g in enumerate(gens) if i]
        self._sized()


class SmallFiles(ServerWorkload):
    """80 files of 64 KiB-1 MiB (~27 MiB), each its own snapshot;
    generation 1 rewrites a 10% region in ~15% of them.  The same core
    layer used differently: per-call and per-snapshot fixed cost
    decides the rate, so a size-aware fast path shows here and must not
    move ``image_stream``."""

    name = "small_files"

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n_files = max(8, round(80 * self.scale))
        lo, hi = math.log(64 * 1024), math.log(MIB)
        # Log-uniform quantiles, not draws: every seed gets the same
        # ladder of sizes (and total), in a seed-chosen order.
        ladder = [int(math.exp(lo + (hi - lo) * (i + 0.5) / n_files)) for i in range(n_files)]
        if self.scale < 1.0:
            ladder = [max(16 * 1024, int(s * self.scale)) for s in ladder]
        order = rng.permutation(n_files)
        files = [rng.bytes(ladder[i]) for i in order]
        # Generation 1 rewrites a 10% region in every 7th rung of the
        # ladder (~15% of the files), starting at a seed-chosen rung.
        first = int(rng.integers(0, 7))
        changed = {rank for rank in range(first, n_files, 7)}
        later = []
        for pos, rank in enumerate(order):
            data = files[pos]
            if rank in changed:
                span = len(data) // 10
                at = int(rng.integers(0, len(data) - span))
                data = data[:at] + rng.bytes(span) + data[at + span :]
            later.append(data)
        self.full = [(f"g0/{i:03d}", d) for i, d in enumerate(files)]
        self.incr = [(f"g1/{i:03d}", d) for i, d in enumerate(later)]
        self._sized()


class ClusterEcDisk(ServerWorkload):
    """One 5 MiB image x 3 generations into an 8-node EC(4+2) cluster on
    the disk backend (fsync off, ``data_dir`` inside the checkout),
    restarted before restore: ring placement, Bloom/lookup,
    Reed-Solomon, node and log+LSM do ~80% of the work."""

    name = "cluster_ec_disk"
    restart = True

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        # One pass only (~0.5 s): the restore sample is the read of what
        # backup wrote right after the restart, not a warm second pass.
        self.min_restore_s = 0.0

    def config(self, data_dir: str | None) -> BackupConfig:
        return BackupConfig(
            store_backend="cluster",
            cluster_nodes=8,
            placement="ec",
            backend="disk",
            data_dir=data_dir,
        )

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        gens = image_generations(rng, self._scaled(5 * MIB), 3)
        self.full = [("g0", gens[0])]
        self.incr = [(f"g{i}", g) for i, g in enumerate(gens) if i]
        self._sized()


# ----------------------------------------------------------------------
# loopback service workload
# ----------------------------------------------------------------------

#: Chunks per DIGEST / CHUNK / POINTER batch on the wire.
WIRE_BATCH = 256

#: ServiceMetrics counters that mean the server intervened in the load
#: (throttled, shed, refused); any of them voids a run.
INTERVENTIONS = (
    "throttles_sent", "retry_later_sent", "sessions_shed", "sessions_rejected",
    "quota_rejections", "errors_sent",
)


class RemoteIngest(Workload):
    """Two tenants, one connection each, ship pre-chunked 24 MiB images
    x 3 generations to a loopback ``BackupService`` in 256-chunk
    batches, then restore over the wire.  Codec, event loop, tenant
    gate and store put do the work — server ingest capacity, where a
    wire or admission change shows and a kernel change must not."""

    name = "remote_ingest"
    tenants = ("tenant-a", "tenant-b")

    def generate(self) -> None:
        #: tenant -> generations, and tenant -> per generation the
        #: chunk list ``(digest, offset, length)`` set-up already cut
        #: and hashed (client chunking lives on other machines).
        self.images: dict[str, list[bytes]] = {}
        self.chunks: dict[str, list[list[tuple[bytes, int, int]]]] = {}
        shredder = Shredder(
            ShredderConfig.gpu_streams_memory(chunker=BackupConfig().chunker)
        )
        try:
            for t, tenant in enumerate(self.tenants):
                rng = np.random.default_rng([self.seed, 4, t])
                gens = image_generations(rng, self._scaled(24 * MIB), 3)
                self.images[tenant] = gens
                self.chunks[tenant] = [
                    [
                        (c.digest, c.offset, c.length)
                        for batch in shredder.pipeline_batches(gen)
                        for c in batch
                    ]
                    for gen in gens
                ]
        finally:
            shredder.close()
        size = len(self.images[self.tenants[0]][0])
        self.full_bytes = size * len(self.tenants)
        self.incr_bytes = 2 * self.full_bytes
        self.restore_pass_bytes = self.user_bytes

    async def _ship(self, client: AsyncBackupClient, tenant: str, gen: int, tally: dict) -> None:
        """One snapshot through the batched wire surface, closed loop:
        one frame in flight on this connection at any time."""
        view = memoryview(self.images[tenant][gen])
        chunks = self.chunks[tenant][gen]
        await client.begin_snapshot(f"g{gen}")
        for lo in range(0, len(chunks), WIRE_BATCH):
            batch = chunks[lo : lo + WIRE_BATCH]
            flags = await client.decide_chunks(
                [c[0] for c in batch], [c[2] for c in batch]
            )
            tally["chunks"] += len(batch)
            i = 0
            while i < len(batch):
                j = i
                while j < len(batch) and flags[j] == flags[i]:
                    j += 1
                run = batch[i:j]
                if flags[i]:
                    tally["duplicates"] += len(run)
                    await client.ship_pointers([c[0] for c in run])
                else:
                    tally["shipped_bytes"] += sum(c[2] for c in run)
                    await client.ship_chunks(
                        [(c[0], view[c[1] : c[1] + c[2]]) for c in run]
                    )
                i = j
        await client.finish_snapshot(f"g{gen}")

    async def _repetition(self, clock: Clock, ops: Ops) -> dict:
        tally = {"chunks": 0, "duplicates": 0, "shipped_bytes": 0}
        service = BackupService(ServiceConfig())
        await service.start()
        clients: dict[str, AsyncBackupClient] = {}
        try:
            for tenant in self.tenants:
                clients[tenant] = await AsyncBackupClient.connect(
                    "127.0.0.1", service.port, tenant=tenant
                )
            # One operation = one generation from both tenants at once
            # (their frames interleave on the server's event loop).
            for phase, gens in (("full", (0,)), ("incr", (1, 2))):
                clock.settle()
                for gen in gens:
                    with clock.op(phase, gen):
                        await asyncio.gather(*(
                            ops.run_async(self._ship(clients[t], t, gen, tally))
                            for t in self.tenants
                        ))
            # Frame counts cover the backup phases only: a repetition
            # loops a clock-dependent number of restore passes.
            frames = service.metrics.frames_received + service.metrics.frames_sent
            restore_s = 0.0
            while True:
                clock.settle()
                for gen in range(3):
                    t0 = time.perf_counter()
                    with clock.op("restore", gen):
                        restored = await asyncio.gather(*(
                            ops.run_async(clients[t].restore(f"g{gen}")) for t in self.tenants
                        ))
                    restore_s += time.perf_counter() - t0
                    for tenant, out in zip(self.tenants, restored):
                        ops.verify(f"{tenant}/g{gen}", out, self.images[tenant][gen])
                    restored = out = None  # free a generation before the next
                if restore_s >= self.min_restore_s:
                    break
            stored = service.store.stored_bytes
            metrics = service.metrics.to_dict()
        finally:
            for client in clients.values():
                await client.close()
            await service.stop()
        interventions = sum(metrics[name] for name in INTERVENTIONS)
        if interventions:
            ops.failed += 1  # the server shaped the load: the run is void
            ops.first_error = ops.first_error or f"{interventions} server interventions"
        latency = metrics["latency"]
        counts = {
            "shipped_bytes": tally["shipped_bytes"],
            "stored_bytes": stored,
            "core.dedup.hit_share": _share(tally["duplicates"], tally["chunks"]),
            "service.server.frames_per_gib": frames / (self.user_bytes / GIB),
            "service.server.interventions": interventions,
        }
        gauges = {
            "service.server.decide_svc_ms_mean": latency["decide"]["mean_ms"],
            "service.server.chunk_svc_ms_mean": latency["chunk"]["mean_ms"],
            "service.server.pointer_svc_ms_mean": latency["pointer"]["mean_ms"],
            "service.server.max_queue_depth": metrics["max_queue_depth"],
            "service.server.backpressure_waits": metrics["backpressure_waits"],
        }
        return {"counts": counts, "gauges": gauges, "chunks": tally["chunks"]}

    def repetition(self, clock: Clock, ops: Ops) -> dict:
        return asyncio.run(self._repetition(clock, ops))

    async def _cold_start(self, ops: Ops) -> None:
        data = np.random.default_rng(COLD_START_SEED).bytes(COLD_START_BYTES)
        async with BackupService(ServiceConfig()) as service:
            async with await AsyncBackupClient.connect(
                "127.0.0.1", service.port, tenant=self.tenants[0]
            ) as client:
                await ops.run_async(client.backup(data, "cold"))
                ops.verify("cold", await ops.run_async(client.restore("cold")), data)

    def cold_start(self, ops: Ops) -> None:
        asyncio.run(self._cold_start(ops))


WORKLOADS = {w.name: w for w in (ImageStream, SmallFiles, ClusterEcDisk, RemoteIngest)}
