"""The chunk + hash pipeline and the backup server that consumes it.

* ``pipeline_chunks`` yields exactly the chunks of the serial reference,
  in stream order, with digests prefilled, whether its scan stage runs
  one tile per buffer or many; a failure of either stage surfaces as
  ``PipelineError``; batches default to ``HASH_BATCH_BYTES``;
* the backup server's decisions match an oracle built from
  ``Shredder.process`` + a seen-set on every observable (reports,
  recipes, restores) for both engines and store backends;
* the default configuration is the measured one: one thread for
  either engine, no cache file but the native kernel's library, and
  the exact dispatch count of either scan kernel.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backup import BackupConfig, BackupServer
from repro.core import (
    Chunker,
    ChunkerConfig,
    PipelineError,
    SerialEngine,
    VectorEngine,
    pipeline_chunks,
)
from repro.core import native
from repro.core.stats import (
    reset_scan_counters,
    reset_stage_times,
    scan_counters,
    stage_times,
)
from repro.workloads import seeded_bytes
from tests.conftest import scan_kernel_as

MB = 1 << 20


def chunk_shape(chunks):
    return [(c.offset, c.length, c.digest) for c in chunks]


#: Scan stages the pipeline is driven with: the default engine (one
#: tile per buffer) and a small-geometry one that cuts every buffer into
#: many tiles.
SCANS = {
    "default-engine": lambda: None,
    "small-tiles": lambda: VectorEngine(lanes=16, tile_bytes=512),
}


class TestPipelineOrdering:
    CONFIG = ChunkerConfig(mask_bits=10, marker=0x1AB, min_size=64, max_size=4096)

    def _buffers(self, data: bytes, seed: int):
        rng = random.Random(seed)
        out, pos = [], 0
        while pos < len(data):
            step = rng.randint(1, 8 * 1024)
            out.append(data[pos : pos + step])
            pos += step
        return out

    def _expected(self, data: bytes):
        return Chunker(self.CONFIG, SerialEngine()).chunk(data)

    @pytest.mark.parametrize("scan", SCANS)
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("batch_chunks", [1, 7, 256])
    def test_batches_preserve_stream_order(self, seed, batch_chunks, scan):
        data = seeded_bytes(192 * 1024, seed=seed)
        chunker = Chunker(self.CONFIG, SCANS[scan]())
        expected = self._expected(data)
        batches = list(
            pipeline_chunks(
                chunker.candidate_cuts,
                self.CONFIG,
                self._buffers(data, seed),
                batch_chunks=batch_chunks,
            )
        )
        flat = [c for batch in batches for c in batch]
        assert chunk_shape(flat) == chunk_shape(expected)
        # Digests arrive prefilled — the hash stage ran.
        assert all(c._digest is not None for batch in batches for c in batch)
        # Offsets strictly increase: recipes can be built batch-by-batch.
        offsets = [c.offset for c in flat]
        assert offsets == sorted(offsets)
        assert all(len(b) <= batch_chunks for b in batches)

    @pytest.mark.parametrize("stage", ["scan", "hash"])
    def test_stage_error_propagates(self, stage, monkeypatch):
        from repro.core import chunking

        def explode(_):
            raise RuntimeError(f"{stage} exploded")

        candidate_fn = Chunker(self.CONFIG).candidate_cuts
        if stage == "scan":
            candidate_fn = explode
        else:
            monkeypatch.setattr(chunking, "ensure_digests", explode)
        data = seeded_bytes(16 * 1024, seed=2)
        with pytest.raises(PipelineError, match=f"{stage} exploded") as info:
            list(pipeline_chunks(candidate_fn, self.CONFIG, [data], batch_chunks=4))
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_early_close_stops_the_scan(self):
        data = seeded_bytes(256 * 1024, seed=1)
        buffers = self._buffers(data, 1)
        pulled = 0

        def feed():
            nonlocal pulled
            for buf in buffers:
                pulled += 1
                yield buf

        gen = pipeline_chunks(
            Chunker(self.CONFIG).candidate_cuts, self.CONFIG, feed(), batch_chunks=2
        )
        assert next(gen)  # at least one batch flows
        gen.close()
        assert pulled < len(buffers)  # nothing is read past the close

    def test_rejects_bad_parameters(self):
        chunker = Chunker(self.CONFIG)
        with pytest.raises(ValueError):
            list(pipeline_chunks(chunker.candidate_cuts, self.CONFIG, [], batch_chunks=0))

    @pytest.mark.parametrize("scan", SCANS)
    def test_default_batch_covers_hash_batch_bytes(self, scan, monkeypatch):
        """``batch_chunks=None`` sizes batches from ``HASH_BATCH_BYTES``,
        whatever the scan tile; chunks unchanged."""
        from repro.core import chunking

        data = seeded_bytes(128 * 1024, seed=17)
        chunker = Chunker(self.CONFIG, SCANS[scan]())
        expected = self._expected(data)
        monkeypatch.setattr(chunking, "HASH_BATCH_BYTES", 64 * 1024)
        batches = list(
            pipeline_chunks(chunker.candidate_cuts, self.CONFIG, self._buffers(data, 17))
        )
        flat = [c for batch in batches for c in batch]
        assert chunk_shape(flat) == chunk_shape(expected)
        # 64 KiB / 1 KiB expected chunks -> 64-chunk batches.
        assert all(len(b) <= 64 for b in batches)
        assert len(batches[0]) == 64

    @pytest.mark.parametrize("scan", SCANS)
    def test_stage_timers_accumulate(self, scan):
        """The scan/hash stage split is recorded."""
        data = seeded_bytes(128 * 1024, seed=23)
        reset_stage_times()
        list(
            pipeline_chunks(
                Chunker(self.CONFIG, SCANS[scan]()).candidate_cuts,
                self.CONFIG,
                self._buffers(data, 23),
                batch_chunks=16,
            )
        )
        times = stage_times()
        assert times.get("scan", 0.0) > 0.0
        assert times.get("hash", 0.0) > 0.0
        reset_stage_times()


class TestPipelinedBackupServer:
    @pytest.mark.parametrize("store_backend", ["single", "cluster"])
    @pytest.mark.parametrize("engine", ["gpu", "cpu"])
    def test_matches_oracle(self, engine, store_backend):
        """Many small batches decide exactly what one whole-stream pass
        over ``Shredder.process`` output with a plain seen-set decides."""
        from repro.backup import MasterImage, SimilarityTable
        from repro.core import Shredder, ShredderConfig

        image = MasterImage(size=1 << 20, segment_size=32 * 1024, seed=31)
        t = SimilarityTable.uniform(0.3, image.n_segments)
        snap = image.snapshot(t, 2)
        cfg = BackupConfig(
            engine=engine,
            store_backend=store_backend,
            pipeline_batch_chunks=19,  # force many small batches
        )
        oracle = Shredder(ShredderConfig(backend=engine, chunker=cfg.chunker))
        stored: set[bytes] = set()
        with BackupServer(cfg) as server:
            for snapshot_id, data in (("master", image.data), ("gen", snap)):
                report = server.backup_snapshot(data, snapshot_id)
                chunks = oracle.process(data)[0]
                unique = []
                for chunk in chunks:
                    if chunk.digest not in stored:
                        stored.add(chunk.digest)
                        unique.append(chunk)
                assert report.n_chunks == len(chunks)
                assert report.duplicate_chunks == len(chunks) - len(unique)
                assert report.shipped_bytes == sum(c.length for c in unique)
                recipe = server.agent.store.get_recipe(snapshot_id)
                assert list(recipe.digests) == [c.digest for c in chunks]
                assert server.agent.restore(snapshot_id) == data

    def test_recipe_preserves_stream_order(self):
        data = seeded_bytes(1 << 20, seed=5)
        with BackupServer(BackupConfig(pipeline_batch_chunks=11)) as server:
            server.backup_snapshot(data, "snap")
            recipe = server.agent.store.get_recipe("snap")
            restored = b"".join(
                server.agent.store.get_chunk(d) for d in recipe.digests
            )
        assert restored == data

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            BackupConfig(pipeline_batch_chunks=0)


#: A default server's full + incremental backup and restore, in a fresh
#: interpreter; prints how many threads it left behind.
_DEFAULT_BACKUP = """
import sys
import threading
from repro.backup import BackupConfig, BackupServer
from repro.workloads import seeded_bytes

before = set(threading.enumerate())
full = seeded_bytes(2 << 20, seed=41)
incr = full[: 1 << 20] + seeded_bytes(64 << 10, seed=42) + full[(1 << 20) + (64 << 10) :]
with BackupServer(BackupConfig(engine=sys.argv[1])) as server:
    server.backup_snapshot(full, "full")
    server.backup_snapshot(incr, "incr")
    assert server.agent.restore("incr") == incr
print(len(set(threading.enumerate()) ^ before))
"""


class TestDefaultConfiguration:
    @pytest.mark.parametrize("engine", ["gpu", "cpu"])
    def test_default_backup_starts_no_thread_and_caches_only_the_kernel(self, engine, tmp_path):
        """No thread, and nothing in ``~/.cache/repro`` but the native
        scan kernel's library (no tuner cache, no build leftovers)."""
        env = dict(os.environ, HOME=str(tmp_path))
        for name in ("REPRO_THREADS", "REPRO_AUTOTUNE", "REPRO_AUTOTUNE_CACHE", "XDG_CACHE_HOME"):
            env.pop(name, None)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _DEFAULT_BACKUP, engine],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-1] == "0"
        built = [] if native.kernel() is None else [f"rabin-{native._tag()}.so"]
        assert [p.name for p in (tmp_path / ".cache" / "repro").iterdir()] == built

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_static_geometry_exact_dispatch_count(self, kernel):
        """A 24 MiB image is one scan.  The native kernel runs it as one
        dispatch; the NumPy fallback scans it in 1 MiB tiles of 4096
        lanes, 8 rows per block: 6 seed blocks + 32 roll blocks = 38
        dispatches per MiB.  Both are counts the benchmark suite treats
        as exact."""
        data = np.random.default_rng(2012).bytes(24 * MB)
        reset_scan_counters()
        with scan_kernel_as(kernel), BackupServer() as server:
            server.backup_snapshot(data, "g0")
        counters = scan_counters()
        reset_scan_counters()
        assert counters.scanned_bytes == len(data)
        assert counters.scans == 1
        if kernel == "native":
            assert counters.geometry == {"kernel": "native"}
            assert counters.dispatches == 1
        else:
            assert counters.geometry == {"lanes": 4096, "tile_bytes": MB, "roll_steps": 8}
            assert counters.dispatches / 24 == 38
