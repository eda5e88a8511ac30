"""Threaded tile scan + stage-overlapped pipeline (PR 3).

Differential guarantees under test:

* the threaded region scan is bit-identical to ``SerialEngine`` across
  tile-seam edge cases (cut exactly on a seam, window larger than the
  tile, tiny inputs, markerless data);
* the scan → hash → consume pipeline yields exactly the chunks of the
  serial streaming path, in stream order, with digests prefilled;
* the backup server's decisions match an oracle built from
  ``Shredder.process`` + a seen-set on every observable (reports,
  recipes, restores) for both engines and store backends;
* the ``REPRO_THREADS`` / ``set_threads`` knob and the shared pools
  behave (0/1 = serial, pools survive close/reuse cycles).
"""

from __future__ import annotations

import random

import pytest

from repro.backup import BackupConfig, BackupServer
from repro.core import (
    Chunker,
    ChunkerConfig,
    PipelineError,
    SerialEngine,
    VectorEngine,
    close_pools,
    get_threads,
    parallel_candidate_cuts,
    pipeline_chunks,
    set_threads,
)
from repro.core.chunking import stream_chunks
from repro.core.hashing import digest_many
from repro.core import threads as threads_mod
from repro.workloads import seeded_bytes

MASK = (1 << 13) - 1
MARKER = 0x1A2B & MASK
#: Small-geometry config so a few KiB of data crosses many tiles/seams.
SMALL = dict(lanes=16, tile_bytes=512)


def chunk_shape(chunks):
    return [(c.offset, c.length, c.digest) for c in chunks]


@pytest.fixture(autouse=True)
def _restore_threads():
    yield
    set_threads(None)


class TestThreadsConfig:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert get_threads() == 3

    def test_env_serial_values(self, monkeypatch):
        for raw in ("0", "1"):
            monkeypatch.setenv("REPRO_THREADS", raw)
            assert get_threads() <= 1

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            get_threads()

    def test_set_threads_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "2")
        set_threads(6)
        assert get_threads() == 6
        set_threads(None)
        assert get_threads() == 2

    def test_set_threads_rejects_negative(self):
        with pytest.raises(ValueError):
            set_threads(-1)

    def test_close_pools_idempotent_and_reusable(self):
        pool = threads_mod.scan_pool(2)
        assert pool.submit(lambda: 21 * 2).result() == 42
        close_pools()
        close_pools()  # second close is a no-op
        fresh = threads_mod.scan_pool(2)
        assert fresh is not pool
        assert fresh.submit(lambda: 7).result() == 7

    def test_serial_threads_disable_hash_pool(self):
        set_threads(1)
        pieces = [bytes([i]) * 4096 for i in range(64)]
        assert digest_many(pieces, parallel=True) == digest_many(
            pieces, parallel=False
        )


class TestThreadedScanDifferential:
    """Threaded region scan vs the pure-Python rolling reference."""

    @pytest.fixture(scope="class")
    def serial(self) -> SerialEngine:
        return SerialEngine()

    @pytest.mark.parametrize("threads", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_small_tiles(self, serial, threads, seed):
        set_threads(4)  # force real pool execution regardless of host CPUs
        data = seeded_bytes(16 * 1024, seed=seed)
        ve = VectorEngine(threads=threads, **SMALL)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_cut_exactly_on_seam(self, serial):
        """Force a region seam exactly at (and around) a known cut."""
        data = seeded_bytes(32 * 1024, seed=7)
        cuts = serial.candidate_cuts(data, MASK, MARKER)
        assert cuts, "fixture data must contain at least one marker"
        w = serial.fingerprinter.window_size
        for cut in cuts[:3]:
            start = cut - w  # window-start offset of the marker window
            for tile in (start - 1, start, start + 1):
                if tile < 1:
                    continue
                # min_region == tile_bytes, so seams land at multiples
                # of ``tile`` in window-start space.
                ve = VectorEngine(lanes=8, tile_bytes=tile, threads=64)
                assert ve.candidate_cuts(data, MASK, MARKER) == cuts

    def test_window_larger_than_tile(self, serial):
        data = seeded_bytes(8 * 1024, seed=11)
        w = serial.fingerprinter.window_size
        ve = VectorEngine(lanes=4, tile_bytes=w // 3, threads=6)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_tiny_inputs(self, serial):
        ve = VectorEngine(lanes=4, tile_bytes=8, threads=4)
        w = ve.window_size
        for n in (0, 1, w - 1, w, w + 1, w + 7):
            data = seeded_bytes(max(n, 1), seed=n)[:n]
            assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
                data, MASK, MARKER
            )

    def test_markerless_data(self, serial):
        # A constant-byte run yields one fingerprint for every window;
        # pick a byte whose fingerprint misses the marker.
        for fill in range(256):
            data = bytes([fill]) * 8192
            if not serial.candidate_cuts(data[:256], MASK, MARKER):
                break
        else:  # pragma: no cover - defensive
            pytest.skip("every constant byte hits the marker?!")
        ve = VectorEngine(lanes=8, tile_bytes=256, threads=5)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_follows_process_default(self, monkeypatch):
        data = seeded_bytes(64 * 1024, seed=3)
        ve = VectorEngine(**SMALL)  # threads=None follows the setting
        set_threads(1)
        serial_cuts = ve.candidate_cuts(data, MASK, MARKER)
        assert ve.effective_threads() == 1
        set_threads(4)
        assert ve.effective_threads() == 4
        assert ve.candidate_cuts(data, MASK, MARKER) == serial_cuts

    def test_parallel_candidate_cuts_shared_with_host_chunker(self):
        """The folded implementation: engine-level region scan equals a
        region split at any worker count, SerialEngine included."""
        data = seeded_bytes(4096, seed=13)
        serial = SerialEngine()
        expected = serial.candidate_cuts(data, MASK, MARKER)
        for workers in (1, 2, 3, 7):
            got = parallel_candidate_cuts(
                serial, data, MASK, MARKER, workers
            ).tolist()
            assert got == expected

    def test_chunker_end_to_end_threaded(self):
        """Full Chunker (min/max + digests) over a threaded engine."""
        config = ChunkerConfig(min_size=512, max_size=4096)
        data = seeded_bytes(96 * 1024, seed=21)
        reference = Chunker(config, SerialEngine()).chunk(data)
        threaded = Chunker(
            config, VectorEngine(threads=4, **SMALL)
        ).chunk(data)
        assert chunk_shape(threaded) == chunk_shape(reference)


class TestFusedKernelUnderThreads:
    """Fused S-step roll under region fan-out: seam-exact at any width.

    The fused kernel must compose with ``parallel_candidate_cuts`` the
    same way the 1-step loop does — every (threads, roll_steps) pairing
    reproduces the pure-Python reference bit-exactly, including seams
    landing mid-launch-block.
    """

    @pytest.fixture(scope="class")
    def serial(self) -> SerialEngine:
        return SerialEngine()

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("steps", [2, 8, 32])
    def test_fuzz_threads_x_steps(self, serial, threads, steps):
        set_threads(4)
        data = seeded_bytes(24 * 1024, seed=steps * 7 + threads)
        ve = VectorEngine(threads=threads, roll_steps=steps, **SMALL)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_cut_on_seam_fused(self, serial):
        """Seams placed exactly at (and around) known cuts, fused kernel."""
        data = seeded_bytes(32 * 1024, seed=7)
        cuts = serial.candidate_cuts(data, MASK, MARKER)
        assert cuts, "fixture data must contain at least one marker"
        w = serial.fingerprinter.window_size
        for cut in cuts[:2]:
            start = cut - w
            for tile in (start - 1, start, start + 1):
                if tile < 1:
                    continue
                ve = VectorEngine(lanes=8, tile_bytes=tile, threads=64, roll_steps=8)
                assert ve.candidate_cuts(data, MASK, MARKER) == cuts

    def test_window_larger_than_tile_fused(self, serial):
        data = seeded_bytes(8 * 1024, seed=11)
        w = serial.fingerprinter.window_size
        ve = VectorEngine(lanes=4, tile_bytes=w // 3, threads=6, roll_steps=32)
        assert ve.candidate_cuts(data, MASK, MARKER) == serial.candidate_cuts(
            data, MASK, MARKER
        )

    def test_chunker_end_to_end_fused_threaded(self):
        config = ChunkerConfig(min_size=512, max_size=4096)
        data = seeded_bytes(96 * 1024, seed=22)
        reference = Chunker(config, SerialEngine()).chunk(data)
        fused = Chunker(
            config, VectorEngine(threads=4, roll_steps=8, **SMALL)
        ).chunk(data)
        assert chunk_shape(fused) == chunk_shape(reference)


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

    @pytest.mark.parametrize("workers", [1, 4])  # inline and threaded paths
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("batch_chunks", [1, 7, 256])
    def test_batches_preserve_stream_order(self, seed, batch_chunks, workers):
        set_threads(workers)
        data = seeded_bytes(192 * 1024, seed=seed)
        chunker = Chunker(self.CONFIG)
        expected = list(chunker.chunk_stream(self._buffers(data, seed)))
        batches = list(
            pipeline_chunks(
                chunker.candidate_cuts,
                self.CONFIG,
                self._buffers(data, seed),
                batch_chunks=batch_chunks,
                queue_depth=2,
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

    @pytest.mark.parametrize("workers", [1, 4])  # same error type both ways
    def test_stage_error_propagates(self, workers):
        set_threads(workers)

        def bad_candidates(data):
            raise RuntimeError("scan exploded")

        with pytest.raises(PipelineError, match="scan exploded"):
            list(
                pipeline_chunks(
                    bad_candidates, self.CONFIG, [b"x" * 4096], batch_chunks=4
                )
            )

    def test_early_close_stops_workers(self):
        set_threads(4)  # worker-thread teardown is the interesting case
        data = seeded_bytes(256 * 1024, seed=1)
        gen = pipeline_chunks(
            Chunker(self.CONFIG).candidate_cuts,
            self.CONFIG,
            self._buffers(data, 1),
            batch_chunks=2,
            queue_depth=1,
        )
        assert next(gen)  # at least one batch flows
        gen.close()  # must not hang or leak the worker threads

    def test_rejects_bad_parameters(self):
        chunker = Chunker(self.CONFIG)
        with pytest.raises(ValueError):
            list(pipeline_chunks(chunker.candidate_cuts, self.CONFIG, [], batch_chunks=0))
        with pytest.raises(ValueError):
            list(pipeline_chunks(chunker.candidate_cuts, self.CONFIG, [], queue_depth=0))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_default_batch_covers_hash_batch_bytes(self, workers, monkeypatch):
        """``batch_chunks=None`` sizes batches from ``HASH_BATCH_BYTES``,
        whatever the scan tile; chunks unchanged."""
        from repro.core import chunking
        from repro.core.autotune import ScanGeometry, clear_geometry, set_geometry

        set_threads(workers)
        data = seeded_bytes(128 * 1024, seed=17)
        chunker = Chunker(self.CONFIG)
        expected = list(chunker.chunk_stream(self._buffers(data, 17)))
        monkeypatch.setattr(chunking, "HASH_BATCH_BYTES", 64 * 1024)
        set_geometry(ScanGeometry(tile_bytes=16 * 1024))
        try:
            batches = list(
                pipeline_chunks(
                    chunker.candidate_cuts, self.CONFIG, self._buffers(data, 17)
                )
            )
        finally:
            clear_geometry()
        flat = [c for batch in batches for c in batch]
        assert chunk_shape(flat) == chunk_shape(expected)
        # 64 KiB / 1 KiB expected chunks -> 64-chunk batches.
        assert all(len(b) <= 64 for b in batches)
        assert len(batches[0]) == 64  # not the 16 KiB tile's 16

    @pytest.mark.parametrize("workers", [1, 4])
    def test_stage_timers_accumulate(self, workers):
        """The scan/hash stage split is recorded either execution mode."""
        from repro.core.stats import reset_stage_times, stage_times

        set_threads(workers)
        data = seeded_bytes(128 * 1024, seed=23)
        reset_stage_times()
        list(
            pipeline_chunks(
                Chunker(self.CONFIG).candidate_cuts,
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
        """Chunks/pointers must reach the agent in stream order even
        though scan, hash, and shipping overlap."""
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
