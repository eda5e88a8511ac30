"""Tests for the pluggable storage backends (``src/repro/store/backend``)."""

from __future__ import annotations

import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.hashing import chunk_hash
from repro.store import backend as backend_module
from repro.store.backend import (
    _CHECKPOINT_HEADER,
    _CHECKPOINT_MAGIC,
    _FRAME,
    BACKEND_KINDS,
    MemoryBackend,
    PersistentBackend,
    RecipeStore,
    STORE_BACKEND_ENV,
    STORE_TMP_ENV,
    decode_recipe,
    encode_recipe,
    make_backend,
    resolve_backend,
)
from repro.backup.store import SnapshotRecipe


def make_items(n: int, salt: bytes = b"") -> list[tuple[bytes, bytes]]:
    return [
        (chunk_hash(salt + i.to_bytes(4, "big")), salt + b"value-%d-" % i * 3)
        for i in range(n)
    ]


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        b = MemoryBackend()
    else:
        b = PersistentBackend(tmp_path / "b")
    yield b
    b.close()


class TestProtocolConformance:
    """Both implementations answer the batched surface identically."""

    def test_put_is_insert_if_absent(self, backend):
        items = make_items(5)
        assert backend.put_batch(items) == [True] * 5
        assert backend.put_batch(items[:2]) == [False, False]
        # A re-put never overwrites: the first value is canonical.
        k = items[0][0]
        assert backend.put_batch([(k, b"other")]) == [False]
        assert backend.get_batch([k]) == [items[0][1]]

    def test_contains_get_delete(self, backend):
        items = make_items(10)
        backend.put_batch(items)
        keys = [k for k, _ in items]
        assert backend.contains_batch(keys + [chunk_hash(b"absent")]) == (
            [True] * 10 + [False]
        )
        assert backend.get_batch(keys[:3]) == [v for _, v in items[:3]]
        assert backend.get_batch([chunk_hash(b"absent")]) == [None]
        freed = backend.delete_batch([keys[0], chunk_hash(b"absent"), keys[1]])
        assert freed == [len(items[0][1]), 0, len(items[1][1])]
        assert backend.contains_batch(keys[:2]) == [False, False]
        assert len(backend) == 8

    def test_len_value_bytes_keys(self, backend):
        items = make_items(7)
        backend.put_batch(items)
        assert len(backend) == 7
        assert backend.value_bytes == sum(len(v) for _, v in items)
        assert sorted(backend.keys()) == sorted(k for k, _ in items)
        backend.delete_batch([items[0][0]])
        assert backend.value_bytes == sum(len(v) for _, v in items[1:])
        assert sorted(backend.keys()) == sorted(k for k, _ in items[1:])

    def test_clear(self, backend):
        backend.put_batch(make_items(6))
        backend.clear()
        assert len(backend) == 0
        assert backend.value_bytes == 0
        assert list(backend.keys()) == []
        # Cleared, not closed: the backend keeps working.
        assert backend.put_batch(make_items(2)) == [True, True]

    def test_values_detached_from_caller_buffers(self, backend):
        buf = bytearray(b"mutable-payload!")
        key = chunk_hash(bytes(buf))
        backend.put_batch([(key, memoryview(buf))])
        buf[:7] = b"XXXXXXX"
        assert backend.get_batch([key]) == [b"mutable-payload!"]

    def test_stats_counters(self, backend):
        items = make_items(4)
        backend.put_batch(items)
        backend.contains_batch([items[0][0]])
        backend.get_batch([items[0][0]])
        backend.delete_batch([items[0][0]])
        s = backend.stats
        assert s.puts == 4 and s.contains == 1 and s.gets == 1 and s.deletes == 1
        assert s.batches == 4


class TestPersistence:
    def test_close_reopen_round_trip(self, tmp_path):
        items = make_items(200)
        with PersistentBackend(tmp_path / "b") as b:
            b.put_batch(items)
            b.delete_batch([items[5][0], items[6][0]])
        with PersistentBackend(tmp_path / "b") as b:
            assert b.recovery.clean
            assert len(b) == 198
            keys = [k for k, _ in items]
            got = b.get_batch(keys)
            for i, (value, (_, expected)) in enumerate(zip(got, items)):
                assert value == (None if i in (5, 6) else expected)

    def test_crash_reopen_replays_log(self, tmp_path):
        """No close(): no checkpoint was written, the log has everything."""
        b = PersistentBackend(tmp_path / "b")
        items = make_items(50)
        b.put_batch(items)
        b.flush()  # records reach the OS; no checkpoint yet
        shutil.copytree(tmp_path / "b", tmp_path / "crashed")
        b.close()
        with PersistentBackend(tmp_path / "crashed") as b2:
            assert b2.recovery.replayed_records == 50
            assert len(b2) == 50
            assert b2.get_batch([items[17][0]]) == [items[17][1]]

    def test_checkpoint_bounds_crash_replay(self, tmp_path):
        """Past 4096 appended records a checkpoint lands without
        close(), so a crash replays only the log suffix past it."""
        items = make_items(5000)
        b = PersistentBackend(tmp_path / "b")
        for start in range(0, len(items), 500):
            b.put_batch(items[start : start + 500])
        assert b.stats.checkpoints == 1  # at 4500 records, not before
        b.flush()
        b._finalizer()  # the process dies: handles closed, no close()
        with PersistentBackend(tmp_path / "b") as b2:
            assert b2.recovery.replayed_from > 0
            assert b2.recovery.replayed_records == 500 < len(items)
            assert len(b2) == len(items)
            keys = [items[0][0], items[4499][0], items[-1][0]]
            assert b2.get_batch(keys) == [items[0][1], items[4499][1], items[-1][1]]

    def test_checkpoint_interval_grows_with_the_keydir(self, tmp_path, monkeypatch):
        """The next checkpoint is due after max(floor, keys in the last
        one) appends: rewriting the keydir stays amortised O(1) per
        append, and a close with nothing appended rewrites nothing."""
        monkeypatch.setattr(backend_module, "_CHECKPOINT_FLOOR", 4)
        b = PersistentBackend(tmp_path / "b")
        b.put_batch(make_items(10))  # 10 >= 4: checkpoint of 10 keys
        assert b.stats.checkpoints == 1
        for i in range(9):  # 9 appends < 10: none due yet
            b.put_batch(make_items(1, salt=b"%d-" % i))
        assert b.stats.checkpoints == 1
        b.delete_batch([make_items(1)[0][0]])  # the 10th append
        assert b.stats.checkpoints == 2
        b.close()
        assert b.stats.checkpoints == 2  # nothing appended since
        with PersistentBackend(tmp_path / "b") as b2:
            assert b2.recovery.replayed_records == 0 and len(b2) == 18
        assert b2.stats.checkpoints == 0

    def test_lsm_run_files_are_deleted_on_open(self, tmp_path):
        """A directory the LSM index wrote opens from its log alone."""
        items = make_items(12)
        with PersistentBackend(tmp_path / "b") as b:
            b.put_batch(items)
        (tmp_path / "b" / "keydir.ckpt").unlink()
        run = tmp_path / "b" / "run-00000001.run"
        run.write_bytes(b"RRUN2\n" + bytes(40))
        with PersistentBackend(tmp_path / "b") as b2:
            assert not run.exists()
            assert b2.recovery.replayed_from == 0
            assert b2.recovery.replayed_records == 12
            assert b2.get_batch([items[11][0]]) == [items[11][1]]

    def test_log_compaction_reclaims_dead_records(self, tmp_path):
        b = PersistentBackend(tmp_path / "b")
        items = make_items(60)
        b.put_batch(items)
        b.delete_batch([k for k, _ in items[:40]])
        b.flush()
        before = (tmp_path / "b" / "chunks.log").stat().st_size
        reclaimed = b.compact()
        after = (tmp_path / "b" / "chunks.log").stat().st_size
        assert reclaimed == before - after > 0
        assert b.stats.log_compactions == 1
        assert len(b) == 20
        assert b.get_batch([items[45][0]]) == [items[45][1]]
        b.close()
        # The compacted state is what reopens.
        with PersistentBackend(tmp_path / "b") as b2:
            assert len(b2) == 20
            assert b2.get_batch([items[45][0]]) == [items[45][1]]

    def test_interrupted_compact_recovers_from_either_log(self, tmp_path):
        """compact() deletes the checkpoint before publishing the
        rewritten log, so a crash at its worst points leaves (old log, no
        checkpoint) or (new log, no checkpoint) — both replay correctly,
        never a stale checkpoint dereferencing into a rewritten log."""
        with PersistentBackend(tmp_path / "b") as b:
            # Non-sorted insert order, so the compacted (key-sorted) log
            # re-shuffles offsets — the stale-checkpoint poison scenario.
            items = make_items(19)
            for item in reversed(items):
                b.put_batch([item])
        shutil.copytree(tmp_path / "b", tmp_path / "pre")
        # Crash point A: checkpoint unlinked, old log still in place (the
        # tmp rewrite never published).
        work = tmp_path / "crash-a"
        shutil.copytree(tmp_path / "pre", work)
        (work / "keydir.ckpt").unlink()
        (work / "chunks.compact").write_bytes(b"partial rewrite")
        with PersistentBackend(work) as b2:
            assert b2.recovery.replayed_from == 0
            assert sorted(b2.keys()) == sorted(k for k, _ in items)
            assert b2.get_batch([items[3][0]]) == [items[3][1]]
            assert not (work / "chunks.compact").exists()  # tmp swept
        # Crash point B: new log published, checkpoint not yet rewritten
        # — full replay of the compacted log.
        work = tmp_path / "crash-b"
        shutil.copytree(tmp_path / "pre", work)
        with PersistentBackend(work) as b3:
            b3.delete_batch([items[0][0]])
            b3.compact()
        (work / "keydir.ckpt").unlink()
        with PersistentBackend(work) as b4:
            assert b4.recovery.replayed_from == 0
            assert sorted(b4.keys()) == sorted(k for k, _ in items[1:])
            assert b4.get_batch([items[7][0]]) == [items[7][1]]

    def test_corrupt_checkpoint_falls_back_to_log_replay(self, tmp_path):
        items = make_items(40)
        with PersistentBackend(tmp_path / "b") as b:
            b.put_batch(items)
        checkpoint = tmp_path / "b" / "keydir.ckpt"
        good = checkpoint.read_bytes()
        payload = good[len(_CHECKPOINT_MAGIC) : -4]
        n, watermark = _CHECKPOINT_HEADER.unpack_from(payload)
        # One entry more than it holds, under a valid CRC: parses short.
        overcount = _CHECKPOINT_HEADER.pack(n + 1, watermark) + payload[
            _CHECKPOINT_HEADER.size :
        ]
        flipped = bytearray(good)
        flipped[len(good) // 2] ^= 0xFF
        for bad in (
            b"RRUN2\n" + good[len(_CHECKPOINT_MAGIC) :],  # magic
            bytes(flipped),  # CRC
            good[:5],  # shorter than any checkpoint
            _CHECKPOINT_MAGIC + overcount + struct.pack("<I", zlib.crc32(overcount)),
        ):
            checkpoint.write_bytes(bad)
            with PersistentBackend(tmp_path / "b") as b2:
                assert b2.recovery.replayed_from == 0  # full replay, no trust
                assert b2.recovery.replayed_records == 40
                assert len(b2) == 40
                assert b2.get_batch([items[33][0]]) == [items[33][1]]
            # Close wrote a fresh checkpoint; the state reopens from it.
            with PersistentBackend(tmp_path / "b") as b3:
                assert b3.recovery.replayed_from == watermark
                assert b3.recovery.replayed_records == 0 and len(b3) == 40
            assert checkpoint.read_bytes() == good

    def test_checkpoint_watermark_past_log_end_is_ignored(self, tmp_path):
        """A checkpoint published after the log's durable tail was lost
        (we flush, not fsync) must not serve offsets past EOF — nor
        later, once the log has grown back past its watermark."""
        items = make_items(24)
        with PersistentBackend(tmp_path / "b") as b:
            b.put_batch(items)
        log_path = tmp_path / "b" / "chunks.log"
        offsets = frame_offsets(log_path.read_bytes())
        cut = offsets[10]  # lose the tail: only 10 records remain durable
        with open(log_path, "r+b") as fh:
            fh.truncate(cut)
        b2 = PersistentBackend(tmp_path / "b")
        # The checkpoint outran the surviving log: ignored, full replay.
        assert b2.recovery.replayed_from == 0
        assert len(b2) == 10
        surviving = [k for k, _ in items[:10]]
        assert b2.get_batch(surviving) == [v for _, v in items[:10]]  # no short reads
        assert b2.contains_batch([items[20][0]]) == [False]
        # New records regrow the log past the old watermark; then the
        # process dies before any checkpoint.
        regrown = make_items(30, salt=b"regrown")
        b2.put_batch(regrown)
        b2.flush()
        b2._finalizer()
        with PersistentBackend(tmp_path / "b") as b3:
            assert b3.recovery.replayed_from == 0
            assert sorted(b3.keys()) == sorted(surviving + [k for k, _ in regrown])
            assert b3.get_batch([regrown[29][0]]) == [regrown[29][1]]

    def test_tracked_log_end_is_the_file_size(self, tmp_path, monkeypatch):
        """Appends track where the log ends instead of asking the file;
        puts, deletes, a checkpoint, a reopen that truncated a torn
        tail, compact() and clear() must all leave it exact."""

        def assert_tracked(b):
            b.flush()
            assert b._log_end == (b.directory / "chunks.log").stat().st_size

        monkeypatch.setattr(backend_module, "_CHECKPOINT_FLOOR", 8)
        items = make_items(30)
        b = PersistentBackend(tmp_path / "b")
        b.put_batch(items[:5])
        assert_tracked(b)
        b.delete_batch([items[0][0], items[1][0]])
        assert_tracked(b)
        b.put_batch(items[5:])
        assert b.stats.checkpoints > 0
        assert_tracked(b)
        shutil.copytree(tmp_path / "b", tmp_path / "torn")
        b.close()

        log = tmp_path / "torn" / "chunks.log"
        with open(log, "r+b") as fh:
            fh.truncate(log.stat().st_size - 3)
        with PersistentBackend(tmp_path / "torn") as torn:
            assert torn.recovery.truncated_bytes > 0
            assert_tracked(torn)
            torn.put_batch(make_items(3, salt=b"after"))
            assert_tracked(torn)
            assert torn.compact() > 0
            assert_tracked(torn)
            torn.put_batch(make_items(3, salt=b"compacted"))
            assert_tracked(torn)
            assert torn.get_batch([items[20][0]]) == [items[20][1]]
            torn.clear()
            assert_tracked(torn)

def frame_offsets(log: bytes) -> list[int]:
    """Start offset of every record frame in a log image."""
    offsets, pos = [], 0
    while pos + _FRAME.size <= len(log):
        _, _, klen, vlen = _FRAME.unpack_from(log, pos)
        offsets.append(pos)
        pos += _FRAME.size + klen + vlen
    return offsets


class TestTornLogRecovery:
    """The ISSUE's crash fuzz: truncate at every byte of the last frame."""

    @pytest.fixture()
    def crash_image(self, tmp_path):
        b = PersistentBackend(tmp_path / "b")
        items = make_items(8, salt=b"torn")
        b.put_batch(items)
        b.flush()
        shutil.copytree(tmp_path / "b", tmp_path / "image")
        b.close()
        log = (tmp_path / "image" / "chunks.log").read_bytes()
        return tmp_path, items, log

    def test_truncate_every_byte_of_last_frame(self, crash_image):
        tmp_path, items, log = crash_image
        last_start = frame_offsets(log)[-1]
        prefix_keys = sorted(k for k, _ in items[:-1])
        for cut in range(last_start, len(log)):
            work = tmp_path / f"cut-{cut}"
            shutil.copytree(tmp_path / "image", work)
            with open(work / "chunks.log", "r+b") as fh:
                fh.truncate(cut)
            with PersistentBackend(work) as b:
                # Exactly the prefix survives; the torn tail is gone.
                assert sorted(b.keys()) == prefix_keys
                assert b.recovery.truncated_bytes == cut - last_start
                assert b.stats.truncated_bytes == cut - last_start
                assert b.recovery.valid_bytes == last_start
                # The log was physically truncated back to the prefix...
                assert (work / "chunks.log").stat().st_size == last_start
                # ...and the store accepts new writes immediately.
                assert b.put_batch([(chunk_hash(b"new"), b"new")]) == [True]
            shutil.rmtree(work)

    def test_full_final_frame_is_kept(self, crash_image):
        tmp_path, items, log = crash_image
        work = tmp_path / "intact"
        shutil.copytree(tmp_path / "image", work)
        with PersistentBackend(work) as b:
            assert b.recovery.clean
            assert sorted(b.keys()) == sorted(k for k, _ in items)

    def test_bit_flip_in_last_frame_detected(self, crash_image):
        tmp_path, items, log = crash_image
        last_start = frame_offsets(log)[-1]
        work = tmp_path / "flip"
        shutil.copytree(tmp_path / "image", work)
        raw = bytearray(log)
        raw[last_start + _FRAME.size + 2] ^= 0x40  # corrupt the key bytes
        (work / "chunks.log").write_bytes(bytes(raw))
        with PersistentBackend(work) as b:
            assert sorted(b.keys()) == sorted(k for k, _ in items[:-1])
            assert b.recovery.truncated_bytes == len(log) - last_start


class TestConstruction:
    def test_resolve_explicit_env_default(self, monkeypatch):
        monkeypatch.delenv(STORE_BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "memory"
        assert resolve_backend("disk") == "disk"
        assert resolve_backend(None, data_dir="/somewhere") == "disk"
        monkeypatch.setenv(STORE_BACKEND_ENV, "disk")
        assert resolve_backend(None) == "disk"
        with pytest.raises(ValueError, match="unknown storage backend"):
            resolve_backend("tape")
        assert set(BACKEND_KINDS) == {"memory", "disk"}

    def test_memory_with_data_dir_rejected(self, tmp_path):
        """'Persist to memory' is a lie; fail loudly at every owner."""
        from repro.backup import BackupConfig, ChunkStore
        from repro.store import ChunkStoreCluster

        with pytest.raises(ValueError, match="cannot persist"):
            resolve_backend("memory", data_dir=tmp_path)
        with pytest.raises(ValueError, match="cannot persist"):
            ChunkStore(backend="memory", data_dir=tmp_path)
        with pytest.raises(ValueError, match="cannot persist"):
            ChunkStoreCluster(n_nodes=2, backend="memory", data_dir=tmp_path)
        with pytest.raises(ValueError, match="cannot persist"):
            BackupConfig(backend="memory", data_dir=str(tmp_path))

    def test_make_backend_kinds(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_BACKEND_ENV, raising=False)
        assert isinstance(make_backend(), MemoryBackend)
        disk = make_backend("disk", tmp_path / "d")
        assert isinstance(disk, PersistentBackend)
        disk.close()

    def test_ephemeral_disk_cleans_up_on_close(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_TMP_ENV, str(tmp_path / "eph"))
        b = make_backend("disk")
        directory = b.directory
        assert directory.exists()
        assert str(directory).startswith(str(tmp_path / "eph"))
        b.put_batch(make_items(3))
        b.close()
        assert not directory.exists()

    def test_ephemeral_disk_cleans_up_on_gc(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_TMP_ENV, str(tmp_path / "eph"))
        b = make_backend("disk")
        directory = b.directory
        finalizer = b._finalizer
        del b  # abandoned without close: the finalizer must collect it
        finalizer()  # deterministic stand-in for GC/interpreter exit
        assert not directory.exists()

    def test_closed_backend_refuses_operations(self, tmp_path):
        b = PersistentBackend(tmp_path / "b")
        b.close()
        with pytest.raises(ValueError, match="closed"):
            b.put_batch(make_items(1))

    def test_store_imports_clean_of_core(self):
        """repro.core stores through repro.store: the store reaches core
        on first use (``core_module``), never while being imported."""
        code = (
            "import sys, repro.store; "
            "assert not [m for m in sys.modules if m.startswith('repro.core')]"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestRecipeStore:
    @pytest.fixture(params=["memory", "disk"])
    def recipes(self, request, tmp_path):
        if request.param == "memory":
            store = RecipeStore(MemoryBackend())
        else:
            store = RecipeStore(PersistentBackend(tmp_path / "r"))
        yield store
        store.close()

    def test_round_trip(self, recipes):
        digests = tuple(chunk_hash(bytes([i])) for i in range(5))
        recipes.put(SnapshotRecipe("snap-1", digests, 12345))
        assert "snap-1" in recipes and len(recipes) == 1
        got = recipes.get("snap-1")
        assert got == SnapshotRecipe("snap-1", digests, 12345)
        assert recipes.live_digests() == set(digests)
        assert [r.snapshot_id for r in recipes] == ["snap-1"]

    def test_duplicate_and_missing(self, recipes):
        recipes.put(SnapshotRecipe("s", (chunk_hash(b"x"),), 1))
        with pytest.raises(ValueError, match="already stored"):
            recipes.put(SnapshotRecipe("s", (), 0))
        with pytest.raises(KeyError, match="no snapshot"):
            recipes.get("absent")
        stats = recipes._backend.stats
        batches = stats.batches
        with pytest.raises(KeyError, match="no snapshot"):
            recipes.delete("absent")
        assert stats.batches == batches + 1  # one delete_batch, no probe
        recipes.delete("s")
        assert stats.batches == batches + 2
        assert len(recipes) == 0

    def test_empty_recipe(self, recipes):
        recipes.put(SnapshotRecipe("empty", (), 0))
        assert recipes.get("empty").digests == ()

    @staticmethod
    def decode_by_loop(blob: bytes) -> tuple[tuple[bytes, ...], int]:
        """The reference: one length prefix and one slice per digest."""
        total, n = struct.unpack_from("<QI", blob, 0)
        pos, digests = 12, []
        for _ in range(n):
            (size,) = struct.unpack_from("<H", blob, pos)
            digests.append(blob[pos + 2 : pos + 2 + size])
            pos += 2 + size
        return tuple(digests), total

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        digests=st.one_of(
            # All 32 bytes: the fixed-stride path.
            st.lists(st.binary(min_size=32, max_size=32), max_size=40),
            # Mixed lengths, weighted so that blobs of exactly
            # header + n*34 bytes with a non-32 prefix do occur.
            st.lists(
                st.sampled_from([0, 20, 32, 64]).flatmap(
                    lambda size: st.binary(min_size=size, max_size=size)
                ),
                max_size=40,
            ),
        ),
        total=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_recipe_codec_round_trips_on_both_decode_paths(self, digests, total):
        blob = encode_recipe("snap", digests, total)
        assert decode_recipe("snap", blob) == ("snap", tuple(digests), total)
        assert self.decode_by_loop(blob) == (tuple(digests), total)

    def test_fixed_stride_decode_checks_every_length_prefix(self):
        """Same blob size as three 32-byte digests, different prefixes:
        0 + 64 + 32 bytes must not be sliced at the fixed stride."""
        d32 = [chunk_hash(bytes([i])) for i in range(3)]
        mixed = [b"", d32[0] + d32[1], d32[2]]
        assert len(encode_recipe("s", mixed, 7)) == len(encode_recipe("s", d32, 7))
        assert decode_recipe("s", encode_recipe("s", mixed, 7)) == ("s", tuple(mixed), 7)
        # A 288-byte digest (prefix 0x0120) carrying 0x20 0x00 wherever
        # the stride lands inside it: only the prefixes' high bytes tell
        # this blob from ten 32-byte digests.
        wide = bytearray(288)
        wide[32::34] = b"\x20" * len(wide[32::34])
        crafted = [bytes(wide)] + [b""] * 8 + d32[:1]
        blob = encode_recipe("s", crafted, 7)
        assert len(blob) == 12 + 10 * 34 and blob[12::34] == b"\x20" * 10
        assert decode_recipe("s", blob) == ("s", tuple(crafted), 7)

    def test_persistent_recipes_survive_reopen(self, tmp_path):
        digests = tuple(chunk_hash(bytes([i]) * 3) for i in range(9))
        store = RecipeStore(PersistentBackend(tmp_path / "r"))
        store.put(SnapshotRecipe("gen", digests, 999))
        store.close()
        store2 = RecipeStore(PersistentBackend(tmp_path / "r"))
        assert store2.get("gen") == SnapshotRecipe("gen", digests, 999)
        store2.close()
