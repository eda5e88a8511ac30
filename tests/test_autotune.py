"""Self-tuning scan geometry: cache round-trip, env gates, wiring.

The tuner itself is a micro-benchmark, so these tests never assert on
*which* geometry wins — only that resolution, persistence, validation,
and the plumbing into ``VectorEngine`` / ``pipeline_chunks`` /
``get_threads`` behave, and that a broken cache or tuner can never
poison the scan path.
"""

from __future__ import annotations

import json

import pytest

from repro.core import VectorEngine, get_threads, set_default_threads, set_threads
from repro.core import autotune
from repro.core.autotune import (
    DEFAULT_GEOMETRY,
    ScanGeometry,
    clear_geometry,
    get_geometry,
    host_key,
    load_cached,
    save_cached,
    set_geometry,
    tune,
)
from repro.core.chunking import HASH_BATCH_BYTES, ChunkerConfig, _resolve_batch_chunks

MB = 1 << 20


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Private cache file + clean resolution state around every test."""
    monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(tmp_path / "autotune.json"))
    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
    clear_geometry()
    set_default_threads(None)
    yield
    clear_geometry()
    set_default_threads(None)
    set_threads(None)


class TestResolution:
    def test_disabled_returns_static_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_AUTOTUNE", "0")
        assert get_geometry() == DEFAULT_GEOMETRY
        assert not (tmp_path / "autotune.json").exists()  # no file I/O

    def test_cached_geometry_wins_over_tuning(self):
        saved = ScanGeometry(
            lanes=2048, tile_bytes=MB, roll_steps=16, threads=1,
            source="tuned-quick", mib_per_s=50.0,
        )
        save_cached(saved, mode="quick")
        clear_geometry()

        def boom(**kw):  # the tuner must not run when a cache hit exists
            raise AssertionError("tune() called despite cache hit")

        orig, autotune.tune = autotune.tune, boom
        try:
            resolved = get_geometry()
        finally:
            autotune.tune = orig
        assert (resolved.lanes, resolved.tile_bytes, resolved.roll_steps) == (
            2048, MB, 16,
        )
        assert resolved.source == "cache"

    def test_tuner_failure_degrades_to_defaults(self):
        def boom(**kw):
            raise RuntimeError("synthetic tuner crash")

        orig, autotune.tune = autotune.tune, boom
        try:
            resolved = get_geometry()
        finally:
            autotune.tune = orig
        assert resolved.lanes == DEFAULT_GEOMETRY.lanes
        assert resolved.roll_steps == DEFAULT_GEOMETRY.roll_steps
        assert "tune-failed" in resolved.source

    def test_set_geometry_installs_and_clears(self):
        g = ScanGeometry(lanes=512, tile_bytes=2 * MB, roll_steps=4)
        set_geometry(g)
        assert get_geometry() is g
        clear_geometry()  # next resolution starts over (env says enabled)

    def test_memoized_after_first_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE", "0")
        assert get_geometry() is get_geometry()


class TestCacheFile:
    def test_round_trip(self):
        g = ScanGeometry(
            lanes=8192, tile_bytes=2 * MB, roll_steps=24, threads=2,
            source="tuned-full", mib_per_s=61.5,
        )
        path = save_cached(g, mode="full")
        assert path.exists()
        loaded = load_cached()
        assert (loaded.lanes, loaded.tile_bytes, loaded.roll_steps, loaded.threads) == (
            8192, 2 * MB, 24, 2,
        )
        assert loaded.source == "cache"
        assert loaded.mib_per_s == 61.5

    def test_missing_file_returns_none(self):
        assert load_cached() is None

    def test_corrupt_file_returns_none(self, tmp_path):
        (tmp_path / "autotune.json").write_text("{not json")
        assert load_cached() is None

    def test_wrong_host_entry_ignored(self, tmp_path):
        payload = {"version": 1, "hosts": {"some-other-host": {
            "lanes": 1, "tile_bytes": 1, "roll_steps": 1, "threads": None,
        }}}
        (tmp_path / "autotune.json").write_text(json.dumps(payload))
        assert load_cached() is None

    def test_entry_from_an_older_kernel_ignored(self, tmp_path):
        """A winner persisted before the kernel generation joined the
        key (4 MiB tiles, measured on the kernel this one replaced) is
        not found, so the host re-tunes instead of running it."""
        old_key, generation = host_key().rsplit(":kernel=", 1)
        assert generation
        payload = {"version": 1, "hosts": {old_key: {
            "lanes": 4096, "tile_bytes": 4 * MB, "roll_steps": 8, "threads": None,
        }}}
        (tmp_path / "autotune.json").write_text(json.dumps(payload))
        assert load_cached() is None

    def test_invalid_cached_values_rejected(self, tmp_path):
        payload = {"version": 1, "hosts": {host_key(): {
            "lanes": 0, "tile_bytes": 2 * MB, "roll_steps": 8, "threads": None,
        }}}
        (tmp_path / "autotune.json").write_text(json.dumps(payload))
        assert load_cached() is None  # fails validate(), not the scan path

    def test_save_preserves_other_hosts(self, tmp_path):
        other = {"lanes": 4096, "tile_bytes": MB, "roll_steps": 8, "threads": 4}
        (tmp_path / "autotune.json").write_text(
            json.dumps({"version": 1, "hosts": {"other-host": other}})
        )
        save_cached(ScanGeometry(lanes=2048, tile_bytes=MB, roll_steps=2), "quick")
        raw = json.loads((tmp_path / "autotune.json").read_text())
        assert raw["hosts"]["other-host"] == other
        assert raw["hosts"][host_key()]["lanes"] == 2048


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(lanes=0),
        dict(tile_bytes=0),
        dict(roll_steps=0),
        dict(threads=-1),
    ])
    def test_rejects_degenerate_geometry(self, bad):
        with pytest.raises(ValueError):
            ScanGeometry(**bad).validate()
        with pytest.raises(ValueError):
            set_geometry(ScanGeometry(**bad))


class TestWiring:
    def test_engine_defaults_follow_geometry(self):
        set_geometry(ScanGeometry(lanes=123, tile_bytes=45678, roll_steps=3))
        engine = VectorEngine()
        assert (engine.lanes, engine.tile_bytes, engine.roll_steps) == (123, 45678, 3)

    def test_explicit_engine_args_beat_geometry(self):
        set_geometry(ScanGeometry(lanes=123, tile_bytes=45678, roll_steps=3))
        engine = VectorEngine(lanes=64, tile_bytes=4096, roll_steps=1)
        assert (engine.lanes, engine.tile_bytes, engine.roll_steps) == (64, 4096, 1)

    def test_tuned_threads_become_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        set_threads(None)
        set_geometry(ScanGeometry(threads=2))
        assert get_threads() == 2
        # Explicit knobs still win over the tuned default.
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert get_threads() == 3
        set_threads(5)
        assert get_threads() == 5

    def test_pipeline_batch_independent_of_tile(self):
        """Batch boundaries set every probe and placement count
        downstream, so a tuned tile must not move them."""
        config = ChunkerConfig()  # 8 KiB expected chunks
        expect = HASH_BATCH_BYTES // config.expected_chunk_size
        for tile in (1, MB, 64 * MB):
            set_geometry(ScanGeometry(tile_bytes=tile))
            assert _resolve_batch_chunks(config) == expect
        assert _resolve_batch_chunks(ChunkerConfig(mask_bits=4, marker=1)) == 4096  # clamped
        assert _resolve_batch_chunks(ChunkerConfig(mask_bits=24, marker=1)) == 32  # clamped


class TestTuner:
    def test_quick_tune_returns_valid_persisted_geometry(self, tmp_path):
        lines = []
        g = tune(quick=True, persist=True, data_bytes=256 * 1024, log=lines.append)
        assert g.validate() is g
        assert g.source == "tuned-quick"
        assert g.mib_per_s and g.mib_per_s > 0
        assert lines  # the grid was actually walked
        assert (tmp_path / "autotune.json").exists()
        cached = load_cached()
        assert (cached.lanes, cached.tile_bytes, cached.roll_steps) == (
            g.lanes, g.tile_bytes, g.roll_steps,
        )
