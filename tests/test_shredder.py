"""Tests for the Shredder facade: presets, correctness, timing shape."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.chunking import ChunkerConfig
from repro.core.dedup import DedupIndex
from repro.core.shredder import Shredder, ShredderConfig
from tests.conftest import seeded_bytes

MB = 1 << 20
GB = 1 << 30

SMALL = ChunkerConfig(mask_bits=6, marker=0x2A)

ALL_PRESETS = {
    "cpu-malloc": ShredderConfig.cpu(hoard=False, chunker=SMALL, buffer_size=MB),
    "cpu-hoard": ShredderConfig.cpu(hoard=True, chunker=SMALL, buffer_size=MB),
    "gpu-basic": ShredderConfig.gpu_basic(chunker=SMALL, buffer_size=MB),
    "gpu-streams": ShredderConfig.gpu_streams(chunker=SMALL, buffer_size=MB),
    "gpu-streams-mem": ShredderConfig.gpu_streams_memory(chunker=SMALL, buffer_size=MB),
}


class TestConfig:
    def test_presets_flag_matrix(self):
        basic = ShredderConfig.gpu_basic()
        assert not basic.double_buffering and basic.pipeline_stages == 1
        streams = ShredderConfig.gpu_streams()
        assert streams.double_buffering and streams.pipeline_stages == 4
        assert not streams.coalesced_memory
        full = ShredderConfig.gpu_streams_memory()
        assert full.coalesced_memory

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ShredderConfig(backend="tpu")

    def test_invalid_pipeline_depth(self):
        with pytest.raises(ValueError):
            ShredderConfig(pipeline_stages=5)


class TestChunkCorrectness:
    @pytest.fixture(scope="class")
    def data(self):
        return seeded_bytes(3 * MB + 12345, seed=11)

    def test_all_presets_identical_chunks(self, data):
        reference = None
        for name, cfg in ALL_PRESETS.items():
            with Shredder(cfg) as s:
                chunks, report = s.process(data)
            assert b"".join(c.data for c in chunks) == data, name
            digests = [c.digest for c in chunks]
            if reference is None:
                reference = digests
            assert digests == reference, name
            assert report.n_chunks == len(chunks)
            assert report.total_bytes == len(data)

    def test_empty_input(self):
        with Shredder(ShredderConfig.gpu_streams_memory(chunker=SMALL)) as s:
            chunks, report = s.process(b"")
        assert chunks == [] and report.total_bytes == 0

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    @pytest.mark.parametrize("n_bytes", [0, 1, MB, 2 * MB + 7])
    def test_report_is_simulate_at_the_real_counts(self, preset, n_bytes):
        """One report builder: ``process`` and ``simulate`` agree field
        for field, empty input included (0 buffers, 0 s on any backend)."""
        data = seeded_bytes(n_bytes, seed=12)
        with Shredder(ALL_PRESETS[preset]) as s:
            chunks, report = s.process(data)
            assert report == s.simulate(len(data), len(chunks))
            assert report == s.process(iter([data[:300], b"", data[300:]]))[1]
        assert report.n_buffers == -(-n_bytes // MB)
        if n_bytes == 0:
            assert report.simulated_seconds == 0.0 and report.n_chunks == 0

    def test_chunk_convenience(self, data):
        with Shredder(ShredderConfig.cpu(chunker=SMALL, buffer_size=MB)) as s:
            assert b"".join(c.data for c in s.chunk(data)) == data

    def test_dedup_integration(self, data):
        """Duplicate content produces duplicate digests through Shredder."""
        doubled = data + data
        with Shredder(ShredderConfig.gpu_streams_memory(chunker=SMALL, buffer_size=MB)) as s:
            chunks, _ = s.process(doubled)
        index = DedupIndex()
        stats = index.add_all(chunks)
        assert stats.dedup_ratio > 0.4


class TestTimingShape:
    """Figure 12's ordering must hold in the simulated timings."""

    @pytest.fixture(scope="class")
    def throughputs(self):
        out = {}
        for name, factory in {
            "cpu-malloc": ShredderConfig.cpu(hoard=False),
            "cpu-hoard": ShredderConfig.cpu(hoard=True),
            "gpu-basic": ShredderConfig.gpu_basic(),
            "gpu-streams": ShredderConfig.gpu_streams(),
            "gpu-streams-mem": ShredderConfig.gpu_streams_memory(),
        }.items():
            with Shredder(factory) as s:
                out[name] = s.simulate(GB).throughput_bps
        return out

    def test_ordering(self, throughputs):
        t = throughputs
        assert t["cpu-malloc"] < t["cpu-hoard"] < t["gpu-basic"]
        assert t["gpu-basic"] < t["gpu-streams"] < t["gpu-streams-mem"]

    def test_gpu_basic_headline(self, throughputs):
        """Naive GPU ~2x over host-only optimized (§5.3)."""
        ratio = throughputs["gpu-basic"] / throughputs["cpu-hoard"]
        assert 1.3 < ratio < 2.6

    def test_full_optimization_headline(self, throughputs):
        """'Shredder achieves a speedup of over 5X for chunking bandwidth
        compared to our optimized parallel implementation' (§1)."""
        ratio = throughputs["gpu-streams-mem"] / throughputs["cpu-hoard"]
        assert ratio > 5.0

    def test_full_optimization_reader_bound(self):
        with Shredder(ShredderConfig.gpu_streams_memory()) as s:
            report = s.simulate(GB)
        assert report.bottleneck() == "read"

    def test_basic_kernel_bound(self):
        with Shredder(ShredderConfig.gpu_basic()) as s:
            report = s.simulate(GB)
        assert report.bottleneck() == "kernel"

    def test_simulate_counts(self):
        with Shredder(ShredderConfig.gpu_streams_memory(buffer_size=32 * MB)) as s:
            report = s.simulate(GB)
        assert report.n_buffers == 32
        assert report.total_bytes == GB

    @pytest.mark.parametrize(
        "config, buffer_mb",
        [
            # Every preset at the default buffer ...
            (ShredderConfig.gpu_basic(), 32),
            (ShredderConfig.gpu_streams(), 32),
            (replace(ShredderConfig.gpu_streams(), pinned_ring=False), 32),
            (ShredderConfig.gpu_streams_memory(gpu_direct=True, num_gpus=2), 32),
            # ... and the sizes the figure scripts sweep.
            *((ShredderConfig.gpu_streams_memory(), mb) for mb in (16, 32, 64, 128, 256)),
        ],
    )
    def test_simulate_prices_each_distinct_buffer_size_once(
        self, config, buffer_mb, monkeypatch
    ):
        """The sizes the figure scripts sweep: pricing identical buffers
        once gives the per-buffer list, cost for cost — the schedule and
        every other report field are functions of that list."""
        config = replace(config, buffer_size=buffer_mb * MB)
        total = 4 * config.buffer_size + config.buffer_size // 3  # a short tail
        sizes = [config.buffer_size] * 4 + [config.buffer_size // 3]
        with Shredder(config) as s, Shredder(config) as reference:
            priced = []
            costs = s._gpu_phase_costs
            monkeypatch.setattr(
                s, "_gpu_phase_costs",
                lambda size, n: priced.append(size) or costs(size, n),
            )
            report = s.simulate(total)
            per_buffer = max(1, round(report.n_chunks / len(sizes)))
            assert report.phase_costs == [
                reference._gpu_phase_costs(size, per_buffer) for size in sizes
            ]
        assert priced == sizes[-2:]

    def test_ring_setup_accounted(self):
        with Shredder(ShredderConfig.gpu_streams_memory()) as s:
            report = s.simulate(GB)
        assert report.setup_seconds > 0


#: ``simulate(total)`` reports per configuration at the totals below:
#: the first 16 hex digits of SHA-256 over the report's fields as sorted
#: JSON (floats at full ``repr`` precision).  Recorded before the model's
#: cold path was shortened; any change to a modeled value changes a digest.
GOLDEN_TOTALS = (1000, 5 * MB + 3, 100 * MB + 1, GB)
GOLDEN_REPORTS = {
    "gpu_basic": ("175d4ab05d85c011", "468e8f083d30f6d1", "7cf9ec7e3e3a42a1", "a450496f387f5bc0"),
    "gpu_streams": ("c9e714e14f8adf23", "095ea1346d9879bf", "1b6fb251dea2bb4b", "29a784755b424fa4"),
    "gpu_streams_memory": ("4fb052199c8f9f7e", "801266be8e9dea3e", "6aa568478e085461", "164a3837cd144338"),
    "cpu": ("22198fd0e87511f7", "e410603266a0f819", "4d8bfd5b46aab638", "022792b340db5b24"),
    "cpu_nohoard": ("5f2fe1a41154dda5", "f7c0a2660b5dd456", "43dccaaf6be59918", "e2fd25702963a2d4"),
    "gpu_direct_2gpus": ("9483a4906be09798", "786882cb2b4a74ca", "d716d758459815e4", "830c15b21561233b"),
    "gpu_basic_16mb": ("175d4ab05d85c011", "468e8f083d30f6d1", "a1763ece311988ae", "0bec15d271a03f74"),
}
GOLDEN_CONFIGS = {
    "gpu_basic": ShredderConfig.gpu_basic,
    "gpu_streams": ShredderConfig.gpu_streams,
    "gpu_streams_memory": ShredderConfig.gpu_streams_memory,
    "cpu": ShredderConfig.cpu,
    "cpu_nohoard": lambda: ShredderConfig.cpu(hoard=False),
    "gpu_direct_2gpus": lambda: ShredderConfig.gpu_streams_memory(gpu_direct=True, num_gpus=2),
    "gpu_basic_16mb": lambda: ShredderConfig.gpu_basic(buffer_size=16 * MB),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_simulated_reports_are_golden(name):
    with Shredder(GOLDEN_CONFIGS[name]()) as s:
        digests = []
        for total in GOLDEN_TOTALS:
            doc = json.dumps(dataclasses.asdict(s.simulate(total)), sort_keys=True)
            digests.append(hashlib.sha256(doc.encode()).hexdigest()[:16])
    assert tuple(digests) == GOLDEN_REPORTS[name]
