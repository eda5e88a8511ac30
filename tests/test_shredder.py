"""Tests for the Shredder facade: presets, correctness, timing shape."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
from dataclasses import replace

import numpy as np
import pytest

from repro.core.chunking import Chunker, ChunkerConfig
from repro.core.dedup import DedupIndex
from repro.core.shredder import Shredder, ShredderConfig
from repro.gpu.chunking_kernel import ChunkingKernel
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

    def test_invalid_buffer_size(self):
        with pytest.raises(ValueError, match="buffer_size"):
            ShredderConfig(buffer_size=0)

    def test_invalid_ring_depth(self):
        with pytest.raises(ValueError, match="ring_slots"):
            ShredderConfig(ring_slots=0)

    @pytest.mark.parametrize(
        "make, knob",
        [
            *((ShredderConfig, k) for k in ("gpu_direct", "num_gpus", "gpu_direct_bandwidth")),
            *((Shredder, k) for k in ("device", "host_memory", "host")),
            *(
                (ChunkingKernel, k)
                for k in ("engine", "threads_per_sp", "cycles_per_byte", "restructured")
            ),
        ],
    )
    def test_deleted_knob_is_not_settable(self, make, knob):
        """The §9 what-if fields, the executor's device hooks and the
        kernel's unset tuning parameters are gone, not ignored."""
        with pytest.raises(TypeError, match=knob):
            make(**{knob: None})

    def test_backends_own_only_their_models(self):
        with Shredder(ShredderConfig.cpu()) as cpu:
            assert cpu.device is None and cpu.kernel is None
            assert cpu.simulate(GB).phase_costs == []
        with Shredder(replace(ShredderConfig.gpu_streams(), pinned_ring=False)) as gpu:
            assert gpu.simulate(GB).setup_seconds == 0.0  # no ring to set up


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

    @pytest.mark.parametrize("backend", ["gpu", "cpu"])
    @pytest.mark.parametrize("kind", ["bytearray", "memoryview", "ndarray", "mmap"])
    def test_buffer_protocol_input_taken_whole(self, kind, backend, tmp_path):
        """Any buffer-protocol object is sliced into ``buffer_size``
        views -- never iterated element by element -- and the chunks are
        lazy views into it."""
        data = seeded_bytes(150_000, seed=57)
        buffer_size = 64 * 1024
        if kind == "mmap":
            path = tmp_path / "input.bin"
            path.write_bytes(data)
            fh = path.open("rb")
            source = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        elif kind == "ndarray":
            source = np.frombuffer(data, dtype=np.uint8)
        else:
            source = {"bytearray": bytearray, "memoryview": memoryview}[kind](data)
        config = ShredderConfig(backend=backend, chunker=SMALL, buffer_size=buffer_size)
        with Shredder(config) as s:
            chunks, report = s.process(source)
        assert [(c.offset, c.length, c.digest) for c in chunks] == [
            (c.offset, c.length, c.digest) for c in Chunker(SMALL).chunk(data)
        ]
        assert report.n_buffers == -(-len(data) // buffer_size)
        assert all(c._data is None for c in chunks)  # no payload was copied
        if kind == "mmap":
            for c in chunks:
                c.release()  # drop the views so the map can close
            source.close()
            fh.close()

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
            (replace(ShredderConfig.gpu_streams_memory(), pipeline_stages=1), 32),
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

    def test_negative_total_rejected(self):
        with Shredder(ShredderConfig.gpu_streams_memory()) as s:
            with pytest.raises(ValueError, match="non-negative"):
                s.simulate(-1)

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_empty_report_has_no_bottleneck(self, preset):
        with Shredder(ALL_PRESETS[preset]) as s:
            report = s.simulate(0)
        assert report.bottleneck() == "none"
        assert report.throughput_bps == 0.0 and report.mean_chunk_size == 0.0

    def test_close_is_idempotent(self):
        s = Shredder(ShredderConfig.gpu_streams_memory())
        assert s.host_memory.pinned_bytes == 4 * s.config.buffer_size
        s.close()
        s.close()
        assert s.host_memory.pinned_bytes == 0

    def test_ring_setup_accounted(self):
        with Shredder(ShredderConfig.gpu_streams_memory()) as s:
            report = s.simulate(GB)
        assert report.setup_seconds > 0


#: ``simulate(total)`` reports per configuration at the totals below:
#: the first 16 hex digits of SHA-256 over the report's fields as sorted
#: JSON (floats at full ``repr`` precision).  Recorded before the model's
#: cold path was shortened (the rows from ``gpu_double_buffered`` on were
#: recorded before the executable device was deleted); any change to a
#: modeled value changes a digest.
GOLDEN_TOTALS = (1000, 5 * MB + 3, 100 * MB + 1, GB)
GOLDEN_REPORTS = {
    "gpu_basic": ("175d4ab05d85c011", "468e8f083d30f6d1", "7cf9ec7e3e3a42a1", "a450496f387f5bc0"),
    "gpu_streams": ("c9e714e14f8adf23", "095ea1346d9879bf", "1b6fb251dea2bb4b", "29a784755b424fa4"),
    "gpu_streams_memory": ("4fb052199c8f9f7e", "801266be8e9dea3e", "6aa568478e085461", "164a3837cd144338"),
    "cpu": ("22198fd0e87511f7", "e410603266a0f819", "4d8bfd5b46aab638", "022792b340db5b24"),
    "cpu_nohoard": ("5f2fe1a41154dda5", "f7c0a2660b5dd456", "43dccaaf6be59918", "e2fd25702963a2d4"),
    "gpu_basic_16mb": ("175d4ab05d85c011", "468e8f083d30f6d1", "a1763ece311988ae", "0bec15d271a03f74"),
    "gpu_double_buffered": ("4fb052199c8f9f7e", "801266be8e9dea3e", "6b2e11d1c3aca349", "29d568d934ffeefd"),
    "gpu_streams_no_ring": ("f455e4981e666e52", "ffcaeac894414d42", "0987c4c9a770e3ac", "1f5d280e703b34ae"),
    "gpu_pipeline_2stages": ("4fb052199c8f9f7e", "801266be8e9dea3e", "dd00ccd7388c5dcf", "30a71abb68271619"),
    "gpu_pipeline_3stages": ("4fb052199c8f9f7e", "801266be8e9dea3e", "14d724dfc20c9845", "164a3837cd144338"),
    "gpu_ring_2slots": ("5bd0f3fd35a90d3b", "4f4aa2f8029af3fa", "58715ef79d396964", "5185db6f47d120df"),
    "gpu_streams_memory_16mb": ("5d73cfe3662726b0", "2ff0d9923cb440a8", "0b901fa3784a0bae", "49f182deb7444fa9"),
    "gpu_streams_memory_64mb": ("6f803f403483a64c", "24741eb474e8966a", "3352af01aae0a3f5", "7943380a63c9ff04"),
    "gpu_streams_memory_128mb": ("c0b6f4770138843d", "b246a3ae97432738", "8baf8d634ddbf540", "2de08f8fdf265ce2"),
    "gpu_streams_memory_256mb": ("388f8e8173313c07", "0a25242e43a26c99", "9a68dfe24c4bd07f", "a39167bd079f196e"),
    "gpu_streams_memory_mask6": ("e253d5a22ed98039", "999a2583e387e8b5", "55bee9a3093aaab6", "db1efbbd0bf62bdf"),
    "cpu_6threads": ("83d5ef1244433c96", "027dba413dd8fae9", "65c1feaef4f076f5", "61a9d6cddbc14a4b"),
    "gpu_basic_coalesced": ("46cb57bb70d7ebfc", "d70fdb686b6db3c8", "be37bc12ede8bfab", "1915222b235fd339"),
}
GOLDEN_CONFIGS = {
    "gpu_basic": ShredderConfig.gpu_basic,
    "gpu_streams": ShredderConfig.gpu_streams,
    "gpu_streams_memory": ShredderConfig.gpu_streams_memory,
    "cpu": ShredderConfig.cpu,
    "cpu_nohoard": lambda: ShredderConfig.cpu(hoard=False),
    "gpu_basic_16mb": lambda: ShredderConfig.gpu_basic(buffer_size=16 * MB),
    # Each schedule and staging branch of the GPU model ...
    "gpu_double_buffered": lambda: replace(ShredderConfig.gpu_streams_memory(), pipeline_stages=1),
    "gpu_streams_no_ring": lambda: replace(ShredderConfig.gpu_streams(), pinned_ring=False),
    "gpu_pipeline_2stages": lambda: replace(ShredderConfig.gpu_streams_memory(), pipeline_stages=2),
    "gpu_pipeline_3stages": lambda: replace(ShredderConfig.gpu_streams_memory(), pipeline_stages=3),
    "gpu_ring_2slots": lambda: ShredderConfig.gpu_streams_memory(ring_slots=2),
    "gpu_basic_coalesced": lambda: replace(ShredderConfig.gpu_basic(), coalesced_memory=True),
    # ... the buffer sizes the figure scripts sweep ...
    **{
        f"gpu_streams_memory_{mb}mb": (
            lambda mb=mb: ShredderConfig.gpu_streams_memory(buffer_size=mb * MB)
        )
        for mb in (16, 64, 128, 256)
    },
    # ... a denser chunk count and a smaller host thread pool.
    "gpu_streams_memory_mask6": lambda: ShredderConfig.gpu_streams_memory(chunker=SMALL),
    "cpu_6threads": lambda: ShredderConfig.cpu(host_threads=6),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_simulated_reports_are_golden(name):
    with Shredder(GOLDEN_CONFIGS[name]()) as s:
        digests = []
        for total in GOLDEN_TOTALS:
            doc = json.dumps(dataclasses.asdict(s.simulate(total)), sort_keys=True)
            digests.append(hashlib.sha256(doc.encode()).hexdigest()[:16])
    assert tuple(digests) == GOLDEN_REPORTS[name]
