"""Real host-driver execution (the §5.2.1 pipeline, live).

Measures wall-clock throughput of the executor — the one scan driver
(``pipeline_chunks``) with every candidate scan round-tripped through
the simulated device (alloc, upload, kernel launch, free) — and verifies
its output against the reference chunker.  This is an honest
Python-level number, not a modeled one.
"""

from __future__ import annotations

from repro.core.chunking import Chunker, ChunkerConfig
from repro.core.executor import ShredderExecutor
from repro.core.shredder import ShredderConfig
from repro.workloads import seeded_bytes

MB = 1 << 20
CHUNKER = ChunkerConfig(mask_bits=12, marker=0xABC)


def test_executor_throughput(benchmark, report):
    data = seeded_bytes(4 * MB, seed=95)
    executor = ShredderExecutor(
        ShredderConfig.gpu_streams_memory(chunker=CHUNKER, buffer_size=MB)
    )
    table = report(
        "Device-round-trip executor: real wall-clock scan rate",
        ["Path", "MB/s (wall)"],
        paper_note="integration measurement; modeled GPU numbers are separate",
    )

    chunks, _ = benchmark(executor.run, data)
    reference = Chunker(CHUNKER).chunk(data)
    assert [(c.offset, c.digest) for c in chunks] == [
        (c.offset, c.digest) for c in reference
    ]
    seconds = benchmark.stats.stats.mean
    table.add("scan driver over the simulated device", 4 / seconds)
