"""The paper's §9 future-work and §2.1 baseline rows this repo can check.

1. RE middleboxes ([11]) — WAN bandwidth savings from Shredder chunking,
   through the ``netre`` tunnel.
2. SampleByte ([9]) — the §2.1 trade-off: sampling is fast but its dedup
   degrades as chunks grow, where Rabin's does not.

§9's other directions (parallel min/max selection, GPUDirect packet I/O,
multi-GPU chunking) come with no number to check a model against, so no
row here prices them.
"""

from __future__ import annotations

from repro.core import Chunker, ChunkerConfig
from repro.netre import RETunnel, TrafficConfig, TrafficGenerator
from repro.workloads import seeded_bytes

MB = 1 << 20


def test_re_middlebox(benchmark, report):
    table = report(
        "Future work: RE middlebox WAN savings vs traffic redundancy",
        ["Update probability", "Savings %"],
        paper_note="§9: middleboxes for bandwidth reduction via RE [11]",
    )

    def run():
        rows = []
        for update_p in (0.0, 0.2, 0.5, 1.0):
            tunnel = RETunnel()
            gen = TrafficGenerator(
                TrafficConfig(n_objects=25, object_size=16 * 1024,
                              update_probability=update_p, seed=83)
            )
            savings = tunnel.send_all(gen.requests(80))
            rows.append((update_p, savings * 100))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for update_p, savings in rows:
        table.add(update_p, savings)
    # More updates -> less redundancy -> smaller savings, monotone-ish.
    assert rows[0][1] > rows[-1][1]
    assert rows[0][1] > 50.0  # repeated objects dedup heavily


def test_samplebyte_tradeoff(benchmark, report):
    """SampleByte [9]: fast but dedup degrades as chunks grow (§2.1)."""
    from repro.core import dedup_ratio
    from repro.core.baselines import SampleByteChunker
    from repro.core.baselines import SampleByteConfig
    from repro.workloads import mutate

    data = seeded_bytes(1 * MB, seed=84)
    edited = mutate(data, 4, mode="replace", seed=85, edit_size=1024)
    table = report(
        "Baseline: Rabin vs SampleByte dedup of a 4%-edited stream",
        ["Expected chunk", "Rabin dedup", "SampleByte dedup"],
        paper_note="sampling suits only small chunks; skipping loses dedup (§2.1)",
    )

    def run():
        rows = []
        for bits, expected in ((8, 256), (10, 1024), (12, 4096)):
            rabin = Chunker(ChunkerConfig(mask_bits=bits, marker=0x55 & ((1 << bits) - 1) | 1))
            sample = SampleByteChunker(SampleByteConfig(expected_size=expected))
            r = dedup_ratio(rabin.chunk(data) + rabin.chunk(edited))
            s = dedup_ratio(sample.chunk(data) + sample.chunk(edited))
            rows.append((expected, r, s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in rows:
        table.add(*row)
    # Rabin at least matches SampleByte everywhere.
    assert all(r >= s * 0.95 for _, r, s in rows)
