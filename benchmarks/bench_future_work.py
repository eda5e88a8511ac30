"""The paper's §9 future-work directions, quantified.

1. Parallel min/max selection ([31, 33]) — removes the Store thread's
   sequential post-filter limitation that capped the backup case study
   at 2.5x.
2. GPUDirect packet I/O ([4]) — NIC-to-GPU DMA removes the 2 GBps SAN
   reader from the data path.
3. Multi-GPU scaling — data-parallel chunking across devices.
4. RE middleboxes ([11]) — WAN bandwidth savings from Shredder chunking.
"""

from __future__ import annotations

import time

from repro.core import Chunker, ChunkerConfig, select_cuts
from repro.core.parallel_minmax import parallel_select_cuts
from repro.core.shredder import Shredder, ShredderConfig
from repro.netre import RETunnel, TrafficConfig, TrafficGenerator
from repro.workloads import seeded_bytes

GB = 1 << 30
MB = 1 << 20


def test_parallel_minmax(benchmark, report):
    """Parallel jump-table min/max selection vs sequential greedy."""
    data = seeded_bytes(4 * MB, seed=81)
    chunker = Chunker(ChunkerConfig(mask_bits=10, marker=0x2AB))
    candidates = chunker.candidate_cuts(data)
    table = report(
        "Future work: parallel min/max selection (equivalence + wall time)",
        ["Selector", "Cuts", "Wall ms"],
        paper_note="§9: incorporate parallel chunking with min/max [31, 33]",
    )

    def run():
        t0 = time.perf_counter()
        seq = select_cuts(candidates, len(data), 2048, 16384)
        t_seq = time.perf_counter() - t0
        t0 = time.perf_counter()
        par = parallel_select_cuts(candidates, len(data), 2048, 16384, workers=4)
        t_par = time.perf_counter() - t0
        assert par == seq
        return seq, t_seq, par, t_par

    seq, t_seq, par, t_par = benchmark(run)
    table.add("sequential greedy", len(seq), t_seq * 1e3)
    table.add("parallel jump table", len(par), t_par * 1e3)


def test_gpu_direct_and_multi_gpu(benchmark, report):
    table = report(
        "Future work: GPUDirect + multi-GPU throughput [GBps, 1 GB modeled]",
        ["Configuration", "Throughput", "Bottleneck"],
        paper_note="§9: GPUDirect removes the host from the ingest path",
    )

    def run():
        rows = []
        for name, cfg in [
            ("baseline (SAN reader @2GBps)", ShredderConfig.gpu_streams_memory()),
            ("+ GPUDirect (IB @4GBps)", ShredderConfig.gpu_streams_memory(gpu_direct=True)),
            ("+ GPUDirect + 2 GPUs", ShredderConfig.gpu_streams_memory(gpu_direct=True, num_gpus=2)),
            ("+ GPUDirect + 4 GPUs", ShredderConfig.gpu_streams_memory(gpu_direct=True, num_gpus=4)),
        ]:
            with Shredder(cfg) as shredder:
                rep = shredder.simulate(GB)
            rows.append((name, rep.throughput_bps, rep.bottleneck()))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, bps, bottleneck in rows:
        table.add(name, bps / 1e9, bottleneck)
    throughputs = [r[1] for r in rows]
    assert throughputs[1] > 1.5 * throughputs[0]  # GPUDirect lifts reader wall
    assert throughputs[-1] >= throughputs[1]      # GPUs never hurt


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
