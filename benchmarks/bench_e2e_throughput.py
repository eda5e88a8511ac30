"""End-to-end chunk + hash + dedup throughput: the perf trajectory seed.

Measures the real (wall-clock) data path — marker scan, boundary
selection, chunk hashing, dedup index probes — sweeping input size x
engine x dedup backend, and writes ``BENCH_e2e.json`` so every future PR
has a committed trajectory to beat.

Two pipelines per configuration:

``reference``
    The pre-optimization shape: untiled full-buffer gather scan,
    pure-Python min/max selection, one eager ``bytes`` copy + SHA call
    per chunk, one index probe per digest.

``fast``
    The zero-copy path: the vector engine's scan (the native kernel,
    or where no library builds the byte-plane NumPy roll kernel on the
    static geometry ``DEFAULT_LANES`` x ``DEFAULT_TILE_BYTES`` x
    ``DEFAULT_ROLL_STEPS``), ``Chunker.chunk``'s one-buffer
    ``pipeline_chunks`` run (incremental min/max selection, lazy view
    chunks, one batched hashing pass per batch), batched index/cluster
    lookups, all on one thread.  Rows carry the scan's kernel-dispatch
    counters (dispatches/MiB, bytes/dispatch, geometry: ``{"kernel":
    "native"}`` for a native scan) and the result records the NumPy
    ``scan_geometry``, whose dispatch reduction the acceptance probe
    measures on the NumPy kernel directly.

Acceptance (enforced in full mode): the fast path is >= 3x the reference
on a 64 MiB input (VectorEngine, batched lookups) and its chunks and
digests are bit-identical to SerialEngine output.

The regression gate (``--check BENCH_e2e.json``, used by CI with
``--quick``) compares the measured fast/reference *speedup ratio* — not
absolute MiB/s, which varies with the host — against the committed
baseline and fails on a >30% regression.

Run standalone:  python benchmarks/bench_e2e_throughput.py [--quick]
                 [--out BENCH_e2e.json] [--check BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import ResultTable, format_table
from repro.core import (
    Chunk,
    Chunker,
    ChunkerConfig,
    DedupIndex,
    SerialEngine,
    VectorEngine,
    default_engine,
    reset_scan_counters,
    scan_counters,
    select_cuts,
)
from repro.core.engines import DEFAULT_LANES, DEFAULT_ROLL_STEPS, DEFAULT_TILE_BYTES
from repro.store.cluster import ChunkStoreCluster
from repro.workloads import seeded_bytes

MB = 1 << 20
TARGET_SPEEDUP = 3.0
#: Roll-kernel dispatch acceptance: at roll_steps=8 the scan must issue
#: at least this factor fewer kernel dispatches per MiB than blocks of
#: one row on the same geometry (ISSUE 4 bar: >= 4x at S=8).
TARGET_DISPATCH_REDUCTION = 4.0
REGRESSION_TOLERANCE = 0.30
#: Speedup ratios are only recorded (and gated) for sizes at least this
#: large: sub-4 MiB runs finish in tens of milliseconds, where co-tenant
#: noise on shared CI runners skews the two pipelines differently and
#: the ratio stops being host-independent.
GATE_MIN_BYTES = 4 * MB

#: The acceptance configuration: paper defaults (8 KiB expected chunks).
CONFIG = ChunkerConfig()


def _label(size: int, engine: str, backend: str) -> str:
    return f"{size // MB}MiB/{engine}/{backend}" if size >= MB else (
        f"{size // 1024}KiB/{engine}/{backend}"
    )


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------


def reference_candidate_cuts(engine, data: bytes, mask: int, marker: int) -> list[int]:
    """The pre-optimization scan: untiled gather over the whole buffer."""
    d = np.frombuffer(data, dtype=np.uint8)
    w = engine.window_size
    if d.size < w:
        return []
    if mask <= 0xFFFF:
        fps = engine._low_fingerprints(d)
        hits = np.nonzero((fps & np.uint16(mask)) == np.uint16(marker))[0]
    else:
        fps = engine.fingerprints(d)
        hits = np.nonzero((fps & np.uint64(mask)) == np.uint64(marker))[0]
    return [int(i) + w for i in hits]


def reference_pipeline(data: bytes, config: ChunkerConfig, engine) -> tuple[list, DedupIndex]:
    """Pre-optimization end-to-end path (scan -> select -> copy+hash -> probe)."""
    candidates = reference_candidate_cuts(engine, data, config.mask, config.marker)
    cuts = select_cuts(candidates, len(data), config.min_size, config.max_size)
    chunks = []
    prev = 0
    for cut in cuts:
        chunks.append(Chunk.from_bytes(prev, data[prev:cut]))  # copy + hash
        prev = cut
    index = DedupIndex()
    for chunk in chunks:  # one Python probe per digest (batch of one)
        index.lookup_or_insert_batch([chunk.digest], [chunk.length])
    return chunks, index


def fast_pipeline(data, chunker: Chunker, backend: str):
    """Zero-copy end-to-end path with batched hashing and lookups."""
    chunks = chunker.chunk(data)  # one scan, lazy views, batched digests
    if backend == "cluster":
        cluster = ChunkStoreCluster(n_nodes=4, batch_size=256)
        hit_map, _ = cluster.lookup_chunks(chunks)
        for chunk in chunks:
            if not hit_map[chunk.digest]:
                cluster.put_chunk(chunk.digest, chunk.data)
        return chunks, cluster
    index = DedupIndex()
    index.add_all(chunks)
    return chunks, index


def serial_pipeline(data, config: ChunkerConfig):
    """Pure-Python rolling scan end to end (tiny inputs only)."""
    chunker = Chunker(config, SerialEngine(chunker_fingerprinter()))
    chunks = chunker.chunk(data)
    index = DedupIndex()
    index.add_all(chunks)
    return chunks, index


def chunker_fingerprinter():
    return default_engine().fingerprinter


def timed(fn, *args, repeats: int = 1) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def run_sweep(quick: bool) -> dict:
    if quick:
        vector_sizes = [1 * MB, 4 * MB]
        serial_sizes = [64 * 1024]
        acceptance_size = None
    else:
        # Includes both quick-mode sizes so the CI gate always finds its
        # keys in the committed full-mode baseline.
        vector_sizes = [1 * MB, 4 * MB, 16 * MB, 64 * MB]
        serial_sizes = [256 * 1024]
        acceptance_size = 64 * MB

    engine = default_engine()
    chunker = Chunker(CONFIG, engine)
    # Warm up tables and NumPy dispatch outside the timed regions.
    fast_pipeline(seeded_bytes(MB, seed=99), chunker, "single")

    rows: list[dict] = []
    speedups: dict[str, float] = {}

    def record(size, eng, backend, path, seconds, n_chunks, runs=1):
        row = {
            "size_bytes": size,
            "engine": eng,
            "backend": backend,
            "path": path,
            "seconds": round(seconds, 6),
            "mib_per_s": round(size / MB / seconds, 3),
            "n_chunks": n_chunks,
        }
        # Scan instrumentation accumulated since the last reset: kernel
        # dispatches per MiB and payload bytes per dispatch make the
        # fused kernel's dispatch reduction visible in BENCH_e2e.json.
        counters = scan_counters()
        if counters.dispatches and runs:
            row["scan_dispatches"] = counters.dispatches // runs
            row["dispatches_per_mib"] = round(counters.dispatches_per_mib, 2)
            row["bytes_per_dispatch"] = round(counters.bytes_per_dispatch)
            row["scan_geometry"] = counters.geometry
        rows.append(row)
        reset_scan_counters()

    acceptance: dict = {"target_speedup": TARGET_SPEEDUP}
    reset_scan_counters()
    for size in vector_sizes:
        data = seeded_bytes(size, seed=size & 0xFFFF)
        repeats = 3 if size <= 4 * MB else 1
        for backend in ("single", "cluster"):
            fast_s, (fast_chunks, _) = timed(
                fast_pipeline, data, chunker, backend, repeats=repeats
            )
            record(size, "vector", backend, "fast", fast_s, len(fast_chunks),
                   runs=repeats)
            if backend == "single":
                ref_s, (ref_chunks, _) = timed(
                    reference_pipeline, data, CONFIG, engine, repeats=repeats
                )
                record(size, "vector", backend, "reference", ref_s, len(ref_chunks))
                identical = [(c.offset, c.length, c.digest) for c in fast_chunks] == [
                    (c.offset, c.length, c.digest) for c in ref_chunks
                ]
                if not identical:
                    raise AssertionError(
                        f"fast path diverged from reference at {size} bytes"
                    )
                if size >= GATE_MIN_BYTES:
                    speedups[_label(size, "vector", backend)] = round(ref_s / fast_s, 3)
                if size == acceptance_size:
                    acceptance["speedup_64mib"] = round(ref_s / fast_s, 3)

    for size in serial_sizes:
        data = seeded_bytes(size, seed=size & 0xFFFF)
        serial_s, (serial_chunks, _) = timed(serial_pipeline, data, CONFIG)
        record(size, "serial", "single", "fast", serial_s, len(serial_chunks))
        fast_chunks, _ = fast_pipeline(data, chunker, "single")
        if [(c.offset, c.digest) for c in fast_chunks] != [
            (c.offset, c.digest) for c in serial_chunks
        ]:
            raise AssertionError("vector path diverged from SerialEngine")

    # -- fused-kernel dispatch reduction --------------------------------
    # Same geometry, roll_steps 1 vs 8: the NumPy roll kernel (called
    # directly; a native scan is one dispatch whatever the geometry) must
    # amortize per-launch cost by >= TARGET_DISPATCH_REDUCTION (asserted
    # in full mode; recorded always).
    dispatch_data = seeded_bytes(4 * MB, seed=0x5EED)
    per_mib: dict[int, float] = {}
    for steps in (1, 8):
        probe = VectorEngine(
            lanes=DEFAULT_LANES, tile_bytes=DEFAULT_TILE_BYTES, roll_steps=steps
        )
        reset_scan_counters()
        probe.numpy_cut_array(dispatch_data, CONFIG.mask, CONFIG.marker)
        per_mib[steps] = scan_counters().dispatches_per_mib
    reset_scan_counters()
    acceptance["dispatches_per_mib_s1"] = round(per_mib[1], 2)
    acceptance["dispatches_per_mib_s8"] = round(per_mib[8], 2)
    dispatch_reduction = per_mib[1] / per_mib[8] if per_mib[8] else 0.0
    acceptance["dispatch_reduction_s8"] = round(dispatch_reduction, 2)
    if not quick and dispatch_reduction < TARGET_DISPATCH_REDUCTION:
        raise AssertionError(
            f"fused kernel at S=8 only cut dispatches/MiB by "
            f"{dispatch_reduction:.2f}x (target >= "
            f"{TARGET_DISPATCH_REDUCTION}x)"
        )

    if acceptance_size is not None:
        # Bit-identical to the pure-Python reference engine on the full
        # acceptance input (slow: SerialEngine rolls 64 Mi windows).
        data = seeded_bytes(acceptance_size, seed=acceptance_size & 0xFFFF)
        serial_chunks = Chunker(CONFIG, SerialEngine(chunker_fingerprinter())).chunk(data)
        fast_chunks, _ = fast_pipeline(data, chunker, "single")
        acceptance["serial_identical"] = [
            (c.offset, c.length, c.digest) for c in serial_chunks
        ] == [(c.offset, c.length, c.digest) for c in fast_chunks]
        if not acceptance["serial_identical"]:
            raise AssertionError("fast path diverged from SerialEngine at 64 MiB")
        if acceptance["speedup_64mib"] < TARGET_SPEEDUP:
            raise AssertionError(
                f"end-to-end speedup {acceptance['speedup_64mib']:.2f}x below "
                f"the {TARGET_SPEEDUP}x acceptance bar"
            )

    return {
        "bench": "e2e_throughput",
        "mode": "quick" if quick else "full",
        "chunker": {
            "window_size": CONFIG.window_size,
            "mask_bits": CONFIG.mask_bits,
            "marker": CONFIG.marker,
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "scan_geometry": {
            "lanes": DEFAULT_LANES,
            "tile_bytes": DEFAULT_TILE_BYTES,
            "roll_steps": DEFAULT_ROLL_STEPS,
        },
        "rows": rows,
        "speedups": speedups,
        "acceptance": acceptance,
    }


# ----------------------------------------------------------------------
# reporting / regression gate
# ----------------------------------------------------------------------


def build_table(result: dict) -> ResultTable:
    table = ResultTable(
        "End-to-end chunk+hash+dedup throughput",
        ["Size", "Engine", "Backend", "Path", "Seconds", "MiB/s"],
        paper_note="fast = zero-copy scan + batched hash/lookup; "
        "reference = pre-optimization per-chunk path",
    )
    for row in result["rows"]:
        size = row["size_bytes"]
        label = f"{size // MB} MiB" if size >= MB else f"{size // 1024} KiB"
        table.add(
            label, row["engine"], row["backend"], row["path"],
            f"{row['seconds']:.3f}", f"{row['mib_per_s']:.1f}",
        )
    return table


def check_regression(result: dict, baseline_path: Path) -> list[str]:
    """Compare fast/reference speedup ratios against the committed baseline.

    Ratios are host-independent (both pipelines run on the same machine),
    so this gate travels across CI runners; absolute MiB/s is recorded
    for trend reading but not gated.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    base_speedups = baseline.get("speedups", {})
    matched = 0
    for key, measured in result["speedups"].items():
        expected = base_speedups.get(key)
        if expected is None:
            failures.append(
                f"{key}: measured but absent from baseline — regenerate "
                f"{baseline_path} with a full run so the gate covers it"
            )
            continue
        matched += 1
        floor = (1.0 - REGRESSION_TOLERANCE) * expected
        if measured < floor:
            failures.append(
                f"{key}: speedup {measured:.2f}x < {floor:.2f}x "
                f"(baseline {expected:.2f}x - {REGRESSION_TOLERANCE:.0%})"
            )
    if matched == 0:
        failures.append(
            "no speedup keys shared with the baseline — the gate checked "
            "nothing; regenerate the committed BENCH_e2e.json"
        )
    return failures


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def test_e2e_throughput(benchmark, report):
    """pytest-benchmark entry: quick sweep, table into the suite summary."""
    result = benchmark.pedantic(lambda: run_sweep(quick=True), rounds=1, iterations=1)
    table = report(
        "End-to-end chunk+hash+dedup throughput [quick]",
        ["Size", "Engine", "Backend", "Path", "Seconds", "MiB/s"],
        paper_note="see benchmarks/bench_e2e_throughput.py",
    )
    for row in result["rows"]:
        table.add(
            f"{row['size_bytes'] // 1024} KiB", row["engine"], row["backend"],
            row["path"], f"{row['seconds']:.3f}", f"{row['mib_per_s']:.1f}",
        )
    for key, speedup in result["speedups"].items():
        assert speedup > 1.0, f"{key}: fast path not faster than reference"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the result JSON (default: "
                        "BENCH_e2e.json in full mode, bench-e2e-quick.json "
                        "in --quick mode so smoke runs never clobber the "
                        "committed baseline)")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to gate speedup regressions against")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = Path("bench-e2e-quick.json" if args.quick else "BENCH_e2e.json")

    result = run_sweep(quick=args.quick)
    print(format_table(build_table(result)))
    if result["speedups"]:
        print("\nfast-path speedup vs pre-optimization reference:")
        for key, speedup in result["speedups"].items():
            print(f"  {key:24s} {speedup:5.2f}x")
    geometry = result["scan_geometry"]
    print(
        f"\nscan geometry: lanes={geometry['lanes']} "
        f"tile={geometry['tile_bytes'] // 1024} KiB "
        f"roll_steps={geometry['roll_steps']}"
    )
    acc = result["acceptance"]
    if "dispatch_reduction_s8" in acc:
        print(
            f"fused kernel dispatches/MiB: {acc['dispatches_per_mib_s1']:.0f} "
            f"at S=1 -> {acc['dispatches_per_mib_s8']:.0f} at S=8 "
            f"({acc['dispatch_reduction_s8']:.1f}x reduction)"
        )
    if "speedup_64mib" in result["acceptance"]:
        print(f"\nacceptance: {result['acceptance']['speedup_64mib']:.2f}x on 64 MiB "
              f"(target >= {TARGET_SPEEDUP}x), serial-identical: "
              f"{result['acceptance'].get('serial_identical')}")

    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.check is not None:
        if not args.check.exists():
            print(f"no baseline at {args.check}; skipping regression gate")
            return 0
        failures = check_regression(result, args.check)
        if failures:
            print("\nREGRESSION against committed baseline:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print("regression gate passed (speedups within "
              f"{REGRESSION_TOLERANCE:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
