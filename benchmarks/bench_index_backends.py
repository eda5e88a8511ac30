"""Index backends: batched hit/miss probe cost, memory vs disk.

The ROADMAP asked for a multi-backend dedup index "to model realistic
index-miss costs": §7.3 charges a miss ~6x a hit precisely because the
unoptimized store walks an *on-disk* index.  With the ChunkBackend seam
in place this bench measures it instead of assuming it, sweeping index
size x backend x probe mix:

* **hits** — digests present in the index (memtable or sorted runs);
* **misses** — fresh digests; on the disk backend a miss is the same
  walk a hit is — the memtable, then one ``bisect`` over each run's
  resident key list — and never reads the log to say "no".

Acceptance: both backends answer every probe correctly; on the disk
backend a miss costs no more than 2x a hit at every index size (nothing
sits in front of the runs, so the two differ only in where the walk
stops).

Run standalone for the CI smoke:
``python benchmarks/bench_index_backends.py --quick``.
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.bench.reporting import ResultTable, format_table
from repro.core.hashing import chunk_hash
from repro.store.backend import MemoryBackend, PersistentBackend

PROBE_COUNT = 2048
PUT_BATCH = 1024


def make_digests(n: int, salt: bytes = b"") -> list[bytes]:
    return [chunk_hash(salt + i.to_bytes(8, "big")) for i in range(n)]


def build_backend(kind: str, digests: list[bytes], workdir: str):
    if kind == "memory":
        backend = MemoryBackend()
    else:
        # A memtable below every swept index size forces real runs, so
        # the probe path exercises the per-run binary search.
        backend = PersistentBackend(
            f"{workdir}/{kind}-{len(digests)}", memtable_limit=1024
        )
    value = b"\x00" * 8  # offsets, as the dedup index stores them
    for start in range(0, len(digests), PUT_BATCH):
        backend.put_batch(
            [(d, value) for d in digests[start : start + PUT_BATCH]]
        )
    backend.flush()
    return backend


def probe_cost_us(backend, digests: list[bytes], repeats: int = 3) -> float:
    """Best-of-N per-digest cost of one batched contains probe."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        backend.contains_batch(digests)
        best = min(best, time.perf_counter() - t0)
    return best / len(digests) * 1e6


def sweep(sizes, workdir: str):
    """[(size, kind, hit_us, miss_us)]."""
    rows = []
    for size in sizes:
        stored = make_digests(size)
        hit_probe = stored[:: max(1, size // PROBE_COUNT)][:PROBE_COUNT]
        miss_probe = make_digests(min(PROBE_COUNT, size), salt=b"miss")
        for kind in ("memory", "disk"):
            backend = build_backend(kind, stored, workdir)
            assert all(backend.contains_batch(hit_probe)), "hit probe lied"
            assert not any(backend.contains_batch(miss_probe)), "miss probe lied"
            hit_us = probe_cost_us(backend, hit_probe)
            miss_us = probe_cost_us(backend, miss_probe)
            rows.append((size, kind, hit_us, miss_us))
            backend.close()
    return rows


def check_acceptance(rows) -> None:
    for size, kind, hit_us, miss_us in rows:
        assert hit_us > 0 and miss_us > 0
        if kind == "disk":
            assert miss_us <= 2 * hit_us, (
                f"size={size}: a disk miss costs {miss_us:.3f} us, more than "
                f"2x a hit ({hit_us:.3f} us)"
            )


def build_tables(report, sizes):
    with tempfile.TemporaryDirectory(prefix="repro-bench-idx-") as workdir:
        rows = sweep(sizes, workdir)
    t = report(
        "Batched index probe cost by backend [us/digest, lower is better]",
        ["Index size", "Backend", "Hit", "Miss"],
        paper_note="the 'unoptimized index lookup' of §7.3, measured: "
        "a disk miss is one bisect per resident run, like a hit",
    )
    for size, kind, hit_us, miss_us in rows:
        t.add(size, kind, f"{hit_us:.3f}", f"{miss_us:.3f}")
    check_acceptance(rows)
    return rows


def test_index_backend_probe_cost(benchmark, report):
    benchmark.pedantic(
        lambda: build_tables(report, sizes=(2048, 16384)),
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    tables: list[ResultTable] = []

    def report(title, headers, paper_note=""):
        table = ResultTable(title=title, headers=headers, paper_note=paper_note)
        tables.append(table)
        return table

    sizes = (2048, 16384) if quick else (2048, 16384, 65536, 262144)
    build_tables(report, sizes)
    for table in tables:
        print(format_table(table))
        print()
    print("acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
