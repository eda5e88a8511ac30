#!/usr/bin/env python3
"""Quickstart: content-based chunking with Shredder.

Chunks a stream with the fully optimized GPU configuration, verifies the
chunks reassemble exactly, deduplicates a second, slightly-edited copy,
shows the zero-copy streaming API, the self-tuned scan geometry, the
threaded engine + stage-overlapped pipeline, and prints the modeled
throughput for each backend configuration (the Figure 12 bars).

Run:  python examples/quickstart.py          # REPRO_THREADS=N to pin workers
                                             # REPRO_AUTOTUNE=0 for static
                                             # scan geometry
"""

from repro.backup import BackupConfig, BackupServer
from repro.core import (
    Chunker,
    DedupIndex,
    Shredder,
    ShredderConfig,
    ensure_digests,
    get_threads,
    pipeline_chunks,
    set_threads,
)
from repro.workloads import mutate, seeded_bytes

MB = 1 << 20
GB = 1 << 30


def main() -> None:
    data = seeded_bytes(8 * MB, seed=1)

    # -- chunk a buffer -----------------------------------------------------
    with Shredder(ShredderConfig.gpu_streams_memory()) as shredder:
        chunks, report = shredder.process(data)
    assert b"".join(c.data for c in chunks) == data
    print(f"chunked {report.total_bytes // MB} MiB into {report.n_chunks} chunks")
    print(f"mean chunk size: {report.mean_chunk_size:.0f} B "
          f"(expected {shredder.config.chunker.expected_chunk_size} B)")
    print(f"modeled time: {report.simulated_seconds * 1e3:.1f} ms "
          f"({report.throughput_bps / 1e9:.2f} GB/s, bottleneck: {report.bottleneck()})")

    # -- deduplicate an edited copy ------------------------------------------
    edited = mutate(data, percent=3, mode="replace", seed=2, edit_size=64 * 1024)
    with Shredder(ShredderConfig.gpu_streams_memory()) as shredder:
        edited_chunks, _ = shredder.process(edited)
    index = DedupIndex()
    index.add_all(chunks)
    stats = index.add_all(edited_chunks)
    print(f"\nafter 3% edits: {stats.dedup_ratio:.1%} of bytes deduplicated "
          f"({stats.duplicate_chunks} of {stats.total_chunks} chunks)")

    # -- zero-copy streaming API ---------------------------------------------
    # Chunkers accept any buffer-protocol object (memoryview, bytearray,
    # mmap, NumPy uint8 arrays) and never copy the payload: chunks are
    # lazy (offset, length) views whose data/digest materialize on
    # demand, and a whole batch hashes in one pass via ensure_digests.
    chunker = Chunker(shredder.config.chunker)
    view = memoryview(data)
    buffers = [view[off : off + MB] for off in range(0, len(view), MB)]
    streamed = list(chunker.chunk_stream(buffers))  # scans the views in place
    ensure_digests(streamed)  # batched hashing; c.digest is now free
    assert [c.digest for c in streamed] == [c.digest for c in chunks]
    known = {x.digest for x in chunks}
    dup = sum(1 for c in streamed if c.digest in known)
    print(f"\nzero-copy stream: {len(streamed)} chunks from {len(buffers)} "
          f"buffer views, {dup} digests matched without copying a payload")

    # -- self-tuned scan geometry --------------------------------------------
    # The striped scan's tile size, lane count, fused roll-step factor,
    # and thread default are *measured* for this host, not assumed: the
    # first defaulted engine triggers a sub-two-second micro-benchmark
    # whose winner persists to ~/.cache/repro/autotune.json (override
    # with REPRO_AUTOTUNE_CACHE; disable with REPRO_AUTOTUNE=0).  Run
    # `python -m repro tune` for the full grid, `--show` to inspect,
    # `--force` to re-measure after a hardware/NumPy change.
    from repro.core import get_geometry

    geometry = get_geometry()
    print(f"\nscan geometry [{geometry.source}]: lanes={geometry.lanes}, "
          f"tile={geometry.tile_bytes >> 10} KiB, "
          f"fused roll_steps={geometry.roll_steps}")

    # -- threaded scan + stage-overlapped pipeline ---------------------------
    # One knob (REPRO_THREADS / set_threads / CLI --threads) drives the
    # scan and hash worker pools; 0/1 = serial.  pipeline_chunks — the
    # one driver every entry point runs — overlaps the marker scan of
    # buffer i+1 with the hashing of buffer i, and the caller's work on
    # each digested batch (here: flattening) overlaps both.  Chunks are
    # bit-identical to the serial path at any thread count.
    set_threads(4)
    piped = [
        chunk
        for batch in pipeline_chunks(chunker.candidate_cuts, chunker.config, buffers)
        for chunk in batch
    ]
    assert [c.digest for c in piped] == [c.digest for c in chunks]
    print(f"\npipelined chunk+hash with {get_threads()} workers: "
          f"{len(piped)} chunks, digests prefilled, stream order kept")
    set_threads(None)  # back to auto-detect

    # The backup server always runs this way: batched index/cluster
    # lookups and agent shipping overlap the scan and hash.
    with BackupServer(BackupConfig(engine="gpu")) as server:
        server.backup_snapshot(data, "base")
        report = server.backup_snapshot(edited, "edited")
    print(f"pipelined backup: {report.n_chunks} chunks, "
          f"{report.dedup_fraction:.1%} duplicates, "
          f"shipped {report.shipped_bytes // 1024} KiB")

    # -- persistent storage backend ------------------------------------------
    # Every state owner (dedup index, site store/cluster shards, recipes)
    # stores through one batched ChunkBackend seam.  backend="disk" puts
    # them on an append-only chunk log + LSM digest index under data_dir,
    # so a server can be closed, the process restarted, and a new server
    # opened on the same directory: snapshots restore bit-identical and
    # re-backing-up known data ships zero bytes.  Same via the CLI:
    #   python -m repro cluster FILE --backend disk --data-dir DIR
    import tempfile

    with tempfile.TemporaryDirectory() as state_dir:
        durable = BackupConfig(backend="disk", data_dir=state_dir)
        with BackupServer(durable) as server:
            server.backup_snapshot(data, "durable")
        with BackupServer(durable) as server:  # "restarted" process
            assert server.agent.restore("durable") == data
            again = server.backup_snapshot(data, "durable-again")
        print(f"\ndisk backend: reopened {state_dir} — restore byte-exact, "
              f"re-backup shipped {again.shipped_bytes} B "
              f"({again.dedup_fraction:.0%} duplicates)")

    # -- compare the Figure 12 configurations --------------------------------
    print("\nmodeled chunking bandwidth for a 1 GiB stream (Figure 12):")
    for name, cfg in [
        ("CPU w/o Hoard", ShredderConfig.cpu(hoard=False)),
        ("CPU w/ Hoard", ShredderConfig.cpu(hoard=True)),
        ("GPU Basic", ShredderConfig.gpu_basic()),
        ("GPU Streams", ShredderConfig.gpu_streams()),
        ("GPU Streams + Memory", ShredderConfig.gpu_streams_memory()),
    ]:
        with Shredder(cfg) as shredder:
            bps = shredder.simulate(GB).throughput_bps
        print(f"  {name:22s} {bps / 1e9:5.2f} GB/s")


if __name__ == "__main__":
    main()
