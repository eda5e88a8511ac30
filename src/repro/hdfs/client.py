"""HDFS client: upload (fixed-size or Shredder content-based) and read.

Mirrors the paper's Fig. 14: the computationally expensive chunking runs
in the Shredder-enabled HDFS client before chunks are pushed to the
datanodes.  The shell-level distinction is preserved in the API:

``copy_from_local``      fixed-size blocks (stock HDFS behaviour)
``copy_from_local_gpu``  content-based chunking via a Shredder instance,
                         optionally snapped to record boundaries
                         (semantic chunking, §6.3)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hashing import chunk_hash
from repro.core.shredder import Shredder, ShredderConfig, ShredderReport
from repro.hdfs.namenode import FileMetadata, NameNode
from repro.hdfs.semantic import snap_cuts_to_records
from repro.hdfs.splits import InputSplit, file_splits

__all__ = ["HDFSClient", "UploadResult", "DEFAULT_BLOCK_SIZE"]

#: Stock HDFS block size used by ``copy_from_local`` (64 MB in Hadoop
#: 0.20; kept smaller here so in-process tests exercise multi-block files).
DEFAULT_BLOCK_SIZE = 4 * 1024 * 1024


@dataclass
class UploadResult:
    """Outcome of an upload: file metadata plus chunking telemetry."""

    meta: FileMetadata
    n_blocks: int
    total_bytes: int
    shredder_report: ShredderReport | None = None


class HDFSClient:
    """Client connected to a NameNode (and through it, the datanodes)."""

    def __init__(self, namenode: NameNode) -> None:
        self.namenode = namenode

    # -- write paths ---------------------------------------------------------

    def _store_block(self, path: str, data: bytes) -> None:
        block = self.namenode.allocate_block(path, len(data), chunk_hash(data))
        for node_id in block.replicas:
            self.namenode.get_datanode(node_id).store_block(block.block_id, data)

    def copy_from_local(
        self, data: bytes, path: str, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> UploadResult:
        """Stock upload: fixed-size blocks (offset-defined boundaries)."""
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        meta = self.namenode.create_file(path, content_based=False)
        for off in range(0, len(data), block_size):
            self._store_block(path, data[off : off + block_size])
        self.namenode.complete_file(path)
        return UploadResult(meta, len(meta.blocks), meta.length)

    def _store_content_blocks(
        self,
        path: str,
        data: bytes,
        shredder: Shredder | None,
        record_delimiter: bytes | None,
    ) -> ShredderReport:
        """Chunk ``data`` with ``shredder`` (a fresh one when ``None``),
        snap the cuts forward to ``record_delimiter`` when given, and
        store each non-empty piece as the next block of ``path``."""
        own = shredder is None
        if own:
            shredder = Shredder(ShredderConfig.gpu_streams_memory())
        try:
            chunks, report = shredder.process(data)
        finally:
            if own:
                shredder.close()
        cuts = [c.end for c in chunks]
        if record_delimiter is not None:
            cuts = snap_cuts_to_records(data, cuts, record_delimiter)
        prev = 0
        for cut in cuts:
            if cut > prev:
                self._store_block(path, data[prev:cut])
            prev = cut
        return report

    def copy_from_local_gpu(
        self,
        data: bytes,
        path: str,
        shredder: Shredder | None = None,
        record_delimiter: bytes | None = b"\n",
    ) -> UploadResult:
        """Inc-HDFS upload: content-based chunking offloaded to Shredder.

        When ``record_delimiter`` is given, chunk boundaries are snapped
        forward to record boundaries (semantic chunking) so no Map record
        is ever split across blocks.
        """
        meta = self.namenode.create_file(path, content_based=True)
        report = self._store_content_blocks(path, data, shredder, record_delimiter)
        self.namenode.complete_file(path)
        return UploadResult(meta, len(meta.blocks), meta.length, report)

    def append_gpu(
        self,
        data: bytes,
        path: str,
        shredder: Shredder | None = None,
        record_delimiter: bytes | None = b"\n",
    ) -> UploadResult:
        """Content-defined append (the daily-ingest path of Inc-HDFS).

        Only the final block can be affected by an append (chunk
        boundaries are content-local), so the client re-chunks just
        ``last block + new data`` and replaces that one block.  Every
        earlier block — and therefore every memoized map result over it —
        is untouched.
        """
        meta = self.namenode.get_file(path)
        if not meta.content_based:
            raise ValueError(f"{path} was not uploaded with content-based chunking")
        tail = b""
        if meta.blocks:
            last = meta.blocks[-1]
            live = self.namenode.replica_nodes(last.block_id)
            if not live:
                raise RuntimeError(f"tail block of {path} has no live replicas")
            tail = live[0].read_block(last.block_id)
            self.namenode.drop_last_block(path)
        report = self._store_content_blocks(
            path, tail + data, shredder, record_delimiter
        )
        return UploadResult(meta, len(meta.blocks), meta.length, report)

    # -- read paths ----------------------------------------------------------

    def read(self, path: str) -> bytes:
        """Whole-file read, preferring the first live replica per block."""
        meta = self.namenode.get_file(path)
        out = bytearray()
        for block in meta.blocks:
            nodes = self.namenode.replica_nodes(block.block_id)
            if not nodes:
                raise RuntimeError(
                    f"block {block.block_id} of {path} has no live replicas"
                )
            out.extend(nodes[0].read_block(block.block_id))
        return bytes(out)

    def read_split(self, split: InputSplit) -> bytes:
        nodes = self.namenode.replica_nodes(split.block_id)
        if not nodes:
            raise RuntimeError(f"split {split.index} of {split.path} unreadable")
        return nodes[0].read_block(split.block_id)

    def get_splits(self, path: str) -> list[InputSplit]:
        return file_splits(self.namenode.get_file(path))

    def delete(self, path: str) -> None:
        self.namenode.delete_file(path)
