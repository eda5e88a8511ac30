"""HDFS client: upload (fixed-size or Shredder content-based) and read.

Mirrors the paper's Fig. 14: the computationally expensive chunking runs
in the Shredder-enabled HDFS client before its blocks are pushed to the
site's chunk store, keyed by their SHA-256 digests.  The shell-level
distinction is preserved in the API:

``copy_from_local``      fixed-size blocks (stock HDFS behaviour)
``copy_from_local_gpu``  content-based chunking via a Shredder instance,
                         optionally snapped to record boundaries
                         (semantic chunking, §6.3)

A file is published as a recipe named by its path, and enters the
namespace only once its blocks and recipe are stored, so a failed
upload leaves no file behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backup.store import SnapshotRecipe
from repro.core.hashing import chunk_hash
from repro.core.shredder import Shredder, ShredderConfig, ShredderReport
from repro.hdfs.namenode import BlockInfo, FileMetadata, NameNode
from repro.hdfs.semantic import snap_cuts_to_records
from repro.hdfs.splits import InputSplit, file_splits
from repro.store.cluster import ChunkStoreCluster

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
    """Client of the namenode's namespace over the site's chunk store."""

    def __init__(self, namenode: NameNode, store: ChunkStoreCluster) -> None:
        self.namenode = namenode
        self.store = store

    # -- write paths ---------------------------------------------------------

    def _put_blocks(self, pieces: list[bytes]) -> list[BlockInfo]:
        blocks = [BlockInfo(len(p), chunk_hash(p)) for p in pieces]
        self.store.put_chunks((b.digest, p) for b, p in zip(blocks, pieces))
        return blocks

    def _publish(
        self, path: str, blocks: list[BlockInfo], content_based: bool
    ) -> FileMetadata:
        digests = tuple(b.digest for b in blocks)
        total = sum(b.length for b in blocks)
        self.store.put_recipe(SnapshotRecipe(path, digests, total))
        return self.namenode.create_file(path, blocks, content_based)

    def _unpublish(self, path: str) -> None:
        self.namenode.delete_file(path)
        self.store.delete_recipe(path)

    def copy_from_local(
        self, data: bytes, path: str, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> UploadResult:
        """Stock upload: fixed-size blocks (offset-defined boundaries)."""
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.namenode.check_free(path)
        offsets = range(0, len(data), block_size)
        pieces = [data[off : off + block_size] for off in offsets]
        meta = self._publish(path, self._put_blocks(pieces), content_based=False)
        return UploadResult(meta, len(meta.blocks), meta.length)

    @staticmethod
    def _content_pieces(
        data: bytes, shredder: Shredder | None, record_delimiter: bytes | None
    ) -> tuple[list[bytes], ShredderReport]:
        """Chunk ``data`` with ``shredder`` (a fresh one when ``None``),
        snap the cuts forward to ``record_delimiter`` when given, and
        return the non-empty pieces."""
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
        pieces = [data[a:b] for a, b in zip([0, *cuts], cuts) if b > a]
        return pieces, report

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
        self.namenode.check_free(path)
        pieces, report = self._content_pieces(data, shredder, record_delimiter)
        meta = self._publish(path, self._put_blocks(pieces), content_based=True)
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
        is untouched.  The file's recipe is replaced and garbage
        collection drops the old tail unless another file shares it.
        """
        meta = self.namenode.get_file(path)
        if not meta.content_based:
            raise ValueError(f"{path} was not uploaded with content-based chunking")
        tail = self.store.get_chunk(meta.blocks[-1].digest) if meta.blocks else b""
        pieces, report = self._content_pieces(tail + data, shredder, record_delimiter)
        blocks = meta.blocks[:-1] + self._put_blocks(pieces)
        self._unpublish(path)
        meta = self._publish(path, blocks, content_based=True)
        self.store.garbage_collect()
        return UploadResult(meta, len(meta.blocks), meta.length, report)

    def delete(self, path: str) -> None:
        """Drop ``path`` and garbage-collect the blocks only it used."""
        self._unpublish(path)
        self.store.garbage_collect()

    # -- read paths ----------------------------------------------------------

    def read(self, path: str) -> bytes:
        """Whole-file read, each block from any live replica."""
        self.namenode.get_file(path)
        return self.store.restore(path)

    def read_split(self, split: InputSplit) -> bytes:
        return self.store.get_chunk(split.digest)

    def get_splits(self, path: str) -> list[InputSplit]:
        return file_splits(self.namenode.get_file(path))
