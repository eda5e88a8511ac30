"""NameNode: the namespace of Inc-HDFS (path -> ordered blocks).

Block bytes, placement and replication belong to the site's chunk
store; the namenode only names files and orders their blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdfs.errors import FileAlreadyExists, FileNotFoundInHDFS

__all__ = ["BlockInfo", "FileMetadata", "NameNode"]


@dataclass(frozen=True)
class BlockInfo:
    """One block of a file: its length and content digest.

    ``digest`` (SHA-256) is the block's key in the chunk store.  For
    content-based (Inc-HDFS) uploads it doubles as the *stable split
    identity* used by incremental MapReduce memoization.
    """

    length: int
    digest: bytes


@dataclass
class FileMetadata:
    """An HDFS file: an ordered list of blocks plus upload provenance."""

    path: str
    blocks: list[BlockInfo]
    content_based: bool = False

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)


class NameNode:
    """The namespace: which paths exist and which blocks make them up."""

    def __init__(self) -> None:
        self._files: dict[str, FileMetadata] = {}

    def check_free(self, path: str) -> None:
        if path in self._files:
            raise FileAlreadyExists(path)

    def create_file(
        self, path: str, blocks: list[BlockInfo], content_based: bool = False
    ) -> FileMetadata:
        """Enter a complete file (its blocks already stored) in the namespace."""
        self.check_free(path)
        meta = FileMetadata(path, blocks, content_based)
        self._files[path] = meta
        return meta

    def get_file(self, path: str) -> FileMetadata:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInHDFS(path) from None

    def delete_file(self, path: str) -> None:
        self.get_file(path)
        del self._files[path]

    def exists(self, path: str) -> bool:
        return path in self._files
