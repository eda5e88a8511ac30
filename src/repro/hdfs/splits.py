"""Input splits: the unit of work handed to Map tasks.

With the stock HDFS upload path, splits are fixed-size blocks: a small
insertion early in the file shifts every later block and changes every
split.  With the Inc-HDFS (Shredder) path, splits are content-defined
chunks whose digests are stable under local edits — the property that
makes Incoop's memoization effective (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdfs.namenode import FileMetadata

__all__ = ["InputSplit", "file_splits"]


@dataclass(frozen=True)
class InputSplit:
    """One split: a block of a file plus its stable content identity."""

    path: str
    index: int
    offset: int
    length: int
    digest: bytes

    @property
    def split_id(self) -> str:
        """Stable identity: content digest (hex), used as memoization key."""
        return self.digest.hex()


def file_splits(meta: FileMetadata) -> list[InputSplit]:
    """The ordered input splits of a stored file (one per block)."""
    splits = []
    offset = 0
    for i, block in enumerate(meta.blocks):
        splits.append(
            InputSplit(
                path=meta.path,
                index=i,
                offset=offset,
                length=block.length,
                digest=block.digest,
            )
        )
        offset += block.length
    return splits
