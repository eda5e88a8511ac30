"""NameNode: namespace, block placement and replication management."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.hdfs.datanode import DataNode
from repro.hdfs.errors import (
    BlockNotFound,
    FileAlreadyExists,
    FileNotFoundInHDFS,
    NoDataNodes,
)

__all__ = ["BlockInfo", "FileMetadata", "NameNode"]


@dataclass
class BlockInfo:
    """Metadata of one block: where its replicas live and its identity.

    ``digest`` is the content hash of the block.  For content-based
    (Inc-HDFS) uploads it doubles as the *stable split identity* used by
    incremental MapReduce memoization.
    """

    block_id: int
    length: int
    digest: bytes
    replicas: list[int] = field(default_factory=list)


@dataclass
class FileMetadata:
    """An HDFS file: an ordered list of blocks plus upload provenance."""

    path: str
    blocks: list[BlockInfo] = field(default_factory=list)
    content_based: bool = False
    complete: bool = False

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)


class NameNode:
    """Namespace and placement authority of the cluster.

    Placement policy: replicas go to the ``replication`` live datanodes
    with the fewest used bytes (a simplification of HDFS's rack-aware
    policy that preserves the load-balancing property tests rely on).
    """

    def __init__(self, replication: int = 2) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self._files: dict[str, FileMetadata] = {}
        self._datanodes: dict[int, DataNode] = {}
        self._block_ids = count(1)
        self._block_index: dict[int, BlockInfo] = {}

    # -- cluster membership --------------------------------------------------

    def register_datanode(self, node: DataNode) -> None:
        self._datanodes[node.node_id] = node

    def live_datanodes(self) -> list[DataNode]:
        return [n for n in self._datanodes.values() if n.alive]

    def get_datanode(self, node_id: int) -> DataNode:
        return self._datanodes[node_id]

    # -- namespace -----------------------------------------------------------

    def create_file(self, path: str, content_based: bool = False) -> FileMetadata:
        if path in self._files:
            raise FileAlreadyExists(path)
        meta = FileMetadata(path=path, content_based=content_based)
        self._files[path] = meta
        return meta

    def get_file(self, path: str) -> FileMetadata:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInHDFS(path) from None

    def delete_file(self, path: str) -> None:
        meta = self.get_file(path)
        for block in meta.blocks:
            self._forget_block(block)
        del self._files[path]

    def drop_last_block(self, path: str) -> None:
        """Delete the last block of ``path`` (an append replaces it)."""
        self._forget_block(self.get_file(path).blocks.pop())

    def _forget_block(self, block: BlockInfo) -> None:
        for node_id in block.replicas:
            node = self._datanodes.get(node_id)
            if node is not None and node.alive:
                node.delete_block(block.block_id)
        self._block_index.pop(block.block_id, None)

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def complete_file(self, path: str) -> None:
        self.get_file(path).complete = True

    # -- block placement -----------------------------------------------------

    def allocate_block(self, path: str, length: int, digest: bytes) -> BlockInfo:
        """Choose replica targets for a new block of ``path``."""
        meta = self.get_file(path)
        live = self.live_datanodes()
        if not live:
            raise NoDataNodes("no live datanodes registered")
        targets = sorted(live, key=lambda n: n.used_bytes)[: self.replication]
        block = BlockInfo(
            block_id=next(self._block_ids),
            length=length,
            digest=digest,
            replicas=[n.node_id for n in targets],
        )
        meta.blocks.append(block)
        self._block_index[block.block_id] = block
        return block

    def block_info(self, block_id: int) -> BlockInfo:
        try:
            return self._block_index[block_id]
        except KeyError:
            raise BlockNotFound(f"block {block_id} unknown to namenode") from None

    def replica_nodes(self, block_id: int) -> list[DataNode]:
        """Live datanodes holding the block, preferred first."""
        info = self.block_info(block_id)
        nodes = [self._datanodes[nid] for nid in info.replicas]
        return [n for n in nodes if n.alive]

    # -- replication repair ----------------------------------------------------

    def under_replicated_blocks(self) -> list[BlockInfo]:
        """Blocks with fewer live replicas than the replication target."""
        return [
            info
            for info in self._block_index.values()
            if len(self.replica_nodes(info.block_id)) < self.replication
        ]

    def re_replicate(self) -> int:
        """Restore replication for degraded blocks from surviving copies.

        Returns the number of new replicas created.  Blocks with no live
        replica at all cannot be repaired and are skipped (a restored
        datanode brings them back).
        """
        created = 0
        for info in self.under_replicated_blocks():
            survivors = self.replica_nodes(info.block_id)
            if not survivors:
                continue
            data = survivors[0].read_block(info.block_id)
            have = {n.node_id for n in survivors}
            candidates = sorted(
                (n for n in self.live_datanodes() if n.node_id not in have),
                key=lambda n: n.used_bytes,
            )
            needed = self.replication - len(survivors)
            for target in candidates[:needed]:
                target.store_block(info.block_id, data)
                created += 1
                # Replace a dead holder in the replica list, or append.
                dead = [
                    nid for nid in info.replicas
                    if not self._datanodes[nid].alive
                ]
                if dead:
                    info.replicas[info.replicas.index(dead[0])] = target.node_id
                else:
                    info.replicas.append(target.node_id)
        return created
