"""Convenience wiring for an in-process Inc-HDFS cluster."""

from __future__ import annotations

from repro.backup.site import SiteConfig, open_site
from repro.hdfs.client import HDFSClient
from repro.hdfs.namenode import NameNode

__all__ = ["HDFSCluster"]


class HDFSCluster:
    """A NameNode, a replicated chunk-store site of ``num_datanodes``
    nodes that holds the blocks, and a connected client.

    The paper's Fig. 15 experiment ran on a 20-node cluster; that is the
    default here.  A datanode failure is ``store.fail_node``, and
    re-replication is the store's recipe-driven ``repair()``.
    """

    def __init__(self, num_datanodes: int = 20, replication: int = 2) -> None:
        self.store = open_site(SiteConfig(
            store_backend="cluster",
            placement="replicated",
            cluster_nodes=num_datanodes,
            replication=min(replication, num_datanodes),
        ))
        self.namenode = NameNode()
        self.client = HDFSClient(self.namenode, self.store)
