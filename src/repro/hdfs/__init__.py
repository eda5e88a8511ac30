"""Inc-HDFS substrate: a namenode's namespace over the site's chunk
store, with content-based, record-aligned splits."""

from repro.hdfs.client import DEFAULT_BLOCK_SIZE, HDFSClient, UploadResult
from repro.hdfs.cluster import HDFSCluster
from repro.hdfs.errors import FileAlreadyExists, FileNotFoundInHDFS, HDFSError
from repro.hdfs.namenode import BlockInfo, FileMetadata, NameNode
from repro.hdfs.semantic import snap_cuts_to_records, split_records
from repro.hdfs.splits import InputSplit, file_splits

__all__ = [
    "DEFAULT_BLOCK_SIZE", "HDFSClient", "UploadResult", "HDFSCluster",
    "FileAlreadyExists", "FileNotFoundInHDFS", "HDFSError",
    "BlockInfo", "FileMetadata", "NameNode",
    "snap_cuts_to_records", "split_records", "InputSplit", "file_splits",
]
