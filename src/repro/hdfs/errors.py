"""Error types of the Inc-HDFS namespace."""

from __future__ import annotations

__all__ = ["HDFSError", "FileNotFoundInHDFS", "FileAlreadyExists"]


class HDFSError(Exception):
    """Base class for all HDFS errors."""


class FileNotFoundInHDFS(HDFSError):
    """The requested path does not exist in the namespace."""


class FileAlreadyExists(HDFSError):
    """Creating a path that already exists."""
