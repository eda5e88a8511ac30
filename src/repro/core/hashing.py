"""Chunk hashing (step 2 of duplicate identification, §2.1).

After chunk boundaries are found, each chunk is hashed with a
collision-resistant function; the digest is the key used by the matching
step (dedup index, memoization server).  SHA-1 was typical of systems of
the paper's era (LBFS, Venti); SHA-256 is the default here.

The batched entry point :func:`digest_many` hashes a whole scan batch
in one pass over ``memoryview`` slices — no per-chunk ``bytes`` copies —
on the calling thread; :func:`digest_views` hashes one chunk that spans
several buffers without joining them.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

__all__ = [
    "chunk_hash",
    "digest_many",
    "digest_views",
]

def chunk_hash(data) -> bytes:
    """Collision-resistant digest of a chunk (SHA-256, 32 bytes).

    Accepts any buffer-protocol object, so callers can pass
    ``memoryview`` slices without materializing ``bytes``.
    """
    return hashlib.sha256(data).digest()


def digest_views(views: Iterable) -> bytes:
    """Digest of the concatenation of buffer views, without concatenating."""
    h = hashlib.sha256()
    for view in views:
        h.update(view)
    return h.digest()


def digest_many(pieces: Sequence) -> list[bytes]:
    """SHA-256 digests of a batch of buffers, in one pass.

    ``pieces`` may be any buffer-protocol objects (memoryview slices in
    the fast path).
    """
    return [hashlib.sha256(p).digest() for p in pieces]
