"""Chunk hashing (step 2 of duplicate identification, §2.1).

After chunk boundaries are found, each chunk is hashed with a
collision-resistant function; the digest is the key used by the matching
step (dedup index, memoization server).  SHA-1 was typical of systems of
the paper's era (LBFS, Venti); SHA-256 is the default here.

The batched entry points (:func:`digest_chunks`, :func:`digest_many`)
hash whole scan batches in one pass over ``memoryview`` slices — no
per-chunk ``bytes`` copies — on the calling thread.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Iterable, Sequence

__all__ = [
    "chunk_hash",
    "short_hash",
    "weak_checksum",
    "digest_chunks",
    "digest_many",
    "digest_views",
]

def chunk_hash(data) -> bytes:
    """Collision-resistant digest of a chunk (SHA-256, 32 bytes).

    Accepts any buffer-protocol object, so callers can pass
    ``memoryview`` slices without materializing ``bytes``.
    """
    return hashlib.sha256(data).digest()


def short_hash(data) -> int:
    """64-bit truncation of :func:`chunk_hash`, for compact in-memory keys."""
    return int.from_bytes(chunk_hash(data)[:8], "big")


def weak_checksum(data) -> int:
    """Fast 32-bit checksum (CRC32) used for cheap pre-filtering in indexes."""
    return zlib.crc32(data) & 0xFFFFFFFF


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


def digest_chunks(buffer, cuts: Sequence[int]) -> list[bytes]:
    """Batched digests of the chunks ``buffer[prev:cut]`` implied by ``cuts``.

    ``cuts`` are sorted exclusive end offsets (the first chunk starts at
    offset 0), exactly as produced by boundary selection.  The buffer is
    sliced through one ``memoryview`` — zero copies — and the whole batch
    is hashed in a single pass, so ``Chunker``, the SPMD host chunker and
    the backup server pay one call per scan batch instead of one Python
    round trip per chunk.
    """
    from repro.core.engines import as_byte_view  # local: keep hashing numpy-free

    mv = as_byte_view(buffer)
    slices = []
    prev = 0
    for cut in cuts:
        slices.append(mv[prev:cut])
        prev = cut
    return digest_many(slices)
