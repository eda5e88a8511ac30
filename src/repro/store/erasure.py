"""Systematic Reed–Solomon erasure coding over GF(2^8), pure NumPy.

The cluster's fourth placement scheme stores each chunk as ``k`` data
fragments plus ``m`` parity fragments on ``k + m`` distinct ring nodes
(:class:`~repro.store.schemes.ErasureCodedPlacement`).  This module is
the codec underneath it:

* **Systematic layout** — the ``k`` data fragments are plain slices of
  the chunk (zero-padded to ``k`` equal pieces), so the common
  all-healthy read path is concatenation, never a matrix solve.
* **Cauchy parity** — the ``m`` parity rows come from a Cauchy matrix,
  so the full ``(k+m) x k`` encode matrix has every ``k x k`` submatrix
  invertible: *any* ``k`` of the ``k+m`` fragments reconstruct the
  chunk (the MDS property), and any lost fragment can be rebuilt from
  any ``k`` survivors without materializing the others.
* **Packed-lane NumPy arithmetic** — encode, parity decode and rebuild
  are one kernel: ``k`` input rows times a coefficient matrix is one
  gather per input byte from a cached 256-entry table per input row
  whose byte lane ``i`` holds the product for output row ``i``, so the
  XOR of the gathers carries up to eight output rows; no per-byte Python.

Fragments travel framed (:func:`pack_fragment` / :func:`unpack_fragment`):
a fixed header carries the fragment index, the ``(k, m)`` geometry, the
original chunk length (padding is trimmed on decode), and a
collision-resistant digest of those fields and the fragment payload.
``unpack_fragment`` re-digests on every read, so a silently corrupted
fragment — bit rot in the payload *or* the header, or an injected
``backend.bit_flip`` — raises :class:`CorruptFragmentError` instead of
feeding garbage (or another fragment's position) into a decode.
"""

from __future__ import annotations

import functools
import struct
from hashlib import sha256
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "CorruptFragmentError",
    "FragmentFormatError",
    "FragmentRecord",
    "ReedSolomonCodec",
    "codec_for",
    "fragment_chunk_len",
    "pack_fragment",
    "unpack_fragment",
    "FRAGMENT_HEADER_SIZE",
]

#: The AES / QR-code field polynomial x^8 + x^4 + x^3 + x^2 + 1.
_PRIMITIVE_POLY = 0x11D

# -- field tables (module-level, built once) ---------------------------


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    exp[255:510] = exp[:255]
    # Full product table: one gather replaces log/exp round trips on
    # the hot encode/decode path (64 KiB, shared by every codec).
    mul = np.zeros((256, 256), dtype=np.uint8)
    nz = np.arange(1, 256)
    mul[1:, 1:] = exp[log[nz][:, None] + log[nz][None, :]]
    return exp, log, mul


GF_EXP, GF_LOG, GF_MUL = _build_tables()


def gf_mul(a: int, b: int) -> int:
    """Scalar GF(2^8) product."""
    return int(GF_MUL[a, b])


def gf_inv(a: int) -> int:
    """Scalar GF(2^8) multiplicative inverse (``a`` must be nonzero)."""
    if a == 0:
        raise ZeroDivisionError("GF(2^8) zero has no inverse")
    return int(GF_EXP[255 - int(GF_LOG[a])])


@functools.lru_cache(maxsize=256)
def _matrix_invert(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Gauss–Jordan inverse of a small GF(2^8) matrix (k x k), cached
    per surviving-fragment submatrix."""
    k = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)]
           for i, row in enumerate(rows)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:  # cannot happen for an MDS submatrix
            raise ValueError("singular fragment matrix (duplicate indices?)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = gf_inv(aug[col][col])
        aug[col] = [gf_mul(scale, v) for v in aug[col]]
        for r in range(k):
            if r == col or not aug[r][col]:
                continue
            factor = aug[r][col]
            aug[r] = [v ^ gf_mul(factor, p) for v, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


# -- the packed-lane kernel --------------------------------------------

#: Most output rows one gather carries: a ``uint64``, one per byte lane.
_LANES = 8


@functools.lru_cache(maxsize=256)
def _lane_tables(rows: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """``(groups, k, 256)`` tables of an ``r x k`` matrix: entry
    ``[g, j, x]`` holds ``rows[lanes * g + i][j] * x`` in byte lane
    ``i`` (memory order), lanes as narrow as ``r`` allows (EC(4+2)
    parity moves 2 bytes per gather, not 8)."""
    r, k = len(rows), len(rows[0])
    lanes = min(_LANES, 1 << (r - 1).bit_length())
    groups = -(-r // lanes)
    coeffs = np.zeros((groups * lanes, k), dtype=np.intp)
    coeffs[:r] = rows
    products = GF_MUL[coeffs].reshape(groups, lanes, k * 256)
    packed = np.ascontiguousarray(products.transpose(0, 2, 1))
    return packed.view(f"u{lanes}").reshape(groups, k, 256)


def _gf_matmul(rows: tuple[tuple[int, ...], ...], grid: np.ndarray, out=None) -> np.ndarray:
    """``rows`` (``r x k`` coefficients) times ``grid`` (``k`` rows of
    bytes) over GF(2^8), into ``out`` (``r`` rows)."""
    k, size = grid.shape
    if out is None:
        out = np.empty((len(rows), size), dtype=np.uint8)
    if not rows:
        return out
    tables = _lane_tables(rows)
    lanes = tables.itemsize
    index = grid.astype(np.intp)
    for first, group in zip(range(0, len(rows), lanes), tables):
        # Gathering row by row into one accumulator beats one gather
        # over all k rows plus a reduce at fragment sizes (>= 1 KiB).
        packed = group[0].take(index[0])
        for j in range(1, k):
            packed ^= group[j].take(index[j])
        last = min(first + lanes, len(rows))
        out[first:last] = packed.view(np.uint8).reshape(size, lanes)[:, : last - first].T
    return out


# -- fragment framing --------------------------------------------------

#: ``magic | index | k | m | pad | chunk_len`` — the fields — then the
#: record digest: 48 bytes in all, the payload follows.
_FIELDS = struct.Struct("!4sBBBxQ")
_HEADER = struct.Struct("!4sBBBxQ32s")
#: Written today: the digest covers the fields *and* the payload, so a
#: flipped index or chunk length fails the read like a flipped payload
#: byte does.
_MAGIC = b"ECF2"
#: Read, never written: the digest covers the payload only.
_MAGIC_V1 = b"ECF1"
FRAGMENT_HEADER_SIZE = _HEADER.size


class FragmentFormatError(ValueError):
    """Stored bytes are not a parseable fragment record."""


class CorruptFragmentError(ValueError):
    """A fragment record no longer hashes to its stored digest."""


class FragmentRecord(NamedTuple):
    """One decoded fragment: geometry, position, and verified payload."""

    index: int
    k: int
    m: int
    chunk_len: int
    payload: bytes

    @property
    def is_parity(self) -> bool:
        return self.index >= self.k


def pack_fragment(
    index: int, k: int, m: int, chunk_len: int, payload: bytes
) -> bytes:
    """Frame a fragment payload with geometry and the record's digest
    (SHA-256, what ``chunk_hash`` is — pinned here because it is on disk)."""
    fields = _FIELDS.pack(_MAGIC, index, k, m, chunk_len)
    hasher = sha256(fields)
    hasher.update(payload)
    return b"".join((fields, hasher.digest(), payload))


def _unpack_header(blob: bytes) -> tuple[bytes, int, int, int, int, bytes]:
    """``(magic, index, k, m, chunk_len, digest)`` of a fragment record."""
    if len(blob) < _HEADER.size:
        raise FragmentFormatError(
            f"fragment record truncated ({len(blob)} B < header)"
        )
    header = _HEADER.unpack_from(blob)
    if header[0] not in (_MAGIC, _MAGIC_V1):
        raise FragmentFormatError(f"bad fragment magic {header[0]!r}")
    return header


def fragment_chunk_len(blob: bytes) -> int:
    """The original chunk's length, from the record header alone.

    Nothing is re-digested: this answers "how long is the chunk this
    fragment belongs to" for a presence probe, never a read whose bytes
    are used (those go through :func:`unpack_fragment`).
    """
    return _unpack_header(blob)[4]


def unpack_fragment(blob: bytes) -> FragmentRecord:
    """Parse and *verify* a fragment record.

    Raises :class:`FragmentFormatError` when the bytes are not a
    fragment record at all, and :class:`CorruptFragmentError` when the
    record no longer matches its stored digest (bit rot — it must not be
    trusted).
    """
    magic, index, k, m, chunk_len, digest = _unpack_header(blob)
    # One copy, the payload the record returns: the digest is fed the
    # fields and then that payload, never a joined temporary.
    payload = blob[_HEADER.size :]
    check = sha256(blob[: _FIELDS.size]) if magic == _MAGIC else sha256()
    check.update(payload)
    if check.digest() != digest:
        raise CorruptFragmentError(
            f"fragment {index} fails its digest ({len(payload)} B)"
        )
    return FragmentRecord(index, k, m, chunk_len, payload)


# -- the codec ---------------------------------------------------------


class ReedSolomonCodec:
    """Systematic ``(k, m)`` Reed–Solomon codec over GF(2^8).

    ``encode`` yields ``k + m`` fragments: the first ``k`` are chunk
    slices (zero-padded to equal length), the last ``m`` are Cauchy
    parity.  ``decode`` reconstructs the chunk from any ``k`` fragments;
    ``rebuild`` re-derives specific lost fragments from any ``k``
    survivors.
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1:
            raise ValueError("k (data fragments) must be >= 1")
        if m < 0:
            raise ValueError("m (parity fragments) must be >= 0")
        if k + m > 255:
            raise ValueError("k + m must be <= 255 over GF(2^8)")
        self.k = k
        self.m = m
        self.n = k + m
        # Encode matrix: identity on top (systematic), Cauchy parity
        # below.  Points x_i = k + i (parity rows) and y_j = j (data
        # columns) are distinct and disjoint, so every square submatrix
        # of the Cauchy block — and therefore every k x k submatrix of
        # the full matrix — is invertible (the MDS property).
        rows = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        for i in range(m):
            rows.append([gf_inv((k + i) ^ j) for j in range(k)])
        self.matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in rows
        )
        self._parity = self.matrix[k:]

    def fragment_size(self, chunk_len: int) -> int:
        """Payload bytes per fragment for a chunk of ``chunk_len``."""
        return -(-chunk_len // self.k) if chunk_len else 0

    # -- encode --------------------------------------------------------

    def encode(self, data) -> list[bytes]:
        """Split ``data`` into ``k`` slices + ``m`` parity fragments."""
        buf = np.frombuffer(data, dtype=np.uint8)
        size = self.fragment_size(buf.size)
        frames = np.zeros((self.n, size), dtype=np.uint8)
        frames.reshape(-1)[: buf.size] = buf
        _gf_matmul(self._parity, frames[: self.k], out=frames[self.k :])
        # repro: lint-ok[zero-copy] the fragments are the API: one copy each, to the node
        return [row.tobytes() for row in frames]

    # -- decode --------------------------------------------------------

    def _data_grid(self, fragments: Mapping[int, bytes]) -> np.ndarray:
        """Reconstruct the ``k x f`` data grid from any k fragments."""
        # Data fragments pass through; sorting puts them first, so the
        # all-healthy path never pays for a solve.
        indices = sorted(fragments)[: self.k]
        if len(indices) < self.k:
            raise ValueError(
                f"need {self.k} fragments to decode, have {len(fragments)}"
            )
        if any(i < 0 or i >= self.n for i in indices):
            raise ValueError(f"fragment index outside 0..{self.n - 1}")
        size = len(fragments[indices[0]])
        if any(len(fragments[i]) != size for i in indices):
            raise ValueError("fragments differ in length")
        have = np.frombuffer(
            b"".join(fragments[i] for i in indices), dtype=np.uint8
        ).reshape(self.k, size)
        if indices == list(range(self.k)):
            return have
        return _gf_matmul(_matrix_invert(tuple(self.matrix[i] for i in indices)), have)

    def decode(self, fragments: Mapping[int, bytes], chunk_len: int) -> bytes:
        """The original chunk from any ``k`` of the ``n`` fragments."""
        data = [fragments.get(i) for i in range(self.k)]
        if None not in data and len({len(piece) for piece in data}) == 1:
            # Systematic code: the data fragments *are* the chunk's
            # slices, so the all-healthy read is a join, not a solve.
            return b"".join(data)[:chunk_len]
        grid = self._data_grid(fragments)
        # repro: lint-ok[zero-copy] the decoded chunk is the API: one copy of its bytes
        return grid.reshape(-1)[:chunk_len].tobytes()

    def rebuild(
        self, fragments: Mapping[int, bytes], targets: Sequence[int]
    ) -> dict[int, bytes]:
        """Re-derive specific fragments from any ``k`` survivors.

        Repair traffic is the point: only the ``targets`` are
        materialized and shipped, never the whole chunk.
        """
        for t in targets:
            if t < 0 or t >= self.n:
                raise ValueError(f"fragment index {t} outside 0..{self.n - 1}")
        grid = self._data_grid(fragments)
        # A data target's row is a unit row: the kernel copies it through.
        rebuilt = _gf_matmul(tuple(self.matrix[t] for t in targets), grid)
        # repro: lint-ok[zero-copy] the rebuilt fragments are the API, shipped to their nodes
        return {t: row.tobytes() for t, row in zip(targets, rebuilt)}


@functools.cache
def codec_for(k: int, m: int) -> ReedSolomonCodec:
    """Shared codec instance per ``(k, m)`` (matrices are immutable)."""
    return ReedSolomonCodec(k, m)
