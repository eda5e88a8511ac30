"""Pluggable chunk placement schemes over the consistent-hash ring.

Follows the jewel storage-scheme idiom (SNIPPETS.md): a small base
class fixes the contract — given a ring and a digest, name the nodes
that must hold the chunk — and each concrete scheme is one policy:

* :class:`VanillaPlacement` — one copy on the primary owner;
* :class:`StripedPlacement` — one copy striped across a window of the
  preference list, spreading hot digest ranges over several nodes;
* :class:`ReplicatedPlacement` — ``r`` copies on the first ``r``
  distinct successors, the scheme that survives node loss;
* :class:`ErasureCodedPlacement` — ``k + m`` Reed–Solomon *fragments*
  (``k`` data slices + ``m`` parity) on the first ``k + m`` distinct
  successors: reads and repair need any ``k`` of them, so ``m`` node
  losses cost ``m/k`` extra storage instead of whole replicas.

Schemes are deterministic functions of (ring membership, digest), so
every component — writer, batched lookup, repair — independently
derives identical placements without a central directory.

A scheme also owns its **item form**: how a chunk becomes the records
its placement targets store, and back.  ``encode`` yields, for each
chunk of a batch, one item per placement position; ``write`` stores a
batch of items on one node in one node put; ``read`` fetches one item
from one node and verifies it; ``decode`` reconstructs the chunk from
any ``min_fragments`` items and ``rebuild`` re-derives specific items
from them.  Both batched calls exist for the write path's call shape:
a cluster put pays one ``encode`` per window of chunks and one
``write`` per node, not one of each per chunk.  The base class is the
whole-chunk form that vanilla, striped and replicated placement share
— a repetition code: every item is the chunk itself, one valid copy
reconstructs, and a copy on a target covers that target's position.
Erasure coding overrides it with Reed–Solomon fragments.  The cluster runs one read, write and
reconcile path over this seam and never asks which kind it has.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.store.backend import core_module
from repro.store.erasure import (
    CorruptFragmentError,
    FragmentFormatError,
    FragmentRecord,
    codec_for,
    fragment_chunk_len,
    unpack_fragment,
)
from repro.store.node import StoreNode
from repro.store.ring import HashRing

__all__ = [
    "CorruptItemError",
    "ItemWrite",
    "PlacementScheme",
    "VanillaPlacement",
    "StripedPlacement",
    "ReplicatedPlacement",
    "ErasureCodedPlacement",
    "make_scheme",
]


class CorruptItemError(ValueError):
    """A stored record failed verification, or is not a record of the
    scheme that read it (bit rot, a foreign format, a stale geometry)."""


class StoredItem(NamedTuple):
    """One verified item of a chunk, as read back from one node."""

    #: Which of the scheme's ``copies`` items this is; ``None`` for a
    #: whole copy, which stands for whatever position its holder has.
    index: int | None
    #: ``None`` from a ``peek`` that had no need to read the bytes.
    payload: bytes | None
    chunk_len: int | None


#: One item bound for one node, ``(digest, index, payload, chunk_len)``:
#: item ``index`` of the chunk ``digest``, which is ``chunk_len`` bytes
#: long.  A plain tuple: a window builds one per placement position.
ItemWrite = tuple[bytes, int, bytes, int]


class PlacementScheme:
    """Base class: maps a chunk digest to the node ids that store it,
    and a chunk to the items those nodes store (whole copies here)."""

    #: Short scheme identifier (CLI / config facing).
    name: str = "base"
    #: Items kept per chunk (copies, or fragments); failure tolerance is
    #: ``copies - min_fragments``.
    copies: int = 1
    #: Replicas (or fragments) that must answer before a digest counts
    #: as present: 1 for whole-chunk schemes, ``k`` for erasure coding
    #: (fewer than ``k`` surviving fragments cannot reconstruct, so a
    #: dedup hit on them would silently lose data).
    min_fragments: int = 1

    def nodes_for(self, ring: HashRing, digest: bytes) -> tuple[str, ...]:
        """Distinct node ids that must hold ``digest``."""
        raise NotImplementedError

    def validate(self, ring: HashRing, leaving: int = 0) -> None:
        """Reject rings too small for this scheme's copy count (as they
        would be once ``leaving`` of their nodes have left)."""
        if len(ring) - leaving < self.copies:
            raise ValueError(
                f"{self.name} placement needs >= {self.copies} nodes, "
                f"ring has {len(ring) - leaving}"
            )

    def describe(self) -> dict:
        """The scheme's parameters, for metrics surfaces."""
        return {"scheme": self.name}

    # -- item form: whole copies ---------------------------------------

    def encode(self, chunks: Sequence[bytes]) -> list[Sequence[bytes]]:
        """Per chunk of a batch, the item for each placement position."""
        return [(data,) * self.copies for data in chunks]

    def write(self, node: StoreNode, writes: Sequence[ItemWrite]) -> list[bool]:
        """Store a batch of items on ``node`` in one node put (one
        backend ``put_batch``), insert-if-absent: per write, False if
        the node already held a record under its digest — an earlier
        write of the same batch included."""
        return node.put_chunks([(digest, payload) for digest, _, payload, _ in writes])

    def unpack(self, digest: bytes, record: bytes, verify: bool) -> StoredItem:
        """Parse one stored record; raises :class:`CorruptItemError`.

        A whole copy carries no checksum of its own, so it is verified
        against the chunk digest — only when asked (``verify``), because
        unfaulted callers may store under arbitrary keys.
        """
        if verify and core_module("hashing").chunk_hash(record) != digest:
            raise CorruptItemError(
                f"copy of {digest.hex()[:16]} fails its digest ({len(record)} B)"
            )
        return StoredItem(None, record, len(record))

    def read(self, node: StoreNode, digest: bytes, verify: bool) -> StoredItem:
        """``node``'s item of ``digest``; ``KeyError`` when it has none."""
        return self.unpack(digest, node.get_chunk(digest), verify)

    def peek(self, node: StoreNode, digest: bytes, verify: bool) -> StoredItem:
        """Which item ``node`` holds, at the least cost that tells: for
        a whole copy, presence alone — no payload read, nothing verified."""
        if not node.holds(digest):
            raise KeyError(digest)
        return StoredItem(None, None, None)

    def record_chunk_len(self, record: bytes) -> int:
        """The chunk's length from one stored record, unverified."""
        return len(record)

    def decode(
        self, digest: bytes, items: Mapping[int, bytes], chunk_len: int,
        verify: bool,
    ) -> bytes:
        """The chunk from any ``min_fragments`` items; with ``verify``
        an assembly that does not hash to ``digest`` raises
        :class:`CorruptItemError` (a whole copy was verified as read)."""
        return next(iter(items.values()))

    def through_parity(self, items: Mapping[int, bytes]) -> bool:
        """Whether decoding ``items`` takes more than joining them."""
        return False

    def rebuild(
        self, items: Mapping[int, bytes], indices: Sequence[int]
    ) -> dict[int, bytes]:
        """Items ``indices`` re-derived from any ``min_fragments`` items."""
        data = next(iter(items.values()))
        return {index: data for index in indices}


class VanillaPlacement(PlacementScheme):
    """One copy on the ring's primary owner — the minimal sharding."""

    name = "vanilla"

    def nodes_for(self, ring: HashRing, digest: bytes) -> tuple[str, ...]:
        return (ring.node_for(digest),)


class StripedPlacement(PlacementScheme):
    """One copy striped across a window of successor nodes.

    A secondary hash of the digest picks one node out of the first
    ``stripe_width`` successors, so a hot arc of the digest space is
    served by several nodes instead of one — striping without paying
    for redundancy.
    """

    name = "striped"

    def __init__(self, stripe_width: int = 4) -> None:
        if stripe_width < 1:
            raise ValueError("stripe_width must be >= 1")
        self.stripe_width = stripe_width

    def nodes_for(self, ring: HashRing, digest: bytes) -> tuple[str, ...]:
        width = min(self.stripe_width, len(ring))
        window = ring.preference_list(digest, width)
        lane = int.from_bytes(digest[-4:], "big") % width
        return (window[lane],)


class ReplicatedPlacement(PlacementScheme):
    """``r`` copies on the first ``r`` distinct ring successors."""

    name = "replicated"

    def __init__(self, replicas: int = 2) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas

    @property
    def copies(self) -> int:  # type: ignore[override]
        return self.replicas

    def nodes_for(self, ring: HashRing, digest: bytes) -> tuple[str, ...]:
        # Clamp to the ring size so a cluster that has lost nodes below
        # the replica count keeps serving degraded (fewer copies)
        # instead of failing every read; validate() still enforces the
        # full count at construction time.
        return ring.preference_list(digest, min(self.replicas, len(ring)))


class ErasureCodedPlacement(PlacementScheme):
    """``k`` data + ``m`` parity fragments on ``k + m`` distinct nodes.

    Fragment ``i`` of a chunk lands on position ``i`` of the digest's
    preference list (position *is* the intended fragment index; the
    stored record also carries its index, so reads survive ring churn).
    Any ``k`` fragments reconstruct the chunk, so the scheme tolerates
    ``m`` node losses at ``(k + m) / k`` storage overhead — e.g. 1.5x
    for (4, 2) where 3-way replication pays 3x for the same tolerance.
    """

    name = "ec"

    def __init__(self, k: int = 4, m: int = 2) -> None:
        if k < 1:
            raise ValueError("k (data fragments) must be >= 1")
        if m < 0:
            raise ValueError("m (parity fragments) must be >= 0")
        if k + m > 255:
            raise ValueError("k + m must be <= 255")
        self.k = k
        self.m = m
        self._codec = codec_for(k, m)

    @property
    def copies(self) -> int:  # type: ignore[override]
        return self.k + self.m

    @property
    def min_fragments(self) -> int:  # type: ignore[override]
        return self.k

    def nodes_for(self, ring: HashRing, digest: bytes) -> tuple[str, ...]:
        # Clamp like ReplicatedPlacement: a ring that has dropped below
        # k + m keeps serving with fewer fragments (reduced tolerance)
        # instead of failing every operation.
        return ring.preference_list(digest, min(self.k + self.m, len(ring)))

    def describe(self) -> dict:
        return {"scheme": self.name, "ec_k": self.k, "ec_m": self.m}

    # -- item form: framed Reed-Solomon fragments ----------------------
    #
    # A record is one ``pack_fragment`` frame carrying its own index,
    # geometry and record digest, so every read verifies regardless of
    # ``verify`` and an index is only known by reading the record.

    def encode(self, chunks: Sequence[bytes]) -> list[Sequence[bytes]]:
        return self._codec.encode(chunks)

    def write(self, node: StoreNode, writes: Sequence[ItemWrite]) -> list[bool]:
        return node.put_fragment(self.k, self.m, writes)

    def _item(self, parse, *args) -> FragmentRecord:
        """``parse(*args)`` — a verifying fragment parse — as a stored
        item: the parsed record *is* one (same three fields), once its
        geometry is known to be this scheme's."""
        try:
            record = parse(*args)
        except (FragmentFormatError, CorruptFragmentError) as exc:
            raise CorruptItemError(str(exc)) from exc
        if record.k != self.k or record.m != self.m:
            raise CorruptItemError(
                f"fragment geometry {record.k}+{record.m} is not {self.k}+{self.m}"
            )
        return record

    def unpack(self, digest: bytes, record: bytes, verify: bool) -> FragmentRecord:
        return self._item(unpack_fragment, record)

    def read(self, node: StoreNode, digest: bytes, verify: bool) -> FragmentRecord:
        return self._item(node.get_fragment, digest)

    peek = read

    def record_chunk_len(self, record: bytes) -> int:
        try:
            return fragment_chunk_len(record)
        except FragmentFormatError as exc:
            raise CorruptItemError(str(exc)) from exc

    def decode(
        self, digest: bytes, items: Mapping[int, bytes], chunk_len: int,
        verify: bool,
    ) -> bytes:
        data = self._codec.decode(items, chunk_len)
        if verify and core_module("hashing").chunk_hash(data) != digest:
            raise CorruptItemError(
                f"fragments of {digest.hex()[:16]} do not assemble to it"
            )
        return data

    def through_parity(self, items: Mapping[int, bytes]) -> bool:
        return any(index not in items for index in range(self.k))

    def rebuild(
        self, items: Mapping[int, bytes], indices: Sequence[int]
    ) -> dict[int, bytes]:
        return self._codec.rebuild(items, indices)


def make_scheme(
    name: str,
    replicas: int = 2,
    stripe_width: int = 4,
    ec_k: int = 4,
    ec_m: int = 2,
) -> PlacementScheme:
    """Config-string constructor used by the backup server and CLI."""
    if name == "vanilla":
        return VanillaPlacement()
    if name == "striped":
        return StripedPlacement(stripe_width)
    if name == "replicated":
        return ReplicatedPlacement(replicas)
    if name == "ec":
        return ErasureCodedPlacement(ec_k, ec_m)
    raise ValueError(f"unknown placement scheme {name!r}")
