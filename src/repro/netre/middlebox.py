"""Redundancy-elimination middlebox pair (§9 future work, after [11]).

The paper's third future-work item: "explore new applications like
middleboxes for bandwidth reduction using network redundancy
elimination".  An **encoder** middlebox at one end of a WAN link chunks
the byte stream with Shredder, replaces chunks whose fingerprints are in
its cache with compact *shim* references, and forwards the mix; the
**decoder** at the other end expands shims from its synchronized cache.

Chunking uses small expected chunks (RE systems operate at packet scale)
and the same deterministic cache policy on both ends, so a shim can
never miss (verified by tests; a miss raises, it is a protocol bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.chunking import Chunker, ChunkerConfig
from repro.netre.cache import ChunkCache

__all__ = ["Shim", "EncodedStream", "Encoder", "Decoder", "REConfig", "RETunnel"]

KB = 1024

#: Bytes on the wire for one shim reference (fingerprint + length).
SHIM_WIRE_BYTES = 12


def _re_chunker_config() -> ChunkerConfig:
    """Packet-scale chunking: ~512 B expected, bounded 64 B - 4 KB."""
    return ChunkerConfig(mask_bits=9, marker=0x1F3, min_size=64, max_size=4096)


@dataclass(frozen=True)
class REConfig:
    """Tunnel parameters."""

    chunker: ChunkerConfig = field(default_factory=_re_chunker_config)
    cache_bytes: int = 4 * 1024 * KB


@dataclass(frozen=True)
class Shim:
    """Reference to a chunk both caches hold."""

    digest: bytes
    length: int


@dataclass
class EncodedStream:
    """What the encoder puts on the WAN for one message."""

    items: list[Shim | bytes]
    original_bytes: int

    @property
    def wire_bytes(self) -> int:
        return sum(
            SHIM_WIRE_BYTES if isinstance(item, Shim) else len(item)
            for item in self.items
        )

    @property
    def savings(self) -> float:
        if self.original_bytes == 0:
            return 0.0
        return 1.0 - self.wire_bytes / self.original_bytes


class Encoder:
    """Upstream middlebox: chunk, dedup against the cache, emit shims."""

    def __init__(self, config: REConfig | None = None) -> None:
        self.config = config or REConfig()
        self.cache = ChunkCache(self.config.cache_bytes)
        self.chunker = Chunker(self.config.chunker)

    def encode(self, payload: bytes) -> EncodedStream:
        items: list[Shim | bytes] = []
        for chunk in self.chunker.chunk(payload):
            if chunk.digest in self.cache:
                self.cache.get(chunk.digest)  # LRU touch, mirrored below
                items.append(Shim(chunk.digest, chunk.length))
            else:
                self.cache.insert(chunk.digest, chunk.data)
                items.append(chunk.data)
        return EncodedStream(items, original_bytes=len(payload))


class Decoder:
    """Downstream middlebox: expand shims from the mirrored cache."""

    def __init__(self, config: REConfig | None = None) -> None:
        self.config = config or REConfig()
        self.cache = ChunkCache(self.config.cache_bytes)

    def decode(self, stream: EncodedStream) -> bytes:
        out = bytearray()
        from repro.core.hashing import chunk_hash

        for item in stream.items:
            if isinstance(item, Shim):
                data = self.cache.get(item.digest)
                if data is None:
                    raise KeyError(
                        f"cache desync: shim {item.digest.hex()[:16]} missing"
                    )
                out.extend(data)
            else:
                self.cache.insert(chunk_hash(item), item)
                out.extend(item)
        return bytes(out)


class RETunnel:
    """Encoder/decoder pair over one WAN link, with savings accounting."""

    def __init__(self, config: REConfig | None = None) -> None:
        self.config = config or REConfig()
        self.encoder = Encoder(self.config)
        self.decoder = Decoder(self.config)
        self.original_bytes = 0
        self.wire_bytes = 0

    def send(self, payload: bytes) -> bytes:
        """Push one message through the tunnel; returns the delivered copy."""
        encoded = self.encoder.encode(payload)
        delivered = self.decoder.decode(encoded)
        if delivered != payload:
            raise AssertionError("RE tunnel corrupted the payload")
        self.original_bytes += encoded.original_bytes
        self.wire_bytes += encoded.wire_bytes
        return delivered

    def send_all(self, payloads: Iterable[bytes]) -> float:
        """Send a message sequence; returns cumulative bandwidth savings."""
        for payload in payloads:
            self.send(payload)
        return self.savings

    @property
    def savings(self) -> float:
        if self.original_bytes == 0:
            return 0.0
        return 1.0 - self.wire_bytes / self.original_bytes
