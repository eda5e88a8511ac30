"""Shared fixtures: seeded data generators and default chunking objects."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    Chunker,
    ChunkerConfig,
    RabinFingerprinter,
    SerialEngine,
    VectorEngine,
)


def probe(index, chunks):
    """``index.lookup_or_insert_batch`` over ``chunks``, passed as columns."""
    return index.lookup_or_insert_batch(
        [c.digest for c in chunks], [c.length for c in chunks], [c.offset for c in chunks]
    )


def seeded_bytes(n: int, seed: int = 7) -> bytes:
    """Deterministic pseudo-random bytes."""
    return random.Random(seed).randbytes(n)


@pytest.fixture(scope="session")
def fingerprinter() -> RabinFingerprinter:
    return RabinFingerprinter()


@pytest.fixture(scope="session")
def serial_engine(fingerprinter) -> SerialEngine:
    return SerialEngine(fingerprinter)


@pytest.fixture(scope="session")
def vector_engine(fingerprinter) -> VectorEngine:
    return VectorEngine(fingerprinter)


@pytest.fixture(scope="session")
def small_config() -> ChunkerConfig:
    """Config with tiny expected chunks so small test inputs chunk richly."""
    return ChunkerConfig(mask_bits=6, marker=0x2A)


@pytest.fixture(scope="session")
def small_chunker(small_config, vector_engine) -> Chunker:
    return Chunker(small_config, vector_engine)


@pytest.fixture(scope="session")
def data_64k() -> bytes:
    return seeded_bytes(64 * 1024, seed=42)


@pytest.fixture(scope="session")
def data_1m() -> bytes:
    return seeded_bytes(1024 * 1024, seed=43)
