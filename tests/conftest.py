"""Shared fixtures: seeded data generators and default chunking objects."""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.core import (
    Chunker,
    ChunkerConfig,
    RabinFingerprinter,
    SerialEngine,
    VectorEngine,
    chunk_hash,
    select_cuts,
)


def probe(index, chunks):
    """``index.lookup_or_insert_batch`` over ``chunks``, passed as columns."""
    return index.lookup_or_insert_batch(
        [c.digest for c in chunks], [c.length for c in chunks]
    )


def reference_chunks(config: ChunkerConfig, data: bytes) -> list[tuple[int, int, bytes]]:
    """``(offset, length, digest)`` of every chunk, computed without the
    scan driver: ``SerialEngine`` candidates, ``select_cuts``, and one
    ``chunk_hash`` per chunk.  The oracle the chunking entry points are
    differentially tested against."""
    engine = SerialEngine(RabinFingerprinter(config.polynomial, config.window_size))
    cuts = select_cuts(
        engine.candidate_cuts(data, config.mask, config.marker),
        len(data), config.min_size, config.max_size,
    )
    return [
        (prev, cut - prev, chunk_hash(data[prev:cut]))
        for prev, cut in zip([0] + cuts, cuts)
    ]


def chunk_shape(chunks) -> list[tuple[int, int, bytes]]:
    """``(offset, length, digest)`` of chunk records, to compare with
    :func:`reference_chunks`."""
    return [(c.offset, c.length, c.digest) for c in chunks]


def seeded_bytes(n: int, seed: int = 7) -> bytes:
    """Deterministic pseudo-random bytes."""
    return random.Random(seed).randbytes(n)


@contextlib.contextmanager
def scan_kernel_as(name: str):
    """``"numpy"``: disable the native loader for the body, so every scan
    takes the NumPy fallback.  ``"native"``: skip unless the native
    kernel loads."""
    from repro.core import native

    if name == "native":
        if native.kernel() is None:
            pytest.skip("the native scan kernel did not load")
        yield
        return
    saved = native._KERNEL
    native._KERNEL = None
    try:
        yield
    finally:
        native._KERNEL = saved


@pytest.fixture(scope="module", params=["native", "numpy"])
def scan_kernel(request):
    """Run a scan test module twice: with the native kernel loaded, and
    with the loader disabled.  The native pass is skipped where no
    library can be built."""
    with scan_kernel_as(request.param):
        yield request.param


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
