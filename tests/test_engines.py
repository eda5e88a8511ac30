"""Differential and property tests for the chunking engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf2
from repro.core.engines import SerialEngine, VectorEngine, default_engine
from repro.core.rabin import RabinFingerprinter

# Every test here runs with the native scan kernel and with the NumPy fallback.
pytestmark = pytest.mark.usefixtures("scan_kernel")

# Small window/mask so random test inputs contain many boundaries.
SMALL_FP = RabinFingerprinter(gf2.find_irreducible(19, seed=3), window_size=8)
SMALL_MASK = (1 << 5) - 1
SMALL_MARKER = 0x0B


@pytest.fixture(scope="module")
def small_serial():
    return SerialEngine(SMALL_FP)


@pytest.fixture(scope="module")
def small_vector():
    return VectorEngine(SMALL_FP)


class TestSerialEngine:
    def test_empty(self, small_serial):
        assert small_serial.candidate_cuts(b"", SMALL_MASK, SMALL_MARKER) == []

    def test_shorter_than_window(self, small_serial):
        assert small_serial.candidate_cuts(b"abc", SMALL_MASK, SMALL_MARKER) == []

    def test_cut_range(self, small_serial, data_64k):
        cuts = small_serial.candidate_cuts(data_64k[:2048], SMALL_MASK, SMALL_MARKER)
        assert all(8 <= c <= 2048 for c in cuts)
        assert cuts == sorted(cuts)

    def test_expected_density(self, small_serial, data_64k):
        """~1/32 of windows match a 5-bit mask on random data."""
        data = data_64k[:8192]
        cuts = small_serial.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)
        expected = len(data) / 32
        assert 0.5 * expected < len(cuts) < 1.5 * expected


class TestVectorMatchesSerial:
    @given(data=st.binary(min_size=0, max_size=512))
    @settings(max_examples=150, deadline=None)
    def test_equivalence_random(self, data):
        serial = SerialEngine(SMALL_FP)
        vector = VectorEngine(SMALL_FP)
        assert serial.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == \
            vector.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)

    def test_equivalence_large(self, small_serial, small_vector, data_64k):
        a = small_serial.candidate_cuts(data_64k, SMALL_MASK, SMALL_MARKER)
        b = small_vector.candidate_cuts(data_64k, SMALL_MASK, SMALL_MARKER)
        assert a == b

    def test_equivalence_default_window(self, serial_engine, vector_engine, data_64k):
        mask, marker = (1 << 10) - 1, 0x11F
        data = data_64k[:16384]
        assert serial_engine.candidate_cuts(data, mask, marker) == \
            vector_engine.candidate_cuts(data, mask, marker)

    def test_equivalence_wide_mask(self, small_serial, small_vector, data_64k):
        """Masks wider than 16 bits exercise the full-fingerprint path."""
        mask = (1 << 17) - 1
        data = data_64k
        assert small_serial.candidate_cuts(data, mask, 3) == \
            small_vector.candidate_cuts(data, mask, 3)

    def test_zero_data(self, small_serial, small_vector):
        data = bytes(4096)
        assert small_serial.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == \
            small_vector.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)

    def test_repeating_pattern(self, small_serial, small_vector):
        data = b"abcdef" * 700
        assert small_serial.candidate_cuts(data, SMALL_MASK, SMALL_MARKER) == \
            small_vector.candidate_cuts(data, SMALL_MASK, SMALL_MARKER)


class TestVectorEngine:
    def test_rejects_odd_window(self):
        fp = RabinFingerprinter(gf2.find_irreducible(19, seed=3), window_size=9)
        with pytest.raises(ValueError, match="even window"):
            VectorEngine(fp)

    def test_fingerprints_match_rolling(self, small_vector):
        data = bytes(range(256))
        fps = small_vector.fingerprints(data)
        for start, fp_val in SMALL_FP.sliding_fingerprints(data):
            assert int(fps[start]) == fp_val

    def test_fingerprints_accept_ndarray(self, small_vector, data_64k):
        arr = np.frombuffer(data_64k[:1024], dtype=np.uint8)
        assert np.array_equal(
            small_vector.fingerprints(arr), small_vector.fingerprints(data_64k[:1024])
        )

    def test_low_fingerprints_consistent(self, small_vector, data_64k):
        """The 16-bit fast path agrees with the low bits of full fingerprints."""
        data = data_64k[:4096]
        full = small_vector.fingerprints(data)
        d = np.frombuffer(data, dtype=np.uint8)
        low = small_vector._low_fingerprints(d)
        assert np.array_equal(low, (full & np.uint64(0xFFFF)).astype(np.uint16))

    def test_default_engine_singleton(self):
        assert default_engine() is default_engine()

    def test_locality(self, small_vector):
        """Cuts far from an edit are unchanged (content-defined chunking's
        central promise, §6.2)."""
        base = bytearray(SerialEngine(SMALL_FP).fingerprinter.window_size * 500)
        rng = np.random.default_rng(9)
        base[:] = rng.integers(0, 256, len(base), dtype=np.uint8).tobytes()
        edited = bytearray(base)
        edit_at = 2000
        edited[edit_at] ^= 0xFF
        w = SMALL_FP.window_size
        cuts_a = set(small_vector.candidate_cuts(bytes(base), SMALL_MASK, SMALL_MARKER))
        cuts_b = set(small_vector.candidate_cuts(bytes(edited), SMALL_MASK, SMALL_MARKER))
        affected = set(range(edit_at, edit_at + w + 1))
        assert {c for c in cuts_a ^ cuts_b} <= affected
