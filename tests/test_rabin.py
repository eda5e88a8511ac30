"""Tests for Rabin fingerprinting: rolling vs direct, table properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf2
from repro.core.rabin import DEFAULT_WINDOW_SIZE, RabinFingerprinter, default_polynomial


@pytest.fixture(scope="module")
def fp() -> RabinFingerprinter:
    return RabinFingerprinter()


@pytest.fixture(scope="module")
def small_fp() -> RabinFingerprinter:
    """Small window/polynomial so brute-force checks stay cheap."""
    return RabinFingerprinter(gf2.find_irreducible(19, seed=3), window_size=8)


def brute_force_fingerprint(window: bytes, poly: int) -> int:
    """Fingerprint straight from the definition: fold bytes, mod at the end."""
    value = 0
    for byte in window:
        value = (value << 8) | byte
    return gf2.mod(value, poly)


class TestConstruction:
    def test_default_polynomial_degree(self, fp):
        assert fp.degree == 53

    def test_default_window(self, fp):
        assert fp.window_size == DEFAULT_WINDOW_SIZE == 48

    def test_rejects_reducible_polynomial(self):
        with pytest.raises(ValueError, match="not irreducible"):
            RabinFingerprinter(0b101 << 50 | 0b101, window_size=8)

    def test_rejects_tiny_degree(self):
        with pytest.raises(ValueError, match="degree"):
            RabinFingerprinter(0b1011, window_size=8)  # degree 3

    def test_rejects_window_one(self):
        with pytest.raises(ValueError, match="window_size"):
            RabinFingerprinter(window_size=1)

    def test_default_polynomial_is_the_seeded_search(self):
        poly = default_polynomial()
        assert poly == gf2.find_irreducible(gf2.DEFAULT_IRREDUCIBLE_DEGREE, seed=2012)
        assert gf2.is_irreducible(poly)


class TestDirectFingerprint:
    def test_matches_definition(self, small_fp):
        window = bytes(range(8))
        assert small_fp.fingerprint(window) == brute_force_fingerprint(
            window, small_fp.polynomial
        )

    def test_wrong_length_raises(self, fp):
        with pytest.raises(ValueError, match="window"):
            fp.fingerprint(b"short")

    @given(window=st.binary(min_size=8, max_size=8))
    @settings(max_examples=100)
    def test_matches_definition_random(self, window):
        assert _SMALL.fingerprint(window) == brute_force_fingerprint(
            window, _SMALL.polynomial
        )

    def test_fingerprint_fits_degree(self, fp):
        value = fp.fingerprint(bytes(range(48)))
        assert value < (1 << fp.degree)


_SMALL = RabinFingerprinter(gf2.find_irreducible(19, seed=3), window_size=8)


class TestRolling:
    @given(data=st.binary(min_size=8, max_size=64))
    @settings(max_examples=100)
    def test_rolling_equals_direct(self, data):
        """The central invariant: every rolled fingerprint equals the direct
        fingerprint of the same window."""
        w = _SMALL.window_size
        for start, rolled in _SMALL.sliding_fingerprints(data):
            assert rolled == _SMALL.fingerprint(data[start : start + w])

    def test_short_input_yields_nothing(self, fp):
        assert list(fp.sliding_fingerprints(b"x" * 10)) == []

    def test_exact_window_yields_one(self, fp):
        out = list(fp.sliding_fingerprints(bytes(48)))
        assert len(out) == 1 and out[0][0] == 0

    def test_position_count(self, fp):
        data = bytes(range(100)) * 2
        assert len(list(fp.sliding_fingerprints(data))) == len(data) - 48 + 1

    def test_roll_removes_old_byte_dependence(self, small_fp):
        """After rolling past a byte, it no longer affects the fingerprint."""
        w = small_fp.window_size
        a = b"\xAA" + bytes(range(w))
        b = b"\xBB" + bytes(range(w))
        fa = list(small_fp.sliding_fingerprints(a))[-1][1]
        fb = list(small_fp.sliding_fingerprints(b))[-1][1]
        assert fa == fb


class TestPositionTables:
    def test_window_fingerprint_is_xor_of_tables(self, small_fp):
        tables = small_fp.position_tables()
        window = bytes([3, 141, 59, 26, 250, 9, 200, 77])
        xor = 0
        for j, byte in enumerate(window):
            xor ^= tables[j][byte]
        assert xor == small_fp.fingerprint(window)

    def test_last_table_is_identity_mod_p(self, small_fp):
        """Offset w-1 contributes b * x^0 = b."""
        tables = small_fp.position_tables()
        assert list(tables[-1][:256]) == [
            gf2.mod(b, small_fp.polynomial) for b in range(256)
        ]

    def test_zero_byte_contributes_nothing(self, small_fp):
        for table in small_fp.position_tables():
            assert table[0] == 0
