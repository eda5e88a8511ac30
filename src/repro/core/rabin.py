"""Rabin fingerprinting over sliding windows (§2.1 of the paper).

A window of ``w`` bytes is interpreted as a polynomial over GF(2)
(most-significant byte first, as in LBFS) and its fingerprint is the
residue modulo a fixed irreducible polynomial.  The fingerprint rolls in
O(1) per byte using two precomputed 256-entry tables:

``reduce_table``
    Folds the top 8 bits back into a ``k``-bit residue after the shift
    performed when a byte is appended.

``out_table``
    Contribution of the byte leaving the window,
    ``b * x**(8*(w-1)) mod P``, XORed out before the shift.

The class is deliberately backend-agnostic: the serial reference engine,
the vectorized NumPy engine, the host SPMD chunker and the simulated GPU
kernel all derive their tables from one :class:`RabinFingerprinter`, so
every backend produces bit-identical fingerprints.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core import gf2

__all__ = ["RabinFingerprinter", "DEFAULT_WINDOW_SIZE", "default_polynomial"]

#: Sliding-window width used throughout the paper (§3.1: "each thread
#: examines a 48-byte region").
DEFAULT_WINDOW_SIZE = 48


def default_polynomial() -> int:
    """The degree-53 irreducible ``gf2.find_irreducible(53, seed=2012)``."""
    return 0x268DF112A903CD


@lru_cache(maxsize=64)
def _fused_out_table(polynomial: int, window_size: int):
    """256-entry table ``T[b] = b * x**(8*w) mod P`` for the fused roll.

    One roll step is linear over GF(2):

        f(p+1) = f(p) * x**8  ^  d[p] * x**(8*w)  ^  d[p+w]   (mod P)

    so the whole data-dependent part of a step is the XOR of this
    table's entry for the leaving byte with the raw entering byte —
    which the vector engine's roll kernel computes a block of rows at a
    time, ahead of the serial chain.  Cached keyed by
    ``(polynomial, window_size)`` like the position tables.
    """
    return gf2.byte_shift_table(8 * window_size, polynomial)


@lru_cache(maxsize=64)
def _position_tables(polynomial: int, window_size: int):
    """Module-level cache of the per-offset contribution tables.

    Building these runs ``window_size * 256`` GF(2) multiplications —
    hundreds of KB of tuples and tens of milliseconds in pure Python.
    Servers that construct a fresh fingerprinter per request (the backup
    server, the CLI) must not pay that repeatedly, so the tables are
    keyed by ``(polynomial, window_size)`` and shared process-wide.
    """
    tables = []
    for j in range(window_size):
        shift = gf2.pow_mod(0b10, 8 * (window_size - 1 - j), polynomial)
        tables.append(
            tuple(gf2.multiply_mod(b, shift, polynomial) for b in range(256))
        )
    return tuple(tables)


class RabinFingerprinter:
    """Sliding-window Rabin fingerprints for a fixed polynomial and window.

    Parameters
    ----------
    polynomial:
        Irreducible polynomial over GF(2), as an integer bit mask.  Must
        have degree ``<= 56`` so that the 8-bit roll fits in 64 bits.
    window_size:
        Number of bytes in the sliding window (default 48, as in the paper).
    validate:
        When true (default), verify that the polynomial is irreducible.
        Disable only when constructing from a known-good cached value.
    """

    def __init__(
        self,
        polynomial: int | None = None,
        window_size: int = DEFAULT_WINDOW_SIZE,
        validate: bool = True,
    ) -> None:
        if polynomial is None:
            polynomial = default_polynomial()
            validate = False  # generated by construction
        deg = gf2.degree(polynomial)
        if not 8 <= deg <= 56:
            raise ValueError(f"polynomial degree must be in [8, 56], got {deg}")
        if window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {window_size}")
        if validate and not gf2.is_irreducible(polynomial):
            raise ValueError(f"polynomial {polynomial:#x} is not irreducible")

        self.polynomial = polynomial
        self.degree = deg
        self.window_size = window_size
        self._residue_mask = (1 << deg) - 1

        # reduce_table[t] == (t << deg) mod P for the 8 overflow bits t.
        self.reduce_table = tuple(
            gf2.mod(t << deg, polynomial) for t in range(256)
        )
        # out_table[b] == b * x**(8*(w-1)) mod P.
        shift_out = gf2.pow_mod(0b10, 8 * (window_size - 1), polynomial)
        self.out_table = tuple(
            gf2.multiply_mod(b, shift_out, polynomial) for b in range(256)
        )

    # ------------------------------------------------------------------
    # Scalar operations (reference semantics)
    # ------------------------------------------------------------------

    def append_byte(self, fingerprint: int, byte: int) -> int:
        """Append one byte: ``fp * x**8 + byte mod P``."""
        shifted = (fingerprint << 8) | byte
        return (shifted & self._residue_mask) ^ self.reduce_table[shifted >> self.degree]

    def roll(self, fingerprint: int, out_byte: int, in_byte: int) -> int:
        """Slide the window one byte: remove ``out_byte``, append ``in_byte``."""
        return self.append_byte(fingerprint ^ self.out_table[out_byte], in_byte)

    def fingerprint(self, window: bytes) -> int:
        """Direct (non-rolling) fingerprint of exactly one window."""
        if len(window) != self.window_size:
            raise ValueError(
                f"expected a {self.window_size}-byte window, got {len(window)} bytes"
            )
        fp = 0
        for byte in window:
            fp = self.append_byte(fp, byte)
        return fp

    def sliding_fingerprints(self, data: bytes):
        """Yield ``(start_offset, fingerprint)`` for every full window.

        Reference implementation: rolls across ``data`` one byte at a time.
        Positions are window *start* offsets; the window covers
        ``data[start : start + window_size]``.
        """
        w = self.window_size
        if len(data) < w:
            return
        fp = 0
        for byte in data[:w]:
            fp = self.append_byte(fp, byte)
        yield 0, fp
        for start in range(1, len(data) - w + 1):
            fp = self.roll(fp, data[start - 1], data[start + w - 1])
            yield start, fp

    # ------------------------------------------------------------------
    # Table export for vector / simulated-GPU backends
    # ------------------------------------------------------------------

    def position_tables(self):
        """Per-window-offset contribution tables for data-parallel backends.

        Returns a ``window_size x 256`` nested tuple ``T`` with
        ``T[j][b] == b * x**(8*(w-1-j)) mod P`` so that the fingerprint of a
        window is the XOR of one entry per byte.  This is the linearity
        property that lets GPU threads (and NumPy) evaluate fingerprints
        without a serial dependency.

        Cached at module level keyed by ``(polynomial, window_size)``:
        every fingerprinter with the same parameters shares one table set.
        """
        return _position_tables(self.polynomial, self.window_size)

    def fused_out_table(self):
        """256-entry leaving-byte table of the fused roll identity.

        ``T[b] == b * x**(8*w) mod P`` — see :func:`_fused_out_table`.
        Together with the raw entering byte this is the complete
        data-dependent term of one roll step.  Cached at module level
        keyed by ``(polynomial, window_size)``.
        """
        return _fused_out_table(self.polynomial, self.window_size)
