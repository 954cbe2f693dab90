"""Arithmetic in GF(2^64) for message authentication.

Elements are Python ints in [0, 2^64). Field multiplication is carry-less
polynomial multiplication reduced by x^64 + x^4 + x^3 + x + 1, the lowest
weight irreducible of degree 64 (the one used by GCM's sibling fields).
Addition is XOR. A small-field variant over GF(2^8) with x^8 + x^4 +
x^3 + x + 1 backs the exhaustive collision tests, where 2^64 keys are
out of reach but 2^8 are not.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
# x^64 + x^4 + x^3 + x + 1, stored with the top term explicit.
REDUCTION_POLY = (1 << 64) | 0x1B

MASK8 = (1 << 8) - 1
REDUCTION_POLY_8 = (1 << 8) | 0x1B  # x^8 + x^4 + x^3 + x + 1


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two nonnegative ints (polynomial multiply)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _reduce(value: int, width: int, poly: int) -> int:
    """Reduce a polynomial modulo ``poly`` of degree ``width``."""
    for shift in range(value.bit_length() - 1, width - 1, -1):
        if value >> shift & 1:
            value ^= poly << (shift - width)
    return value


def gf64_mul(a: int, b: int) -> int:
    """Product in GF(2^64) by shift and reduce: the reference the
    table multiplier is tested against."""
    return _reduce(_clmul(a & MASK64, b & MASK64), 64, REDUCTION_POLY)


def gf8_mul(a: int, b: int) -> int:
    """Product in GF(2^8), for exhaustive small-field checks."""
    return _reduce(_clmul(a & MASK8, b & MASK8), 8, REDUCTION_POLY_8)


class Gf64Multiplier:
    """Fixed-operand multiplier with nibble lookup tables; every
    polynomial hash multiplies through one.

    A hash multiplies every 64-bit block by the same key, so precompute
    k * (x << 4j) for each nibble position j and value x; a product is
    then 16 table hits and xors instead of a 64-step shift-reduce.
    """

    def __init__(self, k: int):
        self.k = k & MASK64
        self._tables = []
        base = self.k
        for _ in range(16):
            row = [0] * 16
            for x in range(1, 16):
                row[x] = _reduce(_clmul(base, x), 64, REDUCTION_POLY)
            self._tables.append(row)
            base = _reduce(base << 4, 64, REDUCTION_POLY)

    def mul(self, a: int) -> int:
        acc = 0
        for j in range(16):
            nib = (a >> (4 * j)) & 0xF
            if nib:
                acc ^= self._tables[j][nib]
        return acc


def bytes_to_blocks(data: bytes) -> list[int]:
    """Split ``data`` into big-endian 64-bit field elements, the last one
    right-padded with zero bytes."""
    return [int.from_bytes(data[i:i + 8].ljust(8, b"\x00"), "big")
            for i in range(0, len(data), 8)]


def poly_hash_blocks(blocks, mul) -> int:
    """Polynomial hash sum(m_i * k^(t-i+1)) evaluated by Horner.

    ``blocks`` is the message split into field elements, highest-order
    coefficient first; ``mul`` multiplies a field element by the hash key
    k (``Gf64Multiplier(k).mul``). The caller adds its own length term.
    An empty sequence hashes to 0.
    """
    acc = 0
    for block in blocks:
        acc = mul(acc ^ block)
    return acc
