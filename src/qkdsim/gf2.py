"""Arithmetic in GF(2^64) for message authentication.

Elements are Python ints in [0, 2^64). Field multiplication is carry-less
polynomial multiplication reduced by x^64 + x^4 + x^3 + x + 1, the lowest
weight irreducible of degree 64 (the one used by GCM's sibling fields).
Addition is XOR.

Every production hash runs through :meth:`Gf64Multiplier.hash_bytes`.
A product by the fixed key k is eight lookups in byte tables of
k * (b << 8j), made in one place, the scalar Horner loop in k, which
hashes a message of up to ``LANES`` blocks alone. A longer message's
full 64-bit words are hashed as ``LANES`` interleaved Horner chains with
the multiplier K = k^LANES, vectorised over numpy uint64 lanes and read
in place from the message, with no padded copy of it; the chains'
results and the partial last word are then folded by the scalar
Horner in k. Both routes are exact integer XOR and table arithmetic
with no floating-point step, so they give the same element bit for bit
and need no guard.
"""

from __future__ import annotations

import struct

import numpy as np

MASK64 = (1 << 64) - 1
# x^64 + x^4 + x^3 + x + 1, stored with the top term explicit.
REDUCTION_POLY = (1 << 64) | 0x1B

# Messages of more blocks than this are hashed as this many lanes.
LANES = 256

_LANE_DTYPE = np.dtype("<u8")  # byte j of a lane holds bits 8j..8j+7
_BYTE_OFFSETS = np.arange(8) * 256


def _byte_tables(k: int) -> list[list[int]]:
    """Tables t[j][b] = k * (b << 8j) for byte position j and value b.

    The 64 products p_i = k * x^i come from doubling (shift, then fold
    the carried-out x^64 back in as x^4 + x^3 + x + 1); each table row
    is then filled by XOR doubling, row[2^t + b] = row[b] ^ p_(8j+t),
    because the product is linear in b.
    """
    tables = []
    p = k
    for _ in range(8):
        row = [0]
        for _ in range(8):
            row += [x ^ p for x in row]
            p = ((p << 1) & MASK64) ^ (0x1B if p >> 63 else 0)
        tables.append(row)
    return tables


class Gf64Multiplier:
    """The polynomial hash keyed by a fixed field element k.

    A hash multiplies every 64-bit block by the same key, so 8 x 256
    tables hold k * (b << 8j) for each byte position j and byte value b;
    a product is then 8 table hits and XORs instead of a 64-step
    shift-reduce. Building them takes about 2,000 XORs.

    :meth:`hash_bytes` evaluates the hash by the scalar Horner loop in k
    for messages of up to ``LANES`` blocks. A longer message's W full
    words are read in place, through a big-endian view of its buffer,
    as R = ceil(W / ``LANES``) rows, the first of them left-padded with
    zero blocks in a ``LANES``-long buffer (leading zeros do not change
    a Horner result) and each later one XORed straight from the view:
    column c gathers the words whose exponent of k is congruent to
    ``LANES`` - c, so Horner down the rows with K = k^LANES, vectorised
    through K's byte tables (built on the first long message), then the
    scalar Horner in k over the ``LANES`` column values and the partial
    last word yields the same field element. No copy of the message is
    made. The arithmetic is exact integer XOR on uint64 lanes; no
    rounding can occur, so no runtime guard is needed.
    """

    def __init__(self, k: int):
        self.k = k & MASK64
        self._tables = _byte_tables(self.k)
        self._lane_tables: np.ndarray | None = None  # K's, flattened

    def _lane_mul(self, lanes: np.ndarray) -> np.ndarray:
        """Multiply every uint64 lane by K = k^LANES."""
        if self._lane_tables is None:
            # the hash of a 1 block and LANES - 1 zero blocks is k^LANES
            big_k = self._horner((1,) + (0,) * (LANES - 1))
            self._lane_tables = np.array(_byte_tables(big_k),
                                         dtype=_LANE_DTYPE).ravel()
        index = lanes.view(np.uint8).reshape(-1, 8) + _BYTE_OFFSETS
        return np.bitwise_xor.reduce(self._lane_tables[index], axis=1)

    def hash_bytes(self, data: bytes) -> int:
        """Polynomial hash sum(m_i * k^(t-i+1)) of the blocks m_1..m_t.

        The blocks are ``data`` split into big-endian 64-bit elements,
        the last one right-padded with zero bytes. The caller adds its
        own length convention. An empty message hashes to 0.
        """
        n_words = -(-len(data) // 8)
        if n_words <= LANES:
            body = data.ljust(8 * n_words, b"\x00")
            return self._horner(struct.unpack(f">{n_words}Q", body))
        n_full = len(data) // 8  # at least LANES
        words = np.frombuffer(data, dtype=">u8", count=n_full)
        # row 0 holds the words before a whole number of LANES-rows
        head = n_full % LANES or LANES
        acc = np.zeros(LANES, dtype=_LANE_DTYPE)
        acc[LANES - head:] = words[:head]
        for start in range(head, n_full, LANES):
            acc = self._lane_mul(acc) ^ words[start:start + LANES]
        last = data[8 * n_full:]  # a partial word, right-padded
        rest = [int.from_bytes(last.ljust(8, b"\x00"), "big")] if last else []
        return self._horner(acc.tolist() + rest)

    def _horner(self, blocks) -> int:
        """Polynomial hash of the field elements ``blocks`` by Horner's rule
        in k, the product by k inlined: a hash of a few blocks costs
        little more than its table hits."""
        t0, t1, t2, t3, t4, t5, t6, t7 = self._tables
        acc = 0
        for block in blocks:
            a = acc ^ block
            acc = (t0[a & 0xFF] ^ t1[a >> 8 & 0xFF] ^ t2[a >> 16 & 0xFF]
                   ^ t3[a >> 24 & 0xFF] ^ t4[a >> 32 & 0xFF]
                   ^ t5[a >> 40 & 0xFF] ^ t6[a >> 48 & 0xFF] ^ t7[a >> 56])
        return acc

