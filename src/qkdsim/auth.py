"""Unconditionally secure authentication for the public classical channel.

Wegman-Carter construction: an almost-universal polynomial hash over
GF(2^64), keyed by a secret field element, with the tag encrypted by a
fresh 64-bit one-time pad. A forger who has seen any number of valid
(message, tag) pairs still succeeds with probability at most
(blocks + 1) / 2^64 per attempt, with no computational assumption.

Key material lives in a :class:`BitPool` of pre-shared or freshly
distilled secret bits. One 64-bit hash key is drawn per session and
reused across its messages; every message additionally burns a 64-bit
pad, so a session costs 128 bits for the first message and 64 for each
one after. The pool's cursor is the consumption tally.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .gf2 import MASK64, Gf64Multiplier
from .rng import COUNT, bit_array

HASH_KEY_BITS = 64
TAG_BITS = 64


class KeyExhausted(Exception):
    """The pool cannot fund the requested consumption; nothing was spent."""


class AuthenticationFailure(Exception):
    """A received tag did not verify."""


class BitPool:
    """Shared secret bits consumed strictly once, left to right.

    The cursor only ever advances, so no bit is returned twice, and
    running out raises :class:`KeyExhausted` and leaves the pool
    untouched. Each draw's end goes into an int64 array, from which
    ``consumed_log`` derives the drawn [start, end) ranges for audits.
    Freshly distilled key may be deposited to fund later draws. The bits
    are held once, packed eight a byte as :func:`numpy.packbits` packs
    them.
    """

    def __init__(self, bits=()):
        self._packed = b""
        self._len = 0
        self.cursor = 0
        self._ends = array("q")
        self.deposit(bits)

    @property
    def bits(self) -> np.ndarray:
        """Every deposited bit, consumed or not, unpacked into a new
        uint8 array."""
        return np.unpackbits(np.frombuffer(self._packed, np.uint8),
                             count=self._len)

    @property
    def remaining(self) -> int:
        return self._len - self.cursor

    @property
    def consumed_log(self) -> list[tuple[int, int]]:
        return list(zip([0, *self._ends], self._ends))

    def consume(self, n_bits: int) -> np.ndarray:
        """Consume ``n_bits``: :meth:`consume_int`'s integer, unpacked."""
        word = self.consume_int(n_bits)
        data = np.frombuffer(word.to_bytes((n_bits + 7) >> 3, "big"), np.uint8)
        return np.unpackbits(data)[-n_bits % 8:]

    def consume_int(self, n_bits: int) -> int:
        """Advance the cursor past ``n_bits`` and read them as a
        big-endian integer: the first bit is the most significant."""
        if type(n_bits) is not int or n_bits < 0:
            n_bits = int(COUNT.check("n_bits", n_bits))
        start, end = self.cursor, self.cursor + n_bits
        if end > self._len:
            raise KeyExhausted(f"need {n_bits} bits, {self.remaining} remain")
        self.cursor = end
        self._ends.append(end)
        word = int.from_bytes(self._packed[start >> 3:(end + 7) >> 3], "big")
        return word >> (-end % 8) & ((1 << n_bits) - 1)

    def deposit(self, bits) -> None:
        """Append key bits; a partly filled last byte merges as one integer."""
        arr = bit_array("pool bits", bits)
        n = arr.size
        full, part = divmod(self._len, 8)
        new = np.packbits(arr).tobytes()
        if part:
            merged = (self._packed[full] >> (8 - part) << n
                      | int.from_bytes(new, "big") >> (-n % 8))
            new = (merged << (-(part + n) % 8)).to_bytes(
                (part + n + 7) >> 3, "big")
        self._packed = b"".join((memoryview(self._packed)[:full], new))
        self._len += n


def _hash_message(message: bytes, mul: Gf64Multiplier) -> int:
    """Polynomial hash of the message blocks, then the byte length is
    added as the k^0 coefficient so zero-padding and truncation change
    the hash. The convention is frozen: every tag depends on it."""
    return mul.hash_bytes(message) ^ len(message)


def compute_tag(message: bytes, hash_key: int, otp: int) -> int:
    """64-bit authentication tag: GF(2^64) polynomial hash XOR one-time pad."""
    return _hash_message(message, Gf64Multiplier(hash_key)) ^ (otp & MASK64)


@dataclass(frozen=True, slots=True)
class AuthenticatedMessage:
    """A payload with its one-time tag, as sent on the public channel."""

    payload: bytes
    tag: int


def verify_tag(msg: AuthenticatedMessage, hash_key: int, otp: int) -> bool:
    """Recompute and compare. The comparison XORs the full words and tests
    the fold against zero, so its work does not depend on where a
    mismatch occurs."""
    expected = compute_tag(msg.payload, hash_key, otp)
    return (expected ^ msg.tag) == 0


class AuthenticatedChannel:
    """Both ends of an in-process authenticated link.

    The two parties share the pool (that is what a shared secret means),
    so the receiver derives the same one-time pad the sender used; here
    that synchronization is modeled by pairing each sent message with
    its hash and pad under a sequence number. ``send`` consumes key bits
    and tags; ``deliver`` verifies the next message in order and raises
    :class:`AuthenticationFailure` if it was tampered with in transit.
    """

    def __init__(self, pool: BitPool):
        self.pool = pool
        self._mul: Gf64Multiplier | None = None  # keyed on the first send
        self._pending: list[tuple[AuthenticatedMessage, int, int]] = []

    def bits_needed(self, n_messages: int) -> int:
        """Pool bits that sending ``n_messages`` more messages consumes:
        one pad each, plus the hash key if none was drawn yet."""
        key = HASH_KEY_BITS if self._mul is None and n_messages else 0
        return key + n_messages * TAG_BITS

    def send(self, payload: bytes) -> AuthenticatedMessage:
        if self._mul is None:  # a first send it cannot fund draws no key
            need = self.bits_needed(1)
            if self.pool.remaining < need:
                raise KeyExhausted(
                    f"need {need} bits, {self.pool.remaining} remain")
            self._mul = Gf64Multiplier(self.pool.consume_int(HASH_KEY_BITS))
        otp = self.pool.consume_int(TAG_BITS)
        payload = bytes(payload)  # a mutable buffer is frozen as tagged
        digest = _hash_message(payload, self._mul)
        msg = AuthenticatedMessage(payload, digest ^ otp)
        self._pending.append((msg, digest, otp))
        return msg

    def deliver(self, msg: AuthenticatedMessage) -> bytes:
        if not self._pending:
            raise AuthenticationFailure("no message in flight")
        sent, digest, otp = self._pending.pop(0)
        if msg is not sent:  # the message sent reuses the hash send made
            digest = _hash_message(msg.payload, self._mul)
        if (digest ^ otp ^ msg.tag) != 0:
            raise AuthenticationFailure("tag mismatch on public channel")
        return msg.payload
