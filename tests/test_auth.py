"""Authentication: field arithmetic, tagging, key pool accounting.

The field multipliers are checked against independent in-test
implementations (shift-reduce for GF(2^64), the xtime ladder for
GF(2^8)); the collision bound is counted exhaustively over every key of
the 8-bit toy field.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkdsim import auth
from qkdsim.adversary import (InterceptResend, NoAttack,
                              PhotonNumberSplit)
from qkdsim.auth import (AuthenticatedChannel, AuthenticatedMessage,
                         AuthenticationFailure, BitPool, KeyExhausted,
                         compute_tag, verify_tag)
from qkdsim.gf2 import LANES, MASK64, REDUCTION_POLY, Gf64Multiplier
from qkdsim.photonics import (ConstantSource, DetectorPair, FiberChannel,
                              SourceModel)
from qkdsim.postprocess import _verification_hash
from qkdsim.protocol import SessionConfig, SessionOutcome, run_session
from qkdsim.rng import RandomSource

from reference_kernels import gf8_mul, gf64_mul, poly_hash_blocks


def ref_mul64(a: int, b: int) -> int:
    """Shift-and-reduce product in GF(2^64) mod x^64 + x^4 + x^3 + x + 1,
    written independently of the library's byte-table route."""
    acc = 0
    for i in range(64):
        if (b >> i) & 1:
            acc ^= a << i
    for i in range(126, 63, -1):
        if (acc >> i) & 1:
            acc ^= ((1 << 64) | 0x1B) << (i - 64)
    return acc


def ref_mul8(a: int, b: int) -> int:
    """xtime ladder in GF(2^8) mod x^8 + x^4 + x^3 + x + 1."""
    acc = 0
    for _ in range(8):
        if b & 1:
            acc ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return acc


def ref_blocks(message: bytes) -> list[int]:
    """Big-endian 64-bit blocks, the last one right-padded with zeros."""
    return [int.from_bytes(message[i:i + 8].ljust(8, b"\x00"), "big")
            for i in range(0, len(message), 8)]


def ref_horner(blocks, hash_key: int) -> int:
    acc = 0
    for block in blocks:
        acc = ref_mul64(acc ^ block, hash_key)
    return acc


def ref_tag(message: bytes, hash_key: int, otp: int) -> int:
    """Recompute a tag from the documented construction only."""
    return ref_horner(ref_blocks(message), hash_key) ^ len(message) ^ otp


def ref_bits_to_int(bits) -> int:
    """Big-endian bit loop: the first bit is the most significant."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, n_bits: int) -> np.ndarray:
    return np.array([value >> (n_bits - 1 - i) & 1 for i in range(n_bits)],
                    dtype=np.uint8)


class TestFieldArithmetic:
    def test_reduction_polynomial(self):
        assert REDUCTION_POLY == (1 << 64) | 0x1B
        assert MASK64 == 2**64 - 1

    def test_identity_and_zero(self):
        for a in [0, 1, 0xDEADBEEF, MASK64]:
            assert gf64_mul(a, 1) == a
            assert gf64_mul(1, a) == a
            assert gf64_mul(a, 0) == 0

    def test_single_overflow_bit_reduces_to_poly_tail(self):
        # x * x^63 = x^64 = x^4 + x^3 + x + 1 in this field.
        assert gf64_mul(2, 1 << 63) == 0x1B

    def test_matches_reference_on_random_pairs(self):
        rand = RandomSource(11)
        for _ in range(200):
            a, b = rand.uint64(), rand.uint64()
            want = ref_mul64(a, b)
            assert gf64_mul(a, b) == want
            assert gf64_mul(b, a) == want

    def test_table_multiplier_agrees(self):
        """The byte-table product k * a, the hash of the one block a,
        equals the shift-reduce reference and the in-test one, for random
        keys and operands."""
        rand = RandomSource(12)
        for _ in range(20):
            k = rand.uint64()
            mul = Gf64Multiplier(k)
            for _ in range(20):
                a = rand.uint64()
                assert mul.hash_bytes(a.to_bytes(8, "big")) \
                    == gf64_mul(a, k) == ref_mul64(a, k)

    def test_gf8_exhaustive(self):
        for a in range(256):
            for b in range(256):
                assert gf8_mul(a, b) == ref_mul8(a, b)

    def test_distributivity_sampled(self):
        rand = RandomSource(13)
        for _ in range(100):
            a, b, c = rand.uint64(), rand.uint64(), rand.uint64()
            assert gf64_mul(a ^ b, c) == gf64_mul(a, c) ^ gf64_mul(b, c)


class TestPolynomialHash:
    def test_horner_single_block(self):
        key = 0x0123456789ABCDEF
        block = 0xFEDCBA9876543210
        assert poly_hash_blocks([block], lambda a: gf64_mul(a, key)) \
            == Gf64Multiplier(key).hash_bytes(block.to_bytes(8, "big")) \
            == gf64_mul(block, key)

    def test_horner_two_blocks(self):
        key, m1, m2 = 7, 11, 13
        want = gf64_mul(gf64_mul(m1, key) ^ m2, key)
        assert poly_hash_blocks([m1, m2], lambda a: gf64_mul(a, key)) \
            == Gf64Multiplier(key).hash_bytes(struct.pack(">2Q", m1, m2)) \
            == want

    def test_empty_is_zero(self):
        assert poly_hash_blocks([], lambda a: gf64_mul(a, 12345)) == 0
        assert Gf64Multiplier(12345).hash_bytes(b"") == 0

    def test_toy_field_collision_bound(self):
        # Exhaustive over all 256 keys: two distinct messages of t blocks
        # collide on at most t keys (t + 1 when lengths differ and the
        # length constant enters). This is the universality that caps the
        # forgery probability.
        rand = RandomSource(14)
        cases = []
        for t in (1, 2, 3):
            for _ in range(60):
                m1 = [int(x) for x in rand.integers(0, 256, size=t)]
                m2 = [int(x) for x in rand.integers(0, 256, size=t)]
                if m1 != m2:
                    cases.append((m1, m2, t))
        for _ in range(60):
            m1 = [int(x) for x in rand.integers(0, 256, size=2)]
            m2 = [int(x) for x in rand.integers(0, 256, size=3)]
            cases.append((m1, m2, 3 + 1))
        for m1, m2, bound in cases:
            collisions = sum(
                1 for k in range(256)
                if poly_hash_blocks(m1, lambda a: gf8_mul(a, k)) ^ len(m1)
                == poly_hash_blocks(m2, lambda a: gf8_mul(a, k)) ^ len(m2))
            assert collisions <= bound


# Longest message the kernel properties draw: three full lane rows plus
# a ragged tail, so both sides of the LANES switch are covered.
MAX_HASH_BYTES = 3 * 8 * LANES + 17
KEYS = st.integers(0, MASK64)


class TestHashKernelProperties:
    """Every production hash (``compute_tag``, channel tags, the Cascade
    verification hash) against the in-test shift-reduce Horner, for
    messages on both sides of ``LANES`` blocks."""

    @given(length=st.integers(0, MAX_HASH_BYTES), seed=st.integers(0, 2**32),
           key=KEYS, otp=KEYS)
    @example(length=8 * LANES, seed=1, key=3, otp=0)
    @example(length=8 * LANES + 8, seed=2, key=MASK64, otp=1)
    @example(length=8 * LANES + 1, seed=3, key=2**63 + 5, otp=2)
    @example(length=16 * LANES, seed=4, key=0x1B, otp=3)
    @example(length=16 * LANES + 8, seed=5, key=2**64 - 3, otp=4)
    @example(length=16 * LANES + 5, seed=6, key=12345, otp=5)
    @example(length=8 * LANES - 3, seed=7, key=0, otp=6)
    # one and two blocks, either side of a block boundary
    @example(length=1, seed=8, key=MASK64, otp=7)
    @example(length=8, seed=9, key=2**63 + 1, otp=8)
    @example(length=9, seed=10, key=0x1B, otp=9)
    @example(length=16, seed=11, key=12345, otp=10)
    @example(length=17, seed=12, key=3, otp=11)
    def test_compute_tag_matches_reference(self, length, seed, key, otp):
        message = RandomSource(seed).byte_string(length)
        assert compute_tag(message, key, otp) == ref_tag(message, key, otp)

    @given(lengths=st.lists(st.integers(0, MAX_HASH_BYTES), min_size=1,
                            max_size=3),
           seed=st.integers(0, 2**32), key=KEYS)
    @example(lengths=[8 * LANES + 8, 16 * LANES + 1], seed=1, key=7)
    @example(lengths=[16 * LANES, 8 * LANES, 3], seed=2, key=MASK64)
    def test_channel_tags_match_reference(self, lengths, seed, key):
        # Later messages reuse the channel's multiplier and its lane
        # tables, so each draws a fresh pad under the same hash key.
        rand = RandomSource(seed)
        pads = [rand.uint64() for _ in lengths]
        pool = BitPool(np.concatenate(
            [int_to_bits(v, 64) for v in [key, *pads]]))
        channel = AuthenticatedChannel(pool)
        for length, otp in zip(lengths, pads):
            message = rand.byte_string(length)
            msg = channel.send(message)
            assert msg.tag == ref_tag(message, key, otp)
            assert channel.deliver(msg) == message

    @given(n_bits=st.integers(0, 8 * MAX_HASH_BYTES),
           seed=st.integers(0, 2**32), key=KEYS)
    @example(n_bits=64 * (LANES - 1), seed=1, key=9)
    @example(n_bits=64 * (LANES - 1) + 1, seed=2, key=MASK64)
    @example(n_bits=64 * LANES, seed=3, key=2**63)
    @example(n_bits=64 * (2 * LANES - 1), seed=4, key=0x1B)
    @example(n_bits=64 * (2 * LANES - 1) + 3, seed=5, key=1)
    @example(n_bits=0, seed=6, key=77)
    def test_verification_hash_matches_reference(self, n_bits, seed, key):
        bits = RandomSource(seed).bits(n_bits)
        want = ref_horner(ref_blocks(np.packbits(bits).tobytes()) + [n_bits],
                          key)
        assert _verification_hash(bits, Gf64Multiplier(key)) == want


class TestLongMessagesInPlace:
    """The lane route reads a message's full words in place and hands its
    partial last word to the scalar Horner."""

    @pytest.mark.parametrize("words", [0, 1, 255, 256, 257, 511, 512, 513])
    def test_hash_bytes_matches_reference(self, words):
        # 8 words + r bytes for r in 0..7 against the shift-reduce
        # Horner. The reference hashes the full words once and continues
        # from there: Horner from acc over [b] is Horner from 0 over
        # [acc ^ b].
        key = 0x9E3779B97F4A7C15
        mul = Gf64Multiplier(key)
        rand = RandomSource(words + 1)
        data = rand.byte_string(8 * words + 7)
        ref_mul = lambda a: gf64_mul(a, key)  # noqa: E731
        head = poly_hash_blocks(ref_blocks(data[:8 * words]), ref_mul)
        for r in range(8):
            message = data[:8 * words + r]
            rest = ref_blocks(message[8 * words:])
            want = poly_hash_blocks([head ^ rest[0]], ref_mul) if rest \
                else head
            assert mul.hash_bytes(message) == want

    def test_holds_no_copy_of_the_message(self):
        # Hashing 10^6 bytes peaked at 53 kB (its lane buffers and the
        # table gathers of one row); the padded copies and the native
        # grid of the whole message peaked at 2.06 MB.
        message = RandomSource(21).byte_string(10**6)
        mul = Gf64Multiplier(12345)
        mul.hash_bytes(message)  # builds K's tables
        tracemalloc.start()
        try:
            mul.hash_bytes(message)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5


class TestComputeTag:
    def test_empty_message_zero_pad(self):
        assert compute_tag(b"", 0xABCDEF, 0) == 0

    def test_single_block_by_hand(self):
        key = 0x1122334455667788
        message = b"\x01\x02\x03\x04\x05\x06\x07\x08"
        block = 0x0102030405060708
        assert compute_tag(message, key, 0) == gf64_mul(block, key) ^ 8

    def test_short_block_right_padded(self):
        key = 0x1122334455667788
        # "A" hashes as the block 0x41 followed by seven zero bytes, with
        # the length term separating it from the explicit padded message.
        assert compute_tag(b"A", key, 0) == \
            gf64_mul(0x4100000000000000, key) ^ 1
        assert compute_tag(b"A", key, 0) != \
            compute_tag(b"A" + b"\x00" * 7, key, 0)

    def test_length_term_separates_prefixes(self):
        key = 0x99AA
        assert compute_tag(b"", key, 0) != compute_tag(b"\x00", key, 0)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 64, 255, 256, 300])
    def test_matches_reference_construction(self, size):
        rand = RandomSource(15)
        message = rand.byte_string(size)
        key, otp = rand.uint64(), rand.uint64()
        assert compute_tag(message, key, otp) == ref_tag(message, key, otp)

    def test_deterministic(self):
        assert compute_tag(b"abc", 5, 9) == compute_tag(b"abc", 5, 9)

    def test_pad_is_xor_layer(self):
        base = compute_tag(b"payload", 77, 0)
        for otp in [1, 0xFFFF, 2**64 - 1]:
            assert compute_tag(b"payload", 77, otp) == base ^ otp


class TestVerifyTag:
    def test_accepts_valid(self):
        key, otp = 0xA1B2C3D4E5F60718, 0x1234
        msg = AuthenticatedMessage(b"sift done", compute_tag(b"sift done",
                                                             key, otp))
        assert verify_tag(msg, key, otp)

    def test_rejects_payload_flip(self):
        key, otp = 0xA1B2C3D4E5F60718, 0x1234
        tag = compute_tag(b"sift done", key, otp)
        tampered = AuthenticatedMessage(b"sift dome", tag)
        assert not verify_tag(tampered, key, otp)

    def test_rejects_tag_flip(self):
        key, otp = 5, 6
        tag = compute_tag(b"x", key, otp)
        for bit in [0, 17, 63]:
            assert not verify_tag(AuthenticatedMessage(b"x", tag ^ (1 << bit)),
                                  key, otp)

    def test_rejects_wrong_pad(self):
        tag = compute_tag(b"x", 5, 6)
        assert not verify_tag(AuthenticatedMessage(b"x", tag), 5, 7)


def fresh_pool(seed: int, n_bits: int) -> BitPool:
    return BitPool(RandomSource(seed).bits(n_bits))


def count_hashes(monkeypatch) -> list:
    """Record the payload of every message hash the channel computes."""
    hashed, real = [], auth._hash_message

    def counting(message, mul):
        hashed.append(bytes(message))
        return real(message, mul)

    monkeypatch.setattr(auth, "_hash_message", counting)
    return hashed


class TestAuthKeyPool:
    """BitPool, the one forward-only pool behind authentication and
    link keys."""

    def test_consume_advances_cursor(self):
        pool = fresh_pool(16, 300)
        out = pool.consume(128)
        assert len(out) == 128
        assert pool.cursor == 128
        assert pool.remaining == 172
        assert pool.consumed_log == [(0, 128)]

    def test_consecutive_draws_are_disjoint_prefix(self):
        pool = fresh_pool(17, 256)
        a = pool.consume(100)
        b = pool.consume(56)
        assert np.array_equal(np.concatenate([a, b]), pool.bits[:156])
        assert pool.consumed_log == [(0, 100), (100, 156)]

    def test_exhaustion_spends_nothing(self):
        pool = fresh_pool(18, 100)
        pool.consume(90)
        before = (pool.cursor, list(pool.consumed_log))
        with pytest.raises(KeyExhausted):
            pool.consume(11)
        assert (pool.cursor, pool.consumed_log) == before
        pool.consume(10)
        assert pool.remaining == 0

    def test_deposit_funds_future_draws(self):
        pool = BitPool(np.array([1, 0], dtype=np.uint8))
        pool.consume(2)
        with pytest.raises(KeyExhausted):
            pool.consume(1)
        pool.deposit([1, 1, 0])
        assert pool.remaining == 3
        assert np.array_equal(pool.consume(3), [1, 1, 0])

    def test_consume_int_big_endian(self):
        pool = BitPool(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert pool.consume_int(3) == 5
        assert pool.consume_int(1) == 1

    @given(skip=st.integers(0, 64), n_bits=st.integers(0, 64),
           seed=st.integers(0, 2**32))
    @example(skip=0, n_bits=0, seed=1)
    @example(skip=3, n_bits=7, seed=2)
    @example(skip=0, n_bits=64, seed=3)
    @example(skip=5, n_bits=63, seed=4)
    @example(skip=64, n_bits=9, seed=5)
    def test_consume_int_matches_bit_loop(self, skip, n_bits, seed):
        bits = RandomSource(seed).bits(128)
        pool = BitPool(bits)
        pool.consume(skip)
        assert pool.consume_int(n_bits) == \
            ref_bits_to_int(bits[skip:skip + n_bits])
        assert pool.cursor == skip + n_bits

    def test_rejects_invalid_bits(self):
        with pytest.raises(ValueError):
            BitPool(np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError):
            BitPool(np.zeros((2, 2), dtype=np.uint8))
        pool = fresh_pool(20, 8)
        with pytest.raises(ValueError):
            pool.consume(-1)
        with pytest.raises(ValueError):
            pool.consume_int(-1)
        assert (pool.cursor, pool.consumed_log) == (0, [])

    @pytest.mark.parametrize("bad", [2.5, np.float64(8), -1, True, np.True_])
    @pytest.mark.parametrize("draw", ["consume", "consume_int"])
    def test_refused_count_leaves_the_pool_unchanged(self, draw, bad):
        # the count is checked before the cursor moves, so the pool
        # serves the next valid draw as if the bad one never came
        pool = fresh_pool(21, 64)
        pool.consume(8)
        with pytest.raises(ValueError, match="n_bits"):
            getattr(pool, draw)(bad)
        assert (pool.cursor, pool.remaining, pool.consumed_log) == \
            (8, 56, [(0, 8)])
        assert np.array_equal(pool.consume(8), pool.bits[8:16])
        assert pool.consumed_log == [(0, 8), (8, 16)]

    @pytest.mark.parametrize("bad", [[2, 3, 7], [[0, 1], [1, 0]],
                                     np.array([0.9, 1.7]), [0.5]])
    def test_deposit_checks_bits_like_the_constructor(self, bad):
        with pytest.raises(ValueError):
            BitPool(bad)
        pool = BitPool([1, 0])
        with pytest.raises(ValueError):
            pool.deposit(bad)
        assert (pool.remaining, pool.consume_int(2)) == (2, 2)

    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("deposit"), st.lists(st.integers(0, 1),
                                               max_size=40)),
        st.tuples(st.sampled_from(["consume", "consume_int"]),
                  st.integers(0, 70))), max_size=30))
    @example(ops=[("consume", 1), ("deposit", [1, 0, 1]),
                  ("consume_int", 2), ("consume", 2), ("consume", 1),
                  ("consume", 0)])
    # an integer read, a deposit, then a read that reaches the new bits
    @example(ops=[("deposit", [1, 0] * 12), ("consume_int", 5),
                  ("deposit", [1, 1, 0] * 10), ("consume_int", 40)])
    def test_matches_list_reference(self, ops):
        # Against a plain list, a cursor and a list of (start, end)
        # draws; a refused draw must leave the pool as it was.
        pool, bits, log = BitPool(), [], []
        for op, arg in ops:
            cursor = log[-1][1] if log else 0
            if op == "deposit":
                pool.deposit(arg)
                bits += arg
            elif arg > len(bits) - cursor:
                before = (pool.cursor, pool.remaining, pool.consumed_log)
                with pytest.raises(KeyExhausted):
                    getattr(pool, op)(arg)
                assert (pool.cursor, pool.remaining,
                        pool.consumed_log) == before
            else:
                want = bits[cursor:cursor + arg]
                got = getattr(pool, op)(arg)
                if op == "consume":
                    assert got.tolist() == want
                else:
                    assert got == ref_bits_to_int(want)
                log.append((cursor, cursor + arg))
            cursor = log[-1][1] if log else 0
            assert (pool.cursor, pool.remaining, pool.consumed_log) == \
                (cursor, len(bits) - cursor, log)

    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("deposit"), st.integers(0, 12).flatmap(
            lambda k: st.lists(st.integers(0, 1), min_size=2 * k + 1,
                               max_size=2 * k + 1))),
        st.tuples(st.sampled_from(["consume", "consume_int"]),
                  st.integers(0, 30))), max_size=20))
    # reads of 0 bits at a byte edge, inside a byte and at the end, and
    # reads that span the byte a deposit left partly filled
    @example(ops=[("deposit", [1] * 3), ("consume", 0), ("deposit", [0] * 5),
                  ("consume_int", 0), ("consume", 8), ("consume", 0),
                  ("deposit", [1, 0, 1]), ("consume_int", 3),
                  ("consume_int", 0), ("consume", 0), ("consume", 1)])
    @example(ops=[("deposit", [1, 0] * 3 + [1]), ("consume_int", 3),
                  ("deposit", [0, 1] * 6 + [1]), ("consume", 13),
                  ("deposit", [1] * 9), ("consume_int", 13),
                  ("consume_int", 1)])
    def test_packed_reads_agree_across_byte_boundaries(self, ops):
        # odd deposits leave the last byte partly filled; bits, consume
        # and consume_int read the same bits on either side of it
        pool, bits = BitPool(), []
        for op, arg in ops:
            start = pool.cursor
            if op == "deposit":
                pool.deposit(arg)
                bits += arg
            elif arg > len(bits) - start:
                with pytest.raises(KeyExhausted):
                    getattr(pool, op)(arg)
                assert pool.cursor == start
            elif op == "consume":
                got = pool.consume(arg)
                assert got.dtype == np.uint8
                assert got.tolist() == bits[start:start + arg]
            else:
                assert pool.consume_int(arg) == \
                    ref_bits_to_int(bits[start:start + arg])
            assert pool.bits.dtype == np.uint8
            assert pool.bits.tolist() == bits
            assert pool.remaining == len(bits) - pool.cursor

    def test_holds_its_bits_once_packed(self):
        # 10^6 bits are 125,000 bytes packed; a second copy of any kind
        # (one byte a bit, or packed) would break the bound
        bits = RandomSource(21).bits(10**6)
        tracemalloc.start()
        try:
            pool = BitPool(bits)
            pool.consume_int(64)
            pool.consume(7)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 130_000
        assert np.array_equal(pool.bits, bits)

    @pytest.mark.parametrize("pool_len", range(8))
    @given(spent=st.integers(0, 7),
           bits=st.lists(st.integers(0, 1), max_size=40),
           cuts=st.lists(st.integers(0, 40), max_size=5),
           reads=st.lists(st.tuples(st.sampled_from(["consume",
                                                     "consume_int"]),
                                    st.integers(0, 24)), max_size=6))
    def test_split_deposits_equal_one(self, pool_len, spent, bits, cuts,
                                      reads):
        # onto a pool of every length mod 8, a string deposited in pieces
        # (empty ones too) reads as the same string deposited at once
        head = RandomSource(pool_len).bits(pool_len + 8)
        split, whole = BitPool(head), BitPool(head)
        for pool in (split, whole):
            pool.consume(spent)
        edges = [0, *sorted(min(c, len(bits)) for c in cuts), len(bits)]
        for a, b in zip(edges, edges[1:]):
            split.deposit(bits[a:b])
        whole.deposit(bits)
        assert split.bits.tolist() == whole.bits.tolist() \
            == head.tolist() + bits
        for op, n_bits in reads:
            assert split.remaining == whole.remaining
            if n_bits > whole.remaining:
                for pool in (split, whole):
                    with pytest.raises(KeyExhausted):
                        getattr(pool, op)(n_bits)
                continue
            got, want = (getattr(p, op)(n_bits) for p in (split, whole))
            assert np.array_equal(got, want)
        assert split.consumed_log == whole.consumed_log

    @pytest.mark.parametrize("pool_len, bound", [(10**6, 500_000),
                                                 (10**6 + 3, 600_000)])
    def test_deposit_holds_no_unpacked_copy_of_the_pool(self, pool_len,
                                                        bound):
        # 10^6 bits onto a 10^6-bit pool: the new pool's 250,000 bytes
        # and the new bits' 125,000 packed peak at 375 kB; unpacking the
        # pool to a byte a bit, as deposits once did, peaked at 3.0 MB.
        # Onto a pool with a partly filled last byte the packed bits
        # merge as integers at 525 kB, the pool's full bytes joined
        # through a view; copying them first peaked at 634 kB, and
        # copying the new bits a byte a bit peaked at 1.50 MB.
        pool = BitPool(RandomSource(22).bits(pool_len))
        bits = RandomSource(21).bits(10**6)
        tracemalloc.start()
        try:
            pool.deposit(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert np.array_equal(pool.bits[pool_len:], bits)
        assert np.array_equal(pool.consume(pool_len),
                              RandomSource(22).bits(pool_len))

    def test_misaligned_long_read_is_one_integer(self):
        # a read that starts inside a byte and spans 10^6 bits goes
        # through the same integer as a 64-bit one
        bits = RandomSource(23).bits(10**6 + 16)
        pool = BitPool(bits)
        pool.consume(3)
        assert np.array_equal(pool.consume(10**6 + 5), bits[3:10**6 + 8])
        assert pool.consumed_log[-1] == (3, 1000008)

    def test_fresh_default_size(self):
        # A link's key store starts as an empty pool.
        pool = BitPool()
        assert (pool.remaining, pool.cursor, pool.consumed_log) == (0, 0, [])
        with pytest.raises(KeyExhausted):
            pool.consume(1)


def ideal_session(n_pulses: int, seed: int, **kwargs):
    return run_session(SessionConfig(
        n_pulses=n_pulses, source=ConstantSource(1),
        channel=FiberChannel(0.0), detectors=DetectorPair(1.0, 0.0),
        seed=seed, **kwargs))


class TestKeyLedger:
    """Secret growth, as the session report accounts for it: final key
    length minus the authentication bits the pool's cursor passed."""

    def test_growth_accounting(self):
        report = ideal_session(4000, 22)
        assert report.outcome is SessionOutcome.SUCCESS
        assert report.auth_bits_consumed == 384
        assert report.secret_growth == report.final_len - 384 > 0

    def test_negative_growth_on_abort(self):
        report = ideal_session(4000, 23, eve=InterceptResend(1.0))
        assert report.outcome is SessionOutcome.ABORT_QBER
        assert report.secret_growth == -256

    @given(pulses=st.integers(200, 5000), mu=st.floats(0.01, 1.0),
           flip=st.floats(0.0, 0.2), distance=st.floats(0.0, 60.0),
           efficiency=st.floats(0.05, 1.0),
           eve=st.sampled_from(["none", "intercept", "pns"]),
           fraction=st.floats(0.05, 1.0), seed=st.integers(0, 2**32))
    @example(pulses=200, mu=0.01, flip=0.0, distance=60.0, efficiency=0.05,
             eve="none", fraction=1.0, seed=1)        # nothing to sample
    @example(pulses=5000, mu=0.5, flip=0.0, distance=0.0, efficiency=1.0,
             eve="intercept", fraction=1.0, seed=2)   # error-rate abort
    @example(pulses=200, mu=0.1, flip=0.0, distance=0.0, efficiency=1.0,
             eve="none", fraction=1.0, seed=3)        # too short
    @example(pulses=5000, mu=0.5, flip=0.01, distance=5.0, efficiency=1.0,
             eve="pns", fraction=1.0, seed=4)         # reconciled
    def test_growth_and_budget_for_any_config(self, pulses, mu, flip,
                                              distance, efficiency, eve,
                                              fraction, seed):
        strategy = {"none": NoAttack(), "intercept": InterceptResend(fraction),
                    "pns": PhotonNumberSplit()}[eve]
        report = run_session(SessionConfig(
            n_pulses=pulses, source=SourceModel(mu),
            channel=FiberChannel(distance, 0.2, flip),
            detectors=DetectorPair(efficiency, 1e-5), seed=seed,
            eve=strategy))
        spent = report.auth_bits_consumed
        assert report.secret_growth == report.final_len - spent
        # The README's budget: 192 when there is nothing to sample, 256
        # at the error-rate check, 320 when the remainder is too short
        # to reconcile (no leak), 384 once reconciliation ran.
        if report.outcome is SessionOutcome.ABORT_QBER:
            assert spent == (192 if np.isnan(report.e_hat) else 256)
        elif report.outcome is SessionOutcome.ABORT_RECONCILIATION:
            assert spent == 384
        elif report.leak_ec_bits == 0:
            assert (spent, report.final_len) == (320, 0)
        else:
            assert spent == 384


class TestAuthenticatedChannel:
    def test_roundtrip_and_consumption(self):
        # Hash key (64) plus pad (64) for the first message, pad only
        # for each following one.
        pool = fresh_pool(24, 1024)
        channel = AuthenticatedChannel(pool)
        assert channel.bits_needed(2) == 192
        m1 = channel.send(b"first")
        assert pool.cursor == 128
        assert channel.bits_needed(2) == 128
        m2 = channel.send(b"second")
        assert pool.cursor == 192
        assert channel.deliver(m1) == b"first"
        assert channel.deliver(m2) == b"second"

    def test_message_has_slots_and_stays_frozen(self):
        # relays keep thousands of messages: no per-message __dict__
        msg = AuthenticatedChannel(fresh_pool(30, 1024)).send(b"hop")
        assert not hasattr(msg, "__dict__")
        with pytest.raises(AttributeError):
            msg.tag = 0
        assert msg == AuthenticatedMessage(b"hop", msg.tag)

    def test_send_and_deliver_hash_once(self, monkeypatch):
        # deliver reuses the hash send made for the very message it sent
        hashed = count_hashes(monkeypatch)
        channel = AuthenticatedChannel(fresh_pool(31, 1024))
        assert channel.deliver(channel.send(b"click report")) \
            == b"click report"
        assert hashed == [b"click report"]

    def test_session_hashes_each_message_once(self, monkeypatch):
        hashed = count_hashes(monkeypatch)
        report = ideal_session(2000, 32)
        assert report.outcome is SessionOutcome.SUCCESS
        assert report.auth_bits_consumed == 384  # five messages
        assert len(hashed) == 5

    def test_equal_but_distinct_payload_is_hashed_again(self, monkeypatch):
        hashed = count_hashes(monkeypatch)
        channel = AuthenticatedChannel(fresh_pool(33, 1024))
        msg = channel.send(b"sift announcement")
        copy = AuthenticatedMessage(bytes(bytearray(msg.payload)), msg.tag)
        assert copy.payload == msg.payload and copy.payload is not msg.payload
        assert channel.deliver(copy) == b"sift announcement"
        assert len(hashed) == 2

    def test_buffer_changed_after_send_fails(self):
        # send tags the bytes the buffer held and keeps them; the buffer
        # as changed afterwards is another message and fails
        channel = AuthenticatedChannel(fresh_pool(34, 1024))
        buffer = bytearray(b"sample bits")
        msg = channel.send(buffer)
        buffer[0] ^= 1
        assert type(msg.payload) is bytes and msg.payload == b"sample bits"
        with pytest.raises(AuthenticationFailure):
            channel.deliver(AuthenticatedMessage(buffer, msg.tag))

    def test_same_payload_object_with_flipped_tag_fails(self):
        channel = AuthenticatedChannel(fresh_pool(35, 1024))
        msg = channel.send(b"reconciliation bundle")
        forged = AuthenticatedMessage(msg.payload, msg.tag ^ 1 << 63)
        assert forged.payload is msg.payload
        with pytest.raises(AuthenticationFailure):
            channel.deliver(forged)

    def test_tamper_detected(self):
        pool = fresh_pool(25, 1024)
        channel = AuthenticatedChannel(pool)
        msg = channel.send(b"basis list")
        forged = AuthenticatedMessage(b"basis lisp", msg.tag)
        with pytest.raises(AuthenticationFailure):
            channel.deliver(forged)

    def test_tag_tamper_detected(self):
        pool = fresh_pool(26, 1024)
        channel = AuthenticatedChannel(pool)
        msg = channel.send(b"qber sample")
        with pytest.raises(AuthenticationFailure):
            channel.deliver(AuthenticatedMessage(msg.payload, msg.tag ^ 1))

    def test_deliver_without_send(self):
        channel = AuthenticatedChannel(fresh_pool(27, 256))
        with pytest.raises(AuthenticationFailure):
            channel.deliver(AuthenticatedMessage(b"spoof", 0))

    def test_send_fails_when_pool_dry(self):
        pool = fresh_pool(28, 130)
        channel = AuthenticatedChannel(pool)
        channel.send(b"ok")
        with pytest.raises(KeyExhausted):
            channel.send(b"no pad left")

    @pytest.mark.parametrize("n_bits", [0, 64, 100, 127])
    def test_refused_first_send_spends_nothing(self, n_bits):
        # a first send pays the hash key and a pad at once: a pool short
        # of 128 bits funds neither, so the key stays undrawn
        pool = fresh_pool(36, n_bits)
        channel = AuthenticatedChannel(pool)
        with pytest.raises(KeyExhausted,
                           match=f"need 128 bits, {n_bits} remain"):
            channel.send(b"click report")
        assert pool.cursor == 0 and pool.consumed_log == []
        assert channel.bits_needed(1) == 128  # still unkeyed
        pool.deposit(RandomSource(37).bits(128))
        bits = pool.bits
        key = int("".join(map(str, bits[:64])), 2)
        otp = int("".join(map(str, bits[64:128])), 2)
        assert channel.send(b"click report").tag == \
            compute_tag(b"click report", key, otp)

    def test_tags_reproducible_from_pool_bits(self):
        # The channel's tag must equal a direct computation from the
        # same pool prefix: 64 hash-key bits then 64 pad bits.
        bits = RandomSource(29).bits(256)
        channel = AuthenticatedChannel(BitPool(bits.copy()))
        msg = channel.send(b"transcript")
        key = int("".join(map(str, bits[:64])), 2)
        otp = int("".join(map(str, bits[64:128])), 2)
        assert msg.tag == compute_tag(b"transcript", key, otp)
        assert verify_tag(msg, key, otp)
