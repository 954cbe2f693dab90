"""Deterministic randomness plumbing.

The mixing functions are pinned to published reference vectors
(splitmix64's canonical output stream, the FNV-1a test suite) plus
frozen regression values, since sweep seed derivation depends on them.
Bit draws of every size and bits read at any position are pinned to an
in-test transliteration of the counter rule, every other draw to
numpy's PCG64 Generator. The Bernoulli gap kernel is pinned to a
scalar loop over the same exponentials, and checked against the
binomial moments of the trials it stands for.
"""

import importlib
import math
import pkgutil
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import qkdsim
from qkdsim import rng
from qkdsim.rng import (COUNT, FINITE, HALF, INTEGER, SHORT_BITS, UNIT,
                        WINDOW, Checked, RandomSource, Rule, fnv1a64, mix64,
                        splitmix64)

from reference_kernels import scalar_gaps

GOLDEN = 0x9E3779B97F4A7C15


def counter_draws(seed, sizes):
    """bits(n) for each n of ``sizes`` in turn, from the rule: word j
    is splitmix64(base + j * GOLDEN) mod 2^64 with base = mix64(seed,
    fnv1a64("rng.counter_words")), a draw takes the next ceil(n / 64)
    words, and their bits, most significant first, cut to n are the
    draw."""
    base = mix64(seed, fnv1a64("rng.counter_words"))
    j, out = 0, []
    for n in sizes:
        words = [splitmix64((base + k * GOLDEN) % 2**64)
                 for k in range(j, j + -(-n // 64))]
        j += len(words)
        out.append(np.array([w >> (63 - b) & 1 for w in words
                             for b in range(64)][:n], dtype=np.uint8))
    return out


def bits_in_pieces(rand, n, words):
    """bits(n) drawn ``words`` whole counter words at a time, the last
    piece taking the rest. Each piece starts at the word where the last
    one ended, so the pieces are bits(n)."""
    piece = 64 * words
    return np.concatenate([np.zeros(0, np.uint8)] + [
        rand.bits(min(piece, n - start)) for start in range(0, n, piece)])


class TestSplitmix64:
    def test_canonical_stream_vectors(self):
        # First outputs of the reference generator seeded with state 0;
        # stateless form: output i comes from state i * GOLDEN.
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                    0x06C45D188009454F]
        for i, want in enumerate(expected):
            assert splitmix64((i * GOLDEN) & ((1 << 64) - 1)) == want

    def test_matches_independent_transliteration(self):
        mask = (1 << 64) - 1

        def reference(x):
            x = (x + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        rng = np.random.default_rng(0)
        for x in rng.integers(0, 1 << 63, size=50):
            assert splitmix64(int(x)) == reference(int(x))

    def test_range(self):
        assert 0 <= splitmix64(2**64 - 1) < 2**64


class TestFnv1a64:
    def test_published_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8


class TestMix64:
    def test_frozen_regression_value(self):
        # Pins the documented formula; sweep seeds depend on it.
        assert mix64(1, 2) == 0x782F2F51D71580AD

    def test_matches_documented_formula(self):
        for s, i in [(0, 0), (7, 3), (2**64 - 1, 12345)]:
            want = splitmix64(splitmix64(s) ^ splitmix64(i ^ GOLDEN))
            assert mix64(s, i) == want

    def test_index_sensitivity(self):
        outs = {mix64(42, i) for i in range(1000)}
        assert len(outs) == 1000


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(7), RandomSource(7)
        assert np.array_equal(a.bits(1000), b.bits(1000))
        assert a.uint64() == b.uint64()

    def test_different_seed_differs(self):
        assert not np.array_equal(RandomSource(1).bits(128),
                                  RandomSource(2).bits(128))

    def test_split_is_independent_of_parent_consumption(self):
        a, b = RandomSource(7), RandomSource(7)
        a.bits(10_000)  # consume the parent
        assert np.array_equal(a.split("x").bits(64), b.split("x").bits(64))

    def test_split_labels_distinguish(self):
        r = RandomSource(7)
        assert not np.array_equal(r.split("alice").bits(64),
                                  r.split("bob").bits(64))
        assert r.split("alice").seed == mix64(7, fnv1a64("alice"))
        assert r.split(5).seed == mix64(7, 5)

    @pytest.mark.parametrize("label", [
        "relay", "relay", "", "\u00e9", 0, 5, -1, 2**64 + 3,
        pytest.param(np.int64(5), id="int64_5")])
    def test_split_seed_is_mix64_of_the_label(self, label):
        # string labels take a cached path; repeat one to hit it
        index = fnv1a64(label) if isinstance(label, str) else int(label)
        for seed in (0, 7, 2**64 - 1):
            assert RandomSource(seed).split(label).seed == mix64(seed, index)

    @pytest.mark.parametrize("label", [True, 2.5, None])
    def test_split_refuses_a_label_that_is_not_an_integer(self, label):
        # int() would give True the seed of 1 and 2.5 the seed of 2
        with pytest.raises(ValueError, match="label must be an integer"):
            RandomSource(7).split(label)

    def test_bits_are_binary(self):
        bits = RandomSource(3).bits(10_000)
        assert bits.dtype == np.uint8
        assert set(np.unique(bits)) <= {0, 1}

    def test_sample_indices_sorted_unique(self):
        idx = RandomSource(3).sample_indices(1000, 100)
        assert len(idx) == 100
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_sample_indices_covers_range(self):
        # Uniformity smoke: each index appears with frequency ~k/n.
        hits = np.zeros(50)
        for trial in range(500):
            hits[RandomSource(trial).sample_indices(50, 10)] += 1
        freq = hits / 500
        assert np.all(np.abs(freq - 0.2) < 0.08)

    def test_uniformity_chi_square_on_byte_blocks(self):
        # 8-bit blocks from the bit stream, chi-square at significance
        # 0.001 against the uniform distribution over 256 cells.
        bits = RandomSource(99).bits(8 * 100_000)
        blocks = np.packbits(bits)
        counts = np.bincount(blocks, minlength=256)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_negative_and_huge_seeds_normalized(self):
        assert RandomSource(-1).seed == 2**64 - 1
        assert RandomSource(2**64 + 5).seed == 5
        assert RandomSource(np.uint64(2**64 - 1)).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.True_, "1", None],
                             ids=repr)
    def test_non_integer_seeds_refused(self, seed):
        # int() would make 1.5 and True seed 1
        with pytest.raises(ValueError, match="seed"):
            RandomSource(seed)

    def test_poisson_and_binomial_shapes(self):
        r = RandomSource(4)
        assert r.poisson(0.1, 10).shape == (10,)
        out = r.binomial(np.array([3, 0, 5]), 0.5)
        assert out.shape == (3,)
        assert out[1] == 0

    @pytest.mark.parametrize("n", [0, 1, 16_384, 2 * 16_384 + 17])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_bernoulli_is_one_uniform_draw(self, n, p, monkeypatch):
        # One draw at any window: blocks of WINDOW picks or of seven give
        # the same sorted int64 indices, those of the scalar gap loop.
        want = scalar_gaps(8, n, p)
        for window in (WINDOW, 7):
            monkeypatch.setattr(rng, "WINDOW", window)
            indices = RandomSource(8).bernoulli_indices(n, p)
            assert indices.dtype == np.int64
            assert indices.tolist() == want

    @pytest.mark.parametrize("p", [
        0.0, 2.0**-53, 1e-5, 0.3, 1 - 2.0**-53, 1.0,
        12345 * 2.0**-53, 0.5, -0.5, 1.5, math.nan])
    def test_raw_word_bernoulli_is_exact(self, p):
        # Each pick is the scalar gap loop's, at both ends of [0, 1],
        # beyond them and at NaN, past a window.
        n = 2 * 16_384 + 5
        indices = RandomSource(9).bernoulli_indices(n, p)
        want = scalar_gaps(RandomSource(9).seed, n, p)
        assert indices.dtype == np.int64
        assert np.array_equal(indices, want)

    def test_raw_word_bernoulli_at_drawn_values(self):
        # p equal to a drawn uniform and one float either side of it:
        # each p's own gap scale gives the scalar loop's picks
        n = 1000
        uniforms = RandomSource(11).random(n)
        for u in uniforms[[17, 400]]:
            for p in (np.nextafter(u, 0), u, np.nextafter(u, 1)):
                indices = RandomSource(11).bernoulli_indices(n, p)
                assert indices.tolist() == scalar_gaps(
                    RandomSource(11).seed, n, p)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 5, WINDOW + 3])
    def test_gap_process_at_its_ends(self, n, p):
        # p = 0 picks nothing, p = 1 every index, with no exponential
        # drawn
        rand = RandomSource(17)
        indices = rand.bernoulli_indices(n, p)
        assert indices.tolist() == (list(range(n)) if p else [])
        assert rand._generator is None

    @pytest.mark.parametrize("bad", [-1, 2.5, True, "3", None])
    def test_gap_and_byte_counts_refused_by_name(self, bad):
        # bernoulli_indices(2.5, 0.5) returned [2] and (True, 0.5) [0];
        # byte_string(-1) returned three bytes and byte_string(2.5) two.
        # A refused count builds no generator, and numpy counts pass.
        rand = RandomSource(19)
        message = re.escape(f"n must be an integer >= 0, got {bad!r}")
        for draw in (rand.bernoulli_indices, rand.bernoulli_blocks):
            with pytest.raises(ValueError, match=f"^{message}$"):
                draw(bad, 0.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            rand.byte_string(bad)
        assert rand._generator is None
        assert rand.bernoulli_indices(np.int64(3), 1.0).tolist() == [0, 1, 2]
        assert rand.byte_string(np.uint8(4)) \
            == RandomSource(19).byte_string(4)

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 5000),
           p=st.one_of(st.sampled_from([1e-300, 1e-5, 0.5, 1 - 1e-12]),
                       st.floats(0.0, 1.0)))
    def test_gap_indices_increase_inside_range(self, seed, n, p):
        indices = RandomSource(seed).bernoulli_indices(n, p)
        assert indices.dtype == np.int64
        assert np.all(np.diff(indices) > 0)
        assert len(indices) == 0 or 0 <= indices[0] <= indices[-1] < n

    @pytest.mark.parametrize("p", [1e-5, 0.014, 0.39, 0.9])
    def test_gap_counts_within_4_sigma(self, p):
        # The number picked is Binomial(trials, p): within 4 sigma on
        # each of seeds 1-5 (for p = 1e-5, 2e6 trials, 20 expected).
        trials = 2_000_000 if p < 1e-3 else 400_000
        sigma = math.sqrt(trials * p * (1 - p))
        for seed in range(1, 6):
            picked = RandomSource(seed).bernoulli_indices(trials, p)
            assert abs(len(picked) - trials * p) <= 4 * sigma, seed

    def test_tiny_p_picks_nothing_and_stays_finite(self):
        # below about 2^-1074 the gap scale overflows to inf; a gap of
        # E * inf (NaN at E = 0) still ends the draw
        for p in (5e-324, 1e-320):
            assert len(RandomSource(18).bernoulli_indices(10**6, p)) == 0

    @pytest.mark.parametrize("n", [
        0, 1, 7, 8, 9, 4096 + 3, 8 * WINDOW - 4, 8 * WINDOW,
        8 * WINDOW + 5, 3 * 8 * WINDOW + 13])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_packed_bits_are_one_bits_draw(self, n, buffered):
        # bits(n) taken 8 * WINDOW bits (2,048 words) at a time, and
        # packed: np.packbits of one bits(n), and the next draw is the
        # same, also after a one-bit draw whose word's other 63 bits are
        # never handed out.
        rand, ref = RandomSource(13), RandomSource(13)
        if buffered:
            assert np.array_equal(rand.bits(1), ref.bits(1))
        packed = np.packbits(bits_in_pieces(rand, n, 8 * WINDOW // 64))
        assert np.array_equal(packed, np.packbits(ref.bits(n)))
        assert np.array_equal(rand.bits(8), ref.bits(8))

    @pytest.mark.parametrize("n", [255, 256, 257, 312, 773, 524_547,
                                   SHORT_BITS - 1, SHORT_BITS, SHORT_BITS + 1])
    @pytest.mark.parametrize("chunk", [7, 8, 33, 1000, 16_384, 65_536])
    def test_packed_bits_route_follows_n_at_any_chunk(self, n, chunk):
        # Pieces of ``chunk`` words, the last taking the rest, each
        # computed in the loop or on an array as its own size says: they
        # are one draw of n bits, whichever way that one is computed,
        # and no piece builds a PCG64.
        want = np.packbits(RandomSource(14).bits(n))
        rand = RandomSource(14)
        assert np.array_equal(np.packbits(bits_in_pieces(rand, n, chunk)),
                              want)
        assert rand._generator is None

    @given(bits=st.lists(st.integers(0, 1), max_size=70),
           data=st.data())
    def test_bits_at_and_with_bits(self, bits, data):
        # Read single bits at any positions, repeats included, and with
        # ``bits`` set at some positions (PulseBits, as Eve's resends set
        # them): the counter bits elsewhere.
        from qkdsim.photonics import PulseBits
        bits = np.array(bits, np.uint8)
        n = len(bits)
        picks = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                            max_size=n)), np.int64)
        unique = np.unique(picks)
        rand = RandomSource(20)
        counter = counter_draws(20, [n])[0]
        assert np.array_equal(rand.bits_at(picks), counter[picks])
        changed = PulseBits(rand, unique, bits[unique])
        want = counter.copy()
        want[unique] = bits[unique]
        assert np.array_equal(changed.at(picks), want[picks])
        assert np.array_equal(changed.at(np.arange(n)), want)

    @given(seed=st.integers(0, 2**64 - 1),
           picks=st.lists(st.integers(0, 3 * SHORT_BITS), max_size=40))
    def test_bits_at_reads_the_counter_words(self, seed, picks):
        # bit i of the counter words, at any position and in any order,
        # as uint8 and for int64 and uint32 indices; the cursor stays
        want = np.concatenate(counter_draws(seed, [SHORT_BITS] * 4))
        rand = RandomSource(seed)
        for dtype in (np.int64, np.uint32):
            got = rand.bits_at(np.array(picks, dtype))
            assert got.dtype == np.uint8
            assert np.array_equal(got, want[picks])
        assert np.array_equal(rand.bits(SHORT_BITS), want[:SHORT_BITS])
        assert rand._generator is None

    def test_bits_at_far_indices_and_windows(self, monkeypatch):
        # indices up to 2^32, read one window or many at a time
        indices = np.array([0, 63, 64, 2**20 + 5, 2**32 - 1], np.int64)
        base = mix64(19, fnv1a64("rng.counter_words"))
        want = [splitmix64((base + (i >> 6) * GOLDEN) % 2**64)
                >> (63 - i % 64) & 1 for i in indices.tolist()]
        assert RandomSource(19).bits_at(indices).tolist() == want
        monkeypatch.setattr(rng, "WINDOW", 2)
        assert RandomSource(19).bits_at(indices).tolist() == want

    @pytest.mark.parametrize("n", [
        *range(10), 4 * 1000 - 1, 4 * 1000 + 1, 4096 - 1, 4096, 4096 + 1,
        *(16_384 * k + d for k in (1, 8, 9, 17) for d in (-3, 3))])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_bits_are_one_integers_draw(self, n, buffered):
        # bits(n) is the bits of one draw of ceil(n / 64) integers, the
        # counter words that follow those already read: bits_at at whole
        # words from the cursor on, from a fresh source and from one
        # that drew one bit of a word first. PCG64 is never built.
        rand = RandomSource(12)
        skipped = 64 if buffered else 0
        if buffered:
            rand.bits(1)
        bits = rand.bits(n)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, rand.bits_at(skipped + np.arange(n)))
        assert np.array_equal(rand.bits(1), rand.bits_at(
            [skipped + 64 * -(-n // 64)]))
        assert rand._generator is None

    @given(seed=st.integers(0, 2**64 - 1),
           sizes=st.lists(st.integers(0, 3 * SHORT_BITS), max_size=8))
    def test_short_bits_are_counter_words(self, seed, sizes):
        # each draw, on either side of SHORT_BITS, continues the counter
        # where the last one left it, whole words at a time, and builds
        # no PCG64
        rand = RandomSource(seed)
        for got, want in zip([rand.bits(n) for n in sizes],
                             counter_draws(seed, sizes)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
        assert rand._generator is None

    @pytest.mark.parametrize("n", [0, 1, 100, SHORT_BITS, SHORT_BITS + 1,
                                   5000])
    def test_numpy_integer_sizes(self, n):
        # a numpy integer n draws the bits of the int n and moves the
        # cursor as far, on either side of SHORT_BITS
        ref = RandomSource(23)
        want = ref.bits(n)
        for size in (np.int64(n), np.uint32(n)):
            rand = RandomSource(23)
            assert np.array_equal(rand.bits(size), want)
            assert rand._next_word == ref._next_word

    def test_short_draws_never_repeat_a_word(self):
        # 2,000 one-word draws give 2,000 distinct words, the counter's
        # words in order; a long draw among them takes the words between
        rand = RandomSource(15)
        words = [rand.bits(64) for _ in range(1000)]
        words.append(rand.bits(SHORT_BITS + 64))
        words += [rand.bits(64) for _ in range(1000)]
        assert len({word.tobytes() for word in words}) == 2001
        assert np.array_equal(np.concatenate(words), np.concatenate(
            counter_draws(15, [64] * 1000 + [SHORT_BITS + 64] + [64] * 1000)))

    def test_counter_base_is_no_child_seed(self):
        # the base is mix64(seed, fnv1a64 of a reserved label), which
        # split() refuses as a string and as its hash
        for label in ("rng.counter_words", fnv1a64("rng.counter_words")):
            with pytest.raises(ValueError, match="reserved"):
                RandomSource(7).split(label)

    @pytest.mark.parametrize("bad", [-1, True, 2.5, "3"])
    def test_negative_bit_count_refused(self, bad):
        # the count rule of every other draw: a refused count moves no
        # cursor, and a numpy integer is a count
        rand, ref = RandomSource(16), RandomSource(16)
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            rand.bits(bad)
        assert rand._next_word == ref._next_word
        assert np.array_equal(rand.bits(np.int64(5)), ref.bits(5))

    @given(seed=st.integers(0, 2**64 - 1),
           sizes=st.lists(st.integers(0, 3 * SHORT_BITS), max_size=8))
    def test_short_bits_bound_moves_no_draw(self, seed, sizes):
        # every draw in the Python loop, or every one on an array: the
        # same bits, and the cursor where the default bound leaves it
        ref = RandomSource(seed)
        want = [ref.bits(n) for n in sizes]
        for bound in (0, 10**6):
            rand = RandomSource(seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rng, "SHORT_BITS", bound)
                for n, bits in zip(sizes, want):
                    assert np.array_equal(rand.bits(n), bits)
            assert rand._next_word == ref._next_word

    @given(seed=st.integers(0, 2**64 - 1),
           earlier=st.lists(st.tuples(st.booleans(), st.integers(0, 2048)),
                            max_size=4),
           n=st.integers(0, 2048))
    @example(seed=1, earlier=[], n=SHORT_BITS - 1)
    @example(seed=1, earlier=[], n=SHORT_BITS)
    @example(seed=1, earlier=[], n=SHORT_BITS + 1)
    @example(seed=2, earlier=[(True, 1), (False, SHORT_BITS + 1)],
             n=SHORT_BITS - 1)
    @example(seed=2, earlier=[(False, 7), (True, SHORT_BITS)], n=SHORT_BITS)
    @example(seed=2, earlier=[(True, 65), (False, 0)], n=SHORT_BITS + 1)
    def test_packed_bits_are_bits_packed(self, seed, earlier, n):
        # from a fresh source and after any mix of packed and unpacked
        # draws: np.packbits of bits(n), which is the counter rule's
        # draw, as bytes with zero pad bits; the cursor moves as far
        rand, ref = RandomSource(seed), RandomSource(seed)
        for packed, size in earlier:
            (rand.packed_bits if packed else rand.bits)(size)
            ref.bits(size)
        got = rand.packed_bits(n)
        want = ref.bits(n)
        assert type(got) is bytes and len(got) == -(-n // 8)
        assert got == np.packbits(want).tobytes()
        assert np.array_equal(want, counter_draws(
            seed, [size for _, size in earlier] + [n])[-1])
        if n % 8:
            assert got[-1] & 0xFF >> n % 8 == 0
        assert rand._next_word == ref._next_word
        assert rand._generator is None

    @pytest.mark.parametrize("bad", [-1, True, 2.5, "3", None])
    def test_packed_bits_refuse_a_bad_count_by_name(self, bad):
        rand, ref = RandomSource(24), RandomSource(24)
        with pytest.raises(ValueError, match="^n must be an integer >= 0"):
            rand.packed_bits(bad)
        assert rand._next_word == ref._next_word
        assert rand.packed_bits(np.uint16(9)) == ref.packed_bits(9)

    def test_repr_mentions_seed(self):
        assert "0x" in repr(RandomSource(7))


def test_permutation_is_a_permutation():
    perm = RandomSource(11).permutation(257)
    assert sorted(perm.tolist()) == list(range(257))


class TestLazyGenerator:
    def test_split_only_source_builds_no_generator(self, monkeypatch):
        # nor does one that only draws bits, of any size; its first other
        # draw builds one, once
        built = []
        pcg64 = np.random.PCG64

        def counting_pcg64(seed):
            built.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        parent = RandomSource(7)
        child = parent.split("relay").split(3)
        assert built == []
        child.bits(8), child.bits(SHORT_BITS), child.bits_at(np.arange(99))
        child.bits(SHORT_BITS + 1), child.bits(10**5)
        assert built == []
        child.random(3), child.bits(10**5), child.random(3)
        assert built == [child.seed]

    # a RandomSource draw of size n, and the same draw on a Generator
    DRAWS = [
        (lambda r, n: r.random(n), lambda g, n: g.random(n)),
        (lambda r, n: r.poisson(0.5, n), lambda g, n: g.poisson(0.5, n)),
        (lambda r, n: r.binomial(np.arange(n), 0.3),
         lambda g, n: g.binomial(np.arange(n), 0.3)),
        (lambda r, n: r.uint64(),
         lambda g, n: g.integers(0, 1 << 64, dtype=np.uint64)),
        (lambda r, n: r.byte_string(n), lambda g, n: g.bytes(n)),
        # bits read at positions leave both cursors as they were
        (lambda r, n: len(r.bits_at(np.arange(n))), lambda g, n: n),
        # a bit draw, on either side of SHORT_BITS, reads the counter
        # and leaves PCG64 as it was
        (lambda r, n: len(r.bits(64 * n)), lambda g, n: 64 * n),
    ]

    @given(seed=st.integers(0, 2**64 - 1),
           draws=st.lists(st.tuples(st.integers(0, len(DRAWS) - 1),
                                    st.integers(0, 40)), max_size=12))
    def test_state_equals_an_eager_generator_at_every_point(self, seed,
                                                            draws):
        lazy = RandomSource(seed)
        eager = np.random.Generator(np.random.PCG64(seed))
        for k, n in draws:
            source_draw, generator_draw = self.DRAWS[k]
            assert np.array_equal(source_draw(lazy, n),
                                  generator_draw(eager, n))
            assert lazy.generator.bit_generator.state \
                == eager.bit_generator.state
        assert lazy.generator.bit_generator.state == eager.bit_generator.state


@dataclass(frozen=True)
class Probe(Checked):
    RULES = {"count": COUNT, "length": FINITE}

    count: int
    length: float = 0.0
    label: str = "unchecked"


def rule_id(value):
    return value.wording if isinstance(value, Rule) else repr(value)


class TestRule:
    @pytest.mark.parametrize("rule, value", [
        (INTEGER, -2**70), (INTEGER, np.uint64(2**64 - 1)), (COUNT, 0),
        (COUNT, np.int32(7)), (FINITE, 0), (FINITE, np.float32(1.5)),
        (UNIT, 1), (UNIT, np.float64(0.25)), (HALF, np.int8(0))], ids=rule_id)
    def test_valid_value_comes_back_unchanged(self, rule, value):
        assert rule.check("x", value) is value

    @pytest.mark.parametrize("rule, value", [
        (INTEGER, True), (INTEGER, np.True_), (INTEGER, 1.0), (INTEGER, "1"),
        (INTEGER, None), (COUNT, -1), (FINITE, math.inf), (FINITE, math.nan),
        (FINITE, "1"), (UNIT, False), (UNIT, 1.5), (UNIT, [0.5]),
        # a number is a Python or numpy int or float: the numbers ABCs
        # took a Fraction
        (FINITE, Fraction(1, 2)), (UNIT, Fraction(1, 2)),
        (HALF, Fraction(1, 2))], ids=rule_id)
    def test_refusal_names_the_parameter(self, rule, value):
        with pytest.raises(ValueError) as exc_info:
            rule.check("x", value)
        assert str(exc_info.value) \
            == f"x must be {rule.wording}, got {value!r}"

    def test_every_number_rule_takes_the_concrete_kinds(self):
        # every rule a module binds or lists in a RULES table that takes
        # an int or a float takes rng.INTEGRAL or rng.REAL itself (the
        # CLI's node ids, strings or INTEGRAL), and no module imports
        # the numbers ABCs
        modules = [importlib.import_module(f"qkdsim.{info.name}")
                   for info in pkgutil.iter_modules(qkdsim.__path__)]
        rules = {}
        for module in modules:
            assert "numbers" not in vars(module), module.__name__
            for name, value in vars(module).items():
                table = getattr(value, "RULES", {})
                for key, rule in [(name, value), *table.items()]:
                    if isinstance(rule, Rule):
                        rules[f"{module.__name__}.{key}"] = rule
        number_rules = {name: rule.kind for name, rule in rules.items()
                        if isinstance(1, rule.kind)
                        or isinstance(0.5, rule.kind)}
        assert len(number_rules) >= 14
        assert number_rules.pop("qkdsim.cli._NODE") == (str, *rng.INTEGRAL)
        assert {name: kind for name, kind in number_rules.items()
                if kind is not rng.INTEGRAL and kind is not rng.REAL} == {}

    def test_checked_dataclass_applies_each_rule(self):
        assert Probe(3, 2.5, label="any").count == 3
        with pytest.raises(ValueError, match="^count must be an integer >= 0"):
            Probe(-1)
        with pytest.raises(ValueError, match="^length must be a finite"):
            Probe(1, math.nan)
