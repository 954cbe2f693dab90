"""Deterministic, splittable randomness for the whole simulator.

Every stochastic operation in this package draws from a RandomSource that
is injected by the caller; there is no hidden global state. A source is
fully determined by a 64-bit seed, and independent substreams are derived
by seed mixing, so simulations are reproducible bit-for-bit and substreams
can safely run in parallel.

A source has two cursors. Bit draws read SplitMix64 counter words
(Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014), every other draw a numpy PCG64 generator.
The counter words can also be read at any bit position without moving
the cursor (``bits_at``): a pulse's bit is then a function of its index
alone, drawn only where it is read.

Sparse events, such as the pulses that carry photons or the gates with
a dark count, are drawn as geometric gaps from exponentials (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. X), so a draw costs
time in the number of events, not of trials.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Per-event draws hold float64 and int64 temporaries for at most WINDOW
# events at a time. numpy draws exponential, uniform, Poisson and
# array-n binomial values one element at a time with no state carried
# between them, so every value is that of one draw over all the events;
# only the exponentials a gap process draws past its last trial depend
# on the window, and each gap process has a substream of its own.
WINDOW = 1 << 14

# bits(n) computes its counter words one at a time in Python for n <=
# SHORT_BITS, and on a uint64 array above it; the words are the same,
# so the bound moves no draw. Medians of a first draw from a fresh
# source on a 2-core VM (numpy 2.4), loop against array: 5.3 against
# 11.1 us at n = 256, 7.9 against 11.6 at 512, 9.9 against 11.2 at 768
# and 12.0 against 11.0 at 1024. 512 is the largest power of two the
# loop wins at with a margin.
SHORT_BITS = 512


def splitmix64(x: int) -> int:
    """One output step of the splitmix64 generator (Steele/Lea/Vigna)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _counter_words(x: np.ndarray, at: int) -> None:
    """x[k] <- splitmix64(at + x[k] * GOLDEN), in place on a uint64
    array, whose arithmetic wraps mod 2^64 as the scalar one does: the
    counter words numbered x from the word at ``at``."""
    x *= np.uint64(_GOLDEN)
    x += np.uint64((at + _GOLDEN) & _MASK64)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9),
                              (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(multiplier)
    x ^= x >> np.uint64(31)


def mix64(seed: int, index: int) -> int:
    """Derive a child seed from (seed, index).

    Definition (frozen; sweep outputs depend on it):
        mix64(s, i) = splitmix64(splitmix64(s) XOR splitmix64(i XOR GOLDEN))
    with GOLDEN = 0x9E3779B97F4A7C15 and all arithmetic mod 2^64.
    """
    return splitmix64(splitmix64(seed & _MASK64) ^ splitmix64((index ^ _GOLDEN) & _MASK64))


def in_sorted(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which ``queries`` occur in the ascending array ``values``, as a
    bool mask; no array larger than ``queries`` is made."""
    at = np.searchsorted(values, queries)
    found = at < len(values)
    found[found] = values[at[found]] == queries[found]
    return found


def fnv1a64(label: str) -> int:
    """FNV-1a hash of a text label, used to name substreams."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rule(NamedTuple):
    """The valid values of one parameter: the instances of ``kind`` that
    pass ``test``, which ``wording`` describes. A bool is never valid: a
    flag is not a count, a length or a probability, though Python lets
    it compare as one. numpy numbers are ``numbers`` instances."""

    kind: type
    test: Callable
    wording: str

    def check(self, name: str, value):
        """``value`` if it is valid, else ValueError naming ``name``."""
        if isinstance(value, bool) or not isinstance(value, self.kind) \
                or not self.test(value):
            raise ValueError(f"{name} must be {self.wording}, got {value!r}")
        return value


INTEGER = Rule(numbers.Integral, lambda v: True, "an integer")
COUNT = Rule(numbers.Integral, lambda v: v >= 0, "an integer >= 0")
POSITIVE = Rule(numbers.Integral, lambda v: v >= 1, "an integer >= 1")
FINITE = Rule(numbers.Real, lambda v: 0 <= v < math.inf,
              "a finite number >= 0")
UNIT = Rule(numbers.Real, lambda v: 0 <= v <= 1, "a number in [0, 1]")


def bit_array(name: str, bits) -> np.ndarray:
    """``bits`` as uint8 (not copied if they are), or ValueError naming
    ``name`` unless they are a flat 0/1 array of integers or booleans."""
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size and (
            arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > 1):
        raise ValueError(f"{name} must be a flat 0/1 array of ints or bools")
    return arr.astype(np.uint8, copy=False)


class Checked:
    """Base of a dataclass whose ``RULES`` maps field names to their
    :class:`Rule`; every one is checked when an instance is built."""

    RULES: ClassVar[dict] = {}

    def __post_init__(self):
        for name, rule in self.RULES.items():
            rule.check(name, getattr(self, name))


@lru_cache(maxsize=256)
def _label_mix(label: str) -> int:
    """The label's half of ``mix64(seed, fnv1a64(label))``; substreams
    are named by a handful of fixed labels, so it is computed once each."""
    return splitmix64((fnv1a64(label) ^ _GOLDEN) & _MASK64)


# The reserved label of the counter words: a source's word base is
# mix64(seed, fnv1a64(_WORDS_LABEL)), so split() refuses the label (as a
# string or as its hash), and no child's seed is its parent's base.
_WORDS_LABEL = "rng.counter_words"
_WORDS_MIX = _label_mix(_WORDS_LABEL)


class RandomSource:
    """A seedable randomness stream with two cursors.

    ``bits(n)`` takes the next ceil(n / 64) words of the source's
    SplitMix64 counter: word j is ``splitmix64(base + j * GOLDEN)`` mod
    2^64, ``base = mix64(seed, fnv1a64(_WORDS_LABEL))``, and the draw is
    the words' bits, most significant first, cut to n. Every other draw
    comes from numpy's PCG64 seeded with ``seed``. PCG64 is built on its
    first draw, so a source that is only split or only draws bits never
    builds one; the stream is the same either way.

    A single source must be consumed sequentially; use :meth:`split` to
    obtain independent substreams for concurrent or logically separate
    consumers. Splitting is pure seed arithmetic, so the child stream is
    reproducible regardless of how much the parent has been consumed.
    """

    def __init__(self, seed: int):
        if type(seed) is not int:
            seed = int(INTEGER.check("seed", seed))
        self.seed = seed & _MASK64
        self._generator: np.random.Generator | None = None
        self._next_word: int | None = None  # base + j * GOLDEN, j words read

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(np.random.PCG64(self.seed))
        return self._generator

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed:#018x})"

    def split(self, label: str | int) -> "RandomSource":
        """Return an independent substream named by ``label``: the source
        seeded with ``mix64(seed, fnv1a64(label))``, or with
        ``mix64(seed, label)`` for an integer label."""
        index_mix = _label_mix(label) if isinstance(label, str) \
            else splitmix64((int(INTEGER.check("label", label)) ^ _GOLDEN)
                            & _MASK64)
        if index_mix == _WORDS_MIX:
            raise ValueError(f"split label {label!r} is reserved for the "
                             "counter words")
        return RandomSource(splitmix64(splitmix64(self.seed) ^ index_mix))

    # -- draws ------------------------------------------------------------

    def bits(self, n: int) -> np.ndarray:
        """n uniform bits as a uint8 array: the first n bits of the next
        ceil(n / 64) counter words, each most significant bit first.

        Up to SHORT_BITS bits the words are computed one at a time in
        Python, above it on a uint64 array; the words are the same.
        """
        if type(n) is not int or n < 0:
            n = int(COUNT.check("n", n))
        at = self._next_word
        if at is None:
            at = self._word_base()
        n_words = (n + 63) >> 6
        if n <= SHORT_BITS:
            words = 0
            for _ in range(n_words):
                words = words << 64 | splitmix64(at)
                at = (at + _GOLDEN) & _MASK64
            self._next_word = at
            return np.unpackbits(np.frombuffer(
                words.to_bytes(8 * n_words, "big"), np.uint8), count=n)
        self._next_word = (at + n_words * _GOLDEN) & _MASK64
        x = np.arange(n_words, dtype=np.uint64)
        _counter_words(x, at)
        return np.unpackbits(x.astype(">u8", copy=False).view(np.uint8),
                             count=n)

    def _word_base(self) -> int:
        return splitmix64(splitmix64(self.seed) ^ _WORDS_MIX)

    def bits_at(self, indices: np.ndarray) -> np.ndarray:
        """Bit i of the counter words, for each i in ``indices``, as
        uint8: the bits a fresh source's draws hand out, in order, read
        at any position and in any order. The cursor does not move.

        Word j is ``splitmix64(base + j * GOLDEN)``, computed for WINDOW
        indices at a time.
        """
        indices = np.asarray(indices)
        out = np.empty(len(indices), np.uint8)
        base = self._word_base()
        for start in range(0, len(indices), WINDOW):
            part = indices[start:start + WINDOW]
            x = (part >> 6).astype(np.uint64)
            _counter_words(x, base)
            x >>= (~part & 63).astype(np.uint64)  # bit i sits 63 - i % 64 up
            np.bitwise_and(x, 1, out=out[start:start + WINDOW],
                           casting="unsafe")
        return out

    def byte_string(self, n: int) -> bytes:
        return self.generator.bytes(n)

    def uint64(self) -> int:
        return int(self.generator.integers(0, 1 << 64, dtype=np.uint64))

    def random(self, size=None):
        return self.generator.random(size)

    def bernoulli_indices(self, n: int, p: float) -> np.ndarray:
        """The ascending int64 indices in range(n) of independent
        Bernoulli(p) trials that came up. p <= 0 and NaN pick none,
        p >= 1 all.

        Drawn as the blocks of :meth:`bernoulli_blocks`, so the draw's
        time and memory go with the number picked, not with n.
        """
        return np.concatenate([np.zeros(0, np.int64),
                               *self.bernoulli_blocks(n, p)])

    def bernoulli_blocks(self, n: int, p: float):
        """:meth:`bernoulli_indices` over range(n), as ascending int64
        blocks of at most WINDOW indices.

        Gap j is ``1 + floor(E_j * s)``, E_j from ``standard_exponential``
        and s = -1 / log1p(-p) one float, so P(gap > g) = (1 - p)^g
        exactly in the reals. A block draws the expected number of the
        picks left plus a margin; the exponentials past the last trial
        are drawn and unused, so draw nothing else from this source
        after it.
        """
        if not p > 0 or n <= 0:
            return
        if p >= 1:
            for start in range(0, n, WINDOW):
                yield np.arange(start, min(start + WINDOW, n))
            return
        scale = -1.0 / math.log1p(-p)  # inf for p below about 5.6e-309
        generator, last = self.generator, -1
        while last < n - 1:
            left = n - 1 - last  # trials after the last pick
            expected = left * p
            gaps = generator.standard_exponential(
                min(WINDOW, int(expected + 4 * math.sqrt(expected)) + 16))
            # a gap past the last trial ends the draw, and a gap of at
            # most n casts and sums safely; one that overflows to inf, or
            # is 0 * inf = NaN, ends it too
            with np.errstate(over="ignore", invalid="ignore"):
                gaps *= scale
            np.fmin(gaps, left, out=gaps)
            at = gaps.astype(np.int64)
            del gaps
            at += 1
            np.cumsum(at, out=at)
            at += last
            stop = int(np.searchsorted(at, n))
            if stop:
                yield at[:stop]
            if stop < len(at):
                return
            last = int(at[-1])

    def poisson(self, mu: float, size=None):
        return self.generator.poisson(mu, size)

    def binomial(self, n, p, size=None):
        return self.generator.binomial(n, p, size)

    def integers(self, low, high, size=None, dtype=np.int64):
        return self.generator.integers(low, high, size=size, dtype=dtype)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def sample_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), sorted ascending."""
        idx = self.generator.choice(n, size=k, replace=False)
        idx.sort()
        return idx
