"""Reference kernels that only the tests use.

Dense photonics: the fiber and detector kernels as they were before
they drew physics only at photon-carrying pulses. Every draw runs over
every pulse, so they fix the values and the stream state the sparse
kernels in :mod:`qkdsim.photonics` must reproduce.

GF(2^k) by shift and reduce: the slow, obvious field products that the
byte-table multiplier in :mod:`qkdsim.gf2` is checked against, and a
GF(2^8) field with x^8 + x^4 + x^3 + x + 1 for the exhaustive collision
tests, where 2^64 keys are out of reach but 2^8 are not.
"""

import numpy as np

from qkdsim.gf2 import MASK64, REDUCTION_POLY
from qkdsim.photonics import survival_probability

MASK8 = (1 << 8) - 1
REDUCTION_POLY_8 = (1 << 8) | 0x1B  # x^8 + x^4 + x^3 + x + 1


# -- dense photonics ----------------------------------------------------------


def dense_transmit_counts(photon_counts, channel, rand):
    """One binomial draw over every pulse."""
    return rand.binomial(photon_counts, survival_probability(channel))


def dense_measure_batch(photon_counts, bits, bases, bob_bases, detectors,
                        flip_prob, rand):
    """Every binomial and uniform drawn over every pulse."""
    if not 0.0 <= flip_prob <= 0.5:
        raise ValueError("flip_prob must be in [0, 0.5]")
    n = len(photon_counts)
    detected = rand.binomial(photon_counts, detectors.efficiency)

    flipped = rand.binomial(detected, flip_prob)
    random_exit = rand.binomial(detected, 0.5)

    matched = bases == bob_bases
    in_one_matched = np.where(bits == 1, detected - flipped, flipped)
    in_one = np.where(matched, in_one_matched, random_exit)
    in_zero = detected - in_one

    dark0 = rand.random(n) < detectors.dark_count_prob
    dark1 = rand.random(n) < detectors.dark_count_prob
    fire0 = (in_zero > 0) | dark0
    fire1 = (in_one > 0) | dark1

    kinds = (fire0.astype(np.uint8) + fire1.astype(np.uint8))
    click_bits = (fire1 & ~fire0).astype(np.uint8)
    return kinds, click_bits


# -- GF(2^k) by shift and reduce ------------------------------------------------


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
