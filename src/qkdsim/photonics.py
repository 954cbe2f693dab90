"""Physical-layer models of a faint-pulse polarization link.

The building blocks are a Poissonian faint-laser source, lossy fiber,
and a pair of gated threshold detectors. Polarization is abstracted to
a (bit, basis) pair: a matched-basis measurement is deterministic up to
an excess flip probability lumped in from channel drift, a mismatched
one sends each photon to a uniformly random detector. All randomness is
drawn from an injected :class:`~qkdsim.rng.RandomSource`, so every
operation is a pure function of its inputs and the stream state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .rng import (COUNT, DRAW_CHUNK, FINITE, UNIT, Checked, RandomSource,
                  Rule, bits_at)

# numpy's largest Poisson mean: the int64 maximum less ten of its sqrt
MAX_MU = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)
MU = Rule(numbers.Real, lambda v: 0 <= v <= MAX_MU,
          f"a number in [0, {MAX_MU:.4g}]")
FLIP = Rule(numbers.Real, lambda v: 0 <= v <= 0.5, "a number in [0, 0.5]")
DARK = Rule(numbers.Real, lambda v: 0 <= v < 1, "a number in [0, 1)")


class Basis(IntEnum):
    """Measurement / preparation basis of a polarization qubit.

    RECTILINEAR encodes bit 0 as horizontal and bit 1 as vertical;
    DIAGONAL encodes bit 0 as -45 degrees and bit 1 as +45 degrees.
    """

    RECTILINEAR = 0
    DIAGONAL = 1


@dataclass(frozen=True)
class SourceModel(Checked):
    """Faint-pulse source: photon number per pulse is Poisson(mu)."""

    RULES = {"mu": MU}

    mu: float


@dataclass(frozen=True)
class ConstantSource(Checked):
    """Test source emitting a fixed photon number every pulse."""

    RULES = {"photon_count": COUNT}

    photon_count: int = 1


@dataclass(frozen=True)
class FiberChannel(Checked):
    """Lossy fiber of given length and attenuation.

    excess_flip_prob lumps misalignment / polarization drift into a
    single bit-flip probability applied at matched-basis measurement.
    """

    RULES = {"length_km": FINITE, "attenuation_db_per_km": FINITE,
             "excess_flip_prob": FLIP}

    length_km: float
    attenuation_db_per_km: float = 0.2
    excess_flip_prob: float = 0.0


@dataclass(frozen=True)
class DetectorPair(Checked):
    """Two gated threshold detectors, one per bit value.

    Each detector fires independently with dark_count_prob per gate even
    with no photon present.
    """

    RULES = {"efficiency": UNIT, "dark_count_prob": DARK}

    efficiency: float = 1.0
    dark_count_prob: float = 0.0


class ClickKind(IntEnum):
    """Result of one detector gate, as stored in the ``kinds`` arrays:
    the number of detectors that fired. Only a CLICK carries a bit."""

    NO_CLICK = 0
    CLICK = 1
    DOUBLE_CLICK = 2


# -- source -----------------------------------------------------------------


def sample_photon_counts(source, n: int, rand: RandomSource) -> np.ndarray:
    """Photon numbers for n consecutive pulses, one byte each: uint8,
    or int64 once some count exceeds 255, so every count is exact. A
    Poisson source draws DRAW_CHUNK counts at a time."""
    if isinstance(source, ConstantSource):
        count = source.photon_count
        return np.full(n, count, dtype=np.uint8 if count <= 255 else np.int64)
    counts = np.empty(n, dtype=np.uint8)
    for start in range(0, n, DRAW_CHUNK):
        part = rand.poisson(source.mu, min(DRAW_CHUNK, n - start))
        if part.max() > np.iinfo(counts.dtype).max:
            counts = counts.astype(np.int64)
        counts[start:start + len(part)] = part
    return counts


# -- channel ------------------------------------------------------------------


def survival_probability(channel: FiberChannel) -> float:
    """Per-photon survival probability, 10^(-attenuation * length / 10)."""
    return float(10.0 ** (-channel.attenuation_db_per_km * channel.length_km / 10.0))


def transmit_counts(photon_counts: np.ndarray, channel: FiberChannel,
                    rand: RandomSource) -> np.ndarray:
    """Binomial thinning of photon numbers by the channel survival
    probability. Bits and bases pass unchanged: drift is applied at
    measurement through the channel's excess_flip_prob.

    A binomial draw at n == 0 takes nothing from the stream, so only the
    pulses that carry photons are drawn, DRAW_CHUNK pulses at a time; the
    result and the stream state are those of one draw over every pulse.
    The result has the dtype of ``photon_counts``.
    """
    out = np.zeros_like(photon_counts)
    p = survival_probability(channel)
    for start in range(0, len(out), DRAW_CHUNK):
        part = photon_counts[start:start + DRAW_CHUNK]
        lit = np.flatnonzero(part > 0)
        out[start:start + DRAW_CHUNK][lit] = rand.binomial(part[lit], p)
    return out


# -- detection ----------------------------------------------------------------


def measure_batch(photon_counts: np.ndarray, bits: np.ndarray, bases: np.ndarray,
                  bob_bases: np.ndarray, detectors: DetectorPair, flip_prob: float,
                  rand: RandomSource
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized gated measurement of many pulses, one gate each.

    Each photon is detected with probability ``efficiency`` and lands in
    the detector for the encoded bit (flipped with ``flip_prob``) when
    Bob's basis matches the pulse basis, or in a uniformly random
    detector when it does not. Dark counts fire each detector
    independently. ``bits``, ``bases`` and ``bob_bases`` are packed,
    eight pulses a byte, as :func:`numpy.packbits` packs them.

    A binomial draw at n == 0 takes nothing from the stream, so only
    photon-carrying pulses are drawn: the efficiency binomial over the
    pulses with photons, then the flip and random-exit binomials over
    the pulses with a detected photon. Each detector's dark counts are
    the indices of its uniforms below ``dark_count_prob``
    (:meth:`~qkdsim.rng.RandomSource.bernoulli_indices`). Outputs and
    stream state are those of the same draws over every pulse.

    Returns (kinds, click_bits, indices) for the gates that clicked, in
    index order: kinds holds their ClickKind values (never NO_CLICK),
    click_bits the measured bit where kinds == CLICK (0 elsewhere), and
    indices the gates' int64 pulse indices.
    """
    FLIP.check("flip_prob", flip_prob)
    n, p_dark = len(photon_counts), detectors.dark_count_prob
    hit, to_zero, to_one = _photon_hits(photon_counts, bits, bases, bob_bases,
                                        detectors.efficiency, flip_prob, rand)
    dark0 = rand.bernoulli_indices(n, p_dark)
    dark1 = rand.bernoulli_indices(n, p_dark)
    # the gates that clicked, each once: the hit pulses and the dark
    # counts (numpy 2.4's np.union1d hashes them, at many times the cost)
    indices = np.concatenate((hit, dark0, dark1))
    indices.sort(kind="stable")  # merges the sorted runs in linear time
    first = np.ones(len(indices), bool)  # a gate's first entry
    np.not_equal(indices[1:], indices[:-1], out=first[1:])
    indices = indices[first]
    # a detector fires on photons or on a dark count
    fire0, fire1 = np.zeros((2, len(indices)), bool)
    at = np.searchsorted(indices, hit)
    fire0[at], fire1[at] = to_zero, to_one
    fire0[np.searchsorted(indices, dark0)] = True
    fire1[np.searchsorted(indices, dark1)] = True
    kinds = fire0.view(np.uint8) + fire1
    return kinds, (fire1 > fire0).view(np.uint8), indices


def _photon_hits(counts, bits, bases, bob_bases, efficiency, flip_prob, rand):
    """The pulses with a detected photon, in index order, and for each
    whether photons reach detector 0 and whether they reach detector 1.
    Photon numbers are held in the counts' dtype."""
    lit = np.flatnonzero(counts)
    detected = rand.binomial(counts[lit], efficiency)
    caught = detected > 0
    hit = lit[caught]
    del lit  # freed before the second int64 copy is made
    detected = detected[caught].astype(counts.dtype)

    # photons landing in detector 1, drawn for both branches to keep the
    # stream layout independent of the basis pattern
    flipped = rand.binomial(detected, flip_prob).astype(counts.dtype)
    in_one = rand.binomial(detected, 0.5).astype(counts.dtype)  # bases differ
    matched = bits_at(bases, hit) == bits_at(bob_bases, hit)
    one = matched & (bits_at(bits, hit) == 1)
    np.subtract(detected, flipped, out=flipped, where=one)
    np.copyto(in_one, flipped, where=matched)
    return hit, detected > in_one, in_one > 0
