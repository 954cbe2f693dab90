"""Physical-layer models of a faint-pulse polarization link.

The building blocks are a Poissonian faint-laser source, lossy fiber,
and a pair of gated threshold detectors. Polarization is abstracted to
a (bit, basis) pair: a matched-basis measurement is deterministic up to
an excess flip probability lumped in from channel drift, a mismatched
one sends each photon to a uniformly random detector. All randomness is
drawn from an injected :class:`~qkdsim.rng.RandomSource`, so every
operation is a pure function of its inputs and the stream state.

A faint-pulse link sends mostly empty pulses, so the kernels are event
driven: the source draws only the pulses that carry photons, as a
geometric-gap process with zero-truncated Poisson photon numbers, and
holds them as :class:`Pulses`; loss, fiber and detector efficiency in
one, thins them and drops the emptied ones; each detector's dark counts
are a gap process of their own. Bits and bases are :class:`PulseBits`,
read only at the pulses that need them. Per-event temporaries are held
for WINDOW events at a time, and every draw continues across windows,
so no value depends on the window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .rng import (COUNT, FINITE, UNIT, WINDOW, Checked, RandomSource, Rule,
                  in_sorted)

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


@dataclass(eq=False)
class Pulses:
    """What ``n`` consecutive pulses carry, held only where it is not
    nothing: the ascending ``indices`` of the pulses with photons (uint32,
    as pulse indices stay below 2^32; int64 beyond) and their photon
    ``counts`` (uint8, or int64 above 255); every other pulse is empty."""

    n: int
    indices: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class PulseBits:
    """One bit per pulse (a bit value or a basis), read only where it is
    needed: bit i of ``rand``'s counter words for pulse i
    (:meth:`~qkdsim.rng.RandomSource.bits_at`), except at the ascending
    int64 ``indices``, which hold ``values``."""

    rand: RandomSource
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))

    def at(self, pulses: np.ndarray) -> np.ndarray:
        """The bits at the pulse indices ``pulses``, as uint8."""
        out = self.rand.bits_at(pulses)
        if len(self.indices):
            hit = in_sorted(self.indices, pulses)
            out[hit] = self.values[np.searchsorted(self.indices,
                                                   pulses[hit])]
        return out


# -- source -----------------------------------------------------------------

# The zero-truncated Poisson is drawn by inverse CDF over a table up to
# this mean; above it, as Poisson draws with each zero drawn again,
# which happens with probability e^-mu < 2^-23 per photon-carrying pulse.
ZTP_TABLE_MU = 16.0


def _ztp_cdf(mu: float) -> np.ndarray:
    """P(K <= k) for k = 1, 2, ... of K ~ Poisson(mu) given K >= 1, up to
    a k past 2 mu whose term is below 2^-60; the sums are capped at 1
    and the last entry is 1, which puts the tail beyond it (under 2^-59)
    there."""
    term, k, cdf = mu / math.expm1(mu), 1, []  # P(K = 1 | K >= 1)
    while not (k > 2 * mu and term < 2.0**-60):
        cdf.append(term)
        term *= mu / (k + 1)
        k += 1
    cdf = np.minimum(np.cumsum(cdf + [0.0]), 1.0)
    cdf[-1] = 1.0
    return cdf


def _photon_numbers(mu: float, cdf: np.ndarray | None, k: int,
                    photons: RandomSource, zeros: RandomSource) -> np.ndarray:
    """k draws of Poisson(mu) given >= 1: uint8, or int64 above 255; by
    inverse CDF over ``cdf``, ``_ztp_cdf(mu)``, if given."""
    if cdf is not None:
        # random() is below 1, the last entry, so counts stay in the
        # table; most pulses hold one photon and skip the search
        uniforms = photons.random(k)
        counts = np.ones(k, np.uint8)
        more = np.flatnonzero(uniforms >= cdf[0])
        counts[more] = np.searchsorted(cdf, uniforms[more], side="right") + 1
        return counts
    counts = photons.poisson(mu, k)
    for j in np.flatnonzero(counts == 0):
        while counts[j] == 0:
            counts[j] = zeros.poisson(mu)
    return counts.astype(np.uint8) if counts.max() <= 255 else counts


def sample_photon_counts(source, n: int, rand: RandomSource) -> Pulses:
    """The photons of n consecutive pulses, as :class:`Pulses`.

    A Poisson(mu) source draws only its non-empty pulses: their indices
    are a Bernoulli(1 - e^-mu) gap process, and their photon numbers
    the zero-truncated Poisson(mu), WINDOW pulses with photons at a time."""
    dtype = np.uint32 if n <= 1 << 32 else np.int64
    if isinstance(source, ConstantSource):
        count = source.photon_count
        lit = n if count else 0
        return Pulses(n, np.arange(lit, dtype=dtype), np.full(
            lit, count, np.uint8 if count <= 255 else np.int64))
    mu, p = source.mu, -math.expm1(-source.mu)
    photons, zeros = rand.split("photons"), rand.split("zeros")
    cdf = _ztp_cdf(mu) if 0 < mu <= ZTP_TABLE_MU else None  # 0: no events
    # room for the binomial number of events up to ten sigma; beyond it
    # (probability under 1e-23) the arrays grow
    room = int(n * p + 10 * math.sqrt(n * p * (1 - p))) + 1
    indices, counts = np.empty(room, dtype), np.empty(room, np.uint8)
    filled = 0
    for block in rand.split("events").bernoulli_blocks(n, p):
        end = filled + len(block)
        if end > len(indices):
            indices = np.concatenate((indices, np.empty(end, dtype)))
            counts = np.concatenate((counts, np.empty(end, counts.dtype)))
        part = _photon_numbers(mu, cdf, len(block), photons, zeros)
        if part.dtype.itemsize > counts.dtype.itemsize:
            counts = counts.astype(np.int64)
        indices[filled:end], counts[filled:end] = block, part
        filled = end
    return Pulses(n, indices[:filled], counts[:filled])


# -- loss ---------------------------------------------------------------------


def survival_probability(channel: FiberChannel) -> float:
    """Per-photon survival probability, 10^(-attenuation * length / 10)."""
    return float(10.0 ** (-channel.attenuation_db_per_km * channel.length_km / 10.0))


def transmit_counts(pulses: Pulses, p: float, rand: RandomSource) -> Pulses:
    """The pulses with a photon left after each of their photons is kept
    with probability p, the overall transmittance (fiber survival times
    detector efficiency), counts in their own dtype; at p >= 1 the
    pulses themselves, with no draw. A pulse's first photon is kept by
    a uniform below p, its others by a binomial draw over the pulses
    with more than one, each from a substream of its own, WINDOW pulses
    at a time. Bits and bases pass unchanged."""
    if p >= 1:
        return pulses
    first, others = rand.split("first"), rand.split("others")
    dtype = pulses.counts.dtype
    indices, counts = [pulses.indices[:0]], [pulses.counts[:0]]
    for start in range(0, len(pulses.counts), WINDOW):
        part = pulses.counts[start:start + WINDOW]
        kept = (first.random(len(part)) < p).astype(dtype)
        more = np.flatnonzero(part > 1)
        kept[more] += others.binomial(part[more] - 1, p).astype(dtype)
        at = np.flatnonzero(kept)
        indices.append(pulses.indices[start:start + WINDOW][at])
        counts.append(kept[at])
    return Pulses(pulses.n, np.concatenate(indices), np.concatenate(counts))


# -- detection ----------------------------------------------------------------


def measure_batch(pulses: Pulses, bits: PulseBits, bases: PulseBits,
                  bob_bases: PulseBits, dark_count_prob: float,
                  flip_prob: float, rand: RandomSource
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized gated measurement of many pulses, one gate each.

    Every photon of ``pulses`` is caught (the efficiency is part of the
    loss :func:`transmit_counts` draws) and lands in the detector for the
    encoded bit (flipped with ``flip_prob``) when Bob's basis matches the
    pulse basis, or in a uniformly random detector when it does not.
    Dark counts fire each detector independently: each detector's are a
    Bernoulli(``dark_count_prob``) gap process over every gate, drawn
    from a substream of its own. Bits and bases are read only at the
    pulses with a photon.

    Returns (kinds, click_bits, indices) for the gates that clicked, in
    index order: kinds holds their ClickKind values (never NO_CLICK),
    click_bits the measured bit where kinds == CLICK (0 elsewhere), and
    indices the gates' int64 pulse indices.
    """
    FLIP.check("flip_prob", flip_prob)
    n, p_dark = len(pulses), DARK.check("dark_count_prob", dark_count_prob)
    hit, to_zero, to_one = _photon_hits(pulses, bits, bases, bob_bases,
                                        flip_prob, rand)
    dark0 = rand.split("dark0").bernoulli_indices(n, p_dark)
    dark1 = rand.split("dark1").bernoulli_indices(n, p_dark)
    # the gates that clicked, each once: the hit pulses, and in order
    # among them the gates where only dark counts fired (np.unique would
    # import numpy.ma, about 30 ms, on its first call in a process)
    dark = np.concatenate((dark0, dark1)).astype(hit.dtype)
    dark.sort(kind="stable")  # merges the two sorted runs
    once = np.ones(len(dark), bool)
    np.not_equal(dark[1:], dark[:-1], out=once[1:])
    dark = dark[once & ~in_sorted(hit, dark)]
    at = np.searchsorted(hit, dark)
    indices = np.insert(hit, at, dark).astype(np.int64)
    # a detector fires on photons or on a dark count
    fire0, fire1 = np.insert(to_zero, at, False), np.insert(to_one, at, False)
    fire0[np.searchsorted(indices, dark0)] = True
    fire1[np.searchsorted(indices, dark1)] = True
    kinds = fire0.view(np.uint8) + fire1
    return kinds, (fire1 > fire0).view(np.uint8), indices


def _photon_hits(pulses, bits, bases, bob_bases, flip_prob, rand):
    """The indices of the pulses with a caught photon, in the dtype of
    ``pulses.indices``, and for each whether photons reach detector 0
    and whether they reach detector 1. Photon numbers are held in the
    counts' dtype.

    A pulse's first photon is flipped by a Bernoulli(flip_prob) gap
    process over the pulses and takes a random exit by one fair bit,
    each from a substream of its own; its other photons by binomial
    draws over the pulses with more than one. Both are drawn for every
    pulse, so the draws do not depend on the basis pattern."""
    hit, caught = pulses.indices, pulses.counts
    k = len(hit)
    flipped = np.zeros(k, caught.dtype)  # photons flipped
    flipped[rand.split("flips").bernoulli_indices(k, flip_prob)] = 1
    in_one = rand.split("exits").bits(k).astype(caught.dtype)  # bases differ
    more = np.flatnonzero(caught > 1)
    flipped[more] += rand.binomial(caught[more] - 1, flip_prob).astype(
        caught.dtype)
    in_one[more] += rand.binomial(caught[more] - 1, 0.5).astype(caught.dtype)
    matched = bases.at(hit) == bob_bases.at(hit)
    one = matched & (bits.at(hit) == 1)
    np.subtract(caught, flipped, out=flipped, where=one)
    np.copyto(in_one, flipped, where=matched)
    return hit, caught > in_one, in_one > 0
