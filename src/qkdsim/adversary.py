"""Eavesdropper strategies acting on pulses in transit.

Eve sits between Alice's source and the fiber. She may do nothing,
intercept-and-resend a fraction of pulses in a random basis, or split
one photon off every multiphoton pulse and park it until the bases are
announced. The ledger records exactly what she has, and
:func:`finalize_knowledge` converts it into known key bits once the
public basis announcement happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .photonics import Basis
from .rng import RandomSource


@dataclass(frozen=True)
class NoAttack:
    """Eve stays out of the channel."""


@dataclass(frozen=True)
class InterceptResend:
    """Measure a fraction of pulses in a uniformly random basis and resend
    a fresh single photon encoded with the result in that basis."""

    fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("intercept fraction must be in [0, 1]")


@dataclass(frozen=True)
class PhotonNumberSplit:
    """Steal one photon from every multiphoton pulse and store it until
    the basis announcement; single-photon and empty pulses pass untouched."""


EveStrategy = Union[NoAttack, InterceptResend, PhotonNumberSplit]


def strategy_label(strategy: EveStrategy) -> str:
    """Stable one-token description, used in CSV output."""
    if isinstance(strategy, NoAttack):
        return "none"
    if isinstance(strategy, InterceptResend):
        return f"intercept:{strategy.fraction:g}"
    if isinstance(strategy, PhotonNumberSplit):
        return "pns"
    raise TypeError(f"unknown strategy {strategy!r}")


@dataclass
class EveLedger:
    """Everything Eve holds, keyed by pulse index.

    ``stored`` maps index -> (bit, basis) of a parked photon from a split
    multiphoton pulse; ``measured`` maps index -> (bit, basis_guess) of an
    intercept-resend measurement. ``known_bits`` is populated at basis
    announcement by :func:`finalize_knowledge` and is empty before that.
    """

    stored: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    known_bits: dict = field(default_factory=dict)

    def record_stored(self, indices, bits, bases) -> None:
        for i, b, a in zip(indices, bits, bases):
            self.stored[int(i)] = (int(b), Basis(int(a)))

    def record_measured(self, indices, bits, bases) -> None:
        for i, b, a in zip(indices, bits, bases):
            self.measured[int(i)] = (int(b), Basis(int(a)))


def intercept_batch(photon_counts: np.ndarray, bits: np.ndarray, bases: np.ndarray,
                    strategy: EveStrategy, ledger: EveLedger, rand: RandomSource,
                    start_index: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply Eve's strategy to a batch of pulses, appending to the ledger.

    Returns the (photon_counts, bits, bases) forwarded to the channel.
    Pulse i of the batch has global index start_index + i.
    """
    n = len(photon_counts)
    indices = np.arange(start_index, start_index + n)

    if isinstance(strategy, NoAttack):
        return photon_counts, bits, bases

    if isinstance(strategy, InterceptResend):
        take = rand.random(n) < strategy.fraction
        take &= photon_counts > 0  # an empty slot gives Eve nothing to measure
        eve_bases = rand.bits(n)
        mismatch_results = rand.bits(n)
        eve_bits = np.where(eve_bases == bases, bits, mismatch_results).astype(np.uint8)
        out_counts = np.where(take, 1, photon_counts)
        out_bits = np.where(take, eve_bits, bits).astype(np.uint8)
        out_bases = np.where(take, eve_bases, bases).astype(np.uint8)
        ledger.record_measured(indices[take], eve_bits[take], eve_bases[take])
        return out_counts, out_bits, out_bases

    if isinstance(strategy, PhotonNumberSplit):
        split = photon_counts >= 2
        out_counts = photon_counts - split.astype(photon_counts.dtype)
        ledger.record_stored(indices[split], bits[split], bases[split])
        return out_counts, bits, bases

    raise TypeError(f"unknown strategy {strategy!r}")


def finalize_knowledge(ledger: EveLedger, announced_bases: np.ndarray,
                       sifted_indices: np.ndarray) -> dict:
    """Turn the ledger into known key bits once bases are announced.

    Stored photons are measured in the announced basis and read out with
    certainty; intercept records become known exactly when Eve's basis
    guess equals the announced basis. The result is restricted to the
    sifted positions and is recomputed from scratch, so repeated calls
    are idempotent.
    """
    sifted = set(int(i) for i in sifted_indices)
    known = {}
    for idx, (bit, _basis) in ledger.stored.items():
        if idx in sifted:
            known[idx] = bit
    for idx, (bit, guess) in ledger.measured.items():
        if idx in sifted and int(guess) == int(announced_bases[idx]):
            known[idx] = bit
    ledger.known_bits = dict(known)
    return known


def eve_information(known_bits: dict, sifted) -> float:
    """Fraction of the sifted key Eve knows; 0.0 for an empty sifted key."""
    if len(sifted) == 0:
        return 0.0
    positions = set(int(i) for i in sifted.source_indices)
    hits = sum(1 for idx in known_bits if idx in positions)
    return hits / len(sifted)
