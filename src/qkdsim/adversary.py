"""Eavesdropper strategies acting on pulses in transit.

Eve sits between Alice's source and the fiber. She may do nothing,
intercept-and-resend a fraction of pulses in a random basis, or split
one photon off every multiphoton pulse and park it until the bases are
announced. The ledger records what she has as ``(pulse index, bit,
basis)`` rows; at the public basis announcement
:func:`finalize_knowledge` keeps the rows whose pulse is sifted and
whose basis is the announced one, and those are her known key bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .photonics import Pulses, PulseBits
from .rng import UNIT, Checked, RandomSource, in_sorted


@dataclass(frozen=True)
class NoAttack:
    """Eve stays out of the channel."""


@dataclass(frozen=True)
class InterceptResend(Checked):
    """Measure a fraction of pulses in a uniformly random basis and resend
    a fresh single photon encoded with the result in that basis."""

    RULES = {"fraction": UNIT}

    fraction: float = 1.0


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


def _rows(width: int) -> np.ndarray:
    return np.zeros((0, width), dtype=np.int64)


@dataclass
class EveLedger:
    """Everything Eve holds, as int64 ``(pulse index, bit, basis)`` rows.

    ``stored``: one row per photon split off a multiphoton pulse, with
    Alice's bit and basis. ``measured``: one row per intercept-resend
    measurement, with Eve's result and basis guess.
    """

    stored: np.ndarray = field(default_factory=lambda: _rows(3))
    measured: np.ndarray = field(default_factory=lambda: _rows(3))

    def record_stored(self, indices, bits, bases) -> None:
        self.stored = _append(self.stored, indices, bits, bases)

    def record_measured(self, indices, bits, bases) -> None:
        self.measured = _append(self.measured, indices, bits, bases)


def _append(rows: np.ndarray, *columns) -> np.ndarray:
    """``rows`` above the new rows ``zip(*columns)``, filled into one
    int64 block."""
    out = np.empty((len(rows) + len(columns[0]), rows.shape[1]), np.int64)
    out[:len(rows)] = rows
    for j, column in enumerate(columns):
        out[len(rows):, j] = column
    return out


def intercept_batch(pulses: Pulses, bits: PulseBits, bases: PulseBits,
                    strategy: EveStrategy, ledger: EveLedger,
                    rand: RandomSource
                    ) -> tuple[Pulses, PulseBits, PulseBits]:
    """Apply Eve's strategy to the pulses with photons, appending to the
    ledger.

    ``bits`` and ``bases`` are Alice's, with no pulse overridden. Returns
    (pulses, bits, bases) as the channel carries them. Eve changes the
    counts in place, keeping their dtype. The bits and bases are Alice's
    own, unless Eve resent pulses: then they carry Eve's bit and basis at
    each pulse she resent. Pulses are recorded by their index.
    """
    if isinstance(strategy, NoAttack):
        return pulses, bits, bases

    # Both branches work only at the pulses Eve touches.
    if isinstance(strategy, InterceptResend):
        # Eve measures each pulse with photons with probability fraction
        taken = rand.split("taken").bernoulli_indices(
            len(pulses), strategy.fraction, pulses.indices)
        pulses.counts[np.searchsorted(
            pulses.indices, taken.astype(pulses.indices.dtype))] = 1
        eve_bases = rand.split("eve_bases").bits_at(taken)
        mismatch_results = rand.split("eve_results").bits_at(taken)
        eve_bits = np.where(eve_bases == bases.at(taken), bits.at(taken),
                            mismatch_results)
        ledger.record_measured(taken, eve_bits, eve_bases)
        # a resent pulse carries Eve's encoding
        return (pulses, replace(bits, indices=taken, values=eve_bits),
                replace(bases, indices=taken, values=eve_bases))

    if isinstance(strategy, PhotonNumberSplit):
        at = np.flatnonzero(pulses.counts >= 2)
        pulses.counts[at] -= 1
        split = pulses.indices[at]  # the ledger widens it to int64
        del at
        ledger.record_stored(split, bits.at(split), bases.at(split))
        return pulses, bits, bases

    raise TypeError(f"unknown strategy {strategy!r}")


def finalize_knowledge(ledger: EveLedger, announced_bases: np.ndarray,
                       sifted_indices: np.ndarray) -> np.ndarray:
    """Turn the ledger into known key bits once bases are announced: the
    ``(pulse index, bit)`` rows, in index order, of every ledger row whose
    pulse is sifted and whose basis is the announced one.
    ``sifted_indices`` is ascending and ``announced_bases[j]`` is the
    basis announced for pulse ``sifted_indices[j]``. The ledger is left
    as it was, so repeated calls give the same rows."""
    # The basis test passes every stored row: it holds Alice's own basis,
    # the one she announces, so Eve reads the parked photon in it exactly.
    rows = _join(ledger.stored, ledger.measured)
    rows = rows[in_sorted(sifted_indices, rows[:, 0])]
    at = np.searchsorted(sifted_indices, rows[:, 0])
    rows = rows[announced_bases[at] == rows[:, 2]]
    return rows[np.argsort(rows[:, 0], kind="stable"), :2]


def _join(rows: np.ndarray, more: np.ndarray) -> np.ndarray:
    """``rows`` above ``more``; an empty side costs no copy."""
    if not len(rows):
        return more
    return np.concatenate((rows, more)) if len(more) else rows


def eve_information(known_bits: np.ndarray, sifted) -> float:
    """Fraction of the sifted key Eve knows; 0.0 for an empty sifted key.
    ``known_bits`` holds ``(pulse index, bit)`` rows."""
    if len(sifted) == 0:
        return 0.0
    hits = in_sorted(sifted.source_indices, known_bits[:, 0])
    return int(hits.sum()) / len(sifted)
