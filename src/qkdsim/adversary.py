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

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .rng import UNIT, Checked, RandomSource


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
    measurement, with Eve's result and basis guess. ``known_bits``:
    ``(pulse index, bit)`` rows set by :func:`finalize_knowledge`.
    """

    stored: np.ndarray = field(default_factory=lambda: _rows(3))
    measured: np.ndarray = field(default_factory=lambda: _rows(3))
    known_bits: np.ndarray = field(default_factory=lambda: _rows(2))

    def record_stored(self, indices, bits, bases) -> None:
        self.stored = _join(self.stored, np.c_[indices, bits, bases])

    def record_measured(self, indices, bits, bases) -> None:
        self.measured = _join(self.measured, np.c_[indices, bits, bases])


def _join(rows: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``rows`` above ``new``, as int64; an empty side costs no copy."""
    if not len(rows):
        return new.astype(np.int64, copy=False)
    return np.concatenate((rows, new)) if len(new) else rows


def intercept_batch(photon_counts: np.ndarray, bits: np.ndarray, bases: np.ndarray,
                    strategy: EveStrategy, ledger: EveLedger,
                    rand: RandomSource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply Eve's strategy to a batch of pulses, appending to the ledger.

    Returns the (photon_counts, bits, bases) forwarded to the channel;
    the counts keep their dtype. Pulse i of the batch is recorded as i.
    """
    n = len(photon_counts)
    if isinstance(strategy, NoAttack):
        return photon_counts, bits, bases

    # Both branches change few pulses: they copy the inputs and work
    # only at the indices Eve touches.
    if isinstance(strategy, InterceptResend):
        take = rand.bernoulli(n, strategy.fraction)
        take &= photon_counts > 0  # an empty slot gives Eve nothing to measure
        taken = np.flatnonzero(take)
        # three full-length draws, then Eve's values where she measured
        eve_bases = rand.bits(n)[taken]
        mismatch_results = rand.bits(n)[taken]
        eve_bits = np.where(eve_bases == bases[taken], bits[taken],
                            mismatch_results).astype(np.uint8)
        out_counts = photon_counts.copy()
        out_counts[taken] = 1
        out_bits = bits.astype(np.uint8)
        out_bits[taken] = eve_bits
        out_bases = bases.astype(np.uint8)
        out_bases[taken] = eve_bases
        ledger.record_measured(taken, eve_bits, eve_bases)
        return out_counts, out_bits, out_bases

    if isinstance(strategy, PhotonNumberSplit):
        split = np.flatnonzero(photon_counts >= 2)
        out_counts = photon_counts.copy()
        out_counts[split] -= 1
        ledger.record_stored(split, bits[split], bases[split])
        return out_counts, bits, bases

    raise TypeError(f"unknown strategy {strategy!r}")


def finalize_knowledge(ledger: EveLedger, announced_bases: np.ndarray,
                       sifted_indices: np.ndarray) -> np.ndarray:
    """Turn the ledger into known key bits once bases are announced: the
    ``(pulse index, bit)`` rows, in index order, of every ledger row whose
    pulse is sifted and whose basis is the announced one. Also set as
    ``ledger.known_bits``; repeated calls give the same rows."""
    # The basis test passes every stored row: it holds Alice's own basis,
    # the one she announces, so Eve reads the parked photon in it exactly.
    sifted = np.zeros(len(announced_bases), dtype=bool)
    sifted[sifted_indices] = True
    rows = _join(ledger.stored, ledger.measured)
    index = rows[:, 0]
    rows = rows[sifted[index] & (rows[:, 2] == announced_bases[index])]
    ledger.known_bits = rows[np.argsort(rows[:, 0], kind="stable"), :2]
    return ledger.known_bits


def eve_information(known_bits: np.ndarray, sifted) -> float:
    """Fraction of the sifted key Eve knows; 0.0 for an empty sifted key.
    ``known_bits`` holds ``(pulse index, bit)`` rows."""
    if len(sifted) == 0:
        return 0.0
    hits = np.isin(known_bits[:, 0], sifted.source_indices, kind="table")
    return int(hits.sum()) / len(sifted)
