"""Eavesdropper strategies acting on pulses in transit.

Eve sits between Alice's source and the fiber. She may do nothing,
intercept-and-resend a fraction of pulses in a random basis, or split
one photon off every multiphoton pulse and park it until the bases are
announced. With a Poisson source her acts are drawn only where they
can reach the key: at the pulses that keep a photon through the loss
(each lost a Poisson number more, which she saw too), and at the gates
where only dark counts fired. The ledger records what she has as
``(pulse index, bit, basis)`` rows; at the public basis announcement
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
    measurement, with Eve's result and basis guess. With a Poisson
    source only pulses that kept a photon through the loss, or whose
    gate clicked, have rows: no other pulse can be sifted.
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
                    rand: RandomSource, lost: float = 0.0
                    ) -> tuple[Pulses, PulseBits, PulseBits]:
    """Apply Eve's strategy to the pulses, appending to the ledger.

    A pulse keeps its count of photons through the loss and loses
    Poisson(``lost``) more (split("lost"); all zeros at ``lost`` = 0);
    the photon Eve takes or resends is a kept one iff a uniform
    (split("kept")) times their sum is below the count. The counts
    change in place, keeping their dtype; new Pulses hold the pulses
    left with a photon, and one left with none keeps its ledger row.

    ``bits`` and ``bases`` are Alice's, with no pulse overridden. Returns
    (pulses, bits, bases) as the channel carries them: Alice's bits and
    bases, with Eve's at each pulse she resent. Rows are by pulse index.
    """
    if isinstance(strategy, NoAttack):
        return pulses, bits, bases
    counts = pulses.counts
    emitted = counts + rand.split("lost").poisson(lost, len(counts))

    def kept(at):
        return rand.split("kept").random(len(at)) * emitted[at] < counts[at]
    # Both branches work only at the pulses Eve touches.
    if isinstance(strategy, InterceptResend):
        # Eve measures a pulse that emitted photons with probability fraction
        at = rand.split("taken").bernoulli_indices(len(counts),
                                                   strategy.fraction)
        at = at[emitted[at] > 0]
        counts[at] = kept(at)
        taken = pulses.indices[at].astype(np.int64)
        eve_bases = rand.split("eve_bases").bits_at(taken)
        mismatch_results = rand.split("eve_results").bits_at(taken)
        eve_bits = np.where(eve_bases == bases.at(taken), bits.at(taken),
                            mismatch_results)
        ledger.record_measured(taken, eve_bits, eve_bases)
        bits = replace(bits, indices=taken, values=eve_bits)
        bases = replace(bases, indices=taken, values=eve_bases)
    elif isinstance(strategy, PhotonNumberSplit):
        at = np.flatnonzero(emitted >= 2)
        counts[at] -= kept(at)
        split = pulses.indices[at]  # the ledger widens it to int64
        ledger.record_stored(split, bits.at(split), bases.at(split))
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    full = np.flatnonzero(counts)
    return Pulses(pulses.n, pulses.indices[full], counts[full]), bits, bases


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
    rows = np.concatenate((ledger.stored, ledger.measured))
    rows = rows[in_sorted(sifted_indices, rows[:, 0])]
    at = np.searchsorted(sifted_indices, rows[:, 0])
    rows = rows[announced_bases[at] == rows[:, 2]]
    return rows[np.argsort(rows[:, 0], kind="stable"), :2]


def eve_information(known_bits: np.ndarray, sifted) -> float:
    """Fraction of the sifted key Eve knows; 0.0 for an empty sifted key.
    ``known_bits`` holds ``(pulse index, bit)`` rows."""
    if len(sifted) == 0:
        return 0.0
    hits = in_sorted(sifted.source_indices, known_bits[:, 0])
    return int(hits.sum()) / len(sifted)
