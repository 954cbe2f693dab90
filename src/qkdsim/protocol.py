"""BB84 session engine.

A session runs the quantum phase (Alice's random bits and bases through
source, eavesdropper, fiber, and Bob's gated detectors), sifts on the
public basis announcement, estimates the error rate on a disclosed
sample, reconciles, and privacy-amplifies, with every classical message
authenticated and its key consumption tallied.

Both parties are simulated in one process, so the classical channel is
an ordered, reliable, public message log: each announcement is built
with its real content, tagged, and delivered through the authenticated
channel, and the session state both sides would compute from it is
computed once. Eve may read every message; she cannot usefully tamper
because forging a tag succeeds with probability about 2^-64.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .adversary import (EveLedger, EveStrategy, NoAttack, eve_information,
                        finalize_knowledge, intercept_batch)
from .auth import AuthenticatedChannel, BitPool
from .photonics import (ClickKind, DetectorPair, FiberChannel, PulseBits,
                        Pulses, SourceModel, measure_batch,
                        sample_photon_counts, survival_probability,
                        transmit_counts)
from .postprocess import (MIN_RECONCILE_BITS, AttackModel, HashSeed,
                          ReconciliationFailure, SecretKey, error_correct,
                          final_key_length, privacy_amplify)
from .rng import COUNT, INTEGER, Checked, RandomSource, Rule, in_sorted

FRACTION = Rule(numbers.Real, lambda v: 0 < v < 1, "a number in (0, 1)")
# Messages 1 and 2 send pulse positions as ">u4", which wraps silently
# above 2^32 - 1. No key or pool needs more bits than a session has
# pulses, so bit counts share the bound.
MAX_PULSES = 2**32
PULSES = Rule(numbers.Integral, lambda v: 1 <= v <= MAX_PULSES,
              "an integer >= 1 and <= 2^32")
BITS = Rule(numbers.Integral, lambda v: 0 <= v <= MAX_PULSES,
            "an integer >= 0 and <= 2^32")


class EmptySample(Exception):
    """The sifted key is too short to spare any sample bits."""


class SessionOutcome(Enum):
    SUCCESS = "Success"
    ABORT_QBER = "AbortQber"
    ABORT_RECONCILIATION = "AbortReconciliation"


@dataclass(frozen=True)
class SessionConfig(Checked):
    """Everything a session needs; the seed makes the whole run a pure
    function of this object."""

    RULES = {"n_pulses": PULSES, "seed": INTEGER,
             "sample_fraction": FRACTION, "security_margin_bits": COUNT,
             "auth_pool_bits": BITS}

    n_pulses: int
    source: SourceModel
    channel: FiberChannel
    detectors: DetectorPair
    seed: int
    eve: EveStrategy = NoAttack()
    sample_fraction: float = 0.1
    attack_model: AttackModel = AttackModel.COHERENT
    security_margin_bits: int = 30
    auth_pool_bits: int = 512
    double_click_random: bool = True  # False discards double clicks instead


@dataclass(eq=False)
class PulseRecords:
    """What a quantum phase of ``n`` pulses recorded, one entry per gate
    that clicked, in emission order: its pulse index, Alice's bit and
    basis, Bob's basis, the gate's ClickKind (never NO_CLICK) and the
    measured bit (0 unless the kind is CLICK). A pulse with no entry
    did not click. Its length is ``n``."""

    n: int
    indices: np.ndarray
    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    kinds: np.ndarray
    click_bits: np.ndarray

    def __len__(self) -> int:
        return self.n

    def alice_bases_at(self, indices: np.ndarray) -> np.ndarray:
        """Alice's bases at the clicked pulses ``indices``, ascending."""
        return self.alice_bases[np.searchsorted(self.indices, indices)]


@dataclass(frozen=True)
class SiftedKeys:
    """Position-aligned Alice/Bob bits where bases matched and Bob clicked."""

    alice_bits: np.ndarray
    bob_bits: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self):
        if not (len(self.alice_bits) == len(self.bob_bits)
                == len(self.source_indices)):
            raise ValueError("sifted components must have equal length")
        if len(self.source_indices) > 1 \
                and not np.all(np.diff(self.source_indices) > 0):
            raise ValueError("source indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.alice_bits)


@dataclass(frozen=True)
class QberEstimate:
    """Disclosed-sample error estimate; the sample is removed from
    ``remaining`` and never used for key."""

    e_hat: float
    remaining: SiftedKeys
    sample_positions: np.ndarray = field(repr=False)
    alice_sample: np.ndarray = field(repr=False)
    bob_sample: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SessionReport:
    """End-to-end accounting for one session."""

    pulses_sent: int
    clicks: int
    raw_len: int
    sifted_len: int
    e_hat: float
    leak_ec_bits: int
    final_len: int
    eve_info_fraction: float
    auth_bits_consumed: int
    outcome: SessionOutcome
    secret_key: SecretKey | None = field(repr=False, default=None)

    @property
    def secret_growth(self) -> int:
        """Produced minus consumed secret bits; negative on aborts."""
        return self.final_len - self.auth_bits_consumed


def run_quantum_phase(config: SessionConfig, rand: RandomSource,
                      eve_ledger: EveLedger | None = None) -> PulseRecords:
    """Emit, attack, transmit, and measure n_pulses; record the clicks.

    Only the pulses with photons are drawn. Fiber loss and detector
    efficiency are one loss, eta, drawn once. A Poisson source is drawn
    as Poisson(mu * eta), the pulses that keep a photon; each lost
    Poisson(mu (1 - eta)) more, which Eve saw, and so did the pulses of
    the gates where only dark counts fired. Any other source is thinned
    after Eve. Alice's bits and bases and Bob's bases are functions of
    the pulse index, each from its own substream, read where Eve, the
    detectors or the records need them.

    Double clicks are resolved to a uniform random bit unless the config
    says to keep them (they are then dropped at sifting): resolving is
    the conservative choice because discarding lets a detector-control
    attack bias the key.
    """
    n = config.n_pulses
    alice_bits, alice_bases, bob_bases = (
        PulseBits(rand.split(label))
        for label in ("alice_bits", "alice_bases", "bob_bases"))
    source, eve = config.source, rand.split("eve")
    eta = survival_probability(config.channel) * config.detectors.efficiency
    lost = 0.0  # mean photons each pulse Eve sees lost, besides those kept
    if isinstance(source, SourceModel):
        lost = source.mu * (1 - eta) if config.eve != NoAttack() else 0.0
        source, eta = SourceModel(source.mu * eta), 1.0
    pulses = sample_photon_counts(source, n, rand.split("source"))
    events = pulses.indices if lost else None
    ledger = eve_ledger if eve_ledger is not None else EveLedger()
    pulses, bits, bases = intercept_batch(
        pulses, alice_bits, alice_bases, config.eve, ledger, eve, lost=lost)
    pulses = transmit_counts(pulses, eta, rand.split("channel"))
    kinds, click_bits, indices = measure_batch(
        pulses, bits, bases, bob_bases, config.detectors.dark_count_prob,
        config.channel.excess_flip_prob, rand.split("detector"))
    del pulses, bits, bases
    if lost:  # pulses that kept no photon but whose gate clicked
        dark = indices[~in_sorted(events, indices)]
        intercept_batch(Pulses(n, dark, np.zeros(len(dark), np.uint8)),
                        alice_bits, alice_bases, config.eve, ledger,
                        eve.split("dark_gates"), lost=lost)
    if config.double_click_random:
        doubles = np.flatnonzero(kinds == int(ClickKind.DOUBLE_CLICK))
        if len(doubles):
            click_bits[doubles] = rand.split("double_click").bits(len(doubles))
            kinds[doubles] = int(ClickKind.CLICK)
    return PulseRecords(n, indices, alice_bits.at(indices),
                        alice_bases.at(indices), bob_bases.at(indices),
                        kinds, click_bits)


def sift(records: PulseRecords) -> SiftedKeys:
    """Keep click positions with matching bases. Selection uses only the
    announced bases and click positions, never the measured bit values,
    so neither party learns anything new from the other's sift."""
    sel = np.flatnonzero((records.kinds == int(ClickKind.CLICK))
                         & (records.alice_bases == records.bob_bases))
    return SiftedKeys(records.alice_bits[sel], records.click_bits[sel],
                      records.indices[sel])


def estimate_qber(sifted: SiftedKeys, fraction: float,
                  rand: RandomSource) -> QberEstimate:
    """Disclose a uniform random ceil(fraction * len) subset, compare, and
    remove it from the key."""
    FRACTION.check("fraction", fraction)
    m = len(sifted)
    k = math.ceil(fraction * m)
    if k == 0:
        raise EmptySample("sifted key too short to sample")
    rel = rand.sample_indices(m, k)
    mask = np.zeros(m, dtype=bool)
    mask[rel] = True
    a, b = sifted.alice_bits[rel], sifted.bob_bits[rel]
    e_hat = float(np.mean(a != b))
    remaining = SiftedKeys(sifted.alice_bits[~mask], sifted.bob_bits[~mask],
                           sifted.source_indices[~mask])
    return QberEstimate(e_hat, remaining, rel, a, b)


def _pack_bits(bits) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def run_session(config: SessionConfig) -> SessionReport:
    """Execute the full pipeline and account for every bit.

    The classical conversation is five authenticated messages: Bob's
    click report, Alice's sift-and-sample announcement, Bob's sample
    bits, Alice's reconciliation bundle (parity transcript, hash, final
    length, amplification seed), and Bob's confirmation. A session that
    aborts at the error test stops after message three.
    """
    rand = RandomSource(config.seed)
    pool = BitPool(rand.split("auth_pool").bits(config.auth_pool_bits))
    channel = AuthenticatedChannel(pool)
    eve_ledger = EveLedger()

    records = run_quantum_phase(config, rand, eve_ledger)
    clicks = len(records.kinds)
    single = np.flatnonzero(records.kinds == int(ClickKind.CLICK))
    raw_len = len(single)
    sifted = sift(records)

    # Message 1, Bob -> Alice: where he saw clicks and with which basis.
    channel.deliver(channel.send(
        struct.pack(">I", raw_len)
        + records.indices[single].astype(">u4").tobytes()
        + records.bob_bases[single].tobytes()))

    known = finalize_knowledge(
        eve_ledger, records.alice_bases_at(sifted.source_indices),
        sifted.source_indices)
    eve_frac = eve_information(known, sifted)

    def report(outcome, e_hat, leak=0, final=0, secret=None):
        return SessionReport(config.n_pulses, clicks, raw_len, len(sifted),
                             e_hat, leak, final, eve_frac, pool.cursor,
                             outcome, secret)

    try:
        est = estimate_qber(sifted, config.sample_fraction,
                            rand.split("sampling"))
    except EmptySample:
        # Message 2 degenerates to an abort notice; nothing to compare.
        channel.deliver(channel.send(b"abort:empty"))
        return report(SessionOutcome.ABORT_QBER, float("nan"))

    # Message 2, Alice -> Bob: her bases at the clicks, the sample
    # positions, and her sample bits. Message 3, Bob -> Alice: his.
    channel.deliver(channel.send(
        records.alice_bases[single].tobytes()
        + struct.pack(">I", len(est.sample_positions))
        + est.sample_positions.astype(">u4").tobytes()
        + _pack_bits(est.alice_sample)))
    channel.deliver(channel.send(_pack_bits(est.bob_sample)))

    if est.e_hat >= config.attack_model.qber_threshold:
        return report(SessionOutcome.ABORT_QBER, est.e_hat)

    remaining = est.remaining
    n_rem = len(remaining)
    if n_rem < MIN_RECONCILE_BITS:
        # Too short to reconcile; the session yields no key but did not
        # observe anything suspicious.
        channel.deliver(channel.send(b"abort:short"))
        return report(SessionOutcome.SUCCESS, est.e_hat)

    failed = False
    try:
        correction = error_correct(remaining.alice_bits, remaining.bob_bits,
                                   est.e_hat, rand.split("reconcile"))
    except ReconciliationFailure as exc:
        correction = exc.result
        failed = True
    leak = correction.leaked_bits

    final = 0 if failed else final_key_length(
        n_rem, est.e_hat, leak, config.attack_model,
        config.security_margin_bits)
    seed_bits = rand.split("pa_seed").bits(n_rem + final - 1) \
        if final > 0 else np.zeros(0, dtype=np.uint8)

    # Message 4, Alice -> Bob: parity transcript, verification hash
    # outcome, final length, and the amplification seed. Message 5,
    # Bob -> Alice: confirmation.
    channel.deliver(channel.send(
        struct.pack(">QI?", leak, final, not failed)
        + _pack_bits(correction.transcript) + _pack_bits(seed_bits)))
    channel.deliver(channel.send(b"\x01" if not failed else b"\x00"))

    if failed:
        return report(SessionOutcome.ABORT_RECONCILIATION, est.e_hat,
                      leak=leak)

    secret = None
    if final > 0:
        secret = privacy_amplify(remaining.alice_bits, final,
                                 HashSeed(seed_bits))
    return report(SessionOutcome.SUCCESS, est.e_hat, leak=leak, final=final,
                  secret=secret)
