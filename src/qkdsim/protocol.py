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
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .adversary import (EveLedger, EveStrategy, NoAttack, eve_information,
                        finalize_knowledge, intercept_batch)
from .auth import AuthenticatedChannel, BitPool
from .photonics import (ClickKind, ConstantSource, DetectorPair,
                        FiberChannel, PulseBits, Pulses, SourceModel,
                        measure_batch, sample_photon_counts,
                        survival_probability, transmit_counts)
from .postprocess import (MIN_RECONCILE_BITS, MODEL, AttackModel, HashSeed,
                          ReconciliationFailure, SecretKey, error_correct,
                          final_key_length, privacy_amplify)
from .rng import (COUNT, INTEGER, INTEGRAL, REAL, Checked, RandomSource,
                  Rule, in_sorted)

FRACTION = Rule(REAL, lambda v: 0 < v < 1, "a number in (0, 1)")
# Messages 1 and 2 send pulse positions as ">u4", which wraps silently
# above 2^32 - 1. No key or pool needs more bits than a session has
# pulses, so bit counts share the bound.
MAX_PULSES = 2**32
PULSES = Rule(INTEGRAL, lambda v: 1 <= v <= MAX_PULSES,
              "an integer >= 1 and <= 2^32")
BITS = Rule(INTEGRAL, lambda v: 0 <= v <= MAX_PULSES,
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
             "auth_pool_bits": BITS,
             "source": Rule((SourceModel, ConstantSource), lambda v: True,
                            "a SourceModel or ConstantSource"),
             "channel": Rule(FiberChannel, lambda v: True, "a FiberChannel"),
             "detectors": Rule(DetectorPair, lambda v: True, "a DetectorPair"),
             "eve": Rule(EveStrategy, lambda v: True, "an EveStrategy"),
             "attack_model": MODEL}

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


@dataclass(eq=False)
class PulseRecords:
    """What a quantum phase of ``n`` pulses recorded, one entry per gate
    that clicked, in emission order: its pulse index, Alice's bit and
    basis, Bob's basis and the measured bit (a random one for a double
    click). A pulse with no entry did not click. Its length is ``n``."""

    n: int
    indices: np.ndarray
    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
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
        at = np.asarray(self.source_indices)
        if not np.all(at[1:] > at[:-1]):  # no n-long difference, no wrap
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
    sifted_len: int
    e_hat: float
    leak_ec_bits: int
    final_len: int
    eve_info_fraction: float
    auth_bits_consumed: int
    outcome: SessionOutcome
    secret_key: SecretKey | None = field(repr=False, default=None)

    @property
    def raw_len(self) -> int:
        """Raw key bits: ``clicks``, as every recorded click carries one."""
        return self.clicks

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
    Poisson(mu (1 - eta)) more, which Eve saw (none at eta = 1), as she
    saw the pulses of the gates where only dark counts fired, at every
    eta. Any other source is thinned after Eve. Alice's bits and bases
    and Bob's bases are functions of the pulse index, each from its own
    substream, read where Eve, the detectors or the records need them.

    Double clicks are resolved to a uniform random bit, the squashing
    map of Beaudry, Moroder and Lutkenhaus (PRL 101, 093601, 2008):
    discarding them instead lets a detector-control attack bias the key.
    """
    n = config.n_pulses
    alice_bits, alice_bases, bob_bases = (
        PulseBits(rand.split(label))
        for label in ("alice_bits", "alice_bases", "bob_bases"))
    source, eve = config.source, rand.split("eve")
    eta = survival_probability(config.channel) * config.detectors.efficiency
    lost = 0.0  # mean photons each pulse Eve sees lost, besides those kept
    if isinstance(source, SourceModel):
        lost = source.mu * (1 - eta)
        source, eta = SourceModel(source.mu * eta), 1.0
    pulses = sample_photon_counts(source, n, rand.split("source"))
    events = pulses.indices if config.eve != NoAttack() else None
    ledger = eve_ledger if eve_ledger is not None else EveLedger()
    pulses, bits, bases = intercept_batch(
        pulses, alice_bits, alice_bases, config.eve, ledger, eve, lost=lost)
    pulses = transmit_counts(pulses, eta, rand.split("channel"))
    kinds, click_bits, indices = measure_batch(
        pulses, bits, bases, bob_bases, config.detectors.dark_count_prob,
        config.channel.excess_flip_prob, rand.split("detector"))
    del pulses, bits, bases
    if events is not None:  # pulses that kept no photon but whose gate clicked
        dark = indices[~in_sorted(events, indices)]
        intercept_batch(Pulses(n, dark, np.zeros(len(dark), np.uint8)),
                        alice_bits, alice_bases, config.eve, ledger,
                        eve.split("dark_gates"), lost=lost)
    doubles = np.flatnonzero(kinds == int(ClickKind.DOUBLE_CLICK))
    click_bits[doubles] = rand.split("double_click").bits(len(doubles))
    return PulseRecords(n, indices, alice_bits.at(indices),
                        alice_bases.at(indices), bob_bases.at(indices),
                        click_bits)


def sift(records: PulseRecords) -> SiftedKeys:
    """Keep the clicks with matching bases. Every recorded click carries
    a bit, so selection uses only the announced bases, never the
    measured bit values, and neither party learns anything new from the
    other's sift."""
    sel = np.flatnonzero(records.alice_bases == records.bob_bases)
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


def run_session(config: SessionConfig) -> SessionReport:
    """Execute the full pipeline and account for every bit.

    The classical conversation is five authenticated messages: Bob's
    click report, Alice's sift-and-sample announcement, Bob's sample
    bits, Alice's reconciliation bundle (parity transcript, hash, final
    length, amplification seed), and Bob's confirmation. A session that
    aborts at the error test stops after message three.

    Each stage keeps only what later stages read. Of the click records
    only Alice's bases outlive Eve's rows, until message 2 sends them;
    the sifted key goes once the sample is drawn, the sample and the
    pulse indices once message 2 is sent, Bob's key once Cascade has
    corrected it, and the transcript once message 4 is sent. Privacy
    amplification runs beside Alice's remaining key and its seed alone.
    """
    rand = RandomSource(config.seed)
    pool = BitPool()
    pool.deposit_drawn(rand.split("auth_pool"), config.auth_pool_bits)
    channel = AuthenticatedChannel(pool)
    eve_ledger = EveLedger()

    records = run_quantum_phase(config, rand, eve_ledger)
    clicks = len(records.indices)

    # Message 1, Bob -> Alice: where he saw clicks and with which basis.
    channel.deliver(channel.send(b"".join((
        struct.pack(">I", clicks), records.indices.astype(">u4"),
        records.bob_bases))))

    sifted = sift(records)
    known = finalize_knowledge(
        eve_ledger, records.alice_bases_at(sifted.source_indices),
        sifted.source_indices)
    eve_frac = eve_information(known, sifted)
    alice_bases = records.alice_bases  # all that message 2 reads of them
    del records, eve_ledger, known
    sifted_len = len(sifted)

    def report(outcome, e_hat, leak=0, final=0, secret=None):
        return SessionReport(config.n_pulses, clicks, sifted_len, e_hat,
                             leak, final, eve_frac, pool.cursor, outcome,
                             secret)

    try:
        est = estimate_qber(sifted, config.sample_fraction,
                            rand.split("sampling"))
    except EmptySample:
        # Message 2 degenerates to an abort notice; nothing to compare.
        channel.deliver(channel.send(b"abort:empty"))
        return report(SessionOutcome.ABORT_QBER, float("nan"))
    del sifted

    # Message 2, Alice -> Bob: her bases at the clicks, the sample
    # positions, and her sample bits. Message 3, Bob -> Alice: his.
    channel.deliver(channel.send(b"".join((
        alice_bases, struct.pack(">I", len(est.sample_positions)),
        est.sample_positions.astype(">u4"), np.packbits(est.alice_sample)))))
    del alice_bases
    channel.deliver(channel.send(np.packbits(est.bob_sample).tobytes()))
    # Cascade and privacy amplification read the keys, not the pulse
    # indices or the sample.
    e_hat = est.e_hat
    alice_key, bob_key = est.remaining.alice_bits, est.remaining.bob_bits
    del est

    if e_hat >= config.attack_model.qber_threshold:
        return report(SessionOutcome.ABORT_QBER, e_hat)

    n_rem = len(alice_key)
    if n_rem < MIN_RECONCILE_BITS:
        # Too short to reconcile; the session yields no key but did not
        # observe anything suspicious.
        channel.deliver(channel.send(b"abort:short"))
        return report(SessionOutcome.SUCCESS, e_hat)

    failed = False
    try:
        correction = error_correct(alice_key, bob_key, e_hat,
                                   rand.split("reconcile"))
    except ReconciliationFailure as exc:
        correction = exc.result
        failed = True
    del bob_key
    leak = correction.leaked_bits

    final = 0 if failed else final_key_length(
        n_rem, e_hat, leak, config.attack_model,
        config.security_margin_bits)
    seed = HashSeed.random(rand.split("pa_seed"), n_rem, final) \
        if final > 0 else HashSeed(np.zeros(0, dtype=np.uint8))

    # Message 4, Alice -> Bob: parity transcript, verification hash
    # outcome, final length, and the amplification seed. Message 5,
    # Bob -> Alice: confirmation.
    channel.deliver(channel.send(b"".join((
        struct.pack(">QI?", leak, final, not failed),
        np.packbits(correction.transcript), np.packbits(seed.bits)))))
    del correction
    channel.deliver(channel.send(b"\x01" if not failed else b"\x00"))

    if failed:
        return report(SessionOutcome.ABORT_RECONCILIATION, e_hat, leak=leak)

    secret = None
    if final > 0:
        secret = privacy_amplify(alice_key, final, seed)
    return report(SessionOutcome.SUCCESS, e_hat, leak=leak, final=final,
                  secret=secret)
