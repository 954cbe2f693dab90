"""Eavesdropper strategies: disturbance they cause and what they learn.

The intercept-resend oracle: a fraction f of intercepted pulses yields a
sifted error rate of f/4 (Eve guesses the wrong basis half the time, and
a wrong-basis resend flips the matched-basis outcome half the time). The
multiphoton-split oracle: Eve knows P(n>=2)/P(n>=1) of the sifted key and
introduces no errors at all. The ledger's one knowledge rule is also
checked, as a hypothesis property, against the per-pulse dict ledger and
two-loop rule it replaced, and the kernel, which works only at the
pulses Eve touches, against a dense one written over every pulse. It
takes the pulses with photons and Alice's bits and bases as
:class:`PulseBits`, changes the counts in place and returns the bits and
bases the channel carries: Alice's own, or hers with Eve's encoding
where she resent. With a Poisson source the pulses hold the photons the
loss keeps, and each lost a Poisson number more that Eve saw too.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkdsim.adversary import (EveLedger, InterceptResend, NoAttack,
                              PhotonNumberSplit, eve_information,
                              finalize_knowledge, intercept_batch,
                              strategy_label)
from qkdsim.photonics import (Basis, ConstantSource, DetectorPair,
                              FiberChannel, PulseBits, Pulses, SourceModel)
from qkdsim.protocol import SessionConfig, SiftedKeys, run_quantum_phase, sift
from qkdsim.rng import SHORT_BITS, RandomSource

from reference_kernels import dense_intercept_batch, scalar_gaps


def ideal_config(n_pulses, eve, seed=0, source=None):
    return SessionConfig(
        n_pulses=n_pulses,
        source=source if source is not None else ConstantSource(1),
        channel=FiberChannel(0.0),
        detectors=DetectorPair(1.0, 0.0),
        seed=seed,
        eve=eve,
    )


def as_pulses(counts):
    """Pulses holding the non-zero entries of a dense count array."""
    counts = np.asarray(counts)
    at = np.flatnonzero(counts)
    return Pulses(len(counts), at.astype(np.uint32), counts[at])


def dense(pulses):
    out = np.zeros(len(pulses), pulses.counts.dtype)
    out[pulses.indices] = pulses.counts
    return out


def as_bits(values):
    """PulseBits that read ``values[i]`` at pulse i; Eve's kernel takes
    Alice's with no pulse overridden, so these ride on a source whose
    counter bits are ``values``'s."""
    values = np.asarray(values, np.uint8)
    return PulseBits(FixedBits(values))


class FixedBits:
    """A stand-in for RandomSource.bits_at that reads a fixed array."""

    def __init__(self, values):
        self.values = values

    def bits_at(self, indices):
        return self.values[indices]


def unpacked(bits, n):
    """The bits of a PulseBits at pulses 0..n-1, as uint8."""
    return bits.at(np.arange(n))


def alice_bits_at(records, pulses):
    """Alice's bits at clicked pulses."""
    return records.alice_bits[np.searchsorted(records.indices, pulses)]


def known_bits(ledger, records, sifted):
    return finalize_knowledge(
        ledger, records.alice_bases_at(sifted.source_indices),
        sifted.source_indices)


def quantum_round(config):
    rand = RandomSource(config.seed)
    ledger = EveLedger()
    records = run_quantum_phase(config, rand, eve_ledger=ledger)
    return records, ledger, sift(records)


class TestStrategyTypes:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            InterceptResend(1.5)
        with pytest.raises(ValueError):
            InterceptResend(-0.1)

    def test_labels(self):
        assert strategy_label(NoAttack()) == "none"
        assert strategy_label(InterceptResend(0.5)) == "intercept:0.5"
        assert strategy_label(InterceptResend(1.0)) == "intercept:1"
        assert strategy_label(PhotonNumberSplit()) == "pns"

    def test_label_rejects_unknown(self):
        with pytest.raises(TypeError):
            strategy_label(object())


class TestNoAttack:
    def test_identity_and_empty_ledger(self):
        rand = RandomSource(1)
        pulses = as_pulses(rand.poisson(0.5, 100).astype(np.int64))
        before = pulses.counts.copy()
        bits, bases = rand.bits(100), rand.bits(100)
        alice_bits, alice_bases = as_bits(bits), as_bits(bases)
        ledger = EveLedger()
        out = intercept_batch(pulses, alice_bits, alice_bases, NoAttack(),
                              ledger, rand)
        assert out[0] is pulses and np.array_equal(out[0].counts, before)
        assert out[1] is alice_bits and out[2] is alice_bases
        assert np.array_equal(unpacked(out[1], 100), bits)
        assert np.array_equal(unpacked(out[2], 100), bases)
        assert ledger.stored.shape == ledger.measured.shape == (0, 3)


class TestInterceptResend:
    def test_full_intercept_sifted_qber(self):
        config = ideal_config(100_000, InterceptResend(1.0), seed=101)
        _, _, sifted = quantum_round(config)
        qber = np.mean(sifted.alice_bits != sifted.bob_bits)
        assert abs(qber - 0.25) < 0.01

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 1.0])
    def test_qber_linear_in_fraction(self, fraction):
        config = ideal_config(100_000, InterceptResend(fraction), seed=102)
        _, _, sifted = quantum_round(config)
        qber = np.mean(sifted.alice_bits != sifted.bob_bits)
        assert abs(qber - fraction / 4.0) < 0.01

    def test_resends_single_photons(self):
        rand = RandomSource(2)
        pulses = as_pulses(np.full(1000, 3, dtype=np.int64))
        bits, bases = rand.bits(1000), rand.bits(1000)
        out = intercept_batch(pulses, as_bits(bits), as_bits(bases),
                              InterceptResend(1.0), EveLedger(), rand)[0]
        assert len(out.counts) == 1000 and np.all(out.counts == 1)

    def test_skips_empty_pulses(self):
        rand = RandomSource(3)
        pulses = as_pulses(np.zeros(500, dtype=np.int64))
        bits, bases = rand.bits(500), rand.bits(500)
        ledger = EveLedger()
        out_pulses, out_bits, out_bases = intercept_batch(
            pulses, as_bits(bits), as_bits(bases),
            InterceptResend(1.0), ledger, rand)
        assert np.all(dense(out_pulses) == 0)
        assert np.array_equal(unpacked(out_bits, 500), bits)
        assert np.array_equal(unpacked(out_bases, 500), bases)
        assert len(ledger.measured) == 0

    def test_matching_guess_reads_alice_bit(self):
        # Whenever Eve's basis guess equals Alice's basis, her recorded
        # bit is exactly Alice's bit; a resend in that basis is invisible.
        rand = RandomSource(4)
        n = 5000
        pulses = as_pulses(np.ones(n, dtype=np.int64))
        bits, bases = rand.bits(n), rand.bits(n)
        ledger = EveLedger()
        _, out_bits, out_bases = intercept_batch(
            pulses, as_bits(bits), as_bits(bases),
            InterceptResend(1.0), ledger, rand)
        out_bits, out_bases = unpacked(out_bits, n), unpacked(out_bases, n)
        assert len(ledger.measured) == n
        idx, bit, guess = ledger.measured.T
        assert np.array_equal(idx, np.arange(n))
        match = guess == bases[idx]
        assert match.any() and not match.all()
        assert np.array_equal(bit[match], bits[idx[match]])
        assert np.array_equal(out_bits[idx[match]], bits[idx[match]])
        assert np.array_equal(out_bases[idx], guess)

    def test_known_fraction_of_sifted_key(self):
        # Eve's guess matches the announced basis for half the sifted
        # positions, and only those become known bits.
        config = ideal_config(100_000, InterceptResend(1.0), seed=103)
        records, ledger, sifted = quantum_round(config)
        known = known_bits(ledger, records, sifted)
        frac = eve_information(known, sifted)
        assert abs(frac - 0.5) < 0.01

    def test_partial_intercept_ledger_size(self):
        config = ideal_config(50_000, InterceptResend(0.3), seed=104)
        _, ledger, _ = quantum_round(config)
        assert abs(len(ledger.measured) / 50_000 - 0.3) < 0.01


class TestPhotonNumberSplit:
    def test_pulse_level_splitting(self):
        counts = np.array([0, 1, 2, 5], dtype=np.int64)
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        bases = np.array([0, 0, 1, 1], dtype=np.uint8)
        ledger = EveLedger()
        out_pulses, out_bits, out_bases = intercept_batch(
            as_pulses(counts), as_bits(bits), as_bits(bases),
            PhotonNumberSplit(), ledger, RandomSource(5))
        assert np.array_equal(dense(out_pulses), [0, 1, 1, 4])
        assert np.array_equal(unpacked(out_bits, 4), bits)
        assert np.array_equal(unpacked(out_bases, 4), bases)
        assert ledger.stored.dtype == np.int64
        assert np.array_equal(ledger.stored, [[2, 1, Basis.DIAGONAL],
                                              [3, 0, Basis.DIAGONAL]])

    def test_introduces_no_errors(self):
        from qkdsim.photonics import SourceModel
        config = ideal_config(200_000, PhotonNumberSplit(), seed=105,
                              source=SourceModel(0.5))
        _, _, sifted = quantum_round(config)
        assert len(sifted) > 0
        assert np.array_equal(sifted.alice_bits, sifted.bob_bits)

    @pytest.mark.parametrize("mu,tol", [(0.5, 0.01), (0.1, 0.005)])
    def test_known_fraction_matches_conditional_poisson(self, mu, tol):
        # Oracle: of the pulses that reach Bob, the fraction Eve holds a
        # photon from is P(n>=2 | n>=1) = (1 - e^-mu - mu e^-mu)/(1 - e^-mu).
        from qkdsim.photonics import SourceModel
        p_ge1 = 1.0 - math.exp(-mu)
        p_ge2 = p_ge1 - mu * math.exp(-mu)
        want = p_ge2 / p_ge1
        config = ideal_config(300_000, PhotonNumberSplit(), seed=106,
                              source=SourceModel(mu))
        records, ledger, sifted = quantum_round(config)
        known = known_bits(ledger, records, sifted)
        assert abs(eve_information(known, sifted) - want) < tol

    def test_stored_photons_read_alice_bit_with_certainty(self):
        from qkdsim.photonics import SourceModel
        config = ideal_config(100_000, PhotonNumberSplit(), seed=107,
                              source=SourceModel(0.5))
        records, ledger, sifted = quantum_round(config)
        known = known_bits(ledger, records, sifted)
        assert len(known) > 0
        assert np.array_equal(known[:, 1],
                              alice_bits_at(records, known[:, 0]))


class TestPhotonsLostBeforeBob:
    """With a Poisson source the pulses Eve acts on are those that keep a
    photon through the loss, each of which lost Poisson(lost) photons
    besides; at gates where dark counts alone click she acted with the
    chance that a pulse that kept none gave her one."""

    def test_split_photon_is_a_kept_one_k_in_n_times(self):
        # one kept photon and Poisson(2) lost: Eve splits the pulses that
        # lost any, and empties them with chance 1 / (1 + l), in all
        # (1 - e^-2) / 2 - e^-2 = 0.2970 of the pulses
        n, lost = 20_000, 2.0
        pulses = as_pulses(np.ones(n, np.uint8))
        ledger = EveLedger()
        out = intercept_batch(pulses, as_bits(np.zeros(n)),
                              as_bits(np.zeros(n)), PhotonNumberSplit(),
                              ledger, RandomSource(11), lost=lost)[0]
        assert np.all(out.counts == 1)
        share = 1 - len(out.counts) / n
        assert abs(share - (-math.expm1(-lost) / lost
                            - math.exp(-lost))) < 0.015
        assert abs(len(ledger.stored) / n + math.expm1(-lost)) < 0.015
        # an emptied pulse keeps its ledger row
        emptied = np.setdiff1d(np.arange(n), out.indices)
        assert np.all(np.isin(emptied, ledger.stored[:, 0]))

    def test_resent_photon_arrives_with_the_transmittance(self):
        # Eve resends one photon for every pulse with photons; it reaches
        # Bob with probability eta whatever the pulse's photon number
        mu, eta = 0.5, 0.3
        config = SessionConfig(100_000, SourceModel(mu), FiberChannel(0.0),
                               DetectorPair(eta, 0.0), 12,
                               eve=InterceptResend(1.0))
        records, ledger, _ = quantum_round(config)
        assert abs(len(records.indices) / 100_000
                   + math.expm1(-mu) * eta) < 0.005
        assert set(records.indices) <= set(ledger.measured[:, 0])

    @pytest.mark.parametrize("strategy, acted", [
        (PhotonNumberSplit(), lambda lost: -math.expm1(-lost)
         - lost * math.exp(-lost)),
        (InterceptResend(0.4), lambda lost: -0.4 * math.expm1(-lost)),
    ], ids=["pns", "intercept-resend"])
    def test_pulses_that_kept_no_photon(self, strategy, acted):
        # the pulses of gates where only dark counts fired: Eve acted if
        # the pulse lost two photons or more (splitting), or any and she
        # took it (intercept-resend), and nothing reaches Bob
        n, lost = 40_000, 0.7
        gates = np.arange(0, 2 * n, 2)
        bits, bases = (RandomSource(13).split(label)
                       for label in ("bits", "bases"))
        ledger = EveLedger()
        out = intercept_batch(Pulses(2 * n, gates, np.zeros(n, np.uint8)),
                              PulseBits(bits), PulseBits(bases), strategy,
                              ledger, RandomSource(14), lost=lost)[0]
        assert len(out.indices) == len(out.counts) == 0
        rows = ledger.stored if isinstance(strategy, PhotonNumberSplit) \
            else ledger.measured
        assert abs(len(rows) / n - acted(lost)) < 0.01
        assert np.all(rows[:, 0] % 2 == 0)
        assert np.all(np.diff(rows[:, 0]) > 0)
        at = rows[:, 0]
        if isinstance(strategy, PhotonNumberSplit):
            assert np.array_equal(rows[:, 1], bits.bits_at(at))
            return
        # Eve reads these pulses by index, in her own bases
        eve = RandomSource(14)
        assert np.array_equal(rows[:, 2], eve.split("eve_bases").bits_at(at))
        match = rows[:, 2] == bases.bits_at(at)
        assert np.array_equal(rows[match, 1], bits.bits_at(at[match]))
        assert np.array_equal(rows[~match, 1], eve.split(
            "eve_results").bits_at(at[~match]))

    @pytest.mark.parametrize("strategy", [
        NoAttack(), PhotonNumberSplit(), InterceptResend(1.0)],
        ids=["none", "pns", "intercept-resend"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, True, "0"])
    def test_bad_lost_refused_before_any_draw(self, strategy, bad):
        # -1.0 and NaN ended in numpy's "lam < 0 or lam is NaN", inf in
        # "lam value too large", and True was taken as 1
        pulses = as_pulses(np.ones(8, np.uint8))
        ledger = EveLedger()
        with pytest.raises(ValueError, match=re.escape(
                f"lost must be a finite number >= 0, got {bad!r}")):
            intercept_batch(pulses, as_bits(np.zeros(8)),
                            as_bits(np.zeros(8)), strategy, ledger,
                            RandomSource(15), lost=bad)
        assert pulses.counts.tolist() == [1] * 8
        assert len(ledger.stored) == len(ledger.measured) == 0


class TestKnowledge:
    def test_every_known_bit_is_correct(self):
        # Holds across strategies: a "known" bit that disagreed with
        # Alice's would overstate Eve and understate the required
        # compression.
        for seed, eve in [(108, InterceptResend(1.0)),
                          (109, InterceptResend(0.4))]:
            config = ideal_config(40_000, eve, seed=seed)
            records, ledger, sifted = quantum_round(config)
            known = known_bits(ledger, records, sifted)
            assert len(known) > 0
            assert np.array_equal(known[:, 1],
                                  alice_bits_at(records, known[:, 0]))

    def test_known_bits_restricted_to_sifted(self):
        config = ideal_config(20_000, InterceptResend(1.0), seed=110)
        records, ledger, sifted = quantum_round(config)
        known = known_bits(ledger, records, sifted)
        assert len(known) > 0
        assert np.isin(known[:, 0], sifted.source_indices).all()
        assert np.all(np.diff(known[:, 0]) > 0)  # index order, no repeats

    def test_finalize_idempotent(self):
        config = ideal_config(20_000, InterceptResend(1.0), seed=111)
        records, ledger, sifted = quantum_round(config)
        first = known_bits(ledger, records, sifted)
        second = known_bits(ledger, records, sifted)
        assert first.shape[1] == 2 and len(first) > 0
        assert np.array_equal(first, second)

    def test_information_of_empty_sifted_key(self):
        empty = SiftedKeys(np.zeros(0, np.uint8), np.zeros(0, np.uint8),
                           np.zeros(0, np.int64))
        assert eve_information(np.array([[0, 1]]), empty) == 0.0

    def test_information_counts_only_sifted_hits(self):
        sifted = SiftedKeys(np.array([0, 1], np.uint8),
                            np.array([0, 1], np.uint8),
                            np.array([3, 7], np.int64))
        assert eve_information(np.array([[3, 0], [5, 1]]), sifted) == 0.5
        assert eve_information(np.zeros((0, 2), np.int64), sifted) == 0.0


class TestScalarDelegate:
    def test_intercept_pns_pulse(self):
        ledger = EveLedger()
        bits, bases = np.array([1], np.uint8), np.array([Basis.DIAGONAL],
                                                        np.uint8)
        pulses, out_bits, out_bases = intercept_batch(
            as_pulses([2]), as_bits(bits), as_bits(bases),
            PhotonNumberSplit(), ledger, RandomSource(6))
        assert (list(dense(pulses)), list(unpacked(out_bits, 1)),
                list(unpacked(out_bases, 1))) == ([1], [1], [Basis.DIAGONAL])
        assert np.array_equal(ledger.stored, [[0, 1, Basis.DIAGONAL]])

    def test_intercept_noattack_pulse(self):
        pulse = (np.array([1]), np.array([0], np.uint8),
                 np.array([Basis.RECTILINEAR], np.uint8))
        counts, bits, bases = (p.copy() for p in pulse)
        out_pulses, out_bits, out_bases = intercept_batch(
            as_pulses(counts), as_bits(bits), as_bits(bases), NoAttack(),
            EveLedger(), RandomSource(7))
        out = (dense(out_pulses), unpacked(out_bits, 1),
               unpacked(out_bases, 1))
        assert all(np.array_equal(o, p) for o, p in zip(out, pulse))


def test_ledger_appends_across_batches():
    ledger = EveLedger()
    rand = RandomSource(8)
    pulses = as_pulses(np.full(10, 2, dtype=np.int64))
    bits, bases = rand.bits(10), rand.bits(10)
    intercept_batch(pulses, as_bits(bits), as_bits(bases),
                    PhotonNumberSplit(), ledger, rand)
    ledger.record_stored(np.arange(10, 20), bits, bases)
    assert np.array_equal(ledger.stored[:, 0], np.arange(20))
    assert np.array_equal(ledger.stored[:, 1:], np.tile(
        np.column_stack((bits, bases)), (2, 1)))


def test_ledger_rows_stay_int64_and_unshared():
    # each append fills one new int64 block, and finalize concatenates
    # the two tables, one of them empty here: the rows still come out
    # int64, and known_bits shares no memory with them
    indices = np.array([4, 9], np.int32)
    bits, bases = np.array([1, 0], np.uint8), np.array([0, 1], np.uint8)
    announced = np.zeros(10, np.uint8)
    announced[9] = 1
    for side in ("stored", "measured"):
        ledger = EveLedger()
        getattr(ledger, f"record_{side}")(indices, bits, bases)
        rows = getattr(ledger, side)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[4, 1, 0], [9, 0, 1]]
        getattr(ledger, f"record_{side}")(indices[:0], bits[:0], bases[:0])
        assert getattr(ledger, side).tolist() == rows.tolist()
        known = finalize_knowledge(ledger, announced, np.arange(10))
        assert known.dtype == np.int64 and known.tolist() == [[4, 1], [9, 0]]
        assert not np.shares_memory(known, rows)
        known[:] = 0
        assert getattr(ledger, side).tolist() == [[4, 1, 0], [9, 0, 1]]


def test_finalize_joins_both_tables_in_pulse_order():
    # rows of both tables come out in pulse order, int64 and unshared;
    # the measurement at pulse 3 guessed the basis not announced
    ledger = EveLedger()
    ledger.record_stored(np.array([7, 2], np.int32), np.array([1, 0]),
                         np.array([0, 0]))
    ledger.record_measured(np.array([5, 3, 1], np.int32),
                           np.array([1, 0, 1]), np.array([1, 1, 0]))
    announced = np.array([0, 0, 0, 0, 0, 1, 0, 0], np.uint8)
    known = finalize_knowledge(ledger, announced, np.arange(8))
    assert known.dtype == np.int64
    assert known.tolist() == [[1, 1], [2, 0], [5, 1], [7, 1]]
    for rows in (ledger.stored, ledger.measured):
        assert not np.shares_memory(known, rows)


def test_intercept_batch_deterministic():
    def run():
        rand = RandomSource(9)
        pulses = as_pulses(np.ones(1000, dtype=np.int64))
        bits, bases = rand.bits(1000), rand.bits(1000)
        ledger = EveLedger()
        out, out_bits, out_bases = intercept_batch(
            pulses, as_bits(bits), as_bits(bases), InterceptResend(0.7),
            ledger, rand)
        return (dense(out), unpacked(out_bits, 1000),
                unpacked(out_bases, 1000)), ledger.measured

    (c1, b1, a1), m1 = run()
    (c2, b2, a2), m2 = run()
    assert np.array_equal(c1, c2) and np.array_equal(b1, b2)
    assert np.array_equal(a1, a2) and np.array_equal(m1, m2)


# -- the ledger against the per-pulse dict ledger it replaced ----------------

def reference_ledger(counts, bits, bases, strategy, seed):
    """Eve's holdings recorded pulse by pulse as dicts index -> (bit,
    basis): she measures a pulse with photons when its trial comes up,
    the trials a gap process over those pulses, and her guess and her
    mismatched result are the counter bits at the pulse of their
    substreams."""
    rand = RandomSource(seed)
    stored, measured = {}, {}
    n = len(counts)
    if isinstance(strategy, InterceptResend):
        guesses = rand.split("eve_bases").bits(SHORT_BITS)
        other = rand.split("eve_results").bits(SHORT_BITS)
        lit = [i for i in range(n) if counts[i] > 0]
        for i in (lit[j] for j in scalar_gaps(rand.split("taken").seed,
                                              len(lit), strategy.fraction)):
            bit = bits[i] if guesses[i] == bases[i] else other[i]
            measured[i] = (int(bit), int(guesses[i]))
    elif isinstance(strategy, PhotonNumberSplit):
        for i in range(n):
            if counts[i] >= 2:
                stored[i] = (int(bits[i]), int(bases[i]))
    return stored, measured


def reference_knowledge(stored, measured, announced, sifted):
    """The two-loop rule: a stored photon is read in the announced basis;
    a measurement counts only when Eve's guess was the announced basis."""
    sifted = set(int(i) for i in sifted)
    known = {}
    for idx, (bit, _basis) in stored.items():
        if idx in sifted:
            known[idx] = bit
    for idx, (bit, guess) in measured.items():
        if idx in sifted and guess == int(announced[idx]):
            known[idx] = bit
    return known


def as_rows(table):
    return np.array([(i, *v) if isinstance(v, tuple) else (i, v)
                     for i, v in sorted(table.items())], np.int64)


@st.composite
def attacked_pulses(draw):
    """A batch of pulses, a strategy, a stream seed and a sifted subset
    of positions."""
    strategy = draw(st.one_of(
        st.just(NoAttack()), st.just(PhotonNumberSplit()),
        st.floats(0.0, 1.0).map(InterceptResend)))
    total = draw(st.integers(0, 130))

    def column(hi):
        return np.array(draw(st.lists(st.integers(0, hi), min_size=total,
                                      max_size=total)), np.int64)

    counts, bits, bases = column(4), column(1), column(1)
    sifted = np.array(sorted(draw(st.sets(st.integers(0, max(total - 1, 0)),
                                          max_size=total))), np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    return strategy, counts, bits, bases, sifted, seed


class TestLedgerMatchesPerPulseRule:
    @given(attacked_pulses())
    def test_knowledge_and_information_match_reference(self, case):
        strategy, counts, bits, bases, sifted, seed = case
        bits, bases = bits.astype(np.uint8), bases.astype(np.uint8)
        ledger = EveLedger()
        intercept_batch(as_pulses(counts), as_bits(bits), as_bits(bases),
                        strategy, ledger, RandomSource(seed))
        stored, measured = reference_ledger(counts, bits, bases, strategy,
                                            seed)
        assert np.array_equal(ledger.stored.reshape(-1, 3),
                              as_rows(stored).reshape(-1, 3))
        assert np.array_equal(ledger.measured.reshape(-1, 3),
                              as_rows(measured).reshape(-1, 3))

        known = finalize_knowledge(ledger, bases[sifted], sifted)
        want = reference_knowledge(stored, measured, bases, sifted)
        assert known.dtype == np.int64 and known.shape == (len(want), 2)
        assert np.array_equal(known, as_rows(want).reshape(-1, 2))
        # Eve never holds a wrong bit: each known bit is Alice's.
        assert np.array_equal(known[:, 1], bits[known[:, 0]])

        keys = SiftedKeys(bits[sifted], bits[sifted], sifted)
        expect = len(want) / len(sifted) if len(sifted) else 0.0
        assert eve_information(known, keys) == expect


# -- the event kernel against the dense one over every pulse ----------------


class TestInterceptMatchesDense:
    @given(strategy=st.one_of(
               st.just(PhotonNumberSplit()),
               st.sampled_from([0.0, 1.0]).map(InterceptResend),
               st.floats(0.0, 1.0).map(InterceptResend)),
           counts=st.lists(st.integers(0, 4), max_size=200),
           seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.uint8, np.int64]),
           lost=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    # more pulses with photons than two windows of the take draw
    @example(strategy=InterceptResend(0.3), counts=[1, 0, 3] * 24_600,
             seed=7, dtype=np.uint8, lost=0.0)
    @example(strategy=PhotonNumberSplit(), counts=[1, 0, 3, 2] * 9_000,
             seed=8, dtype=np.uint8, lost=0.7)
    @example(strategy=PhotonNumberSplit(), counts=[1, 0, 3, 2] * 9_000,
             seed=9, dtype=np.uint8, lost=0.0)
    def test_outputs_ledger_and_stream_match(self, strategy, counts, seed,
                                             dtype, lost):
        counts = np.array(counts, dtype)
        gen = np.random.default_rng(seed)
        bits, bases = (gen.integers(0, 2, len(counts), dtype=np.uint8)
                       for _ in range(2))
        before = [a.copy() for a in (counts, bits, bases)]
        ledger, ref_ledger = EveLedger(), EveLedger()
        want = dense_intercept_batch(counts, bits, bases, strategy,
                                     ref_ledger, RandomSource(seed), lost)
        pulses = as_pulses(counts)
        alice = as_bits(bits), as_bits(bases)
        out_pulses, out_bits, out_bases = intercept_batch(
            pulses, *alice, strategy, ledger, RandomSource(seed), lost=lost)
        # the pulses left with a photon are kept, in the counts' dtype
        assert out_pulses.counts.dtype == dtype
        assert np.all(out_pulses.counts > 0)
        assert np.array_equal(dense(out_pulses), want[0])
        n = len(counts)
        for got, w in ((out_bits, want[1]), (out_bases, want[2])):
            assert np.array_equal(unpacked(got, n), w)
        # Eve's encoding is carried exactly where she resent; with no
        # resend Alice's own bits go on
        resent = ledger.measured[:, 0]
        if not isinstance(strategy, InterceptResend):
            assert out_bits is alice[0] and out_bases is alice[1]
        for got, column in ((out_bits, 1), (out_bases, 2)):
            assert np.array_equal(got.indices, resent)
            assert np.array_equal(got.values, ledger.measured[:, column])
        for rows in ("stored", "measured"):
            g, w = getattr(ledger, rows), getattr(ref_ledger, rows)
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert all(np.array_equal(a, b)
                   for a, b in zip((counts, bits, bases), before))
