"""Eavesdropper strategies: disturbance they cause and what they learn.

The intercept-resend oracle: a fraction f of intercepted pulses yields a
sifted error rate of f/4 (Eve guesses the wrong basis half the time, and
a wrong-basis resend flips the matched-basis outcome half the time). The
multiphoton-split oracle: Eve knows P(n>=2)/P(n>=1) of the sifted key and
introduces no errors at all.
"""

import math

import numpy as np
import pytest

from qkdsim.adversary import (EveLedger, InterceptResend, NoAttack,
                              PhotonNumberSplit, eve_information,
                              finalize_knowledge, intercept_batch,
                              strategy_label)
from qkdsim.photonics import (Basis, ConstantSource, DetectorPair,
                              FiberChannel)
from qkdsim.protocol import SessionConfig, SiftedKeys, run_quantum_phase, sift
from qkdsim.rng import RandomSource


def ideal_config(n_pulses, eve, seed=0, source=None):
    return SessionConfig(
        n_pulses=n_pulses,
        source=source if source is not None else ConstantSource(1),
        channel=FiberChannel(0.0),
        detectors=DetectorPair(1.0, 0.0),
        seed=seed,
        eve=eve,
    )


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
        counts = rand.poisson(0.5, 100).astype(np.int64)
        bits, bases = rand.bits(100), rand.bits(100)
        ledger = EveLedger()
        out = intercept_batch(counts, bits, bases, NoAttack(), ledger, rand)
        assert np.array_equal(out[0], counts)
        assert np.array_equal(out[1], bits)
        assert np.array_equal(out[2], bases)
        assert not ledger.stored and not ledger.measured


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
        counts = np.full(1000, 3, dtype=np.int64)
        bits, bases = rand.bits(1000), rand.bits(1000)
        out_counts, _, _ = intercept_batch(counts, bits, bases,
                                           InterceptResend(1.0), EveLedger(),
                                           rand)
        assert np.all(out_counts == 1)

    def test_skips_empty_pulses(self):
        rand = RandomSource(3)
        counts = np.zeros(500, dtype=np.int64)
        bits, bases = rand.bits(500), rand.bits(500)
        ledger = EveLedger()
        out_counts, out_bits, out_bases = intercept_batch(
            counts, bits, bases, InterceptResend(1.0), ledger, rand)
        assert np.all(out_counts == 0)
        assert np.array_equal(out_bits, bits)
        assert np.array_equal(out_bases, bases)
        assert not ledger.measured

    def test_matching_guess_reads_alice_bit(self):
        # Whenever Eve's basis guess equals Alice's basis, her recorded
        # bit is exactly Alice's bit; a resend in that basis is invisible.
        rand = RandomSource(4)
        n = 5000
        counts = np.ones(n, dtype=np.int64)
        bits, bases = rand.bits(n), rand.bits(n)
        ledger = EveLedger()
        out_counts, out_bits, out_bases = intercept_batch(
            counts, bits, bases, InterceptResend(1.0), ledger, rand)
        assert len(ledger.measured) == n
        for idx, (bit, guess) in ledger.measured.items():
            if int(guess) == int(bases[idx]):
                assert bit == bits[idx]
                assert out_bits[idx] == bits[idx]
            assert out_bases[idx] == int(guess)

    def test_known_fraction_of_sifted_key(self):
        # Eve's guess matches the announced basis for half the sifted
        # positions, and only those become known bits.
        config = ideal_config(100_000, InterceptResend(1.0), seed=103)
        records, ledger, sifted = quantum_round(config)
        known = finalize_knowledge(ledger, records.alice_bases,
                                   sifted.source_indices)
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
        out_counts, out_bits, out_bases = intercept_batch(
            counts, bits, bases, PhotonNumberSplit(), ledger,
            RandomSource(5))
        assert np.array_equal(out_counts, [0, 1, 1, 4])
        assert np.array_equal(out_bits, bits)
        assert np.array_equal(out_bases, bases)
        assert ledger.stored == {2: (1, Basis.DIAGONAL),
                                 3: (0, Basis.DIAGONAL)}

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
        known = finalize_knowledge(ledger, records.alice_bases,
                                   sifted.source_indices)
        assert abs(eve_information(known, sifted) - want) < tol

    def test_stored_photons_read_alice_bit_with_certainty(self):
        from qkdsim.photonics import SourceModel
        config = ideal_config(100_000, PhotonNumberSplit(), seed=107,
                              source=SourceModel(0.5))
        records, ledger, sifted = quantum_round(config)
        known = finalize_knowledge(ledger, records.alice_bases,
                                   sifted.source_indices)
        assert len(known) > 0
        for idx, bit in known.items():
            assert bit == records.alice_bits[idx]


class TestKnowledge:
    def test_every_known_bit_is_correct(self):
        # Holds across strategies: a "known" bit that disagreed with
        # Alice's would overstate Eve and understate the required
        # compression.
        for seed, eve in [(108, InterceptResend(1.0)),
                          (109, InterceptResend(0.4))]:
            config = ideal_config(40_000, eve, seed=seed)
            records, ledger, sifted = quantum_round(config)
            known = finalize_knowledge(ledger, records.alice_bases,
                                       sifted.source_indices)
            assert len(known) > 0
            for idx, bit in known.items():
                assert bit == records.alice_bits[idx]

    def test_known_bits_restricted_to_sifted(self):
        config = ideal_config(20_000, InterceptResend(1.0), seed=110)
        records, ledger, sifted = quantum_round(config)
        known = finalize_knowledge(ledger, records.alice_bases,
                                   sifted.source_indices)
        positions = set(int(i) for i in sifted.source_indices)
        assert set(known) <= positions

    def test_finalize_idempotent(self):
        config = ideal_config(20_000, InterceptResend(1.0), seed=111)
        records, ledger, sifted = quantum_round(config)
        first = finalize_knowledge(ledger, records.alice_bases,
                                   sifted.source_indices)
        second = finalize_knowledge(ledger, records.alice_bases,
                                    sifted.source_indices)
        assert first == second == ledger.known_bits

    def test_information_of_empty_sifted_key(self):
        empty = SiftedKeys(np.zeros(0, np.uint8), np.zeros(0, np.uint8),
                           np.zeros(0, np.int64))
        assert eve_information({0: 1}, empty) == 0.0

    def test_information_counts_only_sifted_hits(self):
        sifted = SiftedKeys(np.array([0, 1], np.uint8),
                            np.array([0, 1], np.uint8),
                            np.array([3, 7], np.int64))
        assert eve_information({3: 0, 5: 1}, sifted) == 0.5
        assert eve_information({}, sifted) == 0.0


class TestScalarDelegate:
    def test_intercept_pns_pulse(self):
        ledger = EveLedger()
        counts, bits, bases = intercept_batch(
            np.array([2]), np.array([1], np.uint8),
            np.array([Basis.DIAGONAL], np.uint8), PhotonNumberSplit(),
            ledger, RandomSource(6), start_index=42)
        assert (list(counts), list(bits), list(bases)) == \
            ([1], [1], [Basis.DIAGONAL])
        assert ledger.stored == {42: (1, Basis.DIAGONAL)}

    def test_intercept_noattack_pulse(self):
        pulse = (np.array([1]), np.array([0], np.uint8),
                 np.array([Basis.RECTILINEAR], np.uint8))
        out = intercept_batch(*pulse, NoAttack(), EveLedger(),
                              RandomSource(7))
        assert all(np.array_equal(o, p) for o, p in zip(out, pulse))


def test_ledger_appends_across_batches():
    ledger = EveLedger()
    rand = RandomSource(8)
    counts = np.full(10, 2, dtype=np.int64)
    bits, bases = rand.bits(10), rand.bits(10)
    intercept_batch(counts, bits, bases, PhotonNumberSplit(), ledger, rand,
                    start_index=0)
    intercept_batch(counts, bits, bases, PhotonNumberSplit(), ledger, rand,
                    start_index=10)
    assert sorted(ledger.stored) == list(range(20))


def test_intercept_batch_deterministic():
    def run():
        rand = RandomSource(9)
        counts = np.ones(1000, dtype=np.int64)
        bits, bases = rand.bits(1000), rand.bits(1000)
        ledger = EveLedger()
        out = intercept_batch(counts, bits, bases, InterceptResend(0.7),
                              ledger, rand)
        return out, ledger.measured

    (c1, b1, a1), m1 = run()
    (c2, b2, a2), m2 = run()
    assert np.array_equal(c1, c2) and np.array_equal(b1, b2)
    assert np.array_equal(a1, a2) and m1 == m2
