"""Session engine: quantum phase, sifting, sampling, full pipeline.

Click rates are checked against the compound closed form
1 - exp(-mu * p_fiber * eta) * (1 - d)^2; the session report is checked
against the bit-accounting identities it claims to satisfy. The quantum
phase's per-click records are checked against the phase written over
every pulse, and its memory is bounded per pulse it draws and per click
it records.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkdsim.adversary import (EveLedger, InterceptResend, NoAttack,
                              PhotonNumberSplit, strategy_label)
from qkdsim.photonics import (ConstantSource, DetectorPair, FiberChannel,
                              SourceModel, survival_probability)
from qkdsim.postprocess import (AttackModel, CorrectionResult,
                                ReconciliationFailure, binary_entropy)
from qkdsim import photonics, postprocess, rng
from qkdsim.protocol import (FRACTION, MIN_RECONCILE_BITS, EmptySample,
                             PulseRecords, SessionConfig, SessionOutcome,
                             SiftedKeys, estimate_qber, run_quantum_phase,
                             run_session, sift)
from qkdsim.rng import WINDOW, RandomSource

from reference_kernels import dense_quantum_phase


def traced_phase(config):
    """(records, bytes left held, peak bytes) of one quantum phase.
    tracemalloc's peak counts the bytes numpy and Python hold, so unlike
    peak RSS it does not move with the heap's layout."""
    tracemalloc.start()
    try:
        # The same phase runs twice first, traced: numpy.random imports
        # lazily on its first draw in the process, substream labels are
        # cached on first use, and numpy and Python keep freed small
        # blocks for reuse, which count as held once traced (after one
        # traced run, the next still left up to 2.4 kB more of them).
        for _ in range(2):
            run_quantum_phase(config, RandomSource(config.seed))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        records = run_quantum_phase(config, RandomSource(config.seed))
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return records, held, peak


def ideal_config(n_pulses, seed, **kwargs):
    return SessionConfig(
        n_pulses=n_pulses,
        source=kwargs.pop("source", ConstantSource(1)),
        channel=kwargs.pop("channel", FiberChannel(0.0)),
        detectors=kwargs.pop("detectors", DetectorPair(1.0, 0.0)),
        seed=seed,
        **kwargs,
    )


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_config(0, 1)
        with pytest.raises(ValueError):
            ideal_config(10, 1, sample_fraction=0.0)
        with pytest.raises(ValueError):
            ideal_config(10, 1, sample_fraction=1.0)
        with pytest.raises(ValueError):
            ideal_config(10, 1, security_margin_bits=-1)
        with pytest.raises(ValueError):
            ideal_config(10, 1, auth_pool_bits=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_pulses", 2000.5), ("n_pulses", True), ("auth_pool_bits", 600.5),
        ("auth_pool_bits", np.True_), ("security_margin_bits", 3.5),
        ("security_margin_bits", False), ("seed", 1.5), ("seed", True),
        ("seed", "1")])
    def test_non_integer_counts_refused(self, field, value):
        # Unrefused, a fractional pulse count or auth pool dies
        # mid-session inside numpy, a fractional margin runs silently
        # and seed 1.5 runs as seed 1.
        with pytest.raises(ValueError, match=field):
            ideal_config(**{"n_pulses": 2000, "seed": 1, field: value})

    def test_numpy_integer_counts_accepted(self):
        config = ideal_config(np.int64(40), np.uint64(2**63),
                              security_margin_bits=np.int32(0),
                              auth_pool_bits=np.int64(512))
        assert run_session(config).pulses_sent == 40

    def test_frozen(self):
        config = ideal_config(10, 1)
        with pytest.raises(Exception):
            config.seed = 2


class TestQuantumPhase:
    def test_ideal_setup_every_pulse_clicks(self):
        records = run_quantum_phase(ideal_config(5000, 401),
                                    RandomSource(401))
        assert len(records) == 5000
        assert np.array_equal(records.indices, np.arange(5000))
        matched = records.alice_bases == records.bob_bases
        assert np.array_equal(records.click_bits[matched],
                              records.alice_bits[matched])

    def test_deterministic(self):
        config = ideal_config(10_000, 402, source=SourceModel(0.2),
                              channel=FiberChannel(12.0, 0.2, 0.01),
                              detectors=DetectorPair(0.4, 1e-4))
        a = run_quantum_phase(config, RandomSource(config.seed))
        b = run_quantum_phase(config, RandomSource(config.seed))
        assert a.n == b.n == 10_000
        for name in ("indices", "alice_bits", "alice_bases", "bob_bases",
                     "click_bits"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_click_rate_compound_oracle(self):
        # 1 - exp(-mu p eta)(1 - d)^2 within 10% relative at 4e5 pulses.
        mu, eff, dark = 0.2, 0.3, 1e-4
        channel = FiberChannel(25.0)
        config = ideal_config(400_000, 403, source=SourceModel(mu),
                              channel=channel,
                              detectors=DetectorPair(eff, dark))
        records = run_quantum_phase(config, RandomSource(config.seed))
        p = survival_probability(channel)
        want = 1.0 - math.exp(-mu * p * eff) * (1.0 - dark) ** 2
        got = len(records.indices) / len(records)
        assert abs(got - want) / want < 0.10

    def test_double_click_resolution_default(self):
        # Every gate clicks, and the wrong detector's dark count (1%)
        # makes a double click, kept with a random bit: the sifted key
        # errs at 0.005, at Alice's zeros and ones alike. A double click
        # left at bit 0 would err only where Alice sent a one.
        config = ideal_config(100_000, 405, detectors=DetectorPair(1.0, 0.01))
        records = run_quantum_phase(config, RandomSource(config.seed))
        assert np.array_equal(records.indices, np.arange(100_000))
        sifted = sift(records)
        wrong = sifted.alice_bits != sifted.bob_bits
        assert abs(wrong.mean() - 0.005) \
            <= 4 * math.sqrt(0.005 * 0.995 / len(sifted))
        assert set(sifted.alice_bits[wrong].tolist()) == {0, 1}

    @pytest.mark.parametrize("mu, km, eve", [
        (0.5, 40.0, PhotonNumberSplit()),
        (0.1, 20.0, InterceptResend(0.15)),
        (0.5, 40.0, NoAttack()),
    ], ids=["pns", "intercept-resend", "no-eve"])
    def test_memory_budget_per_pulse(self, mu, km, eve):
        # On these links 2-8% of gates click. The source draws only the
        # pulses that keep a photon (7.6%, 3.9% and 7.6%): a uint32
        # index and a one-byte count each, two copies while they are
        # joined. With Eve each also holds two int64s while she acts
        # (its lost photons and its photon number) and her ledger 24 B
        # per split pulse, so her budget counts 9 B for every pulse
        # with photons (39% and 9.5%), as when she acted on all of them.
        # With the detector's arrays over the clicks (20 B each) and the
        # temporaries of one window (12 B per event of WINDOW) they fit
        # in 9 B per pulse counted + 20 B per click + 12 B x WINDOW,
        # under 6 B/pulse on each link. An n-long byte array does not
        # fit; the records returned hold 12 B per click.
        n = 200_000
        config = ideal_config(n, 406, source=SourceModel(mu),
                              channel=FiberChannel(km), eve=eve)
        records, held, peak = traced_phase(config)
        assert len(records) == n
        clicks = len(records.indices)
        assert 0 < clicks < n / 10
        caught = 1.0 if eve != NoAttack() else survival_probability(
            config.channel) * config.detectors.efficiency
        drawn = n * -math.expm1(-mu * caught)
        budget = 9 * drawn + 20 * clicks + 12 * WINDOW
        assert budget <= 6 * n
        assert peak <= budget, f"{peak / n:.2f} B/pulse, budget " \
            f"{budget / n:.2f}"
        # what the phase leaves behind is its records, O(clicks)
        assert held <= 12 * clicks + 4096, f"{held / clicks:.1f} B/click"

    @pytest.mark.parametrize("efficiency, dark, flip", [
        (1.0, 0.0, 0.0),
        (0.8, 1e-5, 0.01),
    ], ids=["ideal-detectors", "metro-key-link"])
    def test_memory_budget_at_high_click_rates(self, efficiency, dark, flip):
        # 5 km at mu 0.5, no Eve: 27-33% of gates click, and nearly
        # every pulse the source draws clicks. At its peak the phase
        # holds, per click, the drawn pulse (5 B), the gates as uint32
        # and as int64 (12 B), the detector flags and the kinds (about
        # 3 B), plus the temporaries of one window: 20 B per click + 12
        # B x WINDOW holds that, under the 3 B/pulse + 32 B/click of the
        # per-pulse phase. One more int64 array over the clicks (2.2-2.6
        # B/pulse here) does not fit.
        n = 200_000
        config = ideal_config(n, 406, source=SourceModel(0.5),
                              channel=FiberChannel(5.0, 0.2, flip),
                              detectors=DetectorPair(efficiency, dark))
        records, held, peak = traced_phase(config)
        clicks = len(records.indices)
        assert n / 4 < clicks < n / 2
        budget = 20 * clicks + 12 * WINDOW
        assert budget <= 3 * n + 32 * clicks
        assert peak <= budget, f"{peak / clicks:.1f} B/click, {clicks} clicks"
        assert held <= 12 * clicks + 4096, f"{held / clicks:.1f} B/click"

    @pytest.mark.parametrize("eve", [NoAttack(), PhotonNumberSplit(),
                                     InterceptResend(0.5)], ids=repr)
    def test_records_hold_bytes_per_click(self, eve):
        # One int64 index and four one-byte fields per clicked gate, and
        # no array n long.
        config = ideal_config(300_000, 409, source=SourceModel(0.1),
                              channel=FiberChannel(50.0),
                              detectors=DetectorPair(0.1, 1e-5), eve=eve)
        records = run_quantum_phase(config, RandomSource(config.seed))
        arrays = [records.indices, records.alice_bits, records.alice_bases,
                  records.bob_bases, records.click_bits]
        clicks = len(records.indices)
        assert 0 < clicks < len(records) / 100
        assert all(len(a) == clicks for a in arrays)
        assert sum(a.nbytes for a in arrays) == 12 * clicks


DENSE_FIELDS = ("alice_bits", "alice_bases", "bob_bases", "click_bits")


class TestPerClickRecordsMatchDense:
    """The phase keeps only the pulses with photons and the gates that
    clicked; the dense phase keeps every pulse, with the same draws in
    pulse order. At every gate that clicked the records must agree,
    there must be no other entry, and Eve's ledger must hold the same
    rows."""

    @given(n=st.one_of(st.integers(1, 7), st.integers(8, 3000)),
           mu=st.one_of(st.sampled_from([0.0, 0.1, 0.5]),
                        st.floats(0.0, 3.0)),
           km=st.one_of(st.sampled_from([0.0, 50.0]), st.floats(0.0, 100.0)),
           efficiency=st.one_of(st.sampled_from([0.0, 1.0]),
                                st.floats(0.0, 1.0)),
           dark=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),
           flip=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
           eve=st.one_of(st.just(NoAttack()), st.just(PhotonNumberSplit()),
                         st.floats(0.0, 1.0).map(InterceptResend)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3 * 16_384 + 5, mu=0.5, km=10.0, efficiency=0.3,
             dark=1e-2, flip=0.05, eve=InterceptResend(0.4), seed=3)
    @example(n=2 * 16_384 - 1, mu=1.5, km=0.0, efficiency=1.0,
             dark=1e-3, flip=0.0, eve=PhotonNumberSplit(), seed=4)
    @example(n=16_384 + 3, mu=0.1, km=25.0, efficiency=0.1, dark=1e-4,
             flip=0.01, eve=NoAttack(), seed=5)
    # more pulses with photons than two windows
    @example(n=8 * 16_384 + 9, mu=0.3, km=5.0, efficiency=0.5,
             dark=1e-3, flip=0.02, eve=InterceptResend(0.1), seed=6)
    # splitting where photons are lost and dark counts click at pulses
    # that kept none
    @example(n=2 * 16_384 + 7, mu=0.8, km=30.0, efficiency=0.2,
             dark=5e-3, flip=0.01, eve=PhotonNumberSplit(), seed=7)
    # nothing lost (eta = 1): Eve's lost draws are zeros, her photon
    # always a kept one, and the gates that clicked on dark counts alone
    # still go through her
    @example(n=3000, mu=0.5, km=0.0, efficiency=1.0, dark=1e-2,
             flip=0.0, eve=PhotonNumberSplit(), seed=8)
    @example(n=3000, mu=0.5, km=0.0, efficiency=1.0, dark=1e-2,
             flip=0.02, eve=InterceptResend(0.5), seed=9)
    def test_records_and_ledger_match_dense(self, n, mu, km, efficiency,
                                            dark, flip, eve, seed):
        config = SessionConfig(n, SourceModel(mu), FiberChannel(km, 0.2, flip),
                               DetectorPair(efficiency, dark), seed, eve=eve)
        ledger, dense_ledger = EveLedger(), EveLedger()
        records = run_quantum_phase(config, RandomSource(seed), ledger)
        dense = dense_quantum_phase(config, RandomSource(seed), dense_ledger)
        assert len(records) == n
        clicked = np.flatnonzero(dense.kinds)
        assert records.indices.dtype == np.int64
        assert np.array_equal(records.indices, clicked)
        for name in DENSE_FIELDS:
            got, want = getattr(records, name), getattr(dense, name)[clicked]
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for rows in ("stored", "measured"):
            got, want = getattr(ledger, rows), getattr(dense_ledger, rows)
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestPulseRecords:
    def make(self):
        # three pulses: 0 and 2 clicked, 1 did not
        return PulseRecords(
            3, np.array([0, 2]), np.array([0, 1], np.uint8),
            np.array([0, 0], np.uint8), np.array([0, 1], np.uint8),
            np.array([1, 0], np.uint8))

    def test_indexing(self):
        records = self.make()
        assert len(records) == 3
        assert records.alice_bits[0] == 0 and records.click_bits[0] == 1
        assert 1 not in records.indices
        assert list(records.alice_bases_at(np.array([2]))) == [0]


class TestSift:
    def test_empty_input(self):
        assert len(sift(PulseRecords(0, np.zeros(0, np.int64),
                                     *(np.zeros(0, np.uint8)
                                       for _ in range(4))))) == 0

    def test_keeps_only_matched_clicks(self):
        records = PulseRecords(
            3, np.array([0, 1]),
            np.array([1, 1], np.uint8),
            np.array([0, 0], np.uint8),
            np.array([0, 1], np.uint8),
            np.array([1, 0], np.uint8))
        sifted = sift(records)
        # index 0: click + matched; 1: click + mismatched; 2: no click.
        assert list(sifted.source_indices) == [0]
        assert list(sifted.alice_bits) == [1]
        assert list(sifted.bob_bits) == [1]

    def test_ratio_is_half(self):
        records = run_quantum_phase(ideal_config(100_000, 406),
                                    RandomSource(406))
        assert abs(len(sift(records)) / 100_000 - 0.5) < 0.005

    def test_indices_strictly_increasing(self):
        records = run_quantum_phase(ideal_config(50_000, 407),
                                    RandomSource(407))
        sifted = sift(records)
        assert np.all(np.diff(sifted.source_indices) > 0)

    def test_selection_ignores_bit_values(self):
        # Sifting must depend only on click positions and announced
        # bases, never on the measured bits themselves.
        records = run_quantum_phase(ideal_config(10_000, 408),
                                    RandomSource(408))
        stripped = PulseRecords(records.n, records.indices,
                                records.alice_bits, records.alice_bases,
                                records.bob_bases,
                                np.zeros_like(records.click_bits))
        assert np.array_equal(sift(records).source_indices,
                              sift(stripped).source_indices)

    def test_sifted_keys_validation(self):
        with pytest.raises(ValueError):
            SiftedKeys(np.zeros(2, np.uint8), np.zeros(3, np.uint8),
                       np.arange(2))
        with pytest.raises(ValueError):
            SiftedKeys(np.zeros(2, np.uint8), np.zeros(2, np.uint8),
                       np.array([5, 5]))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64])
    @pytest.mark.parametrize("indices", [[5, 3], [5, 5], [1, 4, 2]])
    def test_sifted_keys_refuse_unordered_indices_of_any_dtype(self, indices,
                                                               dtype):
        # np.diff of unsigned indices wraps: [5, 3] as uint32 gave a
        # difference of 2^32 - 2 and was taken as increasing.
        zeros = np.zeros(len(indices), np.uint8)
        with pytest.raises(ValueError, match="strictly increasing"):
            SiftedKeys(zeros, zeros, np.array(indices, dtype=dtype))
        assert len(SiftedKeys(zeros, zeros,
                              np.arange(len(indices), dtype=dtype))) \
            == len(indices)


class TestEstimateQber:
    def make_sifted(self, n, n_errors, seed):
        rand = RandomSource(seed)
        alice = rand.bits(n)
        bob = alice.copy()
        if n_errors:
            bob[rand.sample_indices(n, n_errors)] ^= 1
        return SiftedKeys(alice, bob, np.arange(n, dtype=np.int64))

    def test_identical_keys_estimate_zero(self):
        est = estimate_qber(self.make_sifted(1000, 0, 410), 0.1,
                            RandomSource(1))
        assert est.e_hat == 0.0
        assert len(est.sample_positions) == 100
        assert len(est.remaining) == 900

    def test_sample_removed_from_remaining(self):
        sifted = self.make_sifted(500, 25, 411)
        est = estimate_qber(sifted, 0.2, RandomSource(2))
        sample = set(int(i) for i in est.sample_positions)
        kept = set(int(i) for i in est.remaining.source_indices)
        assert len(sample) == len(est.sample_positions) == 100
        assert sample.isdisjoint(kept)
        assert len(kept) + len(sample) == 500

    def test_sample_bits_match_positions(self):
        sifted = self.make_sifted(300, 30, 412)
        est = estimate_qber(sifted, 0.1, RandomSource(3))
        rel = est.sample_positions
        assert np.array_equal(est.alice_sample, sifted.alice_bits[rel])
        assert np.array_equal(est.bob_sample, sifted.bob_bits[rel])
        assert est.e_hat == float(np.mean(est.alice_sample
                                          != est.bob_sample))

    def test_empty_sifted_key_raises(self):
        empty = SiftedKeys(np.zeros(0, np.uint8), np.zeros(0, np.uint8),
                           np.zeros(0, np.int64))
        with pytest.raises(EmptySample):
            estimate_qber(empty, 0.1, RandomSource(4))

    def test_fraction_validated(self):
        sifted = self.make_sifted(100, 0, 413)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                estimate_qber(sifted, bad, RandomSource(5))

    def test_fraction_refusal_is_the_configs_rule(self):
        assert SessionConfig.RULES["sample_fraction"] is FRACTION
        sifted = self.make_sifted(100, 0, 413)
        with pytest.raises(ValueError) as exc_info:
            estimate_qber(sifted, math.nan, RandomSource(5))
        assert str(exc_info.value) \
            == f"fraction must be {FRACTION.wording}, got nan"

    def test_estimator_unbiased(self):
        # 100 independent samplings of a key with exactly 10% errors:
        # the mean estimate lands within 0.005 of the truth.
        sifted = self.make_sifted(5000, 500, 414)
        estimates = [estimate_qber(sifted, 0.1, RandomSource(1000 + t)).e_hat
                     for t in range(100)]
        assert abs(float(np.mean(estimates)) - 0.1) < 0.005

    def test_single_bit_key_samples_it(self):
        sifted = SiftedKeys(np.array([1], np.uint8), np.array([1], np.uint8),
                            np.array([0], np.int64))
        est = estimate_qber(sifted, 0.1, RandomSource(6))
        assert len(est.sample_positions) == 1
        assert len(est.remaining) == 0


class TestDarkNoiseFloor:
    def test_dark_only_key_is_uncorrelated(self):
        # With an empty source every click is a dark count, so Bob's
        # sifted bits carry no signal: error rate 1/2.
        config = ideal_config(4_000_000, 415, source=SourceModel(0.0),
                              detectors=DetectorPair(1.0, 1e-3))
        sifted = sift(run_quantum_phase(config, RandomSource(config.seed)))
        assert len(sifted) > 2000
        qber = float(np.mean(sifted.alice_bits != sifted.bob_bits))
        assert abs(qber - 0.5) < 0.02


class TestRunSession:
    def test_ideal_session_succeeds(self):
        report = run_session(ideal_config(40_000, 305))
        assert report.outcome == SessionOutcome.SUCCESS
        assert report.e_hat == 0.0
        assert report.eve_info_fraction == 0.0
        assert report.final_len > 0
        assert len(report.secret_key) == report.final_len
        assert report.auth_bits_consumed == 384
        assert report.secret_growth == report.final_len - 384

    def test_accounting_identity(self):
        # final = floor(n_rem - n_rem h(e) - leak - margin) with n_rem
        # the post-sample key length; every term is in the report.
        report = run_session(ideal_config(
            40_000, 416, channel=FiberChannel(5.0, 0.2, 0.02),
            detectors=DetectorPair(0.5, 1e-4)))
        assert report.outcome == SessionOutcome.SUCCESS
        n_rem = report.sifted_len - math.ceil(0.1 * report.sifted_len)
        want = math.floor(n_rem - n_rem * binary_entropy(report.e_hat)
                          - report.leak_ec_bits - 30)
        assert report.final_len == want

    def test_monotone_counters(self):
        report = run_session(ideal_config(
            100_000, 417, source=SourceModel(0.1),
            channel=FiberChannel(15.0, 0.2, 0.01),
            detectors=DetectorPair(0.2, 1e-5)))
        assert report.pulses_sent == 100_000
        assert report.pulses_sent >= report.clicks >= report.raw_len
        assert report.raw_len >= report.sifted_len
        assert report.sifted_len > report.final_len >= 0

    def test_full_intercept_aborts(self):
        report = run_session(ideal_config(
            30_000, 418, eve=InterceptResend(1.0)))
        assert report.outcome == SessionOutcome.ABORT_QBER
        assert report.e_hat >= AttackModel.COHERENT.qber_threshold
        assert report.final_len == 0
        assert report.secret_key is None
        assert report.auth_bits_consumed == 256
        assert report.secret_growth == -256
        assert report.eve_info_fraction > 0.4

    def test_individual_model_grants_eve_less_at_low_error(self):
        # 12.5% intercept fraction sits near 3.1% error: accepted under
        # both models. The individual-attack bound charges less there
        # (its cutoff is 14.6% vs 11.0%), so it distills a longer key.
        coherent = run_session(ideal_config(
            60_000, 419, eve=InterceptResend(0.125)))
        individual = run_session(ideal_config(
            60_000, 419, eve=InterceptResend(0.125),
            attack_model=AttackModel.INDIVIDUAL))
        assert coherent.outcome == SessionOutcome.SUCCESS
        assert individual.outcome == SessionOutcome.SUCCESS
        assert individual.final_len > coherent.final_len

    def test_empty_sample_aborts_early(self):
        report = run_session(ideal_config(
            50, 302, detectors=DetectorPair(0.0, 0.0)))
        assert report.outcome == SessionOutcome.ABORT_QBER
        assert math.isnan(report.e_hat)
        assert report.sifted_len == 0
        assert report.auth_bits_consumed == 192
        assert report.secret_growth == -192

    def test_reconciliation_floor_has_one_home(self):
        # the session skips reconciliation below the floor that
        # error_correct itself refuses
        assert MIN_RECONCILE_BITS is postprocess.MIN_RECONCILE_BITS
        short = np.zeros(MIN_RECONCILE_BITS - 1, np.uint8)
        with pytest.raises(ValueError, match=f"{MIN_RECONCILE_BITS} bits"):
            postprocess.error_correct(short, short, 0.01, RandomSource(1))
        full = np.zeros(MIN_RECONCILE_BITS, np.uint8)
        assert postprocess.error_correct(full, full, 0.01,
                                         RandomSource(1)).verified

    def test_short_key_succeeds_without_output(self):
        report = run_session(ideal_config(20, 301))
        assert report.outcome == SessionOutcome.SUCCESS
        assert report.sifted_len < MIN_RECONCILE_BITS + 3
        assert report.final_len == 0
        assert report.secret_key is None
        assert report.auth_bits_consumed == 320

    def test_reconciliation_failure_path(self, monkeypatch):
        # Force the verification hash to fail: the session must report
        # the abort, charge the full five-message budget, and produce
        # nothing.
        import qkdsim.protocol as protocol

        def always_fails(alice_key, bob_key, e_hat, public_coins, **kwargs):
            transcript = np.ones(70, dtype=np.uint8)
            raise ReconciliationFailure(CorrectionResult(
                np.array(bob_key, dtype=np.uint8), len(transcript), False,
                transcript))

        monkeypatch.setattr(protocol, "error_correct", always_fails)
        report = run_session(ideal_config(10_000, 420))
        assert report.outcome == SessionOutcome.ABORT_RECONCILIATION
        assert report.final_len == 0
        assert report.secret_key is None
        assert report.leak_ec_bits == 70
        assert report.auth_bits_consumed == 384
        assert report.secret_growth == -384

    def test_memory_budget_per_click(self):
        # Every pulse clicks. The quantum phase peaks within 20 B a click
        # + 12 B x WINDOW (test_memory_budget_at_high_click_rates), and
        # message 1 holds the 12-B records, their 4-B positions and its
        # 5-B payload. The sifted key and the sample are gone before
        # Cascade, and the records and Bob's key before privacy
        # amplification (16 B per FFT point, about 0.45 points a click
        # here). The peak was 23 B a click; with the records, the sifted
        # key and the sample held to the end and PA at the power of two
        # it was 49 B.
        config = ideal_config(100_000, 17)
        run_session(config)  # warm caches
        tracemalloc.start()
        try:
            report = run_session(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.outcome is SessionOutcome.SUCCESS
        assert report.clicks == 100_000 and report.final_len > 40_000
        assert peak <= 28 * report.clicks + 12 * WINDOW, \
            f"{peak / report.clicks:.1f} B/click"

    def test_deterministic_including_secret_bits(self):
        config = ideal_config(30_000, 421, source=SourceModel(0.15),
                              channel=FiberChannel(8.0, 0.2, 0.01),
                              detectors=DetectorPair(0.4, 1e-4))
        a = run_session(config)
        b = run_session(config)
        assert a.outcome == b.outcome
        assert a.final_len == b.final_len
        assert a.e_hat == b.e_hat
        assert a.leak_ec_bits == b.leak_ec_bits
        assert np.array_equal(a.secret_key.bits, b.secret_key.bits)

    def test_different_seeds_different_keys(self):
        base = dict(source=ConstantSource(1), channel=FiberChannel(0.0),
                    detectors=DetectorPair(1.0, 0.0))
        a = run_session(SessionConfig(n_pulses=10_000, seed=1, **base))
        b = run_session(SessionConfig(n_pulses=10_000, seed=2, **base))
        n = min(len(a.secret_key), len(b.secret_key))
        assert not np.array_equal(a.secret_key.bits[:n],
                                  b.secret_key.bits[:n])

    @given(n=st.integers(1, 5000),
           mu=st.one_of(st.just(0.5), st.floats(0.0, 3.0)),
           km=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
           efficiency=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
           dark=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)),
           flip=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
           eve=st.one_of(st.just(NoAttack()), st.just(PhotonNumberSplit()),
                         st.floats(0.0, 1.0).map(InterceptResend)),
           fraction=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**32 - 1))
    def test_accounting_holds_for_any_config(self, n, mu, km, efficiency,
                                             dark, flip, eve, fraction,
                                             seed):
        report = run_session(SessionConfig(
            n, SourceModel(mu), FiberChannel(km, 0.2, flip),
            DetectorPair(efficiency, dark), seed, eve=eve,
            sample_fraction=fraction))
        assert report.secret_growth == \
            report.final_len - report.auth_bits_consumed
        key_len = 0 if report.secret_key is None else len(report.secret_key)
        assert key_len == report.final_len
        assert report.sifted_len <= report.raw_len == report.clicks \
            <= report.pulses_sent == n
        assert report.final_len <= report.sifted_len
        # 128 bits for the first tag, 64 for each later one: two
        # messages at an empty sample, three at an error-rate abort,
        # four when the key is too short to reconcile, five otherwise
        n_rem = report.sifted_len - math.ceil(fraction * report.sifted_len)
        if math.isnan(report.e_hat):
            messages = 2
        elif report.outcome is SessionOutcome.ABORT_QBER:
            messages = 3
        else:
            messages = 4 if n_rem < MIN_RECONCILE_BITS else 5
        assert report.auth_bits_consumed == 128 + 64 * (messages - 1)

    @pytest.mark.parametrize("eve", [NoAttack(), PhotonNumberSplit(),
                                     InterceptResend(0.1)],
                             ids=strategy_label)
    def test_identical_across_chunk_sizes(self, eve, monkeypatch):
        # Per-event draws run WINDOW values at a time; the window must
        # move no value. photonics holds its own copy of the name.
        config = SessionConfig(60_000, SourceModel(0.5),
                               FiberChannel(5.0, 0.2, 0.01),
                               DetectorPair(0.5, 1e-3), 422, eve=eve)

        def outputs():
            report = run_session(config)
            return (dataclasses.replace(report, secret_key=None),
                    report.secret_key.bits.tolist()
                    if report.secret_key is not None else None)

        want = outputs()
        assert want[1]  # a key to compare
        for chunk in (7, 64, 1000, 65_536):
            monkeypatch.setattr(rng, "WINDOW", chunk)
            monkeypatch.setattr(photonics, "WINDOW", chunk)
            assert outputs() == want, chunk

    def test_session_outcome_wire_values(self):
        assert SessionOutcome.SUCCESS.value == "Success"
        assert SessionOutcome.ABORT_QBER.value == "AbortQber"
        assert SessionOutcome.ABORT_RECONCILIATION.value == \
            "AbortReconciliation"
