"""Physical-layer models against analytic oracles.

Empirical distributions are compared to closed-form Poisson/binomial
probabilities computed independently (math/scipy), with tolerances
stated next to each check. The kernels hold only the pulses with
photons (:class:`Pulses`) and read bits where they are needed
(:class:`PulseBits`); the helpers below spread them over every pulse.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from qkdsim.adversary import (EveLedger, InterceptResend, PhotonNumberSplit,
                              intercept_batch)
from qkdsim import photonics, rng
from qkdsim.photonics import (DARK, FLIP, MAX_MU, ZTP_TABLE_MU, Basis,
                              ClickKind, ConstantSource, DetectorPair,
                              FiberChannel, PulseBits, Pulses, SourceModel,
                              measure_batch, sample_photon_counts,
                              survival_probability, transmit_counts)
from qkdsim.rng import RandomSource

from reference_kernels import (dense_intercept_batch, dense_measure_batch,
                               dense_transmit_counts)


def as_pulses(counts):
    """Pulses holding the non-zero entries of a dense count array."""
    counts = np.asarray(counts)
    at = np.flatnonzero(counts)
    return Pulses(len(counts), at.astype(np.uint32), counts[at])


def dense(pulses):
    """The photon count of every pulse, 0 where none is held."""
    out = np.zeros(len(pulses), pulses.counts.dtype)
    out[pulses.indices] = pulses.counts
    return out


def as_bits(values):
    """PulseBits that read ``values[i]`` at pulse i."""
    values = np.asarray(values, np.uint8)
    return PulseBits(RandomSource(0), np.arange(len(values)), values)


def measure(photon_counts, bits, bases, bob_bases, dark_count_prob,
            flip_prob, rand):
    """measure_batch on dense counts, bits and bases, its per-click
    outputs spread back over every gate: (kinds, click_bits), 0 where no
    detector fired. Checks the per-click contract on the way."""
    kinds, click_bits, indices = measure_batch(
        as_pulses(photon_counts), *(as_bits(a) for a in (bits, bases,
                                                         bob_bases)),
        dark_count_prob, flip_prob, rand)
    assert kinds.dtype == click_bits.dtype == np.uint8
    assert indices.dtype == np.int64
    assert len(kinds) == len(click_bits) == len(indices)
    assert np.all(np.diff(indices) > 0) and np.all(kinds > 0)
    assert np.all(click_bits[kinds != ClickKind.CLICK] == 0)
    n = len(photon_counts)
    assert len(indices) == 0 or 0 <= indices[0] <= indices[-1] < n
    all_kinds, all_bits = np.zeros(n, np.uint8), np.zeros(n, np.uint8)
    all_kinds[indices], all_bits[indices] = kinds, click_bits
    return all_kinds, all_bits


class TestTypes:
    def test_basis_values(self):
        assert int(Basis.RECTILINEAR) == 0
        assert int(Basis.DIAGONAL) == 1
        assert len(Basis) == 2

    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceModel(-0.1)
        with pytest.raises(ValueError):
            ConstantSource(-1)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            FiberChannel(-1.0)
        with pytest.raises(ValueError):
            FiberChannel(1.0, excess_flip_prob=0.6)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorPair(efficiency=1.5)
        with pytest.raises(ValueError):
            DetectorPair(dark_count_prob=1.0)

    @pytest.mark.parametrize("make, args", [
        (SourceModel, (math.nan,)), (SourceModel, (math.inf,)),
        (SourceModel, (1e19,)), (ConstantSource, (1.5,)), (ConstantSource, (True,)),
        (ConstantSource, (np.True_,)), (ConstantSource, ("1",)),
        (FiberChannel, (math.nan,)), (FiberChannel, (1.0, math.nan)),
        (FiberChannel, (math.inf,)), (FiberChannel, (0.0, math.inf)),
        (SourceModel, (True,)), (FiberChannel, (True,)),
        (FiberChannel, (1.0, np.True_)), (DetectorPair, (True, False)),
        (DetectorPair, (0.5, False)), (InterceptResend, (True,)),
    ], ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_bad_physics_refused_at_construction(self, make, args):
        # Unrefused, NaN, infinite or huge mu and fiber values fail
        # mid-session inside numpy, a fractional photon count is
        # truncated, and a bool passes for 0 or 1.
        with pytest.raises(ValueError):
            make(*args)

    def test_mu_up_to_numpys_poisson_limit(self):
        for mu in (9e18, MAX_MU):
            counts = sample_photon_counts(SourceModel(mu), 3,
                                          RandomSource(1)).counts
            assert counts.dtype == np.int64 and counts.min() > 2**62
        with pytest.raises(ValueError):
            SourceModel(np.nextafter(MAX_MU, math.inf))

    def test_integer_photon_counts_accepted(self):
        assert ConstantSource(np.int64(2)).photon_count == 2
        assert ConstantSource(0).photon_count == 0

    def test_click_outcome(self):
        # A gate's kind is the number of detectors that fired; only a
        # single click carries a bit. Forty photons in the wrong basis
        # reach both detectors (all in one has probability 2^-39).
        assert [int(k) for k in ClickKind] == [0, 1, 2]
        kinds, click_bits = measure(
            np.array([0, 1, 40]), np.array([1, 1, 1], np.uint8),
            np.array([0, 0, 0], np.uint8), np.array([0, 0, 1], np.uint8),
            0.0, 0.0, RandomSource(1))
        assert list(kinds) == [ClickKind.NO_CLICK, ClickKind.CLICK,
                               ClickKind.DOUBLE_CLICK]
        assert list(click_bits) == [0, 1, 0]


def draw(source, n, seed):
    """sample_photon_counts spread over every pulse, checking the
    Pulses contract on the way."""
    pulses = sample_photon_counts(source, n, RandomSource(seed))
    assert len(pulses) == n and len(pulses.indices) == len(pulses.counts)
    assert pulses.indices.dtype == np.uint32
    assert np.all(np.diff(pulses.indices.astype(np.int64)) > 0)
    assert np.all(pulses.counts > 0)
    return dense(pulses)


class TestSource:
    def test_faint_pulse_probabilities(self):
        # mu = 0.1: P(0) = 0.9048, P(1) = 0.0905, P(>=2) = 0.0047,
        # each within +-0.002 at 10^6 draws.
        draws = draw(SourceModel(0.1), 10**6, 1)
        assert abs((draws == 0).mean() - 0.9048) < 0.002
        assert abs((draws == 1).mean() - 0.0905) < 0.002
        assert abs((draws >= 2).mean() - 0.0047) < 0.002

    def test_zero_mean_is_always_empty(self):
        draws = draw(SourceModel(0.0), 10_000, 1)
        assert np.all(draws == 0)

    def test_unit_mean_moments(self):
        # Empirical mean/variance vs analytic Poisson moments (both 1.0).
        draws = draw(SourceModel(1.0), 10**6, 2)
        assert abs(draws.mean() - 1.0) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    @pytest.mark.parametrize("mu", [0.05, 0.1, 0.5])
    def test_distribution_matches_poisson_within_5_sigma(self, mu):
        n = 10**6
        draws = draw(SourceModel(mu), n, 3)
        for k in range(5):
            p = math.exp(-mu) * mu**k / math.factorial(k)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs((draws == k).mean() - p) <= 5 * sigma

    @pytest.mark.parametrize("mu", [0.1, 0.5, 5.0, ZTP_TABLE_MU,
                                    ZTP_TABLE_MU + 4.0, 40.0])
    def test_zero_truncated_poisson_pmf(self, mu):
        # The photon numbers of the non-empty pulses against the closed
        # form P(k) = mu^k e^-mu / (k! (1 - e^-mu)), k >= 1, within 5
        # sigma at 2e5 pulses, by the table below ZTP_TABLE_MU and by
        # Poisson draws with zeros drawn again above it.
        pulses = sample_photon_counts(SourceModel(mu), 200_000,
                                      RandomSource(4))
        counts, m = pulses.counts, len(pulses.counts)
        assert counts.min() >= 1 and counts.dtype == np.uint8
        for k in range(1, int(mu + 4 * math.sqrt(mu)) + 2):
            p = math.exp(k * math.log(mu) - mu - math.lgamma(k + 1)) \
                / -math.expm1(-mu)
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs((counts == k).mean() - p) <= 5 * sigma + 1e-12, k

    def test_ztp_table_is_a_distribution(self):
        # ascending, ending at 1, P(K = 1) first, for means up to the bound
        for mu in (1e-300, 1e-9, 0.1, 0.5, 5.0, ZTP_TABLE_MU):
            cdf = photonics._ztp_cdf(mu)
            assert np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0
            assert cdf[0] == pytest.approx(mu / math.expm1(mu), rel=1e-12)
            assert len(cdf) < 255

    def test_zeros_drawn_again_above_the_table(self, monkeypatch):
        # with the table bound at 0, mu = 0.7 draws Poisson values, a
        # third of them zero; each zero is drawn again until it is not
        monkeypatch.setattr(photonics, "ZTP_TABLE_MU", 0.0)
        counts = sample_photon_counts(SourceModel(0.7), 50_000,
                                      RandomSource(5)).counts
        assert counts.min() >= 1
        p1 = 0.7 / math.expm1(0.7)
        assert abs((counts == 1).mean() - p1) \
            <= 5 * math.sqrt(p1 * (1 - p1) / len(counts))

    def test_detection_folded_into_the_source(self):
        # The fold run_quantum_phase makes with no Eve: Poisson(mu)
        # thinned by q has the law of Poisson(mu q). At mu 0.5, q 0.3
        # the thinned and the folded photon numbers (0, 1, 2, >= 3) pass
        # a chi-square test of homogeneity at significance 0.001, and
        # both put 1 - e^-0.15 of the pulses above 0 within 5 sigma.
        n, p = 10**6, -math.expm1(-0.15)
        thinned = dense(transmit_counts(
            sample_photon_counts(SourceModel(0.5), n, RandomSource(6)),
            0.3, RandomSource(7)))
        folded = draw(SourceModel(0.5 * 0.3), n, 8)
        table = [np.bincount(np.minimum(d, 3), minlength=4)
                 for d in (thinned, folded)]
        assert stats.chi2_contingency(table).pvalue > 0.001
        for d in (thinned, folded):
            assert abs((d > 0).mean() - p) \
                <= 5 * math.sqrt(p * (1 - p) / n)
        # a constant source is thinned, not folded: Binomial(2, 0.5)
        constant = dense(transmit_counts(
            sample_photon_counts(ConstantSource(2), 10**5, RandomSource(9)),
            0.5, RandomSource(10)))
        assert abs((constant > 0).mean() - 0.75) < 0.01
        assert constant.max() == 2

    def test_event_arrays_grow_past_their_room(self, monkeypatch):
        # The arrays are sized for ten sigma more events than expected;
        # with no sigma at all the room is exceeded, they grow, and the
        # pulses are the same.
        want = sample_photon_counts(SourceModel(0.5), 20_000,
                                    RandomSource(9))
        room = int(20_000 * -math.expm1(-0.5)) + 1
        assert len(want.indices) > room
        shim = types.SimpleNamespace(expm1=math.expm1, sqrt=lambda x: 0.0)
        monkeypatch.setattr(photonics, "math", shim)
        got = sample_photon_counts(SourceModel(0.5), 20_000, RandomSource(9))
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.counts, want.counts)

    def test_scalar_draw(self):
        assert list(draw(SourceModel(0.0), 1, 1)) == [0]
        assert list(draw(ConstantSource(3), 1, 1)) == [3]

    def test_constant_source_batch(self):
        assert np.all(draw(ConstantSource(2), 100, 1) == 2)
        assert len(sample_photon_counts(ConstantSource(0), 100,
                                        RandomSource(1)).indices) == 0

    @pytest.mark.parametrize("mu", [0.1, 0.5, 12.0])
    def test_poisson_counts_are_one_draw_in_one_byte(self, mu, monkeypatch):
        # Across window boundaries: the pulses and their counts are those
        # of one window, the counts stored as uint8.
        n = 2 * 16_384 + 17
        want = sample_photon_counts(SourceModel(mu), n, RandomSource(15))
        assert want.counts.dtype == np.uint8
        monkeypatch.setattr(rng, "WINDOW", 7)
        got = sample_photon_counts(SourceModel(mu), n, RandomSource(15))
        assert got.counts.dtype == np.uint8
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.counts, want.counts)

    def test_count_dtype_is_one_byte_up_to_255(self):
        for count, dtype in ((1, np.uint8), (255, np.uint8),
                             (256, np.int64)):
            counts = sample_photon_counts(ConstantSource(count), 3,
                                          RandomSource(1)).counts
            assert counts.dtype == dtype and list(counts) == [count] * 3
        empty = sample_photon_counts(SourceModel(0.5), 0, RandomSource(1))
        assert empty.counts.dtype == np.uint8 and len(empty.counts) == 0
        assert len(empty) == 0

    @pytest.mark.parametrize("n", [-5, 2.5, True])
    @pytest.mark.parametrize("source", [SourceModel(0.5), ConstantSource(1)],
                             ids=["poisson", "constant"])
    def test_pulse_count_refused_before_any_draw(self, source, n):
        # no stream to draw from: the check comes first
        with pytest.raises(ValueError, match="^n must be an integer >= 0"):
            sample_photon_counts(source, n, None)


class TestChannel:
    def test_survival_closed_form(self):
        # 0.2 dB/km: half the photons lost at 15 km, 99% at 100 km.
        assert survival_probability(FiberChannel(15.0, 0.2)) == \
            pytest.approx(0.5012, abs=1e-4)
        assert survival_probability(FiberChannel(100.0, 0.2)) == \
            pytest.approx(0.0100, abs=1e-4)
        assert survival_probability(FiberChannel(0.0, 7.7)) == 1.0
        assert survival_probability(FiberChannel(15.0, 0.2)) == \
            pytest.approx(10 ** -0.3, abs=1e-15)

    def test_empty_pulse_stays_empty(self):
        out = transmit_counts(as_pulses([0]), 0.5, RandomSource(1))
        assert list(dense(out)) == [0]

    def test_single_photon_survival_frequency(self):
        # Survival 0.5 (15 km @ 0.2 dB/km is 0.5012): empirical
        # frequency 0.50 +- 0.01 at 10^5 trials.
        channel = FiberChannel(15.0, 0.2)
        counts = dense(transmit_counts(as_pulses(np.ones(10**5, np.int64)),
                                       survival_probability(channel),
                                       RandomSource(4)))
        assert abs((counts == 1).mean() - 0.5012) < 0.01

    def test_thinned_poisson_is_poisson(self):
        # transmit(sample(mu)) should be Poisson(mu * p); chi-square at
        # significance 0.001 against the analytic pmf.
        mu, channel = 0.1, FiberChannel(15.0, 0.2)
        p = survival_probability(channel)
        n = 10**6
        rand = RandomSource(5)
        counts = dense(transmit_counts(
            sample_photon_counts(SourceModel(mu), n, rand), p, rand))
        lam = mu * p
        observed = np.bincount(np.minimum(counts, 3), minlength=4)
        expected = np.array([stats.poisson.pmf(k, lam) for k in range(3)])
        expected = np.append(expected, 1.0 - expected.sum()) * n
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_thinning_of_many_photons_is_binomial(self):
        # five photons at survival 0.3: Binomial(5, 0.3) survivors, the
        # first photon by a uniform and the other four by a binomial;
        # chi-square at significance 0.001
        n, p = 200_000, 0.3
        out = transmit_counts(as_pulses(np.full(n, 5, np.uint8)), p,
                              RandomSource(6))
        assert out.counts.dtype == np.uint8
        observed = np.bincount(dense(out), minlength=6)
        expected = stats.binom.pmf(np.arange(6), 5, p) * n
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_nonempty_rate_after_loss(self):
        # 1 - exp(-mu * p) with mu=0.1 through 15 km: about 0.0489.
        mu, channel = 0.1, FiberChannel(15.0, 0.2)
        rand = RandomSource(6)
        counts = dense(transmit_counts(
            sample_photon_counts(SourceModel(mu), 10**6, rand),
            survival_probability(channel), rand))
        want = 1.0 - math.exp(-mu * survival_probability(channel))
        assert abs((counts > 0).mean() - want) < 0.002

    def test_full_transmittance_draws_nothing(self):
        # at p = 1 every photon is kept, so the pulses pass as they are
        # and no stream is read (there is none to read here): what the
        # quantum phase thins by after it has folded the loss into a
        # Poisson source
        pulses = sample_photon_counts(SourceModel(0.5), 1000,
                                      RandomSource(7))
        assert transmit_counts(pulses, 1.0, None) is pulses

    @pytest.mark.parametrize("p", [1.5, True, math.nan, -0.1])
    def test_transmittance_refused_before_any_draw(self, p):
        # 1.5 and True once passed the pulses through as if lossless
        with pytest.raises(ValueError,
                           match=r"^p must be a number in \[0, 1\]"):
            transmit_counts(as_pulses([1, 2]), p, None)

    def test_one_rule_for_half_intervals(self):
        # the channel's flip probability and the security bound's error
        # rate share one [0, 0.5] rule
        assert FLIP is rng.HALF


class TestMeasurement:
    def test_ideal_matched_basis_is_lossless_and_exact(self):
        # efficiency 1, flip 0, dark 0, photon present: Click(alice_bit)
        # with probability exactly 1.
        n = 4000
        rand = RandomSource(7)
        bits = rand.bits(n)
        bases = rand.bits(n)
        kinds, click_bits = measure(
            np.ones(n, dtype=np.int64), bits, bases, bases.copy(),
            0.0, 0.0, rand)
        assert np.all(kinds == int(ClickKind.CLICK))
        assert np.array_equal(click_bits, bits)

    def test_mismatched_basis_is_uniform(self):
        n = 10**5
        rand = RandomSource(8)
        bits = rand.bits(n)
        bases = np.zeros(n, dtype=np.uint8)
        bob = np.ones(n, dtype=np.uint8)
        kinds, click_bits = measure(
            np.ones(n, dtype=np.int64), bits, bases, bob,
            0.0, 0.0, rand)
        assert np.all(kinds == int(ClickKind.CLICK))
        assert abs((click_bits == 0).mean() - 0.5) < 0.01

    def test_mismatched_basis_carries_zero_information(self):
        # Correlation between Alice's bit and Bob's click bit is 0 within
        # 3 sigma (sigma = 1/sqrt(n) for a correlation of iid +-1 pairs).
        n = 10**5
        rand = RandomSource(9)
        bits = rand.bits(n)
        kinds, click_bits = measure(
            np.ones(n, dtype=np.int64), bits, np.zeros(n, np.uint8),
            np.ones(n, np.uint8), 0.0, 0.0, rand)
        corr = np.corrcoef(bits, click_bits)[0, 1]
        assert abs(corr) < 3 / math.sqrt(n)

    def test_dark_counts_only(self):
        # No photons, dark 10^-3 per detector: click on exactly one
        # detector with prob 2d(1-d), both with prob d^2; within 3 sigma
        # at 10^7 gates.
        n, d = 10**7, 1e-3
        rand = RandomSource(10)
        kinds, _ = measure(
            np.zeros(n, dtype=np.int64), np.zeros(n, np.uint8),
            np.zeros(n, np.uint8), np.zeros(n, np.uint8),
            d, 0.0, rand)
        p_click = 2 * d * (1 - d)
        p_double = d * d
        for p, observed in [(p_click, (kinds == 1).mean()),
                            (p_double, (kinds == 2).mean())]:
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(observed - p) <= 3 * sigma

    def test_excess_flip_probability(self):
        # Matched basis with flip probability 0.1: click bit differs from
        # Alice's with frequency 0.1 +- 0.01.
        n = 10**5
        rand = RandomSource(11)
        bits = rand.bits(n)
        bases = rand.bits(n)
        kinds, click_bits = measure(
            np.ones(n, dtype=np.int64), bits, bases, bases.copy(),
            0.0, 0.1, rand)
        assert abs((click_bits != bits).mean() - 0.1) < 0.01

    def test_flip_prob_validated(self):
        with pytest.raises(ValueError):
            measure_batch(as_pulses([1]), *(as_bits([0]) for _ in range(3)),
                          0.0, 0.7, RandomSource(1))

    def test_flip_prob_refusal_is_the_channels_rule(self):
        # measure_batch takes the channel's excess_flip_prob, so it
        # checks it by the same rule, with the same wording
        assert FiberChannel.RULES["excess_flip_prob"] is FLIP
        with pytest.raises(ValueError) as exc_info:
            measure_batch(as_pulses([1]), *(as_bits([0]) for _ in range(3)),
                          0.0, True, RandomSource(1))
        assert str(exc_info.value) \
            == f"flip_prob must be {FLIP.wording}, got True"

    def test_dark_count_prob_refusal_is_the_detectors_rule(self):
        assert DetectorPair.RULES["dark_count_prob"] is DARK
        with pytest.raises(ValueError) as exc_info:
            measure_batch(as_pulses([1]), *(as_bits([0]) for _ in range(3)),
                          1.0, 0.0, RandomSource(1))
        assert str(exc_info.value) \
            == f"dark_count_prob must be {DARK.wording}, got 1.0"

    def test_scalar_measure_ideal(self):
        diagonal = np.array([Basis.DIAGONAL], np.uint8)
        kinds, click_bits = measure(
            np.array([1]), np.array([1], np.uint8), diagonal, diagonal,
            0.0, 0.0, RandomSource(1))
        assert list(kinds) == [ClickKind.CLICK] and list(click_bits) == [1]

    def test_scalar_measure_no_photons_no_darks(self):
        rectilinear = np.array([Basis.RECTILINEAR], np.uint8)
        kinds, click_bits = measure(
            np.array([0]), np.array([0], np.uint8), rectilinear, rectilinear,
            0.0, 0.0, RandomSource(1))
        assert list(kinds) == [ClickKind.NO_CLICK]
        assert list(click_bits) == [0]

    def test_zero_efficiency_never_detects(self):
        # efficiency 0 is transmittance 0: the thinning leaves no photon
        n = 10_000
        rand = RandomSource(12)
        caught = transmit_counts(as_pulses(np.full(n, 5, dtype=np.int64)),
                                 0.0, rand.split("loss"))
        assert len(caught.indices) == 0
        kinds, _ = measure(
            dense(caught), np.ones(n, np.uint8),
            np.zeros(n, np.uint8), np.zeros(n, np.uint8),
            0.0, 0.0, rand)
        assert np.all(kinds == int(ClickKind.NO_CLICK))


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("counts", [[0, 3, 0, 2], [0, 200, 0, 0, 1]])
def test_binomial_at_zero_count_draws_nothing(counts, p):
    """A numpy rule of the thinning kernels: a binomial at n == 0
    returns 0 and takes nothing from the stream, so their draw of the
    photons after each pulse's first, over the pulses with more than
    one, is the draw over every pulse, values and state alike."""
    counts = np.array(counts)
    every, nonzero = (np.random.Generator(np.random.PCG64(21))
                      for _ in range(2))
    got = every.binomial(counts, p)
    want = nonzero.binomial(counts[counts > 0], p)
    assert np.array_equal(got[counts > 0], want) \
        and not got[counts == 0].any() \
        and every.bit_generator.state == nonzero.bit_generator.state, (
            f"numpy {np.__version__} draws at binomial n == 0 (p={p}): "
            "a draw over the multiphoton pulses alone is no longer the "
            "draw over every pulse")


# Counts in [0, 300), zeros and 200 included, for the binomial with an
# array n: 200 reaches numpy's BTPE path, small counts its inversion.
CHUNK_RULE_N = np.random.default_rng(3).integers(0, 300, 999)
CHUNK_RULE_N[::7] = 0
CHUNK_RULE_N[::11] = 200


# Each draw the quantum phase makes in windows, as a function of the
# generator and the window's [a, b) bounds; poisson on both sides of
# mu = 10, where numpy switches from multiplication to PTRS.
CHUNKED_DRAWS = {
    "standard_exponential": lambda gen, a, b: gen.standard_exponential(b - a),
    **{f"poisson({mu})": lambda gen, a, b, mu=mu: gen.poisson(mu, b - a)
       for mu in (0.1, 0.5, 9.5, 10.0, 40.0, 300.0)},
    "random": lambda gen, a, b: gen.random(b - a),
    **{f"binomial(n[], {p})":
       lambda gen, a, b, p=p: gen.binomial(CHUNK_RULE_N[a:b], p)
       for p in (0.0, 0.1, 0.5, 0.9, 1.0)},
}


@pytest.mark.parametrize("name", sorted(CHUNKED_DRAWS))
def test_draws_in_chunks_equal_one_draw(name):
    """The numpy rule the windowed kernels stand on: exponential,
    Poisson, uniform and array-n binomial values are drawn one element at
    a time with no state carried between them, so windows with odd
    boundaries give the values and the stream state of one call."""
    draw = CHUNKED_DRAWS[name]
    whole, chunked = (np.random.Generator(np.random.PCG64(22))
                      for _ in range(2))
    bounds = (0, 1, 7, 338, 999)
    want = draw(whole, 0, bounds[-1])
    got = np.concatenate([draw(chunked, a, b)
                          for a, b in zip(bounds, bounds[1:])])
    assert np.array_equal(got, want) \
        and whole.bit_generator.state == chunked.bit_generator.state, (
            f"numpy {np.__version__} draws {name} differently in chunks: "
            "the gap process, the source and the thinning, which draw "
            "WINDOW values at a time, now depend on the window")


# Counts with many zeros (at zero_frac 1 every pulse is vacuum), one byte
# or eight wide, and physics parameters at their bounds as well as in
# between.
sparse_counts = dict(
    n=st.integers(0, 300), zero_frac=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    max_count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.uint8, np.int64]))


def random_counts(n, zero_frac, max_count, seed, dtype=np.int64):
    gen = np.random.default_rng(seed)
    counts = gen.integers(1, max_count + 1, n).astype(dtype)
    counts[gen.random(n) < zero_frac] = 0
    return counts


class TestSparseKernels:
    """The kernels hold only the pulses with photons; the dense
    references hold every pulse, with the same draws in pulse order.
    Outputs must be equal and no input may change. The kernels keep the
    counts' dtype where the references widen them. measure_batch
    reports only the gates that clicked: spread back over every gate,
    its outputs equal the reference's."""

    @given(**sparse_counts,
           flip=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
           dark=st.one_of(st.just(0.0),
                          st.floats(0.0, 1.0, exclude_max=True)))
    @example(n=0, zero_frac=0.0, max_count=1, seed=0, dtype=np.int64,
             flip=0.0, dark=0.0)
    # past one window of pulses with photons
    @example(n=2 * 16_384 + 17, zero_frac=0.5, max_count=3, seed=1,
             dtype=np.uint8, flip=0.1, dark=0.3)
    def test_measure_batch_matches_dense(self, n, zero_frac, max_count,
                                         seed, dtype, flip, dark):
        counts = random_counts(n, zero_frac, max_count, seed, dtype)
        gen = np.random.default_rng(seed + 1)
        bits, bases, bob_bases = (gen.integers(0, 2, n, dtype=np.uint8)
                                  for _ in range(3))
        inputs = (counts, bits, bases, bob_bases)
        before = [a.copy() for a in inputs]
        want = dense_measure_batch(*inputs, dark, flip, RandomSource(seed))
        got = measure(*inputs, dark, flip, RandomSource(seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))

    @given(**sparse_counts, p=st.one_of(st.sampled_from([0.0, 1.0]),
                                        st.floats(0.0, 1.0)))
    @example(n=0, zero_frac=0.0, max_count=1, seed=0, dtype=np.int64,
             p=0.6)
    @example(n=4 * 16_384 + 17, zero_frac=0.5, max_count=3, seed=1,
             dtype=np.uint8, p=0.6)
    def test_transmit_counts_matches_dense(self, n, zero_frac, max_count,
                                           seed, dtype, p):
        counts = random_counts(n, zero_frac, max_count, seed, dtype)
        before = counts.copy()
        want = dense_transmit_counts(counts, p, RandomSource(seed))
        pulses = as_pulses(counts)
        got = transmit_counts(pulses, p, RandomSource(seed))
        assert got.counts.dtype == counts.dtype
        assert got.indices.dtype == np.uint32 and len(got) == n
        assert np.all(got.counts > 0)
        assert np.array_equal(dense(got), want)
        assert np.array_equal(counts, before)
        assert np.array_equal(dense(pulses), before)


class TestWideCounts:
    """A count above 255 does not fit a byte: the source widens its array
    to int64 and every kernel after it keeps the values of the int64
    references, with no wraparound."""

    @pytest.mark.parametrize("source", [SourceModel(300.0),
                                        ConstantSource(300)], ids=repr)
    @pytest.mark.parametrize("eve", [InterceptResend(0.5),
                                     PhotonNumberSplit()], ids=repr)
    def test_exact_through_the_quantum_phase(self, source, eve):
        # Every kernel against its dense int64 reference, with the same
        # draws: at mu = 300 every pulse carries photons (1 - e^-300 is
        # 1.0), and their numbers are the "photons" substream's Poisson
        # draws.
        n = 16_384 + 17
        pulses = sample_photon_counts(source, n, RandomSource(31))
        want = (np.full(n, 300) if isinstance(source, ConstantSource)
                else RandomSource(31).split("photons").poisson(300.0, n))
        emitted = pulses.counts.copy()
        assert emitted.dtype == np.int64 and len(pulses) == n
        assert np.array_equal(dense(pulses), want) and want.max() > 255

        everyone = np.arange(n)
        alice = [PulseBits(RandomSource(32).split(k)) for k in "ab"]
        ledger, want_ledger = EveLedger(), EveLedger()
        pulses, bits, bases = intercept_batch(pulses, *alice, eve, ledger,
                                              RandomSource(1))
        want, want_bits, want_bases = dense_intercept_batch(
            want, *(a.at(everyone) for a in alice), eve, want_ledger,
            RandomSource(1))
        assert pulses.counts.dtype == np.int64
        assert np.array_equal(dense(pulses), want)
        assert np.array_equal(bits.at(everyone), want_bits)
        assert np.array_equal(bases.at(everyone), want_bases)
        assert np.array_equal(ledger.stored, want_ledger.stored)
        assert np.array_equal(ledger.measured, want_ledger.measured)
        if isinstance(eve, PhotonNumberSplit):
            assert np.array_equal(pulses.counts, emitted - 1)
        else:
            taken = np.isin(pulses.indices, ledger.measured[:, 0])
            assert 0 < taken.sum() < n and np.all(pulses.counts[taken] == 1)
            assert np.array_equal(pulses.counts[~taken], emitted[~taken])

        before = dense(pulses)
        t = survival_probability(FiberChannel(1.0))
        pulses = transmit_counts(pulses, t, RandomSource(2))
        want = dense_transmit_counts(want, t, RandomSource(2))
        assert pulses.counts.dtype == np.int64
        assert np.array_equal(dense(pulses), want) and want.max() > 255
        assert np.all(dense(pulses) <= before)

        # thinned again, by a detector efficiency, and measured
        bob = PulseBits(RandomSource(33))
        for efficiency, dark, flip in ((0.5, 0.01, 0.1), (1.0, 0.0, 0.02),
                                       (0.5, 0.0, 0.0)):
            caught = transmit_counts(pulses, efficiency, RandomSource(4))
            want_caught = dense_transmit_counts(want, efficiency,
                                                RandomSource(4))
            assert caught.counts.dtype == np.int64
            assert np.array_equal(dense(caught), want_caught)
            kinds, click_bits, indices = measure_batch(
                caught, bits, bases, bob, dark, flip, RandomSource(3))
            got = np.zeros((2, n), np.uint8)
            got[:, indices] = kinds, click_bits
            want_gates = dense_measure_batch(
                want_caught, want_bits, want_bases, bob.at(everyone), dark,
                flip, RandomSource(3))
            assert all(np.array_equal(g, w) for g, w in zip(got, want_gates))
        # with no flips and no dark counts, a gate with more than 200
        # photons fires one detector where Bob's basis matches and both,
        # as good as always, where not
        wide = pulses.indices[pulses.counts > 200].astype(np.int64)
        assert np.all(np.isin(wide, indices))
        doubles = kinds[np.searchsorted(indices, wide)] == 2
        assert 0.4 < doubles.mean() < 0.6

    def test_widens_in_a_later_chunk(self, monkeypatch):
        # At mu = 200 and seed 8 the first window stays within a byte and
        # a later one does not: the values already drawn are kept.
        n = 4 * 16_384
        monkeypatch.setattr(rng, "WINDOW", 16_384)
        counts = sample_photon_counts(SourceModel(200.0), n,
                                      RandomSource(8)).counts
        assert counts[:16_384].max() <= 255 < counts.max()
        assert counts.dtype == np.int64
        monkeypatch.setattr(rng, "WINDOW", 1000)
        want = sample_photon_counts(SourceModel(200.0), n,
                                    RandomSource(8)).counts
        assert np.array_equal(counts, want)


class TestDeterminism:
    def test_identical_seeds_identical_outputs(self):
        def run():
            rand = RandomSource(13)
            counts = sample_photon_counts(SourceModel(0.2), 1000,
                                          rand.split("src"))
            counts = dense(transmit_counts(
                counts, survival_probability(FiberChannel(10.0)) * 0.5,
                rand.split("chan")))
            bits = rand.split("bits").bits(1000)
            bases = rand.split("bases").bits(1000)
            return measure(counts, bits, bases, bases,
                           1e-4, 0.02, rand.split("det"))

        k1, b1 = run()
        k2, b2 = run()
        assert np.array_equal(k1, k2) and np.array_equal(b1, b2)
