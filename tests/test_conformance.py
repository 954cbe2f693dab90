"""Physics conformance: pooled simulation against exact closed forms.

Poisson splitting makes the link's statistics exact. With
lambda = mu * t * eta, the photons that reach the right and the wrong
detector in the matched basis are independent Poissons with means
lambda * (1 - e_d) and lambda * e_d, so each detector fires
independently with

    P_r = 1 - (1 - p_d) exp(-lambda (1 - e_d))
    P_w = 1 - (1 - p_d) exp(-lambda e_d),

a gate clicks with probability 1 - (1 - P_r)(1 - P_w) (the same in the
mismatched basis, where each detector gets lambda / 2), and with double
clicks resolved to a random bit the sifted QBER is

    (P_w (1 - P_r) + P_r P_w / 2) / (1 - (1 - P_r)(1 - P_w)).

This is the gain and QBER model of Ma, Qi, Zhao and Lo, PRA 72, 012326
(2005).

Under photon-number splitting Eve keeps one photon of every pulse with
n >= 2 and forwards n - 1. A gate fed m photons stays dark with
probability (1 - p_d)^2 (1 - t eta)^m in either basis, so the basis
match is independent of the click and the fraction of the sifted key
Eve holds is

    sum_{n>=2} P(n) P(click | n - 1) / sum_n P(n) P(click | m(n)),

with m(n) = n - 1 for n >= 2 and n otherwise, P(n) Poisson(mu).

Under intercept-resend at a fraction f, Eve measures a pulse with
probability f if it carries a photon and resends exactly one photon in
her basis. Half the time that is Alice's basis and bit; otherwise Bob,
measuring in Alice's basis, sends it to a random detector. For a gate
fed m photons that reach the right detector with probability a each and
the wrong one with probability b each (dark counts p_d, either
detector):

    P(right dark) = (1 - p_d) (1 - a)^m
    P(wrong dark) = (1 - p_d) (1 - b)^m
    P(both dark) = (1 - p_d)^2 (1 - a - b)^m.

The untouched pulses weigh P(0) and (1 - f) P(n) for n >= 1 with
a = q (1 - e_d), b = q e_d, q = t eta; the resent ones weigh
f (1 - P(0)), half with m = 1 and those a, b and half with m = 1 and
a = b = q / 2. The click rate and the sifted QBER (an error is a lone
wrong click or half a double click) are these weighted sums. Eve knows
the sifted bits of the first half, the pulses she read in Alice's
basis, so her known fraction is their clicks over all clicks.

Both known fractions count the gates where dark counts alone click:
a pulse whose photons were all lost was still split or intercepted,
and Eve holds its bit if the gate is sifted. Where dark counts make a
large share of the clicks (p_d = 1e-4 at 100 km, about two in seven)
leaving those gates out moves the fractions by several sigma.

With ``double_click_random=False`` a double click is dropped at
sifting, so with the P_r and P_w above a pulse gives a sifted bit with
probability (P_r (1 - P_w) + (1 - P_r) P_w) / 2 (the bases match half
the time) and the sifted QBER is (1 - P_r) P_w over that sum.

In the mismatched basis each photon goes to a uniformly random
detector, so each detector gets an independent Poisson of mean
lambda / 2 and fires with P = 1 - (1 - p_d) exp(-lambda / 2). A clicked
gate there double-clicks with probability P^2 / (1 - (1 - P)^2) =
P / (2 - P), and a single click reads 1 with probability 1/2.

Each case's seeds and 4-sigma binomial bounds were fixed once, when the
case was added (the first three on the dense per-pulse kernel), and
stay fixed through any change to the quantum phase's stream layout: a failure then is a finding, not a
reason to re-seed. 4 sigma keeps the chance that a correct kernel fails
either check near 1e-4.
"""

import math

import pytest

from qkdsim.adversary import (EveLedger, InterceptResend, PhotonNumberSplit,
                              finalize_knowledge)
from qkdsim.photonics import (ClickKind, DetectorPair, FiberChannel,
                              SourceModel)
from qkdsim.protocol import (SessionConfig, run_quantum_phase, run_session,
                             sift)
from qkdsim.rng import RandomSource

SEEDS = range(1, 21)
PULSES = 2 * 10**6
Z = 4.0


def detector_probs(mu, km, db_per_km, eta, p_dark, e_d):
    """(P_r, P_w): the chances that the right and the wrong detector of a
    matched-basis gate fire."""
    lam = mu * 10 ** (-db_per_km * km / 10) * eta
    return (1 - (1 - p_dark) * math.exp(-lam * (1 - e_d)),
            1 - (1 - p_dark) * math.exp(-lam * e_d))


def closed_form(mu, km, db_per_km, eta, p_dark, e_d):
    """(click probability, sifted QBER) of one gate."""
    p_right, p_wrong = detector_probs(mu, km, db_per_km, eta, p_dark, e_d)
    p_click = 1 - (1 - p_right) * (1 - p_wrong)
    qber = (p_wrong * (1 - p_right) + p_wrong * p_right / 2) / p_click
    return p_click, qber


def pooled(mu, km, db_per_km, eta, p_dark, e_d, pulses=PULSES, **options):
    """(pulses, clicks, sifted bits, sifted errors) over every seed;
    ``options`` go to the SessionConfig."""
    clicks = sifted = errors = 0
    for seed in SEEDS:
        config = SessionConfig(pulses, SourceModel(mu),
                               FiberChannel(km, db_per_km, e_d),
                               DetectorPair(eta, p_dark), seed, **options)
        records = run_quantum_phase(config, RandomSource(seed))
        clicks += int((records.kinds != int(ClickKind.NO_CLICK)).sum())
        keys = sift(records)
        sifted += len(keys)
        errors += int((keys.alice_bits != keys.bob_bits).sum())
    return pulses * len(SEEDS), clicks, sifted, errors


def within_binomial(successes, trials, p):
    return abs(successes / trials - p) <= Z * math.sqrt(p * (1 - p) / trials)


@pytest.fixture(scope="module")
def dark_dominated():
    # 100 km at 0.2 dB/km: lambda = 1e-4, as large as the dark counts,
    # so dark counts make most of the sifted errors
    link = dict(mu=0.1, km=100.0, db_per_km=0.2, eta=0.1, p_dark=1e-4,
                e_d=0.01)
    return closed_form(**link), pooled(**link)


def test_click_rate_where_dark_counts_dominate(dark_dominated):
    (p_click, _), (pulses, clicks, _, _) = dark_dominated
    assert p_click == pytest.approx(2.9997e-4, rel=1e-4)
    assert within_binomial(clicks, pulses, p_click)


def test_sifted_qber_where_dark_counts_dominate(dark_dominated):
    (_, qber), (_, _, sifted, errors) = dark_dominated
    assert qber == pytest.approx(0.3367, abs=1e-4)
    assert sifted > 5000
    assert within_binomial(errors, sifted, qber)


def pns_known_fraction(mu, km, db_per_km, eta, p_dark):
    """Fraction of the sifted key a photon-number splitter holds."""
    q = 10 ** (-db_per_km * km / 10) * eta

    def p_click(m):
        return 1 - (1 - p_dark) ** 2 * (1 - q) ** m

    def p_n(n):
        return math.exp(-mu) * mu**n / math.factorial(n)

    ns = range(80)  # P(80) at mu 0.5 is below 1e-120
    clicks = sum(p_n(n) * p_click(n - 1 if n >= 2 else n) for n in ns)
    split = sum(p_n(n) * p_click(n - 1) for n in ns if n >= 2)
    return split / clicks


def test_pns_known_fraction_under_loss():
    # 20 km, eta 0.1: about 1,600 sifted bits a seed, 32,000 pooled
    link = dict(mu=0.5, km=20.0, db_per_km=0.2, eta=0.1, p_dark=1e-5)
    p = pns_known_fraction(**link)
    assert p == pytest.approx(0.2584, abs=1e-4)
    known = sifted = 0
    for seed in SEEDS:
        config = SessionConfig(
            2 * 10**5, SourceModel(link["mu"]),
            FiberChannel(link["km"], link["db_per_km"]),
            DetectorPair(link["eta"], link["p_dark"]), seed,
            eve=PhotonNumberSplit())
        report = run_session(config)
        known += round(report.eve_info_fraction * report.sifted_len)
        sifted += report.sifted_len
    assert sifted > 20_000
    assert within_binomial(known, sifted, p)


def gate_outcomes(m, a, b, p_dark):
    """(right alone, wrong alone, both) firing chances of a gate fed m
    photons that each reach the right detector with probability a and
    the wrong one with probability b."""
    both_dark = (1 - p_dark) ** 2 * (1 - a - b) ** m
    right_dark = (1 - p_dark) * (1 - a) ** m
    wrong_dark = (1 - p_dark) * (1 - b) ** m
    return (wrong_dark - both_dark, right_dark - both_dark,
            1 - right_dark - wrong_dark + both_dark)


def intercept_resend_kinds(mu, q, e_d, fraction):
    """(weight, photons, a, b) of each kind of pulse under intercept-resend
    at ``fraction`` with transmittance q: the untouched pulses, then the
    resent ones in Alice's basis, then those in the other."""
    matched = (q * (1 - e_d), q * e_d)
    p_vacuum = math.exp(-mu)
    kinds = [(p_vacuum, 0, *matched)]
    kinds += [((1 - fraction) * p_vacuum * mu**n / math.factorial(n), n,
               *matched) for n in range(1, 80)]
    resent = fraction * (1 - p_vacuum) / 2
    return kinds + [(resent, 1, *matched), (resent, 1, q / 2, q / 2)]


def intercept_resend_form(mu, km, db_per_km, eta, p_dark, e_d, fraction):
    """(click probability, sifted QBER) of one gate under intercept-resend
    at ``fraction``, double clicks resolved to a random bit."""
    q = 10 ** (-db_per_km * km / 10) * eta
    clicks = errors = 0.0
    for weight, m, a, b in intercept_resend_kinds(mu, q, e_d, fraction):
        right, wrong, both = gate_outcomes(m, a, b, p_dark)
        clicks += weight * (right + wrong + both)
        errors += weight * (wrong + both / 2)
    return clicks, errors / clicks


def intercept_resend_known_fraction(mu, km, db_per_km, eta, p_dark, e_d,
                                    fraction):
    """Fraction of the sifted key an intercept-resender holds: the clicks
    of the pulses she resent in Alice's basis over all clicks. A gate's
    click does not depend on Bob's basis, so sifting keeps half of
    either."""
    q = 10 ** (-db_per_km * km / 10) * eta
    kinds = intercept_resend_kinds(mu, q, e_d, fraction)
    clicks = [weight * sum(gate_outcomes(m, a, b, p_dark))
              for weight, m, a, b in kinds]
    return clicks[-2] / sum(clicks)


@pytest.fixture(scope="module")
def intercept_resend_under_loss():
    # 20 km, eta 0.1, half the pulses with photons intercepted: about
    # 1,800 sifted bits a seed. A resend that kept the pulse's photon
    # number would raise the click rate by about 10% and the QBER by 0.01.
    link = dict(mu=0.5, km=20.0, db_per_km=0.2, eta=0.1, p_dark=1e-5,
                e_d=0.01)
    return (intercept_resend_form(fraction=0.5, **link),
            pooled(pulses=2 * 10**5, eve=InterceptResend(0.5), **link))


def test_click_rate_under_intercept_resend(intercept_resend_under_loss):
    (p_click, _), (pulses, clicks, _, _) = intercept_resend_under_loss
    assert p_click == pytest.approx(0.017706, abs=1e-6)
    assert within_binomial(clicks, pulses, p_click)


def test_sifted_qber_under_intercept_resend(intercept_resend_under_loss):
    (_, qber), (_, _, sifted, errors) = intercept_resend_under_loss
    assert qber == pytest.approx(0.1189, abs=1e-4)
    assert sifted > 30_000
    assert within_binomial(errors, sifted, qber)


@pytest.fixture(scope="module")
def double_clicks_dropped():
    # dark counts at 5% a gate and lambda 0.25 make a double click about
    # one gate in 70; keeping them would add 0.0071 to the sifted rate
    link = dict(mu=0.5, km=10.0, db_per_km=0.2, eta=0.8, p_dark=0.05,
                e_d=0.02)
    p_right, p_wrong = detector_probs(**link)
    right, wrong = p_right * (1 - p_wrong), (1 - p_right) * p_wrong
    return ((right + wrong) / 2, wrong / (right + wrong),
            pooled(pulses=2 * 10**5, double_click_random=False, **link))


def test_sifted_rate_with_double_clicks_dropped(double_clicks_dropped):
    rate, _, (pulses, _, sifted, _) = double_clicks_dropped
    assert rate == pytest.approx(0.14233, abs=1e-5)
    assert within_binomial(sifted, pulses, rate)


def test_sifted_qber_with_double_clicks_dropped(double_clicks_dropped):
    _, qber, (_, _, sifted, errors) = double_clicks_dropped
    assert qber == pytest.approx(0.1428, abs=1e-4)
    assert within_binomial(errors, sifted, qber)


@pytest.fixture(scope="module")
def mismatched_basis():
    # the dropped-double-click link, read at the gates whose bases
    # differ: about 30,000 clicks a seed, 9% of them double. A kernel
    # that sent every mismatched photon to one detector would halve the
    # double clicks and read nearly every single click as one bit.
    link = dict(mu=0.5, km=10.0, db_per_km=0.2, eta=0.8, p_dark=0.05)
    lam = link["mu"] * 10 ** (-link["db_per_km"] * link["km"] / 10) \
        * link["eta"]
    p_fire = 1 - (1 - link["p_dark"]) * math.exp(-lam / 2)
    clicks = doubles = singles = ones = 0
    for seed in SEEDS:
        config = SessionConfig(
            2 * 10**5, SourceModel(link["mu"]),
            FiberChannel(link["km"], link["db_per_km"], 0.02),
            DetectorPair(link["eta"], link["p_dark"]), seed,
            double_click_random=False)
        records = run_quantum_phase(config, RandomSource(seed))
        mismatched = records.alice_bases != records.bob_bases
        kinds = records.kinds[mismatched]
        single = kinds == int(ClickKind.CLICK)
        clicks += len(kinds)
        doubles += int((kinds == int(ClickKind.DOUBLE_CLICK)).sum())
        singles += int(single.sum())
        ones += int(records.click_bits[mismatched][single].sum())
    return p_fire / (2 - p_fire), (clicks, doubles, singles, ones)


def test_double_clicks_in_the_mismatched_basis(mismatched_basis):
    p_double, (clicks, doubles, _, _) = mismatched_basis
    assert p_double == pytest.approx(0.08851, abs=1e-5)
    assert clicks > 500_000
    assert within_binomial(doubles, clicks, p_double)


def test_single_clicks_in_the_mismatched_basis_are_fair(mismatched_basis):
    _, (_, _, singles, ones) = mismatched_basis
    assert singles > 500_000
    assert within_binomial(ones, singles, 0.5)


def pooled_knowledge(pulses, eve, mu, km, db_per_km, eta, p_dark, e_d=0.01):
    """(sifted bits Eve knows, sifted bits) over every seed."""
    known = sifted = 0
    for seed in SEEDS:
        config = SessionConfig(pulses, SourceModel(mu),
                               FiberChannel(km, db_per_km, e_d),
                               DetectorPair(eta, p_dark), seed, eve=eve)
        ledger = EveLedger()
        records = run_quantum_phase(config, RandomSource(seed), ledger)
        keys = sift(records)
        known += len(finalize_knowledge(
            ledger, records.alice_bases_at(keys.source_indices),
            keys.source_indices))
        sifted += len(keys)
    return known, sifted


# Dark counts at 1e-4 a detector: at 100 km about 2 clicks in 7 are
# dark counts alone, at pulses whose photons were all lost. Eve acted on
# some of those pulses too, and knows the bit where such a gate is
# sifted; leaving them out lowers the known fraction by about 0.03
# under photon-number splitting.
DARK_GATES = dict(mu=0.5, db_per_km=0.2, eta=0.1, p_dark=1e-4)


def test_pns_known_fraction_with_dark_counts():
    link = dict(DARK_GATES, km=100.0)
    p = pns_known_fraction(**link)
    assert p == pytest.approx(0.2043, abs=1e-4)
    known, sifted = pooled_knowledge(2 * 10**6, PhotonNumberSplit(), **link)
    assert sifted > 10_000
    assert within_binomial(known, sifted, p)


@pytest.mark.parametrize("km, pulses, fraction, min_sifted", [
    (20.0, 2 * 10**5, 0.2200, 30_000),
    (100.0, 2 * 10**6, 0.1825, 10_000),
], ids=["20km", "100km"])
def test_intercept_resend_known_fraction(km, pulses, fraction, min_sifted):
    link = dict(DARK_GATES, km=km, e_d=0.01)
    p = intercept_resend_known_fraction(fraction=0.5, **link)
    assert p == pytest.approx(fraction, abs=1e-4)
    known, sifted = pooled_knowledge(pulses, InterceptResend(0.5), **link)
    assert sifted > min_sifted
    assert within_binomial(known, sifted, p)
