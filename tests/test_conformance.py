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

The seeds and the 4-sigma binomial bounds were fixed once, on
the dense per-pulse kernel, and stay fixed through any change to the
quantum phase's stream layout: a failure then is a finding, not a
reason to re-seed. 4 sigma keeps the chance that a correct kernel fails
either check near 1e-4.
"""

import math

import pytest

from qkdsim.adversary import PhotonNumberSplit
from qkdsim.photonics import (ClickKind, DetectorPair, FiberChannel,
                              SourceModel)
from qkdsim.protocol import (SessionConfig, run_quantum_phase, run_session,
                             sift)
from qkdsim.rng import RandomSource

SEEDS = range(1, 21)
PULSES = 2 * 10**6
Z = 4.0


def closed_form(mu, km, db_per_km, eta, p_dark, e_d):
    """(click probability, sifted QBER) of one gate."""
    lam = mu * 10 ** (-db_per_km * km / 10) * eta
    p_right = 1 - (1 - p_dark) * math.exp(-lam * (1 - e_d))
    p_wrong = 1 - (1 - p_dark) * math.exp(-lam * e_d)
    p_click = 1 - (1 - p_right) * (1 - p_wrong)
    qber = (p_wrong * (1 - p_right) + p_wrong * p_right / 2) / p_click
    return p_click, qber


def pooled(mu, km, db_per_km, eta, p_dark, e_d):
    """(pulses, clicks, sifted bits, sifted errors) over every seed."""
    clicks = sifted = errors = 0
    for seed in SEEDS:
        config = SessionConfig(PULSES, SourceModel(mu),
                               FiberChannel(km, db_per_km, e_d),
                               DetectorPair(eta, p_dark), seed)
        records = run_quantum_phase(config, RandomSource(seed))
        clicks += int((records.kinds != int(ClickKind.NO_CLICK)).sum())
        keys = sift(records)
        sifted += len(keys)
        errors += int((keys.alice_bits != keys.bob_bits).sum())
    return PULSES * len(SEEDS), clicks, sifted, errors


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
