"""Fast invariant battery behind ``qkdsim selftest``.

Each check is a deterministic, seconds-scale probe of one load-bearing
property; the full pytest suite is the authority, this is the smoke
test an installation can run without test dependencies.
"""

from __future__ import annotations

import numpy as np

from .adversary import InterceptResend, PhotonNumberSplit
from .auth import AuthenticatedMessage, compute_tag, verify_tag
from .netsim import Network, StubKeySource
from .photonics import (ConstantSource, DetectorPair, FiberChannel,
                        SourceModel, survival_probability)
from .postprocess import (AttackModel, HashSeed, error_correct,
                          privacy_amplify, secret_fraction)
from .protocol import SessionConfig, SessionOutcome, run_session
from .rng import RandomSource


def _ideal_config(**overrides) -> SessionConfig:
    base = dict(n_pulses=40_000, source=ConstantSource(1),
                channel=FiberChannel(0.0, 0.2, 0.0),
                detectors=DetectorPair(1.0, 0.0), seed=11)
    base.update(overrides)
    return SessionConfig(**base)


def check_determinism():
    config = _ideal_config(n_pulses=5_000, seed=42)
    a, b = run_session(config), run_session(config)
    same = (a.final_len, a.e_hat, a.auth_bits_consumed, a.outcome) \
        == (b.final_len, b.e_hat, b.auth_bits_consumed, b.outcome) \
        and np.array_equal(a.secret_key.bits, b.secret_key.bits)
    return same, f"final_len={a.final_len}"


def check_poisson_mean():
    draws = RandomSource(1).poisson(0.1, 200_000)
    mean = float(draws.mean())
    return abs(mean - 0.1) < 0.005, f"mean={mean:.4f}"


def check_survival():
    s15 = survival_probability(FiberChannel(15.0, 0.2))
    s100 = survival_probability(FiberChannel(100.0, 0.2))
    ok = abs(s15 - 10 ** -0.3) < 1e-12 and abs(s100 - 0.01) < 1e-12
    return ok, f"15km={s15:.4f}, 100km={s100:.4f}"


def check_sifting_ratio():
    report = run_session(_ideal_config())
    ratio = report.sifted_len / report.raw_len
    return abs(ratio - 0.5) < 0.02, f"ratio={ratio:.3f}"


def check_intercept_resend():
    report = run_session(_ideal_config(n_pulses=60_000, seed=5,
                                       eve=InterceptResend(1.0)))
    ok = report.outcome is SessionOutcome.ABORT_QBER \
        and abs(report.e_hat - 0.25) < 0.02
    return ok, f"e_hat={report.e_hat:.3f}, {report.outcome.value}"


def check_pns_error_free():
    report = run_session(_ideal_config(source=SourceModel(0.5), seed=9,
                                       eve=PhotonNumberSplit()))
    ok = report.e_hat == 0.0 and report.eve_info_fraction > 0.15
    return ok, f"e_hat={report.e_hat}, eve={report.eve_info_fraction:.3f}"


def _root(model: AttackModel) -> float:
    lo, hi = 1e-6, 0.4999
    for _ in range(80):
        mid = (lo + hi) / 2
        if secret_fraction(mid, model) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def check_threshold_roots():
    rc = _root(AttackModel.COHERENT)
    ri = _root(AttackModel.INDIVIDUAL)
    ok = abs(rc - AttackModel.COHERENT.qber_threshold) < 5e-4 \
        and abs(ri - AttackModel.INDIVIDUAL.qber_threshold) < 5e-4
    return ok, f"coherent={rc:.5f}, individual={ri:.5f}"


def check_cascade():
    rand = RandomSource(3)
    alice = rand.bits(4096)
    flips = rand.random(4096) < 0.05
    bob = alice ^ flips.astype(np.uint8)
    result = error_correct(alice, bob, 0.05, rand.split("coins"))
    ok = result.verified and np.array_equal(result.corrected_key, alice)
    return ok, f"leak={result.leaked_bits}"


def check_toeplitz_linearity():
    rand = RandomSource(8)
    n, ell = 256, 128
    seed = HashSeed(rand.bits(n + ell - 1))
    k1, k2 = rand.bits(n), rand.bits(n)
    lhs = privacy_amplify(k1 ^ k2, ell, seed).bits
    rhs = privacy_amplify(k1, ell, seed).bits ^ privacy_amplify(
        k2, ell, seed).bits
    return bool(np.array_equal(lhs, rhs)), ""


def check_auth_tamper():
    payload = b"basis announcement 0110"
    tag = compute_tag(payload, hash_key=0x1234_5678_9ABC_DEF0, otp=0xFEED)
    good = verify_tag(AuthenticatedMessage(payload, tag),
                      0x1234_5678_9ABC_DEF0, 0xFEED)
    tampered = bytes([payload[0] ^ 1]) + payload[1:]
    bad = verify_tag(AuthenticatedMessage(tampered, tag),
                     0x1234_5678_9ABC_DEF0, 0xFEED)
    return good and not bad, ""


def check_relay():
    net = Network()
    for i, (a, b) in enumerate([("A", "B"), ("B", "C"), ("C", "D")]):
        net.add_link(a, b, StubKeySource(seed=100 + i, n_bits=2048))
    net.provision_all()
    transcript = net.relay(["A", "B", "C", "D"], 256, RandomSource(77))
    interior_know = all(
        any(np.array_equal(k, transcript.end_key)
            for k in net.nodes[nid].knowledge_log) for nid in ("B", "C"))
    endpoints_clean = not net.nodes["A"].knowledge_log \
        and not net.nodes["D"].knowledge_log
    return interior_know and endpoints_clean and \
        len(transcript.end_key) == 256, ""


def check_secret_growth():
    # at 10^6 pulses the key outgrows the 384 auth bits on every seed
    # tried; at 2 x 10^5 it did on under half of them
    config = SessionConfig(
        n_pulses=1_000_000, source=SourceModel(0.1),
        channel=FiberChannel(10.0, 0.2, 0.01),
        detectors=DetectorPair(0.1, 1e-5), seed=21)
    report = run_session(config)
    ok = report.outcome is SessionOutcome.SUCCESS and report.secret_growth > 0
    return ok, f"growth={report.secret_growth:+d}"


def all_checks():
    checks = [
        ("determinism", check_determinism),
        ("poisson source mean", check_poisson_mean),
        ("fiber survival closed form", check_survival),
        ("sifting ratio one half", check_sifting_ratio),
        ("intercept-resend aborts at 25%", check_intercept_resend),
        ("photon-number-split is error-free", check_pns_error_free),
        ("secret-fraction threshold roots", check_threshold_roots),
        ("cascade corrects 5% errors", check_cascade),
        ("toeplitz hashing is GF(2)-linear", check_toeplitz_linearity),
        ("tampered tag rejected", check_auth_tamper),
        ("trusted-node relay", check_relay),
        ("secret growth positive", check_secret_growth),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
