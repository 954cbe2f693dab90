"""
Two eavesdroppers, two signatures
=================================

Intercept-resend is loud: measuring in a random basis and resending
disturbs one sifted bit in four, so a full intercept drives the QBER to
25% and the session aborts. Photon-number splitting is silent: Eve
steals one photon from every multiphoton pulse and measures it after
the bases are announced, introducing no errors at all. The only defense
against her is the key-rate penalty applied for the multiphoton
fraction.
"""

import numpy as np

from qkdsim import (ConstantSource, DetectorPair, EveLedger, FiberChannel,
                    InterceptResend, PhotonNumberSplit, RandomSource,
                    SessionConfig, SourceModel, eve_information,
                    finalize_knowledge, run_quantum_phase, run_session, sift)


def ideal(n_pulses, seed, eve, source=None):
    return SessionConfig(
        n_pulses=n_pulses,
        source=source or ConstantSource(1),
        channel=FiberChannel(0.0),
        detectors=DetectorPair(1.0, 0.0),
        seed=seed, eve=eve)


# Intercept-resend: QBER grows linearly with the intercepted fraction.
print("intercept-resend on an otherwise ideal link:")
for fraction in (0.0, 0.25, 0.5, 1.0):
    config = ideal(200_000, 11, InterceptResend(fraction))
    sifted = sift(run_quantum_phase(config, RandomSource(11)))
    qber = float(np.mean(sifted.alice_bits != sifted.bob_bits))
    print(f"  intercept {fraction:4.0%} of pulses -> QBER {qber:.4f} "
          f"(theory {fraction / 4:.4f})")

# A full intercept never survives the error check.
report = run_session(ideal(200_000, 12, InterceptResend(1.0)))
print(f"\nsession under full intercept: {report.outcome.value}, "
      f"QBER estimate {report.e_hat:.3f}, "
      f"growth {report.secret_growth:+d} bits")

# Photon-number splitting: zero errors, real information loss.
config = ideal(200_000, 13, PhotonNumberSplit(), source=SourceModel(0.5))
ledger = EveLedger()
records = run_quantum_phase(config, RandomSource(13), ledger)
sifted = sift(records)
qber = float(np.mean(sifted.alice_bits != sifted.bob_bits))
# The bases announced for the sifted pulses decide which of Eve's
# holdings are key bits.
known = finalize_knowledge(ledger,
                           records.alice_bases_at(sifted.source_indices),
                           sifted.source_indices)
print(f"\nphoton-number splitting at mu = 0.5 (lossless channel):")
print(f"  QBER: {qber:.4f}  (nothing to see)")
print(f"  fraction of the sifted key Eve holds: "
      f"{eve_information(known, sifted):.4f}")
print("  every stolen bit is exact: she measures in the announced basis")
