"""
Fiber loss, detector efficiency, and dark counts
================================================

Telecom fiber eats photons exponentially: 0.2 dB/km at 1550 nm means
half the light is gone after 15 km. Detectors miss most of what arrives
and occasionally fire on nothing. This demo builds the channel stage by
stage and checks the simulated click rate against the closed form

    P(click) = 1 - exp(-mu * p_fiber * eta) * (1 - d)^2
"""

import math

from qkdsim import (FiberChannel, PulseBits, RandomSource, SourceModel,
                    measure_batch, sample_photon_counts,
                    survival_probability, transmit_counts)

# Survival probability is pure geometry: 10^(-alpha * L / 10).
for km in (0, 15, 25, 50, 100):
    p = survival_probability(FiberChannel(km, 0.2))
    print(f"{km:3d} km: survival = {p:.4f}")

# Now push a million faint pulses through 25 km of fiber into detectors
# with 10% efficiency and a 1e-5 dark-count probability per gate. Only
# the pulses that carry photons are drawn and held.
mu, km, eta, dark = 0.2, 25.0, 0.1, 1e-5
rand = RandomSource(7)
n = 10**6
p_fiber = survival_probability(FiberChannel(km, 0.2))
pulses = sample_photon_counts(SourceModel(mu), n, rand.split("source"))
arrived = transmit_counts(pulses, p_fiber, rand.split("fiber"))
print(f"\n{n} pulses at mu = {mu}: {len(pulses.indices)} non-empty, "
      f"{len(arrived.indices)} survive {km} km")

# Fiber loss and detector efficiency act on each photon alone, so they
# are one loss: a session thins once by the overall transmittance
# p_fiber * eta. Thinning what arrived by eta is the same law.
caught = transmit_counts(arrived, eta, rand.split("efficiency"))
print(f"{len(caught.indices)} pulses with a photon the detectors catch")

# A detector gate can fire from a real photon or from noise. The
# compound click probability has a closed form; the simulation agrees.
p_click = 1 - math.exp(-mu * p_fiber * eta) * (1 - dark) ** 2
print(f"predicted click rate: {p_click:.6f}")

# Bits and bases are functions of the pulse index, read only where a
# photon arrives; the detectors report only the gates that clicked.
bits = PulseBits(rand.split("bits"))
bases = PulseBits(rand.split("bases"))
kinds, _, clicked = measure_batch(caught, bits, bases, bases, dark, 0.0,
                                  rand.split("detector"))
print(f"simulated click rate: {len(clicked) / n:.6f}")

# With no eavesdropper, loss is all that acts on a photon on its way,
# and Poisson light thinned by a transmittance is Poisson light: a
# session draws the source at mu * p_fiber * eta and thins by nothing.
folded = sample_photon_counts(SourceModel(mu * p_fiber * eta), n,
                              rand.split("folded"))
print(f"pulses with a caught photon, folded: {len(folded.indices)} "
      f"(expected {n * (1 - math.exp(-mu * p_fiber * eta)):.0f})")

# Dark counts dominate at long range: past ~100 km almost every click is
# noise, which is what ultimately caps the reach of a single hop.
p_signal = 1 - math.exp(
    -mu * survival_probability(FiberChannel(120, 0.2)) * eta)
p_noise = 1 - (1 - dark) ** 2
print(f"\nat 120 km: signal clicks {p_signal:.2e} vs noise clicks "
      f"{p_noise:.2e} per gate")
