"""Deterministic, seedable BB84 quantum key distribution simulator.

Physical-layer models (faint-pulse source, lossy fiber, imperfect gated
detectors), pluggable eavesdroppers, the full classical post-processing
stack (sifting, error estimation, Cascade-style reconciliation, Toeplitz
privacy amplification, Wegman-Carter authentication with key budgeting),
and a trusted-node network relay layer. Every run is a pure function of
its configuration, seed included.
"""

from .adversary import (EveLedger, EveStrategy, InterceptResend, NoAttack,
                        PhotonNumberSplit, eve_information,
                        finalize_knowledge, intercept_batch, strategy_label)
from .auth import (AuthenticatedChannel, AuthenticatedMessage,
                   AuthenticationFailure, BitPool, KeyExhausted, compute_tag,
                   verify_tag)
from .netsim import (KeyStore, LengthMismatch, Link, Network, Node,
                     RelayTranscript, SessionAborted, StubKeySource,
                     combine_keys, provision_link, relay_key)
from .photonics import (Basis, ClickKind, ConstantSource, DetectorPair,
                        FiberChannel, PulseBits, Pulses, SourceModel,
                        measure_batch,
                        sample_photon_counts, survival_probability,
                        transmit_counts)
from .postprocess import (AttackModel, CorrectionResult, DomainError,
                          HashSeed, InexactConvolution,
                          ReconciliationFailure, SecretKey,
                          SeedLengthMismatch, binary_entropy, error_correct,
                          eve_information_bound, final_key_length,
                          privacy_amplify, secret_fraction)
from .protocol import (EmptySample, PulseRecords, QberEstimate,
                       SessionConfig, SessionOutcome, SessionReport,
                       SiftedKeys, estimate_qber, run_quantum_phase,
                       run_session, sift)
from .rng import RandomSource, fnv1a64, mix64, splitmix64

__version__ = "0.1.0"

__all__ = [
    "AttackModel", "AuthenticatedChannel", "AuthenticatedMessage",
    "AuthenticationFailure", "Basis", "BitPool", "ClickKind",
    "ConstantSource", "CorrectionResult", "DetectorPair", "DomainError",
    "EmptySample", "EveLedger", "EveStrategy", "FiberChannel", "HashSeed",
    "InexactConvolution", "InterceptResend", "KeyExhausted", "KeyStore",
    "LengthMismatch", "Link", "Network", "NoAttack", "Node",
    "PhotonNumberSplit", "PulseBits", "PulseRecords", "Pulses",
    "QberEstimate", "RandomSource", "ReconciliationFailure",
    "RelayTranscript", "SecretKey", "SeedLengthMismatch", "SessionAborted",
    "SessionConfig", "SessionOutcome", "SessionReport", "SiftedKeys",
    "SourceModel", "StubKeySource", "binary_entropy", "combine_keys",
    "compute_tag", "error_correct", "estimate_qber", "eve_information",
    "eve_information_bound", "final_key_length", "finalize_knowledge",
    "fnv1a64", "intercept_batch", "measure_batch", "mix64", "privacy_amplify",
    "provision_link", "relay_key", "run_quantum_phase", "run_session",
    "sample_photon_counts", "secret_fraction", "sift", "splitmix64",
    "strategy_label", "survival_probability", "transmit_counts", "verify_tag",
]
