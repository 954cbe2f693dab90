"""Golden corpus: sha256 digests of outputs for small fixed inputs.

Each case turns one fixed input into bytes (report tuples, secret keys,
Cascade transcripts, tags, relay messages, CSV) and the digest of those
bytes is frozen below. A refactor or speed-up that changes any output
bit moves a digest; one that is only meant to change the random-stream
layout must say so and re-record these values.
"""

import hashlib

import numpy as np
import pytest

from qkdsim.adversary import InterceptResend, PhotonNumberSplit
from qkdsim.auth import compute_tag
from qkdsim.cli import main
from qkdsim.netsim import Network, StubKeySource
from qkdsim.photonics import (ConstantSource, DetectorPair, FiberChannel,
                              SourceModel)
from qkdsim.postprocess import (HashSeed, ReconciliationFailure,
                                error_correct, privacy_amplify)
from qkdsim.protocol import SessionConfig, SessionOutcome, run_session
from qkdsim.rng import RandomSource


def _pack(bits) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def _session_bytes(outcome: SessionOutcome, **config) -> bytes:
    report = run_session(SessionConfig(**config))
    assert report.outcome is outcome
    fields = (report.pulses_sent, report.clicks, report.raw_len,
              report.sifted_len, repr(report.e_hat), report.leak_ec_bits,
              report.final_len, repr(report.eve_info_fraction),
              report.auth_bits_consumed, report.outcome.value)
    key = b"" if report.secret_key is None else _pack(report.secret_key.bits)
    return repr(fields).encode() + key


IDEAL = dict(channel=FiberChannel(0.0, 0.2, 0.0),
             detectors=DetectorPair(1.0, 0.0))


def case_no_eve_success():
    return _session_bytes(
        SessionOutcome.SUCCESS, n_pulses=20_000, source=SourceModel(0.5),
        channel=FiberChannel(5.0, 0.2, 0.02),
        detectors=DetectorPair(0.5, 1e-5), seed=101)


def case_intercept_abort():
    return _session_bytes(
        SessionOutcome.ABORT_QBER, n_pulses=4_000, source=ConstantSource(1),
        eve=InterceptResend(1.0), seed=102, **IDEAL)


def case_pns_zero_error():
    data = _session_bytes(
        SessionOutcome.SUCCESS, n_pulses=20_000, source=SourceModel(0.5),
        eve=PhotonNumberSplit(), seed=103, **IDEAL)
    assert b"'0.0'" in data  # e_hat is exactly zero
    return data


def case_empty_sample_abort():
    return _session_bytes(
        SessionOutcome.ABORT_QBER, n_pulses=10, source=SourceModel(0.1),
        channel=FiberChannel(100.0, 0.2, 0.0),
        detectors=DetectorPair(0.1, 0.0), seed=104)


def case_abort_short():
    data = _session_bytes(
        SessionOutcome.SUCCESS, n_pulses=20, source=ConstantSource(1),
        seed=105, **IDEAL)
    assert b", 0, 0, " in data  # no leak, no key: "abort:short"
    return data


def case_relay_chain():
    net = Network()
    for i, (a, b) in enumerate([("A", "B"), ("B", "C"), ("C", "D")]):
        net.add_link(a, b, StubKeySource(seed=200 + i, n_bits=1024),
                     auth_pool_bits=1024)
    net.provision_all()
    out = b""
    for i, (path, key_len) in enumerate([("ABCD", 128), ("BCD", 77),
                                         ("AB", 300), ("ABCD", 64)]):
        transcript = net.relay(list(path), key_len, RandomSource(300 + i))
        out += _pack(transcript.end_key)
        for msg in transcript.hop_messages:
            out += msg.payload + msg.tag.to_bytes(8, "big")
    return out


def case_cascade_transcripts():
    out = b""
    rand = RandomSource(400)
    for n, e in [(64, 0.0), (1000, 0.02), (2500, 0.06), (777, 0.1)]:
        alice = rand.bits(n)
        bob = alice ^ (rand.random(n) < e).astype(np.uint8)
        result = error_correct(alice, bob, e, rand.split(n))
        assert result.verified
        out += _pack(result.transcript) + _pack(result.corrected_key)
    # Too many errors for one pass: the verification hash must catch it.
    alice = rand.bits(512)
    bob = alice ^ (rand.random(512) < 0.3).astype(np.uint8)
    with pytest.raises(ReconciliationFailure) as failure:
        error_correct(alice, bob, 0.01, rand.split("fail"), passes=1)
    result = failure.value.result
    assert not result.verified
    return out + _pack(result.transcript) + _pack(result.corrected_key)


def case_compute_tag():
    rand = RandomSource(500)
    out = b""
    for size in [0, 1, 7, 8, 100, 255, 256, 257, 1000, 4099]:
        tag = compute_tag(rand.byte_string(size), rand.uint64(),
                          rand.uint64())
        out += tag.to_bytes(8, "big")
    return out


def case_privacy_amplify():
    rand = RandomSource(600)
    out = b""
    for n, ell in [(1, 1), (64, 17), (3000, 2100), (5000, 4500)]:
        key = rand.bits(n)
        out += _pack(privacy_amplify(key, ell,
                                     HashSeed.random(rand, n, ell)).bits)
    return out


def case_privacy_amplify_large():
    # Above the 2048-row block of the original kernel, at the metro_key
    # scale, plus an output nearly as long as the input.
    rand = RandomSource(601)
    out = b""
    for n, ell in [(27000, 20000), (20000, 19500)]:
        key = rand.bits(n)
        out += _pack(privacy_amplify(key, ell,
                                     HashSeed.random(rand, n, ell)).bits)
    return out


def case_sweep_csv(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text('{"sweep": {"distance_km": [0, 10]}}')
    output = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--output", str(output),
                 "--pulses", "20000", "--mu", "0.5", "--efficiency", "0.8",
                 "--seed", "700"]) == 0
    return output.read_bytes()


GOLDEN = {
    "no_eve_success":
        "3621d53170ed9ddea906c54bc5866163d23a10fe5b8cbd645b921da463f5320b",
    "intercept_abort":
        "bd45d41c7fe5133ff58c9cb9f9ed397c5d3338b2cd873cbdac6c6c123633cdf5",
    "pns_zero_error":
        "31151d7c62f8d8e830a804e72f3245a4ff204caee935912686b973728fd1d185",
    "empty_sample_abort":
        "a229679c9f7f6e99261521681ffd4143ca8855ad16b999ff84b6e53e95c8328a",
    "abort_short":
        "c7bf5755b03c8673feedf72bde489435fee8f9ad6b6db50775d3c021c3baa22f",
    "relay_chain":
        "d72996e4c1d9513bed2fcaf94f75218d3f883d0f3bc96c8b352d804aa86d42d7",
    "cascade_transcripts":
        "7e792dd36cc331638d3dbc90de94dc53d0d0bc4931985e009d7d5d6f2577a659",
    "compute_tag":
        "79944c36c6260c954da3185b9cc7fcc7b6773d8600e5ee511157e6f68489a4ea",
    "privacy_amplify":
        "e5db8d43f3c49d92970c7f8902cecb95b6fea67959f1cdf0d16997e4a00f2c17",
    "privacy_amplify_large":
        "a0f91f26bc0649e51477c7601d7d74f51697c48520561c87315bbc9dc33fada5",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    data = globals()[f"case_{name}"]()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_golden_sweep_csv(tmp_path, capsys):
    data = case_sweep_csv(tmp_path)
    assert hashlib.sha256(data).hexdigest() == \
        "4b54dae5a8a12ec44224749210e8a512e034872633f2f24f5ba00bfba47f1594"
