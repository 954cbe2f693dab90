"""
Authentication is not free
==========================

Every classical message in the protocol must be authenticated or an
attacker simply impersonates Bob. The Wegman-Carter scheme spends real
shared key: 128 bits to open a conversation (hash key + one-time pad),
64 bits of fresh pad per message after that. A session that produces
fewer secret bits than its classical chatter consumed is running at a
loss. This demo watches the meter.
"""

from qkdsim import (AuthenticatedChannel, AuthenticatedMessage, BitPool,
                    ConstantSource, DetectorPair, FiberChannel,
                    InterceptResend, KeyExhausted, RandomSource,
                    SessionConfig, compute_tag, run_session, verify_tag)

# A 64-bit tag from a 64-bit hash key and a 64-bit one-time pad.
payload = b"sift: bases 0,1,1,0 ..."
tag = compute_tag(payload, hash_key=0x1234, otp=0x9999)
print(f"tag = {tag:#018x}")
print("verifies:", verify_tag(AuthenticatedMessage(payload, tag),
                              hash_key=0x1234, otp=0x9999))
print("tampered:", verify_tag(
    AuthenticatedMessage(b"sift: bases 0,1,1,0 !!!", tag),
    hash_key=0x1234, otp=0x9999))

# A channel draws from a finite pre-shared pool and refuses to reuse it.
pool = BitPool(RandomSource(42).bits(300))
channel = AuthenticatedChannel(pool)
channel.deliver(channel.send(b"hello"))   # 128 bits: opening message
channel.deliver(channel.send(b"more"))    # 64 bits: pad only
print(f"\npool after two messages: {pool.remaining} of 300 bits left")
channel.deliver(channel.send(b"third"))   # 64 bits -> 44 left
try:
    channel.send(b"fourth")               # needs 64, only 44: refused
except KeyExhausted as exc:
    print(f"third message ok, fourth refused: {exc}")
print(f"a failed send spends nothing: {pool.remaining} bits still there")

# Session-level accounting: five authenticated messages on success
# (click report, sift/sample announcement, Bob's sample, reconciliation
# bundle, confirmation) cost 128 + 4 * 64 = 384 bits.
config = SessionConfig(
    n_pulses=50_000, source=ConstantSource(1), channel=FiberChannel(0.0),
    detectors=DetectorPair(1.0, 0.0), seed=99)
report = run_session(config)
print(f"\nideal session: produced {report.final_len}, "
      f"consumed {report.auth_bits_consumed}, "
      f"net {report.secret_growth:+d} bits")

# An aborting session still pays for the messages it sent before the
# abort (three at the error test: 128 + 2 * 64 = 256 bits): the budget
# can only ever shrink on failure.
bad = SessionConfig(
    n_pulses=50_000, source=ConstantSource(1), channel=FiberChannel(0.0),
    detectors=DetectorPair(1.0, 0.0), seed=100, eve=InterceptResend(1.0))
report = run_session(bad)
print(f"aborted session: produced {report.final_len}, "
      f"consumed {report.auth_bits_consumed}, "
      f"net {report.secret_growth:+d} bits")
