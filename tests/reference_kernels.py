"""Reference kernels that only the tests use.

Dense photonics: the fiber and detector kernels as they were before
they drew physics only at photon-carrying pulses. Every draw runs over
every pulse, so they fix the values and the stream state the sparse
kernels in :mod:`qkdsim.photonics` must reproduce; ``measure_batch``
reports only the gates that clicked, and these report every gate.

Dense intercept: Eve's kernel as it was before it worked only at the
pulses she touches, with boolean masks and ``np.where`` over every
pulse; :func:`qkdsim.adversary.intercept_batch` must give its counts,
the bits and bases it forwards (Alice's, with Eve's at the pulses she
resent), ledger rows and stream state.

Dense quantum phase: the session's quantum phase as it was before it
kept only the gates that clicked, with Alice's bits and bases and Bob's
bases drawn as n-long arrays and every record n long, built on the
dense kernels above; :func:`qkdsim.protocol.run_quantum_phase` must
record the same values at every gate that clicked, and Eve's ledger
must hold the same rows.

Unpacked relay: the trusted-node relay as it was before it carried the
key packed, one uint8 per bit, checking a link's funds at every
crossing; :func:`qkdsim.netsim.relay_key` must send the same messages,
log the same keys, spend the same bits and refuse the same relays.

Gather Cascade: reconciliation as it was before Bob's sub-block
parities came from a sorted list of his error positions;
:func:`qkdsim.postprocess.error_correct` must disclose the same
transcript, return the same key and leak count, and fail on the same
keys with the same payload.

GF(2^k) by shift and reduce: the slow, obvious field products that the
byte-table multiplier in :mod:`qkdsim.gf2` is checked against, a
GF(2^8) field with x^8 + x^4 + x^3 + x + 1 for the exhaustive collision
tests, where 2^64 keys are out of reach but 2^8 are not, and the
polynomial hash by Horner's rule over any such multiplier.
"""

import heapq
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from qkdsim.adversary import (EveLedger, InterceptResend, NoAttack,
                              PhotonNumberSplit)
from qkdsim.auth import KeyExhausted
from qkdsim.gf2 import MASK64, REDUCTION_POLY, Gf64Multiplier
from qkdsim.netsim import RelayTranscript
from qkdsim.photonics import (ClickKind, sample_photon_counts,
                              survival_probability)
from qkdsim.postprocess import (BLOCK_FACTOR, MIN_BLOCK, VERIFY_HASH_BITS,
                                CorrectionResult, ReconciliationFailure,
                                _verification_hash)

MASK8 = (1 << 8) - 1
REDUCTION_POLY_8 = (1 << 8) | 0x1B  # x^8 + x^4 + x^3 + x + 1


# -- dense photonics ----------------------------------------------------------


def dense_transmit_counts(photon_counts, channel, rand):
    """One binomial draw over every pulse."""
    return rand.binomial(photon_counts, survival_probability(channel))


def dense_measure_batch(photon_counts, bits, bases, bob_bases, detectors,
                        flip_prob, rand):
    """Every binomial and uniform drawn over every pulse."""
    if not 0.0 <= flip_prob <= 0.5:
        raise ValueError("flip_prob must be in [0, 0.5]")
    n = len(photon_counts)
    detected = rand.binomial(photon_counts, detectors.efficiency)

    flipped = rand.binomial(detected, flip_prob)
    random_exit = rand.binomial(detected, 0.5)

    matched = bases == bob_bases
    in_one_matched = np.where(bits == 1, detected - flipped, flipped)
    in_one = np.where(matched, in_one_matched, random_exit)
    in_zero = detected - in_one

    dark0 = rand.random(n) < detectors.dark_count_prob
    dark1 = rand.random(n) < detectors.dark_count_prob
    fire0 = (in_zero > 0) | dark0
    fire1 = (in_one > 0) | dark1

    kinds = (fire0.astype(np.uint8) + fire1.astype(np.uint8))
    click_bits = (fire1 & ~fire0).astype(np.uint8)
    return kinds, click_bits


# -- dense intercept -----------------------------------------------------------


def dense_intercept_batch(photon_counts, bits, bases, strategy, ledger, rand):
    """Masks and ``np.where`` over every pulse."""
    n = len(photon_counts)
    if isinstance(strategy, NoAttack):
        return photon_counts, bits, bases

    if isinstance(strategy, InterceptResend):
        take = rand.random(n) < strategy.fraction
        take &= photon_counts > 0
        eve_bases = rand.bits(n)
        mismatch_results = rand.bits(n)
        eve_bits = np.where(eve_bases == bases, bits,
                            mismatch_results).astype(np.uint8)
        out_counts = np.where(take, 1, photon_counts)
        out_bits = np.where(take, eve_bits, bits).astype(np.uint8)
        out_bases = np.where(take, eve_bases, bases).astype(np.uint8)
        ledger.record_measured(np.flatnonzero(take), eve_bits[take],
                               eve_bases[take])
        return out_counts, out_bits, out_bases

    if isinstance(strategy, PhotonNumberSplit):
        split = photon_counts >= 2
        out_counts = photon_counts - split
        ledger.record_stored(np.flatnonzero(split), bits[split],
                             bases[split])
        return out_counts, bits, bases

    raise TypeError(f"unknown strategy {strategy!r}")


# -- dense quantum phase --------------------------------------------------------


class DenseRecords(NamedTuple):
    """One entry per pulse: Alice's bit and basis, Bob's basis, the
    gate's ClickKind and the measured bit (0 unless the kind is CLICK)."""

    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    kinds: np.ndarray
    click_bits: np.ndarray


def dense_quantum_phase(config, rand, eve_ledger=None):
    """Every draw over every pulse, and every record n long."""
    n = config.n_pulses
    alice_bits = rand.split("alice_bits").bits(n)
    alice_bases = rand.split("alice_bases").bits(n)
    counts = sample_photon_counts(config.source, n, rand.split("source"))
    ledger = eve_ledger if eve_ledger is not None else EveLedger()
    counts, bits, bases = dense_intercept_batch(
        counts, alice_bits, alice_bases, config.eve, ledger,
        rand.split("eve"))
    counts = dense_transmit_counts(counts, config.channel,
                                   rand.split("channel"))
    bob_bases = rand.split("bob_bases").bits(n)
    kinds, click_bits = dense_measure_batch(
        counts, bits, bases, bob_bases, config.detectors,
        config.channel.excess_flip_prob, rand.split("detector"))
    if config.double_click_random:
        doubles = kinds == int(ClickKind.DOUBLE_CLICK)
        n_doubles = int(doubles.sum())
        if n_doubles:
            click_bits[doubles] = rand.split("double_click").bits(n_doubles)
            kinds[doubles] = int(ClickKind.CLICK)
    return DenseRecords(alice_bits, alice_bases, bob_bases, kinds,
                        click_bits)


# -- unpacked relay ------------------------------------------------------------


def unpacked_relay_key(path, key_len, rand):
    """One uint8 per key bit, and each hop's funds checked at every
    crossing of its link."""
    if len(path) < 2:
        raise ValueError("a relay path needs at least two nodes")
    links = [a.links.get(b.id) for a, b in zip(path, path[1:])]
    crossings = Counter(links)
    for a, b, link in zip(path, path[1:], links):
        if link is None:
            raise ValueError(f"hop {a.id}-{b.id} is not a link")
        n = crossings[link]
        for kind, pool, need in (
                ("link-key", link.key, n * key_len),
                ("authentication", link.channel.pool,
                 link.channel.bits_needed(n))):
            if pool.remaining < need:
                raise KeyExhausted(f"hop {a.id}-{b.id} holds {pool.remaining}"
                                   f" {kind} bits, need {need}")

    carried = rand.bits(key_len)
    messages = []
    for i, (b, link) in enumerate(zip(path[1:], links)):
        pad = link.key.consume(key_len)
        msg = link.channel.send(np.packbits(carried ^ pad).tobytes())
        messages.append(msg)
        payload = link.channel.deliver(msg)
        carried = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8))[:key_len] ^ pad
        if i + 1 < len(links):
            b.observed.append((np.packbits(carried).tobytes(), key_len))
    return RelayTranscript(tuple(n.id for n in path), tuple(messages),
                           carried)


# -- gather Cascade -------------------------------------------------------------


def gather_error_correct(alice_key, bob_key, e_hat, public_coins, *,
                         passes=4):
    """Every halving gathers Bob's bits of the lower half through the
    permutation and XOR-reduces them."""
    alice = np.asarray(alice_key, dtype=np.uint8)
    bob = np.array(bob_key, dtype=np.uint8)
    n = len(alice)
    if len(bob) != n:
        raise ValueError("keys must have equal length")
    if n < 16:
        raise ValueError("reconciliation needs at least 16 bits")

    k1 = math.ceil(BLOCK_FACTOR / max(e_hat, 0.01))
    k1 = min(max(k1, MIN_BLOCK), n)

    transcript: list[int] = []  # leaked_bits == len(transcript), always
    perms: list[np.ndarray] = []
    inv_perms: list[np.ndarray] = []
    sizes: list[int] = []
    alice_prefix: list[np.ndarray] = []
    # odd blocks as (pass, block); the heap holds every odd block, plus
    # stale entries for blocks that turned even again, skipped on pop
    odd: set[tuple[int, int]] = set()
    heap: list[tuple[int, int]] = []

    def bisect(p: int, blk: int) -> int:
        """Locate one error inside an odd block, disclosing one of
        Alice's sub-parities per halving; returns the key index fixed."""
        k = sizes[p]
        lo, hi = blk * k, min((blk + 1) * k, n)
        perm = perms[p]
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            a_par = int(alice_prefix[p][mid] ^ alice_prefix[p][lo])
            transcript.append(a_par)
            b_par = int(np.bitwise_xor.reduce(bob[perm[lo:mid]]))
            if a_par != b_par:
                hi = mid
            else:
                lo = mid
        return int(perm[lo])

    def toggle_blocks(j: int) -> None:
        for p in range(len(perms)):
            blk = int(inv_perms[p][j]) // sizes[p]
            key = (p, blk)
            if key in odd:
                odd.remove(key)
            else:
                odd.add(key)
                heapq.heappush(heap, key)

    for p in range(passes):
        perm = public_coins.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        k = min(k1 << p, n)
        perms.append(perm)
        inv_perms.append(inv)
        sizes.append(k)
        pre = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(alice[perm], dtype=np.int64, out=pre[1:])
        pre &= 1
        alice_prefix.append(pre)

        n_blocks = math.ceil(n / k)
        starts = np.arange(n_blocks) * k
        ends = np.minimum(starts + k, n)
        a_par = (pre[ends] ^ pre[starts]).astype(np.uint8)
        transcript.extend(int(x) for x in a_par)  # one parity per top block
        bob_pre = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bob[perm], dtype=np.int64, out=bob_pre[1:])
        bob_pre &= 1
        b_par = (bob_pre[ends] ^ bob_pre[starts]).astype(np.uint8)
        for blk in np.nonzero(a_par != b_par)[0]:
            odd.add((p, int(blk)))
            heapq.heappush(heap, (p, int(blk)))

        while heap:
            # smallest block size first, then position
            q, blk = heapq.heappop(heap)
            if (q, blk) not in odd:
                continue
            j = bisect(q, blk)
            bob[j] ^= 1
            toggle_blocks(j)

    mul = Gf64Multiplier(public_coins.uint64())
    alice_hash = _verification_hash(alice, mul)
    transcript.extend((alice_hash >> (63 - i)) & 1
                      for i in range(VERIFY_HASH_BITS))
    verified = alice_hash == _verification_hash(bob, mul)
    result = CorrectionResult(bob, len(transcript), verified,
                              np.array(transcript, dtype=np.uint8))
    if not verified:
        raise ReconciliationFailure(result)
    return result


# -- GF(2^k) by shift and reduce ------------------------------------------------


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two nonnegative ints (polynomial multiply)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _reduce(value: int, width: int, poly: int) -> int:
    """Reduce a polynomial modulo ``poly`` of degree ``width``."""
    for shift in range(value.bit_length() - 1, width - 1, -1):
        if value >> shift & 1:
            value ^= poly << (shift - width)
    return value


def gf64_mul(a: int, b: int) -> int:
    """Product in GF(2^64) by shift and reduce: the reference the
    table multiplier is tested against."""
    return _reduce(_clmul(a & MASK64, b & MASK64), 64, REDUCTION_POLY)


def gf8_mul(a: int, b: int) -> int:
    """Product in GF(2^8), for exhaustive small-field checks."""
    return _reduce(_clmul(a & MASK8, b & MASK8), 8, REDUCTION_POLY_8)


def poly_hash_blocks(blocks, mul) -> int:
    """Polynomial hash sum(m_i * k^(t-i+1)) evaluated by Horner.

    ``blocks`` is the message split into field elements, highest-order
    coefficient first; ``mul`` multiplies a field element by the hash key
    k (``lambda a: gf64_mul(a, k)``). An empty sequence hashes to 0.
    """
    acc = 0
    for block in blocks:
        acc = mul(acc ^ block)
    return acc
