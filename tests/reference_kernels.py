"""Reference kernels that only the tests use.

Dense photonics: the event-driven source, fiber, detector and Eve
kernels and the quantum phase written over every pulse, with n-long
count, bit and basis arrays, masks and ``np.where``. They take the same
draws from the same substreams, in pulse order: the source's event gaps
and photon numbers, the first-photon uniforms and the other photons'
binomials of a thinning, the detector's flip gaps, exit bits and
binomials, each detector's dark-count gaps, Eve's gap process over the
pulses she sees, the Poisson photons each of them lost and the uniforms
that tell whether her photon was a kept one, and the counter bits at a
pulse. Every gap process is drawn one exponential at a time, Eve's
Poisson and uniform values one at a time, and the source's
zero-truncated photon numbers by a scalar inverse CDF. So they fix what
:mod:`qkdsim.photonics`, :func:`qkdsim.adversary.intercept_batch` and
:func:`qkdsim.protocol.run_quantum_phase` must give at every pulse, and
the ledger rows, while the kernels hold only the pulses with photons and
the gates that clicked.

Unpacked relay: the trusted-node relay as it was before it carried the
key packed, one uint8 per bit, checking a link's funds at every
crossing; :func:`qkdsim.netsim.relay_key` must send the same messages,
log the same keys, spend the same bits and refuse the same relays.

Gather Cascade: reconciliation as it was before Bob's sub-block
parities came from each pass's flags of his errors, one byte per
position in that pass's order;
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
from qkdsim.photonics import (ZTP_TABLE_MU, ClickKind, ConstantSource,
                              SourceModel, survival_probability)
from qkdsim.postprocess import (BLOCK_FACTOR, MIN_BLOCK, VERIFY_HASH_BITS,
                                CorrectionResult, ReconciliationFailure,
                                _verification_hash)

MASK8 = (1 << 8) - 1
REDUCTION_POLY_8 = (1 << 8) | 0x1B  # x^8 + x^4 + x^3 + x + 1


# -- dense photonics ----------------------------------------------------------


def scalar_gaps(seed, n, p):
    """The trials in range(n) that come up, one exponential at a time
    from a fresh PCG64 seeded with ``seed``: gap 1 + floor(E * s) with
    s = -1 / log1p(-p); none for p <= 0 or NaN, all for p >= 1."""
    if not p > 0:
        return []
    if p >= 1:
        return list(range(n))
    gen = np.random.Generator(np.random.PCG64(seed))
    scale, at, out = -1.0 / math.log1p(-p), -1, []
    while True:
        at += int(min(gen.standard_exponential() * scale, n)) + 1
        if at >= n:
            return out
        out.append(at)


def dense_photon_counts(source, n, rand):
    """The photons of every pulse. A Poisson(mu) source: the pulses of
    the scalar gap process with p = 1 - e^-mu over split("events"), one
    photon number each, drawn up to ZTP_TABLE_MU as the least k whose
    running sum of P(K = j | K >= 1) exceeds a uniform of
    split("photons"), and above it as Poisson draws of split("photons")
    with each zero drawn again from split("zeros")."""
    if isinstance(source, ConstantSource):
        return np.full(n, source.photon_count, np.int64)
    mu = source.mu
    photons, zeros = rand.split("photons"), rand.split("zeros")
    counts = np.zeros(n, np.int64)
    for i in scalar_gaps(rand.split("events").seed, n, -math.expm1(-mu)):
        if mu <= ZTP_TABLE_MU:
            u, k = photons.random(), 1
            term = total = mu / math.expm1(mu)
            while u >= total and total + term * mu / (k + 1) > total:
                term *= mu / (k + 1)
                total += term
                k += 1
        else:
            k = int(photons.poisson(mu))
            while k == 0:
                k = int(zeros.poisson(mu))
        counts[i] = k
    return counts


def dense_transmit_counts(counts, p, rand):
    """Each photon kept with probability p: the first of each pulse with
    photons by a uniform of split("first"), the others by a binomial of
    split("others") over the pulses with more than one."""
    counts = np.asarray(counts)
    out = np.zeros(len(counts), np.int64)
    lit, more = counts > 0, counts > 1
    out[lit] = rand.split("first").random(int(lit.sum())) < p
    out[more] += rand.split("others").binomial(counts[more] - 1, p)
    return out


def dense_measure_batch(photon_counts, bits, bases, bob_bases,
                        dark_count_prob, flip_prob, rand):
    """(kinds, click_bits) of every gate, every photon caught."""
    n = len(photon_counts)
    caught = np.asarray(photon_counts, np.int64)
    hit = np.flatnonzero(caught)
    flipped, random_exit = np.zeros((2, n), np.int64)
    flipped[hit[scalar_gaps(rand.split("flips").seed, len(hit),
                            flip_prob)]] = 1
    random_exit[hit] = rand.split("exits").bits(len(hit))
    more = caught > 1
    flipped[more] += rand.binomial(caught[more] - 1, flip_prob)
    random_exit[more] += rand.binomial(caught[more] - 1, 0.5)

    matched = bases == bob_bases
    in_one_matched = np.where(bits == 1, caught - flipped, flipped)
    in_one = np.where(matched, in_one_matched, random_exit)
    in_zero = caught - in_one

    dark0, dark1 = np.zeros((2, n), bool)
    dark0[scalar_gaps(rand.split("dark0").seed, n, dark_count_prob)] = True
    dark1[scalar_gaps(rand.split("dark1").seed, n, dark_count_prob)] = True
    fire0 = (in_zero > 0) | dark0
    fire1 = (in_one > 0) | dark1

    kinds = (fire0.astype(np.uint8) + fire1.astype(np.uint8))
    click_bits = (fire1 & ~fire0).astype(np.uint8)
    return kinds, click_bits


def dense_intercept_batch(photon_counts, bits, bases, strategy, ledger, rand,
                          lost=0.0, among=None):
    """Masks and ``np.where`` over every pulse. Eve sees the pulses of the
    mask ``among``, by default those with photons. ``photon_counts`` are
    the photons each keeps through the loss; with ``lost`` > 0 each pulse
    Eve sees lost a Poisson(lost) draw of split("lost") besides, and the
    photon she takes or resends is a kept one iff a uniform of
    split("kept") times the photons emitted is below the kept ones, one
    draw at a time, in pulse order."""
    if isinstance(strategy, NoAttack):
        return photon_counts, bits, bases
    photon_counts = np.asarray(photon_counts, np.int64)
    seen = np.flatnonzero(photon_counts if among is None else among)
    emitted = photon_counts.copy()
    lost_draws, kept_draws = rand.split("lost"), rand.split("kept")
    for i in seen if lost else ():
        emitted[i] += lost_draws.poisson(lost)

    def kept(acted):
        """Whether Eve's photon was a kept one, where she acted."""
        out = acted.copy()
        for i in np.flatnonzero(acted) if lost else ():
            out[i] = kept_draws.random() * emitted[i] < photon_counts[i]
        return out

    if isinstance(strategy, InterceptResend):
        take = np.zeros(len(photon_counts), bool)
        take[seen[scalar_gaps(rand.split("taken").seed, len(seen),
                              strategy.fraction)]] = True
        take &= emitted > 0  # a pulse that emitted nothing is not taken
        everyone = np.arange(len(photon_counts))
        eve_bases = rand.split("eve_bases").bits_at(everyone)
        mismatch_results = rand.split("eve_results").bits_at(everyone)
        eve_bits = np.where(eve_bases == bases, bits,
                            mismatch_results).astype(np.uint8)
        out_counts = np.where(take, kept(take), photon_counts)
        out_bits = np.where(take, eve_bits, bits).astype(np.uint8)
        out_bases = np.where(take, eve_bases, bases).astype(np.uint8)
        ledger.record_measured(np.flatnonzero(take), eve_bits[take],
                               eve_bases[take])
        return out_counts, out_bits, out_bases

    if isinstance(strategy, PhotonNumberSplit):
        split = emitted >= 2
        out_counts = photon_counts - kept(split)
        ledger.record_stored(np.flatnonzero(split), bits[split],
                             bases[split])
        return out_counts, bits, bases

    raise TypeError(f"unknown strategy {strategy!r}")


class DenseRecords(NamedTuple):
    """One entry per pulse: Alice's bit and basis, Bob's basis, the
    gate's ClickKind and the measured bit (0 unless the kind is CLICK)."""

    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    kinds: np.ndarray
    click_bits: np.ndarray


def dense_quantum_phase(config, rand, eve_ledger=None):
    """Every record n long."""
    n = config.n_pulses
    everyone = np.arange(n)
    alice_bits, alice_bases, bob_bases = (
        rand.split(label).bits_at(everyone)
        for label in ("alice_bits", "alice_bases", "bob_bases"))
    source = config.source
    eta = survival_probability(config.channel) * config.detectors.efficiency
    lost = 0.0
    if isinstance(source, SourceModel):
        if config.eve != NoAttack():
            lost = source.mu * (1 - eta)
        source, eta = SourceModel(source.mu * eta), 1.0
    counts = dense_photon_counts(source, n, rand.split("source"))
    events = counts > 0
    ledger = eve_ledger if eve_ledger is not None else EveLedger()
    counts, bits, bases = dense_intercept_batch(
        counts, alice_bits, alice_bases, config.eve, ledger,
        rand.split("eve"), lost)
    counts = dense_transmit_counts(counts, eta, rand.split("channel"))
    kinds, click_bits = dense_measure_batch(
        counts, bits, bases, bob_bases, config.detectors.dark_count_prob,
        config.channel.excess_flip_prob, rand.split("detector"))
    if lost:
        # Eve saw the pulses that kept no photon but whose gate clicked
        dense_intercept_batch(np.zeros(n, np.int64), alice_bits, alice_bases,
                              config.eve, ledger,
                              rand.split("eve").split("dark_gates"), lost,
                              among=(kinds > 0) & ~events)
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
    return RelayTranscript(
        tuple(n.id for n in path),
        b"".join(m.payload + m.tag.to_bytes(8, "big") for m in messages),
        (np.packbits(carried).tobytes(), key_len))


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
