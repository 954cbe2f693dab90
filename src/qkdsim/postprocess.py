"""Classical key distillation.

Three stages turn a noisy sifted key into a shared secret:

* rate bounds: binary entropy, the secret fraction for the two attack
  classes, and the final-length formula that decides how much privacy
  amplification is needed;
* interactive error reconciliation in the Cascade style, with every
  publicly disclosed parity counted exactly;
* privacy amplification by binary Toeplitz hashing, a universal_2
  family with seed length n + l - 1.

All randomness used here is public coin: permutations, the verification
hash key, and the Toeplitz seed are assumed known to the adversary, and
security accounting charges for the disclosed parities instead.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gf2 import Gf64Multiplier
from .rng import COUNT, HALF, POSITIVE, UNIT, RandomSource, Rule, bit_array

# Root of 1 - 2 h(e), located numerically to double precision.
COHERENT_THRESHOLD = 0.11002786443835955
# Root of h(1/2 + sqrt(e(1-e))) - h(e); closed form (1 - 1/sqrt(2)) / 2.
INDIVIDUAL_THRESHOLD = (1.0 - 2.0 ** -0.5) / 2.0

VERIFY_HASH_BITS = 64
BLOCK_FACTOR = 0.73
MIN_BLOCK = 4
# the shortest key error_correct takes; a session with fewer bits left
# after sampling ends without a key
MIN_RECONCILE_BITS = 16


class InexactConvolution(ArithmeticError):
    """Floating-point rounding left a Toeplitz row sum too far from an
    integer to read its parity safely; no key is returned."""


class ReconciliationFailure(Exception):
    """Verification hashes disagreed after the final pass.

    Carries the failed :class:`CorrectionResult` (verified=False) so the
    caller can still account for the leaked bits before aborting.
    """

    def __init__(self, result: "CorrectionResult"):
        super().__init__("verification hash mismatch after final pass")
        self.result = result


class AttackModel(Enum):
    """Eavesdropping class the security bound is computed against."""

    INDIVIDUAL = "individual"
    COHERENT = "coherent"

    @property
    def qber_threshold(self) -> float:
        """Error rate at which the secret fraction hits zero; sessions
        abort when the estimate reaches it."""
        if self is AttackModel.INDIVIDUAL:
            return INDIVIDUAL_THRESHOLD
        return COHERENT_THRESHOLD


MODEL = Rule(AttackModel, lambda v: True, "an AttackModel")


@dataclass(frozen=True)
class CorrectionResult:
    """Bob's corrected key plus exact disclosure accounting.

    ``transcript`` is every bit the reference side put on the public
    channel, in disclosure order; leaked_bits equals its length by
    construction and tests count it independently.
    """

    corrected_key: np.ndarray
    leaked_bits: int
    verified: bool
    transcript: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class HashSeed:
    """The diagonals of a binary Toeplitz matrix, as one bit vector."""

    bits: np.ndarray

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def random(cls, rand: RandomSource, n: int, ell: int) -> "HashSeed":
        """Uniform seed for hashing n bits down to ell."""
        COUNT.check("n", n)
        COUNT.check("ell", ell)
        return cls(rand.bits(max(n + ell - 1, 0)))


@dataclass(frozen=True)
class SecretKey:
    """Privacy-amplified output key."""

    bits: np.ndarray

    def __len__(self) -> int:
        return len(self.bits)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    UNIT.check("x", x)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eve_information_bound(e: float, model: AttackModel) -> float:
    """Eve's information per sifted bit granted by the security bound."""
    HALF.check("e", e)
    MODEL.check("model", model)
    if model is AttackModel.COHERENT:
        return binary_entropy(e)
    return 1.0 - binary_entropy(0.5 + math.sqrt(e * (1.0 - e)))


def secret_fraction(e: float, model: AttackModel) -> float:
    """Asymptotic secret bits per sifted bit at error rate ``e``, assuming
    reconciliation at the Shannon limit; zero beyond the model's root."""
    tau = eve_information_bound(e, model)  # checks e and model
    return max(0.0, 1.0 - binary_entropy(e) - tau)


def final_key_length(n: int, e_hat: float, leaked_ec: int,
                     model: AttackModel, margin: int) -> int:
    """Length to amplify down to: n - n*tau(e) - leaked_ec - margin,
    floored and clamped at zero. tau is Eve's information per bit for
    the attack model; actual reconciliation leakage enters as counted."""
    COUNT.check("n", n)
    HALF.check("e_hat", e_hat)
    COUNT.check("leaked_ec", leaked_ec)
    COUNT.check("margin", margin)
    tau = eve_information_bound(e_hat, model)
    return max(0, math.floor(n - n * tau - leaked_ec - margin))


def _verification_hash(bits: np.ndarray, mul: Gf64Multiplier) -> int:
    """Polynomial hash over the packed key, then the bit length as one
    more block: one more Horner step in k. Both parties use it to confirm
    equality after reconciliation. The convention is frozen: every
    transcript ends in this hash."""
    step = mul.hash_bytes(np.packbits(bits).tobytes()) ^ len(bits)
    return mul.hash_bytes(step.to_bytes(8, "big"))


def error_correct(alice_key, bob_key, e_hat: float, public_coins: RandomSource,
                  *, passes: int = 4) -> CorrectionResult:
    """Cascade-style interactive reconciliation (Bob corrects toward Alice).

    Each pass permutes the key with a fresh public permutation, splits it
    into blocks (first-pass size BLOCK_FACTOR / e_hat, doubling each
    pass), and discloses Alice's block parities. Every odd block is
    bisected to one error; a fixed bit toggles the parity state of its
    blocks in all earlier passes, and those re-exposed odd blocks are
    bisected too, back-correcting errors the earlier passes missed.
    leaked_bits counts every disclosed parity plus the 64-bit
    verification hash. Raises :class:`ReconciliationFailure` when the
    hashes still disagree at the end.

    Bob's parity of a range is Alice's flipped once per error of his in
    it: each pass flags his errors, one byte per position in its order,
    and its odd blocks, one byte per block. Permutations are uint32, as
    keys have at most 2^32 bits (``protocol.BITS``).
    """
    UNIT.check("e_hat", e_hat)
    POSITIVE.check("passes", passes)
    alice = bit_array("alice_key", alice_key)
    bob = bit_array("bob_key", bob_key).copy()
    n = len(alice)
    if len(bob) != n:
        raise ValueError("keys must have equal length")
    if n < MIN_RECONCILE_BITS:
        raise ValueError("reconciliation needs at least "
                         f"{MIN_RECONCILE_BITS} bits")

    k1 = math.ceil(BLOCK_FACTOR / max(e_hat, 0.01))
    k1 = min(max(k1, MIN_BLOCK), n)

    transcript: list[int] = []  # leaked_bits == len(transcript), always
    # one record per pass: its permutation and inverse, block size,
    # Alice's prefix parities, and Bob's error flags and odd blocks
    records: list[tuple] = []
    # every odd block as (pass, block), and stale ones that turned even
    heap: list[tuple[int, int]] = []

    def bisect(p: int, blk: int) -> int:
        """Locate one error inside an odd block, disclosing one of
        Alice's sub-parities per halving; returns the key index fixed."""
        perm, _, k, pre, errs, _ = records[p]
        lo, hi = blk * k, min((blk + 1) * k, n)
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            transcript.append(pre[mid] ^ pre[lo])
            if errs.count(1, lo, mid) & 1:  # Bob's [lo, mid) parity differs
                hi = mid
            else:
                lo = mid
        return perm[lo]

    def fix(j: int) -> None:
        """Flip Bob's bit j, an error, and the parity state of its block
        in every pass so far."""
        bob[j] ^= 1
        for p, (_, inv, k, _, errs, odd) in enumerate(records):
            pos = inv[j]
            errs[pos] = 0
            blk = pos // k
            odd[blk] ^= 1
            if odd[blk]:
                heapq.heappush(heap, (p, blk))

    for p in range(passes):
        perm = public_coins.permutation(n).astype(np.uint32)
        inv = np.empty(n, dtype=np.uint32)
        inv[perm] = np.arange(n, dtype=np.uint32)
        k = min(k1 << p, n)
        permuted = alice[perm]
        pre = np.zeros(n + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(permuted, out=pre[1:])
        flags = permuted ^ bob[perm]
        starts = np.arange(0, n, k)  # of the top blocks
        transcript.extend(np.bitwise_xor.reduceat(permuted, starts).tolist())
        blocks = np.bitwise_xor.reduceat(flags, starts)
        records.append((memoryview(perm), memoryview(inv), k, pre.tobytes(),
                        bytearray(flags), bytearray(blocks)))
        # the heap is empty here, and ascending blocks are already a heap
        heap.extend([(p, blk) for blk in np.flatnonzero(blocks).tolist()])
        del permuted, pre, flags

        while heap:
            # smallest block size first, then position
            q, blk = heapq.heappop(heap)
            if records[q][-1][blk]:  # still odd
                fix(bisect(q, blk))

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


def privacy_amplify(key, ell: int, seed: HashSeed) -> SecretKey:
    """Hash ``key`` down to ``ell`` bits with the Toeplitz matrix T given
    by ``seed``: T[j, i] = seed[(i - j) + (ell - 1)], output bit j the
    GF(2) inner product of row j with the key. The index convention is
    frozen; changing it silently changes every derived key.

    Row j sums the key against one window of the seed, so all rows at
    once are one integer convolution: bit j is
    conv(seed, key[::-1])[n + ell - 2 - j] mod 2. It is computed by real
    FFT at the 5-smooth length N >= n + ell - 1 (the least 2^a 3^b 5^c,
    see :func:`_fft_length`), in O((n + ell) log(n + ell)) time. The full
    convolution has 2n + ell - 2 terms, so the circular one wraps index
    m >= N onto m - N <= n - 2, below every index a row reads. Each sum
    is an integer in [0, n], so it is rounded and its parity taken; a
    sum that lands 0.25 or more from an integer raises
    :class:`InexactConvolution` rather than return a possibly wrong key.
    At most two transforms of N points are alive at once, 16 B per
    point, besides the float64 copy of the key an FFT makes.
    """
    COUNT.check("ell", ell)
    key = bit_array("key", key)
    n = len(key)
    sbits = bit_array("seed bits", seed.bits)
    need = max(n + ell - 1, 0)
    if len(sbits) != need:
        raise ValueError(
            f"seed length {len(sbits)}, need {need} for {n}->{ell}")
    if n == 0 or ell == 0:
        return SecretKey(np.zeros(ell, dtype=np.uint8))
    size = _fft_length(need)
    spectrum = np.fft.rfft(sbits, size)
    spectrum *= np.fft.rfft(key[::-1], size)
    sums = np.fft.irfft(spectrum, size)[n - 1:n + ell - 1][::-1]
    del spectrum
    counts = np.rint(sums)
    sums -= counts  # sums is a view of the inverse transform's own array
    drift = float(np.max(np.abs(sums, out=sums)))
    del sums  # frees the inverse transform
    # The normwise error of an FFT convolution is O(eps log2 N) ||a|| ||b||
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # ch. 24); for 0/1 inputs ||a|| ||b|| <= N, so it is O(eps N log2 N),
    # orders of magnitude under 0.25 at any N that fits in memory.
    # Measured drift at ell = 0.8 n: 1.8e-12 at n = 2^16 bits, 3e-11 to
    # 6e-11 at 2^20 and 2.3e-10 at 4 x 10^6. The guard stays all the same.
    if not drift < 0.25:  # also refuses NaN
        raise InexactConvolution(
            f"FFT sums drift {drift:.3g} from integers for {n}->{ell}")
    return SecretKey((counts.astype(np.int64) & 1).astype(np.uint8))


def _fft_length(m: int) -> int:
    """The least 5-smooth number 2^a 3^b 5^c >= m, for m >= 1: a length
    pocketfft transforms with its radix-2, 3 and 5 passes alone, where
    the next power of two can be nearly 2m. Each 3^b 5^c below the best
    length so far is topped up to m by the least power of two, so the
    loop runs O(log^2 m) times."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # 2^a p35 >= m first at a = bit_length((m - 1) // p35)
            size = p35 << ((m - 1) // p35).bit_length()
            if size < best:
                best = size
            p35 *= 3
        p5 *= 5
    return best
