"""Key distillation: entropy bounds, reconciliation, and hashing.

Leakage oracles are recomputed independently in-test from the documented
block-size rule; entropy values are checked against a 30-digit mpmath
evaluation; the Toeplitz hash is compared to an explicit matrix built by
double loop, and, as hypothesis properties over random sizes, to an
explicit integer matrix product.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qkdsim.postprocess import (COHERENT_THRESHOLD, INDIVIDUAL_THRESHOLD,
                                MODEL, AttackModel, CorrectionResult,
                                HashSeed, InexactConvolution,
                                ReconciliationFailure, SecretKey,
                                binary_entropy, error_correct,
                                eve_information_bound, final_key_length,
                                privacy_amplify, secret_fraction)
from qkdsim import postprocess
from qkdsim.protocol import SessionConfig
from qkdsim.rng import RandomSource

from reference_kernels import gather_error_correct


def entropy_oracle(x: float) -> float:
    """h(x) at 30 significant digits, evaluated independently."""
    with mpmath.workdps(30):
        if x in (0.0, 1.0):
            return 0.0
        mx = mpmath.mpf(x)
        h = -mx * mpmath.log(mx, 2) - (1 - mx) * mpmath.log(1 - mx, 2)
        return float(h)


def top_parity_count(n: int, e_hat: float, passes: int = 4,
                     block_factor: float = 0.73, min_block: int = 4) -> int:
    """Number of whole-block parities the reconciliation must disclose."""
    k1 = min(max(math.ceil(block_factor / max(e_hat, 0.01)), min_block), n)
    return sum(math.ceil(n / min(k1 << p, n)) for p in range(passes))


class TestBinaryEntropy:
    @pytest.mark.parametrize("x", [0.01, 0.05, 0.11, 0.25, 0.3, 0.5,
                                   0.77, 0.99])
    def test_matches_high_precision_oracle(self, x):
        assert binary_entropy(x) == pytest.approx(entropy_oracle(x),
                                                  abs=1e-13)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for x in [0.1, 0.23, 0.4]:
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x),
                                                      abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError, match="x must be"):
            binary_entropy(-0.001)
        with pytest.raises(ValueError, match="x must be"):
            binary_entropy(1.001)

    def test_bool_refused(self):
        with pytest.raises(ValueError, match="x must be a number in"):
            binary_entropy(True)


class TestInformationBound:
    def test_coherent_is_binary_entropy(self):
        for e in [0.0, 0.03, 0.11, 0.25]:
            assert eve_information_bound(e, AttackModel.COHERENT) == \
                binary_entropy(e)

    def test_individual_at_zero_error(self):
        assert eve_information_bound(0.0, AttackModel.INDIVIDUAL) == \
            pytest.approx(0.0, abs=1e-15)

    def test_individual_threshold_closed_form(self):
        # At e = (1 - 2^-1/2)/2 the argument 1/2 + sqrt(e(1-e)) equals
        # 1 - e, so the bound collapses to 1 - h(e) and the rate is zero.
        e = INDIVIDUAL_THRESHOLD
        assert e == (1.0 - 2.0 ** -0.5) / 2.0
        assert eve_information_bound(e, AttackModel.INDIVIDUAL) == \
            pytest.approx(1.0 - binary_entropy(e), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError,
                           match=r"^e must be a number in \[0, 0\.5\]"):
            eve_information_bound(0.6, AttackModel.COHERENT)

    @pytest.mark.parametrize("model", ["coherent", None])
    @pytest.mark.parametrize("bound", [
        eve_information_bound, secret_fraction,
        lambda e, model: final_key_length(1000, e, 100, model, 30)],
        ids=["eve_information_bound", "secret_fraction", "final_key_length"])
    def test_model_must_be_an_attack_model(self, bound, model):
        # a string once fell through to the individual-attack bound
        with pytest.raises(ValueError, match="model must be an AttackModel"):
            bound(0.05, model)

    def test_session_refuses_a_model_by_the_same_rule(self):
        assert SessionConfig.RULES["attack_model"] is MODEL

    def test_threshold_property(self):
        assert AttackModel.COHERENT.qber_threshold == COHERENT_THRESHOLD
        assert AttackModel.INDIVIDUAL.qber_threshold == INDIVIDUAL_THRESHOLD


class TestSecretFraction:
    @pytest.mark.parametrize("model", list(AttackModel))
    def test_perfect_channel_yields_full_rate(self, model):
        assert secret_fraction(0.0, model) == 1.0

    @pytest.mark.parametrize("model,threshold", [
        (AttackModel.COHERENT, COHERENT_THRESHOLD),
        (AttackModel.INDIVIDUAL, INDIVIDUAL_THRESHOLD),
    ])
    def test_strictly_decreasing_below_root(self, model, threshold):
        grid = np.linspace(0.0, threshold * 0.999, 50)
        values = [secret_fraction(e, model) for e in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("model,threshold", [
        (AttackModel.COHERENT, COHERENT_THRESHOLD),
        (AttackModel.INDIVIDUAL, INDIVIDUAL_THRESHOLD),
    ])
    def test_root_location(self, model, threshold):
        assert secret_fraction(threshold - 1e-6, model) > 0.0
        assert secret_fraction(threshold + 1e-6, model) == 0.0
        assert secret_fraction(0.3, model) == 0.0

    def test_coherent_threshold_solves_defining_equation(self):
        # Rate zero when h(e) = 1/2 (Eve's entropy bound equals the
        # reconciliation cost); 11.00% is the classic coherent-attack cap.
        assert 1.0 - 2.0 * binary_entropy(COHERENT_THRESHOLD) == \
            pytest.approx(0.0, abs=1e-10)
        assert COHERENT_THRESHOLD == pytest.approx(0.1100, abs=5e-4)

    def test_thresholds_recovered_by_bisection(self):
        for model, threshold in [(AttackModel.COHERENT, COHERENT_THRESHOLD),
                                 (AttackModel.INDIVIDUAL,
                                  INDIVIDUAL_THRESHOLD)]:
            lo, hi = 0.01, 0.3
            for _ in range(60):
                mid = (lo + hi) / 2
                if secret_fraction(mid, model) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert abs((lo + hi) / 2 - threshold) < 5e-4


class TestFinalKeyLength:
    def test_reference_value(self):
        # 2000 error-free bits, 64 leaked, margin 30: 2000 - 64 - 30.
        assert final_key_length(2000, 0.0, 64, AttackModel.COHERENT,
                                30) == 1906

    def test_matches_formula(self):
        n, e, leak, margin = 1000, 0.05, 120, 30
        want = math.floor(n - n * binary_entropy(e) - leak - margin)
        assert final_key_length(n, e, leak, AttackModel.COHERENT,
                                margin) == want

    def test_clamped_at_zero(self):
        assert final_key_length(100, 0.0, 200, AttackModel.COHERENT,
                                30) == 0
        assert final_key_length(1000, 0.11, 600, AttackModel.COHERENT,
                                30) == 0

    def test_monotone_in_error_rate(self):
        lengths = [final_key_length(5000, e, 400, AttackModel.COHERENT, 30)
                   for e in np.linspace(0.0, 0.2, 40)]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_monotone_in_leakage(self):
        lengths = [final_key_length(5000, 0.03, leak,
                                    AttackModel.INDIVIDUAL, 30)
                   for leak in range(0, 2000, 100)]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_domain(self):
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            final_key_length(-1, 0.0, 0, AttackModel.COHERENT, 30)
        with pytest.raises(ValueError,
                           match="leaked_ec must be an integer >= 0"):
            final_key_length(100, 0.0, -1, AttackModel.COHERENT, 30)
        with pytest.raises(ValueError, match="margin must be an integer >= 0"):
            final_key_length(100, 0.0, 0, AttackModel.COHERENT, -1)

    @pytest.mark.parametrize("value", [True, 1000.9, -1])
    @pytest.mark.parametrize("name", ["n", "leaked_ec", "margin"])
    def test_counts_must_be_integers_ge_0(self, name, value):
        args = {"n": 1000, "e_hat": 0.0, "leaked_ec": 0,
                "model": AttackModel.COHERENT, "margin": 0, name: value}
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer >= 0"):
            final_key_length(**args)

    @pytest.mark.parametrize("e_hat", [0.6, -0.1, True, float("nan"), "0.1"])
    def test_error_rate_refused_by_its_own_name(self, e_hat):
        # checked as e_hat before the bound, which would name it e
        with pytest.raises(ValueError,
                           match=r"^e_hat must be a number in \[0, 0.5\], "
                                 "got "):
            final_key_length(100, e_hat, 0, AttackModel.COHERENT, 0)


class TestErrorCorrect:
    @pytest.mark.parametrize("n,e_hat", [(256, 0.05), (1024, 0.0),
                                         (4096, 0.08), (100, 0.3)])
    def test_identical_keys_leak_only_top_parities(self, n, e_hat):
        # No odd blocks, no bisection: leakage is exactly the whole-block
        # parities plus the 64-bit verification hash.
        key = RandomSource(n + 1).bits(n)
        result = error_correct(key, key.copy(), e_hat, RandomSource(7))
        assert result.verified
        assert np.array_equal(result.corrected_key, key)
        assert result.leaked_bits == top_parity_count(n, e_hat) + 64
        assert len(result.transcript) == result.leaked_bits

    def test_single_error_bisection_cost(self):
        # One error in a first-pass block of size 73 costs at most
        # ceil(log2 73) = 7 extra disclosed parities.
        alice = RandomSource(3).bits(1024)
        bob = alice.copy()
        bob[500] ^= 1
        result = error_correct(alice, bob, 0.0, RandomSource(8))
        assert result.verified
        assert np.array_equal(result.corrected_key, alice)
        tops = top_parity_count(1024, 0.0)
        extra = result.leaked_bits - tops - 64
        assert 1 <= extra <= math.ceil(math.log2(73))
        assert len(result.transcript) == result.leaked_bits

    @pytest.mark.parametrize("seed", range(30))
    def test_corrects_eight_percent_noise(self, seed):
        n, e = 4096, 0.08
        rand = RandomSource(1000 + seed)
        alice = rand.bits(n)
        bob = alice.copy()
        flips = rand.sample_indices(n, round(e * n))
        bob[flips] ^= 1
        result = error_correct(alice, bob, e, rand.split("coins"))
        assert result.verified
        assert np.array_equal(result.corrected_key, alice)
        assert result.leaked_bits == len(result.transcript) < n

    def test_deterministic_failure_raises_with_accounting(self):
        # Two errors inside the single whole-key block keep every parity
        # even, so nothing is corrected and only the 4 top parities plus
        # the hash leak; the failure still carries exact accounting.
        alice = np.zeros(16, dtype=np.uint8)
        bob = alice.copy()
        bob[3] ^= 1
        bob[9] ^= 1
        with pytest.raises(ReconciliationFailure) as exc_info:
            error_correct(alice, bob, 0.0, RandomSource(9))
        result = exc_info.value.result
        assert isinstance(result, CorrectionResult)
        assert not result.verified
        assert result.leaked_bits == 4 + 64
        assert len(result.transcript) == result.leaked_bits
        assert not np.array_equal(result.corrected_key, alice)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            error_correct(np.zeros(32, np.uint8), np.zeros(33, np.uint8),
                          0.0, RandomSource(1))

    def test_rejects_short_keys(self):
        with pytest.raises(ValueError):
            error_correct(np.zeros(15, np.uint8), np.zeros(15, np.uint8),
                          0.0, RandomSource(1))

    def test_deterministic_transcript(self):
        rand = RandomSource(77)
        alice = rand.bits(512)
        bob = alice.copy()
        bob[rand.sample_indices(512, 20)] ^= 1
        r1 = error_correct(alice, bob.copy(), 0.04, RandomSource(5))
        r2 = error_correct(alice, bob.copy(), 0.04, RandomSource(5))
        assert np.array_equal(r1.transcript, r2.transcript)
        assert np.array_equal(r1.corrected_key, r2.corrected_key)

    def test_does_not_mutate_inputs(self):
        rand = RandomSource(78)
        alice = rand.bits(256)
        bob = alice.copy()
        bob[10] ^= 1
        bob_before = bob.copy()
        error_correct(alice, bob, 0.01, RandomSource(6))
        assert np.array_equal(bob, bob_before)

    @given(n=st.integers(16, 3000), e=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1))
    @example(n=16, e=0.0, seed=0)
    @example(n=512, e=0.3, seed=1)
    def test_leak_is_transcript_and_verified_is_correct(self, n, e, seed):
        # Holds for every key, whether reconciliation succeeds or not:
        # every disclosed bit is in the transcript, and a key the hash
        # check accepts is Alice's key.
        rand = RandomSource(seed)
        alice = rand.bits(n)
        bob = alice.copy()
        bob[rand.sample_indices(n, round(e * n))] ^= 1
        try:
            result = error_correct(alice, bob, e, rand.split("coins"))
        except ReconciliationFailure as exc:
            result = exc.result
        assert result.leaked_bits == len(result.transcript)
        if result.verified:
            assert np.array_equal(result.corrected_key, alice)

    @given(n=st.integers(16, 5000), e=st.floats(0.0, 0.12),
           seed=st.integers(0, 2**32 - 1), passes=st.integers(1, 6))
    @example(n=16, e=0.0, seed=0, passes=4)
    @example(n=5000, e=0.12, seed=1, passes=4)
    @example(n=200, e=0.1, seed=88, passes=4)  # fails verification
    @example(n=500, e=0.12, seed=198, passes=4)  # fails verification
    @example(n=20_000, e=0.1, seed=1, passes=4)
    def test_equals_gather_reference(self, n, e, seed, passes):
        # Bob's sub-block parities come from his error flags, not from
        # his bits: the same key, transcript and leak count, and the
        # same failures with the same payload, at any number of passes.
        rand = RandomSource(seed)
        alice = rand.bits(n)
        bob = alice.copy()
        bob[rand.sample_indices(n, round(e * n))] ^= 1
        outcomes = []
        for correct in (error_correct, gather_error_correct):
            try:
                result = correct(alice, bob, e, rand.split("coins"),
                                 passes=passes)
            except ReconciliationFailure as exc:
                result = exc.result
            outcomes.append(result)
        got, want = outcomes
        assert got.verified == want.verified
        assert got.leaked_bits == want.leaked_bits
        assert np.array_equal(got.corrected_key, want.corrected_key)
        assert np.array_equal(got.transcript, want.transcript)


    def test_memory_budget_per_key_bit(self):
        # Four passes of uint32 permutations and inverses, prefix parity
        # and error flag bytes hold 40 B per key bit; a pass's int64
        # permutation draw and its gathers come on top.
        n, e = 10**5, 0.1
        rand = RandomSource(11)
        alice = rand.bits(n)
        bob = alice.copy()
        bob[rand.sample_indices(n, round(e * n))] ^= 1
        error_correct(alice, bob, e, RandomSource(12))  # warm caches
        tracemalloc.start()
        try:
            result = error_correct(alice, bob, e, RandomSource(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verified
        assert peak / n < 60

    @pytest.mark.parametrize("side", ["alice_key", "bob_key"])
    @pytest.mark.parametrize("bad", [2, 257])
    def test_rejects_keys_that_are_not_bits_before_any_draw(self, bad,
                                                             side):
        # The xor prefix parities hold only for 0/1 keys: a 2 or an
        # int64 257 is refused, naming the key, before a public coin is
        # drawn.
        keys = {"alice_key": RandomSource(13).bits(64)}
        keys["bob_key"] = keys["alice_key"].copy()
        keys[side] = np.full(64, bad, dtype=np.int64)
        coins = RandomSource(14)
        with pytest.raises(ValueError, match=side):
            error_correct(keys["alice_key"], keys["bob_key"], 0.05, coins)
        assert np.array_equal(coins.permutation(64),
                              RandomSource(14).permutation(64))

    @pytest.mark.parametrize("bad", [math.nan, -0.1, math.inf, True])
    def test_refuses_a_bad_e_hat_before_any_draw(self, bad):
        key = RandomSource(15).bits(64)
        coins = RandomSource(16)
        with pytest.raises(ValueError, match="e_hat"):
            error_correct(key, key.copy(), bad, coins)
        assert np.array_equal(coins.permutation(64),
                              RandomSource(16).permutation(64))

    @pytest.mark.parametrize("e_hat", [0, 1, 0.0, 1.0])
    def test_accepts_e_hat_at_both_ends(self, e_hat):
        key = RandomSource(15).bits(64)
        result = error_correct(key, key.copy(), e_hat, RandomSource(16))
        assert result.verified and np.array_equal(result.corrected_key, key)

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    def test_refuses_a_bad_passes_before_any_draw(self, bad):
        # 0 or -1 ran no pass and failed on the hash alone, True ran one
        # pass and 2.5 raised TypeError from range.
        key = RandomSource(15).bits(256)
        bob = key.copy()
        bob[[3, 100, 200]] ^= 1
        coins = RandomSource(16)
        with pytest.raises(ValueError, match="passes"):
            error_correct(key, bob, 0.05, coins, passes=bad)
        assert np.array_equal(coins.permutation(64),
                              RandomSource(16).permutation(64))

    def test_accepts_numpy_integer_passes(self):
        key = RandomSource(15).bits(256)
        bob = key.copy()
        bob[[3, 100, 200]] ^= 1
        got = error_correct(key, bob, 0.05, RandomSource(16),
                            passes=np.int64(2))
        want = error_correct(key, bob, 0.05, RandomSource(16), passes=2)
        assert got.verified
        assert np.array_equal(got.transcript, want.transcript)


class TestPrivacyAmplify:
    def test_worked_toy_vector(self):
        # seed 0110 for 3 -> 2 gives T = [[1,1,0],[0,1,1]]; key 101 maps
        # to (1&1 ^ 1&0 ^ 0&1, 0&1 ^ 1&0 ^ 1&1) = (1, 1).
        key = np.array([1, 0, 1], dtype=np.uint8)
        seed = HashSeed(np.array([0, 1, 1, 0], dtype=np.uint8))
        out = privacy_amplify(key, 2, seed)
        assert np.array_equal(out.bits, [1, 1])

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_explicit_matrix(self, trial):
        rand = RandomSource(2000 + trial)
        n = int(rand.integers(1, 20))
        ell = int(rand.integers(1, 20))
        key = rand.bits(n)
        seed = HashSeed.random(rand, n, ell)
        matrix = np.zeros((ell, n), dtype=np.uint8)
        for j in range(ell):
            for i in range(n):
                matrix[j, i] = seed.bits[(i - j) + (ell - 1)]
        want = matrix.astype(np.int64) @ key.astype(np.int64) % 2
        out = privacy_amplify(key, ell, seed)
        assert np.array_equal(out.bits, want)

    def test_zero_length_output(self):
        key = RandomSource(1).bits(10)
        out = privacy_amplify(key, 0, HashSeed(np.zeros(9, np.uint8)))
        assert len(out) == 0

    def test_zero_bits_to_zero_bits_takes_an_empty_seed(self):
        seed = HashSeed.random(RandomSource(1), 0, 0)
        assert len(seed) == 0
        out = privacy_amplify(np.zeros(0, np.uint8), 0, seed)
        assert isinstance(out, SecretKey) and len(out) == 0
        with pytest.raises(ValueError, match="need 0 for 0->0"):
            privacy_amplify([], 0, HashSeed(np.zeros(1, np.uint8)))
        rand = RandomSource(2)
        assert [len(HashSeed.random(rand, n, ell))
                for n, ell in [(0, 1), (1, 0), (3, 2)]] == [0, 0, 4]
        for n, ell in [(-1, 1), (-5, 2), (2, -1)]:  # no empty seed for these
            with pytest.raises(ValueError, match="must be an integer >= 0"):
                HashSeed.random(rand, n, ell)

    def test_seed_length_checked(self):
        key = RandomSource(1).bits(10)
        with pytest.raises(ValueError, match="seed length 12, need 13"):
            privacy_amplify(key, 4, HashSeed(np.zeros(12, np.uint8)))

    def test_gf2_linearity(self):
        # T(a xor b) == T(a) xor T(b) for any shared seed.
        rand = RandomSource(3000)
        seed = HashSeed.random(rand, 64, 32)
        for _ in range(100):
            a, b = rand.bits(64), rand.bits(64)
            lhs = privacy_amplify(a ^ b, 32, seed).bits
            rhs = privacy_amplify(a, 32, seed).bits ^ \
                privacy_amplify(b, 32, seed).bits
            assert np.array_equal(lhs, rhs)

    def test_single_bit_diffusion(self):
        # Flipping one input bit flips each output bit with probability
        # 1/2 under a uniform seed.
        rand = RandomSource(3100)
        n, ell, trials = 256, 128, 200
        total = 0
        for _ in range(trials):
            seed = HashSeed.random(rand, n, ell)
            key = rand.bits(n)
            flipped = key.copy()
            flipped[int(rand.integers(0, n))] ^= 1
            diff = privacy_amplify(key, ell, seed).bits ^ \
                privacy_amplify(flipped, ell, seed).bits
            total += int(diff.sum())
        assert abs(total / (trials * ell) - 0.5) < 0.02

    def test_chunked_rows_match_direct_product(self):
        # Outputs past 2048 rows, the block size of the original chunked
        # kernel, agree with a plain integer matrix product on sampled
        # rows; rows 2047-2049 straddle that old block boundary.
        rand = RandomSource(3200)
        n, ell = 512, 2500
        key = rand.bits(n)
        seed = HashSeed.random(rand, n, ell)
        out = privacy_amplify(key, ell, seed)
        assert len(out) == ell
        for j in [0, 1, 2047, 2048, 2049, ell - 1]:
            row = seed.bits[(np.arange(n) - j) + (ell - 1)]
            want = int(row.astype(np.int64) @ key.astype(np.int64) % 2)
            assert out.bits[j] == want

    def test_returns_a_secret_key(self):
        key = RandomSource(1).bits(8)
        out = privacy_amplify(key, 4, HashSeed(RandomSource(2).bits(11)))
        assert isinstance(out, SecretKey) and len(out) == 4


def toeplitz_product(key, ell: int, seed_bits) -> np.ndarray:
    """T @ key mod 2 with T[j, i] = seed[(i - j) + (ell - 1)] built in
    full and multiplied in int64."""
    rows = np.arange(ell)[:, None]
    cols = np.arange(len(key))[None, :]
    matrix = np.asarray(seed_bits)[cols - rows + (ell - 1)].astype(np.int64)
    return (matrix @ np.asarray(key, dtype=np.int64) % 2).astype(np.uint8)


sizes = st.integers(0, 3000)
streams = st.integers(0, 2**32 - 1)


class TestPrivacyAmplifyProperties:
    @given(n=sizes, ell=sizes, stream=streams)
    @example(n=0, ell=5, stream=1)
    @example(n=5, ell=0, stream=1)
    @example(n=512, ell=2500, stream=2)
    @example(n=3000, ell=3000, stream=3)
    # the FFT length is the least 5-smooth number >= n + ell - 1: exact
    # fits at 2048 = 2^11 and 1800 = 2^3 3^2 5^2, where a length of
    # n + ell - 2 would wrap the last term, seed[-1] * key[0] (both 1
    # for stream 2), onto row ell - 1, and one past each (2160, 1875)
    @example(n=1000, ell=1049, stream=2)
    @example(n=1000, ell=1050, stream=1)
    @example(n=1000, ell=801, stream=2)
    @example(n=1000, ell=802, stream=2)
    def test_equals_explicit_matrix_product(self, n, ell, stream):
        assume(n + ell > 0)  # (0, 0) has no seed of length n + ell - 1
        rand = RandomSource(stream)
        key = rand.bits(n)
        seed = HashSeed.random(rand, n, ell)
        out = privacy_amplify(key, ell, seed).bits
        assert out.dtype == np.uint8
        assert np.array_equal(out, toeplitz_product(key, ell, seed.bits))

    @given(n=sizes, ell=sizes, stream=streams)
    def test_gf2_linear(self, n, ell, stream):
        assume(n + ell > 0)
        rand = RandomSource(stream)
        seed = HashSeed.random(rand, n, ell)
        a, b = rand.bits(n), rand.bits(n)
        assert np.array_equal(
            privacy_amplify(a ^ b, ell, seed).bits,
            privacy_amplify(a, ell, seed).bits
            ^ privacy_amplify(b, ell, seed).bits)

    def test_million_bit_rows_match_direct_dot_products(self):
        rand = RandomSource(3300)
        n, ell = 1_000_000, 700_000
        key = rand.bits(n)
        seed = HashSeed.random(rand, n, ell)
        out = privacy_amplify(key, ell, seed).bits
        assert len(out) == ell
        sampled = rand.integers(0, ell, size=24).tolist()
        for j in [0, 1, ell // 2, ell - 2, ell - 1, *sampled]:
            row = seed.bits[(np.arange(n) - j) + (ell - 1)]
            assert out[j] == int(row.astype(np.int64) @ key) % 2

    def test_equals_dense_rows_below_the_power_of_two(self):
        # n + ell - 1 = 45,241: the FFT runs at 46,080 = 2^10 3^2 5 points,
        # not 65,536. Row j is the GF(2) inner product of the key with
        # seed[ell - 1 - j:ell - 1 - j + n], taken 512 rows at a time.
        rand = RandomSource(3600)
        n, ell = 40_000, 5_242
        assert postprocess._fft_length(n + ell - 1) == 46_080
        key = rand.bits(n)
        seed = HashSeed.random(rand, n, ell)
        windows = np.lib.stride_tricks.sliding_window_view(seed.bits, n)
        rows = windows[ell - 1::-1]  # row j starts at seed[ell - 1 - j]
        want = np.concatenate([
            np.bitwise_xor.reduce(rows[j:j + 512] & key, axis=1)
            for j in range(0, ell, 512)])
        assert np.array_equal(privacy_amplify(key, ell, seed).bits, want)

    def test_memory_budget_per_convolution_point(self):
        # Two transforms of N points (16 B a point) and the float64 copy
        # of the key (8 B a key bit) are alive at once. At n = 25,000 and
        # ell = 20,242, N = 46,080 for m = n + ell - 1 = 45,241, so the
        # peak is 20.8 B per point of m; at the power-of-two length,
        # 65,536, it was 27.6.
        rand = RandomSource(3700)
        n, ell = 25_000, 20_242
        key = rand.bits(n)
        seed = HashSeed.random(rand, n, ell)
        privacy_amplify(key, ell, seed)  # warm caches
        tracemalloc.start()
        try:
            privacy_amplify(key, ell, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n + ell - 1) < 24

    @pytest.mark.parametrize("perturb", [
        lambda sums: sums + 0.5,
        lambda sums: sums - 0.5,
        lambda sums: sums + 0.3,
        lambda sums: sums + math.nan,
        # one sum inside the rows read back for 300 -> 200 bits
        lambda sums: sums + 0.5 * (np.arange(len(sums)) == 400),
    ], ids=["all+0.5", "all-0.5", "all+0.3", "all+nan", "one+0.5"])
    def test_guard_raises_on_drifted_sums(self, monkeypatch, perturb):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *args, **kw: perturb(irfft(*args, **kw)))
        rand = RandomSource(3400)
        key = rand.bits(300)
        with pytest.raises(InexactConvolution):
            privacy_amplify(key, 200, HashSeed.random(rand, 300, 200))

    def test_small_drift_rounds_to_the_same_key(self, monkeypatch):
        rand = RandomSource(3500)
        key = rand.bits(300)
        seed = HashSeed.random(rand, 300, 200)
        want = privacy_amplify(key, 200, seed).bits
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *args, **kw: irfft(*args, **kw) + 0.2)
        assert np.array_equal(privacy_amplify(key, 200, seed).bits, want)


@pytest.mark.parametrize("bad", [3, 256 + 1, 0.9])
def test_privacy_amplify_rejects_a_key_that_is_not_bits(bad):
    # not read as 1, as 1 (mod 256) or as 0: refused, naming the key
    key = RandomSource(15).bits(40).astype(np.asarray(bad).dtype)
    key[7] = bad
    seed = HashSeed(RandomSource(16).bits(40 + 8 - 1))
    with pytest.raises(ValueError, match="key"):
        privacy_amplify(key, 8, seed)


def test_privacy_amplify_rejects_seed_bits_that_are_not_bits():
    # a seed of 2s is not a seed of 0s, which hashes every key to 0s
    key = RandomSource(17).bits(40)
    with pytest.raises(ValueError, match="seed bits"):
        privacy_amplify(key, 8, HashSeed(np.full(47, 2, dtype=np.uint8)))


class UnreadSeed:
    """A seed whose bits must not be read."""

    @property
    def bits(self):
        raise AssertionError("the seed was read")


@pytest.mark.parametrize("bad", [-1, 2.0, True, np.float64(8)])
def test_privacy_amplify_refuses_a_bad_ell_before_reading_the_seed(bad):
    # ell = -1 for 1000 bits once met a 998-bit seed and ended in numpy's
    # "zero-size array to reduction operation maximum"
    key = RandomSource(18).bits(1000)
    with pytest.raises(ValueError, match="ell"):
        privacy_amplify(key, bad, UnreadSeed())
    with pytest.raises(ValueError, match="ell must be an integer >= 0"):
        privacy_amplify(key, -1, HashSeed(RandomSource(19).bits(998)))


def test_hash_seed_random_length():
    seed = HashSeed.random(RandomSource(1), 100, 40)
    assert len(seed) == 139
    assert set(np.unique(seed.bits)) <= {0, 1}


def test_fft_length_is_the_least_5_smooth_number():
    smooth = sorted(2**a * 3**b * 5**c for a in range(15) for b in range(10)
                    for c in range(7) if 2**a * 3**b * 5**c <= 2 * 10**4)
    want = np.searchsorted(smooth, np.arange(1, 10**4 + 1))
    assert [postprocess._fft_length(m) for m in range(1, 10**4 + 1)] \
        == [smooth[i] for i in want]
