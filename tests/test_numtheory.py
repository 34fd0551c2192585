"""Tests for the exact integer kernel.

Fast paths are checked against brute-force scans: exhaustively at small
moduli, on seeded samples further out.
"""

from __future__ import annotations

import random
import re
import time
import tracemalloc
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from lenshf import numtheory
from lenshf.errors import DomainError, IntegrityError, NotInvertibleError, ResourceError
from lenshf.numtheory import (
    Factorization,
    factor,
    is_prime,
    jacobi,
    mod_inv,
    sqrt_mod,
    sqrt_mod_prime,
)
from oracle import brute_least_roots, brute_primes_below


# --- mod_inv ----------------------------------------------------------------

def test_mod_inv_basic():
    assert mod_inv(4, 7) == 2
    for m in (2, 3, 10, 97, 1000):
        assert mod_inv(1, m) == 1


def test_mod_inv_result_in_range_and_correct():
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randint(2, 10**6)
        a = rng.randint(1, 10**9)
        if gcd(a, m) != 1:
            continue
        inv = mod_inv(a, m)
        assert 1 <= inv < m
        assert a * inv % m == 1


def test_mod_inv_rejects_non_coprime():
    with pytest.raises(NotInvertibleError):
        mod_inv(2, 4)
    with pytest.raises(NotInvertibleError, match=r"6 is not invertible modulo 15 \(gcd 3\)"):
        mod_inv(6, 15)
    with pytest.raises(NotInvertibleError, match=r"\(gcd 7\)"):
        mod_inv(-7, 14)
    for m in (1, 0, -5):
        with pytest.raises(DomainError, match="modulus must be >= 2"):
            mod_inv(1, m)


# --- jacobi ------------------------------------------------------------------

def test_jacobi_known_values():
    assert jacobi(5, 7) == -1
    assert jacobi(-5, 7) == 1  # -5 ≡ 2 and 3² ≡ 2 (mod 7)


def test_jacobi_of_squares_is_one():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randrange(3, 2001, 2)
        a = rng.randint(1, 10**6)
        if gcd(a, m) != 1:
            continue
        assert jacobi(a * a, m) == 1


def test_jacobi_rejects_bad_modulus():
    for m in (0, -7, 4, 100):
        with pytest.raises(DomainError):
            jacobi(3, m)


def test_jacobi_zero_iff_common_factor():
    for m in (9, 15, 21, 45):
        for a in range(m):
            assert (jacobi(a, m) == 0) == (gcd(a, m) > 1)


def test_jacobi_matches_residue_classes_for_primes_below_500():
    for p in brute_primes_below(500):
        if p == 2:
            continue
        squares = brute_least_roots(p).keys()
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_multiplicative_in_numerator():
    rng = random.Random(14)
    for _ in range(200):
        m = rng.randrange(3, 999, 2)
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


# --- is_prime ----------------------------------------------------------------

def test_is_prime_small_values():
    assert is_prime(7)
    assert not is_prime(1)
    assert is_prime(2)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2 + 1 * 5)  # the shifted-progression hit used elsewhere


def test_is_prime_agrees_with_sieve_below_20000():
    # spans TRIAL_BOUND = 10^4: the sieve answers below it, the trial gcds
    # (with no Miller-Rabin round) above it
    primes = set(brute_primes_below(20000))
    for m in range(20000):
        assert is_prime(m) == (m in primes), m
    assert not is_prime(10200) and not is_prime(10201) and not is_prime(101 * 103)
    assert is_prime(10193) and is_prime(10211)


def test_is_prime_on_large_known_values():
    assert is_prime(2**89 - 1)  # Mersenne prime
    assert not is_prime(2**87 - 1)
    # strong pseudoprime to several bases, but not all of ours
    assert not is_prime(3215031751)
    assert not is_prime((2**89 - 1) * (2**61 - 1))


# --- sqrt_mod_prime ----------------------------------------------------------

def test_sqrt_mod_prime_known_values():
    assert sqrt_mod_prime(2, 7) == 3
    assert sqrt_mod_prime(3, 7) is None
    assert sqrt_mod_prime(3, 2) == 1
    for p in (2, 3, 5, 7, 11, 10007):
        assert sqrt_mod_prime(0, p) == 0
    for bad in (1, 0, -7):
        with pytest.raises(DomainError, match="modulus must be >= 2"):
            sqrt_mod_prime(3, bad)


def test_sqrt_mod_prime_agrees_with_scan_below_541():
    for p in brute_primes_below(542):
        least = brute_least_roots(p)
        for a in range(p):
            assert sqrt_mod_prime(a, p) == least.get(a), (a, p)  # the smaller of two roots


def test_sqrt_mod_prime_sampled_up_to_1e4():
    rng = random.Random(15)
    primes = [p for p in brute_primes_below(10**4) if p > 541]
    for p in rng.sample(primes, 25):
        least = brute_least_roots(p)
        for a in rng.sample(range(p), 60):
            assert sqrt_mod_prime(a, p) == least.get(a), (a, p)


def test_sqrt_mod_prime_shortcut_is_exact_for_3_mod_4_primes():
    # for p ≡ 3 (mod 4) and a a residue, (a^((p+1)/4))² ≡ a, and Tonelli-Shanks
    # with s = 1 returns that root with no step
    for p in brute_primes_below(1000):
        if p % 4 != 3:
            continue
        for a in brute_least_roots(p):
            if a == 0:
                continue
            z = pow(a, (p + 1) // 4, p)
            assert z * z % p == a
            assert sqrt_mod_prime(a, p) == min(z, p - z)


def test_sqrt_mod_prime_detects_composite_modulus():
    for a, m, detector in (
        (2, 15, "Euler criterion"),
        (2, 9, "Euler criterion"),
        (8, 9, "3 divides it"),
        (8, 21, "TS loop"),
    ):
        with pytest.raises(IntegrityError, match=detector):
            sqrt_mod_prime(a, m)


def test_sqrt_mod_prime_names_an_even_modulus_as_not_prime():
    for a, m in ((5, 6), (1, 4), (0, 4), (1, 8), (3, 10)):
        with pytest.raises(IntegrityError, match=f"modulus {m} is not prime \\(2 divides it\\)"):
            sqrt_mod_prime(a, m)
    assert sqrt_mod_prime(1, 2) == 1
    assert sqrt_mod_prime(0, 2) == 0
    assert sqrt_mod_prime(3, 2) == 1


# --- factor ------------------------------------------------------------------

def test_factor_known_values():
    assert factor(12).factors == ((2, 2), (3, 1))
    assert factor(1).factors == ()
    assert factor(7).factors == ((7, 1),)


def test_factor_reconstructs_random_values():
    rng = random.Random(16)
    for _ in range(100):
        m = rng.randint(1, 10**9)
        f = factor(m)
        assert f.value == m
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p ** e
        assert prod == m


def test_factor_beyond_trial_division():
    p1, p2 = 1_000_003, 1_000_033
    f = factor(p1 * p2)
    assert f.factors == ((p1, 1), (p2, 1))


def test_factor_certifies_each_prime_once(count_calls):
    calls = count_calls(numtheory, "is_prime")
    m = 2**521 - 1  # Mersenne prime
    assert factor(m).factors == ((m, 1),)
    assert calls["is_prime"] == 1


def _record_rounds(monkeypatch):
    """Lists that fill with the Miller-Rabin bases is_prime tests and the
    values it passes to the strong Lucas test."""
    bases, lucas = [], []
    witness, strong_lucas = numtheory._mr_witness, numtheory._strong_lucas_prp

    def record_witness(n, d, s, base):
        bases.append(base)
        return witness(n, d, s, base)

    def record_lucas(n):
        lucas.append(n)
        return strong_lucas(n)

    monkeypatch.setattr(numtheory, "_mr_witness", record_witness)
    monkeypatch.setattr(numtheory, "_strong_lucas_prp", record_lucas)
    return bases, lucas


def test_factor_runs_one_base_2_round_and_one_lucas_test(monkeypatch):
    bases, lucas = _record_rounds(monkeypatch)
    m = 2**127 - 1  # Mersenne prime above 10^8: Baillie-PSW
    assert factor(m).factors == ((m, 1),)
    assert bases == [2] and lucas == [m]


def test_is_prime_runs_the_lucas_test_only_after_base_2(monkeypatch):
    # from 10^8 up: Baillie-PSW, and a composite that base 2 witnesses never
    # reaches the Lucas test
    bases, lucas = _record_rounds(monkeypatch)
    m = 2**127 - 1
    assert is_prime(m)
    assert bases == [2] and lucas == [m]
    bases.clear()
    lucas.clear()
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert bases == [2] and lucas == []


# --- the product of the primes below TRIAL_BOUND ------------------------------

def test_small_primes_are_the_primes_below_100():
    # is_prime looks m up among the primes below TRIAL_BOUND, and screens
    # larger m with the product of the 25 primes below 100 first
    assert numtheory._TRIAL_PRIME_SET == frozenset(brute_primes_below(numtheory.TRIAL_BOUND))
    assert numtheory._SMALL_PRODUCT == prod(brute_primes_below(100))


def test_is_prime_screen_rejects_a_factor_below_trial_bound_before_any_base(monkeypatch):
    bases, lucas = _record_rounds(monkeypatch)
    p = 2**127 - 1  # Mersenne prime above 2**64
    assert not is_prime(9973 * p)  # 9973 is the largest prime below TRIAL_BOUND
    assert bases == lucas == []
    assert not is_prime(10007 * p)  # 10007 is the next prime: base 2 finds it
    assert bases == [2] and lucas == []
    bases.clear()
    assert is_prime(p)
    assert bases == [2] and lucas == [p]
    # below 2**64 the same screen runs first, then the same base 2 and Lucas test
    bases.clear()
    lucas.clear()
    assert not is_prime(9973 * 1_000_003)
    assert bases == lucas == []
    bases.clear()
    assert is_prime(2**61 - 1)
    assert bases == [2] and lucas == [2**61 - 1]


def test_is_prime_agrees_with_sympy_between_trial_bound_and_its_square(monkeypatch):
    sympy = pytest.importorskip("sympy")
    bases, _ = _record_rounds(monkeypatch)
    rng = random.Random(20)
    for m in [rng.randrange(10**4, 10**8) for _ in range(3000)]:
        assert is_prime(m) == sympy.isprime(m), m
    assert bases == []  # the trial primes alone decide below 10^8


def test_is_prime_needs_no_miller_rabin_round_below_trial_bound_squared(monkeypatch):
    bases, lucas = _record_rounds(monkeypatch)
    expected = {
        9973: True, 9999: False, 10**4: False, 10007: True,
        9973**2: False,  # 99460729: the largest prime below TRIAL_BOUND, squared
        99999989: True,  # the largest prime below 10^8
        10**8: False,
    }
    for m, want in expected.items():
        assert is_prime(m) is want, m
    assert bases == lucas == []
    # 10007**2 = 100140049 has no factor below 10^4, so it reaches the bases
    assert not is_prime(10007**2)
    assert bases == [2] and lucas == []
    bases.clear()
    assert is_prime(100000007)  # the least prime above 10^8
    assert bases == [2] and lucas == [100000007]


@pytest.mark.parametrize("bits", [27, 32, 48, 64, 81, 90, 128, 256, 512])
def test_is_prime_agrees_with_sympy_on_random_odd_values(bits):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(bits)
    values = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(300)]
    values.append(sympy.nextprime(values[0]))
    for m in values:
        assert is_prime(m) == sympy.isprime(m), m


def test_is_prime_agrees_with_sympy_past_the_deterministic_bound():
    sympy = pytest.importorskip("sympy")
    # 2**64, below which Baillie-PSW is proven, and the least strong pseudoprime
    # to the first 13 prime bases
    for start in (2**64, 3_317_044_064_679_887_385_961_981):
        primes = [m for m in range(start, start + 3000) if sympy.isprime(m)]
        assert len(primes) > 20
        assert [m for m in range(start, start + 3000) if is_prime(m)] == primes


# --- the two halves of Baillie-PSW ------------------------------------------

STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199)  # OEIS A217255
# the last four are strong pseudoprimes to every prime base up to 19, up to 31,
# to the first 12 and to the first 13 prime bases; none has a prime factor below
# 10^4, so only the Lucas test rejects them
STRONG_BASE_2_PSEUDOPRIMES = (
    2047, 3277, 4033, 3215031751,
    341550071728321, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)
# k with 6k+1, 12k+1 and 18k+1 all prime and their product, a Carmichael
# number, above 2**64
CHERNICK_K = (13679106, 13679690, 13679815, 13680576, 13680921, 13681646)


def _passes_base_2(m):
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not numtheory._mr_witness(m, d, s, 2)


def test_strong_lucas_passes_exactly_the_odd_primes_and_a217255_below_30000():
    primes = set(brute_primes_below(30000)) - {2}
    passed = {m for m in range(3, 30000, 2) if numtheory._strong_lucas_prp(m)}
    assert primes <= passed
    assert sorted(passed - primes) == list(STRONG_LUCAS_PSEUDOPRIMES)
    assert 10007 in passed and 5461 not in passed


def test_strong_base_2_pseudoprimes_fail_the_lucas_test():
    # 1093**2 and 3511**2 (Wieferich primes squared) pass base 2 too; the
    # square guard rejects them
    for m in STRONG_BASE_2_PSEUDOPRIMES + (1093**2, 3511**2):
        assert _passes_base_2(m), m
        assert not numtheory._strong_lucas_prp(m), m
        assert not is_prime(m), m


def test_strong_lucas_rejects_squares_before_searching_for_d(monkeypatch):
    # every (D|p*p) is 0 or 1, so without the guard the search would not end
    calls = [0]
    original = numtheory.jacobi

    def bounded(a, m):
        calls[0] += 1
        assert calls[0] < 100, "D search ran on a square"
        return original(a, m)

    monkeypatch.setattr(numtheory, "jacobi", bounded)
    for p in (2**61 - 1, 2**89 - 1):
        assert not numtheory._strong_lucas_prp(p * p)
        assert not is_prime(p * p)
    assert calls[0] == 0


def test_chernick_numbers_above_the_bound_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    for k in CHERNICK_K:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(sympy.isprime(f) for f in factors), k
        m = prod(factors)
        assert m > 2**64
        assert pow(2, m - 1, m) == 1  # a Fermat pseudoprime to every coprime base
        assert is_prime(m) == sympy.isprime(m), k


@pytest.mark.parametrize("bits", [82, 128, 256, 512])
def test_strong_lucas_agrees_with_sympy_on_random_odd_values(bits):
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp

    rng = random.Random(1000 + bits)
    values = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(120)]
    values += [sympy.nextprime(m) for m in values[:10]]
    half = bits // 2
    values += [sympy.nextprime(rng.getrandbits(half)) * sympy.nextprime(rng.getrandbits(half)) for _ in range(10)]
    for m in values:
        assert numtheory._strong_lucas_prp(m) == is_strong_lucas_prp(m), m


# --- a None from sqrt_mod_prime proves a non-residue for any odd modulus -------

def test_euler_minus_one_forces_jacobi_minus_one_for_every_odd_modulus_below_600():
    hits = 0
    for m in range(3, 600, 2):
        for a in range(m):
            if pow(a, (m - 1) // 2, m) == m - 1:
                assert jacobi(a, m) == -1, (a, m)
                hits += 1
    assert hits > 14_000


def test_sqrt_mod_prime_none_on_a_composite_modulus_means_jacobi_minus_one():
    primes = set(brute_primes_below(600))
    rng = random.Random(19)
    cases = [(a, m) for m in range(9, 600, 2) if m not in primes for a in range(m)]
    carmichael = [prod((6 * k + 1, 12 * k + 1, 18 * k + 1)) for k in CHERNICK_K]
    for m in STRONG_LUCAS_PSEUDOPRIMES + STRONG_BASE_2_PSEUDOPRIMES + (561, 1105, 1729, *carmichael):
        cases += [(rng.randrange(m), m) for _ in range(200)]
    nones = 0
    for a, m in cases:
        try:
            z = sqrt_mod_prime(a, m)
        except IntegrityError:
            continue
        if z is None:
            assert jacobi(a, m) == -1, (a, m)
            nones += 1
    assert nones > 200


def test_factor_agrees_with_sympy_below_20000_and_on_30_to_64_bits():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    values = list(range(1, 20000))
    for _ in range(300):
        bits = rng.randint(30, 64)
        values.append(rng.getrandbits(bits) | 1 << (bits - 1))
    for m in values:
        assert factor(m).factors == tuple(sorted(sympy.factorint(m).items())), m


def test_factor_at_the_edges_of_the_trial_primes(count_calls):
    # the primes below TRIAL_BOUND leave with their multiplicity, so only
    # the cofactor above it is certified
    sympy = pytest.importorskip("sympy")
    calls = count_calls(numtheory, "is_prime")
    for m, expected, certified in (
        (2**40 * 3**5 * 5**3, ((2, 40), (3, 5), (5, 3)), 0),
        (9973**3 * 10007, ((9973, 3), (10007, 1)), 1),
        (9967 * 9973 * (2**61 - 1), ((9967, 1), (9973, 1), (2**61 - 1, 1)), 1),
    ):
        calls["is_prime"] = 0
        assert factor(m).factors == expected
        assert calls["is_prime"] == certified
        assert dict(expected) == sympy.factorint(m)


def test_factor_effort_cap(monkeypatch):
    monkeypatch.setattr(numtheory, "FACTOR_EFFORT", 10)
    with pytest.raises(ResourceError):
        factor(1_000_003 * 1_000_033)


def test_factor_effort_error_names_the_stage_and_the_effort_spent(monkeypatch):
    # neither prime P of m has a smooth P - 1, so p-1 (1,438 + 1,075 units)
    # splits nothing and ECM runs out; its first curve (B1 = 120, B2 = 6000)
    # costs 8 units for each of the 170 bits of its stage-1 exponent, then
    # 2 * 29 * (24 + 1) for stage 2
    m = (10**24 + 7) * (10**24 + 49)
    for cap, stage, spent, needed in (
        (1000, "Pollard p-1 stage 1", 0, 1438),
        (2000, "Pollard p-1 stage 2", 1438, 1075),
        (3000, "ECM stage 1", 2513, 1360),
        (5000, "ECM stage 2", 3873, 1450),
    ):
        monkeypatch.setattr(numtheory, "FACTOR_EFFORT", cap)
        with pytest.raises(ResourceError, match=(
            f"^factoring effort cap exhausted in {re.escape(stage)} on {m}: "
            f"{spent} of FACTOR_EFFORT = {cap} units spent, {needed} more needed$"
        )):
            factor(m)


# --- Pollard p-1 and ECM ------------------------------------------------------

def test_pm1_stage_1_exponent_is_lcm_1_to_1000():
    assert numtheory._PM1_EXPONENT == lcm(*range(1, 1001))
    assert numtheory._PM1_EXPONENT.bit_length() == 1438


def test_stage_2_visits_every_prime_between_1000_and_trial_bound():
    D, J, K = numtheory._STAGE2_D, numtheory._STAGE2_J, numtheory._STAGE2_K
    assert (D, len(J), K) == (210, 24, range(5, 48))
    visited = {k * D + s * j for k in K for j in J for s in (1, -1)}
    stage2 = [p for p in brute_primes_below(10_000) if p > 1000]
    assert len(stage2) == 1061
    assert visited.issuperset(stage2)


def test_ecm_stage_2_visits_every_prime_in_each_step(monkeypatch):
    # each step's stage-1 exponent holds every prime up to B1, and its giant
    # steps reach every prime in (B1, B2] as k*D ± j on the same grid; curves
    # are recorded with a stage 1 that finds nothing, up to the first of the
    # open-ended last step
    sympy = pytest.importorskip("sympy")
    D, J, steps = numtheory._STAGE2_D, numtheory._STAGE2_J, numtheory._ECM_STEPS
    finite = sum(curves for _, _, curves in steps[:-1])
    assert all(steps[-1][2] == 0 < curves for _, _, curves in steps[:-1])
    seen = []

    def stage2(pt, a24, n, ks):
        seen.append(ks)
        if len(seen) > finite:
            raise ResourceError("stop")
        return 1

    monkeypatch.setattr(numtheory, "_ladder", lambda k, pt, a24, n: (pt, pt))
    monkeypatch.setattr(numtheory, "_ecm_stage2", stage2)
    with pytest.raises(ResourceError, match="^stop$"):
        numtheory._ecm((10**24 + 7) * (10**24 + 49), [10**9])
    for b1, b2, curves in steps:
        ks = seen[0]
        assert ks[0] >= 1  # _ladder needs k >= 1, so B1 >= D/2
        assert seen[:curves or 1] == [ks] * (curves or 1)
        del seen[:curves or 1]
        assert numtheory._prime_power_product(b1) == lcm(*range(1, b1 + 1))
        visited = {k * D + s * j for k in ks for j in J for s in (1, -1)}
        assert visited.issuperset(sympy.primerange(b1 + 1, b2 + 1)), (b1, b2)
    assert seen == []


def _start_of_bits(lo, hi):
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


# One prime of 14-40 bits and one or two of 14-32: whichever p-1 leaves whole,
# ECM splits in milliseconds.
@seed(20261019)
@settings(max_examples=25, deadline=None, database=None)
@given(_start_of_bits(14, 40), st.lists(_start_of_bits(14, 32), min_size=1, max_size=2))
def test_factor_agrees_with_sympy_on_products_of_14_to_40_bit_primes(big, small):
    sympy = pytest.importorskip("sympy")
    m = prod(sympy.nextprime(x) for x in (big, *small))
    expected = tuple(sorted(sympy.factorint(m).items()))
    assert factor(m).factors == expected
    assert factor(m, stop=lambda divisors: False).factors == expected


# Two primes of 36-44 bits, the sizes where Pollard-Brent ran out of
# FACTOR_EFFORT: ECM splits them in well under a second each.
@seed(20261020)
@settings(max_examples=8, deadline=None, database=None)
@given(_start_of_bits(36, 44), _start_of_bits(36, 44))
def test_factor_agrees_with_sympy_on_products_of_two_36_to_44_bit_primes(x, y):
    sympy = pytest.importorskip("sympy")
    m = sympy.nextprime(x) * sympy.nextprime(y)
    assert factor(m).factors == tuple(sorted(sympy.factorint(m).items()))


# This test and the next keep "pollard_brent" in their names, after the method
# that ECM replaced as the third one, so that their test ids stay the same.
@pytest.mark.parametrize("m, expected, ecm_calls", [
    # 1000033 - 1 = 2^5 * 3 * 11 * 947 divides the stage-1 exponent
    (1000033 * (10**24 + 49), ((1000033, 1), (10**24 + 49, 1)), 0),
    # 10079 - 1 = 2 * 5039: only stage 2 tries the prime 5039
    (10079 * (10**24 + 7), ((10079, 1), (10**24 + 7, 1)), 0),
    # P - 1 is 1000-smooth for all three, so stage 1 gives g = m, and ECM
    # splits each piece that p-1 catches whole
    (10009 * 10037 * 10061, ((10009, 1), (10037, 1), (10061, 1)), 2),
])
def test_factor_splits_with_pm1_before_pollard_brent(count_calls, m, expected, ecm_calls):
    calls = count_calls(numtheory, "_ecm")
    assert factor(m).factors == expected
    assert calls["_ecm"] == ecm_calls


# Each P - 1 here has a prime above TRIAL_BOUND, so p-1 splits nothing and
# ECM makes the split.
@pytest.mark.parametrize("m", [
    582384188893186237 * 2280771146087475637,
    6229734539027 * (10**24 + 7),
    268435561 * 268435579,
])
def test_factor_agrees_with_sympy_on_semiprimes_that_ecm_splits(m):
    sympy = pytest.importorskip("sympy")
    assert dict(factor(m).factors) == sympy.factorint(m)


def test_factor_splits_a_square_piece_by_isqrt_alone(count_calls):
    # isqrt splits any P² at once, before either method, and
    # pushes P once with multiplicity 2, so is_prime certifies it once: two
    # calls per m, the square and then its root
    calls = {}
    for name in ("_pollard_pm1", "is_prime"):
        count_calls(numtheory, name, calls)
    P, M = 17104490322097, 2**521 - 1
    for m, expected in ((P**2, ((P, 2),)), (3 * P**2, ((3, 1), (P, 2))), (M**2, ((M, 2),))):
        calls["is_prime"] = 0
        assert factor(m).factors == expected
        assert calls["is_prime"] == 2, m
    assert calls["_pollard_pm1"] == 0


def _record_stages(monkeypatch):
    """The (stage, piece) of each charge factor makes from now on."""
    stages, charge = [], numtheory._charge

    def record(budget, units, stage, n):
        stages.append((stage, n))
        charge(budget, units, stage, n)

    monkeypatch.setattr(numtheory, "_charge", record)
    return stages


def test_factor_runs_the_cofactor_of_an_ecm_split_on_the_next_curve(monkeypatch):
    # p-1 stage 1 takes m whole, and ECM's first curve splits off 10037 at
    # stage 1.  The cofactor 10009*10061 goes on at the next curve, which
    # splits it at stage 1; no p-1 stage and no curve runs on it again
    stages = _record_stages(monkeypatch)
    m, n = 10009 * 10037 * 10061, 10009 * 10061
    assert factor(m).factors == ((10009, 1), (10037, 1), (10061, 1))
    assert stages == [("Pollard p-1 stage 1", m), ("ECM stage 1", m), ("ECM stage 1", n)]


def test_factor_sends_the_cofactor_of_a_pm1_stage_2_split_to_ecm(monkeypatch):
    # p-1 stage 2 splits off g = 61781 from m = 47837² * 61781² * 126592283.
    # Only a stage-1 split hands p-1's value on, so the cofactor, though it
    # holds 61781 too, goes to ECM, whose first curve splits 61781 off at
    # stage 1.  Each later piece takes the next curve: 47837 splits off
    # 47837² * 126592283 at stage 2 and 47837 * 126592283 at stage 1
    stages = _record_stages(monkeypatch)
    P, Q, R = 47837, 61781, 126592283
    m = P**2 * Q**2 * R
    assert factor(m).factors == ((P, 2), (Q, 2), (R, 1))
    assert stages == [("Pollard p-1 stage 1", m), ("Pollard p-1 stage 2", m),
                      ("ECM stage 1", m // Q), ("ECM stage 1", m // Q**2),
                      ("ECM stage 2", m // Q**2), ("ECM stage 1", P * R)]


def test_factor_splits_three_50_bit_primes_within_factor_effort():
    # the cofactor of the first split takes up ECM's curves after the one
    # that split m, and factor charges 3,378,153 units; when every piece
    # started again at p-1 and ECM's first curve, ECM stage 2 on that
    # cofactor ran out of FACTOR_EFFORT after 3,965,620 units
    P, Q, R = 753323672289581, 910811105625977, 969464677542917
    assert factor(P * Q * R).factors == ((P, 1), (Q, 1), (R, 1))


# Four distinct primes of 14-30 bits: a split can leave two composite pieces,
# each split in turn on the curves after those already tried.
@seed(20261021)
@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(_start_of_bits(14, 30), min_size=4, max_size=4))
def test_factor_agrees_with_sympy_on_products_of_four_14_to_30_bit_primes(starts):
    sympy = pytest.importorskip("sympy")
    primes = {sympy.nextprime(x) for x in starts}
    assume(len(primes) == 4)
    m = prod(primes)
    expected = tuple((p, 1) for p in sorted(primes))
    assert dict(expected) == sympy.factorint(m)
    assert factor(m).factors == expected
    assert factor(m, stop=lambda divisors: False).factors == expected


# Within one factor call p-1 stage 1 runs at most once and ECM tries each
# curve at most once, in order: on the four-prime products drawn as above,
# and on 47837² * 61781² * 126592283, the primes just above the starts given.
@seed(20261021)
@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(_start_of_bits(14, 30), min_size=4, max_size=4))
@example([47836, 47836, 61780, 61780, 126592282])
def test_factor_runs_pm1_stage_1_once_and_each_curve_once(starts):
    sympy = pytest.importorskip("sympy")
    m = prod(sympy.nextprime(x) for x in starts)
    sigmas, curves = [], numtheory._ecm_curves

    def record_curves():
        for curve in curves():
            sigmas.append(curve[0])
            yield curve

    with pytest.MonkeyPatch.context() as mp:
        stages = _record_stages(mp)
        mp.setattr(numtheory, "_ecm_curves", record_curves)
        assert dict(factor(m).factors) == sympy.factorint(m)
    assert [stage for stage, _ in stages].count("Pollard p-1 stage 1") <= 1
    assert sigmas == sorted(set(sigmas))


# --- factor's stop callback ---------------------------------------------------

def test_factor_with_a_stop_that_never_fires_is_factor():
    rng = random.Random(19)
    values = [1, 12, 2**521 - 1, 10009 * 10037 * 10061, 2**3 * 3 * 10007**2 * 1_000_003]
    values += [rng.getrandbits(rng.randint(20, 64)) for _ in range(60)]
    for m in values:
        assert factor(m, stop=lambda divisors: False) == factor(m), m


def test_factor_calls_stop_just_before_each_split():
    seen = []

    def stop(divisors):
        seen.append(list(divisors))
        return False

    # a prime, and values with no prime factor above TRIAL_BOUND or only one
    for m in (2**521 - 1, 10007, 2**40 * 3**5 * 5**3, 9973**3 * 10007, 9967 * 9973 * (2**61 - 1)):
        factor(m, stop=stop)
    assert seen == []
    m = 2**3 * 3 * 10007 * 10009 * 10037
    assert factor(m, stop=stop).factors == ((2, 3), (3, 1), (10007, 1), (10009, 1), (10037, 1))
    # each distinct small prime once, then the piece about to be split.
    # Pollard p-1 makes the first split: 10008 and 10036 are 1000-smooth, so
    # stage 1 finds g = 10009*10037 and leaves 10007, which is tested first
    assert seen == [[2, 3, 10007 * 10009 * 10037], [10007, 10009 * 10037]]
    # m itself is never handed over: with no small prime, the first call
    # comes empty.  ECM splits m into 10037 and 10009*10061 and tests the
    # second first
    seen.clear()
    m = 10009 * 10037 * 10061
    assert factor(m, stop=stop).factors == ((10009, 1), (10037, 1), (10061, 1))
    assert seen == [[], [10009 * 10061]]
    # a prime power above TRIAL_BOUND is split, by isqrt or by a method:
    # 10007² once, and 10007³ twice, p-1 leaving 10007² for isqrt
    for e, calls in ((2, [[]]), (3, [[], [10007**2]])):
        seen.clear()
        assert factor(10007**e, stop=stop).factors == ((10007, e),)
        assert seen == calls


def test_factor_returns_none_when_stop_fires_before_any_split(monkeypatch, count_calls):
    calls = count_calls(numtheory, "_ecm")
    monkeypatch.setattr(numtheory, "FACTOR_EFFORT", 10)  # too little to split m
    m = 1_000_003 * 1_000_033
    assert factor(m, stop=lambda divisors: divisors == []) is None  # m has no proper divisor yet
    assert calls["_ecm"] == 0


def test_factor_rejects_nonpositive():
    with pytest.raises(DomainError):
        factor(0)


def test_factorization_validates_itself():
    Factorization(12, ((2, 2), (3, 1)))  # fine
    for value, factors, message in (
        (12, ((2, 1), (3, 1)), "factor product 6 != value 12"),
        (12, ((3, 1), (2, 2)), "factors must be strictly increasing primes"),  # out of order
        (16, ((4, 2),), "4 is not prime"),
        (4, ((2, 0),), "exponents must be positive"),
        (-3, (), "Factorization of a non-positive integer"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            Factorization(value, factors)
        with pytest.raises(DomainError, match=f"^{message}$"):  # _replace checks too
            Factorization(1, ())._replace(value=value, factors=factors)


def test_factor_returns_the_checked_record():
    for n in (1, 2, 12, 97, 2**10 * 3**5, 10_007 * 1_000_003, 1_000_003**2 * 1_000_033):
        fact = factor(n)
        assert type(fact) is Factorization and fact == Factorization(n, fact.factors), n
        value, factors = fact
        assert value == n and factors == fact.factors and isinstance(factors, tuple)
    with pytest.raises(AttributeError):
        fact.value = 2


# --- sqrt_mod ----------------------------------------------------------------

def test_sqrt_mod_known_values():
    z = sqrt_mod(1, 8, factor(8))
    assert z in (1, 3, 5, 7) and z * z % 8 == 1
    z = sqrt_mod(4, 15, factor(15))
    assert z is not None and z * z % 15 == 4
    assert z == 2  # smallest nonnegative root
    assert sqrt_mod(5, 8, factor(8)) is None


def test_sqrt_mod_rejects_non_coprime_and_bad_factorization():
    with pytest.raises(DomainError):
        sqrt_mod(3, 9, factor(9))
    with pytest.raises(DomainError):
        sqrt_mod(1, 8, factor(12))
    with pytest.raises(DomainError):
        sqrt_mod(1, 1, factor(1))


def test_sqrt_mod_agrees_with_scan_below_200():
    for m in range(2, 200):
        fact = factor(m)
        least = brute_least_roots(m)
        for a in range(1, m):
            if gcd(a, m) == 1:  # the smallest nonnegative root overall, or None
                assert sqrt_mod(a, m, fact) == least.get(a), (a, m)


def test_sqrt_mod_is_the_smallest_root_past_16_combinations():
    # the search path, on every unit: 2^e times odd primes, 32 to 128 combinations
    for m in (8 * 3 * 5 * 7, 16 * 3 * 5 * 7, 8 * 9 * 5 * 7, 3 * 5 * 7 * 11 * 13,
              2 * 3 * 5 * 7 * 11 * 13, 8 * 3 * 5 * 7 * 11 * 13):
        fact = factor(m)
        least = brute_least_roots(m)
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert sqrt_mod(a, m, fact) == least.get(a), (a, m)


def test_sqrt_mod_sampled_up_to_2000():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(200, 2000)
        fact = factor(m)
        least = brute_least_roots(m)
        for a in rng.sample(range(1, m), 30):
            if gcd(a, m) != 1:
                continue
            assert sqrt_mod(a, m, fact) == least.get(a), (a, m)


@pytest.mark.parametrize("e", range(5))
def test_sqrt_mod_is_the_smallest_root_on_smooth_moduli(e):
    # 2^e times 1-13 distinct odd primes below 200, some squared: from 1 to
    # 2^15 combinations, so both the full listing (up to 16) and the search
    # (32 and up).  Factors ascend, so the power of two, when there is one,
    # always opens the search's first half.
    residue_ntheory = pytest.importorskip("sympy.ntheory.residue_ntheory")
    odd = brute_primes_below(200)[1:]
    rng = random.Random(4100 + e)
    for k in range(0 if e else 1, 14):
        m = prod(p ** rng.choice((1, 1, 1, 2)) for p in rng.sample(odd, k)) << e
        fact = factor(m)
        z = rng.randrange(1, m + 1)
        while gcd(z, m) != 1:
            z = rng.randrange(1, m + 1)
        for a in (z * z % m, z):
            roots = residue_ntheory.sqrt_mod(a, m, all_roots=True)
            assert sqrt_mod(a, m, fact) == (min(roots) if roots else None), (a, m)


def test_sqrt_mod_prime_power_lifting():
    # odd prime powers and 2-powers with multiple root classes
    for m in (27, 125, 343, 2401, 16, 32, 64, 121 * 8):
        fact = factor(m)
        least = brute_least_roots(m)
        for a in range(1, m):
            if gcd(a, m) == 1:
                assert sqrt_mod(a, m, fact) == least.get(a), (a, m)


def test_roots_mod_prime_power_are_every_root_below_3000():
    # every prime power pe < 3000, 2-powers included, against one squares table per pe
    checked = 0
    for prime in brute_primes_below(3000):
        pe, exp = prime, 1
        while pe < 3000:
            roots_of = {}
            for x in range(pe):
                roots_of.setdefault(x * x % pe, []).append(x)
            for a in range(1, pe):
                if a % prime:
                    got = numtheory._roots_mod_prime_power(a, prime, exp)
                    assert got == roots_of.get(a, []), (a, prime, exp)
                    checked += 1
            pe, exp = pe * prime, exp + 1
    assert checked > 600_000


def test_sqrt_mod_caps_its_root_combinations():
    odd = brute_primes_below(100)[1:]
    m = prod(odd[:19])  # 2^19 root combinations, above the 2^18 cap
    fact = factor(m)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="524288 root combinations.*262144"):
        sqrt_mod(4, m, fact)
    assert time.perf_counter() - start < 1.0
    m = prod(odd[:18])  # exactly 2^18 combinations, the most the cap allows
    fact = factor(m)
    tracemalloc.start()
    try:
        assert sqrt_mod(4, m, fact) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a list of all 2^18 roots takes about 19 MB

