"""Seeded input generation for the benchmark, independent of lenshf.

Primes and quadratic residues come from sympy, so nothing here calls the
kernel under test.  Every function draws from a `random.Random` that it is
given or seeds from its arguments, so the same arguments always give the
same inputs.
"""

from __future__ import annotations

import hashlib
import random
from itertools import count
from math import gcd, prod

from sympy import isprime, primerange
from sympy.ntheory import is_quad_residue

SMALL_ODD_PRIMES = tuple(primerange(3, 200))

# analyze-prime's block of 20 spaces.  Half use q = the least non-residue
# (kind "lnr", count 3), half a uniform q drawn among the residues ("qr",
# count 2) or the non-residues ("nqr", count 3).  Latency clusters by size
# and count, so the mix is fixed: the median falls in the middle of the
# 256-bit count-3 cluster (30%-70% of the block) and the 90th percentile in
# the middle of the 512-bit count-3 one (80%-100%), never on the gap
# between two clusters, where it would jump from run to run.
PRIME_BLOCK = (
    (64, "lnr"), (64, "qr"), (128, "lnr"), (128, "qr"), (256, "qr"), (256, "qr"),
    *[(256, "lnr")] * 6, (256, "nqr"), (256, "nqr"),
    (512, "qr"), (512, "qr"), (512, "lnr"), (512, "lnr"), (512, "nqr"), (512, "nqr"),
)
PRIME_BLOCKS = 6  # blocks in one run's batch: 120 spaces
# A batch holds every space of the pool, and the seed sets the order in
# which they are run.  Cost within one stratum spreads widely (the number
# of prime-shift candidates, or of Pollard steps, varies from space to
# space), so a seeded subset moves the median by a rank or two of a sparse
# cluster: drawing 3/4 of a pool 4/3 the size of the batch gave
# latency_p50_ms a spread of 0.07-0.09 over ten seeds on the same code, and
# drawing 16/17 of it still 0.067.  With the whole pool the figures move
# with lenshf, not with the draw.
PRIME_POOL = {key: PRIME_BLOCK.count(key) * PRIME_BLOCKS for key in PRIME_BLOCK}
COMPOSITE_BLOCK = ("smooth", "semiprime")
COMPOSITE_POOL = 128  # per kind
SWEEP_PMAX = (190, 210)  # the range pmax is drawn from
VERIFY_BITS = (16, 64, 128, 256, 512)
VERIFY_POOL = 12  # solver certificates per (bits, n)


def digest(text: str) -> str:
    """The 64-bit prefix of sha256, enough to pin one certificate text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_prime(rng: random.Random, bits: int, one_mod_four: bool = False) -> int:
    """A prime of exactly `bits` bits, ≡ 1 (mod 4) when asked."""
    step = 4 if one_mod_four else 2
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if one_mod_four:
            p = p - p % 4 + 1
        while not isprime(p):
            p += step
        if p.bit_length() == bits:
            return p


def least_non_residue(p: int) -> int:
    return next(n for n in count(2) if not is_quad_residue(n, p))


def random_unit(rng: random.Random, p: int) -> int:
    """A uniform q in [1, p) with gcd(p, q) = 1."""
    while True:
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            return q


def inverse_of_square(rng: random.Random, p: int) -> int:
    """q = x^-2 mod p for a random unit x, so q*x^2 ≡ 1 and the count is 2."""
    x = random_unit(rng, p)
    return pow(x * x, -1, p)


def smooth_factors(rng: random.Random, index: int) -> tuple[int, ...]:
    """6 to 12 distinct small odd primes, and 1, 2, 4 or 8: the count and the
    power of two cycle with the index, since they set the cost (2^omega
    roots, each with up to 4 roots mod the power of two)."""
    odd = sorted(rng.sample(SMALL_ODD_PRIMES, 6 + index % 7))
    two = (1, 2, 4, 8)[index // 7 % 4]
    return (two, *odd) if two > 1 else tuple(odd)


def semiprime_factors(rng: random.Random, index: int) -> tuple[int, ...]:
    """Two or three (alternating with the index) distinct primes of 20 to 32
    bits, beyond trial division."""
    primes: set[int] = set()
    while len(primes) < 2 + index % 2:
        primes.add(random_prime(rng, rng.randint(20, 32)))
    return tuple(sorted(primes))


# A space is (p, q, the prime-power factors of p), the factors being what the
# checker needs to decide the count without factoring p again.
Space = tuple[int, int, tuple[int, ...]]


def prime_space(bits: int, kind: str, index: int) -> Space:
    """Entry `index` of an analyze-prime stratum: a prime p ≡ 1 (mod 4) of
    `bits` bits, with q its least non-residue (kind "lnr") or a uniform
    residue ("qr") or non-residue ("nqr")."""
    rng = random.Random(f"analyze-prime:{bits}:{kind}:{index}")
    p = random_prime(rng, bits, one_mod_four=True)
    if kind == "lnr":
        return p, least_non_residue(p), (p,)
    while True:
        q = random_unit(rng, p)
        if is_quad_residue(q, p) == (kind == "qr"):
            return p, q, (p,)


def composite_space(kind: str, index: int) -> Space:
    """Entry `index` of an analyze-composite stratum: a smooth modulus with q
    the inverse of a square (kind "smooth"), or a product of 20-32-bit primes
    with a uniform unit q (kind "semiprime")."""
    rng = random.Random(f"analyze-composite:{kind}:{index}")
    factors = smooth_factors(rng, index) if kind == "smooth" else semiprime_factors(rng, index)
    p = prod(factors)
    return p, inverse_of_square(rng, p) if kind == "smooth" else random_unit(rng, p), factors


def verify_space(bits: int, n: int, index: int) -> tuple[int, int]:
    """A space whose certificate has n = 1 (q the inverse of a square) or
    n = 2 (q a non-residue with p ≡ 1 mod 4, so -q is one as well)."""
    rng = random.Random(f"verify-bulk:{bits}:{n}:{index}")
    p = random_prime(rng, bits, one_mod_four=True)
    if n == 1:
        return p, inverse_of_square(rng, p)
    while True:
        q = random_unit(rng, p)
        if not is_quad_residue(q, p):
            return p, q


def boundary_count(q: int, factors: tuple[int, ...]) -> int:
    """2 exactly when q or -q is a square modulo p, else 3, by sympy's test
    modulo each prime-power factor of p."""
    def square(a: int) -> bool:
        return all(is_quad_residue(a % m, m) for m in factors)
    return 2 if square(q) or square(-q) else 3
