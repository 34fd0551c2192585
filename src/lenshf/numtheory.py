"""Exact integer kernel: modular inverses, Jacobi symbols, primality,
modular square roots and factoring (trial gcd, then Pollard p-1, whose
one stage-1 value per call serves every piece, and Lenstra's elliptic
curve method on what it leaves whole, its curves one sequence per call;
p-1's Lucas stage 2 and ECM's walk the same k*D ± j grid, one product
term per multiplication, on integers and on curve points' affine x).

Everything operates on plain Python integers (arbitrary precision) and no
floating point is used anywhere.  All functions are pure and safe to call
concurrently.  Square roots are normalized so results are deterministic:
sqrt_mod_prime returns min(z, pi - z) and sqrt_mod returns the smallest
nonnegative root of the congruence.

Primality is proven below 10^8 by the trial primes alone; from 10^8 up
is_prime runs Baillie-PSW, which is proven below 2**64 and has no known
counterexample above it, so factor's pieces there are probable primes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import accumulate, count
from math import gcd, isqrt, prod

from .errors import DomainError, IntegrityError, NotInvertibleError, ResourceError

TRIAL_BOUND = 10_000
FACTOR_EFFORT = 4_000_000

# sqrt_mod meets in the middle, so 2^18 root combinations (18 odd primes) cost
# 0.7-1.2 ms and a 0.07 MB tracemalloc peak on a shared 2-vCPU host (listing
# all of them: 0.11-0.18 s and 19 MB).  The cap stays so that the same moduli
# answer.
SQRT_MOD_MAX_COMBINATIONS = 1 << 18


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    for i in range(2, isqrt(n - 1) + 1):
        sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return tuple(i for i in range(2, n) if sieve[i])


# The 1,229 primes below TRIAL_BOUND (sieved in under 1 ms) and their 14,277-bit
# product, whose gcd with m is the product of m's distinct primes among them.
_TRIAL_PRIMES = _primes_below(TRIAL_BOUND)
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
_SMALL_PRODUCT = prod(_TRIAL_PRIMES[:25])  # the primes up to 97: is_prime's first screen


def _prime_power_product(bound: int) -> int:
    """The product of the largest power <= bound of each prime <= bound."""
    e = 1
    for p in _TRIAL_PRIMES[:bisect_right(_TRIAL_PRIMES, bound)]:
        q = p
        while q * p <= bound:
            q *= p
        e *= q
    return e


# Pollard p-1's stage 1 takes the 1,438-bit exponent E = lcm(1..1000)
# (bounds of 600-2000 measured alike, 300 worse), and its stage 2
# (_lucas_stage2) reaches each prime in (1000, TRIAL_BOUND) as k*D ± j with
# D = 210, j < D/2 prime to D and k from 5 (5*D - 103 = 947) to 47
# (47*D + 103 = 9973); it costs a unit per product term and per k.
_PM1_EXPONENT = _prime_power_product(1000)
_STAGE2_D = 210
_STAGE2_J = tuple(j for j in range(1, _STAGE2_D // 2, 2) if gcd(j, _STAGE2_D) == 1)
_STAGE2_K = range(5, 48)

# ECM's steps (B1, B2, curves): rising bounds, each run on its number of
# curves, and the last (curves 0) on curves without end.  The first two were
# fitted on products of 20-32-bit primes, the rest on semiprimes of two
# 40-52-bit primes, by counts of ladder bits, curve additions and stage-2
# products.  Every B1 is at least D/2 and at most TRIAL_BOUND.  Stage 1 is
# charged _ECM_STAGE1_UNITS per bit of its exponent and stage 2
# _ECM_STAGE2_UNITS per product term and per giant step; both were fitted
# so that FACTOR_EFFORT runs out no later than Pollard-Brent's did on a
# 160-bit semiprime (about 5 us per ladder bit and 1.2 us per term there, on
# a 2-vCPU host).  Re-measured on the last step's grid at 160 bits, a term
# took 0.61 us on projective points and takes 0.40 us on affine x.
_ECM_STEPS = ((120, 6000, 20), (350, 10_000, 40), (1000, 50_000, 60), (3000, 150_000, 200),
              (10_000, 1_000_000, 0))
_ECM_STAGE1_UNITS = 8
_ECM_STAGE2_UNITS = 2
_STAGE2_BLOCK = 64  # ECM stage 2's giants per inversion, so memory does not grow with B2


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m).  m >= 2."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(f"{a} is not invertible modulo {m} (gcd {gcd(a, m)})") from None


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd positive m; in {-1, 0, 1}.

    Zero exactly when gcd(a, m) > 1.  a may be any integer (reduced mod m).
    """
    if m <= 0 or m % 2 == 0:
        raise DomainError(f"Jacobi symbol needs odd positive modulus, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def _mr_witness(n: int, d: int, s: int, base: int) -> bool:
    """True if `base` witnesses n composite (n - 1 = d * 2**s, d odd)."""
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _lucas_v(a: int, k: int, n: int) -> tuple[int, int]:
    """(V_k, V_(k+1)) mod n, k >= 1, for V_i = x**i + x**-i and a = x + 1/x
    reduced mod n, by the ladder V_2i = V_i**2 - 2, V_(2i+1) = V_i*V_(i+1) - a."""
    v, w = a, (a * a - 2) % n  # (V_i, V_(i+1)) from i = 1
    for bit in bin(k)[3:]:
        if bit == "1":
            v, w = (v * w - a) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - a) % n
    return v, w


def _strong_lucas_prp(m: int) -> bool:
    """Strong Lucas probable-prime test of odd m > 1, Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D|m) = -1, P = 1 and
    Q = (1 - D)/4; a perfect square has no such D and is rejected first.
    With m + 1 = d * 2**s, d odd, m passes when U_d ≡ 0 or V_(d*2**r) ≡ 0
    for some r < s.  For the roots a, b of x*x - x + Q and c = a/b these
    read c**d = 1, c**d = -1 and c**(d*2**r) = -1.  So the chain runs on
    V'_k = c**k + c**-k, the Lucas sequence with P' = 1/Q - 2 and Q' = 1,
    whose steps need no power of Q: V'_2k = V'_k**2 - 2 and
    V'_(2k+1) = V'_k * V'_(k+1) - P'.  c**d = ±1 exactly when V'_d ≡ ±2
    and U'_d ≡ 0, where D' * U'_d = 2 * V'_(d+1) - P' * V'_d and D' is a
    unit; for r >= 1, c**(d*2**r) = -1 exactly when V'_(d*2**(r-1)) ≡ 0.
    """
    if isqrt(m) ** 2 == m:
        return False
    D = 5
    while (j := jacobi(D, m)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:  # a factor |D|, or m = |D| itself
        return m == abs(D)
    # Q = (1 - D)/4 is prime to m: each odd prime of Q (9 for 3) came before D
    p = (pow((1 - D) // 4, -1, m) - 2) % m
    d, s = m + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    v, w = _lucas_v(p, d, m)  # (V'_d, V'_(d+1))
    if (2 * w - p * v) % m == 0 and v in (2, m - 2):
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % m
    return False


def is_prime(m: int) -> bool:
    """The sieve below TRIAL_BOUND; above it, gcds with the products of the
    primes up to 97 and below TRIAL_BOUND reject m with such a factor, and
    prove the rest prime below TRIAL_BOUND**2 = 10^8 with no Miller-Rabin
    round.  From 10^8 up, Baillie-PSW: one strong round to base 2 and, if
    m passes it, one strong Lucas test (_strong_lucas_prp).  No base-2
    pseudoprime below 2**64 (Feitsma's list) passes both (Gilchrist), so the
    answer is proven there; above it no composite is known to pass both.
    """
    if m < TRIAL_BOUND:
        return m in _TRIAL_PRIME_SET
    if gcd(m, _SMALL_PRODUCT) != 1 or gcd(m, _TRIAL_PRODUCT) != 1:
        return False  # m >= TRIAL_BOUND, so a proper factor
    if m < TRIAL_BOUND * TRIAL_BOUND:
        return True  # no prime factor up to isqrt(m)
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not _mr_witness(m, d, s, 2) and _strong_lucas_prp(m)


def sqrt_mod_prime(a: int, prime: int) -> int | None:
    """Square root of a modulo a prime, or None when a is a non-residue.

    Returns the smaller root min(z, prime - z).  One Tonelli-Shanks path
    serves every prime: with prime - 1 = q * 2**s, q odd, the one power
    a**((q-1)/2) gives z = a**((q+1)/2) and t = a**q, so z*z ≡ a*t, and
    Euler's criterion is t**(2**(s-1)).  Each step scales z by some b and
    t by b*b, which keeps z*z ≡ a*t, until t = 1 and z is the root; for
    prime ≡ 3 (mod 4) (s = 1) t starts at 1.  The caller vouches for
    primality; an even modulus above 2, or compositeness detected
    mid-computation, raises IntegrityError.

    None proves that a is a non-residue for any odd modulus m, prime or
    not: it means a**((m-1)/2) ≡ -1, which forces (a|m) = -1.  With
    t = v2(m-1), each prime P | m has v2(ord_P a) = t, and (a|P) = -1
    exactly when v2(P-1) = t; m ≡ 1 + 2**t (mod 2**(t+1)) makes those P,
    counted with multiplicity, odd in number.
    """
    if prime < 2:
        raise DomainError(f"modulus must be >= 2, got {prime}")
    if prime % 2 == 0 and prime > 2:
        raise IntegrityError(f"modulus {prime} is not prime (2 divides it)")
    a %= prime
    if a == 0:
        return 0
    q, s = prime - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    w = pow(a, (q - 1) // 2, prime)
    z = w * a % prime
    t = w * z % prime
    euler = pow(t, 1 << s >> 1, prime)  # exponent 0 at prime 2, where s = 0 and t = 1
    if euler != 1:  # tested first: at prime 2, 1 is also prime - 1
        if euler == prime - 1:
            return None
        raise IntegrityError(f"modulus {prime} is not prime (Euler criterion)")
    if t != 1:
        for c in range(2, prime):  # a prime has a non-residue below it, a composite a factor
            j = jacobi(c, prime)
            if j == -1:
                break
            if j == 0:
                raise IntegrityError(f"modulus {prime} is not prime ({c} divides it)")
        c = pow(c, q, prime)
        m = s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % prime
                i += 1
                if i == m:
                    raise IntegrityError(f"modulus {prime} is not prime (TS loop)")
            b = pow(c, 1 << (m - i - 1), prime)
            z = z * b % prime
            c = b * b % prime
            t = t * c % prime
            m = i
    return min(z, prime - z)


class Factorization(namedtuple("Factorization", "value factors")):
    """value = product of prime**exp over factors; factors strictly increasing.

    Construction checks all of this, primality by is_prime included; only
    factor(), which has just tested each prime, skips the checks.
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]):
        if value < 1:
            raise DomainError("Factorization of a non-positive integer")
        prod = 1
        prev = 1
        for prime, exp in factors:
            if prime <= prev:
                raise DomainError("factors must be strictly increasing primes")
            if exp < 1:
                raise DomainError("exponents must be positive")
            if not is_prime(prime):
                raise DomainError(f"{prime} is not prime")
            prev = prime
            prod *= prime ** exp
        if prod != value:
            raise DomainError(f"factor product {prod} != value {value}")
        return tuple.__new__(cls, (value, factors))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


def _charge(budget: list[int], units: int, stage: str, n: int) -> None:
    """Take units from the factoring budget, or raise ResourceError first."""
    if budget[0] < units:
        spent = FACTOR_EFFORT - budget[0]
        raise ResourceError(
            f"factoring effort cap exhausted in {stage} on {n}: "
            f"{spent} of FACTOR_EFFORT = {FACTOR_EFFORT} units spent, {units} more needed"
        )
    budget[0] -= units


def _lucas_stage2(w: int, n: int, budget: list[int]) -> int:
    """gcd(n, product of V_kD - V_j over k in _STAGE2_K, j in _STAGE2_J).

    With w = x + 1/x and V_i = x**i + x**-i, V_kD - V_j =
    x**-kD * (x**kD - x**j) * (x**kD - x**-j), so a prime P of n divides
    the product when the order of x mod P divides k*D - j or k*D + j.
    """
    _charge(budget, len(_STAGE2_K) * (len(_STAGE2_J) + 1), "Pollard p-1 stage 2", n)
    w2 = (w * w - 2) % n
    baby = []
    prev = cur = w  # V_-1 = V_1, then V_(j+2) = V_j*V_2 - V_(j-2)
    for j in range(1, _STAGE2_D // 2, 2):
        if j in _STAGE2_J:
            baby.append(cur)
        prev, cur = cur, (cur * w2 - prev) % n
    vd = _lucas_v(w, _STAGE2_D, n)[0]
    g, h = _lucas_v(vd, _STAGE2_K[0], n)  # V_kD, V_(k+1)D: V_k(V_D) = V_kD
    giants = []
    for _ in _STAGE2_K:
        giants.append(g)
        g, h = h, (h * vd - g) % n
    return gcd(_stage2_terms(1, giants, baby, n), n)


def _stage2_terms(acc: int, giants: list[int], baby: list[int], n: int) -> int:
    """acc times the product of g - b over g in giants, b in baby, mod n,
    reduced once per two terms: baby is taken in pairs, so its length must
    be even (_STAGE2_J has 24), and zip's strict raises on an odd one."""
    pairs = list(zip(baby[::2], baby[1::2], strict=True))
    for g in giants:
        for b1, b2 in pairs:
            acc = acc * (g - b1) * (g - b2) % n
    return acc


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], n: int) -> tuple[int, int]:
    """P + Q on a Montgomery curve, x-only ((X:Z), Y dropped), from diff = P - Q."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ladder(k: int, pt: tuple[int, int], a24: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(kP, (k+1)P), k >= 1, on the Montgomery curve with a24 = (A + 2)/4.

    The ladder's two points R0, R1 always differ by P = pt: each bit sets
    them to (2*R0, R0 + R1), swapped in and out when the bit is 1.  xDBL and
    xADD are written out here (a quarter faster than calls at 64 bits)."""
    x, z = x0, z0 = pt
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    t = s - d
    x1, z1 = s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        s, d = x0 + z0, x0 - z0
        u, v = d * (x1 + z1) % n, s * (x1 - z1) % n
        s, d = s * s % n, d * d % n
        t = s - d
        x0, z0, x1, z1 = s * d % n, t * (d + a24 * t) % n, z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return (x0, z0), (x1, z1)


def _ecm_curves() -> Iterator[tuple[int, int, range]]:
    """(sigma, E, ks) for curve sigma = 6, 7, ...: each step of _ECM_STEPS
    gives its number of curves, the last without end, its stage-1 exponent
    E = _prime_power_product(B1), built once, and its giant steps ks."""
    first = 6
    for b1, b2, curves in _ECM_STEPS:
        e = _prime_power_product(b1)
        ks = range((b1 + _STAGE2_D // 2) // _STAGE2_D, (b2 + _STAGE2_D // 2) // _STAGE2_D + 1)
        for sigma in range(first, first + curves) if curves else count(first):
            yield sigma, e, ks
        first += curves


def _ecm(n: int, budget: list[int], curves: Iterator[tuple[int, int, range]]) -> int:
    """A proper divisor of odd composite n by Lenstra's elliptic curve method.

    Curve sigma is Suyama's Montgomery curve: with u = sigma**2 - 5 and
    v = 4*sigma, the point x = u**3/v**3 on the curve with (A + 2)/4
    = (v - u)**3 * (3u + v) / (16 * u**3 * v), whose group order mod every
    prime is 12 times a cofactor.  The curves come from curves (an
    _ecm_curves() sequence) until one splits n, so FACTOR_EFFORT alone
    bounds the work.  Stage 1 multiplies the point by E with one ladder, so
    a prime P of n divides Z when the point's order mod P divides E.  Stage 2
    (_ecm_stage2) then catches the P where it divides E times one prime in
    (B1, B2].  A curve whose gcd is n is passed over.
    """
    for sigma, e, ks in curves:
        u, v = sigma * sigma - 5, 4 * sigma
        x, z = u ** 3 % n, v ** 3 % n
        d = 16 * x * v % n  # the denominator of (A + 2)/4
        try:
            inv = pow(d * z, -1, n)  # one inverse for (A + 2)/4 and x/z
        except ValueError:
            g = gcd(d * z, n)
            if g < n:
                return g
            continue
        a24 = (v - u) ** 3 * (3 * u + v) * z % n * inv % n
        pt = x * d % n * inv % n, 1
        _charge(budget, _ECM_STAGE1_UNITS * e.bit_length(), "ECM stage 1", n)
        pt = _ladder(e, pt, a24, n)[0]
        g = gcd(pt[1], n)
        if g == 1:
            _charge(budget, _ECM_STAGE2_UNITS * len(ks) * (len(_STAGE2_J) + 1), "ECM stage 2", n)
            g = _ecm_stage2(pt, a24, n, ks)
        if 1 < g < n:
            return g


def _affine_x(points: list[tuple[int, int]], n: int) -> tuple[int, list[int]]:
    """(1, [X/Z mod n for (X:Z) in points]) by one inverse of the product of
    the Zs (Montgomery's trick), or (gcd(product, n), []) if it has none."""
    prefix = list(accumulate((z for _, z in points), lambda a, z: a * z % n, initial=1))
    if (g := gcd(prefix[-1], n)) > 1:
        return g, []
    inv = pow(prefix.pop(), -1, n)
    xs = []
    for (x, z), p in zip(reversed(points), reversed(prefix)):
        xs.append(x * p % n * inv % n)
        inv = inv * z % n
    return 1, xs[::-1]


def _ecm_stage2(pt: tuple[int, int], a24: int, n: int, ks: range) -> int:
    """gcd(n, product of x_kD - x_j over k in ks, j in _STAGE2_J), x = X/Z
    of the baby steps j*Q, Q = pt, and the giant steps k*D*Q, which
    _affine_x takes to x with one inversion for the babies and one per
    _STAGE2_BLOCK giants, so a term costs one multiplication.  A term
    vanishes mod a prime P of n when k*D*Q = ±j*Q there, and a product of
    Zs that is not a unit, whose gcd is returned, when the order of Q mod P
    divides some k*D or j."""
    baby = []
    prev = cur = pt  # (j-2)Q and jQ from j = 1: -Q has Q's x
    q2 = _ladder(1, pt, a24, n)[1]
    for j in range(1, _STAGE2_D // 2, 2):
        if j in _STAGE2_J:
            baby.append(cur)
        prev, cur = cur, _xadd(cur, q2, prev, n)
    d, baby = _affine_x(baby, n)
    if d > 1:
        return d
    dq = _ladder(_STAGE2_D, pt, a24, n)[0]
    g, h = _ladder(ks[0], dq, a24, n)  # k*D*Q and (k+1)*D*Q
    acc = 1
    for i in range(0, len(ks), _STAGE2_BLOCK):
        giants = []
        for _ in ks[i:i + _STAGE2_BLOCK]:
            giants.append(g)
            g, h = h, _xadd(h, dq, g, n)
        d, xs = _affine_x(giants, n)
        if d > 1:
            return d
        acc = _stage2_terms(acc, xs, baby, n)
    return gcd(acc, n)


def factor(m: int, *, stop: Callable[[list[int]], bool] | None = None) -> Factorization | None:
    """Full prime factorization of m >= 1, or None when stop asks for it.

    One gcd with the product of the primes below TRIAL_BOUND names the
    small primes, which are divided out.  A composite piece left that is a
    square r*r is pushed once as r with twice its multiplicity; any other
    splits by Pollard p-1, which finds the primes P with smooth P - 1, or
    else by Lenstra's elliptic curve method (_ecm), which finds the P for
    which one of its curves has a smooth group order.  p-1's stage 1 takes
    x = 2**E mod the first such piece, once per call: every later piece
    divides that one, so x is its stage-1 value too, and each piece n takes
    g = gcd(x - 1, n), which also catches a prime shared with a divisor
    split off before (as P**2 * Q can hold).  Stage 2 (_lucas_stage2) runs
    once, on x + 1/x mod the first piece whose g is 1, so it finds P when
    P - 1 divides E times a prime in (1000, TRIAL_BOUND).  A piece that p-1
    leaves whole goes to ECM, whose curves are one sequence per call: no
    curve runs twice.  Stages draw on one budget of FACTOR_EFFORT units,
    charged before they run; one that would overdraw it raises
    ResourceError, naming the stage and the effort spent.

    stop, when given, is called just before each split, so never for a
    prime m or one with no prime factor above TRIAL_BOUND.  It gets the
    proper divisors of m found since its previous call, so never m itself:
    each distinct prime below TRIAL_BOUND (first call only), each piece
    tested, and last the composite piece about to be split.  If it returns
    True, factor stops and returns None.
    """
    if m < 1:
        raise DomainError(f"factor() needs m >= 1, got {m}")
    counts: dict[int, int] = {}
    rem = m
    g = gcd(rem, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while rem % p == 0:
                counts[p] = counts.get(p, 0) + 1
                rem //= p
    budget = [FACTOR_EFFORT]
    curves = _ecm_curves()
    x = None  # p-1's stage-1 value 2**E mod the first piece it runs on
    stage2 = True  # p-1's stage 2 has yet to run
    found = list(counts)  # the proper divisors found and not yet handed to stop
    stack = [(rem, 1)] if rem > 1 else []  # (piece, multiplicity)
    while stack:
        n, e = stack.pop()
        if n < m:
            found.append(n)
        if is_prime(n):
            counts[n] = counts.get(n, 0) + e
            continue
        if stop is not None:
            if stop(found):
                return None
            found = []
        g = isqrt(n)
        if g * g == n:
            stack.append((g, 2 * e))
            continue
        if x is None:
            _charge(budget, _PM1_EXPONENT.bit_length(), "Pollard p-1 stage 1", n)
            x = pow(2, _PM1_EXPONENT, n)
        g = gcd(x - 1, n)
        if g == 1 and stage2:
            stage2 = False
            g = _lucas_stage2((x + pow(x, -1, n)) % n, n, budget)
        if not 1 < g < n:
            g = _ecm(n, budget, curves)
        stack.append((g, e))
        stack.append((n // g, e))
    # tuple.__new__ skips Factorization's checks: each prime was tested above
    return tuple.__new__(Factorization, (m, tuple(sorted(counts.items()))))


def _roots_mod_prime_power(a: int, prime: int, exp: int) -> list[int]:
    """Ascending roots of z*z ≡ a (mod prime**exp), a prime to prime; [] if none.

    Two follows the mod-2/4/8 rules.  An odd prime's root is Hensel-lifted,
    and z mod prime never changes, so one inverse of 2z serves every step."""
    if prime == 2:
        if exp == 1:
            return [1]
        if exp == 2:
            return [1, 3] if a % 4 == 1 else []
        if a % 8 != 1:
            return []
        z = 1
        for k in range(3, exp):
            if (z * z - a) % (1 << (k + 1)):
                z += 1 << (k - 1)
        mod = 1 << exp
        half = mod >> 1
        return sorted({z % mod, (mod - z) % mod, (z + half) % mod, (half - z) % mod})
    z = sqrt_mod_prime(a, prime)
    if z is None:
        return []
    pk = prime
    if exp > 1:
        inv = mod_inv(2 * z, prime)
        for _ in range(1, exp):
            z += (a - z * z) // pk * inv % prime * pk
            pk *= prime
    return sorted({z, pk - z})


def _crt_lift(root_sets: list[tuple[int, list[int]]]) -> tuple[int, list[int]]:
    """The product of the moduli and every root modulo it, by CRT.

    Seeded with the first prime power's roots: each v in [0, mod) and rt in
    [0, pe) combine to a residue in [0, mod*pe)."""
    mod, combos = root_sets[0]
    for pe, roots in root_sets[1:]:
        inv = mod_inv(mod % pe, pe)
        combos = [v + (rt - v) * inv % pe * mod for v in combos for rt in roots]
        mod *= pe
    return mod, combos


def sqrt_mod(a: int, m: int, fact: Factorization) -> int | None:
    """Smallest nonnegative root of z*z ≡ a (mod m), or None.

    Requires gcd(a, m) = 1 (DomainError otherwise) and fact to be the
    factorization of m.  Roots are lifted per prime power (Hensel for odd
    primes; the usual mod-2/4/8 rules for two).  Up to 16 root combinations
    it lists them all by CRT.  Above that it meets in the middle: each half
    of the prime powers is combined by CRT, and one bisection per root of
    the first half in the sorted second half finds the smallest combined
    root, so N combinations cost the roots of the two halves, about sqrt(N)
    each.  Above SQRT_MOD_MAX_COMBINATIONS (2^18) combinations it raises
    ResourceError.
    """
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    if fact.value != m:
        raise DomainError(f"factorization is of {fact.value}, not {m}")
    a %= m
    if gcd(a, m) != 1:
        raise DomainError(f"sqrt_mod needs gcd(a, m) = 1, got gcd {gcd(a, m)}")
    root_sets: list[tuple[int, list[int]]] = []
    combinations = 1
    for prime, exp in fact.factors:
        pe = prime ** exp
        roots = _roots_mod_prime_power(a % pe, prime, exp)
        if not roots:
            return None
        root_sets.append((pe, roots))
        combinations *= len(roots)
    if combinations > SQRT_MOD_MAX_COMBINATIONS:
        raise ResourceError(
            f"sqrt_mod mod {m} needs {combinations} root combinations, "
            f"above the cap of {SQRT_MOD_MAX_COMBINATIONS}"
        )
    if combinations <= 16:  # measured no slower than the search below
        return min(_crt_lift(root_sets)[1])
    # Meet in the middle: with v a root mod m1 and w one mod m2 (m1*m2 = m),
    # the combined root is v + m1*t in [0, m), t = (w - v)*inv mod m2 and
    # inv = 1/m1 mod m2.  So v's least t is the least key w*inv - v*inv
    # (mod m2): the first sorted key from v*inv on, else the smallest key.
    split = (len(root_sets) + 1) // 2
    m1, low = _crt_lift(root_sets[:split])
    m2, high = _crt_lift(root_sets[split:])
    inv = mod_inv(m1 % m2, m2)
    keys = sorted([w * inv % m2 for w in high])
    n = len(keys)
    best = m
    for v in low:
        k = v * inv % m2
        i = bisect_left(keys, k)
        root = v + m1 * (keys[i] - k if i < n else keys[0] - k + m2)
        if root < best:
            best = root
    return best

