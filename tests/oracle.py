"""Deliberately naive brute-force oracles, independent of the solver's
constructions, for cross-checking every fast path.

brute_n3 scans a box exhaustively but solves the closed-form determinant

    p*(t1*t2 - l12^2) - q*(2*l12*a1*a2 - t2*a1^2 - t1*a2^2) = ±1

linearly for t2 over each (l12, t1) plane, in exact Python integers.  Any
hit is re-checked against the full determinant before it is returned.
"""

from __future__ import annotations

from math import gcd, isqrt

from lenshf import numtheory
from lenshf.errors import DomainError, IntegrityError
from lenshf.lens import LensSpace
from lenshf.quadform import QuadForm
from lenshf.witness import Witness


def brute_qr(a: int, m: int) -> bool:
    """Is a a square mod m?  Checked by scanning all of [0, m)."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    a %= m
    return any(x * x % m == a for x in range(m))


def brute_least_roots(m: int) -> dict[int, int]:
    """Each square mod m, mapped to its least root in [0, m)."""
    least = {}
    for x in range(m):
        least.setdefault(x * x % m, x)
    return least


def brute_is_prime(m: int) -> bool:
    """Is m prime?  Checked by trial division by every d in [2, isqrt(m)]."""
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


def brute_primes_below(n: int) -> list[int]:
    """The primes in [0, n), ascending, each checked by brute_is_prime."""
    return [m for m in range(n) if brute_is_prime(m)]


def brute_n2(lens: LensSpace) -> tuple[int, int] | None:
    """First (a, t) with t*p + q*a^2 = ±1, scanning a in [0, p)."""
    p, q = lens.p, lens.q
    for a in range(p):
        v = q * a * a % p
        for delta in (1, -1):
            if v == delta % p:
                return a, (delta - q * a * a) // p
    return None


def _plane(p, q, a1, a2, box):
    """First (l12, t1, t2) in brute_n3's scan order for fixed (a1, a2), or None."""
    qa1 = q * a1 * a1
    qa2 = q * a2 * a2
    cross = 2 * q * a1 * a2
    for l12 in range(-box, box + 1):
        bl = -p * l12 * l12 - cross * l12
        for t1 in range(-box, box + 1):
            lead = p * t1 + qa1
            rest = bl + qa2 * t1
            if lead == 0:
                if abs(rest) == 1:
                    return l12, t1, -box  # any t2 works; -box is first in order
                continue
            best = None
            for delta in (1, -1):
                num = delta - rest
                if num % lead == 0:
                    t2 = num // lead
                    if abs(t2) <= box and (best is None or t2 < best):
                        best = t2
            if best is not None:
                return l12, t1, best
    return None


def brute_n3(lens: LensSpace, box: int) -> Witness | None:
    """First n = 2 witness with all entries in [-box, box], or None.

    Scan order: a1 = 0..box, a2 = 0..box when a1 = 0 else -box..box (the
    a -> -a symmetry of the determinant makes negative a1 redundant), then
    l12 ascending, t1 ascending, smallest valid t2.
    """
    if box < 0:
        raise DomainError(f"box must be nonnegative, got {box}")
    p, q = lens.p, lens.q
    for a1 in range(box + 1):
        for a2 in range(0 if a1 == 0 else -box, box + 1):
            hit = _plane(p, q, a1, a2, box)
            if hit is None:
                continue
            l12, t1, t2 = hit
            val = p * (t1 * t2 - l12 * l12) - q * (2 * l12 * a1 * a2 - t2 * a1 * a1 - t1 * a2 * a2)
            if abs(val) != 1:
                raise IntegrityError(f"scan returned a non-witness for {lens}: {hit}")
            return Witness.pair(a1, a2, t1, t2, l12)
    return None


def _signed_range(bound):
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def brute_form_represents(f: QuadForm, n: int, bound: int) -> tuple[int, int] | None:
    """First primitive (x, y) with f(x, y) = n, |x|, |y| <= bound.

    Scans x then y in the order 0, 1, -1, 2, -2, ...
    """
    if bound < 0:
        raise DomainError(f"bound must be nonnegative, got {bound}")
    for x in _signed_range(bound):
        for y in _signed_range(bound):
            if gcd(x, y) == 1 and f.evaluate(x, y) == n:
                return x, y
    return None


def projective_ecm_stage2(pt: tuple[int, int], a24: int, n: int, ks: range) -> tuple[int, int]:
    """ECM stage 2 on projective points, as lenshf computed it up to 0.17.0.

    Returns gcd(n, product of X_kD*Z_j - X_j*Z_kD over k in ks, j in
    numtheory._STAGE2_J) and gcd(n, product of every Z_j and Z_kD), for the
    baby steps (X_j:Z_j) = j*Q and the giant steps (X_kD:Z_kD) = k*D*Q,
    Q = pt.  When the second is 1, each term is Z_kD*Z_j, a unit, times
    x_kD - x_j, so the affine product has the same gcd as the first.
    """
    D, J = numtheory._STAGE2_D, numtheory._STAGE2_J
    baby = []
    prev = cur = pt
    q2 = numtheory._ladder(1, pt, a24, n)[1]
    for j in range(1, D // 2, 2):
        if j in J:
            baby.append(cur)
        prev, cur = cur, numtheory._xadd(cur, q2, prev, n)
    dq = numtheory._ladder(D, pt, a24, n)[0]
    g, h = numtheory._ladder(ks[0], dq, a24, n)
    acc = 1
    zs = 1
    for bx, bz in baby:
        zs = zs * bz % n
    for _ in ks:
        gx, gz = g
        zs = zs * gz % n
        for bx, bz in baby:
            acc = acc * (gx * bz - bx * gz) % n
        g, h = h, numtheory._xadd(h, dq, g, n)
    return gcd(acc, n), gcd(zs, n)


def stage2_terms(acc: int, giants: list[int], baby: list[int], n: int) -> int:
    """acc times the product of g - b over g in giants, b in baby, mod n,
    reduced after every term, as lenshf computed it up to 0.18.0."""
    for g in giants:
        for b in baby:
            acc = acc * (g - b) % n
    return acc
