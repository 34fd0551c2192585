"""Integer binary quadratic forms A*x^2 + 2B*x*y + C*y^2 (even middle
coefficient) with determinant A*C - B^2, and the solvability test for
-z^2 ≡ D (mod |n|) that controls whether some form of determinant D
represents n at a primitive vector."""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import numtheory
from .errors import DomainError, ResourceError

# solvable_congruence scans z = 0 .. |n|/2 when gcd(D, n) > 1: |n| = 10^6 with
# no root takes about 0.06 s on a 2-vCPU Xeon host, and the time grows linearly.
CONGRUENCE_SCAN_MAX = 10**6


class QuadForm(namedtuple("QuadForm", "A B C")):
    """The form A*x^2 + 2*B*x*y + C*y^2."""

    __slots__ = ()

    def determinant(self) -> int:
        return self.A * self.C - self.B * self.B

    def evaluate(self, x: int, y: int) -> int:
        return self.A * x * x + 2 * self.B * x * y + self.C * y * y


def construct_representing_form(n: int, D: int, z0: int) -> QuadForm:
    """The form (n, z0, (D + z0^2)/n): determinant D, value n at (1, 0).

    Needs n != 0 and n | D + z0^2, i.e. z0 solving -z0^2 ≡ D (mod |n|).
    """
    if n == 0:
        raise DomainError("leading coefficient must be nonzero")
    num = D + z0 * z0
    if num % n != 0:
        raise DomainError(f"{n} does not divide D + z0^2 = {num}")
    return QuadForm(n, z0, num // n)


def solvable_congruence(n: int, D: int) -> int | None:
    """Smallest-magnitude z0 in (-|n|/2, |n|/2] with -z0^2 ≡ D (mod |n|),
    or None when the congruence has no solution.  Ties go to positive z0.

    Solved via sqrt_mod when gcd(-D, |n|) = 1, inheriting its ResourceError
    above SQRT_MOD_MAX_COMBINATIONS: its smallest nonnegative root r pairs
    with the root |n| - r >= r, so r <= |n|/2 and no root is nearer 0.
    Otherwise z = 0, 1, ..., |n|/2 is scanned up to the first root, which
    is the answer because z and -z solve the congruence together; the scan
    raises ResourceError when |n| exceeds CONGRUENCE_SCAN_MAX (10^6).  The
    solver never calls it (its root comes from sqrt_mod_prime modulo the
    prime q').
    """
    if n == 0:
        raise DomainError("modulus source n must be nonzero")
    m = abs(n)
    if m == 1:
        return 0
    target = (-D) % m
    if gcd(target, m) == 1:
        return numtheory.sqrt_mod(target, m, numtheory.factor(m))
    if m > CONGRUENCE_SCAN_MAX:
        raise ResourceError(f"solvable_congruence would scan [0, {m}), "
                            f"above the cap of {CONGRUENCE_SCAN_MAX}")
    return next((z for z in range(m // 2 + 1) if (z * z + D) % m == 0), None)
