"""Lens space bookkeeping: normalization to canonical (p, q), Bezout pairs,
and the homeomorphism-class test q2 ≡ ±q1^{±1} (mod p)."""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import NamedTuple

from .errors import DomainError
from .numtheory import mod_inv

THREE_SPHERE = "3-sphere"
NOT_A_LENS_SPACE = "not-a-lens-space"


class LensSpace(namedtuple("LensSpace", "p q")):
    """L(p, q) in canonical form: p >= 2, 0 < q < p, gcd(p, q) = 1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 2:
            raise DomainError(f"need p >= 2, got {p}")
        if not 0 < q < p:
            raise DomainError(f"need 0 < q < p, got q={q}, p={p}")
        if gcd(p, q) != 1:
            raise DomainError(f"need gcd(p, q) = 1, got gcd {gcd(p, q)}")
        return tuple.__new__(cls, (p, q))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __str__(self):
        return f"L({self.p},{self.q})"


class SpecialCase(NamedTuple):
    """Inputs with |p| <= 1, which are not lens spaces with p >= 2."""

    kind: str  # THREE_SPHERE or NOT_A_LENS_SPACE
    p: int
    q: int


class BezoutPair(NamedTuple):
    """Positive (s, r) with p*s - q*r = 1 and 0 < r < p (r ≡ -q^{-1} mod p)."""

    s: int
    r: int


def normalize(p: int, q: int) -> LensSpace | SpecialCase:
    """Canonicalize any surgery pair (p, q).

    Negative p flips the sign of both (L(-p, q) = L(p, (-q) mod p)), then q
    is reduced mod p.  |p| = 1 is the 3-sphere and p = 0 is out of scope;
    both come back as SpecialCase rather than an error.  Pairs with
    gcd(p, q) > 1 after reduction raise DomainError.
    """
    p0, q0 = p, q
    if p < 0:
        p, q = -p, -q
    if p == 0:
        return SpecialCase(NOT_A_LENS_SPACE, p0, q0)
    if p == 1:
        return SpecialCase(THREE_SPHERE, p0, q0)
    q %= p
    if gcd(p, q) != 1:
        raise DomainError(f"({p0}, {q0}) reduces to gcd {gcd(p, q)} != 1")
    return LensSpace(p, q)


def bezout(lens: LensSpace) -> BezoutPair:
    """The canonical positive Bezout pair of a lens space."""
    r = lens.p - mod_inv(lens.q, lens.p)
    s = (1 + lens.q * r) // lens.p
    assert lens.p * s - lens.q * r == 1 and 0 < r < lens.p and s > 0
    return BezoutPair(s, r)


def same_homeomorphism_class(l1: LensSpace, l2: LensSpace) -> bool:
    """True when L(p1,q1) and L(p2,q2) are homeomorphic (either orientation):
    p1 = p2 and q2 ≡ ±q1 or ±q1^{-1} (mod p)."""
    if l1.p != l2.p:
        return False
    p, q1 = l1.p, l1.q
    qinv = mod_inv(q1, p)
    return l2.q in {q1, (-q1) % p, qinv, (-qinv) % p}
